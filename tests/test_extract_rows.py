"""The fused extract actor (OCR rows straight into the kernels) is
output-identical to the per-document oracle, and the narrowed
correction passes equal their brute-force reference forms (the
reference loops, kept here)."""

import json
import random
import re

import pyarrow as pa

from ocr_service_ray import schema
from ocr_service_ray.kernels.correct import (
    CorrectionsDB,
    contextual_correct,
    dictionary_correct,
    is_russian_word,
)
from ocr_service_ray.oracle import error_row, process_document
from ocr_service_ray.sources.synth import corrections_entries, generate_corpus
from ocr_service_ray.stages.extract import FusedExtractStage
from ocr_service_ray.stages.ocr import media_table_to_registry

BATCH = 64


def contextual_reference(text: str) -> tuple[str, list[dict]]:
    """``correctors.py:214-267``: a callback on every whole word."""
    applied = []

    def replace_digits(match):
        word = match.group(0)
        if is_russian_word(word) and not word.isdigit() and ("0" in word or "8" in word):
            has_lowercase = any(c.islower() for c in word if c.isalpha())
            use_uppercase = not has_lowercase and any(c.isupper() for c in word if c.isalpha())
            if use_uppercase:
                new_word = word.replace("0", "О").replace("8", "В")
            else:
                new_word = word.replace("0", "о").replace("8", "в")
            if new_word != word:
                applied.append(
                    {
                        "from": word,
                        "to": new_word,
                        "confidence": 0.95,
                        "method": "contextual_russian_word",
                        "context": word,
                        "zero_replacements": word.count("0"),
                        "eight_replacements": word.count("8"),
                        "case": "uppercase" if use_uppercase else "lowercase",
                    }
                )
                return new_word
        return word

    return re.sub(r"\b[А-Яа-яЁё0-9]+\b", replace_digits, text), applied


def dictionary_reference(text: str, db: CorrectionsDB) -> tuple[str, list[dict]]:
    """``correctors.py:269-292``: every token in order, uncached."""
    applied = []
    corrected_text = text
    for word in re.findall(r"\b\w+\b|\W+", text):
        if not word.isalnum():
            continue
        suggestion = db.suggest(word)
        if suggestion:
            original = suggestion["original"]
            corrected = suggestion["corrected"]
            if original in corrected_text:
                corrected_text = corrected_text.replace(original, corrected, 1)
                applied.append(
                    {
                        "from": original,
                        "to": corrected,
                        "confidence": suggestion["confidence"],
                        "method": suggestion.get("method", "unknown"),
                    }
                )
    return corrected_text, applied


_PIECES = [
    "пр0верка", "ПР0ТОК0Л", "8ерный", "8ОСЕМЬ", "Пр8", "0", "808", "2023", "word8",
    "а0b", "д0_к", "_0о", "Маркуталь", "Маркутель", "О", "В", "З", "Б", "I",
    "сертефикат", "арганизация", "ё8ж", "Ё0", "ᲀ0", "ᲃᲄ", "n", "№", "_", "__",
]
_CHARS = "аоАОвВёЁя08 19zZ_-.,\n\t ᲀ"


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.6:
            parts.append(rng.choice(_PIECES))
        else:
            parts.append("".join(rng.choice(_CHARS) for _ in range(rng.randint(1, 6))))
        parts.append(rng.choice([" ", "", ", ", "\n", "_", "-"]))
    return "".join(parts)


def test_corrections_equal_reference_forms():
    rng = random.Random(20261019)
    db = CorrectionsDB(corrections_entries())
    reference_db = CorrectionsDB(corrections_entries())
    changed = 0
    for _ in range(4000):
        text = _random_text(rng)
        got = contextual_correct(text)
        assert got == contextual_reference(text), text
        assert dictionary_correct(got[0], db) == dictionary_reference(got[0], reference_db), text
        changed += bool(got[1])
    assert changed > 500


def _media_row(ref: str, lines: list[str], conf: float = 0.9, area_rect=None) -> dict:
    payload = [[t, conf, 10.0, 40.0 * j, 200.0, 40.0 * j + 30.0] for j, t in enumerate(lines)]
    row = {
        "media_ref": ref,
        "payload": json.dumps({"lines": payload}, ensure_ascii=False).encode(),
        "sharpness_var": 80.0,
        "contrast_std": 40.0,
        "brightness_mean": 120.0,
    }
    if area_rect is not None:
        row["area_rect"] = area_rect
    return row


def _hand_made():
    """Docs exercising every field, the 0/8 and '_' corrections, area
    spans and Cyrillic Extended-C text, plus a dangling media ref."""
    texts = [
        "ИНН 7707083893 и ИНН 500100732259, СНИЛС 123-456-789 01, снилс 12345678901",
        "ОГРН 1027700132195 КПП 773601001 от 01.02.2023 и 5/6/21, тел +7 (495) 123-45-67",
        "почта user@example.ru, Иванов И.О. и Петров Пётр Сидорович подписали",
        "Сертификат № ЕАЭС RU Д-RU.АЯ12.В12345_01 и N ЕАЭС RU С-RU.МЮ62.В00123_21",
        "пр0верка ПР0ТОК0Л 8ерный 8ОСЕМЬ word8 2023 а0b д0_к Маркуталь_x О_О Маркутель",
        "ᲀᲁᲂ ᲃᲄ Иванᲂв ᲀ. Документ № 123/45 выдан, n без цифр",
        "",
    ]
    docs, media = [], {}
    for i, text in enumerate(texts):
        doc_id = f"hand-{i}"
        spans = [{"kind": "text", "text": text, "media_ref": "", "offset": 0}]
        img = f"m-{doc_id}-img"
        media[img] = _media_row(img, [text[::-1], "Сид0р0в А.Б. 8ход"], conf=0.3 + 0.1 * i)
        spans.append({"kind": "image", "text": "", "media_ref": img, "offset": 2})
        if i % 2 == 0:
            area = f"m-{doc_id}-area"
            media[area] = _media_row(area, ["№ 77/88 ЕАЭС", ""], area_rect={"x1": 0, "y1": 0, "x2": 900, "y2": 90})
            spans.append({"kind": "area", "text": "", "media_ref": area, "offset": 1})
        docs.append({"doc_id": doc_id, "spans": spans})
    docs.append(
        {"doc_id": "hand-poison", "spans": [{"kind": "pdf_page", "text": "", "media_ref": "m-missing", "offset": 0}]}
    )
    return pa.Table.from_pylist(docs, schema=schema.DOC_SCHEMA), media


def _corpus():
    docs, media = generate_corpus(300, seed=13, skew_fraction=0.05)
    registry = media_table_to_registry(media)
    rng = random.Random(13)
    poison = []
    for i in range(4):
        doc = docs.slice(rng.randrange(docs.num_rows), 1).to_pylist()[0]
        doc["doc_id"] = f"poison-{i}"
        doc["spans"] = doc["spans"] + [
            {"kind": "image", "text": "", "media_ref": f"m-dangling-{i}", "offset": len(doc["spans"])}
        ]
        poison.append(doc)
    hand_docs, hand_media = _hand_made()
    registry.update(hand_media)
    all_docs = pa.concat_tables(
        [docs, pa.Table.from_pylist(poison, schema=schema.DOC_SCHEMA), hand_docs]
    )
    return all_docs, registry


def _oracle(docs: pa.Table, registry: dict) -> pa.Table:
    db = CorrectionsDB(corrections_entries())
    rows = []
    for doc in docs.to_pylist():
        try:
            rows.append(process_document(doc, registry, db))
        except Exception as e:  # continue-on-error, as the stage does
            rows.append(error_row(doc["doc_id"], e))
    return pa.Table.from_pylist(rows, schema=schema.OUT_SCHEMA)


def test_rows_path_equals_oracle():
    docs, registry = _corpus()
    fused = FusedExtractStage(registry, corrections_entries())
    batches = [docs.slice(i, BATCH) for i in range(0, docs.num_rows, BATCH)]
    got_fused = pa.concat_tables([fused(b) for b in batches])
    expected = _oracle(docs, registry)

    assert got_fused.equals(expected)

    errors = [d for d, e in zip(expected["doc_id"].to_pylist(), expected["error"].to_pylist()) if e]
    assert errors == ["poison-0", "poison-1", "poison-2", "poison-3", "hand-poison"]
    hand = {r["doc_id"]: r for r in expected.to_pylist() if r["doc_id"].startswith("hand-")}
    fields = {d: json.loads(r["critical_fields"]) for d, r in hand.items() if not r["error"]}
    assert fields["hand-3"]["certificate_number"]["value"] == "№ ЕАЭС RU Д-RU.АЯ12.В12345_01"
    assert fields["hand-2"]["email"]["valid"]
    assert fields["hand-5"]["surname"]["value"] == "Иванᲂв"
    assert "Иванᲂв" in hand["hand-5"]["important_surnames"]
    assert hand["hand-4"]["n_corrections"] > 4


def test_empty_batch():
    out = FusedExtractStage({}, corrections_entries())(schema.DOC_SCHEMA.empty_table())
    assert out.num_rows == 0 and out.schema.equals(schema.OUT_SCHEMA)
