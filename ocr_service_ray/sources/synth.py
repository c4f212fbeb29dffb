"""Deterministic synthetic interleaved corpus (FIXTURES.md §1-§5).

Generates the input the flagship pipeline and its conformance tests
run on: a ``documents`` table of interleaved text+media spans
(authoritative shape from BASELINE.json ``input_hint``), a ``media``
registry the SyntheticOCR engine consumes, an ordered corrections DB,
and a ``feedback`` event table for the aggregation jobs.

Everything is a pure function of ``(seed, index)`` — per-document RNGs
are seeded with ``f"{seed}:{i}"`` (string seeding in ``random`` is
PYTHONHASHSEED-independent), so any slice of the corpus can be
regenerated independently and in parallel, in any order. That is what
makes resume-and-compare tests byte-stable.

Planted content (FIXTURES.md §1, §6):
- Cyrillic words with OCR-style ``0``/``8`` digits inside them
  (contextual corrector must fix), including ALL-CAPS words (case
  rule), plus guards that must NOT fire: pure numbers, ``8 марта``,
  Latin-only words;
- critical fields: INN/SNILS/OGRN/KPP/dates/phone/email/№/surnames
  (one per pattern in ``/root/reference/core/validators.py:25-76``);
- corrections-DB fuzzy bait (``Маркуталь``-like typos within
  SequenceMatcher 0.8) and below-threshold decoys;
- low-confidence OCR lines (<0.5) to trigger handwritten detection.
"""

from __future__ import annotations

import json
import random

import pyarrow as pa

from ocr_service_ray import schema
from ocr_service_ray.kernels.correct import DEFAULT_CORRECTIONS

# Base vocabulary: plain Russian words (no 0/8-convertible letters
# needed; errors are planted by substitution below).
_VOCAB = [
    "документ", "проверка", "протокол", "сертификат", "организация",
    "заявление", "номер", "область", "город", "улица", "компания",
    "договор", "подпись", "печать", "выдан", "основание", "согласно",
    "приказ", "отдел", "служба", "водитель", "восемь", "ноль",
    "товар", "поставка", "оплата", "счет", "банк", "реквизиты",
    "директор", "главный", "бухгалтер", "форма", "справка",
]

# Words that the contextual pass must fix once digits are planted.
_ERRORABLE = ["проверка", "протокол", "восемь", "водитель", "основание", "ноль", "товар", "область"]

# Guards that must NOT change (FIXTURES.md §6).
_GUARDS = ["2023", "808", "0", "word8", "8 марта", "latin8text"]

_SURNAMES = ["Иванов", "Петров", "Сидоров", "Кузнецов", "Смирнов", "Волков"]

# Extra ordered corrections-DB entries beyond the reference defaults:
# an exact-match word, fuzzy bait targets, and a below-threshold decoy.
EXTRA_CORRECTIONS: list[tuple[str, str]] = [
    ("Маркуталь", "Мариуполь"),  # already in defaults; kept unique below
    ("сертефикат", "сертификат"),
    ("арганизация", "организация"),
]


def corrections_entries() -> list[tuple[str, str]]:
    """Ordered DB = reference defaults + planted entries (dedup by key,
    first occurrence wins — dict insertion-order semantics)."""
    seen = {}
    for k, v in DEFAULT_CORRECTIONS + EXTRA_CORRECTIONS:
        if k not in seen:
            seen[k] = v
    return list(seen.items())


def _plant_error(rng: random.Random, word: str) -> str:
    """Replace о→0 / в→8 (matching case) so the contextual corrector
    has something to undo."""
    out = []
    planted = False
    for ch in word:
        if not planted and ch in "оО" and rng.random() < 0.7:
            out.append("0")
            planted = True
        elif not planted and ch in "вВ" and rng.random() < 0.7:
            out.append("8")
            planted = True
        else:
            out.append(ch)
    return "".join(out) if planted else word


def _text_payload(rng: random.Random) -> str:
    n = rng.randint(4, 14)
    words = []
    for _ in range(n):
        r = rng.random()
        if r < 0.12:
            w = _plant_error(rng, rng.choice(_ERRORABLE))
            if rng.random() < 0.3:
                w = w.upper()
        elif r < 0.18:
            w = rng.choice(_GUARDS)
        elif r < 0.24:
            w = _field_snippet(rng)
        elif r < 0.27:
            w = rng.choice(["Маркуталь", "Маркутель", "сертефикат", "арганизация"])
        else:
            w = rng.choice(_VOCAB)
            if rng.random() < 0.1:
                w = w.capitalize()
        words.append(w)
    return " ".join(words)


def _field_snippet(rng: random.Random) -> str:
    """One plantable critical field (validators.py:25-76 patterns)."""
    kind = rng.randrange(9)
    d = lambda n: "".join(str(rng.randrange(10)) for _ in range(n))  # noqa: E731
    if kind == 0:
        return f"ИНН {d(10)}" if rng.random() < 0.5 else f"ИНН {d(12)}"
    if kind == 1:
        return f"СНИЛС {d(3)}-{d(3)}-{d(3)} {d(2)}"
    if kind == 2:
        return f"ОГРН {d(13)}"
    if kind == 3:
        return f"КПП {d(9)}"
    if kind == 4:
        return f"{rng.randint(1, 28):02d}.{rng.randint(1, 12):02d}.{rng.randint(1990, 2025)}"
    if kind == 5:
        return f"+7 ({d(3)}) {d(3)}-{d(2)}-{d(2)}"
    if kind == 6:
        return f"user{rng.randrange(1000)}@example.ru"
    if kind == 7:
        return f"№ {d(3)}/{d(2)}"
    return f"{rng.choice(_SURNAMES)} И.О."


def _media_lines(rng: random.Random) -> list[list]:
    lines = []
    for j in range(rng.randint(1, 5)):
        text = _text_payload(rng)
        # ~15% low-confidence lines trigger handwritten detection
        # (quality_check.py:93-138).
        conf = rng.uniform(0.05, 0.45) if rng.random() < 0.15 else rng.uniform(0.55, 0.99)
        x1, y1 = rng.uniform(0, 500), 40.0 * j
        lines.append([text, round(conf, 4), x1, y1, x1 + rng.uniform(50, 400), y1 + 30.0])
    return lines


# Oracle-disciplined generative vocabulary: every word is verified
# correction-NEUTRAL against the corrections DB (no exact key, no
# fuzzy hit ≥ 0.8 — tests/test_properties.py pins this), so the ONLY
# corrections a generative document yields are the planted
# ``пр0верка`` tokens — one contextual correction per occurrence.
_GEN_VOCAB = [
    "протокол", "документ", "справка", "реквизиты",
    "печать", "подпись", "договор", "банк",
]
_GEN_PLANT = "пр0верка"  # contextual 0→о fix; exactly 1 correction/occurrence
_GEN_MOD = 2147483647
# Workload shape — shared with the SQL oracles in __ray_entry__.py
# (imported there so the two sides cannot drift): 1..4 lines per
# media, 5..10 words per line — sized to the reference's typical OCR
# page density so per-document compute is realistic.
GEN_LINES_MOD = 4
GEN_WORDS_BASE = 5
GEN_WORDS_MOD = 6


def parse_generative_ref(media_ref: str) -> tuple[int, int, int]:
    """``m-tdoc-{n:08d}[-r{r:03d}]-{k}`` → (doc number, media index,
    replicate). The derivation rule of ``pipelines/derive.py``."""
    parts = media_ref.split("-")
    n = int(parts[2])
    k = int(parts[-1])
    r = int(parts[3][1:]) if len(parts) == 5 else 0
    return n, k, r


def generate_media_row(media_ref: str) -> dict:
    """One media-registry row as a pure function of its ref (used by
    the generative resolver — no media table needed).

    ORACLE DISCIPLINE: every quantity is plain modular integer
    arithmetic of (doc number, media index, replicate) — the exact
    same expressions are reproduced in DuckDB SQL by
    ``__ray_entry__.oracle_sql()['flagship_extraction']``, which makes
    the full flagship projection (span counts, corrections,
    confidence, quality) independently checkable end to end. Change
    any constant here and the oracle changes with it.

    Content rules (h0, hj are the per-media / per-line hashes below):
    - 1 + h0%GEN_LINES_MOD lines; line j has
      GEN_WORDS_BASE + hj%GEN_WORDS_MOD vocabulary words;
    - a line plants the correctable token iff hj%5 == 0;
    - line confidence is (550 + hj%400)/1000, or the low-confidence
      (50 + hj%400)/1000 iff hj%7 == 0 (image lines below 0.5 feed
      handwritten detection — quality_check.py:93-138);
    - image metrics are decimal-tenth values of h0 residues.
    """
    n, k, r = parse_generative_ref(media_ref)
    h0 = (n * 2654435761 + k * 40503 + r * 104729) % _GEN_MOD
    lines = []
    for j in range(1 + h0 % GEN_LINES_MOD):
        hj = (h0 + (j + 1) * 69427) % _GEN_MOD
        words = [
            _GEN_VOCAB[(hj + m * 12289) % 8]
            for m in range(GEN_WORDS_BASE + hj % GEN_WORDS_MOD)
        ]
        if hj % 5 == 0:
            words.append(_GEN_PLANT)
        conf_milli = (50 if hj % 7 == 0 else 550) + hj % 400
        x1 = float(hj % 500)
        y1 = 40.0 * j
        lines.append(
            [
                " ".join(words),
                conf_milli / 1000.0,
                x1,
                y1,
                x1 + 100.0 + hj % 300,
                y1 + 30.0,
            ]
        )
    payload = json.dumps({"lines": lines}, ensure_ascii=False).encode()
    return {
        "media_ref": media_ref,
        "payload": payload,
        "sharpness_var": (h0 % 2500) / 10.0,
        "contrast_std": (h0 % 700) / 10.0,
        "brightness_mean": 40.0 + (h0 % 1600) / 10.0,
    }


def generate_corpus(
    n_docs: int,
    seed: int = 42,
    skew_fraction: float = 0.01,
    id_offset: int = 0,
) -> tuple[pa.Table, pa.Table]:
    """Build (documents, media) Arrow tables.

    ``skew_fraction`` of documents are media-heavy (20-50 media spans
    vs. the 0-3 median — FIXTURES.md §1 skew variant), exercising the
    cost-based rebalancing in the pipeline. ``id_offset`` lets callers
    generate disjoint shards of one logical corpus independently.
    """
    doc_ids, doc_spans = [], []
    media_rows: list[dict] = []
    for i in range(id_offset, id_offset + n_docs):
        rng = random.Random(f"{seed}:{i}")
        doc_id = f"doc-{i:08d}"
        heavy = rng.random() < skew_fraction
        n_media_target = rng.randint(20, 50) if heavy else rng.randint(0, 3)
        n_text = rng.randint(1, 4)
        n_area = rng.randint(1, 3) if rng.random() < 0.2 else 0

        kinds = ["text"] * n_text
        for _ in range(n_media_target):
            kinds.append("pdf_page" if rng.random() < 0.6 else "image")
        kinds += ["area"] * n_area
        rng.shuffle(kinds)

        spans = []
        k = 0
        for offset, kind in enumerate(kinds):
            if kind == "text":
                spans.append(
                    {"kind": "text", "text": _text_payload(rng), "media_ref": "", "offset": offset}
                )
            else:
                ref = f"m-{doc_id}-{k}"
                k += 1
                payload = json.dumps({"lines": _media_lines(rng)}, ensure_ascii=False).encode()
                media_rows.append(
                    {
                        "media_ref": ref,
                        "payload": payload,
                        "sharpness_var": round(rng.uniform(10.0, 300.0), 3),
                        "contrast_std": round(rng.uniform(5.0, 80.0), 3),
                        "brightness_mean": round(rng.uniform(50.0, 210.0), 3),
                    }
                )
                spans.append({"kind": kind, "text": "", "media_ref": ref, "offset": offset})
        doc_ids.append(doc_id)
        doc_spans.append(spans)

    docs = pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": doc_spans}, schema=schema.DOC_SCHEMA
    )
    media = pa.Table.from_pylist(media_rows, schema=schema.MEDIA_SCHEMA)
    return docs, media


def generate_feedback(seed: int = 42) -> pa.Table:
    """Feedback fixture (FIXTURES.md §5): plants one pair that must
    promote (3× @ conf 0.9), one failing the confidence gate (2× @
    0.5), one failing the occurrence gate (1× @ 1.0), and one already
    applied — thresholds from
    ``/root/reference/services/active_learning.py:31-32``."""
    rows = []
    base = 1_700_000_000_000_000  # fixed epoch-us; timestamps come from fixtures, not now()

    def add(original, corrected, confidence, applied, n):
        for j in range(n):
            rows.append(
                {
                    "id": f"fb-{len(rows):04d}",
                    "type": "correction",
                    "original": original,
                    "corrected": corrected,
                    "doc_id": f"doc-{j:08d}",
                    "context": "",
                    "confidence": confidence,
                    "applied": applied,
                    "ts": base + len(rows) * 1_000_000,
                }
            )

    add("сертефикат", "сертификат", 0.9, False, 3)   # promotes
    add("арганизация", "организация", 0.5, False, 2)  # fails avg-conf gate
    add("дакумент", "документ", 1.0, False, 1)        # fails occurrence gate
    add("Маркуталь", "Мариуполь", 0.95, True, 4)      # already applied → excluded
    return pa.Table.from_pylist(rows, schema=schema.FEEDBACK_SCHEMA)

