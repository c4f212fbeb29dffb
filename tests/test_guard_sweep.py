"""Guard sweep: every field-scan guard in ``kernels/validate.py`` is a
necessary condition of the patterns it guards, in its Python form and in
its pyarrow.compute (RE2) form. For every code point, any character that
a class the pattern needs can match, under the pattern's own flags, must
be hit by the guard. False positives are allowed; a miss would make a
guarded scan skip a real match."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ocr_service_ray.kernels import validate as v

ALL = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)

# field → {guard: a character class the field's pattern cannot match
# without}, written as it appears in the pattern's source
NEEDS = {
    "ogrn": {"digit": r"\d"},
    "inn": {"digit": r"\d"},
    "kpp": {"digit": r"\d"},
    "date": {"digit": r"\d"},
    "snils": {"digit": r"\d"},
    "phone": {"digit": r"\d"},
    "email": {"at": "@"},
    "certificate_number": {"numero": "[№N]", "digit": r"\d"},
    "number": {"numero": "[№N]"},
    "surname": {"cyrillic": "[А-ЯЁ]"},
}


@pytest.fixture(scope="module")
def guard_hits():
    """guard → (chars its Python form hits, chars its RE2 form hits)."""
    arr = pa.array(list(ALL))
    out = {}
    for name, (py, re2) in v.GUARDS.items():
        mask = pc.match_substring_regex(arr, re2).to_numpy(zero_copy_only=False)
        out[name] = (
            set(re.findall(py, ALL)),
            {ALL[i] for i in np.flatnonzero(mask)},
        )
    return out


def _needed_cases():
    for field, needs in NEEDS.items():
        for guard, cls in needs.items():
            yield field, guard, cls, v._COMPILED[field].flags
    for i, pattern in enumerate(v._SURNAME_PATTERNS):
        yield f"important_surname_{i}", "cyrillic", "[А-ЯЁ]", pattern.flags


def test_needs_match_preconditions():
    assert set(NEEDS) == set(v.FIELD_PATTERNS) == set(v._PRECONDITION)
    for field, needs in NEEDS.items():
        assert set(needs) == set(v._PRECONDITION[field]), field
        for cls in needs.values():
            assert cls in v.FIELD_PATTERNS[field]["pattern"], (field, cls)
    for pattern in v._SURNAME_PATTERNS:
        assert pattern.pattern.startswith(r"\b[А-ЯЁ]") or pattern.pattern.startswith("[А-ЯЁ]")


@pytest.mark.parametrize("field,guard,cls,flags", list(_needed_cases()))
def test_guard_covers_needed_class(guard_hits, field, guard, cls, flags):
    needed = set(re.compile(cls, flags).findall(ALL))
    assert needed
    py_hits, re2_hits = guard_hits[guard]
    assert not needed - py_hits, sorted(map(hex, map(ord, needed - py_hits)))
    assert not needed - re2_hits, sorted(map(hex, map(ord, needed - re2_hits)))


def test_batch_bits_cover_python_bits():
    texts = ["", "abc", "n", "ИНН 7707083893", "a@b.ru", "№ 12", "ᲀᲁᲂ ᲃᲄ", "٣", "N٣ ё"]
    batch = v.batch_guard_bits(pa.array(texts))
    for text, bits in zip(texts, batch):
        assert v.guard_bits(text) & ~bits == 0, text


def test_extended_c_surname_found():
    # U+1C80-U+1C86 are in [А-ЯЁ] under IGNORECASE, so the unguarded
    # findall returns 'ᲀᲁᲂ'; the guard must let the scan run.
    assert v._COMPILED["surname"].findall("ᲀᲁᲂ ᲃᲄ") == ["ᲀᲁᲂ"]
    res = v.validate_critical_fields("ᲀᲁᲂ ᲃᲄ", ["surname"])["surname"]
    assert (res.value, res.confidence) == ("ᲀᲁᲂ", 0.5)
    bits = v.batch_guard_bits(pa.array(["ᲀᲁᲂ ᲃᲄ"]))[0]
    assert v.find_field("surname", "ᲀᲁᲂ ᲃᲄ", bits) == [("ᲀᲁᲂ", 0.5)]


def test_certificate_needs_a_digit():
    needs = v._NEEDS["certificate_number"]
    assert v.guard_bits("Nothing numbered") & needs != needs
    assert v.find_field("certificate_number", "№ ЕАЭС RU Д-RU.АЯ01.В.12345_01")
