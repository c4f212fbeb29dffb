"""Critical-field extraction and validation kernels.

Reproduces ``/root/reference/core/validators.py`` exactly:

- 10 field patterns (``validators.py:25-76``), compiled once at module
  import with ``re.IGNORECASE | re.UNICODE`` (``:78-83``);
- ``find_field`` (``:85-117``): findall → whitespace-normalize → run
  the field's validator → confidence 0.9 if valid else 0.5;
- ``validate_field`` (``:119-166``): validator AND pattern re-search;
  on invalid, suggest the best alternative found in the context text;
- ``validate_critical_fields`` (``:168-201``): per field take the
  max-confidence found value (first on ties — Python ``max``), carry
  the *found* confidence into the result; missing → invalid/0.0;
- ``extract_important_data`` (``:203-251``): inn/snils/№-numbers plus
  three surname patterns with stopword exclusion and cap 10.

Documented determinism divergence (SURVEY.md §7.4-2): the reference
caps surnames with ``list(set(...))[:10]`` — nondeterministic set
order. Here surnames are SORTED before the cap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


def _digits(x: str) -> str:
    return re.sub(r"\D", "", x)


# validators.py:25-76 — pattern + validation lambda + description.
FIELD_PATTERNS: dict[str, dict] = {
    "ogrn": {
        "pattern": r"\b\d{13,15}\b",
        "validation": lambda x: len(_digits(x)) in [13, 15],
        "description": "ОГРН (13 или 15 цифр)",
    },
    "inn": {
        "pattern": r"\b\d{10,12}\b",
        "validation": lambda x: len(_digits(x)) in [10, 12],
        "description": "ИНН (10 или 12 цифр)",
    },
    "kpp": {
        "pattern": r"\b\d{9}\b",
        "validation": lambda x: len(_digits(x)) == 9,
        "description": "КПП (9 цифр)",
    },
    "date": {
        "pattern": r"\b\d{1,2}[./-]\d{1,2}[./-]\d{2,4}\b",
        "validation": lambda x: bool(re.match(r"\d{1,2}[./-]\d{1,2}[./-]\d{2,4}", x)),
        "description": "Дата (ДД.ММ.ГГГГ)",
    },
    "snils": {
        "pattern": r"\b\d{3}-\d{3}-\d{3}\s\d{2}\b|\b\d{11}\b",
        "validation": lambda x: len(_digits(x)) == 11,
        "description": "СНИЛС (11 цифр)",
    },
    "certificate_number": {
        "pattern": r"[№N]\s*[ЕАЭС\s]*[RU\s]*[ДС]\s*-?\s*RU[.\s]*[А-Я]{2}\d{2}[.\s]*[ВВ]\s*\.?\s*\d{5,6}\s*_\s*\d{2}",
        "validation": lambda x: bool(re.search(r"[ЕАЭС]", x, re.IGNORECASE)),
        "description": "Номер сертификата ЕАЭС",
    },
    "phone": {
        "pattern": r"[+7]?\s*\(?\d{3}\)?\s*\d{3}[-.\s]?\d{2}[-.\s]?\d{2}",
        "validation": lambda x: len(_digits(x)) >= 10,
        "description": "Телефон",
    },
    "email": {
        "pattern": r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b",
        "validation": lambda x: "@" in x and "." in x.split("@")[1],
        "description": "Email",
    },
    "number": {
        "pattern": r"[№N]\s*[:\s]*[А-Яа-яA-Za-z0-9\-\.\/\s]+",
        "validation": lambda x: bool(re.search(r"[№N]", x, re.IGNORECASE)),
        "description": "Номер документа",
    },
    "surname": {
        "pattern": r"\b[А-ЯЁ][а-яё]+\b(?=\s+[А-ЯЁ][А-ЯЁ\.])",
        "validation": lambda x: len(x) >= 2 and x[0].isupper(),
        "description": "Фамилия",
    },
}

# validators.py:78-83 — compiled once per process (module import), the
# map_batches analogue of per-worker __init__ compilation.
_COMPILED = {
    name: re.compile(spec["pattern"], re.IGNORECASE | re.UNICODE)
    for name, spec in FIELD_PATTERNS.items()
}

# Semantics-neutral fast-reject guards. Each field lists the guards
# whose conjunction is a NECESSARY condition of its pattern: a match
# of the pattern implies every listed guard hits the text, so skipping
# findall when one misses can never change the result, it only skips
# scans that would return []. ogrn/inn/kpp/snils/date/phone need a
# digit; email needs '@'; number starts with [№N] (IGNORECASE adds
# 'n'); certificate_number starts with [№N] and also needs \d{2};
# surname (and the three important-data surname patterns) needs a
# letter of [А-ЯЁ] under IGNORECASE, which is А-я, Ёё and the Cyrillic
# Extended-C small letters U+1C80-U+1C86 (ᲀ-ᲆ: case variants of
# В Д О С Т Т Ъ, so Python's case folding puts them in the class).
#
# Each guard has a Python form (per document) and an RE2 form that
# ``batch_guard_bits`` evaluates once per batch with pyarrow.compute.
# RE2's \d is ASCII-only, so its digit form is \p{Nd}, a superset of
# Python's Unicode \d (a false positive only costs a scan). Both
# forms are checked against the patterns' own classes over every code
# point by tests/test_guard_sweep.py. A doc's guard bits are an int,
# bit i set iff guard i hits.
GUARDS: dict[str, tuple[str, str]] = {  # name → (Python form, RE2 form)
    "digit": (r"\d", r"\p{Nd}"),
    "at": ("@", "@"),
    "numero": ("[№Nn]", "[№Nn]"),
    "cyrillic": ("[А-Яа-яЁёᲀ-ᲆ]", "[А-Яа-яЁёᲀ-ᲆ]"),
}
_GUARD_BIT = {name: 1 << i for i, name in enumerate(GUARDS)}
_GUARD_RE = [(_GUARD_BIT[name], re.compile(py)) for name, (py, _) in GUARDS.items()]
_PRECONDITION: dict[str, tuple[str, ...]] = {
    "ogrn": ("digit",),
    "inn": ("digit",),
    "kpp": ("digit",),
    "date": ("digit",),
    "snils": ("digit",),
    "phone": ("digit",),
    "email": ("at",),
    "certificate_number": ("numero", "digit"),
    "number": ("numero",),
    "surname": ("cyrillic",),
}
_NEEDS = {f: sum(_GUARD_BIT[g] for g in gs) for f, gs in _PRECONDITION.items()}


def guard_bits(text: str) -> int:
    """One document's guard bits, from the Python forms."""
    return sum(bit for bit, guard in _GUARD_RE if guard.search(text))


def batch_guard_bits(texts) -> list[int]:
    """Guard bits of every string in a pyarrow string array, from the
    RE2 forms: one vectorized scan per guard instead of per document."""
    import numpy as np
    import pyarrow.compute as pc

    bits = np.zeros(len(texts), dtype=np.int64)
    for name, (_, re2) in GUARDS.items():
        hit = pc.match_substring_regex(texts, re2).to_numpy(zero_copy_only=False)
        bits[hit] |= _GUARD_BIT[name]
    return bits.tolist()


# validators.py:234-238
_SURNAME_PATTERNS = [
    re.compile(r"\b[А-ЯЁ][а-яё]{2,}\b(?=\s+[А-ЯЁ]\.\s*[А-ЯЁ]\.)", re.IGNORECASE),
    re.compile(r"\b[А-ЯЁ][а-яё]{2,}\b(?=\s+[А-ЯЁ][а-яё]+\s+[А-ЯЁ][а-яё]+)", re.IGNORECASE),
    re.compile(r"[А-ЯЁ][а-яё]{3,}(?=\s+[А-ЯЁ]\.)", re.IGNORECASE),
]

# validators.py:246
_SURNAME_STOPWORDS = {"россия", "российская", "федерация", "республика", "область", "край"}


@dataclass
class ValidationResult:
    """``validators.py:10-18``."""

    field_name: str
    value: str
    valid: bool
    confidence: float
    message: str | None = None
    suggested_correction: str | None = None


def find_field(
    field_name: str, text: str, guards: int | None = None
) -> list[tuple[str, float]]:
    """``validators.py:85-117``. ``guards``: the text's guard bits if
    the caller already has them (see ``batch_guard_bits``)."""
    pattern = _COMPILED.get(field_name)
    if pattern is None:
        return []
    if guards is None:
        guards = guard_bits(text)
    needs = _NEEDS[field_name]
    if guards & needs != needs:
        return []  # pattern provably cannot match (see _PRECONDITION)
    results = []
    validator = FIELD_PATTERNS[field_name]["validation"]
    for match in pattern.findall(text):
        # split()/join and \s+ both split on str.isspace characters
        cleaned = " ".join(match.split())
        is_valid = validator(cleaned)
        results.append((cleaned, 0.9 if is_valid else 0.5))
    return results


def validate_field(
    field_name: str,
    value: str,
    text: str = "",
    _found: list[tuple[str, float]] | None = None,
) -> ValidationResult:
    """``validators.py:119-166``.

    ``_found`` is an optional precomputed ``find_field(field_name,
    text)`` result — ``find_field`` is a pure function of its
    arguments, so passing the caller's already-computed scan is
    semantics-identical and saves a full-text regex pass."""
    if field_name not in FIELD_PATTERNS:
        return ValidationResult(
            field_name=field_name,
            value=value,
            valid=False,
            confidence=0.0,
            message=f"Неизвестный тип поля: {field_name}",
        )
    is_valid = FIELD_PATTERNS[field_name]["validation"](value)
    matches_pattern = bool(_COMPILED[field_name].search(value))
    valid = is_valid and matches_pattern
    suggested = None
    if not valid and text:
        alternatives = _found if _found is not None else find_field(field_name, text)
        if alternatives:
            suggested = max(alternatives, key=lambda x: x[1])[0]
    return ValidationResult(
        field_name=field_name,
        value=value,
        valid=valid,
        confidence=0.9 if valid else 0.5,
        message=(
            f"Поле {FIELD_PATTERNS[field_name]['description']} "
            f"{'валидно' if valid else 'невалидно'}"
        ),
        suggested_correction=suggested,
    )


def validate_critical_fields(
    text: str,
    required_fields: list[str] | None = None,
    _scan: dict[str, list[tuple[str, float]]] | None = None,
    guards: int | None = None,
) -> dict[str, ValidationResult]:
    """``validators.py:168-201`` — note the found confidence OVERRIDES
    the validate_field confidence (``:190``).

    ``_scan`` optionally memoizes ``find_field`` results per field for
    this ``text`` (shared with ``extract_important_data`` by the
    kernel stage); scans are pure, so reuse is semantics-identical —
    including the reference's suggestion re-scan inside
    ``validate_field``, which uses the same (field, text) arguments.
    ``guards``: the text's guard bits, computed here when absent."""
    results: dict[str, ValidationResult] = {}
    fields_to_check = required_fields if required_fields else list(FIELD_PATTERNS.keys())
    if guards is None:
        guards = guard_bits(text)
    for field_name in fields_to_check:
        found_values = find_field(field_name, text, guards)
        if _scan is not None:
            _scan[field_name] = found_values
        if found_values:
            best_value, best_confidence = max(found_values, key=lambda x: x[1])
            result = validate_field(field_name, best_value, text, _found=found_values)
            result.confidence = best_confidence
            results[field_name] = result
        else:
            results[field_name] = ValidationResult(
                field_name=field_name,
                value="",
                valid=False,
                confidence=0.0,
                message=f"Поле '{field_name}' не найдено в документе",
            )
    return results


def extract_important_data(
    text: str,
    _scan: dict[str, list[tuple[str, float]]] | None = None,
    guards: int | None = None,
) -> dict[str, list[str]]:
    """``validators.py:203-251``; surnames sorted before the cap-10
    (determinism fix, documented divergence).

    ``_scan``: optional precomputed ``find_field`` results for this
    ``text`` (see ``validate_critical_fields``) — pure-scan reuse.
    ``guards``: the text's guard bits, computed here when absent."""
    if guards is None:
        guards = guard_bits(text)

    def scan(field: str) -> list[tuple[str, float]]:
        if _scan is not None and field in _scan:
            return _scan[field]
        return find_field(field, text, guards)

    important_data = {
        "inn": [v for v, _ in scan("inn")],
        "snils": [v for v, _ in scan("snils")],
        "numbers": [v for v, _ in scan("number")],
        "surnames": [],
    }
    found_surnames = set()
    # same necessary-condition guard as the 'surname' field: all three
    # patterns require a Cyrillic letter
    surname_patterns = _SURNAME_PATTERNS if guards & _GUARD_BIT["cyrillic"] else ()
    for pattern in surname_patterns:
        for match in pattern.findall(text):
            if len(match) >= 3 and match[0].isupper():
                if match.lower() not in _SURNAME_STOPWORDS:
                    found_surnames.add(match)
    important_data["surnames"] = sorted(found_surnames)[:10]
    return important_data
