"""Autocorrection kernels.

Reproduces the reference's two-pass text correction exactly:

1. Contextual digit→letter replacement inside Cyrillic words
   (``/root/reference/core/correctors.py:201-267``): in every
   ``\\b[А-Яа-яЁё0-9]+\\b`` word that contains Cyrillic letters, is not
   a pure number, and contains ``0`` or ``8``, replace ``0→о/О`` and
   ``8→в/В``; uppercase replacements iff the word has no lowercase
   letters but has at least one uppercase letter. Each changed word
   emits a correction record (confidence 0.95, method
   ``contextual_russian_word``).

2. Dictionary pass (``correctors.py:269-292``): tokenize the already
   contextually-corrected text with ``\\b\\w+\\b|\\W+``; for each
   alphanumeric token look up a suggestion — exact DB hit (confidence
   1.0, ``exact_match``) else best fuzzy ``SequenceMatcher.ratio`` ≥
   threshold over the whole DB in insertion order
   (``correctors.py:121-175``) — and apply it to the RUNNING text via
   first-occurrence ``str.replace(original, corrected, 1)``. The
   sequential, order-dependent semantics are load-bearing
   (SURVEY.md §7.4-1): replacements can cascade; dict iteration order
   is the corrections-file insertion order, so the DB is an ordered
   list here.

Performance notes (semantics-preserving):
- the contextual pass substitutes only the whole-word runs that hold a
  ``0`` or ``8`` (``_DIGIT_WORD``): the runs of the reference pattern
  without one cannot change, so they get no Python callback (43k → 1.8k
  callbacks on a 5000-doc ``perfbench`` derived corpus);
- the dictionary pass looks up each DISTINCT alphanumeric token once
  and returns at once when none has a suggestion; otherwise it walks
  the token sequence over the tokens that have one, so the sequential
  replace order is the reference's;
- suggestions are memoized per DB instance (actor lifetime) — the
  suggestion is a pure function of the token and the (frozen) DB;
- the fuzzy scan prunes candidates with ``quick_ratio`` /
  ``real_quick_ratio``, which are documented upper bounds of
  ``ratio`` — the argmax and threshold test are unchanged.
"""

from __future__ import annotations

import re
from difflib import SequenceMatcher

# correctors.py:220 is \b[А-Яа-яЁё0-9]+\b. Its matches are whole \w
# words made only of class characters (every class character is a
# word character, so \b never holds inside a run); this pattern
# selects exactly those of them that contain a 0 or 8.
_DIGIT_WORD = re.compile(r"\b[А-Яа-яЁё0-9]*[08][А-Яа-яЁё0-9]*\b")
# correctors.py:270
_TOKEN_PATTERN = re.compile(r"\b\w+\b|\W+")
# The \W+ alternates of _TOKEN_PATTERN never survive the loop's
# isalnum() filter, so the hot path enumerates only word tokens — the
# SURVIVING token sequence (and thus replacement order) is identical.
_WORD_TOKEN = re.compile(r"\b\w+\b")

SIMILARITY_THRESHOLD = 0.8  # config/settings.py:30
MAX_CORRECTION_DISTANCE = 2  # config/settings.py:31 — defined, never used in hot path

# Default DB, in insertion order (correctors.py:42-49).
DEFAULT_CORRECTIONS: list[tuple[str, str]] = [
    ("Маркуталь", "Мариуполь"),
    ("О", "0"),
    ("I", "1"),
    ("З", "3"),
    ("Б", "6"),
    ("В", "8"),
]


def is_russian_char(char: str) -> bool:
    """``correctors.py:177-187`` — U+0400..U+04FF range test."""
    return "Ѐ" <= char <= "ӿ"


def is_russian_word(word: str) -> bool:
    """``correctors.py:189-199``."""
    return any(is_russian_char(c) for c in word)


def levenshtein_distance(s1: str, s2: str) -> int:
    """``correctors.py:92-119`` — ported for parity; NOT used in the hot
    path (the reference defines it and ``MAX_CORRECTION_DISTANCE`` but
    never calls it during correction)."""
    if len(s1) < len(s2):
        return levenshtein_distance(s2, s1)
    if len(s2) == 0:
        return len(s1)
    previous_row = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1):
        current_row = [i + 1]
        for j, c2 in enumerate(s2):
            insertions = previous_row[j + 1] + 1
            deletions = current_row[j] + 1
            substitutions = previous_row[j] + (c1 != c2)
            current_row.append(min(insertions, deletions, substitutions))
        previous_row = current_row
    return previous_row[-1]


class CorrectionsDB:
    """Frozen, ordered corrections dictionary (epoch semantics).

    The reference mutates its DB mid-run (``correctors.py:295-307``);
    here the DB is immutable for the duration of a run (SURVEY.md
    §2.9) — promotion happens in a separate batch job
    (``pipelines/feedback.py``). Order is insertion order of the
    source artifact, which drives fuzzy-scan tie-breaking exactly as
    dict iteration order does in the reference.
    """

    __slots__ = ("entries", "exact", "threshold", "_lowered", "_cache", "_cache_cap")

    def __init__(
        self,
        entries: list[tuple[str, str]] | None = None,
        threshold: float = SIMILARITY_THRESHOLD,
        cache_cap: int = 500_000,
    ):
        self.entries = list(entries if entries is not None else DEFAULT_CORRECTIONS)
        self.exact = dict(self.entries)
        self.threshold = threshold
        self._lowered = [(o.lower(), o, c) for o, c in self.entries]
        # Cross-document memo: suggest() is a pure function of the
        # token and this frozen DB, so caching per DB instance (= per
        # actor lifetime) is semantics-preserving. Capped so unbounded
        # real-corpus vocabularies can't exhaust a worker's heap.
        self._cache: dict[str, dict | None] = {}
        self._cache_cap = cache_cap

    def calculate_similarity(self, str1: str, str2: str) -> float:
        """``correctors.py:79-90``."""
        return SequenceMatcher(None, str1.lower(), str2.lower()).ratio()

    def find_similar(self, text: str):
        """``correctors.py:121-141`` — argmax over DB order; keeps the
        FIRST entry on ties because the update requires strictly
        greater similarity."""
        best_match = None
        best_similarity = 0.0
        lowered = text.lower()
        sm = SequenceMatcher(None, lowered, "")
        sm.set_seq1(lowered)
        for orig_lower, original, correction in self._lowered:
            sm.set_seq2(orig_lower)
            # ratio() <= quick_ratio() <= real_quick_ratio(): pruning
            # below cannot change the argmax or the threshold test.
            if sm.real_quick_ratio() <= best_similarity or sm.real_quick_ratio() < self.threshold:
                continue
            if sm.quick_ratio() <= best_similarity or sm.quick_ratio() < self.threshold:
                continue
            similarity = sm.ratio()
            if similarity > best_similarity and similarity >= self.threshold:
                best_similarity = similarity
                best_match = (original, correction, similarity)
        return best_match

    def suggest(self, text: str):
        """``correctors.py:143-175`` — exact hit first, else fuzzy."""
        hit = self.exact.get(text)
        if hit is not None:
            return {
                "original": text,
                "corrected": hit,
                "confidence": 1.0,
                "method": "exact_match",
            }
        similar = self.find_similar(text)
        if similar:
            original, corrected, confidence = similar
            return {
                "original": text,
                "corrected": corrected,
                "confidence": confidence,
                "method": "similarity_match",
                "matched_original": original,
            }
        return None

    def suggest_cached(self, text: str):
        try:
            return self._cache[text]
        except KeyError:
            pass
        result = self.suggest(text)
        if len(self._cache) >= self._cache_cap:
            self._cache.clear()
        self._cache[text] = result
        return result


def contextual_correct(text: str) -> tuple[str, list[dict]]:
    """Pass 1 — ``correctors.py:214-267``, semantics verbatim."""
    corrections_applied: list[dict] = []

    def replace_digits(match: re.Match) -> str:
        word = match.group(0)
        if is_russian_word(word) and not word.isdigit() and ("0" in word or "8" in word):
            has_lowercase = any(c.islower() for c in word if c.isalpha())
            use_uppercase = not has_lowercase and any(
                c.isupper() for c in word if c.isalpha()
            )
            if use_uppercase:
                new_word = word.replace("0", "О").replace("8", "В")
            else:
                new_word = word.replace("0", "о").replace("8", "в")
            if new_word != word:
                corrections_applied.append(
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

    # Fast guard: without a '0' or '8' anywhere, no word can change.
    if "0" not in text and "8" not in text:
        return text, corrections_applied
    return _DIGIT_WORD.sub(replace_digits, text), corrections_applied


def dictionary_correct(text: str, db: CorrectionsDB) -> tuple[str, list[dict]]:
    """Pass 2 — ``correctors.py:269-292``: token list is fixed from the
    input text; replacements mutate the running text sequentially."""
    corrections_applied: list[dict] = []
    tokens = _WORD_TOKEN.findall(text)
    # \w includes '_' — same isalnum() filter as the reference loop
    suggestions = {
        word: suggestion
        for word in set(tokens)
        if word.isalnum() and (suggestion := db.suggest_cached(word))
    }
    if not suggestions:
        return text, corrections_applied
    corrected_text = text
    for word in tokens:
        suggestion = suggestions.get(word)
        if suggestion:
            original = suggestion["original"]
            corrected = suggestion["corrected"]
            if original in corrected_text:
                corrected_text = corrected_text.replace(original, corrected, 1)
                corrections_applied.append(
                    {
                        "from": original,
                        "to": corrected,
                        "confidence": suggestion["confidence"],
                        "method": suggestion.get("method", "unknown"),
                    }
                )
    return corrected_text, corrections_applied


def correct_text(text: str, db: CorrectionsDB) -> tuple[str, list[dict]]:
    """Full correction — ``correctors.py:201-293``: contextual pass
    then dictionary pass over its output."""
    corrected, applied = contextual_correct(text)
    corrected, applied2 = dictionary_correct(corrected, db)
    return corrected, applied + applied2
