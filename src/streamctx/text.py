"""Tiny text utilities backing the offline (no-network) fallback providers."""

from __future__ import annotations

import math
import re
from collections import Counter

_WORD = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens; punctuation and whitespace are ignored.

    Two texts that differ only in whitespace or punctuation tokenize
    identically, which is the normalization contract the fallback
    embedder and overlap scorers rely on.
    """
    return _WORD.findall(text.lower())


def has_word(text: str) -> bool:
    """Whether ``text`` holds a token, that is, ``tokenize(text)`` is not empty."""
    return _WORD.search(text.lower()) is not None


def term_frequencies(text: str) -> Counter[str]:
    return Counter(tokenize(text))


def tf_cosine(text_a: str, text_b: str) -> float:
    """Cosine similarity of the two texts' term-frequency vectors.

    Returns 0.0 when either side has no tokens at all.
    """
    ca, cb = term_frequencies(text_a), term_frequencies(text_b)
    if not ca or not cb:
        return 0.0
    dot = sum(count * cb[term] for term, count in ca.items())
    # counts are integers, so the product of squared norms is exact
    norm_sq = sum(c * c for c in ca.values()) * sum(c * c for c in cb.values())
    return dot / math.sqrt(norm_sq)
