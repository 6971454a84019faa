"""Similarity metrics for imprecise policy translation ([13], Section 4.3).

"Migration of policies between different middleware technologies does not
consist of a simple one-to-one mapping.  Some interpretation of the security
policies must be considered by the translation tools, using techniques such
as similarity metrics."

Three metrics, composed by :func:`name_similarity`:

- normalised Levenshtein distance over lowercased names,
- token overlap (names often differ by separators: ``SalariesDB`` vs
  ``salaries_db``),
- a synonym table for the permission vocabulary of the supported middleware
  (``read``/``Access``, ``execute``/``Launch``...).

:func:`match_vocabulary` computes an optimal assignment between two name sets
using :func:`scipy.optimize.linear_sum_assignment` when available, falling
back to greedy matching.  scipy is imported on first use, not with this
module, so importing the translation package (and the ``repro`` CLI) does
not pay for it.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance, vectorised row-at-a-time with numpy."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = np.arange(len(b) + 1)
    b_array = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    for i, ch in enumerate(a, start=1):
        current = np.empty(len(b) + 1, dtype=np.int64)
        current[0] = i
        substitution = previous[:-1] + (b_array != ord(ch))
        # current[j] = min(previous[j] + 1, substitution[j-1], current[j-1]+1)
        np.minimum(previous[1:] + 1, substitution, out=current[1:])
        # The left-to-right dependency (insertions) needs a scan.
        running = np.minimum.accumulate(current[1:] - np.arange(1, len(b) + 1))
        current[1:] = np.minimum(current[1:],
                                 running + np.arange(1, len(b) + 1) + 0)
        previous = current
    return int(previous[-1])


def _tokens(name: str) -> frozenset[str]:
    """Split an identifier into lowercase tokens (camelCase, snake_case,
    separators)."""
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    parts = re.split(r"[^A-Za-z0-9]+", spaced)
    return frozenset(p.lower() for p in parts if p)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard index of two sets (1.0 for two empty sets)."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def overlap(a: Iterable[str], b: Iterable[str]) -> float:
    """Overlap (Szymkiewicz-Simpson) coefficient: containment-friendly, so
    ``FinanceDept`` scores 1.0 against ``Finance`` at token level."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        return 1.0 if sa == sb else 0.0
    return len(sa & sb) / min(len(sa), len(sb))


#: permission-vocabulary synonyms across the supported middleware
PERMISSION_SYNONYMS: Mapping[str, frozenset[str]] = {
    "read": frozenset({"read", "access", "get", "select", "view"}),
    "write": frozenset({"write", "access", "put", "update", "insert", "set"}),
    "execute": frozenset({"execute", "launch", "run", "invoke", "call",
                          "start"}),
    "impersonate": frozenset({"runas", "impersonate", "su", "sudo"}),
}


def _synonym_boost(a: str, b: str) -> float:
    """1.0 if the names share a synonym class, else 0.0."""
    la, lb = a.lower(), b.lower()
    for synonyms in PERMISSION_SYNONYMS.values():
        if la in synonyms and lb in synonyms:
            return 1.0
    return 0.0


def name_similarity(a: str, b: str) -> float:
    """Composite similarity in [0, 1].

    Exact case-insensitive matches score 1.0; otherwise the maximum of the
    normalised-Levenshtein score, token Jaccard, and the synonym boost.
    """
    if a.lower() == b.lower():
        return 1.0
    longest = max(len(a), len(b))
    lev = 1.0 - levenshtein(a.lower(), b.lower()) / longest if longest else 1.0
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    tok = jaccard(tokens_a, tokens_b)
    # Containment is capped just below exact so a qualified name
    # (FinanceDept) ranks beneath a true match but above the threshold.
    contained = 0.9 * overlap(tokens_a, tokens_b)
    return max(lev, tok, contained, _synonym_boost(a, b))


def best_match(name: str, candidates: Sequence[str],
               threshold: float = 0.5) -> str | None:
    """The candidate most similar to ``name`` (ties break to the first in
    sorted order), or None if nothing reaches ``threshold``."""
    best_score, best_candidate = threshold, None
    for candidate in sorted(candidates):
        score = name_similarity(name, candidate)
        if score > best_score:
            best_score, best_candidate = score, candidate
    return best_candidate


def match_vocabulary(sources: Sequence[str], targets: Sequence[str],
                     threshold: float = 0.5) -> dict[str, str]:
    """Optimal one-to-one mapping from sources to targets.

    Uses the Hungarian algorithm on the similarity matrix (unmatched sources
    simply don't appear in the result); pairs below ``threshold`` are
    dropped.
    """
    if not sources or not targets:
        return {}
    sources = sorted(set(sources))
    targets_sorted = sorted(set(targets))
    matrix = np.array([[name_similarity(s, t) for t in targets_sorted]
                       for s in sources])
    mapping: dict[str, str] = {}
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:  # pragma: no cover - greedy fallback
        taken: set[int] = set()
        order = np.dstack(np.unravel_index(
            np.argsort(-matrix, axis=None), matrix.shape))[0]
        for r, c in order:
            if sources[r] in mapping or c in taken:
                continue
            if matrix[r, c] >= threshold:
                mapping[sources[r]] = targets_sorted[c]
                taken.add(c)
    else:
        rows, cols = linear_sum_assignment(-matrix)
        for r, c in zip(rows, cols):
            if matrix[r, c] >= threshold:
                mapping[sources[r]] = targets_sorted[c]
    return mapping
