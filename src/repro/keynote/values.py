"""Ordered compliance-value sets (RFC 2704 section 3).

A KeyNote query is evaluated against an ordered set of *compliance values*,
from minimum trust to maximum trust.  The default set is
``{"false", "true"}``; applications may supply richer sets such as
``{"reject", "approve_with_log", "approve"}``.  ``_MIN_TRUST`` and
``_MAX_TRUST`` are reserved aliases for the extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ComplianceError

MIN_TRUST_NAME = "_MIN_TRUST"
MAX_TRUST_NAME = "_MAX_TRUST"


@dataclass(frozen=True)
class ComplianceValueSet:
    """An ordered set of compliance values, least to most trusted.

    A value's *rank* is its index in the order; :attr:`top` is the rank of
    the maximum.  The rank table is built once, with the reserved aliases
    in it, so ranking a value is one dictionary lookup.
    """

    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ComplianceError("a compliance value set needs >= 2 values")
        if len(set(self.values)) != len(self.values):
            raise ComplianceError("compliance values must be distinct")
        for reserved in (MIN_TRUST_NAME, MAX_TRUST_NAME):
            if reserved in self.values:
                raise ComplianceError(f"{reserved} is reserved")
        top = len(self.values) - 1
        ranks = {value: rank for rank, value in enumerate(self.values)}
        ranks[MIN_TRUST_NAME] = 0
        ranks[MAX_TRUST_NAME] = top
        # Not fields: they derive from ``values`` and stay out of equality,
        # hashing and the repr.
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "top", top)

    @classmethod
    def of(cls, values: Iterable[str]) -> "ComplianceValueSet":
        """Build from any iterable, preserving order."""
        return cls(tuple(values))

    @property
    def minimum(self) -> str:
        """The least-trust value (what ``_MIN_TRUST`` resolves to)."""
        return self.values[0]

    @property
    def maximum(self) -> str:
        """The most-trust value (what ``_MAX_TRUST`` resolves to)."""
        return self.values[-1]

    def rank(self, value: str) -> int:
        """Index of ``value`` in the order.

        ``_MIN_TRUST`` / ``_MAX_TRUST`` aliases resolve to the extremes.

        :raises ComplianceError: for values outside the set.
        """
        try:
            return self._ranks[value]
        except (KeyError, TypeError):
            raise ComplianceError(
                f"{value!r} is not in the compliance value set "
                f"{list(self.values)}") from None

    def resolve(self, value: str) -> str:
        """Map ``_MIN_TRUST``/``_MAX_TRUST`` aliases to concrete values."""
        return self.values[self.rank(value)]

    def meet(self, values: Sequence[str]) -> str:
        """Greatest lower bound (used for ``&&`` and delegation chaining)."""
        if not values:
            return self.maximum
        return self.values[min(self.rank(v) for v in values)]

    def join(self, values: Sequence[str]) -> str:
        """Least upper bound (used for ``||`` and alternative chains)."""
        if not values:
            return self.minimum
        return self.values[max(self.rank(v) for v in values)]

    def kth_largest(self, values: Sequence[str], k: int) -> str:
        """The k-th largest value — the semantics of ``k-of(...)`` licensee
        thresholds: the value the threshold group jointly attains."""
        if k < 1:
            raise ComplianceError("threshold k must be >= 1")
        if k > len(values):
            return self.minimum
        ranked = sorted((self.rank(v) for v in values), reverse=True)
        return self.values[ranked[k - 1]]

    def from_bool(self, flag: bool) -> str:
        """Map a boolean test outcome to a compliance value."""
        return self.maximum if flag else self.minimum

    def at_least(self, value: str, threshold: str) -> bool:
        """True if ``value`` is at least as trusted as ``threshold``."""
        return self.rank(value) >= self.rank(threshold)

    def __contains__(self, value: str) -> bool:
        return (value in self.values
                or value in (MIN_TRUST_NAME, MAX_TRUST_NAME))

    def __len__(self) -> int:
        return len(self.values)


#: The default boolean compliance set of RFC 2704.
DEFAULT_VALUE_SET = ComplianceValueSet(("false", "true"))
