"""Dominance and payoff primitives shared by every optimizer in the package.

Objective vectors are plain tuples of numbers. A multi-party objective value is a
tuple of such vectors, one per party; all parties share the same optimization
sense. Keeping these as bare tuples keeps the optimizer inner loops cheap and the
oracles trivially hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import ge, le
from typing import Sequence, Tuple

ObjectiveVector = Tuple[float, ...]
MultiPartyObjectives = Tuple[ObjectiveVector, ...]


class Sense(Enum):
    """Direction of improvement for every objective of every party."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class Dominance(Enum):
    """Outcome of comparing two objective vectors of equal length."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _check_pair(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("objective vectors must have at least one component")


def dominance_compare(a: Sequence[float], b: Sequence[float], sense: Sense) -> Dominance:
    """Compare two objective vectors under Pareto dominance.

    ``a`` dominates ``b`` when it is no worse in every component and strictly
    better in at least one; "better" follows ``sense``. Vectors of unequal
    length raise ValueError.
    """
    _check_pair(a, b)
    a_better = False
    b_better = False
    if sense is Sense.MAXIMIZE:
        for x, y in zip(a, b):
            if x > y:
                a_better = True
            elif x < y:
                b_better = True
    else:
        for x, y in zip(a, b):
            if x < y:
                a_better = True
            elif x > y:
                b_better = True
    if a_better and not b_better:
        return Dominance.DOMINATES
    if b_better and not a_better:
        return Dominance.DOMINATED_BY
    if a_better:
        return Dominance.INCOMPARABLE
    return Dominance.EQUAL


def weakly_dominates(a: Sequence[float], b: Sequence[float], sense: Sense) -> bool:
    """True when ``a`` is no worse than ``b`` in every component."""
    _check_pair(a, b)
    return all(map(ge if sense is Sense.MAXIMIZE else le, a, b))


def payoff_component(before: Sequence[float], after: Sequence[float], sense: Sense) -> int:
    """Single party's vote on a move from ``before`` to ``after``.

    +1 when every objective weakly improves and at least one strictly improves,
    -1 for the mirror case, 0 otherwise. Two identical vectors vote 0: a move
    that changes nothing for this party earns no credit and no blame.
    """
    rel = dominance_compare(after, before, sense)
    if rel is Dominance.DOMINATES:
        return 1
    if rel is Dominance.DOMINATED_BY:
        return -1
    return 0


@dataclass(frozen=True)
class PayoffValue:
    total: int
    per_party: Tuple[int, ...]


def multiparty_payoff(
    before: MultiPartyObjectives, after: MultiPartyObjectives, sense: Sense
) -> PayoffValue:
    """Sum of per-party payoff components for a candidate move.

    ``before`` and ``after`` must carry the same number of parties with
    matching per-party vector lengths.
    """
    if len(before) != len(after):
        raise ValueError(f"party count mismatch: {len(before)} vs {len(after)}")
    if not before:
        raise ValueError("at least one party is required")
    votes = tuple(payoff_component(fb, fa, sense) for fb, fa in zip(before, after))
    return PayoffValue(total=sum(votes), per_party=votes)
