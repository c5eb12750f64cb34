"""Dominance, approximation, payoff and draw primitives shared by every optimizer.

Objective vectors are plain tuples of numbers. A multi-party objective value is a
tuple of such vectors, one per party; all parties share the same optimization
sense. Keeping these as bare tuples keeps the optimizer inner loops cheap and the
oracles trivially hashable.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence, Tuple

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


def weak_ge(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a >= b`` componentwise; unchecked, for optimizer hot loops."""
    for x, y in zip(a, b):
        if x < y:
            return False
    return True


def approx_degree(x: Sequence[int], z: Sequence[int]) -> Fraction:
    """Smallest eps >= 0 with ``x <= (1+eps) * z`` entrywise, for equal-length
    vectors with every component of ``z`` at least 1.

    The worst ratio x_i / z_i is found by integer cross-multiplication from
    1/1, so the result is clamped at zero; only it is built as a Fraction.
    """
    wx = wz = 1  # the worst ratio so far is wx / wz
    for a, b in zip(x, z, strict=True):
        if b < 1:
            raise ValueError(f"reference component {b} is below 1")
        if a * wz > wx * b:
            wx, wz = a, b
    return Fraction(wx - wz, wz)


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in 0..n-1, equal to ``Random.randrange(n)`` for n >= 1.

    This is CPython's ``randrange(n)`` written out: draw ``n.bit_length()``
    bits and draw again while the result is n or more. It makes the same
    ``getrandbits`` calls as ``randrange``, so given a bound method of the
    same generator it returns the same value and leaves the same state, and
    every trajectory is the one ``randrange`` would give. It skips the two
    Python frames ``randrange`` runs around that one C call. CPython does not
    promise ``randrange``'s algorithm across versions, so
    ``tests/test_core.py`` checks value and state against ``randrange`` on
    the running interpreter.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def weakly_dominates(a: Sequence[float], b: Sequence[float], sense: Sense) -> bool:
    """True when ``a`` is no worse than ``b`` in every component."""
    _check_pair(a, b)
    return weak_ge(a, b) if sense is Sense.MAXIMIZE else weak_ge(b, a)


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

