"""Dominance, approximation, payoff and draw primitives shared by every optimizer.

Objective vectors are plain tuples of numbers. A multi-party objective value is a
tuple of such vectors, one per party. Keeping these as bare tuples keeps the
optimizer inner loops cheap and the oracles trivially hashable.

``weak_ge`` is the one Pareto comparison. Maximizing callers (the bit-string
side) use it as it stands; minimizing callers (the path side) swap its
arguments, so ``weak_ge(ref, flat)`` holds when ``flat`` is no worse than ``ref``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Tuple

ObjectiveVector = Tuple[float, ...]
MultiPartyObjectives = Tuple[ObjectiveVector, ...]


def weak_ge(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a >= b`` componentwise, the one dominance test: ``a`` weakly
    dominates ``b`` when maximizing, and ``b`` weakly dominates ``a`` when
    minimizing. Unchecked, for optimizer hot loops."""
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


def payoff_component(before: Sequence[float], after: Sequence[float]) -> int:
    """Single party's vote on a move from ``before`` to ``after``, maximizing.

    +1 when every objective weakly improves and at least one strictly improves,
    -1 for the mirror case, 0 otherwise. Two identical vectors vote 0: a move
    that changes nothing for this party earns no credit and no blame. Vectors
    of unequal or zero length raise ValueError.
    """
    if len(before) != len(after):
        raise ValueError(f"objective vectors differ in length: {len(before)} vs {len(after)}")
    if not before:
        raise ValueError("objective vectors must have at least one component")
    return weak_ge(after, before) - weak_ge(before, after)
