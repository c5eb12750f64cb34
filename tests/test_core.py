"""Dominance, approximation, payoff and draw primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mpmolab.core import (
    Dominance,
    Sense,
    approx_degree,
    dominance_compare,
    payoff_component,
    randbelow,
    weakly_dominates,
)

MAX = Sense.MAXIMIZE
MIN = Sense.MINIMIZE


@pytest.mark.parametrize(
    "a,b,sense,expected",
    [
        ((3, 3), (2, 3), MAX, Dominance.DOMINATES),
        ((2, 3), (3, 3), MAX, Dominance.DOMINATED_BY),
        ((2, 3), (2, 3), MAX, Dominance.EQUAL),
        ((3, 1), (1, 3), MAX, Dominance.INCOMPARABLE),
        ((3, 3), (2, 3), MIN, Dominance.DOMINATED_BY),
        ((1, 2), (2, 3), MIN, Dominance.DOMINATES),
        ((10, 4), (5, 8), MAX, Dominance.INCOMPARABLE),
        ((0,), (1,), MIN, Dominance.DOMINATES),
    ],
)
def test_dominance_compare_examples(a, b, sense, expected):
    assert dominance_compare(a, b, sense) is expected


def test_dominance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        dominance_compare((1, 2), (1, 2, 3), MAX)
    with pytest.raises(ValueError):
        dominance_compare((), (), MAX)


vectors = st.integers(min_value=0, max_value=20)


@st.composite
def vector_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    a = tuple(draw(vectors) for _ in range(k))
    b = tuple(draw(vectors) for _ in range(k))
    return a, b


@given(vector_pairs(), st.sampled_from([MAX, MIN]))
def test_dominance_is_antisymmetric(pair, sense):
    a, b = pair
    fwd = dominance_compare(a, b, sense)
    rev = dominance_compare(b, a, sense)
    flip = {
        Dominance.DOMINATES: Dominance.DOMINATED_BY,
        Dominance.DOMINATED_BY: Dominance.DOMINATES,
        Dominance.EQUAL: Dominance.EQUAL,
        Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
    }
    assert rev is flip[fwd]
    assert (fwd is Dominance.EQUAL) == (a == b)


@given(vector_pairs())
def test_sense_flip_swaps_direction(pair):
    a, b = pair
    fwd = dominance_compare(a, b, MAX)
    rev = dominance_compare(a, b, MIN)
    if fwd is Dominance.DOMINATES:
        assert rev is Dominance.DOMINATED_BY
    elif fwd is Dominance.DOMINATED_BY:
        assert rev is Dominance.DOMINATES
    else:
        assert rev is fwd


@given(vector_pairs(), st.sampled_from([MAX, MIN]))
def test_weak_dominance_agrees_with_compare(pair, sense):
    a, b = pair
    rel = dominance_compare(a, b, sense)
    expected = rel in (Dominance.DOMINATES, Dominance.EQUAL)
    assert weakly_dominates(a, b, sense) == expected


@given(vector_pairs(), st.sampled_from([MAX, MIN]))
def test_payoff_component_is_a_signed_vote(pair, sense):
    before, after = pair
    vote = payoff_component(before, after, sense)
    assert vote in (-1, 0, 1)
    assert payoff_component(after, before, sense) == -vote
    assert payoff_component(before, before, sense) == 0


def test_payoff_component_examples():
    # strictly better in one objective, equal in the other: credit
    assert payoff_component((2, 5), (3, 5), MAX) == 1
    # mixed move: no vote either way
    assert payoff_component((2, 5), (3, 4), MAX) == 0
    # strictly worse under minimization
    assert payoff_component((2, 5), (3, 5), MIN) == -1


# bounds around every word boundary of the 32-bit Mersenne Twister output
DRAW_BOUNDS = st.one_of(
    st.integers(1, 2**70),
    st.sampled_from([1, 2**32, 2**32 + 1]),
    st.integers(1, 70).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
)


@given(st.integers(0, 2**64), st.lists(DRAW_BOUNDS, min_size=1, max_size=40))
def test_randbelow_replays_randrange(seed, bounds):
    a, b = random.Random(seed), random.Random(seed)
    for n in bounds:
        assert randbelow(a.getrandbits, n) == b.randrange(n)
        assert a.getstate() == b.getstate()


@st.composite
def degree_pairs(draw):
    k = draw(st.integers(0, 5))
    x = draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k))
    z = draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
    return x, z


@given(degree_pairs())
def test_approx_degree_matches_the_fraction_definition(pair):
    x, z = pair
    want = max([Fraction(a, b) - 1 for a, b in zip(x, z)] + [Fraction(0)])
    got = approx_degree(x, z)
    assert type(got) is Fraction and got == want
    # the least eps: x fits under (1+got) z, tightly in some component unless got is 0
    assert all(a <= (1 + got) * b for a, b in zip(x, z))
    assert got == 0 or any(a == (1 + got) * b for a, b in zip(x, z))


def test_approx_degree_refuses_bad_references():
    with pytest.raises(ValueError, match="below 1"):
        approx_degree((3, 4), (1, 0))
    with pytest.raises(ValueError):
        approx_degree((3, 4), (1,))
