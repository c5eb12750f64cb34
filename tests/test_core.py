"""Approximation, payoff and draw primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mpmolab.core import approx_degree, payoff_component, randbelow

vectors = st.integers(min_value=0, max_value=20)


@st.composite
def vector_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    a = tuple(draw(vectors) for _ in range(k))
    b = tuple(draw(vectors) for _ in range(k))
    return a, b


@given(vector_pairs())
def test_payoff_component_follows_the_definition(pair):
    before, after = pair
    up = all(a >= b for a, b in zip(after, before)) and any(a > b for a, b in zip(after, before))
    down = all(a <= b for a, b in zip(after, before)) and any(a < b for a, b in zip(after, before))
    assert payoff_component(before, after) == (1 if up else -1 if down else 0)


@given(vector_pairs())
def test_payoff_component_is_a_signed_vote(pair):
    before, after = pair
    vote = payoff_component(before, after)
    assert vote in (-1, 0, 1)
    assert payoff_component(after, before) == -vote
    assert payoff_component(before, before) == 0


def test_payoff_component_examples():
    # strictly better in one objective, equal in the other: credit
    assert payoff_component((2, 5), (3, 5)) == 1
    # mixed move: no vote either way
    assert payoff_component((2, 5), (3, 4)) == 0
    # strictly worse in one objective, equal in the other: blame
    assert payoff_component((3, 5), (2, 5)) == -1


def test_payoff_component_rejects_bad_shapes():
    with pytest.raises(ValueError, match="differ in length"):
        payoff_component((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="at least one"):
        payoff_component((), ())


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
