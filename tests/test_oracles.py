"""Exhaustive oracles, epsilon measures, and the runtime predictor."""

import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from brute import brute_force_pseudoboolean
from mpmolab.core import weak_ge
from mpmolab.instances import KIND_PLANTED, InstanceSpec, _build_planted, fixture_graph
from mpmolab.oracles import (
    epsilon_of_solution,
    exact_party_fronts,
    exact_path_catalog,
    ideal_points,
    path_report,
    payoff_runtime_predictor,
    pseudoboolean_report,
)
from mpmolab.pseudoboolean import KINDS, BitString, PseudoBooleanProblem, analytic_fronts
from mpmolab.shortestpath import WeightedDigraph


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError, match="refused"):
        brute_force_pseudoboolean(PseudoBooleanProblem("bpaoaz", 18))


def test_biparty_catalog_structure():
    n = 6
    half = n // 2
    cat = brute_force_pseudoboolean(PseudoBooleanProblem("bpaoaz", n))
    low = (1 << half) - 1
    # party 1 optima: first half all ones, any tail
    assert cat.party_solutions[0] == frozenset(
        low | (t << half) for t in range(1 << half)
    )
    # party 2 optima: second half all ones, any head
    assert cat.party_solutions[1] == frozenset(
        h | (low << half) for h in range(1 << half)
    )
    assert cat.common_solutions == frozenset({(1 << n) - 1})
    assert [x.to01() for x in cat.common_bitstrings()] == ["111111"]


def test_single_party_catalogs():
    n = 8
    half = n // 2
    for kind in ("aorz", "aofz"):
        cat = brute_force_pseudoboolean(PseudoBooleanProblem(kind, n))
        assert len(cat.party_solutions) == 1
        assert len(cat.party_solutions[0]) == 1 << half
        assert cat.common_solutions == cat.party_solutions[0]
    joint = brute_force_pseudoboolean(PseudoBooleanProblem("aoaz", n))
    assert len(joint.common_solutions) == (1 << (half + 1)) - 1


def test_fixture_catalog_matches_hand_enumeration():
    cat = exact_path_catalog(fixture_graph())
    ec = cat.per_endpoint[5]
    assert {p for p, _ in ec.party_sets[0]} == {(1, 3, 5), (1, 3, 4, 5)}
    assert {p for p, _ in ec.party_sets[1]} == {(1, 2, 5), (1, 3, 4, 5)}
    assert [p for p, _ in ec.common] == [(1, 3, 4, 5)]
    assert {p for p, _ in ec.joint} == {(1, 2, 5), (1, 3, 5), (1, 3, 4, 5)}
    # unique shortest prefixes on the other endpoints
    assert [p for p, _ in cat.per_endpoint[2].common] == [(1, 2)]
    assert [p for p, _ in cat.per_endpoint[3].common] == [(1, 3)]
    assert [p for p, _ in cat.per_endpoint[4].common] == [(1, 3, 4)]
    assert cat.common_objectives(5) == [((7, 4), (5, 7))]


def test_party_fronts_are_sorted_distinct_vectors():
    fronts1 = exact_party_fronts(fixture_graph(), 0)
    fronts2 = exact_party_fronts(fixture_graph(), 1)
    assert fronts1[5] == ((4, 5), (7, 4))
    assert fronts2[5] == ((5, 7), (8, 5))
    assert fronts1[2] == ((1, 2),)


def test_catalog_handles_cycles():
    g = WeightedDigraph(
        3,
        {
            (1, 2): ((2,), (2,)),
            (2, 1): ((1,), (1,)),
            (2, 3): ((1,), (1,)),
            (1, 3): ((5,), (1,)),
        },
    )
    cat = exact_path_catalog(g)
    # the cycle 1-2-1 generates no catalog entries, only the simple paths do
    assert {p for p, _ in cat.per_endpoint[3].party_sets[0]} == {(1, 2, 3)}
    assert {p for p, _ in cat.per_endpoint[3].party_sets[1]} == {(1, 3)}
    assert {p for p, _ in cat.per_endpoint[3].joint} == {(1, 3), (1, 2, 3)}
    assert cat.per_endpoint[3].common == ()


def test_path_catalog_refuses_large_n():
    edges = {(u, u + 1): ((1,), (1,)) for u in range(1, 13)}
    with pytest.raises(ValueError, match="refused"):
        exact_path_catalog(WeightedDigraph(13, edges))


@pytest.mark.parametrize("n", range(5, 13))
def test_ideal_points_agree_with_the_catalog_on_planted_instances(n):
    for seed in range(20):
        spec = InstanceSpec(KIND_PLANTED, n, seed=seed)
        g, _ = _build_planted(spec, random.Random(seed))
        ideal = ideal_points(g)
        cat = exact_path_catalog(g)
        assert list(ideal) == sorted(cat.per_endpoint) == list(range(2, n + 1))
        for e, point in ideal.items():
            assert cat.common_objectives(e) == [point]
            assert cat.party_front(e, 0) == (point[0],)
            assert cat.party_front(e, 1) == (point[1],)
            assert {obj for _, obj in cat.per_endpoint[e].joint} == {point}


def test_ideal_points_decline_an_endpoint_with_a_trade_off():
    g = fixture_graph()
    cat = exact_path_catalog(g)
    ideal = ideal_points(g)
    assert list(ideal) == [2, 3, 4]
    for e, point in ideal.items():
        assert cat.common_objectives(e) == [point]
    # endpoint 5's party fronts hold two vectors each, so no path is ideal
    assert len(cat.party_front(5, 0)) == len(cat.party_front(5, 1)) == 2
    cycle = WeightedDigraph(
        3, {(1, 2): ((2,), (2,)), (2, 1): ((1,), (1,)), (2, 3): ((1,), (1,)), (1, 3): ((5,), (1,))}
    )
    assert ideal_points(cycle) == {2: ((2,), (2,))}
    # party 1's ideal at 3 is attained via 2, party 2's only by the direct edge
    split = WeightedDigraph(
        3, {(1, 2): ((1, 1), (1, 1)), (2, 3): ((1, 1), (4, 4)), (1, 3): ((3, 3), (1, 1))}
    )
    assert ideal_points(split) == {2: ((1, 1), (1, 1))}


def test_epsilon_of_solution_fixture_values():
    common = [((7, 4), (5, 7))]
    assert epsilon_of_solution(((10, 4), (8, 5)), common) == Fraction(3, 5)
    assert epsilon_of_solution(((4, 5), (7, 8)), common) == Fraction(2, 5)
    assert epsilon_of_solution(((7, 4), (5, 7)), common) == 0


def test_epsilon_of_solution_validation():
    with pytest.raises(ValueError):
        epsilon_of_solution(((1, 2), (3, 4)), [])
    with pytest.raises(ValueError):
        epsilon_of_solution(((1, 2),), [((1, 2), (3, 4))])
    with pytest.raises(ValueError):
        epsilon_of_solution(((1, 2), (3,)), [((1, 2), (3, 4))])
    with pytest.raises(ValueError):
        epsilon_of_solution(((1, 2), (3, 4)), [((1, 0), (3, 4))])


def fraction_epsilon(objectives, common_objectives):
    """The all-Fraction definition of epsilon_of_solution, as the reference."""
    if not common_objectives:
        raise ValueError("common set for the endpoint is empty")
    worst = None
    for member in common_objectives:
        if len(member) != len(objectives):
            raise ValueError("party count mismatch against common member")
        for vec_x, vec_z in zip(objectives, member):
            if len(vec_x) != len(vec_z):
                raise ValueError("objective count mismatch against common member")
            for x, z in zip(vec_x, vec_z):
                if z < 1:
                    raise ValueError("common member has an objective below 1")
                ratio = Fraction(x, z)
                if worst is None or ratio > worst:
                    worst = ratio
    return max(worst - 1, Fraction(0))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def epsilon_cases(draw):
    """An (x, members) pair; now and then a member is malformed."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    def vector(k, low):
        return tuple(draw(st.lists(st.integers(low, 300), min_size=k, max_size=k)))

    x = tuple(vector(k, 0) for k in shape)
    members = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("ok", "ok", "ok", "parties", "objectives", "zero")))
        member = [vector(k, 1) for k in shape]
        if kind == "parties":
            member = member[:1]
        elif kind == "objectives":
            member[1] = member[1] + (draw(st.integers(1, 300)),)
        elif kind == "zero":
            member[0] = (0,) + member[0][1:]
        members.append(tuple(member))
    return x, members


@given(epsilon_cases())
def test_epsilon_of_solution_matches_fraction_definition(case):
    x, members = case
    got = outcome(epsilon_of_solution, x, members)
    want = outcome(fraction_epsilon, x, members)
    assert got == want
    assert type(got) is type(want)


def epsilon_bisection(objectives, common_objectives, tol=1e-9):
    """Bisection reference for epsilon_of_solution, accurate to ``tol``."""
    if not common_objectives:
        raise ValueError("common set for the endpoint is empty")

    def dominates_all(eps):
        factor = 1.0 + eps
        for member in common_objectives:
            for vec_x, vec_z in zip(objectives, member):
                for x, z in zip(vec_x, vec_z):
                    if x > factor * z:
                        return False
        return True

    if dominates_all(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not dominates_all(hi):
        lo, hi = hi, hi * 2.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if dominates_all(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_epsilon_closed_form_agrees_with_bisection():
    rng = random.Random(20240817)
    for trial in range(1000):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        members = []
        for _ in range(rng.randint(1, 3)):
            members.append(
                (
                    tuple(rng.randint(1, 50) for _ in range(k1)),
                    tuple(rng.randint(1, 50) for _ in range(k2)),
                )
            )
        x = (
            tuple(rng.randint(0, 100) for _ in range(k1)),
            tuple(rng.randint(0, 100) for _ in range(k2)),
        )
        exact = epsilon_of_solution(x, members)
        approx = epsilon_bisection(x, members)
        assert abs(float(exact) - approx) <= 1e-6, (trial, x, members)
        dominates_everyone = all(
            weak_ge(zv, xv)
            for member in members
            for xv, zv in zip(x, member)
        )
        assert (exact == 0) == dominates_everyone


def test_payoff_runtime_predictor():
    assert payoff_runtime_predictor(4, 4) == Fraction(25, 3)
    assert payoff_runtime_predictor(10, 0) == 0
    assert round(float(payoff_runtime_predictor(50, 50)), 2) == 224.96
    with pytest.raises(ValueError):
        payoff_runtime_predictor(4, 5)
    with pytest.raises(ValueError):
        payoff_runtime_predictor(4, -1)


def test_pseudoboolean_report_layout():
    text = pseudoboolean_report(PseudoBooleanProblem("bpaoaz", 8))
    assert text.startswith("problem bpaoaz n=8\n")
    assert "party 1: front size 5, solutions 16" in text
    assert "common solutions (1):" in text
    assert "11111111" in text

    # aoaz at n=40 has 41 common cells, past the 16 the report shows
    many = pseudoboolean_report(PseudoBooleanProblem("aoaz", 40))
    assert "... " in many and " more" in many


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_pseudoboolean_report_counts_match_brute_force(kind, n):
    problem = PseudoBooleanProblem(kind, n)
    cat = brute_force_pseudoboolean(problem)
    text = pseudoboolean_report(problem)
    parties = [tuple(map(int, m)) for m in re.findall(r"^party \d+: front size (\d+), solutions (\d+)$", text, re.M)]
    assert parties == [(len(f), len(s)) for f, s in zip(cat.party_fronts, cat.party_solutions)]
    (common,) = re.findall(r"^common solutions \((\d+)\):$", text, re.M)
    assert int(common) == len(cat.common_solutions)
    # every word a common cell shows is a common solution
    shown = re.findall(r"^  cell \(\d+, \d+\), solutions \d+: ([01]+)$", text, re.M)
    assert shown and {BitString.from01(w).word for w in shown} <= cat.common_solutions


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [100, 402])
def test_pseudoboolean_report_counts_match_comb(kind, n):
    # far past the enumeration: every count is a sum of math.comb products over the report's cells
    problem = PseudoBooleanProblem(kind, n)
    half = n // 2
    text = pseudoboolean_report(problem)
    slab = {(half, j) for j in range(half + 1)} | {(i, half) for i in range(half + 1)}
    vectors = {(i, j): problem.evaluate(BitString(n, (1 << i) - 1 | ((1 << j) - 1) << half)) for i, j in slab}
    fronts = [{c for c in slab if vectors[c][m] in front} for m, front in enumerate(analytic_fronts(problem))]
    size = {(i, j): comb(half, i) * comb(half, j) for i, j in slab}
    parties = [int(s) for s in re.findall(r"^party \d+: front size \d+, solutions (\d+)$", text, re.M)]
    assert parties == [sum(size[c] for c in cells) for cells in fronts]
    (common,) = re.findall(r"^common solutions \((\d+)\):$", text, re.M)
    assert int(common) == sum(size[c] for c in set.intersection(*fronts))
    shown = re.findall(r"^  cell \((\d+), (\d+)\), solutions (\d+): [01]+$", text, re.M)
    assert shown and all(int(s) == size[(int(i), int(j))] for i, j, s in shown)


def test_pseudoboolean_report_prints_counts_past_the_str_limit_in_scientific_form():
    # party 1's count is 2^2200, 663 digits: exact at the default limit, scientific past a 640-digit one
    problem, exact = PseudoBooleanProblem("bpaoaz", 4400), 2**2200
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        short = pseudoboolean_report(problem)
    finally:
        sys.set_int_max_str_digits(saved)
    full = pseudoboolean_report(problem)
    assert f"party 1: front size 2201, solutions {exact}\n" in full
    assert "party 1: front size 2201, solutions 1.844975e+662\n" in short
    # every count short enough for str() prints as before
    assert short.replace(f"{Decimal(exact):.6e}", str(exact)) == full
    assert "common solutions (1):" in short


def test_path_report_layout():
    text = path_report(exact_path_catalog(fixture_graph()))
    assert text.startswith("graph catalog n=5\n")
    assert "endpoint 5:" in text
    assert "1-3-4-5" in text
    assert "common (1):" in text
