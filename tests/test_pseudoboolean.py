"""Benchmark definitions and the four population-based runners."""

import random

import pytest

from mpmolab.core import Sense, multiparty_payoff
from mpmolab.oracles import brute_force_pseudoboolean
from mpmolab.pseudoboolean import (
    KINDS,
    BitString,
    PseudoBooleanProblem,
    analytic_fronts,
    common_members,
    one_bit_mutation,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)


def test_bitstring_roundtrip_and_counts():
    x = BitString.from01("110100")
    assert x.to01() == "110100"
    assert x.ones_count() == 3
    assert BitString.zeros(6).ones_count() == 0
    assert BitString.ones(6).to01() == "111111"
    y = x.flip(2)
    assert y.to01() == "111100"
    assert x.to01() == "110100"  # flip does not mutate


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString.from01("")
    with pytest.raises(ValueError):
        BitString.from01("10a1")
    with pytest.raises(ValueError):
        BitString(4, 16)
    with pytest.raises(IndexError):
        BitString.zeros(4).flip(4)


def test_one_bit_mutation_flips_exactly_one_bit():
    rng = random.Random(7)
    x = BitString.from01("10110010")
    seen = set()
    for _ in range(400):
        y = one_bit_mutation(x, rng)
        diff = x.word ^ y.word
        assert diff.bit_count() == 1
        seen.add(diff.bit_length() - 1)
    assert seen == set(range(8))


def test_problem_validation():
    with pytest.raises(ValueError):
        PseudoBooleanProblem("nope", 8)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 7)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 2)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 8).evaluate(BitString.zeros(6))


def test_evaluate_known_words():
    p = PseudoBooleanProblem("bpaoaz", 8)
    assert p.evaluate(BitString.ones(8)) == ((4, 4), (4, 4))
    assert p.evaluate(BitString.zeros(8)) == ((0, 4), (4, 0))
    # all ones in the first half only: i=4, j=0
    assert p.evaluate(BitString.from01("11110000")) == ((0, 8), (0, 4))
    # all ones in the second half only: i=0, j=4
    assert p.evaluate(BitString.from01("00001111")) == ((4, 0), (8, 0))

    joint = PseudoBooleanProblem("aoaz", 8)
    assert joint.evaluate(BitString.from01("11110000")) == ((0, 8, 0, 4),)
    only1 = PseudoBooleanProblem("aorz", 8)
    only2 = PseudoBooleanProblem("aofz", 8)
    assert only1.evaluate(BitString.ones(8)) == ((4, 4),)
    assert only2.evaluate(BitString.zeros(8)) == ((4, 0),)


def test_evaluate_invariants_random_words():
    p = PseudoBooleanProblem("bpaoaz", 12)
    rng = random.Random(3)
    for _ in range(300):
        x = BitString.random(12, rng)
        (f11, f12), (f21, f22) = p.evaluate(x)
        i, j = p.counts(x)
        assert (f11, f22) == (j, i)
        assert f12 + f21 == 12
        # recount the halves the slow way
        bits = x.to01()
        assert i == bits[:6].count("1")
        assert j == bits[6:].count("1")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_analytic_fronts_match_brute_force(kind, n):
    p = PseudoBooleanProblem(kind, n)
    cat = brute_force_pseudoboolean(p)
    assert analytic_fronts(p) == cat.party_fronts


def test_front_sizes():
    n = 10
    f1, f2 = analytic_fronts(PseudoBooleanProblem("bpaoaz", n))
    assert len(f1) == len(f2) == n // 2 + 1
    (joint,) = analytic_fronts(PseudoBooleanProblem("aoaz", n))
    assert len(joint) == n + 1


def test_semo_rejects_biparty_kind():
    with pytest.raises(ValueError):
        run_semo(PseudoBooleanProblem("bpaoaz", 8), 0)
    with pytest.raises(ValueError):
        run_semo(PseudoBooleanProblem("aorz", 8), 0, stop="nope")


def test_semo_hits_and_archive_equals_front():
    p = PseudoBooleanProblem("aorz", 10)
    trace = run_semo(p, seed=11)
    assert trace.hit_time is not None
    assert trace.evaluations == trace.iterations + 1
    got = {e.objectives[0] for e in trace.final_population}
    assert got == analytic_fronts(p)[0]

    again = run_semo(p, seed=11)
    assert (again.evaluations, again.iterations, again.hit_time) == (
        trace.evaluations,
        trace.iterations,
        trace.hit_time,
    )


def test_semo_archive_stays_mutually_incomparable():
    p = PseudoBooleanProblem("aoaz", 8)
    checked = 0

    def watch(iteration, archive):
        nonlocal checked
        if iteration % 25:
            return
        checked += 1
        vecs = [e[0] for e in archive]
        for a in range(len(vecs)):
            for b in range(len(vecs)):
                if a == b:
                    continue
                assert not all(x >= y for x, y in zip(vecs[a], vecs[b]))

    run_semo(p, seed=4, observer=watch)
    assert checked > 0


def test_semo_budget_stop():
    p = PseudoBooleanProblem("aoaz", 20)
    trace = run_semo(p, seed=0, budget=50, stop="budget")
    assert trace.hit_time is None
    assert trace.evaluations == 50


def test_empmo_simple_requires_biparty():
    with pytest.raises(ValueError):
        run_empmo_simple(PseudoBooleanProblem("aorz", 8), 0)


def test_empmo_simple_hit_exposes_common_member():
    p = PseudoBooleanProblem("bpaoaz", 10)
    trace = run_empmo_simple(p, seed=2)
    assert trace.hit_time is not None
    members = common_members(trace)
    ones = BitString.ones(10)
    assert any(e.solution.word == ones.word for e in members)
    # every reported common member has both vectors carried by both archives
    objs1 = {e.objectives[0] for e in trace.archives[0]}
    objs2 = {e.objectives[1] for e in trace.archives[1]}
    for e in members:
        assert e.objectives[0] in objs1
        assert e.objectives[1] in objs2


def test_empmo_simple_fronts_stop_covers_both_parties():
    p = PseudoBooleanProblem("bpaoaz", 8)
    trace = run_empmo_simple(p, seed=9, stop="fronts")
    f1, f2 = analytic_fronts(p)
    assert {e.objectives[0] for e in trace.archives[0]} == f1
    assert {e.objectives[1] for e in trace.archives[1]} == f2


def test_empmo_simple_budget_accounting():
    p = PseudoBooleanProblem("bpaoaz", 16)
    trace = run_empmo_simple(p, seed=1, budget=100, stop="budget")
    assert trace.evaluations == 100
    assert trace.hit_time is None

    hit = run_empmo_simple(p, seed=1)
    assert hit.hit_time == hit.evaluations


def test_empmo_random_validates_phi():
    p = PseudoBooleanProblem("bpaoaz", 8)
    with pytest.raises(ValueError):
        run_empmo_random(p, -0.1, 0)
    with pytest.raises(ValueError):
        run_empmo_random(p, 1.5, 0)
    with pytest.raises(ValueError):
        run_empmo_random(PseudoBooleanProblem("aoaz", 8), 0.5, 0)


def test_empmo_random_hits_and_keeps_distinct_words():
    p = PseudoBooleanProblem("bpaoaz", 8)

    def watch(iteration, archive):
        if iteration % 20:
            return
        words = [e[2] for e in archive]
        assert len(words) == len(set(words))

    trace = run_empmo_random(p, 0.5, seed=6, observer=watch)
    assert trace.hit_time is not None
    assert trace.phi == 0.5
    ones = BitString.ones(8)
    assert any(e.solution.word == ones.word for e in trace.final_population)

    again = run_empmo_random(p, 0.5, seed=6)
    assert again.hit_time == trace.hit_time
    assert again.evaluations == trace.evaluations


def test_empmo_payoff_accepts_only_positive_totals():
    p = PseudoBooleanProblem("bpaoaz", 12)
    words = []
    run_empmo_payoff(p, seed=13, observer=lambda it, w: words.append(w))
    prev = None
    changes = 0
    for w in words:
        if prev is not None and w != prev:
            changes += 1
            assert (w ^ prev).bit_count() == 1
            before = p.evaluate(BitString(12, prev))
            after = p.evaluate(BitString(12, w))
            assert multiparty_payoff(before, after, Sense.MAXIMIZE).total > 0
            # each accepted vote adds a one; losing a one never clears the vote
            assert w.bit_count() == prev.bit_count() + 1
        prev = w
    assert changes > 0


def test_empmo_payoff_hit_is_all_ones():
    p = PseudoBooleanProblem("bpaoaz", 10)
    trace = run_empmo_payoff(p, seed=5, initial=BitString.zeros(10))
    assert trace.hit_time is not None
    assert trace.hit_time == trace.evaluations
    assert trace.evaluations == trace.iterations + 1
    assert trace.final_population[0].solution.word == BitString.ones(10).word


def test_runners_respect_explicit_initial():
    p = PseudoBooleanProblem("bpaoaz", 8)
    start = BitString.ones(8)
    for runner in (
        lambda: run_empmo_simple(p, 0, initial=start),
        lambda: run_empmo_random(p, 0.5, 0, initial=start),
        lambda: run_empmo_payoff(p, 0, initial=start),
    ):
        trace = runner()
        assert trace.hit_time == trace.evaluations
        assert trace.iterations == 0
    with pytest.raises(ValueError):
        run_empmo_payoff(p, 0, initial=BitString.ones(6))


def test_runners_check_stop_mode_and_initial_length():
    bp, single = PseudoBooleanProblem("bpaoaz", 8), PseudoBooleanProblem("aoaz", 8)
    calls = [
        (run_semo, single, ("target", "budget")),
        (run_empmo_simple, bp, ("target", "fronts", "budget")),
        (lambda p, s, **k: run_empmo_random(p, 0.5, s, **k), bp, ("target", "budget")),
        (run_empmo_payoff, bp, ("target", "budget")),
    ]
    for runner, problem, modes in calls:
        for stop in modes:
            runner(problem, 0, budget=50, stop=stop)
        for stop in {"target", "fronts", "budget", "nope"} - set(modes):
            with pytest.raises(ValueError, match="unknown stop mode"):
                runner(problem, 0, budget=50, stop=stop)
        with pytest.raises(ValueError, match="does not match"):
            runner(problem, 0, budget=50, initial=BitString.ones(10))


def test_initial_word_replaces_the_first_draw():
    # a budget spent on the start alone shows the start: the given word, or
    # else the seed's first getrandbits(n) draw
    bp = PseudoBooleanProblem("bpaoaz", 8)
    x = BitString.from01("01100110")
    drawn = BitString(8, random.Random(9).getrandbits(8))
    assert drawn != x
    for problem, runner, budget in (
        (PseudoBooleanProblem("aorz", 8), run_semo, 1),
        (bp, run_empmo_simple, 2),
        (bp, run_empmo_payoff, 1),
    ):
        for initial, want in ((x, x), (None, drawn)):
            trace = runner(problem, 9, budget=budget, initial=initial, stop="budget")
            assert trace.iterations == 0
            assert [e.solution for e in trace.final_population] == [want]
