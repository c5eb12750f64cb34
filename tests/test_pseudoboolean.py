"""Benchmark definitions and the four population-based runners."""

import random

import pytest

from brute import brute_force_pseudoboolean
from mpmolab.core import payoff_component
from mpmolab.pseudoboolean import (
    KINDS,
    BitString,
    PseudoBooleanProblem,
    analytic_fronts,
    common_optimum,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)

# the budget of every run that expects a hit: each hits far sooner, so a stop
# rule that misses its event fails here instead of running 10**8 evaluations
HIT_BUDGET = 10**5


def test_bitstring_roundtrip_and_counts():
    x = BitString.from01("110100")
    assert x.to01() == "110100"
    assert x.ones_count() == 3
    assert BitString(6, 0).ones_count() == 0
    assert BitString.ones(6).to01() == "111111"


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString.from01("")
    with pytest.raises(ValueError):
        BitString.from01("10a1")
    with pytest.raises(ValueError):
        BitString(4, 16)


def test_problem_validation():
    with pytest.raises(ValueError):
        PseudoBooleanProblem("nope", 8)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 7)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 2)
    with pytest.raises(ValueError):
        PseudoBooleanProblem("bpaoaz", 8).evaluate(BitString(6, 0))


def test_evaluate_known_words():
    p = PseudoBooleanProblem("bpaoaz", 8)
    assert p.evaluate(BitString.ones(8)) == ((4, 4), (4, 4))
    assert p.evaluate(BitString(8, 0)) == ((0, 4), (4, 0))
    # all ones in the first half only: i=4, j=0
    assert p.evaluate(BitString.from01("11110000")) == ((0, 8), (0, 4))
    # all ones in the second half only: i=0, j=4
    assert p.evaluate(BitString.from01("00001111")) == ((4, 0), (8, 0))

    joint = PseudoBooleanProblem("aoaz", 8)
    assert joint.evaluate(BitString.from01("11110000")) == ((0, 8, 0, 4),)
    only1 = PseudoBooleanProblem("aorz", 8)
    only2 = PseudoBooleanProblem("aofz", 8)
    assert only1.evaluate(BitString.ones(8)) == ((4, 4),)
    assert only2.evaluate(BitString(8, 0)) == ((4, 0),)


def test_evaluate_invariants_random_words():
    p = PseudoBooleanProblem("bpaoaz", 12)
    rng = random.Random(3)
    for _ in range(300):
        x = BitString(12, rng.getrandbits(12))
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
    bp = PseudoBooleanProblem("bpaoaz", 8)
    with pytest.raises(ValueError):
        run_semo(bp, 0, targets=analytic_fronts(bp))
    # a small budget, so a fault that lets the wrong-arity targets through fails at once
    with pytest.raises(ValueError):
        run_semo(PseudoBooleanProblem("aorz", 8), 0, targets=analytic_fronts(bp), budget=1000)


def test_semo_hits_and_archive_equals_front():
    p = PseudoBooleanProblem("aorz", 10)
    trace = run_semo(p, seed=11, budget=HIT_BUDGET, targets=analytic_fronts(p))
    assert trace.hit_evaluations is not None
    assert trace.evaluations == trace.generations + 1
    got = {e[0] for e in trace.archives[0]}
    assert got == analytic_fronts(p)[0]

    again = run_semo(p, seed=11, budget=HIT_BUDGET, targets=analytic_fronts(p))
    assert (again.evaluations, again.generations, again.hit_evaluations) == (
        trace.evaluations,
        trace.generations,
        trace.hit_evaluations,
    )


def test_semo_archive_stays_mutually_incomparable():
    p = PseudoBooleanProblem("aoaz", 8)
    checked = 0

    def watch(iteration, archives):
        nonlocal checked
        if iteration % 25:
            return
        checked += 1
        vecs = [e[0] for e in archives[0]]
        for a in range(len(vecs)):
            for b in range(len(vecs)):
                if a == b:
                    continue
                assert not all(x >= y for x, y in zip(vecs[a], vecs[b]))

    trace = run_semo(p, seed=4, budget=HIT_BUDGET, targets=analytic_fronts(p), observer=watch)
    assert trace.hit_evaluations is not None
    assert checked > 0


def test_semo_budget_stop():
    p = PseudoBooleanProblem("aoaz", 20)
    trace = run_semo(p, seed=0, budget=50, targets=None)
    assert trace.hit_evaluations is None
    assert trace.evaluations == 50


def test_empmo_simple_requires_biparty():
    with pytest.raises(ValueError):
        run_empmo_simple(PseudoBooleanProblem("aorz", 8), 0, targets=None)


def test_empmo_simple_hit_exposes_common_member():
    p = PseudoBooleanProblem("bpaoaz", 10)
    trace = run_empmo_simple(p, seed=2, budget=HIT_BUDGET, targets=common_optimum(p))
    assert trace.hit_evaluations is not None
    # the objective-level intersection: words in either archive whose party-1
    # vector party 1's archive holds and whose party-2 vector party 2's holds
    objs1 = {e[0] for e in trace.archives[0]}
    objs2 = {e[0] for e in trace.archives[1]}
    vectors = {e[1]: p.evaluate(BitString(10, e[1])) for P in trace.archives for e in P}
    common = [w for w, (v1, v2) in vectors.items() if v1 in objs1 and v2 in objs2]
    assert BitString.ones(10).word in common


def test_empmo_simple_fronts_stop_covers_both_parties():
    p = PseudoBooleanProblem("bpaoaz", 8)
    trace = run_empmo_simple(p, seed=9, budget=HIT_BUDGET, targets=analytic_fronts(p))
    assert trace.hit_evaluations is not None
    f1, f2 = analytic_fronts(p)
    assert {e[0] for e in trace.archives[0]} == f1
    assert {e[0] for e in trace.archives[1]} == f2


def test_empmo_simple_budget_accounting():
    p = PseudoBooleanProblem("bpaoaz", 16)
    trace = run_empmo_simple(p, seed=1, budget=100, targets=None)
    assert trace.evaluations == 100
    assert trace.hit_evaluations is None

    hit = run_empmo_simple(p, seed=1, budget=HIT_BUDGET, targets=common_optimum(p))
    assert hit.hit_evaluations == hit.evaluations


def test_empmo_random_validates_phi():
    p = PseudoBooleanProblem("bpaoaz", 8)
    with pytest.raises(ValueError):
        run_empmo_random(p, -0.1, 0, targets=common_optimum(p))
    with pytest.raises(ValueError):
        run_empmo_random(p, 1.5, 0, targets=common_optimum(p))
    with pytest.raises(ValueError):
        run_empmo_random(PseudoBooleanProblem("aoaz", 8), 0.5, 0, targets=common_optimum(p))


def test_empmo_random_hits_and_keeps_distinct_words():
    p = PseudoBooleanProblem("bpaoaz", 8)

    def watch(iteration, archives):
        if iteration % 20:
            return
        words = [e[2] for e in archives[0]]
        assert len(words) == len(set(words))

    trace = run_empmo_random(p, 0.5, seed=6, budget=HIT_BUDGET, targets=common_optimum(p), observer=watch)
    assert trace.hit_evaluations is not None
    ones = BitString.ones(8)
    assert any(e[-4] == ones.word for e in trace.archives[0])

    again = run_empmo_random(p, 0.5, seed=6, budget=HIT_BUDGET, targets=common_optimum(p))
    assert again.hit_evaluations == trace.hit_evaluations
    assert again.evaluations == trace.evaluations


@pytest.mark.parametrize("phi", [0.0, 0.3, 0.5, 1.0])
def test_empmo_random_members_hold_distinct_cells(phi):
    # the prune keeps members by their vector, which is exact because a party
    # vector fixes the cell (i, j) and members never share a cell
    p = PseudoBooleanProblem("bpaoaz", 12)
    sizes = []

    def watch(iteration, archives):
        cells = [(z[3], z[4]) for z in archives[0]]
        assert len(cells) == len(set(cells))
        sizes.append(len(cells))

    for seed in range(3):
        run_empmo_random(p, phi, seed, budget=3000, targets=None, observer=watch)
    assert max(sizes) > 3


def test_empmo_payoff_accepts_only_positive_totals():
    p = PseudoBooleanProblem("bpaoaz", 12)
    words = []
    trace = run_empmo_payoff(
        p,
        seed=13,
        budget=HIT_BUDGET,
        targets=common_optimum(p),
        observer=lambda it, archives: words.append(archives[0][0][2]),
    )
    assert trace.hit_evaluations is not None
    prev = None
    changes = 0
    for w in words:
        if prev is not None and w != prev:
            changes += 1
            assert (w ^ prev).bit_count() == 1
            before = p.evaluate(BitString(12, prev))
            after = p.evaluate(BitString(12, w))
            assert sum(payoff_component(fb, fa) for fb, fa in zip(before, after)) > 0
            # each accepted vote adds a one; losing a one never clears the vote
            assert w.bit_count() == prev.bit_count() + 1
        prev = w
    assert changes > 0


def test_empmo_payoff_hit_is_all_ones():
    p = PseudoBooleanProblem("bpaoaz", 10)
    trace = run_empmo_payoff(p, seed=5, budget=HIT_BUDGET, targets=common_optimum(p), initial=BitString(10, 0))
    assert trace.hit_evaluations is not None
    assert trace.hit_evaluations == trace.evaluations
    assert trace.evaluations == trace.generations + 1
    assert trace.archives[0][0][-4] == BitString.ones(10).word


def test_runners_respect_explicit_initial():
    p = PseudoBooleanProblem("bpaoaz", 8)
    start = BitString.ones(8)
    for runner in (
        lambda: run_empmo_simple(p, 0, budget=HIT_BUDGET, targets=common_optimum(p), initial=start),
        lambda: run_empmo_random(p, 0.5, 0, budget=HIT_BUDGET, targets=common_optimum(p), initial=start),
        lambda: run_empmo_payoff(p, 0, budget=HIT_BUDGET, targets=common_optimum(p), initial=start),
    ):
        trace = runner()
        assert trace.hit_evaluations == trace.evaluations
        assert trace.generations == 0
    with pytest.raises(ValueError):
        run_empmo_payoff(p, 0, targets=common_optimum(p), initial=BitString.ones(6))


def test_runners_check_target_arity_and_initial_length():
    bp, single = PseudoBooleanProblem("bpaoaz", 8), PseudoBooleanProblem("aoaz", 8)

    def never(iteration, archives):  # the checks fire before the first generation
        pytest.fail(f"a run with bad inputs reached generation {iteration}")

    calls = [
        (run_semo, single),
        (run_empmo_simple, bp),
        (lambda p, s, **k: run_empmo_random(p, 0.5, s, **k), bp),
        (run_empmo_payoff, bp),
    ]
    for runner, problem in calls:
        for targets in (None, common_optimum(problem), analytic_fronts(problem)):
            runner(problem, 0, budget=50, targets=targets)
        other = single if problem is bp else bp
        for targets in ((), common_optimum(other)):
            with pytest.raises(ValueError):
                runner(problem, 0, budget=50, targets=targets, observer=never)
        with pytest.raises(ValueError, match="does not match"):
            runner(problem, 0, budget=50, targets=None, initial=BitString.ones(10), observer=never)


AOAZ10, BPAOAZ10 = PseudoBooleanProblem("aoaz", 10), PseudoBooleanProblem("bpaoaz", 10)
# name: (problem, evaluations of the start, run(seed, **keywords))
STOP_RULE_RUNS = {
    "semo": (AOAZ10, 1, lambda s, **k: run_semo(AOAZ10, s, **k)),
    "empmo-simple": (BPAOAZ10, 2, lambda s, **k: run_empmo_simple(BPAOAZ10, s, **k)),
    "empmo-random": (BPAOAZ10, 1, lambda s, **k: run_empmo_random(BPAOAZ10, 0.5, s, **k)),
    "empmo-payoff": (BPAOAZ10, 1, lambda s, **k: run_empmo_payoff(BPAOAZ10, s, **k)),
}


@pytest.mark.parametrize("name", STOP_RULE_RUNS)
def test_stop_rule(name):
    # a run hits at the evaluation by which every lane has accepted every
    # vector of its set, the start counted; None runs out the budget
    problem, start, run = STOP_RULE_RUNS[name]
    lanes = problem.parties
    x = BitString.from01("0110010111")
    for initial, targets in (
        (BitString.ones(10), common_optimum(problem)),
        (x, tuple(frozenset({v}) for v in problem.evaluate(x))),
        (x, (frozenset(),) * lanes),
    ):
        trace = run(3, budget=100, initial=initial, targets=targets)
        assert trace.hit_evaluations == trace.evaluations == start
        assert trace.generations == 0
    for budget in (2, 3, 101):
        trace = run(3, budget=budget, targets=None)
        assert trace.evaluations == budget
        assert trace.hit_evaluations is None
    for targets in ((), (frozenset(),) * (lanes + 1), analytic_fronts(problem) * 2):
        with pytest.raises(ValueError):
            run(3, budget=10, targets=targets)


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
            trace = runner(problem, 9, budget=budget, initial=initial, targets=None)
            assert trace.generations == 0
            assert all([e[-4] for e in P] == [want.word] for P in trace.archives)


def test_runs_of_one_seed_return_equal_traces():
    # a trace holds counts and members only, so one seed gives one trace
    bp, single = PseudoBooleanProblem("bpaoaz", 10), PseudoBooleanProblem("aoaz", 10)
    calls = [
        lambda s: run_semo(single, s, budget=HIT_BUDGET, targets=analytic_fronts(single)),
        lambda s: run_empmo_simple(bp, s, budget=HIT_BUDGET, targets=common_optimum(bp)),
        lambda s: run_empmo_random(bp, 0.5, s, budget=HIT_BUDGET, targets=common_optimum(bp)),
        lambda s: run_empmo_payoff(bp, s, budget=500, targets=None),
    ]
    for run in calls:
        for seed in range(3):
            assert run(seed) == run(seed)


def test_empmo_payoff_final_birth_is_the_last_accepted_move():
    # the observer sees the word after every iteration; the start word is
    # the seed's first getrandbits(n) draw, born at 0
    p = PseudoBooleanProblem("bpaoaz", 24)
    for seed in range(4):
        words = [(0, random.Random(seed).getrandbits(24))]
        trace = run_empmo_payoff(
            p, seed, budget=3000, targets=None, observer=lambda it, archives: words.append((it, archives[0][0][2]))
        )
        changed = [it for (it, w), (_, prev) in zip(words[1:], words) if w != prev]
        assert trace.generations == len(words) - 1 == 2999
        assert trace.archives[0][0][-1] == (changed[-1] if changed else 0) < 2999
