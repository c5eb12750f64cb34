"""The rejection memo of ``run_semo`` and ``run_empmo_simple`` is exact.

The references below are the full-scan loops the runners used before the
memo: every offspring is judged by a scan of its archive. For any seed, size,
kind and stop mode the memoised runners must show the observer the same
archive at every iteration and return the same trace.
``run_empmo_random`` is held the same way to its all-pairs prune, run after
every accept under either party.
"""

import random

from hypothesis import Phase, given, settings, strategies as st

from mpmolab.core import weak_ge as _weak_ge
from mpmolab.pseudoboolean import (
    PseudoBooleanProblem,
    RunTrace,
    _entry,
    _joint,
    _party1,
    _party2,
    analytic_fronts,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)


def _child(half, pw, pi, pj, b):
    if b < half:
        return pi + (1 if not (pw >> b) & 1 else -1), pj
    return pi, pj + (1 if not (pw >> b) & 1 else -1)


def full_scan_semo(problem, seed, *, budget, stop, observer):
    rng = random.Random(seed)
    n, half = problem.n, problem.half
    vec_of = {"aorz": _party1, "aofz": _party2, "aoaz": _joint}[problem.kind]
    word = rng.getrandbits(n)
    i, j = (word & ((1 << half) - 1)).bit_count(), (word >> half).bit_count()
    archive = [(vec_of(half, i, j), word, i, j, 0)]
    evaluations, iterations = 1, 0
    target = analytic_fronts(problem)[0] if stop == "target" else None
    covered = set()
    hit = None
    if target is not None and archive[0][0] in target:
        covered.add(archive[0][0])
        if len(covered) == len(target):
            hit = evaluations
    while hit is None and evaluations < budget:
        iterations += 1
        k = rng.randrange(len(archive))
        b = rng.randrange(n)
        _, pw, pi, pj, _ = archive[k]
        i2, j2 = _child(half, pw, pi, pj, b)
        w2 = pw ^ (1 << b)
        v2 = vec_of(half, i2, j2)
        evaluations += 1
        if not any(_weak_ge(e[0], v2) for e in archive):
            archive = [e for e in archive if not _weak_ge(v2, e[0])]
            archive.append((v2, w2, i2, j2, iterations))
            if target is not None and v2 in target:
                covered.add(v2)
                if len(covered) == len(target):
                    hit = evaluations
        observer(iterations, (archive,))
    return RunTrace(
        evaluations=evaluations, generations=iterations, hit_evaluations=hit,
        final_population=[_entry(problem, e[1], e[4]) for e in archive],
    )


def full_scan_empmo_simple(problem, seed, *, budget, stop, observer):
    rng = random.Random(seed)
    n, half = problem.n, problem.half
    ones_word = (1 << n) - 1
    word = rng.getrandbits(n)
    i0, j0 = (word & ((1 << half) - 1)).bit_count(), (word >> half).bit_count()
    archives = [
        [(_party1(half, i0, j0), word, i0, j0, 0)],
        [(_party2(half, i0, j0), word, i0, j0, 0)],
    ]
    vec_of = (_party1, _party2)
    evaluations, iterations = 2, 0
    has_ones = [word == ones_word] * 2
    fronts = analytic_fronts(problem)
    covered = [{P[0][0]} & fronts[m] for m, P in enumerate(archives)]

    def done():
        if stop == "target":
            return all(has_ones)
        if stop == "fronts":
            return all(len(covered[m]) == len(fronts[m]) for m in (0, 1))
        return False

    hit = evaluations if done() else None
    while hit is None and evaluations < budget:
        iterations += 1
        for m in (0, 1):
            if evaluations >= budget:
                break
            P = archives[m]
            k = rng.randrange(len(P))
            b = rng.randrange(n)
            _, pw, pi, pj, _ = P[k]
            i2, j2 = _child(half, pw, pi, pj, b)
            w2 = pw ^ (1 << b)
            v2 = vec_of[m](half, i2, j2)
            evaluations += 1
            if any(_weak_ge(e[0], v2) for e in P):
                continue
            archives[m] = [e for e in P if not _weak_ge(v2, e[0])]
            archives[m].append((v2, w2, i2, j2, iterations))
            has_ones[m] = has_ones[m] or w2 == ones_word
            if v2 in fronts[m]:
                covered[m].add(v2)
            if done():
                hit = evaluations
                break
        observer(iterations, (archives[0], archives[1]))
    seen = {}
    for P in archives:
        for e in P:
            if e[1] not in seen or e[4] < seen[e[1]]:
                seen[e[1]] = e[4]
    return RunTrace(
        evaluations=evaluations, generations=iterations, hit_evaluations=hit,
        final_population=[_entry(problem, w, birth) for w, birth in sorted(seen.items())],
        archives=tuple([_entry(problem, e[1], e[4]) for e in P] for P in archives),
    )


def all_pairs_empmo_random(problem, phi, seed, *, budget, stop, observer):
    rng = random.Random(seed)
    n, half = problem.n, problem.half
    ones_word = (1 << n) - 1
    word = rng.getrandbits(n)
    i0, j0 = (word & ((1 << half) - 1)).bit_count(), (word >> half).bit_count()
    archive = [(_party1(half, i0, j0), _party2(half, i0, j0), word, i0, j0, 0)]
    evaluations, iterations = 1, 0
    pruned = [True, True]
    hit = evaluations if (stop == "target" and word == ones_word) else None
    while hit is None and evaluations < budget:
        iterations += 1
        k = rng.randrange(len(archive))
        b = rng.randrange(n)
        m = 0 if rng.random() < phi else 1
        _, _, pw, pi, pj, _ = archive[k]
        i2, j2 = _child(half, pw, pi, pj, b)
        w2 = pw ^ (1 << b)
        v2 = (_party1(half, i2, j2), _party2(half, i2, j2))
        evaluations += 1
        vm = v2[m]
        if not any(_weak_ge(z[m], vm) for z in archive):
            archive = [z for z in archive if not _weak_ge(vm, z[m])]
            archive.append((v2[0], v2[1], w2, i2, j2, iterations))
            pruned = [False, False]
            if stop == "target" and w2 == ones_word:
                hit = evaluations
        if not pruned[m]:
            kept = []
            for idx, z in enumerate(archive):
                zm = z[m]
                keep = True
                for idx2, z2 in enumerate(archive):
                    if idx2 == idx:
                        continue
                    f2 = z2[m]
                    if f2 == zm:
                        if z2[5] < z[5]:
                            keep = False
                            break
                    elif _weak_ge(f2, zm):
                        keep = False
                        break
                if keep:
                    kept.append(z)
            archive = kept
            pruned[m] = True
        observer(iterations, (archive,))
    return RunTrace(
        evaluations=evaluations, generations=iterations, hit_evaluations=hit,
        final_population=[_entry(problem, z[2], z[5]) for z in archive],
    )


def recorded(runner, problem, seed, budget, stop):
    frames = []

    def observer(iteration, archives):
        # Every iteration spends an evaluation, so a runner past this point
        # has stopped counting them and would never end.
        assert iteration < budget
        frames.append((iteration, tuple(list(P) for P in archives)))

    trace = runner(problem, seed, budget=budget, stop=stop, observer=observer)
    return frames, trace


def assert_same_run(runner, reference, problem, seed, budget, stop):
    # Frame by frame, so a failure reports one small archive, not the run.
    frames, trace = recorded(runner, problem, seed, budget, stop)
    want_frames, want_trace = recorded(reference, problem, seed, budget, stop)
    for got, want in zip(frames, want_frames):
        assert got == want
    assert len(frames) == len(want_frames)
    assert trace == want_trace


sizes = st.integers(2, 10).map(lambda h: 2 * h)
budgets = st.integers(1, 1500)
# Target and fronts runs at n <= 20 hit within about 4,000 evaluations; one
# that reaches the cap ends as a budget run in both loops and still compares.
# The cap makes a memo that loses the target fail fast instead of hang, and
# the explain phase, which reruns a failing example many times, is left out.
STOP_CAP = 5_000
QUICK = settings(
    max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)


@QUICK
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    kind=st.sampled_from(["aoaz", "aorz", "aofz"]),
    stop=st.sampled_from(["target", "budget"]),
    budget=budgets,
)
def test_semo_memo_matches_full_scan(seed, n, kind, stop, budget):
    problem = PseudoBooleanProblem(kind, n)
    budget = budget if stop == "budget" else STOP_CAP
    assert_same_run(run_semo, full_scan_semo, problem, seed, budget, stop)


@QUICK
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    stop=st.sampled_from(["target", "fronts", "budget"]),
    budget=budgets,
)
def test_empmo_simple_memo_matches_full_scan(seed, n, stop, budget):
    problem = PseudoBooleanProblem("bpaoaz", n)
    budget = budget if stop == "budget" else STOP_CAP
    assert_same_run(run_empmo_simple, full_scan_empmo_simple, problem, seed, budget, stop)


@QUICK
@given(
    seed=st.integers(0, 2**32 - 1),
    n=sizes,
    phi=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
    stop=st.sampled_from(["target", "budget"]),
    budget=budgets,
)
def test_empmo_random_prune_matches_all_pairs(seed, n, phi, stop, budget):
    problem = PseudoBooleanProblem("bpaoaz", n)
    budget = budget if stop == "budget" else STOP_CAP
    def runner(problem, seed, **kwargs):
        return run_empmo_random(problem, phi, seed, **kwargs)

    def reference(problem, seed, **kwargs):
        return all_pairs_empmo_random(problem, phi, seed, **kwargs)

    assert_same_run(runner, reference, problem, seed, budget, stop)
