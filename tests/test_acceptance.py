"""Acceptance gates: one test per headline behavior the package promises.

Each test prints a single summary line with its measured numbers, so a
verbose run doubles as a small report. Budgets are generous upper caps, not
performance targets; the suite is deterministic via fixed seeds throughout.
"""

import statistics
import time
from fractions import Fraction

from brute import brute_force_pseudoboolean
from mpmolab.harness import (
    ExperimentConfig,
    make_metric_fn,
    replay_row,
    run_many,
    summarize,
)
from mpmolab.instances import (
    InstanceSpec,
    KIND_PLANTED,
    fixture_graph,
    generate_planted_uav,
)
from mpmolab.oracles import (
    epsilon_of_solution,
    exact_party_fronts,
    exact_path_catalog,
    payoff_runtime_predictor,
    references,
)
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
from mpmolab.shortestpath import (
    ApproxParams,
    consensus_archive_bound,
    eval_path,
    run_demo_sp,
    run_empmo_cons_sp,
    run_empmo_simple_sp,
)

# Budget of every bit-string run that must hit: far above the largest hit these
# runs take (about 41,000 evaluations), so a stop rule that never fires fails
# the run's hit assertion in seconds instead of spinning to the 10^8 default.
HIT_BUDGET = 10**6


def test_brute_force_matches_analytic_sets():
    """Exhaustive catalogs equal the closed-form optima on every benchmark kind."""
    t0 = time.perf_counter()
    for n in (4, 6, 8, 10, 12, 14):
        half = n // 2
        for kind in KINDS:
            problem = PseudoBooleanProblem(kind, n)
            cat = brute_force_pseudoboolean(problem)
            assert cat.party_fronts == analytic_fronts(problem)
        two = brute_force_pseudoboolean(PseudoBooleanProblem("bpaoaz", n))
        assert all(len(front) == half + 1 for front in two.party_fronts)
        assert all(len(sols) == 1 << half for sols in two.party_solutions)
        assert two.common_solutions == frozenset({(1 << n) - 1})
        single = brute_force_pseudoboolean(PseudoBooleanProblem("aorz", n))
        assert len(single.party_solutions[0]) == 1 << half
        joint = brute_force_pseudoboolean(PseudoBooleanProblem("aoaz", n))
        assert len(joint.party_solutions[0]) == (1 << (half + 1)) - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"oracle equivalence: PASS over n=4..14, all kinds ({elapsed:.1f}s)")


FIXTURE_TABLE = {
    (1, 2): ((1, 2), (2, 4)),
    (1, 3): ((3, 2), (3, 5)),
    (1, 2, 3): ((4, 5), (4, 5)),
    (1, 3, 4): ((5, 3), (4, 6)),
    (1, 2, 3, 4): ((6, 6), (5, 6)),
    (1, 2, 5): ((10, 4), (8, 5)),
    (1, 3, 5): ((4, 5), (7, 8)),
    (1, 3, 4, 5): ((7, 4), (5, 7)),
    (1, 2, 3, 5): ((5, 8), (8, 8)),
    (1, 2, 3, 4, 5): ((8, 7), (6, 7)),
}


def test_fixture_tables_are_reproduced_exactly():
    """Every hand-tabulated path total and per-endpoint set on the fixture."""
    t0 = time.perf_counter()
    g = fixture_graph()
    for path, expected in FIXTURE_TABLE.items():
        assert eval_path(g, path) == expected

    cat = exact_path_catalog(g)
    ec = cat.per_endpoint[5]
    assert {p for p, _ in ec.party_sets[0]} == {(1, 3, 5), (1, 3, 4, 5)}
    assert {p for p, _ in ec.party_sets[1]} == {(1, 2, 5), (1, 3, 4, 5)}
    assert [p for p, _ in ec.common] == [(1, 3, 4, 5)]
    assert {p for p, _ in ec.joint} == {(1, 2, 5), (1, 3, 5), (1, 3, 4, 5)}
    assert [p for p, _ in cat.per_endpoint[2].common] == [(1, 2)]
    assert [p for p, _ in cat.per_endpoint[3].common] == [(1, 3)]
    assert [p for p, _ in cat.per_endpoint[4].common] == [(1, 3, 4)]
    common5 = cat.common_objectives(5)
    assert epsilon_of_solution(((10, 4), (8, 5)), common5) == Fraction(3, 5)
    assert epsilon_of_solution(((4, 5), (7, 8)), common5) == Fraction(2, 5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"fixture golden: PASS, 10 path rows + catalogs ({elapsed:.2f}s)")


def test_payoff_hitting_time_matches_harmonic_prediction():
    """Mean hitting time from the all-zeros start tracks the harmonic-sum formula."""
    t0 = time.perf_counter()
    n, seeds = 50, 500
    problem = PseudoBooleanProblem("bpaoaz", n)
    start = BitString(n, 0)
    hits = []
    for seed in range(seeds):
        trace = run_empmo_payoff(problem, seed, targets=common_optimum(problem), initial=start, budget=HIT_BUDGET)
        assert trace.hit_evaluations is not None
        hits.append(trace.hit_evaluations)
    mean = statistics.fmean(hits)
    predicted = float(payoff_runtime_predictor(n, n))
    assert abs(mean - predicted) <= 0.10 * predicted, (mean, predicted)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"payoff hitting time: PASS, mean {mean:.2f} vs predicted {predicted:.2f} "
        f"over {seeds} seeds ({elapsed:.1f}s)"
    )


def _mean_hit_run(runner, problem, *args, targets, seeds):
    """Mean evaluations over seeds of runs capped at ``HIT_BUDGET``, each of which must hit."""
    evaluations = []
    for s in seeds:
        trace = runner(problem, *args, s, targets=targets, budget=HIT_BUDGET)
        assert trace.hit_evaluations is not None, (runner.__name__, problem, s)
        evaluations.append(trace.evaluations)
    return statistics.fmean(evaluations)


def test_runtime_ordering_across_optimizers():
    """Mean evaluations: joint-archive search > two archives > random arbitration >= payoff."""
    t0 = time.perf_counter()
    seeds = range(10)
    report = {}
    for n in (40, 80):
        joint = PseudoBooleanProblem("aoaz", n)
        two = PseudoBooleanProblem("bpaoaz", n)
        goal = common_optimum(two)
        semo = _mean_hit_run(run_semo, joint, targets=analytic_fronts(joint), seeds=seeds)
        simple = _mean_hit_run(run_empmo_simple, two, targets=goal, seeds=seeds)
        rand = _mean_hit_run(run_empmo_random, two, 0.5, targets=goal, seeds=seeds)
        payoff = _mean_hit_run(run_empmo_payoff, two, targets=goal, seeds=seeds)
        assert semo >= 1.2 * simple, (n, semo, simple)
        assert simple >= 1.2 * rand, (n, simple, rand)
        assert rand >= payoff, (n, rand, payoff)
        report[n] = (semo, simple, rand, payoff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    means = "; ".join(
        f"n={n}: {a:.0f} > {b:.0f} > {c:.0f} >= {d:.0f}" for n, (a, b, c, d) in report.items()
    )
    print(f"runtime ordering: PASS, {means} ({elapsed:.1f}s)")


def test_extreme_party_bias_slows_random_arbitration():
    """Heavily biased party draws cost more than balanced ones."""
    t0 = time.perf_counter()
    n, seeds = 60, range(10)
    problem = PseudoBooleanProblem("bpaoaz", n)
    means = {
        phi: _mean_hit_run(run_empmo_random, problem, phi, targets=common_optimum(problem), seeds=seeds)
        for phi in (0.05, 0.5, 0.95)
    }
    assert means[0.05] > 1.5 * means[0.5], means
    assert means[0.95] > 1.5 * means[0.5], means
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        "party-bias U-shape: PASS, "
        f"{means[0.05]:.0f} / {means[0.5]:.0f} \\ {means[0.95]:.0f} ({elapsed:.1f}s)"
    )


def test_consensus_archive_never_exceeds_size_bound():
    """Live archive size stays within the box-counting bound at every generation."""
    t0 = time.perf_counter()
    checked = 0
    peaks = {}
    for n, seeds in ((10, range(7)), (20, range(7)), (30, range(6))):
        g = generate_planted_uav(InstanceSpec(KIND_PLANTED, n, seed=100 + n))
        params = ApproxParams(1, 1)
        bound = consensus_archive_bound(g, params)
        peak = 0

        def watch(gen, pools, bound=bound):
            nonlocal peak, checked
            checked += 1
            size = len(pools[0])
            assert size <= bound, (gen, size, bound)
            if size > peak:
                peak = size

        for seed in seeds:
            run_empmo_cons_sp(g, params, 20000, seed, observer=watch)
        peaks[n] = (peak, bound)
    assert checked == 20 * 20000
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    desc = ", ".join(f"n={n}: peak {p} <= {b}" for n, (p, b) in peaks.items())
    print(f"archive bound: PASS over 20 runs, {desc} ({elapsed:.1f}s)")


def test_common_paths_are_prefix_closed():
    """Every prefix of a common optimal path is itself a common optimal path."""
    t0 = time.perf_counter()
    graphs = [fixture_graph()]
    for k in range(20):
        graphs.append(generate_planted_uav(InstanceSpec(KIND_PLANTED, 5 + (k % 5), seed=k)))
    prefixes = 0
    for g in graphs:
        cat = exact_path_catalog(g)
        commons = {e: {p for p, _ in ec.common} for e, ec in cat.per_endpoint.items()}
        for paths in commons.values():
            for path in paths:
                for j in range(2, len(path)):
                    prefix = path[:j]
                    assert prefix in commons[prefix[-1]], (path, prefix)
                    prefixes += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"prefix closure: PASS on fixture + 20 planted graphs, "
        f"{prefixes} prefixes checked ({elapsed:.1f}s)"
    )


def no_twins(gen, pools):
    """Observer: every 1,000 generations, no pool holds one member twice.

    A step that enrolls a member again grows its pool each time, and each
    drop's scan of the pool slows with it, so a 10^6-generation run under such
    a fault ends late instead of failing.
    """
    if gen % 1000 == 0:
        for pool in pools:
            assert len(set(map(id, pool))) == len(pool), gen


def test_epsilon_convergence_per_algorithm():
    """Consensus searches reach slack zero; the joint-objective baseline does not."""
    t0 = time.perf_counter()
    budget = 10**6
    fixture = fixture_graph()
    planted = generate_planted_uav(InstanceSpec(KIND_PLANTED, 10, seed=8))
    lines = []

    for name, g in (("fixture", fixture), ("planted10", planted)):
        refs = references(g)[0]
        params = ApproxParams(1, 1)
        res = run_empmo_cons_sp(
            g, params, budget, seed=5,
            metric_fn=make_metric_fn(refs), targets=refs, observer=no_twins,
        )
        assert res.hit_evaluations is not None, name
        assert res.metrics[-1].mean_eps_endpoints == 0.0, name
        lines.append(f"{name} consensus hit at gen {res.generations}")

        relax = ApproxParams(1, 1, 2)
        sp = run_empmo_simple_sp(
            g, relax, budget, seed=5, party2_fronts=exact_party_fronts(g, 1), observer=no_twins
        )
        assert all(not o.failed for o in sp.outcomes.values()), name
        worst = max(o.eps2_prime for o in sp.outcomes.values())
        assert worst <= 2, name
        lines.append(f"{name} two-archive worst relaxed slack {worst}")

    refs = references(fixture)[0]
    demo = run_demo_sp(
        fixture, ApproxParams(1, 1), budget, seed=5,
        metric_fn=make_metric_fn(refs), observer=no_twins,
    )
    assert demo.metrics[-1].max_eps > 0.0
    vecs5 = {e.objectives for e in demo.archives[0] if e.path and e.path[-1] == 5}
    assert ((10, 4), (8, 5)) in vecs5
    assert ((4, 5), (7, 8)) in vecs5
    lines.append(f"fixture joint baseline max slack {demo.metrics[-1].max_eps:.2f} > 0")

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    print(f"epsilon convergence: PASS ({'; '.join(lines)}) ({elapsed:.1f}s)")


def test_seeded_consensus_counterexample_replay():
    """Known two-archive state fails strict consensus, then agrees once relaxed."""
    t0 = time.perf_counter()
    g = fixture_graph()
    archives = ([(1, 3, 5), (1, 3, 4, 5)], [(1, 2, 5)])
    fronts = exact_party_fronts(g, 1)

    strict = run_empmo_simple_sp(
        g, ApproxParams(1, 1), 0, seed=0,
        initial_archives=archives, party2_fronts=fronts,
    )
    assert strict.outcomes[5].failed
    assert strict.hit_evaluations is None

    relaxed = run_empmo_simple_sp(
        g, ApproxParams(1, 1, 2), 0, seed=0,
        initial_archives=archives, party2_fronts=fronts,
    )
    out = relaxed.outcomes[5]
    assert not out.failed
    assert out.eps2_prime == 2
    assert out.boxes == ((1, 1),)
    assert out.accepted
    assert {p.path for p in out.accepted} <= {(1, 3, 5), (1, 3, 4, 5)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"consensus replay: PASS, strict fails then relaxes to box (1, 1) ({elapsed:.2f}s)"
    )


def test_summary_rows_replay_byte_identically():
    """Rerunning any summary row reproduces every column."""
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig("semo", problem="aoaz", n=12, seeds=(0, 1, 2), budget=HIT_BUDGET),
        ExperimentConfig("empmo-simple", problem="bpaoaz", n=12, seeds=(0, 1), budget=HIT_BUDGET),
        ExperimentConfig("empmo-random", problem="bpaoaz", n=12, phi=0.5, seeds=(0, 1), budget=HIT_BUDGET),
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=12, seeds=(0, 1), budget=HIT_BUDGET),
        ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, budget=500, seeds=(0,)),
        ExperimentConfig("demo-sp", instance="fixture", eps1=1, eps2=1, budget=500, seeds=(0,)),
        ExperimentConfig("empmo-simple-sp", instance="fixture", eps1=1, eps2=1, eps2max=2, budget=500, seeds=(0,)),
    ]
    rows = [r.summary for r in run_many(configs)]
    assert len(rows) == 12
    assert len({r["run_id"] for r in rows}) == len(rows)
    for row in rows:
        _, mismatches = replay_row(row)
        assert mismatches == [], (row["run_id"], mismatches)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"replay determinism: PASS, {len(rows)}/{len(rows)} rows reproduced ({elapsed:.1f}s)")


def test_scaling_slopes_reported():
    """Log-log growth fits, reported for inspection; slope values are not gated."""
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=n, seeds=tuple(range(5)), budget=HIT_BUDGET)
        for n in (50, 100, 200, 400)
    ] + [
        ExperimentConfig("empmo-random", problem="bpaoaz", n=n, phi=0.5, seeds=tuple(range(5)), budget=HIT_BUDGET)
        for n in (50, 100, 200)
    ]
    rows = [r.summary for r in run_many(configs)]
    assert all(r["hit_time"] and not r["error"] for r in rows), [r["run_id"] for r in rows if not r["hit_time"]]
    report = summarize(rows)
    assert len(report) == 2
    for label, entry in report.items():
        assert "slope" in entry
        print(
            f"slope report: {label}: slope {entry['slope']:.3f} "
            f"(rmse {entry['rmse']:.3f}, runs per n: "
            f"{ {n: st['runs'] for n, st in entry['per_n'].items()} })"
        )
    elapsed = time.perf_counter() - t0
    print(f"slope report complete ({elapsed:.1f}s)")


def test_same_event_runtimes_reported():
    """SEMO and empmo-simple on each of two events, reported; the ordering is not gated."""
    t0 = time.perf_counter()
    n, seeds = 20, range(100, 140)
    runs = {
        "semo": (run_semo, PseudoBooleanProblem("aoaz", n)),
        "empmo-simple": (run_empmo_simple, PseudoBooleanProblem("bpaoaz", n)),
    }
    cells = []
    for name, (runner, problem) in runs.items():
        for event in (common_optimum, analytic_fronts):
            hits = [runner(problem, s, targets=event(problem), budget=HIT_BUDGET).hit_evaluations for s in seeds]
            assert None not in hits, (name, event.__name__)
            se = statistics.stdev(hits) / len(hits) ** 0.5
            cells.append(f"{name} at {event.__name__} {statistics.fmean(hits):,.0f} ± {se:,.0f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"same-event report: n={n}, seeds 100-139: {'; '.join(cells)} ({elapsed:.2f}s)")
