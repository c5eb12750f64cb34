"""Experiment configs, batch running, CSV plumbing, sweeps, and replay."""

import concurrent.futures
import os
import stat
import statistics
from fractions import Fraction

import pytest

from mpmolab import harness, oracles
from mpmolab.harness import (
    AGGREGATE_COLUMNS,
    ExperimentConfig,
    ID_FIELDS,
    SUMMARY_COLUMNS,
    aggregate_rows,
    compute_run_id,
    config_from_row,
    make_metric_fn,
    parse_sweep_text,
    read_csv,
    replay_row,
    run_many,
    run_single,
    summarize,
    write_csv,
    write_result,
)
from mpmolab.instances import (
    InstanceSpec,
    KIND_PLANTED,
    fixture_graph,
    generate_planted_uav,
    parse_instance,
    write_instance,
)
from mpmolab.shortestpath import (
    ApproxParams,
    BoxBase,
    SpEntry,
    WeightedDigraph,
    _BoxArchive,
    run_demo_sp,
    run_empmo_cons_sp,
)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig("hillclimb")
    with pytest.raises(ValueError, match="needs problem"):
        ExperimentConfig("semo")
    with pytest.raises(ValueError, match="needs phi"):
        ExperimentConfig("empmo-random", problem="bpaoaz", n=8)
    with pytest.raises(ValueError, match="semo does not take phi"):
        ExperimentConfig("semo", problem="aoaz", n=8, phi=0.5)
    with pytest.raises(ValueError, match="semo does not take instance"):
        ExperimentConfig("semo", problem="aoaz", n=8, instance="fixture")
    with pytest.raises(ValueError, match="needs an instance"):
        ExperimentConfig("empmo-cons-sp", eps1=1, eps2=1)
    with pytest.raises(ValueError, match="empmo-cons-sp does not take problem"):
        ExperimentConfig("empmo-cons-sp", problem="bpaoaz", instance="fixture", eps1=1, eps2=1)
    with pytest.raises(ValueError, match="needs eps1 and eps2"):
        ExperimentConfig("empmo-cons-sp", instance="fixture")
    with pytest.raises(ValueError, match="empmo-cons-sp does not take n"):
        ExperimentConfig("empmo-cons-sp", instance="fixture", n=5, eps1=1, eps2=1)
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig("semo", problem="aoaz", n=8, budget=0)
    with pytest.raises(ValueError, match="non-empty and distinct"):
        ExperimentConfig("semo", problem="aoaz", n=8, seeds=())
    with pytest.raises(ValueError, match="non-empty and distinct"):
        ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, seeds=(2, 0, 2))
    # random.Random(-2) draws what random.Random(2) does, so -2 would rerun seed 2
    with pytest.raises(ValueError, match=r"seeds must be non-negative, got \[0, -2\]"):
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, seeds=(0, -2))
    # the settings a runner would refuse fail here, before any row runs
    with pytest.raises(ValueError, match="eps_2_max must be at least eps_2"):
        ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, eps2max=Fraction(1, 2))
    with pytest.raises(ValueError, match="approximation slacks must be positive"):
        ExperimentConfig("demo-sp", instance="fixture", eps1=0, eps2=1)
    with pytest.raises(ValueError, match="n must be even and at least 4, got 7"):
        ExperimentConfig("semo", problem="aoaz", n=7)
    with pytest.raises(ValueError, match="n must be even and at least 4, got 0"):
        ExperimentConfig("empmo-payoff", problem="bpaoaz")
    with pytest.raises(ValueError, match=r"needs phi in \[0, 1\], got 1.5"):
        ExperimentConfig("empmo-random", problem="bpaoaz", n=8, phi=1.5)
    with pytest.raises(ValueError, match=r"needs phi in \[0, 1\], got -0.1"):
        ExperimentConfig("empmo-random", problem="bpaoaz", n=8, phi=-0.1)
    assert ExperimentConfig("empmo-random", problem="bpaoaz", n=8, phi=1).phi == 1.0
    # a runner takes only its own problem kinds and settings
    with pytest.raises(ValueError, match=r"semo needs problem in \('aorz', 'aofz', 'aoaz'\)"):
        ExperimentConfig("semo", problem="bpaoaz", n=8)
    for algorithm in ("empmo-simple", "empmo-random", "empmo-payoff"):
        phi = 0.5 if algorithm == "empmo-random" else None
        for problem in ("aorz", "aofz", "aoaz"):
            with pytest.raises(ValueError, match=rf"{algorithm} needs problem in \('bpaoaz',\)"):
                ExperimentConfig(algorithm, problem=problem, n=8, phi=phi)
    for algorithm in ("semo", "empmo-simple", "empmo-random", "empmo-payoff"):
        settings = {"problem": "aoaz" if algorithm == "semo" else "bpaoaz", "n": 8}
        if algorithm == "empmo-random":
            settings["phi"] = 0.5
        for field in ("eps1", "eps2", "eps2max"):
            with pytest.raises(ValueError, match=f"{algorithm} does not take {field}$"):
                ExperimentConfig(algorithm, **settings, **{field: 1})
        with pytest.raises(ValueError, match=f"{algorithm} does not take eps1$"):
            harness.config_from_cells(dict(settings, algorithm=algorithm, eps="1"), (0,))
    for algorithm in ("empmo-cons-sp", "empmo-simple-sp", "demo-sp"):
        with pytest.raises(ValueError, match=f"{algorithm} does not take phi$"):
            ExperimentConfig(algorithm, instance="fixture", eps1=1, eps2=1, phi=0.0)
    cfg = ExperimentConfig("empmo-cons-sp", instance="fixture", eps1="1/2", eps2=1)
    assert cfg.eps1 == Fraction(1, 2)
    assert cfg.seeds == (0,)


def test_run_id_depends_on_every_id_field():
    base = {f: "x" for f in ID_FIELDS}
    rid = compute_run_id(base)
    assert len(rid) == 12
    assert rid == compute_run_id(dict(base))
    for field in ID_FIELDS:
        bumped = dict(base, **{field: "y"})
        assert compute_run_id(bumped) != rid


def test_run_single_semo_row():
    cfg = ExperimentConfig("semo", problem="aorz", n=10, seeds=(3,))
    rec = run_single(cfg, 3)
    row = rec.summary
    assert set(row) == set(SUMMARY_COLUMNS)
    assert row["error"] == ""
    assert row["instance"] == "" and row["problem"] == "aorz"
    assert int(row["evaluations"]) == int(row["generations"]) + 1
    assert row["hit_time"] == row["evaluations"]
    assert rec.trace == {"run_id": row["run_id"], "wall_ms": rec.trace["wall_ms"]}
    assert float(rec.trace["wall_ms"]) >= 0.0
    assert rec.metrics == []


def test_run_single_refuses_a_negative_seed(monkeypatch):
    # random.Random(-2) seeds like random.Random(2), so the row would repeat seed 2's run
    monkeypatch.setattr(harness, "run_empmo_payoff", lambda *a, **k: pytest.fail("the runner ran"))
    cfg = ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, budget=500)
    with pytest.raises(ValueError, match=r"seeds must be non-negative, got \[-2\]"):
        run_single(cfg, -2)


def test_run_single_graph_row_fills_n_and_metrics():
    cfg = ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, budget=2000)
    rec = run_single(cfg, 0)
    assert rec.summary["n"] == "5"
    assert rec.summary["error"] == ""
    assert rec.summary["hit_time"] != ""
    assert rec.metrics, "expected metric samples from the graph lane"
    assert rec.trace == {"run_id": rec.summary["run_id"], "wall_ms": rec.trace["wall_ms"]}
    assert float(rec.trace["wall_ms"]) >= 0.0
    for m in rec.metrics:
        assert float(m["mean_eps_members"]) >= float(m["mean_eps_endpoints"]) >= 0.0
        assert float(m["max_eps"]) >= float(m["mean_eps_members"])


@pytest.fixture
def fresh_graph_setup():
    harness._graph_setup.cache_clear()
    yield
    harness._graph_setup.cache_clear()


def planted_text(seed, n=10):
    return write_instance(generate_planted_uav(InstanceSpec(KIND_PLANTED, n, seed=seed)))


@pytest.mark.parametrize("algorithm", ["empmo-cons-sp", "demo-sp", "empmo-simple-sp"])
def test_run_single_builds_the_path_catalog_once(algorithm, monkeypatch, fresh_graph_setup):
    built = []
    exact = oracles.exact_path_catalog

    def counting(g, **kwargs):
        built.append(g.n)
        return exact(g, **kwargs)

    monkeypatch.setattr(oracles, "exact_path_catalog", counting)
    cfg = ExperimentConfig(algorithm, instance="fixture", eps1=1, eps2=1, eps2max=2, budget=300)
    rec = run_single(cfg, 0)
    assert rec.summary["error"] == ""
    assert built == [5]


def test_run_many_builds_each_graph_setup_once(tmp_path, monkeypatch, fresh_graph_setup):
    built, certified, parsed = [], [], []
    exact, ideal, parse = oracles.exact_path_catalog, oracles.ideal_points, harness.parse_instance

    def counting_catalog(g, **kwargs):
        built.append(g.n)
        return exact(g, **kwargs)

    def counting_ideal(g):
        certified.append(g.n)
        return ideal(g)

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(oracles, "exact_path_catalog", counting_catalog)
    monkeypatch.setattr(oracles, "ideal_points", counting_ideal)
    monkeypatch.setattr(harness, "parse_instance", counting_parse)
    path = tmp_path / "planted10.bpm"
    path.write_text(planted_text(0))
    configs = [
        ExperimentConfig(algorithm, instance=instance, eps1=1, eps2=1, eps2max=2, seeds=(0, 1, 2), budget=300)
        for instance in ("fixture", str(path))
        for algorithm in ("empmo-cons-sp", "demo-sp", "empmo-simple-sp")
    ]
    records = run_many(configs)
    assert len(records) == 18
    assert all(r.summary["error"] == "" for r in records)
    # the planted file's references come from the certificate; only the fixture needs the catalog
    assert built == [5]
    assert certified == [5, 10]
    assert len(parsed) == 1


def test_graph_setup_takes_certified_references(monkeypatch, fresh_graph_setup):
    for n in range(5, 13):
        for seed in range(10):
            g, refs, fronts = harness._graph_setup(planted_text(seed, n))
            cat = oracles.exact_path_catalog(g)
            assert list(refs) == list(fronts) == list(range(2, n + 1))
            assert dict(refs) == {e: tuple(cat.common_objectives(e)) for e in cat.per_endpoint}
            assert dict(fronts) == {e: cat.party_front(e, 1) for e in cat.per_endpoint}

    built = []
    exact = oracles.exact_path_catalog
    monkeypatch.setattr(oracles, "exact_path_catalog", lambda g, **kw: built.append(g.n) or exact(g, **kw))
    # the fixture's endpoint 5 has a trade-off, so its references come from the catalog
    g, refs, fronts = harness._graph_setup(None)
    assert built == [5]
    cat = exact(g)
    assert dict(refs) == {e: tuple(cat.common_objectives(e)) for e in cat.per_endpoint}
    assert dict(fronts) == {e: cat.party_front(e, 1) for e in cat.per_endpoint}
    # above the oracle limit the rows get no references, as before
    _, refs, fronts = harness._graph_setup(planted_text(0, 13))
    assert (dict(refs), fronts, built) == ({}, None, [5])


def test_graph_setup_takes_the_oracle_references(fresh_graph_setup):
    # the harness decides nothing about ground truth: it wraps oracles.references
    for text in (None, planted_text(0), planted_text(0, 13)):
        g, refs, fronts = harness._graph_setup(text)
        assert (refs, fronts) == oracles.references(fixture_graph() if text is None else parse_instance(text))
    assert (g.n, refs, fronts) == (13, {}, None)


def test_graph_setup_is_keyed_by_content(tmp_path, fresh_graph_setup):
    path = tmp_path / "inst.bpm"
    cfg = ExperimentConfig("empmo-cons-sp", instance=str(path), eps1=1, eps2=1, budget=2000)
    path.write_text(planted_text(0))
    row_a = run_single(cfg, 0)
    path.write_text(planted_text(1))
    row_b = run_single(cfg, 0)
    harness._graph_setup.cache_clear()
    fresh_b = run_single(cfg, 0)
    assert (row_b.summary, row_b.metrics) == (fresh_b.summary, fresh_b.metrics)
    assert (row_b.summary, row_b.metrics) != (row_a.summary, row_a.metrics)

    path.write_text("this is not an instance\n")
    first, second = run_single(cfg, 0), run_single(cfg, 0)
    assert first.summary["error"] != ""
    assert first.summary == second.summary


def test_graph_setup_is_read_only(fresh_graph_setup):
    _, refs, fronts = harness._graph_setup(None)
    assert set(refs) == set(fronts) == {2, 3, 4, 5}
    with pytest.raises(TypeError):
        refs[2] = ()
    with pytest.raises(TypeError):
        fronts[2] = ()
    assert all(isinstance(v, tuple) for v in (*refs.values(), *fronts.values()))


def test_run_single_captures_failures_as_error_rows():
    cfg = ExperimentConfig("empmo-cons-sp", instance="/nowhere/missing.bpm", eps1=1, eps2=1)
    rec = run_single(cfg, 0)
    assert "FileNotFoundError" in rec.summary["error"]
    assert rec.summary["evaluations"] == "0"
    assert len(rec.summary["run_id"]) == 12


def test_oracle_sized_lane_boundary(tmp_path):
    g = generate_planted_uav(InstanceSpec(KIND_PLANTED, 13, seed=0))
    path = tmp_path / "n13.bpm"
    path.write_text(write_instance(g))
    # the two-archive algorithm needs exact reference fronts, so it reports an error
    cfg = ExperimentConfig("empmo-simple-sp", instance=str(path), eps1=1, eps2=1, budget=50)
    rec = run_single(cfg, 0)
    assert "ValueError" in rec.summary["error"]
    assert "refused" in rec.summary["error"]
    # the consensus run has no oracle dependency and just runs without metrics
    cfg2 = ExperimentConfig("empmo-cons-sp", instance=str(path), eps1=1, eps2=1, budget=50)
    rec2 = run_single(cfg2, 0)
    assert rec2.summary["error"] == ""
    assert rec2.summary["hit_time"] == ""
    assert rec2.metrics == []


def test_metric_fn_on_known_archive():
    refs = oracles.references(fixture_graph())[0]
    metric = make_metric_fn(refs)
    view = [
        (5, ((10, 4), (8, 5))),
        (5, ((7, 4), (5, 7))),
        (2, ((1, 2), (2, 4))),
    ]
    mx, mean_members, mean_endpoints = metric(view)
    assert mx == pytest.approx(0.6)
    assert mean_members == pytest.approx(0.2)
    assert mean_endpoints == 0.0
    assert metric([]) == (0.0, 0.0, 0.0)


def test_metric_fn_scores_each_member_once(monkeypatch):
    g = fixture_graph()
    refs = oracles.references(g)[0]
    views = []
    run_empmo_cons_sp(
        g, ApproxParams(Fraction(1, 2), Fraction(1, 2)), 600, 3,
        observer=lambda gen, pools: views.append([(r.endpoint, r.objectives) for r in pools[0][1:]]),
    )
    calls = []
    score = oracles.epsilon_of_solution
    monkeypatch.setattr(oracles, "epsilon_of_solution", lambda obj, common: calls.append(obj) or score(obj, common))
    for refs_fed in (refs, {e: c for e, c in refs.items() if e != 5}):
        calls.clear()
        metric = make_metric_fn(refs_fed)
        got = [metric(view) for view in views]
        distinct = {key for view in views for key in view if key[0] in refs_fed}
        assert len(calls) == len(distinct) < sum(map(len, views))
        assert got == [make_metric_fn(refs_fed)(view) for view in views]


def test_archive_covers_an_endpoint_by_weak_dominance_of_all_common():
    g = fixture_graph()
    refs = oracles.references(g)[0]
    r = BoxBase.power(2, g.n - 1)

    def uncovered(targets, endpoint, *objs):
        """The archive's uncovered endpoints once ``endpoint`` holds members with these objectives."""
        arch = _BoxArchive(g, ((0, 2), (2, 4)), (r, r), targets)
        for obj in objs:
            flat = obj[0] + obj[1]
            arch._enroll(SpEntry((1, endpoint), endpoint, flat, *arch._views(flat), 0))
        arch._changed(endpoint)
        return arch.uncovered

    def covered(targets, endpoint, *objs):
        return endpoint not in uncovered(targets, endpoint, *objs)

    assert covered(refs, 5, ((7, 4), (5, 7)))
    assert not covered(refs, 5, ((10, 4), (8, 5)))
    assert covered(refs, 2, ((1, 2), (2, 4)))
    # with two references at endpoint 5 a member covers each one it weakly dominates, in both parties
    two = {**refs, 5: refs[5] + (((6, 5), (6, 6)),)}
    assert covered(two, 5, ((6, 4), (5, 6)))
    assert not covered(two, 5, ((7, 4), (5, 7)))
    assert not covered(two, 5, ((6, 4), (5, 8)))
    assert not covered(two, 5, ((8, 4), (5, 6)))
    # two members that each cover one of the two references cover the endpoint together
    assert not covered(two, 5, ((6, 5), (6, 6)))
    assert covered(two, 5, ((7, 4), (5, 7)), ((6, 5), (6, 6)))
    # a member at an endpoint without references covers none
    assert uncovered({2: refs[2]}, 3, ((3, 2), (3, 5))) == {2}


def two_reference_graph():
    """Endpoint 4 has two common vectors, ((2, 4), (2, 4)) and ((4, 2), (4, 2))."""
    return WeightedDigraph(
        4,
        {
            (1, 2): ((1, 3), (1, 3)),
            (1, 3): ((3, 1), (3, 1)),
            (2, 4): ((1, 1), (1, 1)),
            (3, 4): ((1, 1), (1, 1)),
        },
    )


def test_two_references_at_an_endpoint_are_covered_as_a_set():
    g = two_reference_graph()
    refs = oracles.references(g)[0]
    assert len(refs[4]) == 2
    for run in (run_empmo_cons_sp, run_demo_sp):
        res = run(g, ApproxParams(1, 1), 20000, 0, targets=refs, metric_fn=make_metric_fn(refs))
        assert res.hit_evaluations == 11
        last = res.metrics[-1]
        assert (last.max_eps, last.mean_eps_members, last.mean_eps_endpoints) == (0.0, 0.0, 0.0)
        assert {r.objectives for r in res.archives[0] if r.endpoint == 4} == set(refs[4])


def test_metric_fn_reads_set_degrees():
    refs = oracles.references(two_reference_graph())[0]
    metric = make_metric_fn(refs)
    low, high = refs[4]
    # each member matches one reference exactly; alone, it leaves the other at ratio 2
    assert metric([(4, low)]) == (0.0, 0.0, 1.0)
    assert metric([(4, high)]) == (0.0, 0.0, 1.0)
    assert metric([(4, low), (4, high)]) == (0.0, 0.0, 0.0)
    # a member's degree is its least over the references: (3, 3) is 1/2 off either
    middle = ((3, 3), (3, 3))
    assert metric([(4, middle)]) == (0.5, 0.5, 0.5)
    assert metric([(4, middle), (4, low)]) == (0.5, 0.25, 0.5)


def test_replay_row_reproduces_and_detects_tampering():
    cfg = ExperimentConfig("empmo-payoff", problem="bpaoaz", n=12, seeds=(7,))
    row = run_single(cfg, 7).summary
    fresh, mismatches = replay_row(row)
    assert mismatches == []
    assert fresh == row

    doctored = dict(row, evaluations=str(int(row["evaluations"]) + 1))
    _, mismatches = replay_row(doctored)
    assert mismatches == ["evaluations"]


def test_run_many_orders_rows_and_aggregates():
    configs = [
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=16, seeds=(0, 1, 2)),
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, seeds=(0, 1, 2)),
        ExperimentConfig("empmo-simple", problem="bpaoaz", n=8, seeds=(0,)),
    ]
    summary = [r.summary for r in run_many(configs)]
    keys = [(r["algorithm"], int(r["n"]), int(r["seed"])) for r in summary]
    assert keys == sorted(keys)

    by_cfg = [r for r in aggregate_rows(summary) if r["algorithm"] == "empmo-payoff" and r["n"] == "8"]
    assert len(by_cfg) == 1
    agg = by_cfg[0]
    evals = [
        int(r["evaluations"])
        for r in summary
        if r["algorithm"] == "empmo-payoff" and r["n"] == "8"
    ]
    assert agg["runs"] == "3" and agg["errors"] == "0" and agg["hits"] == "3"
    assert float(agg["mean_evaluations"]) == pytest.approx(statistics.fmean(evals))
    assert float(agg["std_evaluations"]) == pytest.approx(statistics.pstdev(evals))
    assert set(agg) == set(AGGREGATE_COLUMNS)


def test_parallel_jobs_match_serial_rows():
    configs = [
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=10, seeds=(0, 1, 2, 3)),
        ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, budget=400, seeds=(0, 1)),
    ]
    serial = run_many(configs, jobs=1)
    parallel = run_many(configs, jobs=2)
    summaries = [[r.summary for r in records] for records in (serial, parallel)]
    assert summaries[1] == summaries[0]
    assert [r.metrics for r in parallel] == [r.metrics for r in serial]
    assert aggregate_rows(summaries[1]) == aggregate_rows(summaries[0])


def test_run_many_starts_no_more_workers_than_pairs(monkeypatch):
    started = []

    class InlinePool:
        # records the pool size and runs the pairs in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    two = [ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, budget=200, seeds=(0, 1))]
    serial = [r.summary for r in run_many(two)]
    assert [r.summary for r in run_many(two, jobs=64)] == serial
    assert [r.summary for r in run_many(two, jobs=2)] == serial
    one = [ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, budget=200)]
    run_many(one, jobs=8)
    assert started == [2, 2]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_many(two, jobs=jobs)
    assert started == [2, 2]


def synthetic_row(n, evaluations, error=""):
    return {
        "run_id": "x", "algorithm": "semo", "problem": "aoaz", "instance": "",
        "n": str(n), "phi": "", "eps1": "", "eps2": "", "eps2max": "",
        "seed": "0", "budget": "100", "evaluations": str(evaluations),
        "generations": "0", "hit_time": "", "error": error,
    }


def test_summarize_recovers_power_law():
    rows = [synthetic_row(n, n * n) for n in (4, 8, 16, 32)]
    rows.append(synthetic_row(8, 10**9, error="RuntimeError: boom"))
    report = summarize(rows)
    assert len(report) == 1
    entry = next(iter(report.values()))
    assert entry["slope"] == pytest.approx(2.0, abs=1e-12)
    assert entry["rmse"] == pytest.approx(0.0, abs=1e-9)
    # the error row is counted apart, and in no mean
    assert (entry["per_n"][8]["runs"], entry["per_n"][8]["errors"]) == ("2", "1")
    assert entry["per_n"][8]["mean_evaluations"] == "64.0"

    flat = summarize([synthetic_row(8, 64), synthetic_row(8, 100)])
    assert "slope" not in next(iter(flat.values()))


def test_write_csv_atomic_and_roundtrip(tmp_path):
    rows = [synthetic_row(4, 16), synthetic_row(8, 64)]
    target = tmp_path / "out" / "summary.csv"
    write_csv(target, SUMMARY_COLUMNS, rows)
    assert read_csv(target) == rows
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    # the written file gets the mode a plain open() would give it
    saved = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            write_csv(target, SUMMARY_COLUMNS, rows)
            assert stat.S_IMODE(target.stat().st_mode) == mode
    finally:
        os.umask(saved)


def test_write_result_emits_four_files(tmp_path):
    records = run_many([
        ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, seeds=(0, 1)),
        ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, budget=250, seeds=(0, 1)),
    ])
    paths = write_result(records, tmp_path / "out")
    assert sorted(paths) == ["aggregates", "metrics", "summary", "traces"]
    for name, p in paths.items():
        assert p == tmp_path / "out" / f"{name}.csv"
    # each file is its projection of the records, in record order
    summary = [r.summary for r in records]
    assert read_csv(paths["summary"]) == summary
    metrics = read_csv(paths["metrics"])
    assert metrics == [m for r in records for m in r.metrics]
    graph_ids = {r["run_id"] for r in summary if r["algorithm"] == "empmo-cons-sp"}
    assert len(graph_ids) == 2 and {m["run_id"] for m in metrics} == graph_ids
    assert read_csv(paths["traces"]) == [r.trace for r in records]
    assert [t["run_id"] for t in read_csv(paths["traces"])] == [r["run_id"] for r in summary]
    assert read_csv(paths["aggregates"]) == aggregate_rows(summary)
    assert len(read_csv(paths["aggregates"])) == 2


def test_rows_sort_numerically_on_every_config_column(tmp_path):
    configs = parse_sweep_text("algorithm=demo-sp\ninstance=fixture\neps=10,2,1/2,1\nseeds=0:2\nbudget=50\n")
    paths = write_result(run_many(configs), tmp_path)
    order = ["1/2", "1", "2", "10"]
    summary = read_csv(paths["summary"])
    assert [(r["eps1"], r["seed"]) for r in summary] == [(e, s) for e in order for s in ("0", "1")]
    assert [r["eps1"] for r in read_csv(paths["aggregates"])] == order


def test_sweep_product_and_seed_forms():
    text = """
# scaling sweep
algorithm = empmo-random
problem = bpaoaz
n = 8, 16
phi = 0.25, 0.75
seeds = 0:3
budget = 500
"""
    configs = parse_sweep_text(text)
    assert len(configs) == 4
    assert {(c.n, c.phi) for c in configs} == {(8, 0.25), (8, 0.75), (16, 0.25), (16, 0.75)}
    for c in configs:
        assert c.seeds == (0, 1, 2)
        assert c.budget == 500

    listed = parse_sweep_text("algorithm=semo\nproblem=aoaz\nn=8\nseeds=3,5,9\n")
    assert listed[0].seeds == (3, 5, 9)


def test_budget_default_comes_from_the_family():
    (graph,) = parse_sweep_text("algorithm=empmo-cons-sp\ninstance=fixture\neps=1")
    assert graph.budget == 10**6
    (bits,) = parse_sweep_text("algorithm=semo\nproblem=aoaz\nn=8")
    assert bits.budget == 10**8
    assert ExperimentConfig("demo-sp", instance="fixture", eps1=1, eps2=1).budget == 10**6


def test_sweep_eps_shorthand_and_instance_resolution(tmp_path):
    text = "algorithm=empmo-cons-sp\ninstance=graphs/g.bpm\neps=1\nbudget=100\n"
    (cfg,) = parse_sweep_text(text, base_dir=tmp_path)
    assert cfg.eps1 == cfg.eps2 == Fraction(1)
    assert cfg.instance == str(tmp_path / "graphs" / "g.bpm")

    (fix,) = parse_sweep_text(
        "algorithm=empmo-cons-sp\ninstance=fixture\neps=1\nbudget=100\n", base_dir=tmp_path
    )
    assert fix.instance == "fixture"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("problem=bpaoaz\n", "needs an algorithm"),
        ("algorithm=semo\nproblem=aoaz\nn=8\nwhat is this\n", "line 4: expected key=value"),
        ("algorithm=semo\nmystery=1\n", "unknown key 'mystery'"),
        ("algorithm=semo\nn=8\nn=16\n", "line 3: duplicate key 'n'"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\neps1=2\n", "not both"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\ncadence=10\n", "unknown key 'cadence'"),
        ("algorithm=semo\nproblem=aoaz\nn=8\nseeds=5:3\n", "non-empty and distinct"),
        ("algorithm=semo\nproblem=aoaz\nn=8\nseeds=3:3\n", "non-empty and distinct"),
        ("algorithm=semo\nproblem=aoaz\nn=8\nseeds=1,1\n", "non-empty and distinct"),
        ("algorithm=empmo-payoff\nproblem=bpaoaz\nn=8\nseeds=-2,2\n", "seeds must be non-negative, got [-2, 2]"),
        ("algorithm=empmo-payoff\nproblem=bpaoaz\nn=8\nseeds=-1:1\n", "seeds must be non-negative, got [-1, 0]"),
        ("algorithm=semo\nproblem=aoaz\nn=8,8\n", "key 'n' repeats a value"),
        ("algorithm=semo\nproblem=aoaz\nn=8, 16,8\n", "key 'n' repeats a value"),
        ("algorithm=semo\nproblem=aoaz\nn=8\nbudget=100,100\n", "key 'budget' repeats a value"),
        ("algorithm=semo\nproblem=aoaz\nn=8,08\n", "key 'n' repeats a value"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1,1.0\n", "key 'eps' repeats a value"),
        ("algorithm=empmo-random\nproblem=bpaoaz\nn=8\nphi=0.5,0.50\n", "key 'phi' repeats a value"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps1=1/2,0.5\neps2=1\n", "key 'eps1' repeats a value"),
        ("algorithm=semo\nproblem=aoaz\nn=\n", "key 'n' has an empty value"),
        ("algorithm=semo,\nproblem=aoaz\nn=8\n", "key 'algorithm' has an empty value"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\nn=5,6\nbudget=50\n", "empmo-cons-sp does not take n"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\neps2max=1/2\nseeds=0:3\n", "eps_2_max must be at least eps_2"),
        ("algorithm=demo-sp\ninstance=fixture\neps1=1,0\neps2=1\n", "approximation slacks must be positive"),
        ("algorithm=semo\nproblem=aoaz\nn=8,7\n", "n must be even and at least 4, got 7"),
        ("algorithm=empmo-random\nproblem=bpaoaz\nn=8\nphi=0.5,1.5\n", "needs phi in [0, 1], got 1.5"),
        ("algorithm=semo\nproblem=bpaoaz\nn=8\nseeds=0:2\n", "semo needs problem in ('aorz', 'aofz', 'aoaz')"),
        ("algorithm=empmo-payoff\nproblem=aoaz\nn=8\n", "empmo-payoff needs problem in ('bpaoaz',)"),
        ("algorithm=semo,empmo-simple\nproblem=aoaz,bpaoaz\nn=8\n", "needs problem in"),
        ("algorithm=semo\nproblem=aoaz\nn=8\neps=1,2\n", "semo does not take eps1"),
        ("algorithm=semo\nproblem=aoaz\nn=8\neps1=1\n", "semo does not take eps1"),
        ("algorithm=empmo-simple\nproblem=bpaoaz\nn=8\neps2=1\n", "empmo-simple does not take eps2"),
        ("algorithm=empmo-random\nproblem=bpaoaz\nn=8\nphi=0.5\neps2max=2\n", "empmo-random does not take eps2max"),
        ("algorithm=empmo-payoff\nproblem=bpaoaz\nn=8\neps=1\n", "empmo-payoff does not take eps1"),
        ("algorithm=demo-sp\ninstance=fixture\neps=1\nphi=0\n", "demo-sp does not take phi"),
    ],
)
def test_sweep_errors(text, fragment):
    with pytest.raises(ValueError) as err:
        parse_sweep_text(text)
    assert fragment in str(err.value)


def test_graph_sweep_metric_rows_replay_from_their_summary_rows(tmp_path, fresh_graph_setup):
    # rows sample at one fixed cadence, so a summary row alone rebuilds its metric rows
    path = tmp_path / "planted10.bpm"
    path.write_text(planted_text(2))
    configs = []
    for instance in ("fixture", path.name):
        text = (
            "algorithm=empmo-cons-sp,demo-sp,empmo-simple-sp\n"
            f"instance={instance}\neps=1\neps2max=2\nseeds=0:2\nbudget=450\n"
        )
        configs += parse_sweep_text(text, base_dir=tmp_path)
    records = run_many(configs)
    assert len(records) == 12
    by_run: dict = {}
    for r in records:
        for m in r.metrics:
            by_run.setdefault(m["run_id"], []).append(m)
    harness._graph_setup.cache_clear()
    for row in (r.summary for r in records):
        assert row["error"] == ""
        recorded = by_run.get(row["run_id"], [])
        assert recorded, row["run_id"]
        gens = [int(m["generation"]) for m in recorded]
        assert gens[:-1] == list(range(100, 100 * len(gens), 100))
        assert gens[-1] == int(row["generations"])
        fresh = run_single(*config_from_row(row))
        assert fresh.summary == row
        assert fresh.metrics == recorded


def test_aggregate_rows_report_errors_separately():
    good = run_single(ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8), 0).summary
    bad = run_single(
        ExperimentConfig("empmo-cons-sp", instance="/nowhere.bpm", eps1=1, eps2=1), 0
    ).summary
    aggs = aggregate_rows([good, bad])
    assert len(aggs) == 2
    error_agg = next(a for a in aggs if a["algorithm"] == "empmo-cons-sp")
    assert error_agg["errors"] == "1"
    assert error_agg["mean_evaluations"] == ""


RUNNER_ATTRS = {
    "semo": "run_semo",
    "empmo-simple": "run_empmo_simple",
    "empmo-random": "run_empmo_random",
    "empmo-payoff": "run_empmo_payoff",
    "empmo-cons-sp": "run_empmo_cons_sp",
    "empmo-simple-sp": "run_empmo_simple_sp",
    "demo-sp": "run_demo_sp",
}


def small_config(algorithm):
    if not algorithm.endswith("-sp"):
        problem = "aoaz" if algorithm == "semo" else "bpaoaz"
        phi = 0.5 if algorithm == "empmo-random" else None
        return ExperimentConfig(algorithm, problem=problem, n=8, phi=phi, budget=300)
    return ExperimentConfig(algorithm, instance="fixture", eps1=1, eps2=1, eps2max=2, budget=300)


@pytest.mark.parametrize("algorithm", sorted(RUNNER_ATTRS))
def test_run_single_calls_the_runner_through_the_module(algorithm, monkeypatch):
    # The benchmark tracer replaces harness.run_* by name, so rows must look
    # the runners up when they run.
    cfg = small_config(algorithm)
    want = run_single(cfg, 3)
    calls = []
    for name, attr in RUNNER_ATTRS.items():
        runner = getattr(harness, attr)
        monkeypatch.setattr(
            harness, attr, lambda *a, _name=name, _runner=runner, **k: calls.append(_name) or _runner(*a, **k)
        )
    got = run_single(cfg, 3)
    assert calls == [algorithm]
    assert got.summary == want.summary and got.metrics == want.metrics
    assert got.summary["error"] == ""


def test_algorithm_lists_cli_choices_and_budgets_come_from_the_table(monkeypatch, tmp_path):
    from mpmolab import cli

    table = harness.RUNNERS
    assert harness.ALGORITHMS == tuple(table) == tuple(RUNNER_ATTRS)
    assert harness.PSEUDOBOOLEAN_ALGORITHMS == ("semo", "empmo-simple", "empmo-random", "empmo-payoff")
    assert harness.GRAPH_ALGORITHMS == ("empmo-cons-sp", "empmo-simple-sp", "demo-sp")
    assert [a for a in table if "phi" in table[a].takes] == ["empmo-random"]
    assert harness.FAMILY_BUDGETS == {harness.PB: 10**8, harness.GRAPH: 10**6}

    run_parser = cli.build_parser()._subparsers._group_actions[0].choices["run"]
    (alg,) = [a for a in run_parser._actions if a.dest == "alg"]
    assert tuple(alg.choices) == harness.ALGORITHMS

    # swapping the table swaps what config validation and the CLI accept
    monkeypatch.setitem(table, "semo-copy", table["semo"])
    ExperimentConfig("semo-copy", problem="aoaz", n=8)
    with pytest.raises(ValueError, match="semo-copy does not take instance"):
        ExperimentConfig("semo-copy", instance="fixture")

    budgets = {}

    def record(config, seed):
        budgets[config.algorithm] = config.budget
        raise RuntimeError("recorded")

    monkeypatch.setattr(harness, "run_single", record)
    for name in RUNNER_ATTRS:
        cfg = small_config(name)
        argv = ["run", "--alg", name, "--out", str(tmp_path)]
        if cfg.problem:
            argv += ["--problem", cfg.problem, "--n", "8"]
        else:
            argv += ["--instance", "fixture", "--eps", "1"]
        if cfg.phi is not None:
            argv += ["--phi", "0.5"]
        assert cli.main(argv) == cli.EXIT_RUNTIME
    assert budgets == {name: harness.FAMILY_BUDGETS[table[name].family] for name in RUNNER_ATTRS}


def test_simple_sp_row_above_the_oracle_limit_fails_before_searching(tmp_path, monkeypatch, fresh_graph_setup):
    from mpmolab import shortestpath

    steps = []
    step = shortestpath._BoxArchive.step
    monkeypatch.setattr(
        shortestpath._BoxArchive, "step", lambda self, *args: steps.append(args[-1]) or step(self, *args)
    )
    path = tmp_path / "planted13.txt"
    path.write_text(write_instance(generate_planted_uav(InstanceSpec(KIND_PLANTED, 13, seed=0))))
    cfg = ExperimentConfig("empmo-simple-sp", instance=str(path), eps1=1, eps2=1, budget=100_000)
    rec = run_single(cfg, 0)
    assert steps == []
    assert rec.summary["error"] == "ValueError: exhaustive path catalog refused for n > 12"
    assert (rec.summary["n"], rec.summary["evaluations"], rec.summary["generations"]) == ("13", "0", "0")
    assert rec.summary["hit_time"] == "" and rec.metrics == []
