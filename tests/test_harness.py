"""Experiment configs, batch running, CSV plumbing, sweeps, and replay."""

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
    endpoint_commons,
    make_metric_fn,
    make_target_fn,
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
    write_instance,
)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig("hillclimb")
    with pytest.raises(ValueError, match="needs problem"):
        ExperimentConfig("semo")
    with pytest.raises(ValueError, match="needs phi"):
        ExperimentConfig("empmo-random", problem="bpaoaz", n=8)
    with pytest.raises(ValueError, match="only meaningful"):
        ExperimentConfig("semo", problem="aoaz", n=8, phi=0.5)
    with pytest.raises(ValueError, match="not an instance"):
        ExperimentConfig("semo", problem="aoaz", n=8, instance="fixture")
    with pytest.raises(ValueError, match="needs an instance"):
        ExperimentConfig("empmo-cons-sp", eps1=1, eps2=1)
    with pytest.raises(ValueError, match="not a problem kind"):
        ExperimentConfig("empmo-cons-sp", problem="bpaoaz", instance="fixture", eps1=1, eps2=1)
    with pytest.raises(ValueError, match="needs eps1 and eps2"):
        ExperimentConfig("empmo-cons-sp", instance="fixture")
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig("semo", problem="aoaz", n=8, budget=0)
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
    assert rec.trace["problem"] == "aorz"
    assert rec.metrics == []


def test_run_single_graph_row_fills_n_and_metrics():
    cfg = ExperimentConfig("empmo-cons-sp", instance="fixture", eps1=1, eps2=1, budget=2000)
    rec = run_single(cfg, 0)
    assert rec.summary["n"] == "5"
    assert rec.summary["error"] == ""
    assert rec.summary["hit_time"] != ""
    assert rec.metrics, "expected metric samples from the graph lane"
    assert rec.trace["problem"] == "fixture"
    for m in rec.metrics:
        assert float(m["mean_eps_members"]) >= float(m["mean_eps_endpoints"]) >= 0.0
        assert float(m["max_eps"]) >= float(m["mean_eps_members"])


@pytest.fixture
def fresh_graph_setup():
    harness._graph_setup.cache_clear()
    yield
    harness._graph_setup.cache_clear()


def planted_text(seed):
    return write_instance(generate_planted_uav(InstanceSpec(KIND_PLANTED, 10, seed=seed)))


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
    built, parsed = [], []
    exact, parse = oracles.exact_path_catalog, harness.parse_instance

    def counting_catalog(g, **kwargs):
        built.append(g.n)
        return exact(g, **kwargs)

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(oracles, "exact_path_catalog", counting_catalog)
    monkeypatch.setattr(harness, "parse_instance", counting_parse)
    path = tmp_path / "planted10.bpm"
    path.write_text(planted_text(0))
    configs = [
        ExperimentConfig(algorithm, instance=instance, eps1=1, eps2=1, eps2max=2, seeds=(0, 1, 2), budget=300)
        for instance in ("fixture", str(path))
        for algorithm in ("empmo-cons-sp", "demo-sp", "empmo-simple-sp")
    ]
    result = run_many(configs)
    assert len(result.summary_rows) == 18
    assert all(row["error"] == "" for row in result.summary_rows)
    assert built == [5, 10]
    assert len(parsed) == 1


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
    refs = endpoint_commons(fixture_graph())
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


def test_target_fn_requires_weak_dominance_of_all_common():
    refs = endpoint_commons(fixture_graph())
    target = make_target_fn(refs)
    assert target(5, ((7, 4), (5, 7)))
    assert not target(5, ((10, 4), (8, 5)))
    assert target(2, ((1, 2), (2, 4)))


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
    result = run_many(configs)
    keys = [(r["algorithm"], int(r["n"]), int(r["seed"])) for r in result.summary_rows]
    assert keys == sorted(keys)

    by_cfg = [r for r in result.aggregate_rows if r["algorithm"] == "empmo-payoff" and r["n"] == "8"]
    assert len(by_cfg) == 1
    agg = by_cfg[0]
    evals = [
        int(r["evaluations"])
        for r in result.summary_rows
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
    assert parallel.summary_rows == serial.summary_rows
    assert parallel.metric_rows == serial.metric_rows
    assert parallel.aggregate_rows == serial.aggregate_rows


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
    assert entry["per_n"][8]["runs"] == 1  # the error row is not counted

    flat = summarize([synthetic_row(8, 64), synthetic_row(8, 100)])
    assert "slope" not in next(iter(flat.values()))


def test_write_csv_atomic_and_roundtrip(tmp_path):
    rows = [synthetic_row(4, 16), synthetic_row(8, 64)]
    target = tmp_path / "out" / "summary.csv"
    write_csv(target, SUMMARY_COLUMNS, rows)
    assert read_csv(target) == rows
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_write_result_emits_four_files(tmp_path):
    result = run_many([ExperimentConfig("empmo-payoff", problem="bpaoaz", n=8, seeds=(0, 1))])
    paths = write_result(result, tmp_path)
    assert sorted(paths) == ["aggregates", "metrics", "summary", "traces"]
    for p in paths.values():
        assert p.exists()
    assert read_csv(paths["summary"]) == result.summary_rows


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
    ],
)
def test_sweep_errors(text, fragment):
    with pytest.raises(ValueError) as err:
        parse_sweep_text(text)
    assert fragment in str(err.value)


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
    assert [a for a in table if table[a].phi] == ["empmo-random"]
    assert harness.FAMILY_BUDGETS == {harness.PB: 10**8, harness.GRAPH: 10**6}

    run_parser = cli.build_parser()._subparsers._group_actions[0].choices["run"]
    (alg,) = [a for a in run_parser._actions if a.dest == "alg"]
    assert tuple(alg.choices) == harness.ALGORITHMS

    # swapping the table swaps what config validation and the CLI accept
    monkeypatch.setitem(table, "semo-copy", table["semo"])
    ExperimentConfig("semo-copy", problem="aoaz", n=8)
    with pytest.raises(ValueError, match="needs problem"):
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
        shortestpath._BoxArchive, "step", lambda self, rng, gen: steps.append(gen) or step(self, rng, gen)
    )
    path = tmp_path / "planted13.txt"
    path.write_text(write_instance(generate_planted_uav(InstanceSpec(KIND_PLANTED, 13, seed=0))))
    cfg = ExperimentConfig("empmo-simple-sp", instance=str(path), eps1=1, eps2=1, budget=100_000)
    rec = run_single(cfg, 0)
    assert steps == []
    assert rec.summary["error"] == "ValueError: exhaustive path catalog refused for n > 12"
    assert (rec.summary["n"], rec.summary["evaluations"], rec.summary["generations"]) == ("13", "0", "0")
    assert rec.summary["hit_time"] == "" and rec.metrics == []
