"""End-to-end checks of the command line front end."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpmolab import cli
from mpmolab.harness import SUMMARY_COLUMNS, compute_run_id, read_csv, write_csv


def run_cli(args):
    return cli.main(args)


def stdout_rows(capsys):
    captured = capsys.readouterr()
    return list(csv.DictReader(io.StringIO(captured.out))), captured.err


def test_usage_errors_exit_1(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["run"]) == 1  # --alg is required
    assert run_cli(["run", "--alg", "nope"]) == 1
    assert run_cli(["run", "--alg", "semo", "--cadence", "10"]) == 1  # rows sample at one fixed cadence


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with more than one worker imports the pool, and multiprocessing with it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, mpmolab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_one_parser_serves_every_call_as_a_fresh_process_would(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    commands = [
        ["run", "--alg", "semo", "--problem", "aoaz", "--n", "6", "--seed", "1", "--out", "run"],
        ["run", "--alg", "semo", "--bogus"],
        ["sweep", "mini.cfg", "--out", "sweep"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for d in (here, fresh):
        d.mkdir()
        (d / "mini.cfg").write_text("algorithm = empmo-payoff\nproblem = bpaoaz\nn = 8\nseeds = 0:2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    monkeypatch.chdir(here)
    codes = []
    for argv in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        cmd = [sys.executable, "-m", "mpmolab.cli", *argv]
        done = subprocess.run(cmd, cwd=fresh, env=env, capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr), argv
        codes.append(code)
    assert codes == [0, 1, 0]
    # the files both wrote, but for the sweep's wall times
    written = [p.relative_to(here) for p in sorted(here.rglob("*.csv")) if p.name != "traces.csv"]
    assert len(written) == 4
    for rel in written:
        assert (here / rel).read_text() == (fresh / rel).read_text(), rel


def test_oracle_problem_report(capsys):
    assert run_cli(["oracle", "--problem", "bpaoaz", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("problem bpaoaz n=8")
    assert "11111111" in out


def test_oracle_problem_report_past_enumeration_size(capsys):
    # the report reads the closed form, so sizes beyond a 2^n enumeration answer too
    assert run_cli(["oracle", "--problem", "bpaoaz", "--n", "18"]) == 0
    out = capsys.readouterr().out
    assert "party 2: front size 10, solutions 512" in out
    assert "common solutions (1):" in out and "1" * 18 in out


def test_oracle_fixture_report(capsys):
    assert run_cli(["oracle", "--instance", "fixture"]) == 0
    out = capsys.readouterr().out
    assert "graph catalog n=5" in out
    assert "1-3-4-5" in out


def test_oracle_flag_validation(capsys):
    assert run_cli(["oracle", "--problem", "bpaoaz", "--n", "8", "--instance", "fixture"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert run_cli(["oracle"]) == 2
    assert run_cli(["oracle", "--problem", "bpaoaz"]) == 2
    assert "--problem needs --n" in capsys.readouterr().err
    # an instance sets its own size, so --n would be dropped
    assert run_cli(["oracle", "--instance", "fixture", "--n", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "does not take --n" in err


def test_run_writes_summary_and_prints_row(tmp_path, capsys):
    code = run_cli(
        ["run", "--alg", "empmo-payoff", "--problem", "bpaoaz", "--n", "10",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    rows, err = stdout_rows(capsys)
    assert len(rows) == 1
    row = rows[0]
    assert row["algorithm"] == "empmo-payoff"
    assert row["error"] == ""
    saved = read_csv(tmp_path / f"{row['run_id']}_summary.csv")
    assert saved == [row]


def test_run_graph_lane_writes_metrics(tmp_path, capsys):
    code = run_cli(
        ["run", "--alg", "empmo-cons-sp", "--instance", "fixture",
         "--eps", "1", "--budget", "500", "--out", str(tmp_path)]
    )
    assert code == 0
    rows, err = stdout_rows(capsys)
    run_id = rows[0]["run_id"]
    assert "metrics:" in err
    metrics = read_csv(tmp_path / f"{run_id}_metrics.csv")
    assert metrics
    assert all(m["run_id"] == run_id for m in metrics)


def test_run_rejects_mixed_eps_flags(tmp_path, capsys):
    code = run_cli(
        ["run", "--alg", "empmo-cons-sp", "--instance", "fixture",
         "--eps", "1", "--eps1", "2", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_run_graph_rejects_n(tmp_path, capsys):
    # a graph row's n is its instance's vertex count, not a setting
    code = run_cli(
        ["run", "--alg", "empmo-cons-sp", "--instance", "fixture",
         "--eps", "1", "--n", "7", "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert "empmo-cons-sp does not take n" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_reports_runtime_failures(tmp_path, capsys):
    code = run_cli(
        ["run", "--alg", "empmo-cons-sp", "--instance", str(tmp_path / "missing.bpm"),
         "--eps", "1", "--out", str(tmp_path)]
    )
    assert code == 3
    assert "FileNotFoundError" in capsys.readouterr().err


def test_out_env_var_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    code = run_cli(["run", "--alg", "empmo-payoff", "--problem", "bpaoaz", "--n", "8"])
    assert code == 0
    rows, _ = stdout_rows(capsys)
    assert (tmp_path / f"{rows[0]['run_id']}_summary.csv").exists()


def test_gen_validate_oracle_loop(tmp_path, capsys):
    target = tmp_path / "planted9.bpm"
    assert run_cli(["gen", "--n", "9", "--seed", "1", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {target}" in out
    text = target.read_text()
    assert text.startswith("bpmosp v1\n")
    assert "# spec: kind=planted-uav n=9 seed=1" in text

    assert run_cli(["validate", str(target)]) == 0
    assert "OK" in capsys.readouterr().out

    assert run_cli(["oracle", "--instance", str(target)]) == 0
    assert "graph catalog n=9" in capsys.readouterr().out


def test_validate_flags_broken_files(tmp_path, capsys):
    good = tmp_path / "good.bpm"
    run_cli(["gen", "--n", "6", "--seed", "0", "--out", str(good)])
    capsys.readouterr()
    bad = tmp_path / "bad.bpm"
    bad.write_text("bpmosp v1\n2 2 1 1\n1 1 1 | 1\n")
    assert run_cli(["validate", str(good), str(bad)]) == 2
    out = capsys.readouterr().out
    assert f"OK {good}" in out
    assert f"FAIL {bad}" in out
    assert "self loop" in out


def test_validate_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    good = tmp_path / "good.bpm"
    run_cli(["gen", "--n", "6", "--seed", "0", "--out", str(good)])
    capsys.readouterr()
    missing = tmp_path / "missing.bpm"
    other = tmp_path / "other.bpm"
    other.write_text("bpmosp v1\n2 2 1 1\n1 2 1 | 1\n")
    assert run_cli(["validate", str(good), str(missing), str(other), str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert f"OK {good}" in out
    assert f"FAIL {missing}: " in out
    assert f"OK {other}: n=2, edges=1" in out
    assert f"FAIL {tmp_path}: " in out


@pytest.fixture()
def sweep_dir(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "algorithm = empmo-payoff\n"
        "problem = bpaoaz\n"
        "n = 8, 12\n"
        "seeds = 0:2\n"
    )
    out = tmp_path / "results"
    code = cli.main(["sweep", str(cfg), "--out", str(out)])
    assert code == 0
    return out, capsys.readouterr().out


def test_sweep_writes_result_files(sweep_dir):
    sweep_dir, out = sweep_dir
    assert "4 runs (0 errors)" in out
    for name in ("summary", "metrics", "traces", "aggregates"):
        assert (sweep_dir / f"{name}.csv").exists()
    rows = read_csv(sweep_dir / "summary.csv")
    assert len(rows) == 4
    assert [int(r["n"]) for r in rows] == sorted(int(r["n"]) for r in rows)


def test_replay_matches_sweep_rows(sweep_dir, capsys):
    sweep_dir, _ = sweep_dir
    code = run_cli(["replay", "--summary", str(sweep_dir / "summary.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "4/4 rows reproduced" in out
    assert "MISMATCH" not in out


def test_replay_detects_tampering(sweep_dir, capsys):
    sweep_dir, _ = sweep_dir
    rows = read_csv(sweep_dir / "summary.csv")
    rows[0]["hit_time"] = str(int(rows[0]["hit_time"]) + 5)
    with open(sweep_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    code = run_cli(["replay", "--summary", str(sweep_dir / "summary.csv")])
    out = capsys.readouterr().out
    assert code == 3
    assert "MISMATCH" in out
    assert "3/4 rows reproduced" in out


def test_replay_run_id_selection(sweep_dir, capsys):
    sweep_dir, _ = sweep_dir
    rows = read_csv(sweep_dir / "summary.csv")
    chosen = rows[2]["run_id"]
    code = run_cli(["replay", "--summary", str(sweep_dir / "summary.csv"), "--run-id", chosen])
    out = capsys.readouterr().out
    assert code == 0
    assert f"MATCH {chosen}" in out
    assert "1/1 rows reproduced" in out

    code = run_cli(["replay", "--summary", str(sweep_dir / "summary.csv"), "--run-id", "feedc0ffee99"])
    assert code == 2
    assert "run ids not in" in capsys.readouterr().err


def test_replay_sampling(sweep_dir, capsys):
    sweep_dir, _ = sweep_dir
    code = run_cli(
        ["replay", "--summary", str(sweep_dir / "summary.csv"), "--sample", "2", "--sample-seed", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 rows reproduced" in out


def test_replay_missing_file_is_runtime_error(tmp_path, capsys):
    code = run_cli(["replay", "--summary", str(tmp_path / "absent.csv")])
    assert code == 3
    assert "FileNotFoundError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines", ["n = 8\nseeds = 3:3", "n = 8\nseeds = 5:3", "n = 8\nseeds = 1,1", "n = 8, 8", "n = 8, 08"]
)
def test_sweep_with_empty_seeds_or_repeated_values_exits_2(tmp_path, capsys, lines):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"algorithm = empmo-payoff\nproblem = bpaoaz\n{lines}\n")
    out = tmp_path / "results"
    assert run_cli(["sweep", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "runs" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\neps2max=1/2\nseeds=0:3\n", "eps_2_max must be at least eps_2"),
        ("algorithm=semo\nproblem=aoaz\nn=7\nseeds=0:3\n", "n must be even"),
        ("algorithm=empmo-random\nproblem=bpaoaz\nn=8\nphi=1.5\nseeds=0:3\n", "phi in [0, 1]"),
        ("algorithm=semo\nproblem=bpaoaz\nn=8\nseeds=0:2\nbudget=500\n", "semo needs problem in"),
        ("algorithm=empmo-payoff\nproblem=aoaz\nn=8\nseeds=0:2\nbudget=500\n", "empmo-payoff needs problem in"),
        ("algorithm=semo\nproblem=aoaz\nn=8\neps=1,2\nbudget=500\n", "semo does not take eps1"),
        ("algorithm=empmo-simple\nproblem=bpaoaz\nn=8\neps2max=2\nbudget=500\n", "empmo-simple does not take eps2max"),
        ("algorithm=empmo-cons-sp\ninstance=fixture\neps=1\nphi=0.5\nbudget=50\n", "empmo-cons-sp does not take phi"),
    ],
)
def test_sweep_with_invalid_settings_exits_2_before_running(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "results"
    assert run_cli(["sweep", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err and "runs" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--alg", "semo", "--problem", "bpaoaz", "--n", "8"], "semo needs problem in"),
        (["--alg", "empmo-random", "--problem", "aoaz", "--n", "8", "--phi", "0.5"], "empmo-random needs problem in"),
        (["--alg", "semo", "--problem", "aoaz", "--n", "8", "--eps", "1"], "semo does not take eps1"),
        (["--alg", "empmo-payoff", "--problem", "bpaoaz", "--n", "8", "--eps2", "1"], "empmo-payoff does not take eps2"),
        (["--alg", "empmo-simple", "--problem", "bpaoaz", "--n", "8", "--eps2-max", "2"], "does not take eps2max"),
        (["--alg", "demo-sp", "--instance", "fixture", "--eps", "1", "--phi", "0"], "demo-sp does not take phi"),
    ],
)
def test_run_with_settings_the_runner_does_not_take_exits_2(tmp_path, capsys, flags, fragment):
    out = tmp_path / "r"
    assert run_cli(["run", *flags, "--budget", "500", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""
    assert not out.exists()


def test_run_keeps_a_zero_phi(tmp_path, capsys):
    code = run_cli(
        ["run", "--alg", "empmo-random", "--problem", "bpaoaz", "--n", "8", "--phi", "0",
         "--budget", "500", "--out", str(tmp_path)]
    )
    assert code == 0
    rows, _ = stdout_rows(capsys)
    assert rows[0]["phi"] == "0.0" and rows[0]["error"] == ""


def test_sweep_refuses_zero_jobs(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("algorithm=empmo-payoff\nproblem=bpaoaz\nn=8\nbudget=500\n")
    out = tmp_path / "results"
    assert run_cli(["sweep", str(cfg), "--jobs", "0", "--out", str(out)]) == 2
    assert "jobs must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_invalid_settings_exits_2_before_running(tmp_path, capsys):
    out = tmp_path / "r"
    code = run_cli(["run", "--alg", "empmo-random", "--problem", "bpaoaz", "--n", "8", "--phi", "1.5", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "phi in [0, 1]" in captured.err and captured.out == ""
    assert not out.exists()


def test_replaying_an_error_row_of_invalid_settings_exits_2(tmp_path, capsys):
    # such rows were written before settings were checked when a config is built
    row = {c: "" for c in SUMMARY_COLUMNS}
    row.update(
        algorithm="empmo-cons-sp", instance="fixture", n="5", eps1="1", eps2="1", eps2max="1/2",
        seed="0", budget="1000000", evaluations="0", generations="0",
        error="ValueError: eps_2_max must be at least eps_2",
    )
    row["run_id"] = compute_run_id(row)
    summary = tmp_path / "summary.csv"
    write_csv(summary, SUMMARY_COLUMNS, [row])
    assert run_cli(["replay", "--summary", str(summary)]) == 2
    assert "eps_2_max must be at least eps_2" in capsys.readouterr().err


def test_replaying_an_error_row_of_a_refused_problem_kind_exits_2(tmp_path, capsys):
    # such rows were written before configs checked the runner's problem kinds
    row = {c: "" for c in SUMMARY_COLUMNS}
    row.update(
        algorithm="semo", problem="bpaoaz", n="8", seed="0", budget="500", evaluations="0", generations="0",
        error="ValueError: run_semo handles single-party problems; use the bi-party runners for bpaoaz",
    )
    row["run_id"] = compute_run_id(row)
    summary = tmp_path / "summary.csv"
    write_csv(summary, SUMMARY_COLUMNS, [row])
    assert run_cli(["replay", "--summary", str(summary)]) == 2
    assert "semo needs problem in" in capsys.readouterr().err


def test_negative_seeds_exit_2(tmp_path, capsys):
    # random.Random(-s) seeds like random.Random(s), so a negative seed would alias its absolute value
    out = tmp_path / "g.bpm"
    assert run_cli(["gen", "--n", "12", "--seed", "-3", "--out", str(out)]) == 2
    assert "instance seed must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()
    runs = tmp_path / "r"
    code = run_cli(["run", "--alg", "empmo-payoff", "--problem", "bpaoaz", "--n", "8", "--seed", "-2", "--out", str(runs)])
    assert code == 2
    captured = capsys.readouterr()
    assert "seeds must be non-negative, got [-2]" in captured.err and captured.out == ""
    assert not runs.exists()
