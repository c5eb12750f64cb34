"""mpmolab sweep benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload pb_sweep --seed 0 --seconds 30 --trace 0

Each repetition runs ``workload.py`` in a fresh Python process against the
checkout's ``src`` (nothing is installed). Repetitions continue until
``--seconds`` would be exceeded, with at least ``MIN_REPS``.

Times are reported at a reference host speed. On a shared host, other
tenants slow every process down by up to 2x, for seconds or minutes at a
time, and CPU time slows with wall time. So while the repetitions run, a
thread of this process (``Gauge``) times a fixed chunk of pure-Python work
every ``GAUGE_PERIOD_S`` on the other CPU. A time measured in a window is
scaled by ``GAUGE_REF_S`` / the mean chunk time in that window. The gauge
keeps its CPU 5-15% busy; a gauge of that size slowed ``graph_hits`` by about
3% in a test of 24 interleaved pairs.

``setup_s``, ``sweep_s``, ``evals_per_s`` and ``peak_rss_mb`` are medians
over repetitions. With ``--trace 1`` untraced and traced repetitions
alternate: the traced repetition with the median ``sweep_s`` gives the
per-layer metrics, and the two medians give the tracing overhead.

Every row is checked. At the golden seed each summary row and each run's
metric rows must equal the golden rows in ``golden/``; at any other seed a
sample of rows is replayed with ``harness.replay_row``. Every repetition must
reproduce the first one, traced or not, and an error column may hold only a
documented known failure. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context. ``--write-golden`` records the golden rows instead.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import ROOT, SRC, WORK, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

GOLDEN_SEED = 0
MIN_REPS = 3
REPLAY_ROWS = 4
HANG_LIMIT_S = 120  # a repetition still running this long after --seconds is stopped
GAUGE_LOOPS = 40_000  # one chunk of gauge work: 2-7 ms, as the host's speed varies
GAUGE_PERIOD_S = 0.05  # one chunk starts every period
GAUGE_REF_S = 0.003  # chunk time that defines the reference host speed

# Rows that fail today by design of the program, not of the benchmark: the
# empmo-simple-sp rows above the exhaustive-oracle size spend their budget and
# then cannot build the party-2 fronts for the ultimatum round. A fix turns
# them into ordinary rows, which then differ from the golden rows.
KNOWN_ERRORS = {
    ("empmo-simple-sp", "ValueError: exhaustive path catalog refused for n > 12"),
}


def known_error(row) -> bool:
    return (row["algorithm"], row["error"]) in KNOWN_ERRORS and int(row["n"]) > 12


def run_child(workload: str, seed: int, trace: int, replay: int, deadline: float) -> dict:
    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--replay", str(replay),
    ]
    try:
        timeout = max(1.0, deadline - time.perf_counter())
        try:
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"workload process still running after {timeout:.0f} s; stopped") from None
        if proc.returncode != 0:
            raise SystemExit(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def outputs(result: dict) -> dict:
    """run_id -> (summary row, [metric row count, digest] or None)."""
    digests = result["metric_digests"]
    return {r["run_id"]: (r, digests.get(r["run_id"])) for r in result["summary"]}


def read_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.metrics.csv", newline="") as fh:
        digests = {r["run_id"]: [int(r["metric_rows"]), r["sha256"]] for r in csv.DictReader(fh)}
    with open(GOLDEN_DIR / f"{workload}.summary.csv", newline="") as fh:
        return {r["run_id"]: (r, digests.get(r["run_id"])) for r in csv.DictReader(fh)}


def write_golden(workload: str, result: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{workload}.summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=result["summary_columns"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(result["summary"])
    with open(GOLDEN_DIR / f"{workload}.metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id", "metric_rows", "sha256"])
        for run_id, (count, digest) in sorted(result["metric_digests"].items()):
            writer.writerow([run_id, count, digest])


def diff(want: dict, got: dict, label: str, bad: dict) -> None:
    """Flag each run whose outputs in ``got`` differ from ``want``."""
    for run_id in want.keys() | got.keys():
        if run_id not in got:
            bad.setdefault(run_id, f"{label}: row missing")
        elif run_id not in want:
            bad.setdefault(run_id, f"{label}: unexpected row")
        elif got[run_id][0] != want[run_id][0]:
            bad.setdefault(run_id, f"{label}: summary row differs")
        elif got[run_id][1] != want[run_id][1]:
            bad.setdefault(run_id, f"{label}: metric rows differ")


def check_rows(workload: str, seed: int, results: list) -> dict:
    """run_id -> reason, for every row that is wrong; known failures are not wrong."""
    first = outputs(results[0])
    bad = {}
    for run_id, (row, _) in first.items():
        if row["error"] and not known_error(row):
            bad[run_id] = f"error: {row['error']}"
    for rep, other in enumerate(results[1:], start=1):
        diff(first, outputs(other), f"repetition {rep} against repetition 0", bad)
    if seed == GOLDEN_SEED:
        diff(read_golden(workload), first, "against the golden rows", bad)
    for run_id, mismatches in results[0]["replay"].items():
        if mismatches:
            bad.setdefault(run_id, f"replay mismatch in {', '.join(mismatches)}")
    return bad


class Gauge(threading.Thread):
    """Times a fixed chunk of pure-Python work every ``GAUGE_PERIOD_S``.

    ``time.perf_counter`` reads the system-wide monotonic clock, so its
    readings compare with those a workload process reports.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.chunks: list = []  # (start, end) of each chunk
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            start = time.perf_counter()
            total = 0
            for i in range(GAUGE_LOOPS):
                total += i * i % 7
            end = time.perf_counter()
            self.chunks.append((start, end))
            self.done.wait(max(0.0, GAUGE_PERIOD_S - (end - start)))

    def stop(self) -> None:
        self.done.set()
        self.join()

    def slowdown(self, window) -> float:
        """Mean chunk time over the window (widened by one period) / ``GAUGE_REF_S``."""
        lo, hi = window[0] - GAUGE_PERIOD_S, window[1] + GAUGE_PERIOD_S
        times = [end - start for start, end in self.chunks if end > lo and start < hi]
        if not times:
            raise SystemExit("the host-speed gauge took no sample while a repetition ran")
        return statistics.fmean(times) / GAUGE_REF_S


def at_reference_speed(result: dict, gauge: Gauge) -> None:
    """Add ``setup_ref_s`` and ``sweep_ref_s``: the times scaled to the reference host speed."""
    result["setup_ref_s"] = result["setup_s"] / gauge.slowdown(result["setup_window"])
    result["sweep_ref_s"] = result["sweep_s"] / gauge.slowdown(result["sweep_window"])


def median_of(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def median_rep(results: list) -> dict:
    return sorted(results, key=lambda r: r["sweep_ref_s"])[(len(results) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help=f"record golden rows (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)

    if not (SRC / "mpmolab" / "__init__.py").is_file():
        print(f"error: no mpmolab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        if args.seed != GOLDEN_SEED:
            print(f"error: golden rows are recorded at seed {GOLDEN_SEED}", file=sys.stderr)
            return 1
        deadline = time.perf_counter() + HANG_LIMIT_S
        write_golden(args.workload, run_child(args.workload, args.seed, 0, 0, deadline))
        print(f"wrote golden rows for {args.workload} to {GOLDEN_DIR}")
        return 0

    # Warm-up: compiles bytecode on a fresh checkout, outside every timing.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import mpmolab"], env=env, check=True, timeout=HANG_LIMIT_S)

    replay = 0 if args.seed == GOLDEN_SEED else REPLAY_ROWS
    plain, traced = [], []
    started = time.perf_counter()
    deadline = started + args.seconds + HANG_LIMIT_S
    rep_cost = 0.0
    gauge = Gauge()
    gauge.start()
    try:
        while True:
            t0 = time.perf_counter()
            plain.append(run_child(args.workload, args.seed, 0, 0 if plain else replay, deadline))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, 1, 0, deadline))
            rep_cost = max(rep_cost, time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            enough = len(plain) >= (1 if args.trace else MIN_REPS)
            if enough and elapsed + rep_cost > args.seconds:
                break
    finally:
        gauge.stop()
    for result in plain + traced:
        at_reference_speed(result, gauge)

    bad = check_rows(args.workload, args.seed, plain + traced)
    rows = plain[0]["summary"]
    known = sum(1 for r in rows if r["error"] and r["run_id"] not in bad)
    attempted = len(rows)
    ok = sum(1 for r in rows if not r["error"] and r["run_id"] not in bad)
    for run_id, reason in sorted(bad.items()):
        print(f"FAILED ROW {run_id}: {reason}")
    for r in rows:
        if r["run_id"] not in bad and r["error"]:
            print(f"known failure {r['run_id']} ({r['algorithm']} on {r['instance']}): {r['error']}")

    sweep_s = median_of(plain, "sweep_ref_s")
    if args.trace:
        layers = dict(median_rep(traced)["layers"])
        layers["trace.overhead"] = median_of(traced, "sweep_ref_s") / sweep_s - 1.0
        layers["harness.known_error_rows"] = known
        units = json.loads((ROOT / "BENCHMARK.json").read_text())
        unit_of = {m["name"]: m["unit"] for m in units["per_layer"]}
        metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": median_of(plain, "setup_ref_s"), "unit": "s"},
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "evals_per_s": {"value": plain[0]["evaluations"] / sweep_s, "unit": "1/s"},
            "rows_ok_frac": {"value": ok / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "rows": attempted,
        "known_error_rows": known,
        "evaluations": plain[0]["evaluations"],
        "repetitions": len(plain),
        "sweep_wall_s_each": [round(r["sweep_s"], 4) for r in plain],
        "sweep_s_each": [round(r["sweep_ref_s"], 4) for r in plain],
        "setup_wall_s_each": [round(r["setup_s"], 4) for r in plain],
        "setup_s_each": [round(r["setup_ref_s"], 4) for r in plain],
        "gauge_chunk_ms": round(statistics.median(end - start for start, end in gauge.chunks) * 1e3, 3),
        "traced_repetitions": len(traced),
        "checked_against": "golden rows" if args.seed == GOLDEN_SEED else f"replay of {REPLAY_ROWS} rows",
    }
    if args.trace:
        context["trace_overhead"] = metrics["trace.overhead"]["value"]
    print(json.dumps({"context": context}))
    failed = len(bad)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
