"""One repetition of one benchmark workload, in a fresh process.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and
the working directory set to an empty scratch directory:

    python3 benchmarks/workload.py --workload graph_hits --seed 0 --trace 0

Set-up (importing mpmolab, generating and writing the planted instance files,
writing the sweep configs) is timed as ``setup_s``. The workload is then run
the way a user runs it: ``mpmolab sweep <cfg> --jobs 1`` through ``cli.main``
once per config file, each into its own output directory, and the summed wall
time of those calls is ``sweep_s``. ``result.json`` in the working directory
holds both times and the ``time.perf_counter`` readings that bound them, the
peak resident memory, every summary row, a digest of each run's metric rows,
and, when traced, the per-layer metrics. A traced run also writes its spans
to ``WORK``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "mpmolab-bench"  # scratch space; spans are kept here
WORKLOADS = ("pb_sweep", "graph_budget", "graph_hits")
SEED_STRIDE = 1000  # workload seed s runs config seeds s*1000 + k


def _seeds(base: int, count: int) -> str:
    return f"{base}:{base + count}"


def plan(workload: str, seed: int):
    """The instance files and sweep configs of a workload at a workload seed.

    Returns ``(instances, configs)``: ``instances`` is a list of
    ``(file name, n, instance seed)`` and ``configs`` a list of sweep-file
    texts. The workload seed offsets every config seed and instance seed.
    """
    base = seed * SEED_STRIDE
    instances = []
    configs = []

    def planted(n: int, k: int) -> str:
        name = f"g{n}_s{base + k}.bpm"
        instances.append((name, n, base + k))
        return name

    if workload == "pb_sweep":
        seeds = _seeds(base, 10)
        configs.append(f"algorithm=semo\nproblem=aoaz\nn=20,40,60\nseeds={seeds}\n")
        configs.append(f"algorithm=empmo-simple,empmo-payoff\nproblem=bpaoaz\nn=20,40,60,80\nseeds={seeds}\n")
        configs.append(f"algorithm=empmo-random\nproblem=bpaoaz\nn=60\nphi=0.1,0.5,0.9\nseeds={seeds}\n")
        for i, text in enumerate(configs):
            configs[i] = text + "budget=100000000\n"
    elif workload == "graph_budget":
        # Step cost depends on the graph, so the planted sizes take several
        # instances, each with its own run seed, rather than one instance
        # with several seeds.
        common = "eps=1\neps2max=2\nbudget=12000\n"
        configs.append(f"algorithm=empmo-simple-sp\ninstance=fixture\nseeds={_seeds(base, 3)}\n" + common)
        for k in range(3):
            configs.append(f"algorithm=empmo-simple-sp\ninstance={planted(12, 1 + k)}\nseeds={base + k}\n" + common)
        for k in range(4):
            configs.append(
                f"algorithm=empmo-cons-sp,empmo-simple-sp,demo-sp\ninstance={planted(30, 4 + k)}\n"
                f"seeds={base + k}\n" + common
            )
    elif workload == "graph_hits":
        # Planted instances of one size share their topology, so each file
        # gets its own run seeds; shared seeds would repeat the same searches.
        for k in range(8):
            name = planted(10 if k < 4 else 12, 10 + k)
            configs.append(
                f"algorithm=empmo-cons-sp,demo-sp\ninstance={name}\neps=1\n"
                f"seeds={_seeds(base + 10 * k, 10)}\nbudget=200000\n"
            )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return instances, configs


def _metric_digests(rows):
    """run_id -> [metric row count, sha256 over the run's metric rows]."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row["run_id"], []).append(row)
    out = {}
    for run_id, group in grouped.items():
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(group[0]), lineterminator="\n")
        writer.writerows(group)
        out[run_id] = [len(group), hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    return out


def run(args) -> dict:
    t_setup = time.perf_counter()
    import mpmolab
    from mpmolab import cli, harness, instances

    if not Path(mpmolab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mpmolab imported from {mpmolab.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    inst_files, configs = plan(args.workload, args.seed)
    for name, n, inst_seed in inst_files:
        spec = instances.InstanceSpec(instances.KIND_PLANTED, n, seed=inst_seed)
        g = instances.generate_planted_uav(spec)
        Path(name).write_text(instances.write_instance(g, comment=instances.provenance_comment(spec)))
    for i, text in enumerate(configs):
        Path(f"sweep{i}.cfg").write_text(text)
    setup_s = time.perf_counter() - t_setup

    sweep_ns = 0
    sweep_from = time.perf_counter()
    for i in range(len(configs)):
        argv = ["sweep", f"sweep{i}.cfg", "--jobs", "1", "--out", f"out{i}"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter_ns()
            code = cli.main(argv)
            sweep_ns += time.perf_counter_ns() - start
        if code != cli.EXIT_OK:
            raise SystemExit(f"mpmolab {' '.join(argv)} exited {code}")
    sweep_to = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary, metrics = [], []
    for i in range(len(configs)):
        summary += harness.read_csv(f"out{i}/summary.csv")
        metrics += harness.read_csv(f"out{i}/metrics.csv")
    evaluations = sum(int(r["evaluations"]) for r in summary)

    result = {
        "setup_s": setup_s,
        "setup_window": [t_setup, t_setup + setup_s],
        "sweep_s": sweep_ns / 1e9,
        "sweep_window": [sweep_from, sweep_to],
        "peak_rss_mb": rss_mb,
        "evaluations": evaluations,
        "summary_columns": harness.SUMMARY_COLUMNS,
        "summary": summary,
        "metric_digests": _metric_digests(metrics),
        "replay": {},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, sweep_ns, len(summary), evaluations)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    if args.replay:
        picker = random.Random(f"replay-{args.workload}-{args.seed}")
        for row in picker.sample(summary, min(args.replay, len(summary))):
            _, mismatches = harness.replay_row(row)
            result["replay"][row["run_id"]] = mismatches
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=0, help="rows to replay after the sweep")
    args = parser.parse_args(argv)
    result = run(args)
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
