"""Command line front end.

Subcommands: run (one algorithm, one seed), sweep (a config file of runs),
oracle (closed-form bit-string optima at any n, exhaustive path catalogs for
small graphs), gen (planted instance files), validate (instance file checks),
replay (re-execute summary rows and compare).

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime failure.
The default output directory is $MPMOLAB_OUT, falling back to the working
directory.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import harness, oracles
from .instances import (
    KIND_PLANTED,
    InstanceSpec,
    fixture_graph,
    generate_planted_uav,
    parse_instance,
    provenance_comment,
    write_instance,
)
from .pseudoboolean import KINDS, PseudoBooleanProblem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

OUT_ENV = "MPMOLAB_OUT"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this tool reserves 2 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV, "."))


def cmd_run(args) -> int:
    flags = dict(vars(args), algorithm=args.alg)
    config = harness.config_from_cells({k: flags[k] for k in (*harness.CONFIG_FIELDS, "eps")}, (args.seed,))
    record = harness.run_single(config, args.seed)
    harness.write_rows(sys.stdout, harness.SUMMARY_COLUMNS, [record.summary])
    out = _out_dir(args)
    run_id = record.summary["run_id"]
    harness.write_csv(out / f"{run_id}_summary.csv", harness.SUMMARY_COLUMNS, [record.summary])
    if record.metrics:
        harness.write_csv(out / f"{run_id}_metrics.csv", harness.METRIC_COLUMNS, record.metrics)
        print(f"metrics: {out / (run_id + '_metrics.csv')}", file=sys.stderr)
    if record.summary["error"]:
        print(f"error: {record.summary['error']}", file=sys.stderr)
        return EXIT_VALIDATION if record.summary["error"].startswith("ValueError") else EXIT_RUNTIME
    return EXIT_OK


def cmd_sweep(args) -> int:
    text = Path(args.config).read_text()
    configs = harness.parse_sweep_text(text, base_dir=Path(args.config).parent)
    records = harness.run_many(configs, jobs=args.jobs)
    paths = harness.write_result(records, _out_dir(args))
    errors = sum(1 for r in records if r.summary["error"])
    print(f"{len(records)} runs ({errors} errors) -> {paths['summary']}")
    for name in ("metrics", "traces", "aggregates"):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if (args.problem is None) == (args.instance is None):
        raise ValueError("give exactly one of --problem or --instance")
    if (args.problem is None) != (args.n is None):
        raise ValueError("--problem needs --n" if args.n is None else "oracle --instance does not take --n")
    if args.problem is not None:
        sys.stdout.write(oracles.pseudoboolean_report(PseudoBooleanProblem(args.problem, args.n)))
    else:
        g = fixture_graph() if args.instance == "fixture" else parse_instance(Path(args.instance).read_text())
        sys.stdout.write(oracles.path_report(oracles.exact_path_catalog(g)))
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = InstanceSpec(KIND_PLANTED, args.n, seed=args.seed)
    g = generate_planted_uav(spec)
    text = write_instance(g, comment=provenance_comment(spec))
    with harness.atomic_open(args.out_file) as fh:
        fh.write(text)
    print(f"wrote {args.out_file} (n={g.n}, edges={g.edge_count})")
    return EXIT_OK


def cmd_validate(args) -> int:
    failed = False
    for name in args.files:
        try:
            g = parse_instance(Path(name).read_text())
        except (OSError, ValueError) as exc:
            print(f"FAIL {name}: {exc}")
            failed = True
        else:
            print(f"OK {name}: n={g.n}, edges={g.edge_count}")
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_replay(args) -> int:
    rows = harness.read_csv(args.summary)
    if args.run_id:
        wanted = set(args.run_id)
        rows = [r for r in rows if r["run_id"] in wanted]
        missing = wanted - {r["run_id"] for r in rows}
        if missing:
            raise ValueError(f"run ids not in {args.summary}: {', '.join(sorted(missing))}")
    if args.sample is not None:
        picker = random.Random(args.sample_seed)
        rows = picker.sample(rows, min(args.sample, len(rows)))
    if not rows:
        raise ValueError("no rows selected")
    bad = 0
    for row in rows:
        fresh, mismatches = harness.replay_row(row)
        if mismatches:
            bad += 1
            print(f"MISMATCH {row['run_id']}")
            for col in mismatches:
                print(f"  {col}: recorded {row.get(col, '')!r} fresh {fresh.get(col, '')!r}")
        else:
            print(f"MATCH {row['run_id']}")
    print(f"{len(rows) - bad}/{len(rows)} rows reproduced")
    return EXIT_OK if bad == 0 else EXIT_RUNTIME


def build_parser() -> _Parser:
    parser = _Parser(prog="mpmolab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute one (algorithm, problem, seed) run")
    p_run.add_argument("--alg", required=True, choices=harness.ALGORITHMS)
    p_run.add_argument("--problem", choices=KINDS, help="pseudo-Boolean problem kind")
    p_run.add_argument("--n", type=int, help="problem size for pseudo-Boolean kinds")
    p_run.add_argument("--phi", type=float, help="party-1 selection probability (empmo-random)")
    p_run.add_argument("--instance", help="'fixture' or an instance file path")
    p_run.add_argument("--eps", type=Fraction, help="sets both eps1 and eps2")
    p_run.add_argument("--eps1", type=Fraction, help="party-1 approximation parameter")
    p_run.add_argument("--eps2", type=Fraction, help="party-2 approximation parameter")
    p_run.add_argument("--eps2-max", dest="eps2max", type=Fraction, help="consensus relaxation cap (default eps2)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--budget", type=int, help="evaluations (bit-flip) or generations (graphs); defaults 1e8 / 1e6")
    p_run.add_argument("--out", help=f"output directory (default ${OUT_ENV} or '.')")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every config in a key=value sweep file")
    p_sweep.add_argument("config", help="sweep file path")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument("--out", help=f"output directory (default ${OUT_ENV} or '.')")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="print an exact catalog report")
    p_oracle.add_argument("--problem", choices=KINDS)
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--instance", help="'fixture' or an instance file path")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a planted instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", dest="out_file", required=True, help="instance file to write")
    p_gen.set_defaults(fn=cmd_gen)

    p_val = sub.add_parser("validate", help="check instance files")
    p_val.add_argument("files", nargs="+")
    p_val.set_defaults(fn=cmd_validate)

    p_replay = sub.add_parser("replay", help="re-execute summary rows and compare")
    p_replay.add_argument("--summary", required=True, help="summary CSV path")
    p_replay.add_argument("--run-id", action="append", help="replay only this run id (repeatable)")
    p_replay.add_argument("--sample", type=int, help="replay a random sample of rows")
    p_replay.add_argument("--sample-seed", type=int, default=0)
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
