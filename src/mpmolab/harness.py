"""Batch experiment runner: configs, sweeps, CSV emission, and replay.

A run is identified by the string forms of its configuration cells plus the
seed; the run_id is a digest of exactly those strings, so a summary row is
self-contained: rebuild the config from the row, rerun, and the fresh row must
match byte for byte. Wall-clock time lives only in the trace rows and is the
one column replay ignores.

Budgets are counted in the native unit of each algorithm family: evaluations
for the bit-flip optimizers, generations for the graph searches.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path as FsPath
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import oracles
from .instances import fixture_graph, parse_instance
from .pseudoboolean import (
    DEFAULT_BUDGET,
    PseudoBooleanProblem,
    analytic_fronts,
    common_optimum,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)
from .shortestpath import (
    ApproxParams,
    WeightedDigraph,
    as_fraction,
    run_demo_sp,
    run_empmo_cons_sp,
    run_empmo_simple_sp,
)

# Each identifying field's cell parser, in column order; a summary row and a
# sweep line read their cells through it. Every field but the seed is a
# config field.
_PARSERS = {
    "algorithm": str, "problem": str, "instance": str, "n": int, "phi": float,
    "eps1": Fraction, "eps2": Fraction, "eps2max": Fraction, "seed": int, "budget": int,
}
ID_FIELDS = tuple(_PARSERS)
CONFIG_FIELDS = tuple(f for f in ID_FIELDS if f != "seed")
# The optional config fields: a runner's ``takes`` names those its rows read.
_SETTINGS = tuple(f for f in CONFIG_FIELDS if f not in ("algorithm", "budget"))

SUMMARY_COLUMNS = ["run_id", *ID_FIELDS, "evaluations", "generations", "hit_time", "error"]
METRIC_COLUMNS = ["run_id", "generation", "evaluations", "max_eps", "mean_eps_members", "mean_eps_endpoints"]
# Wall time is the one per-run output replay cannot reproduce; everything else
# a run reports is in its summary row.
TRACE_COLUMNS = ["run_id", "wall_ms"]
AGGREGATE_COLUMNS = [
    *CONFIG_FIELDS,
    "runs", "errors", "hits",
    "mean_evaluations", "std_evaluations", "mean_generations", "std_generations",
    "mean_hit_time", "std_hit_time",
]

DEFAULT_SP_BUDGET = 10**6
# A sweep file names one instance; the headroom covers pool workers whose rows
# interleave several files.
GRAPH_SETUP_CACHE_SIZE = 8


class GraphRow(NamedTuple):
    """A graph adapter's inputs.

    ``fronts`` are the party-2 fronts simple-sp's consensus round reads, None
    when the instance has no references.
    ``refs`` are each endpoint's references: the coverage targets at whose
    hit cons-sp and demo-sp end, and what ``metric_fn`` scores members by.
    """

    g: WeightedDigraph
    params: ApproxParams
    fronts: Optional[Mapping]
    refs: Mapping
    metric_fn: Optional[Callable]


class Runner(NamedTuple):
    """An algorithm's family, the adapter that runs one row, the optional config
    fields its rows read, and (bit-string runners) the problem kinds it accepts."""

    family: str
    run: Callable
    takes: Tuple[str, ...]
    kinds: Tuple[str, ...] = ()


PB, GRAPH = "pseudoboolean", "graph"
# The default budget per family, in the family's native unit.
FAMILY_BUDGETS = {PB: DEFAULT_BUDGET, GRAPH: DEFAULT_SP_BUDGET}

_BITS, _SLACKS = ("problem", "n"), ("instance", "eps1", "eps2", "eps2max")
_SINGLE_PARTY, _BI_PARTY = ("aorz", "aofz", "aoaz"), ("bpaoaz",)

# The one table of algorithms. A pseudo-Boolean adapter is called as
# run(problem, config, seed), a graph adapter as run(GraphRow, config, seed).
# The adapters name the runners as module globals, so each call looks them
# up when it runs: replacing ``harness.run_semo`` replaces what rows call.
RUNNERS: Dict[str, Runner] = {
    "semo": Runner(
        PB, lambda p, c, s: run_semo(p, s, targets=analytic_fronts(p), budget=c.budget), _BITS, _SINGLE_PARTY
    ),
    "empmo-simple": Runner(
        PB, lambda p, c, s: run_empmo_simple(p, s, targets=common_optimum(p), budget=c.budget), _BITS, _BI_PARTY
    ),
    "empmo-random": Runner(
        PB, lambda p, c, s: run_empmo_random(p, c.phi, s, targets=common_optimum(p), budget=c.budget),
        _BITS + ("phi",), _BI_PARTY,
    ),
    "empmo-payoff": Runner(
        PB, lambda p, c, s: run_empmo_payoff(p, s, targets=common_optimum(p), budget=c.budget), _BITS, _BI_PARTY
    ),
    "empmo-cons-sp": Runner(
        GRAPH,
        lambda r, c, s: run_empmo_cons_sp(r.g, r.params, c.budget, s, metric_fn=r.metric_fn, targets=r.refs),
        _SLACKS,
    ),
    "empmo-simple-sp": Runner(
        GRAPH,
        # without references the catalog refuses the row; ROADMAP item 3 removes this fallback
        lambda r, c, s: run_empmo_simple_sp(
            r.g, r.params, c.budget, s, metric_fn=r.metric_fn,
            party2_fronts=oracles.exact_party_fronts(r.g, 1) if r.fronts is None else r.fronts,
        ),
        _SLACKS,
    ),
    "demo-sp": Runner(
        GRAPH, lambda r, c, s: run_demo_sp(r.g, r.params, c.budget, s, metric_fn=r.metric_fn, targets=r.refs), _SLACKS
    ),
}
ALGORITHMS = tuple(RUNNERS)
PSEUDOBOOLEAN_ALGORITHMS = tuple(a for a in ALGORITHMS if RUNNERS[a].family == PB)
GRAPH_ALGORITHMS = tuple(a for a in ALGORITHMS if RUNNERS[a].family == GRAPH)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check_seeds(seeds: Tuple[int, ...]) -> None:
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be non-empty and distinct, got {list(seeds)}")
    if min(seeds) < 0:  # random.Random(-s) seeds like random.Random(s)
        raise ValueError(f"seeds must be non-negative, got {list(seeds)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm on one problem, swept over seeds.

    Construction refuses every setting the algorithm's runner does not take
    and checks the others as the runner would, so a bad setting fails before
    any row runs.
    """

    algorithm: str
    problem: str = ""
    instance: str = ""
    n: int = 0
    phi: Optional[float] = None
    eps1: Optional[Fraction] = None
    eps2: Optional[Fraction] = None
    eps2max: Optional[Fraction] = None
    seeds: Tuple[int, ...] = (0,)
    budget: Optional[int] = None  # None: the family's default, FAMILY_BUDGETS

    def __post_init__(self) -> None:
        if self.algorithm not in RUNNERS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        runner = RUNNERS[self.algorithm]
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        _check_seeds(self.seeds)
        for name in ("eps1", "eps2", "eps2max"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_fraction(v))
        if self.phi is not None:
            object.__setattr__(self, "phi", float(self.phi))
        if self.budget is None:
            object.__setattr__(self, "budget", FAMILY_BUDGETS[runner.family])
        if self.budget < 1:
            raise ValueError("budget must be positive")
        defaults = {f.name: f.default for f in fields(self)}
        for name in _SETTINGS:
            if name not in runner.takes and getattr(self, name) != defaults[name]:
                raise ValueError(f"{self.algorithm} does not take {name}")
        if runner.family == PB:
            if self.problem not in runner.kinds:
                raise ValueError(f"algorithm {self.algorithm} needs problem in {runner.kinds}")
            PseudoBooleanProblem(self.problem, self.n)
        else:
            if not self.instance:
                raise ValueError(f"algorithm {self.algorithm} needs an instance")
            if self.eps1 is None or self.eps2 is None:
                raise ValueError(f"algorithm {self.algorithm} needs eps1 and eps2")
            ApproxParams(self.eps1, self.eps2, self.eps2max)
        if "phi" in runner.takes and (self.phi is None or not 0.0 <= self.phi <= 1.0):
            raise ValueError(f"{self.algorithm} needs phi in [0, 1], got {self.phi}")


def compute_run_id(cells: Dict[str, str]) -> str:
    blob = "|".join(cells[f] for f in ID_FIELDS)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def make_metric_fn(refs: Dict[int, Tuple]):
    """Set approximation degrees of archive members against their references.

    A member's degree is its min over its endpoint's references of
    ``epsilon_of_solution`` against that reference alone; an endpoint's is the
    max over its references of the min over its members. Returns (max over
    members, flat mean over members, mean over endpoints). Members whose
    endpoint has no reference are skipped. Each closure memoises a member's
    per-reference degrees by its (endpoint, objectives) pair, so a vector
    that stays in the archive, or comes back to it, is scored once.
    """
    memo: Dict[Tuple[int, Tuple], Tuple[float, ...]] = {}

    def metric(view):
        per_member: List[float] = []
        best: Dict[int, Tuple[float, ...]] = {}
        for key in view:
            endpoint, obj = key
            degrees = memo.get(key)
            if degrees is None:
                common = refs.get(endpoint)
                if not common:
                    continue
                degrees = memo[key] = tuple([float(oracles.epsilon_of_solution(obj, (z,))) for z in common])
            per_member.append(min(degrees))
            seen = best.get(endpoint)
            best[endpoint] = degrees if seen is None else tuple(map(min, seen, degrees))
        if not per_member:
            return (0.0, 0.0, 0.0)
        return (
            max(per_member),
            statistics.fmean(per_member),
            statistics.fmean(map(max, best.values())),
        )

    return metric


def _config_cells(config: ExperimentConfig, seed: int) -> Dict[str, str]:
    return {f: _cell(seed if f == "seed" else getattr(config, f)) for f in ID_FIELDS}


@dataclass
class RunRecord:
    summary: Dict[str, str]
    metrics: List[Dict[str, str]]
    trace: Dict[str, str]


@functools.lru_cache(maxsize=GRAPH_SETUP_CACHE_SIZE)
def _graph_setup(text: Optional[str]) -> Tuple[WeightedDigraph, Mapping, Optional[Mapping]]:
    """The graph of an instance file's text (None: the fixture) and its
    ``oracles.references``: (graph, endpoint references, party-2 fronts).

    Both maps are read-only, since every row of the process shares them.
    Exceptions are not cached, so a malformed file fails the same way on
    every row.
    """
    g = fixture_graph() if text is None else parse_instance(text)
    refs, fronts = oracles.references(g)
    return g, MappingProxyType(refs), None if fronts is None else MappingProxyType(fronts)


def run_single(config: ExperimentConfig, seed: int) -> RunRecord:
    """Execute one (config, seed) pair; failures land in the error column.

    Graph rows of one process share one parse and one set of references per
    distinct instance content: the file is read on every row, and a file
    rewritten between rows is set up afresh. A negative seed raises. The
    trace row's ``wall_ms`` times the runner call alone; an error row reads 0.
    """
    _check_seeds((seed,))
    cells = _config_cells(config, seed)
    evaluations = generations = 0
    hit: Optional[int] = None
    wall = 0.0
    error = ""
    metric_samples = []
    try:
        family, run, *_ = RUNNERS[config.algorithm]
        if family == PB:
            arg = PseudoBooleanProblem(config.problem, config.n)
        else:
            text = None if config.instance == "fixture" else FsPath(config.instance).read_text()
            g, refs, fronts = _graph_setup(text)
            cells["n"] = _cell(g.n)
            params = ApproxParams(config.eps1, config.eps2, config.eps2max)
            arg = GraphRow(g, params, fronts, refs, make_metric_fn(refs) if refs else None)
        t0 = time.perf_counter()
        result = run(arg, config, seed)
        wall = (time.perf_counter() - t0) * 1000.0
        evaluations, generations, hit = result.evaluations, result.generations, result.hit_evaluations
        if family == GRAPH:
            metric_samples = result.metrics
    except Exception as exc:
        error = " ".join(f"{type(exc).__name__}: {exc}".split())

    run_id = compute_run_id(cells)
    summary = {
        "run_id": run_id,
        **cells,
        "evaluations": _cell(evaluations),
        "generations": _cell(generations),
        "hit_time": _cell(hit),
        "error": error,
    }
    # a metric row's columns after the run id are its sample's fields
    metrics = [
        {"run_id": run_id, **{c: _cell(getattr(s, c)) for c in METRIC_COLUMNS[1:]}} for s in metric_samples
    ]
    return RunRecord(summary, metrics, {"run_id": run_id, "wall_ms": _cell(wall)})


def _sort_key(row: Dict[str, str]):
    """Each config cell, then the seed, parsed as its field; a blank cell sorts first."""
    return tuple((_PARSERS[f](row[f]),) if row[f] else () for f in (*CONFIG_FIELDS, "seed"))


def run_many(configs: Sequence[ExperimentConfig], *, jobs: int = 1) -> List[RunRecord]:
    """Run every (config, seed) pair in at most ``jobs`` worker processes.

    Records come back in canonical order. No more workers start than there
    are pairs, since the pool starts all of its workers at once.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    pairs = [(c, s) for c in configs for s in c.seeds]
    workers = min(jobs, len(pairs))
    if workers > 1:
        # imported here: the pool loads multiprocessing, which a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_single, *zip(*pairs)))
    else:
        records = [run_single(c, s) for c, s in pairs]
    return sorted(records, key=lambda r: _sort_key(r.summary))


def aggregate_rows(summary_rows: Sequence[Dict[str, str]]) -> List[Dict[str, str]]:
    """Per-config mean and population standard deviation of the count columns."""
    groups: Dict[Tuple, List[Dict[str, str]]] = {}
    for row in summary_rows:
        key = tuple(row[f] for f in CONFIG_FIELDS)
        groups.setdefault(key, []).append(row)
    out = []
    for rows in sorted(groups.values(), key=lambda rows: _sort_key(rows[0])):
        ok = [r for r in rows if not r["error"]]
        hits = [int(r["hit_time"]) for r in ok if r["hit_time"]]
        agg = {f: rows[0][f] for f in CONFIG_FIELDS}
        agg["runs"] = _cell(len(rows))
        agg["errors"] = _cell(len(rows) - len(ok))
        agg["hits"] = _cell(len(hits))
        for col, values in (
            ("evaluations", [int(r["evaluations"]) for r in ok]),
            ("generations", [int(r["generations"]) for r in ok]),
            ("hit_time", hits),
        ):
            if values:
                agg[f"mean_{col}"] = _cell(statistics.fmean(values))
                agg[f"std_{col}"] = _cell(statistics.pstdev(values))
            else:
                agg[f"mean_{col}"] = ""
                agg[f"std_{col}"] = ""
        out.append(agg)
    return out


def summarize(summary_rows: Sequence[Dict[str, str]]) -> Dict[str, dict]:
    """``aggregate_rows`` grouped across n, with a log-log slope of mean evaluations versus n.

    Each entry holds the aggregate rows that differ only in n, labelled by
    their other nonblank config cells, as ``per_n``. Error rows count in no
    mean, so an n whose runs all failed joins no fit. An entry with at least
    two sizes (and nonzero spread in log n) gets a least-squares slope with
    its intercept and root-mean-square residual.
    """
    label_fields = [f for f in CONFIG_FIELDS if f != "n"]
    report: Dict[str, dict] = {}
    for agg in aggregate_rows(summary_rows):
        label = " ".join(f"{f}={agg[f]}" for f in label_fields if agg[f])
        report.setdefault(label, {"per_n": {}})["per_n"][int(agg["n"])] = agg
    for entry in report.values():
        means = [(n, float(agg["mean_evaluations"])) for n, agg in entry["per_n"].items() if agg["mean_evaluations"]]
        points = [(math.log(n), math.log(mean)) for n, mean in means if mean > 0]
        if len(points) >= 2:
            xbar = statistics.fmean(x for x, _ in points)
            ybar = statistics.fmean(y for _, y in points)
            sxx = sum((x - xbar) ** 2 for x, _ in points)
            if sxx > 0:
                slope = sum((x - xbar) * (y - ybar) for x, y in points) / sxx
                intercept = ybar - slope * xbar
                rmse = math.sqrt(
                    statistics.fmean((y - (intercept + slope * x)) ** 2 for x, y in points)
                )
                entry["slope"] = slope
                entry["intercept"] = intercept
                entry["rmse"] = rmse
    return report


@contextlib.contextmanager
def atomic_open(path, newline: Optional[str] = None):
    """Write through a temp file in the target directory, then rename over it;
    the file gets the mode ``open(path, "w")`` would give it, not 0600."""
    path = FsPath(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(fh, columns: Sequence[str], rows: Sequence[Dict[str, str]]) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_csv(path, columns: Sequence[str], rows: Sequence[Dict[str, str]]) -> None:
    with atomic_open(path, newline="") as fh:
        write_rows(fh, columns, rows)


def read_csv(path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_result(records: Sequence[RunRecord], out_dir) -> Dict[str, FsPath]:
    """Write a sweep's four CSV files, projected from its records in their order; returns their paths."""
    summary = [r.summary for r in records]
    paths = {}
    for name, columns, rows in (
        ("summary", SUMMARY_COLUMNS, summary),
        ("metrics", METRIC_COLUMNS, [m for r in records for m in r.metrics]),
        ("traces", TRACE_COLUMNS, [r.trace for r in records]),
        ("aggregates", AGGREGATE_COLUMNS, aggregate_rows(summary)),
    ):
        paths[name] = FsPath(out_dir) / f"{name}.csv"
        write_csv(paths[name], columns, rows)
    return paths


def config_from_cells(cells: Mapping[str, object], seeds: Tuple[int, ...]) -> ExperimentConfig:
    """The config of one cell per config field, parsed through ``_PARSERS``.

    A blank cell (None or "") leaves its field's default; any other value,
    0 included, is set. ``eps`` is shorthand for equal eps1 and eps2.
    """
    given = {k: v for k, v in cells.items() if v is not None and v != ""}
    if "eps" in given:
        if "eps1" in given or "eps2" in given:
            raise ValueError("give either eps or eps1/eps2, not both")
        given["eps1"] = given["eps2"] = given.pop("eps")
    return ExperimentConfig(seeds=seeds, **{k: _PARSERS[k](v) for k, v in given.items()})


def config_from_row(row: Dict[str, str]) -> Tuple[ExperimentConfig, int]:
    """Rebuild the (config, seed) pair a summary row came from."""
    seed = int(row["seed"])
    # a graph row's n cell is the vertex count run_single wrote, not a setting
    skip = "n" if row["algorithm"] in GRAPH_ALGORITHMS else None
    return config_from_cells({k: row[k] for k in CONFIG_FIELDS if k != skip}, (seed,)), seed


def replay_row(row: Dict[str, str]) -> Tuple[Dict[str, str], List[str]]:
    """Rerun one summary row; returns the fresh row and the mismatched columns."""
    config, seed = config_from_row(row)
    fresh = run_single(config, seed).summary
    mismatches = [c for c in SUMMARY_COLUMNS if fresh.get(c, "") != row.get(c, "")]
    return fresh, mismatches


_SWEEP_KEYS = {*CONFIG_FIELDS, "eps", "seeds"}


def _parse_seeds(value: str) -> Tuple[int, ...]:
    value = value.strip()
    if ":" in value:
        lo, hi = value.split(":", 1)
        return tuple(range(int(lo), int(hi)))
    return tuple(int(t) for t in value.split(","))


def parse_sweep_text(text: str, *, base_dir=None) -> List[ExperimentConfig]:
    """Flat key=value sweep file; comma-separated values fan out as a product.

    ``seeds`` accepts ``lo:hi`` (half-open) or a comma list and applies to
    every produced config; it must name at least one seed, and no value may
    repeat in it. No list value may be blank or parse equal to another one
    (``n=8,08`` repeats 8). ``eps`` is shorthand for equal eps1 and eps2.
    Relative instance paths resolve against ``base_dir``.
    """
    data: Dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"line {no}: expected key=value")
        key, value = (t.strip() for t in s.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise ValueError(f"line {no}: unknown key {key!r}")
        if key in data:
            raise ValueError(f"line {no}: duplicate key {key!r}")
        data[key] = value
    if "algorithm" not in data:
        raise ValueError("sweep file needs an algorithm line")

    seeds = _parse_seeds(data.pop("seeds", "0"))
    instance = data.pop("instance", "")
    if instance and instance != "fixture" and base_dir is not None and not os.path.isabs(instance):
        instance = str(FsPath(base_dir) / instance)

    axes: List[Tuple[str, List[str]]] = []
    for key in (*CONFIG_FIELDS, "eps"):  # every key but instance and seeds is a list
        if key in data:
            values = [t.strip() for t in data[key].split(",")]
            if "" in values:
                raise ValueError(f"key {key!r} has an empty value: {data[key]}")
            parsed = [_PARSERS.get(key, Fraction)(v) for v in values]  # eps: as eps1
            if len(set(parsed)) != len(parsed):
                raise ValueError(f"key {key!r} repeats a value: {data[key]}")
            axes.append((key, values))

    combos: List[Dict[str, str]] = [{"instance": instance}]
    for key, values in axes:
        combos = [dict(c, **{key: v}) for c in combos for v in values]

    return [config_from_cells(combo, seeds) for combo in combos]
