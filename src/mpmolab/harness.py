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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path as FsPath
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import oracles
from .core import Sense, weakly_dominates
from .instances import fixture_graph, parse_instance
from .pseudoboolean import (
    KINDS,
    PseudoBooleanProblem,
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

SUMMARY_COLUMNS = [
    "run_id", "algorithm", "problem", "instance", "n", "phi",
    "eps1", "eps2", "eps2max", "seed", "budget",
    "evaluations", "generations", "hit_time", "error",
]
METRIC_COLUMNS = ["run_id", "generation", "evaluations", "max_eps", "mean_eps_members", "mean_eps_endpoints"]
TRACE_COLUMNS = ["run_id", "algorithm", "problem", "n", "phi", "seed", "evaluations", "iterations", "hit_time", "wall_ms"]
AGGREGATE_COLUMNS = [
    "algorithm", "problem", "instance", "n", "phi", "eps1", "eps2", "eps2max", "budget",
    "runs", "errors", "hits",
    "mean_evaluations", "std_evaluations", "mean_generations", "std_generations",
    "mean_hit_time", "std_hit_time",
]

ID_FIELDS = ("algorithm", "problem", "instance", "n", "phi", "eps1", "eps2", "eps2max", "seed", "budget")
CONFIG_FIELDS = ID_FIELDS[:-2] + ("budget",)
DEFAULT_CADENCE = 100
DEFAULT_PB_BUDGET = 10**8
DEFAULT_SP_BUDGET = 10**6
ORACLE_N_LIMIT = 12
# A sweep file names one instance; the headroom covers pool workers whose rows
# interleave several files.
GRAPH_SETUP_CACHE_SIZE = 8


class GraphRow(NamedTuple):
    """A graph adapter's inputs; ``measure`` and ``stop`` are runner keyword arguments."""

    g: WeightedDigraph
    params: ApproxParams
    fronts: Optional[Mapping]
    measure: dict  # metric_fn and cadence, for every graph runner
    stop: dict  # target_fn, target_endpoints and stop_on_hit, for the runners that stop at coverage


class Runner(NamedTuple):
    """An algorithm's family, the adapter that runs one row, and whether it takes phi."""

    family: str
    run: Callable
    phi: bool = False


PB, GRAPH = "pseudoboolean", "graph"
# The default budget of ``mpmolab run`` per family, in the family's native unit.
FAMILY_BUDGETS = {PB: DEFAULT_PB_BUDGET, GRAPH: DEFAULT_SP_BUDGET}

# The one table of algorithms. A pseudo-Boolean adapter is called as
# run(problem, config, seed), a graph adapter as run(GraphRow, config, seed).
# The adapters name the runners as module globals, so each call looks them
# up when it runs: replacing ``harness.run_semo`` replaces what rows call.
RUNNERS: Dict[str, Runner] = {
    "semo": Runner(PB, lambda p, c, s: run_semo(p, s, budget=c.budget)),
    "empmo-simple": Runner(PB, lambda p, c, s: run_empmo_simple(p, s, budget=c.budget)),
    "empmo-random": Runner(PB, lambda p, c, s: run_empmo_random(p, c.phi, s, budget=c.budget), phi=True),
    "empmo-payoff": Runner(PB, lambda p, c, s: run_empmo_payoff(p, s, budget=c.budget)),
    "empmo-cons-sp": Runner(
        GRAPH, lambda r, c, s: run_empmo_cons_sp(r.g, r.params, c.budget, s, **r.measure, **r.stop)
    ),
    "empmo-simple-sp": Runner(
        GRAPH,
        lambda r, c, s: run_empmo_simple_sp(r.g, r.params, c.budget, s, party2_fronts=r.fronts, **r.measure),
    ),
    # the consensus base (1+min eps)^(1/(n-1)) is demo-sp's box base too
    "demo-sp": Runner(GRAPH, lambda r, c, s: run_demo_sp(r.g, r.params.r, c.budget, s, **r.measure, **r.stop)),
}
ALGORITHMS = tuple(RUNNERS)
PSEUDOBOOLEAN_ALGORITHMS = tuple(a for a in ALGORITHMS if RUNNERS[a].family == PB)
GRAPH_ALGORITHMS = tuple(a for a in ALGORITHMS if RUNNERS[a].family == GRAPH)
PHI_ALGORITHMS = tuple(a for a in ALGORITHMS if RUNNERS[a].phi)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm on one problem, swept over seeds."""

    algorithm: str
    problem: str = ""
    instance: str = ""
    n: int = 0
    phi: Optional[float] = None
    eps1: Optional[Fraction] = None
    eps2: Optional[Fraction] = None
    eps2max: Optional[Fraction] = None
    seeds: Tuple[int, ...] = (0,)
    budget: int = DEFAULT_PB_BUDGET
    cadence: int = DEFAULT_CADENCE

    def __post_init__(self) -> None:
        if self.algorithm not in RUNNERS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for name in ("eps1", "eps2", "eps2max"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_fraction(v))
        if self.phi is not None:
            object.__setattr__(self, "phi", float(self.phi))
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.cadence < 1:
            raise ValueError("cadence must be positive")
        runner = RUNNERS[self.algorithm]
        if runner.family == PB:
            if self.problem not in KINDS:
                raise ValueError(f"algorithm {self.algorithm} needs problem in {KINDS}")
            if self.instance:
                raise ValueError("bit-flip algorithms take a problem kind, not an instance")
        else:
            if not self.instance:
                raise ValueError(f"algorithm {self.algorithm} needs an instance")
            if self.problem:
                raise ValueError("graph algorithms take an instance, not a problem kind")
            if self.eps1 is None or self.eps2 is None:
                raise ValueError(f"algorithm {self.algorithm} needs eps1 and eps2")
        if runner.phi and self.phi is None:
            raise ValueError(f"{self.algorithm} needs phi")
        if not runner.phi and self.phi is not None:
            raise ValueError(f"phi is only meaningful for {', '.join(PHI_ALGORITHMS)}")


def load_graph(instance: str) -> WeightedDigraph:
    if instance == "fixture":
        return fixture_graph()
    return parse_instance(FsPath(instance).read_text())


def compute_run_id(cells: Dict[str, str]) -> str:
    blob = "|".join(cells[f] for f in ID_FIELDS)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def endpoint_commons(
    g: WeightedDigraph, cat: Optional[oracles.PathCatalog] = None
) -> Dict[int, Tuple]:
    """Exact common-set objectives per endpoint, for metrics and hit targets.

    ``cat``, if given, is the graph's exact path catalog, reused instead of
    enumerating the paths again.
    """
    if cat is None:
        cat = oracles.exact_path_catalog(g)
    return {e: tuple(cat.common_objectives(e)) for e in cat.per_endpoint}


def make_metric_fn(refs: Dict[int, Tuple]):
    """Approximation-degree statistics over archive members.

    Returns (max over members, flat mean over members, mean over endpoints of
    the per-endpoint minimum). Members whose endpoint has no reference are
    skipped; with the planted and fixture instances every endpoint has one.
    """

    def metric(view):
        per_member: List[float] = []
        best: Dict[int, float] = {}
        for endpoint, obj in view:
            common = refs.get(endpoint)
            if not common:
                continue
            e = float(oracles.epsilon_of_solution(obj, common))
            per_member.append(e)
            if endpoint not in best or e < best[endpoint]:
                best[endpoint] = e
        if not per_member:
            return (0.0, 0.0, 0.0)
        return (
            max(per_member),
            statistics.fmean(per_member),
            statistics.fmean(best.values()),
        )

    return metric


def make_target_fn(refs: Dict[int, Tuple]):
    """True iff the member weakly dominates every common member of its endpoint."""

    flat_refs = {e: [m[0] + m[1] for m in members] for e, members in refs.items()}

    def target(endpoint: int, obj) -> bool:
        flat = obj[0] + obj[1]
        return all(weakly_dominates(flat, m, Sense.MINIMIZE) for m in flat_refs[endpoint])

    return target


def _config_cells(config: ExperimentConfig, seed: int) -> Dict[str, str]:
    return {
        "algorithm": config.algorithm,
        "problem": config.problem,
        "instance": config.instance,
        "n": _cell(config.n),
        "phi": _cell(config.phi),
        "eps1": _cell(config.eps1),
        "eps2": _cell(config.eps2),
        "eps2max": _cell(config.eps2max),
        "seed": _cell(seed),
        "budget": _cell(config.budget),
    }


@dataclass
class RunRecord:
    summary: Dict[str, str]
    metrics: List[Dict[str, str]]
    trace: Dict[str, str]


@functools.lru_cache(maxsize=GRAPH_SETUP_CACHE_SIZE)
def _graph_setup(text: Optional[str]) -> Tuple[WeightedDigraph, Mapping, Optional[Mapping]]:
    """The graph of an instance file's text (None: the fixture) and its oracles.

    Returns (graph, endpoint references, party-2 fronts). The references and
    fronts come from one exact path catalog, built only when the graph has at
    most ORACLE_N_LIMIT vertices; above it they are empty and None. Both are
    read-only, since every row of the process shares them. Exceptions are not
    cached, so a malformed file fails the same way on every row.
    """
    g = fixture_graph() if text is None else parse_instance(text)
    if g.n > ORACLE_N_LIMIT:
        return g, MappingProxyType({}), None
    cat = oracles.exact_path_catalog(g)
    fronts = {e: cat.party_front(e, 1) for e in cat.per_endpoint}
    return g, MappingProxyType(endpoint_commons(g, cat)), MappingProxyType(fronts)


def run_single(config: ExperimentConfig, seed: int) -> RunRecord:
    """Execute one (config, seed) pair; failures land in the error column.

    Graph rows of one process share one parse and one exact path catalog per
    distinct instance content: the file is read on every row, and a file
    rewritten between rows is set up afresh.
    """
    cells = _config_cells(config, seed)
    evaluations = generations = 0
    hit: Optional[int] = None
    wall = 0.0
    error = ""
    metric_samples = []
    try:
        family, run, _ = RUNNERS[config.algorithm]
        if family == PB:
            trace = run(PseudoBooleanProblem(config.problem, config.n), config, seed)
            evaluations, generations = trace.evaluations, trace.iterations
            hit, wall = trace.hit_time, trace.wall_ms
        else:
            text = None if config.instance == "fixture" else FsPath(config.instance).read_text()
            g, refs, fronts = _graph_setup(text)
            cells["n"] = _cell(g.n)
            params = ApproxParams.consensus(g.n, config.eps1, config.eps2, config.eps2max)
            measure = {"metric_fn": make_metric_fn(refs) if refs else None, "cadence": config.cadence}
            stop = {
                "target_fn": make_target_fn(refs) if refs else None,
                "target_endpoints": refs.keys(),
                "stop_on_hit": True,
            }
            result = run(GraphRow(g, params, fronts, measure, stop), config, seed)
            evaluations, generations = result.evaluations, result.generations
            hit, wall = result.hit_evaluations, result.wall_ms
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
    metrics = [
        {
            "run_id": run_id,
            "generation": _cell(s.generation),
            "evaluations": _cell(s.evaluations),
            "max_eps": _cell(s.max_eps),
            "mean_eps_members": _cell(s.mean_eps_members),
            "mean_eps_endpoints": _cell(s.mean_eps_endpoints),
        }
        for s in metric_samples
    ]
    trace = {
        "run_id": run_id,
        "algorithm": cells["algorithm"],
        "problem": cells["problem"] or cells["instance"],
        "n": cells["n"],
        "phi": cells["phi"],
        "seed": cells["seed"],
        "evaluations": _cell(evaluations),
        "iterations": _cell(generations),
        "hit_time": _cell(hit),
        "wall_ms": _cell(wall),
    }
    return RunRecord(summary, metrics, trace)


def _run_pair(args: Tuple[ExperimentConfig, int]) -> RunRecord:
    return run_single(*args)


@dataclass
class ExperimentResult:
    summary_rows: List[Dict[str, str]]
    metric_rows: List[Dict[str, str]]
    trace_rows: List[Dict[str, str]]
    aggregate_rows: List[Dict[str, str]]


def _sort_key(row: Dict[str, str]):
    return (
        row["algorithm"], row["problem"], row["instance"],
        int(row["n"] or 0),
        float(row["phi"]) if row["phi"] else -1.0,
        row["eps1"], row["eps2"], row["eps2max"],
        int(row["budget"]),
        int(row["seed"]),
    )


def run_many(configs: Sequence[ExperimentConfig], *, jobs: int = 1) -> ExperimentResult:
    """Run every (config, seed) pair; rows come back in canonical order."""
    pairs = [(c, s) for c in configs for s in c.seeds]
    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_pair, pairs))
    else:
        records = [run_single(c, s) for c, s in pairs]
    order = sorted(range(len(records)), key=lambda i: _sort_key(records[i].summary))
    summary = [records[i].summary for i in order]
    metrics = [m for i in order for m in records[i].metrics]
    traces = [records[i].trace for i in order]
    return ExperimentResult(summary, metrics, traces, aggregate_rows(summary))


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> ExperimentResult:
    return run_many([config], jobs=jobs)


def aggregate_rows(summary_rows: Sequence[Dict[str, str]]) -> List[Dict[str, str]]:
    """Per-config mean and population standard deviation of the count columns."""
    groups: Dict[Tuple, List[Dict[str, str]]] = {}
    for row in summary_rows:
        key = tuple(row[f] for f in CONFIG_FIELDS)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: _sort_key(dict(zip(CONFIG_FIELDS, k), seed="0"))):
        rows = groups[key]
        ok = [r for r in rows if not r["error"]]
        hits = [int(r["hit_time"]) for r in ok if r["hit_time"]]
        agg = dict(zip(CONFIG_FIELDS, key))
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
    """Per-config statistics plus a log-log slope of mean evaluations versus n.

    Rows with errors are left out. Groups collapse the size column, so a group
    with at least two sizes (and nonzero spread in log n) gets a least-squares
    slope with its intercept and root-mean-square residual; smaller groups
    report means only.
    """
    groups: Dict[Tuple, Dict[int, List[int]]] = {}
    for row in summary_rows:
        if row["error"]:
            continue
        key = tuple(row[f] for f in ("algorithm", "problem", "instance", "phi", "eps1", "eps2", "eps2max"))
        groups.setdefault(key, {}).setdefault(int(row["n"]), []).append(int(row["evaluations"]))
    report: Dict[str, dict] = {}
    for key, by_n in sorted(groups.items()):
        label = " ".join(f"{f}={v}" for f, v in zip(("algorithm", "problem", "instance", "phi", "eps1", "eps2", "eps2max"), key) if v)
        per_n = {
            n: {
                "runs": len(vals),
                "mean": statistics.fmean(vals),
                "std": statistics.pstdev(vals),
                "min": min(vals),
                "max": max(vals),
            }
            for n, vals in sorted(by_n.items())
        }
        entry: dict = {"per_n": per_n}
        points = [(math.log(n), math.log(st["mean"])) for n, st in per_n.items() if st["mean"] > 0]
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
        report[label] = entry
    return report


@contextlib.contextmanager
def atomic_open(path, newline: Optional[str] = None):
    """Write through a temp file in the target directory, then rename over."""
    path = FsPath(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
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


def write_result(result: ExperimentResult, out_dir) -> Dict[str, FsPath]:
    out = FsPath(out_dir)
    paths = {
        "summary": out / "summary.csv",
        "metrics": out / "metrics.csv",
        "traces": out / "traces.csv",
        "aggregates": out / "aggregates.csv",
    }
    write_csv(paths["summary"], SUMMARY_COLUMNS, result.summary_rows)
    write_csv(paths["metrics"], METRIC_COLUMNS, result.metric_rows)
    write_csv(paths["traces"], TRACE_COLUMNS, result.trace_rows)
    write_csv(paths["aggregates"], AGGREGATE_COLUMNS, result.aggregate_rows)
    return paths


def config_from_row(row: Dict[str, str], *, cadence: int = DEFAULT_CADENCE) -> Tuple[ExperimentConfig, int]:
    """Rebuild the (config, seed) pair a summary row came from."""
    config = ExperimentConfig(
        algorithm=row["algorithm"],
        problem=row["problem"],
        instance=row["instance"],
        n=int(row["n"]) if row["n"] else 0,
        phi=float(row["phi"]) if row["phi"] else None,
        eps1=Fraction(row["eps1"]) if row["eps1"] else None,
        eps2=Fraction(row["eps2"]) if row["eps2"] else None,
        eps2max=Fraction(row["eps2max"]) if row["eps2max"] else None,
        seeds=(int(row["seed"]),),
        budget=int(row["budget"]),
        cadence=cadence,
    )
    return config, int(row["seed"])


def replay_row(row: Dict[str, str]) -> Tuple[Dict[str, str], List[str]]:
    """Rerun one summary row; returns the fresh row and the mismatched columns."""
    config, seed = config_from_row(row)
    fresh = run_single(config, seed).summary
    mismatches = [c for c in SUMMARY_COLUMNS if fresh.get(c, "") != row.get(c, "")]
    return fresh, mismatches


_LIST_KEYS = ("algorithm", "problem", "n", "phi", "eps", "eps1", "eps2", "eps2max", "budget")
_SWEEP_KEYS = set(_LIST_KEYS) | {"instance", "seeds", "cadence"}


def _parse_seeds(value: str) -> Tuple[int, ...]:
    value = value.strip()
    if ":" in value:
        lo, hi = value.split(":", 1)
        return tuple(range(int(lo), int(hi)))
    return tuple(int(t) for t in value.split(","))


def parse_sweep_text(text: str, *, base_dir=None) -> List[ExperimentConfig]:
    """Flat key=value sweep file; comma-separated values fan out as a product.

    ``seeds`` accepts ``lo:hi`` (half-open) or a comma list and applies to
    every produced config. ``eps`` is shorthand for equal eps1 and eps2.
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
    if "eps" in data and ("eps1" in data or "eps2" in data):
        raise ValueError("give either eps or eps1/eps2, not both")

    seeds = _parse_seeds(data.pop("seeds", "0"))
    cadence = int(data.pop("cadence", str(DEFAULT_CADENCE)))
    instance = data.pop("instance", "")
    if instance and instance != "fixture" and base_dir is not None and not os.path.isabs(instance):
        instance = str(FsPath(base_dir) / instance)

    axes: List[Tuple[str, List[str]]] = []
    for key in _LIST_KEYS:
        if key in data:
            axes.append((key, [t.strip() for t in data[key].split(",")]))

    combos: List[Dict[str, str]] = [{}]
    for key, values in axes:
        combos = [dict(c, **{key: v}) for c in combos for v in values]

    configs = []
    for combo in combos:
        eps = combo.pop("eps", None)
        kwargs = dict(
            algorithm=combo["algorithm"],
            problem=combo.get("problem", ""),
            instance=instance,
            n=int(combo["n"]) if "n" in combo else 0,
            phi=float(combo["phi"]) if "phi" in combo else None,
            eps1=Fraction(combo["eps1"]) if "eps1" in combo else None,
            eps2=Fraction(combo["eps2"]) if "eps2" in combo else None,
            eps2max=Fraction(combo["eps2max"]) if "eps2max" in combo else None,
            seeds=seeds,
            cadence=cadence,
        )
        if eps is not None:
            kwargs["eps1"] = kwargs["eps2"] = Fraction(eps)
        if "budget" in combo:
            kwargs["budget"] = int(combo["budget"])
        configs.append(ExperimentConfig(**kwargs))
    return configs
