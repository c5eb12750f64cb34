"""Span tracer that wraps the public calls into each mpmolab layer.

Nothing under ``src/`` is edited: ``install`` replaces module and class
attributes with timing wrappers at run time, so it must run after
``mpmolab`` is imported and before the calls it should see. Names that a
module imported by value (``from .x import f``) are patched in the importing
module, which is where the call looks them up.

Every wrapped call keeps call counts and inclusive, self and own-layer time
in per-name statistics. Self time is the call's duration minus its wrapped
children, where each child is charged with the wrapper's own bookkeeping for
it as well as its span: the part measured inside the wrapper, plus the
calibrated cost of entering and leaving the wrapper (``Tracer.calibrate``).
So the tracer's cost is not counted as the caller's work. Own-layer time
subtracts only the outermost nested calls of *other* layers, and the wrappers
of all nested calls, so a runner's own-layer time is all the work its layer
did for it.
Coarse calls (rows, runners, catalogs, file parsing, CSV writing) also keep a
span record (name, start, end, parent span, run_id) in memory; hot leaves
(one call per step or per bit flip) keep only the statistics, since a span
each would cost hundreds of megabytes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Callable, Dict, List, Optional

# A frame is [child_ns, foreign_ns, layer, span_id] for one open call.
_CHILD, _FOREIGN, _LAYER, _SPAN = range(4)


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "layer_ns", "wrap_ns", "durations", "hits", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.layer_ns = 0
        self.wrap_ns = 0  # wrapper bookkeeping charged to these calls rather than their callers
        self.durations: List[int] = []
        self.hits = 0
        self.keys: set = set()


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.stack: List[list] = [[0, 0, None, -1]]
        self.stats: Dict[str, Stat] = {}
        self.spans: List[list] = []
        self.next_span = 0
        self.entry_ns = 0  # calibrated wrapper cost outside its own clock readings

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> int:
        """Set ``entry_ns``: what a wrapped call costs its caller beyond what
        the wrapper measures, less what calling the bare function costs.

        A caller loops over a wrapped no-op and over the bare no-op; the
        difference of the two loops' self times, per call, is the median
        over ``rounds`` rounds.
        """
        probe = Tracer()
        noop = lambda: None
        wrapped = probe.wrap(noop, "noop", "probe")

        def loop(fn):
            for _ in range(calls):
                fn()

        with_wrapper = probe.wrap(loop, "with", "caller")
        bare = probe.wrap(loop, "bare", "caller")
        diffs = []
        for _ in range(rounds):
            before = probe.stat("with").self_ns - probe.stat("bare").self_ns
            with_wrapper(wrapped)
            bare(noop)
            diffs.append(probe.stat("with").self_ns - probe.stat("bare").self_ns - before)
        self.entry_ns = max(0, round(statistics.median(diffs) / calls))
        return self.entry_ns

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        *,
        span: bool = False,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped; ``pre(args)`` runs untimed before the call and
        ``post(stat, args, result, pre_value)`` untimed after it. Wrap after
        ``calibrate``: the wrapper keeps the ``entry_ns`` of the moment."""
        stack, clock, stat = self.stack, self.clock, self.stat(name)
        spans, entry_ns = self.spans, self.entry_ns
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            before = pre(args) if pre is not None else None
            parent = stack[-1]
            if span:
                span_id = tracer.next_span
                tracer.next_span += 1
            else:
                span_id = parent[_SPAN]
            frame = [0, 0, layer, span_id]
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    stat.calls += 1
                    stat.total_ns += dur
                    stat.self_ns += dur - frame[_CHILD]
                    stat.layer_ns += dur - frame[_FOREIGN]
                    if span:
                        stat.durations.append(dur)
                        spans.append([span_id, name, start, end, parent[_SPAN], "", dur - frame[_CHILD]])
                if post is not None:
                    post(stat, args, result, before)
            finally:
                cost = clock() - enter + entry_ns
                stat.wrap_ns += cost - dur
                parent[_CHILD] += cost
                parent[_FOREIGN] += cost if parent[_LAYER] != layer else frame[_FOREIGN] + cost - dur
            return result

        traced.__wrapped__ = fn
        return traced

    def label_row(self, run_id: str, row_start: int) -> None:
        """Stamp the row's run_id on the spans it produced (children close first)."""
        for rec in reversed(self.spans):
            if rec[2] < row_start:
                break
            rec[5] = run_id

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "run_id", "self_ns")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _count_true(stat, args, result, before):
    if result is True:
        stat.hits += 1


def _count_none(stat, args, result, before):
    if result is None:
        stat.hits += 1


def _count_cached(stat, args, result, before):
    if before:
        stat.hits += 1


def _add_evaluations(stat, args, result, before):
    stat.hits += result.evaluations


def _graph_key(stat, args, result, before):
    g = args[0]
    stat.keys.add(hashlib.sha256(repr((g.n, g.edge_items())).encode()).hexdigest())


def _text_key(stat, args, result, before):
    stat.keys.add(hashlib.sha256(args[0].encode()).hexdigest())


PB_RUNNERS = ("run_semo", "run_empmo_simple", "run_empmo_random", "run_empmo_payoff")
SP_RUNNERS = ("run_empmo_cons_sp", "run_empmo_simple_sp", "run_demo_sp")


def install(tracer: Tracer) -> None:
    """Patch the layer entry points of the imported mpmolab package."""
    from mpmolab import harness, instances, oracles, pseudoboolean, shortestpath

    tracer.calibrate()
    def patch(owner, attr, name, layer, **kw):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, layer, **kw))

    patch(pseudoboolean, "payoff_component", "core.payoff_component", "core")
    for runner in PB_RUNNERS:
        patch(harness, runner, f"pseudoboolean.{runner}", "pseudoboolean", span=True, post=_add_evaluations)

    patch(shortestpath._BoxArchive, "step", "shortestpath.step", "shortestpath", post=_count_true)
    patch(shortestpath, "mutate_path", "shortestpath.mutate_path", "shortestpath", post=_count_none)
    patch(shortestpath, "eval_path", "shortestpath.eval_path", "shortestpath")
    patch(
        shortestpath.BoxBase, "floor_log", "shortestpath.floor_log", "shortestpath",
        pre=lambda args: args[1] in args[0]._cache, post=_count_cached,
    )
    patch(shortestpath, "ultimatum_consensus", "shortestpath.ultimatum_consensus", "shortestpath", span=True)
    for runner in SP_RUNNERS:
        patch(harness, runner, f"shortestpath.{runner}", "shortestpath", span=True, post=_add_evaluations)

    patch(oracles, "exact_path_catalog", "oracles.exact_path_catalog", "oracles", span=True, post=_graph_key)
    patch(oracles, "epsilon_of_solution", "oracles.epsilon_of_solution", "oracles")

    patch(harness, "parse_instance", "instances.parse_instance", "instances", span=True, post=_text_key)
    patch(instances, "generate_planted_uav", "instances.generate_planted_uav", "instances", span=True)

    def row_done(stat, args, result, before):
        tracer.label_row(result.summary["run_id"], tracer.spans[-1][2])

    patch(harness, "run_single", "harness.run_single", "harness", span=True, post=row_done)
    patch(harness, "write_result", "harness.write_result", "harness", span=True)
    make_metric_fn = harness.make_metric_fn
    harness.make_metric_fn = lambda refs: tracer.wrap(make_metric_fn(refs), "harness.metric_fn", "harness")


def _quantile(values: List[int], q: int) -> float:
    """The q-th percentile of ``values`` (inclusive method, exact at 0 and 100)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, sweep_ns: int, rows: int, evaluations: int) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep; absent layers read 0."""
    stats = tracer.stats
    get = lambda name: stats.get(name) or Stat()
    ratio = lambda a, b: a / b if b else 0.0
    out: Dict[str, float] = {}

    def mean(name, unit_ns, *, own=False):
        s = get(name)
        return ratio(s.self_ns if own else s.total_ns, s.calls) / unit_ns

    def share(name, *, layer=False):
        s = get(name)
        return ratio(s.layer_ns if layer else s.self_ns, sweep_ns)

    out["core.payoff_component.calls"] = get("core.payoff_component").calls
    out["core.payoff_component.us"] = mean("core.payoff_component", 1e3)
    for runner in PB_RUNNERS:
        s = get(f"pseudoboolean.{runner}")
        out[f"pseudoboolean.{runner}.ns_per_eval"] = ratio(s.layer_ns, s.hits)
        out[f"pseudoboolean.{runner}.share"] = share(f"pseudoboolean.{runner}", layer=True)

    step = get("shortestpath.step")
    out["shortestpath.step.calls"] = step.calls
    out["shortestpath.step.us"] = mean("shortestpath.step", 1e3, own=True)
    out["shortestpath.step.accept_ratio"] = ratio(step.hits, step.calls)
    out["shortestpath.step.share"] = share("shortestpath.step")
    mutate = get("shortestpath.mutate_path")
    out["shortestpath.mutate_path.us"] = mean("shortestpath.mutate_path", 1e3)
    out["shortestpath.mutate_path.none_ratio"] = ratio(mutate.hits, mutate.calls)
    out["shortestpath.mutate_path.share"] = share("shortestpath.mutate_path")
    out["shortestpath.eval_path.calls"] = get("shortestpath.eval_path").calls
    out["shortestpath.eval_path.us"] = mean("shortestpath.eval_path", 1e3)
    out["shortestpath.eval_path.share"] = share("shortestpath.eval_path")
    floor = get("shortestpath.floor_log")
    out["shortestpath.floor_log.calls"] = floor.calls
    out["shortestpath.floor_log.misses"] = floor.calls - floor.hits
    out["shortestpath.floor_log.hit_ratio"] = ratio(floor.hits, floor.calls)
    out["shortestpath.floor_log.share"] = share("shortestpath.floor_log")
    out["shortestpath.ultimatum_consensus.ms"] = mean("shortestpath.ultimatum_consensus", 1e6)
    for runner in SP_RUNNERS:
        out[f"shortestpath.{runner}.share"] = share(f"shortestpath.{runner}", layer=True)

    catalog = get("oracles.exact_path_catalog")
    out["oracles.exact_path_catalog.calls"] = catalog.calls
    out["oracles.exact_path_catalog.ms"] = mean("oracles.exact_path_catalog", 1e6)
    out["oracles.exact_path_catalog.share"] = share("oracles.exact_path_catalog")
    out["oracles.exact_path_catalog.distinct_ratio"] = ratio(len(catalog.keys), catalog.calls)
    out["oracles.epsilon_of_solution.calls"] = get("oracles.epsilon_of_solution").calls
    out["oracles.epsilon_of_solution.us"] = mean("oracles.epsilon_of_solution", 1e3)

    parse = get("instances.parse_instance")
    out["instances.parse_instance.calls"] = parse.calls
    out["instances.parse_instance.us"] = mean("instances.parse_instance", 1e3)
    out["instances.parse_instance.distinct_ratio"] = ratio(len(parse.keys), parse.calls)
    out["instances.generate_planted_uav.ms"] = mean("instances.generate_planted_uav", 1e6)

    row = get("harness.run_single")
    out["harness.run_single.ms_p50"] = _quantile(row.durations, 50) / 1e6 if row.durations else 0.0
    out["harness.run_single.ms_p90"] = _quantile(row.durations, 90) / 1e6 if row.durations else 0.0
    out["harness.run_single.self_ms"] = mean("harness.run_single", 1e6, own=True)
    metric = get("harness.metric_fn")
    out["harness.metric_fn.calls"] = metric.calls
    out["harness.metric_fn.us"] = mean("harness.metric_fn", 1e3)
    out["harness.metric_fn.share"] = share("harness.metric_fn", layer=True)
    out["harness.write_result.ms"] = mean("harness.write_result", 1e6)
    out["harness.rows"] = rows
    out["harness.evaluations"] = evaluations
    out["trace.entry_ns"] = tracer.entry_ns
    out["trace.wrap_share"] = ratio(sum(s.wrap_ns for s in stats.values()), sweep_ns)
    return out
