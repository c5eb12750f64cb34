"""Bi-party multi-objective shortest paths: graphs, boxes, and archive search.

Vertices are numbered 1..n with vertex 1 as the source. Every edge carries one
positive integer weight per objective per party, and all objectives are
minimized. Paths are vertex tuples; repeated vertices (walks) are legal, with
sequence length capped so mutation cannot grow paths without bound. Since every
weight is at least 1, a walk that revisits a vertex is strictly dominated by
the walk with the cycle cut out, so the archives shed such detours on their
own.

Approximation is multiplicative: a path (1+eps)-weakly dominates another path
to the same endpoint when each of its objectives is within the (1+eps) factor.
Box indices discretize objective vectors to floored log_r values; box
comparisons are exact integer arithmetic, never floating-point logs, so runs
are reproducible across platforms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt, sub
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import MultiPartyObjectives, approx_degree, randbelow, weak_ge

SOURCE = 1
# graph runs sample their metric every this many generations, and at the last
METRIC_CADENCE = 100
Path = Tuple[int, ...]


def as_fraction(x) -> Fraction:
    """Exact conversion; floats go through str() so 0.1 means 1/10."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


class WeightedDigraph:
    """Directed graph with per-party positive integer edge weights.

    ``edges`` maps (u, v) to a pair of weight tuples, one tuple per party.
    Every vertex must be reachable from the source; weight arities must agree
    across edges. ``flat`` maps each edge to its weights as one vector, party
    1's first (``w1 + w2``); it is for reading only.
    """

    def __init__(self, n: int, edges: Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]]):
        if n < 2:
            raise ValueError("graph needs at least two vertices")
        if not edges:
            raise ValueError("graph has no edges")
        arity = None
        succ: Dict[int, List[int]] = {}
        for (u, v), ws in edges.items():
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) endpoint out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if len(ws) != 2:
                raise ValueError(f"edge ({u},{v}) must carry weights for exactly two parties")
            ka = (len(ws[0]), len(ws[1]))
            if arity is None:
                arity = ka
            elif ka != arity:
                raise ValueError(f"edge ({u},{v}) weight arity {ka} differs from {arity}")
            for party in ws:
                for w in party:
                    if not isinstance(w, int) or w < 1:
                        raise ValueError(f"edge ({u},{v}) has non-positive or non-integer weight {w!r}")
            succ.setdefault(u, []).append(v)
        if arity[0] < 1 or arity[1] < 1:
            raise ValueError("each party needs at least one objective")
        self.n = n
        self.k = arity
        self._edges = {uv: (tuple(ws[0]), tuple(ws[1])) for uv, ws in edges.items()}
        self._succ = {u: tuple(sorted(vs)) for u, vs in succ.items()}
        self.flat = {uv: w1 + w2 for uv, (w1, w2) in self._edges.items()}
        self._bridges: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        seen = {SOURCE}
        frontier = [SOURCE]
        while frontier:
            u = frontier.pop()
            for v in self._succ.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) < n:  # scan only on failure, so a huge n costs no memory
            missing = next(v for v in range(1, n + 1) if v not in seen)
            raise ValueError(f"vertex {missing} unreachable from source")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def successors(self, u: int) -> Tuple[int, ...]:
        return self._succ.get(u, ())

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def bridges(self, u: int, w: int) -> Tuple[int, ...]:
        """The vertices v with edges u->v and v->w, in ``successors(u)`` order."""
        out = self._bridges.get((u, w))
        if out is None:
            edges = self._edges
            out = tuple(v for v in self.successors(u) if (v, w) in edges)
            self._bridges[(u, w)] = out
        return out

    def weights(self, u: int, v: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        try:
            return self._edges[(u, v)]
        except KeyError:
            raise ValueError(f"no edge {u}->{v}") from None

    def edge_items(self):
        return sorted(self._edges.items())

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def max_weight(self, party: int) -> int:
        return max(max(ws[party]) for ws in self._edges.values())


def eval_path(g: WeightedDigraph, p: Sequence[int]) -> MultiPartyObjectives:
    """Entrywise edge-weight sums per party; the bare source path is all-zero."""
    if not p or p[0] != SOURCE:
        raise ValueError("path must start at the source vertex")
    k1, k2 = g.k
    acc1 = [0] * k1
    acc2 = [0] * k2
    for u, v in zip(p, p[1:]):
        w1, w2 = g.weights(u, v)
        for idx in range(k1):
            acc1[idx] += w1[idx]
        for idx in range(k2):
            acc2[idx] += w2[idx]
    return (tuple(acc1), tuple(acc2))


@dataclass(frozen=True)
class BoxBase:
    """Box base r = (num/den)^(1/root), exact for box-index purposes.

    floor(log_r f) is evaluated with integer arithmetic: r^t <= f is
    equivalent to (num/den)^t <= f^root, so a float guess is verified and
    corrected with exact comparisons. Results are cached per base.
    """

    num: int
    den: int
    root: int = 1

    def __post_init__(self) -> None:
        if self.den < 1 or self.num <= self.den:
            raise ValueError("box base must be a rational > 1")
        if self.root < 1:
            raise ValueError("root must be a positive integer")
        object.__setattr__(self, "_cache", {})

    @classmethod
    def plain(cls, r) -> "BoxBase":
        fr = as_fraction(r)
        return cls(fr.numerator, fr.denominator, 1)

    @classmethod
    def power(cls, base, root: int) -> "BoxBase":
        """The base ``base^(1/root)``, e.g. (1+eps)^(1/(n-1))."""
        fr = as_fraction(base)
        return cls(fr.numerator, fr.denominator, root)

    def floor_log(self, f: int) -> int:
        """Largest t >= 0 with r^t <= f, for integer f >= 1."""
        cache = self._cache
        t = cache.get(f)
        if t is not None:
            return t
        if f < 1:
            raise ValueError(f"box index needs objective values >= 1, got {f}")
        if f == 1:
            cache[1] = 0
            return 0
        guess = int(math.log(f) * self.root / math.log(self.num / self.den))
        t = max(0, guess - 1)
        target = f**self.root
        num, den = self.num, self.den
        while num ** (t + 1) <= target * den ** (t + 1):
            t += 1
        while t > 0 and num**t > target * den**t:
            t -= 1
        cache[f] = t
        return t


def box_base(n: int, *slacks) -> BoxBase:
    """The box base (1+min(slacks))^(1/(n-1)) of an n-vertex graph."""
    return BoxBase.power(1 + min(slacks), n - 1)


@dataclass(frozen=True)
class ApproxParams:
    """Approximation slacks; the relaxation cap ``eps_2_max`` defaults to ``eps_2``."""

    eps_1: Fraction
    eps_2: Fraction
    eps_2_max: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.eps_2_max is None:
            object.__setattr__(self, "eps_2_max", self.eps_2)
        for name in ("eps_1", "eps_2", "eps_2_max"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.eps_1 <= 0 or self.eps_2 <= 0:
            raise ValueError("approximation slacks must be positive")
        if self.eps_2_max < self.eps_2:
            raise ValueError("eps_2_max must be at least eps_2")


def _child(p: Path, i: int, sign: int, v: int) -> Path:
    """The path an edit makes: v inserted after position i, or the vertex after i cut."""
    if sign > 0:
        return p[: i + 1] + (v,) + p[i + 1 :]
    return p[: i + 1] + p[i + 2 :]


def mutate_path(g: WeightedDigraph, p: Sequence[int], rng: random.Random) -> Optional[Path]:
    """One Add/Delete path mutation; returns the new path or None for no change.

    A fair coin picks Add or Delete. Add draws a uniform position i in 0..l:
    interior positions insert a uniformly chosen vertex v' with both bridging
    edges present (``g.bridges``), position l appends a uniform successor of
    the last vertex. Delete draws a uniform interior index i in 1..l-1: for
    i <= l-2 the vertex after position i is cut if the shortcut edge exists,
    i = l-1 drops the last vertex. A draw with no valid completion returns
    None without consuming further randomness; Add on a walk already at 2n
    vertices returns None before the position draw. Integer draws are
    ``core.randbelow``. A path that is not a walk of ``g`` from the source
    raises ValueError, as ``eval_path`` does, before any draw.

    ``_BoxArchive.step`` makes the same draws from its own inline copy;
    ``tests/test_shortestpath.py`` pins both to reference edits of its own.
    """
    p = tuple(p)
    eval_path(g, p)
    getrandbits = rng.getrandbits
    last = len(p) - 1
    if rng.random() < 0.5:
        if len(p) >= 2 * g.n:
            return None
        i = randbelow(getrandbits, last + 1)
        options = g.successors(p[i]) if i == last else g.bridges(p[i], p[i + 1])
        if not options:
            return None
        return _child(p, i, 1, options[randbelow(getrandbits, len(options))])
    if last < 2:
        return None
    i = 1 + randbelow(getrandbits, last - 1)
    if i < last - 1 and not g.has_edge(p[i], p[i + 2]):
        return None
    return _child(p, i, -1, p[i + 1])


class SpEntry:
    """Archive member; ``birth`` is the generation that last enrolled it."""

    __slots__ = ("path", "endpoint", "flat", "objectives", "lanes", "boxes", "birth")

    def __init__(self, path, endpoint, flat, objectives, lanes, boxes, birth):
        self.path = path
        self.endpoint = endpoint
        self.flat = flat
        self.objectives = objectives
        self.lanes = lanes
        self.boxes = boxes
        self.birth = birth


@dataclass(frozen=True)
class MetricSample:
    generation: int
    evaluations: int
    max_eps: float
    mean_eps_members: float
    mean_eps_endpoints: float


@dataclass
class SpRunResult:
    """One graph run: one pool per archive, source entry first; ``outcomes`` is simple-sp's round."""

    generations: int
    evaluations: int
    no_change: int
    archives: Tuple[List[SpEntry], ...]
    metrics: List[MetricSample]
    hit_evaluations: Optional[int]
    max_archive_size: int
    outcomes: Optional[Dict[int, ConsensusOutcome]] = None


class _BoxArchive:
    """Endpoint-bucketed archive with per-lane strict-dominance acceptance.

    A lane is one view of the objective vector (one party, or the whole
    concatenation). An offspring is accepted iff some lane sees no incumbent of
    the same endpoint strictly dominating it in either objectives or box
    indices; on acceptance, incumbents whose boxes are weakly dominated in all
    lanes are dropped. The bare source path is the permanent first pool entry;
    it takes part in parent selection only, and walks that return to the
    source are rejected outright since the empty path already dominates them.

    ``step`` takes the generator's ``getrandbits`` and ``random``, bound once
    per run by ``_search``, and makes ``mutate_path``'s draws from its own
    copy held inline, which the replay tests pin to a reference edit of the
    tests' own, so a step that ends at a no-change or at the memo is one
    Python frame. It computes the child's objectives from its parent's: the
    parent's flat vector (both parties' objectives, concatenated) plus or minus the
    weights of the one or three edges the edit changed, with exactly the sums
    ``eval_path`` would give. ``BoxBase`` caches ``floor_log`` per value, so each box index
    is computed once per distinct objective value and base. Since
    ``floor_log`` is monotone, an incumbent whose objectives weakly dominate a
    lane also does so in boxes, so the rejection scan compares boxes first
    and objectives only where the boxes are equal.

    ``targets`` maps each endpoint to its references, as ``make_metric_fn``
    takes them. An endpoint is covered when each of its references is weakly
    dominated in both parties' objectives by some member there, so vacuously
    when it has none. ``uncovered`` holds the endpoints not covered; it is
    None without targets, so an empty map or None never hits.

    An accepted child whose path a member already holds drops that member
    (its twin: same vector, so same boxes) with the others it dominates, and
    the twin is then enrolled again with the child's birth generation instead
    of a new record. This is exact: a new record would carry the same path,
    vector and views, and a drop followed by an append leaves pool order and
    bucket order as a new record would. The child path is built only once
    the child is accepted.

    An endpoint's member set changes only in ``seed_path``, at a new record,
    and at a twin that drops others with it; a twin moved alone leaves it as
    it was. There, and only there, ``_changed`` clears that endpoint's step
    memo, recounts its coverage and updates the peak pool size ``max_size``.

    The step memo is the step's one fast path. Each endpoint keeps a memo of
    the steps judged there since its member set last changed. The key is
    (parent, i, sign, v): the parent member by identity, and the edit, which
    fixes the child's path, vector and endpoint. The value is None for a
    rejected child, or the member the child left enrolled, which the same
    child would hand back as its twin. A step looks it up after every draw
    and the source check, so draws and evaluation counts are unchanged; on a
    hit it rejects, or moves that member as a twin to the end of its bucket
    and the pool, as ``_drop`` and ``_enroll`` would. A change of an
    endpoint's member set clears that endpoint's memo, and no other. This is
    exact:

    - a verdict reads only the child's path, vector and endpoint, and the
      member set of that endpoint's bucket;
    - the scans are existential, so bucket order does not matter;
    - drops happen only in the child's own bucket, so a step changes no
      other endpoint's verdicts;
    - a dropped member that is not a twin is never enrolled again, so its
      stale keys in other endpoints' memos never match; they are dropped
      with the archive;
    - coverage never enters a verdict.

    After a change the step's own verdict is stored again: re-judged against
    the new bucket, the same child is accepted and dooms only the member it
    left there.
    """

    def __init__(
        self,
        g: WeightedDigraph,
        slices: Tuple[Tuple[int, int], ...],
        bases: Tuple[BoxBase, ...],
        targets: Optional[Mapping[int, Sequence[MultiPartyObjectives]]] = None,
    ):
        self.g = g
        self.slices = slices
        self.bases = bases
        self.max_len = 2 * g.n
        # each endpoint's references as flat vectors, party 1's objectives first
        self.targets = {e: [m[0] + m[1] for m in refs] for e, refs in (targets or {}).items()}
        self.uncovered = {e for e, refs in self.targets.items() if refs} if self.targets else None
        # per endpoint: (parent, i, sign, v) -> None (rejected) or the member the child hands back
        self._memos: Dict[int, Dict[tuple, Optional[SpEntry]]] = {}
        k1, k2 = g.k
        zero = (0,) * (k1 + k2)
        src = SpEntry((SOURCE,), SOURCE, zero, (zero[:k1], zero[k1:]), (), (), 0)
        self.pool: List[SpEntry] = [src]
        self.buckets: Dict[int, List[SpEntry]] = {}
        self.evaluations = 0
        self.no_change = 0
        self.max_size = 1

    def _views(self, flat: Tuple[int, ...]):
        """The (objectives, lanes, boxes) of a flat vector."""
        k1 = self.g.k[0]
        lanes = tuple([flat[a:b] for a, b in self.slices])
        boxes = tuple([tuple([base.floor_log(c) for c in lane]) for lane, base in zip(lanes, self.bases)])
        return (flat[:k1], flat[k1:]), lanes, boxes

    def _enroll(self, rec: SpEntry) -> None:
        self.buckets.setdefault(rec.endpoint, []).append(rec)
        self.pool.append(rec)

    def _drop(self, rec: SpEntry) -> None:
        self.buckets[rec.endpoint].remove(rec)
        self.pool.remove(rec)

    def _changed(self, endpoint: int) -> None:
        """Bring the endpoint's memo and coverage, and the peak, up to date with its new member set."""
        memo = self._memos.get(endpoint)
        if memo:
            memo.clear()
        refs = self.targets.get(endpoint)
        if refs:
            bucket = self.buckets[endpoint]
            if all(any(weak_ge(ref, z.flat) for z in bucket) for ref in refs):
                self.uncovered.discard(endpoint)
            else:
                self.uncovered.add(endpoint)
        if len(self.pool) > self.max_size:
            self.max_size = len(self.pool)

    def seed_path(self, path: Sequence[int]) -> None:
        """Insert a given path as-is (evaluated, counted, no acceptance test)."""
        path = tuple(path)
        obj = eval_path(self.g, path)
        self.evaluations += 1
        if len(path) > 1 and path[-1] == SOURCE:
            raise ValueError("cannot seed a walk that returns to the source")
        if len(path) > 1:
            flat = obj[0] + obj[1]
            self._enroll(SpEntry(path, path[-1], flat, *self._views(flat), 0))
            self._changed(path[-1])

    def step(self, getrandbits: Callable[[int], int], random: Callable[[], float], generation: int) -> bool:
        # the parent draw, then mutate_path's draws; each is core.randbelow written inline
        pool = self.pool
        size = len(pool)
        k = size.bit_length()
        i = getrandbits(k)
        while i >= size:
            i = getrandbits(k)
        parent = pool[i]
        p = parent.path
        g = self.g
        size = len(p)
        last = size - 1
        v = None
        if random() < 0.5:
            sign = 1
            if size < self.max_len:
                k = size.bit_length()
                i = getrandbits(k)
                while i >= size:
                    i = getrandbits(k)
                u = p[i]
                if i == last:
                    options = g._succ.get(u)
                    w = None
                else:
                    w = p[i + 1]
                    options = g._bridges.get((u, w))
                    if options is None:
                        options = g.bridges(u, w)
                if options:
                    size = len(options)
                    k = size.bit_length()
                    j = getrandbits(k)
                    while j >= size:
                        j = getrandbits(k)
                    v = options[j]
        elif last >= 2:
            sign = -1
            size = last - 1
            k = size.bit_length()
            i = getrandbits(k)
            while i >= size:
                i = getrandbits(k)
            i += 1
            if i == last - 1:
                u, v, w = p[i], p[last], None
            else:
                u, w = p[i], p[i + 2]
                if (u, w) in g._edges:
                    v = p[i + 1]
        if v is None:
            self.no_change += 1
            return False
        self.evaluations += 1
        # an interior edit keeps the endpoint; an end edit appends v or falls back to u
        endpoint = p[-1] if w is not None else v if sign > 0 else u
        if endpoint == SOURCE:
            return False
        memo = self._memos.get(endpoint)
        if memo is None:
            memo = self._memos[endpoint] = {}
        key = (parent, i, sign, v)
        twin = memo.get(key, False)
        if twin is not False:
            if twin is None:
                return False
            bucket = self.buckets[endpoint]
            bucket.remove(twin)
            bucket.append(twin)
            pool.remove(twin)
            pool.append(twin)
            twin.birth = generation
            return True
        weights = g.flat
        delta = weights[(u, v)]
        if w is not None:
            delta = tuple(map(sub, map(add, delta, weights[(v, w)]), weights[(u, w)]))
        flat = tuple(map(add if sign > 0 else sub, parent.flat, delta))
        views = self._views(flat)
        bucket = self.buckets.get(endpoint)
        doomed = ()
        if bucket:
            _, lanes, boxes = views
            # accept at the first lane where no incumbent strictly dominates
            # the child in boxes or, with equal boxes, in objectives
            for li in range(len(lanes)):
                lane, box = lanes[li], boxes[li]
                for z in bucket:
                    zb = z.boxes[li]
                    if zb == box:
                        zl = z.lanes[li]
                        if zl != lane and not any(map(gt, zl, lane)):
                            break
                    elif not any(map(gt, zb, box)):
                        break
                else:
                    break
            else:
                memo[key] = None
                return False
            # drop the incumbents whose boxes the child weakly dominates in every lane
            doomed = []
            for z in bucket:
                for box, zb in zip(boxes, z.boxes):
                    if any(map(gt, box, zb)):
                        break
                else:
                    doomed.append(z)
        child = _child(p, i, sign, v)
        twin = None
        for z in doomed:
            self._drop(z)
            if z.path == child:
                twin = z
        # a new record, or a twin that drops others with it, changes the endpoint's member set
        changed = twin is None or len(doomed) > 1
        if twin is None:
            twin = SpEntry(child, endpoint, flat, *views, generation)
        else:
            twin.birth = generation
        self._enroll(twin)
        if changed:
            self._changed(endpoint)
        memo[key] = twin
        return True

    @property
    def all_covered(self) -> bool:
        return self.uncovered is not None and not self.uncovered

    def real_entries(self) -> List[SpEntry]:
        return self.pool[1:]


MetricFn = Callable[[List[Tuple[int, MultiPartyObjectives]]], Tuple[float, float, float]]


def _search(
    archs: Tuple[_BoxArchive, ...],
    budget: int,
    seed: int,
    metric_fn: Optional[MetricFn],
    observer: Optional[Callable],
) -> SpRunResult:
    """Step the archives in order once per generation, for up to ``budget``.

    Draws come from ``random.Random(seed)``, whose ``getrandbits`` and
    ``random`` are bound here once per run and passed to every step. The run
    ends after the first generation at which every archive covers its targets
    (never, if one has none). ``metric_fn`` is sampled over the real members
    of all archives every ``METRIC_CADENCE`` generations and once at the last.
    ``observer`` follows the package's observer contract, with each archive's
    pool. A run with neither coverage to test nor an observer steps straight
    from one sample to the next.
    """
    rng = random.Random(seed)
    getrandbits, rand = rng.getrandbits, rng.random
    metrics: List[MetricSample] = []
    hit_evals: Optional[int] = None
    pools = tuple(a.pool for a in archs)
    steps = tuple((a, a.step) for a in archs)
    bare_steps = tuple(a.step for a in archs)
    # whether coverage is still to test: an archive without targets is never covered
    watch = all(a.uncovered is not None for a in archs)
    bare = not watch and observer is None
    # the generation of the next metric sample; never, without metric_fn
    due = min(METRIC_CADENCE, budget) if metric_fn is not None else 0

    gen = 0
    while gen < budget:
        if bare:
            for gen in range(gen + 1, (due or budget) + 1):
                for step in bare_steps:
                    step(getrandbits, rand, gen)
        else:
            gen += 1
            for arch, step in steps:
                # only an accepted offspring can complete the coverage, and only in its own archive
                if step(getrandbits, rand, gen) and watch and arch.all_covered and all(a.all_covered for a in archs):
                    hit_evals = sum(a.evaluations for a in archs)
                    watch = False
            if observer is not None:
                observer(gen, pools)
        if gen == due or (hit_evals is not None and metric_fn is not None):
            due = min(gen + METRIC_CADENCE, budget)
            recs = [r for a in archs for r in a.real_entries()]
            if recs:
                mx, mm, me = metric_fn([(r.endpoint, r.objectives) for r in recs])
                metrics.append(MetricSample(gen, sum(a.evaluations for a in archs), mx, mm, me))
        if hit_evals is not None:
            break
    return SpRunResult(
        generations=gen,
        evaluations=sum(a.evaluations for a in archs),
        no_change=sum(a.no_change for a in archs),
        archives=pools,
        metrics=metrics,
        hit_evaluations=hit_evals,
        max_archive_size=max(a.max_size for a in archs),
    )


def run_empmo_cons_sp(
    g: WeightedDigraph,
    params: ApproxParams,
    budget: int,
    seed: int,
    *,
    metric_fn: Optional[MetricFn] = None,
    targets: Optional[Mapping[int, Sequence[MultiPartyObjectives]]] = None,
    observer: Optional[Callable] = None,
) -> SpRunResult:
    """Single-archive consensus search with per-party boxes at the shared base.

    An offspring is accepted iff for at least one party no same-endpoint
    incumbent strictly dominates it in that party's objectives or box index;
    acceptance removes incumbents whose boxes are weakly dominated for both
    parties. Both parties' boxes are at the base (1+min(eps_1,eps_2))^(1/(n-1)).
    Per generation the draws are: parent index, then the mutation draws.

    ``metric_fn`` is sampled every ``METRIC_CADENCE`` generations (plus once
    at the last) over the real archive members; ``observer`` follows the
    package's observer contract. ``targets`` maps each endpoint to its
    references; an endpoint is covered when each of its references is weakly
    dominated by some member there. The run ends at its hit: the first
    generation after which every endpoint in ``targets`` is covered.
    Without targets it spends the whole budget.
    """
    r = box_base(g.n, params.eps_1, params.eps_2)
    k1, k2 = g.k
    arch = _BoxArchive(g, ((0, k1), (k1, k1 + k2)), (r, r), targets)
    return _search((arch,), budget, seed, metric_fn, observer)


def run_demo_sp(
    g: WeightedDigraph,
    params: ApproxParams,
    budget: int,
    seed: int,
    *,
    metric_fn: Optional[MetricFn] = None,
    targets: Optional[Mapping[int, Sequence[MultiPartyObjectives]]] = None,
    observer: Optional[Callable] = None,
) -> SpRunResult:
    """Baseline: identical machinery over the single concatenated vector.

    Party attributions are ignored; dominance and box tests use the joint
    (k_1+k_2)-objective vector at the consensus run's box base.
    ``metric_fn``, ``targets`` and ``observer``, with the stop at the hit, act
    as in ``run_empmo_cons_sp``.
    """
    arch = _BoxArchive(g, ((0, sum(g.k)),), (box_base(g.n, params.eps_1, params.eps_2),), targets)
    return _search((arch,), budget, seed, metric_fn, observer)


def consensus_archive_bound(g: WeightedDigraph, params: ApproxParams) -> int:
    """Worst-case archive size for the consensus run at its box base r.

    Per party: n-1 endpoints, each holding at most (floor(log_r((n-1) w_max))
    + 1)^(k-1) mutually box-incomparable members, plus the bare source entry;
    the smaller party's figure bounds the archive.
    """
    r = box_base(g.n, params.eps_1, params.eps_2)
    best = None
    for m in (0, 1):
        per_obj = r.floor_log((g.n - 1) * g.max_weight(m)) + 1
        total = (g.n - 1) * per_obj ** (g.k[m] - 1) + 1
        if best is None or total < best:
            best = total
    return best


@dataclass(frozen=True)
class SpProposal:
    """One accepted consensus proposal with its approximation bookkeeping."""

    path: Path
    objectives: MultiPartyObjectives
    eps2: Fraction
    u1: Fraction
    u2: Fraction


@dataclass(frozen=True)
class ConsensusOutcome:
    endpoint: int
    failed: bool
    eps2_prime: Optional[Fraction]
    boxes: Tuple[Tuple[int, ...], ...]
    accepted: Tuple[SpProposal, ...]


def path_epsilon(vector: Sequence[int], references: Sequence[Sequence[int]]) -> Fraction:
    """Smallest eps with ``vector`` <= (1+eps) * some reference, entrywise.

    The min over references of ``core.approx_degree``, which refuses a
    reference component below 1.
    """
    if not references:
        raise ValueError("at least one reference vector is required")
    if any(len(ref) != len(vector) for ref in references):
        raise ValueError("reference vector length mismatch")
    return min(approx_degree(vector, ref) for ref in references)


def _by_endpoint(entries: Iterable[Tuple[Path, MultiPartyObjectives]]) -> Dict[int, list]:
    out: Dict[int, list] = {}
    for path, obj in entries:
        out.setdefault(path[-1], []).append((path, obj))
    return out


def ultimatum_consensus(
    g: WeightedDigraph,
    proposals: Iterable[Tuple[Path, MultiPartyObjectives]],
    responders: Iterable[Tuple[Path, MultiPartyObjectives]],
    params: ApproxParams,
    party2_fronts: Dict[int, Sequence[Sequence[int]]],
) -> Dict[int, ConsensusOutcome]:
    """Per-endpoint consensus between party 1's archive and party 2's.

    Party 1 proposes its archive members; agreement at an endpoint is reached
    at the first rung of the relaxation ladder eps_2, 2*eps_2, ... capped at
    eps_2_max where some proposal's party-2 box (at base 1+rung) coincides
    with the box of a party-2 archive member of the same endpoint. Among the
    box-matched proposals, those whose exact party-2 approximation ratio
    eps_{2,i} (``path_epsilon`` against the endpoint's true party-2 Pareto
    vectors) stays within eps_2_max are accepted, and the minimal-ratio ones
    are returned with the rung as the endpoint's relaxed eps_2'. An endpoint
    where no rung produces a match is reported as a consensus failure.

    Utilities: an accepted proposer scores u1 = 1; the responder scores u2 = 1
    when the winners' ratio is within eps_2, interpolates linearly down to 0
    at eps_2_max when only the relaxed rung admitted it.
    """
    props_at, members_at = _by_endpoint(proposals), _by_endpoint(responders)
    eps_2, eps_2_max = params.eps_2, params.eps_2_max
    rungs = [eps_2 * k for k in range(1, math.ceil(eps_2_max / eps_2))] + [eps_2_max]
    bases = [BoxBase.plain(1 + rung) for rung in rungs]
    outcomes: Dict[int, ConsensusOutcome] = {}
    for endpoint in range(2, g.n + 1):
        props = props_at.get(endpoint)
        members = members_at.get(endpoint)
        fronts = party2_fronts.get(endpoint)
        outcomes[endpoint] = ConsensusOutcome(endpoint, True, None, (), ())
        if not (props and members and fronts):
            continue
        scored = [(path_epsilon(obj[1], fronts), path, obj) for path, obj in props]
        scored = [s for s in scored if s[0] <= eps_2_max]
        if not scored:
            continue
        for rung, base in zip(rungs, bases):
            member_boxes = {tuple([base.floor_log(c) for c in obj[1]]) for _, obj in members}
            boxed = [(ratio, path, obj, tuple([base.floor_log(c) for c in obj[1]])) for ratio, path, obj in scored]
            matched = [m for m in boxed if m[3] in member_boxes]
            if not matched:
                continue
            best = min(m[0] for m in matched)
            winners = [m for m in matched if m[0] == best]
            u2 = Fraction(1) if best <= eps_2 else (eps_2_max - rung) / (eps_2_max - eps_2)
            boxes = tuple(dict.fromkeys(box for *_, box in winners))
            accepted = tuple(SpProposal(path, obj, ratio, Fraction(1), u2) for ratio, path, obj, _ in winners)
            outcomes[endpoint] = ConsensusOutcome(endpoint, False, rung, boxes, accepted)
            break
    return outcomes


def run_empmo_simple_sp(
    g: WeightedDigraph,
    params: ApproxParams,
    budget: int,
    seed: int,
    *,
    party2_fronts: Dict[int, Sequence[Sequence[int]]],
    initial_archives: Optional[Tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]] = None,
    metric_fn: Optional[MetricFn] = None,
    observer: Optional[Callable] = None,
) -> SpRunResult:
    """Two independent per-party box searches followed by a consensus round.

    Stage 1 runs each party's archive at its own fine base
    (1+eps_m)^(1/(n-1)); every generation mutates once inside party 1's
    archive, then once inside party 2's, so a generation costs up to two
    evaluations. Stage 2 hands the archives to ``ultimatum_consensus``.

    ``initial_archives`` injects given paths into the stage-1 archives before
    the loop (each is evaluated and counted); with ``budget=0`` this replays
    the consensus round on exactly those archives. ``party2_fronts`` supplies
    each endpoint's exact party-2 Pareto vectors. ``metric_fn`` and
    ``observer`` see stage 1's two archives as in ``run_empmo_cons_sp``; stage
    1 has no targets, so it spends the whole budget. When every endpoint
    agrees, the hit is the run's end.
    """
    k1, k2 = g.k
    archs = (
        _BoxArchive(g, ((0, k1),), (box_base(g.n, params.eps_1),)),
        _BoxArchive(g, ((k1, k1 + k2),), (box_base(g.n, params.eps_2),)),
    )
    if initial_archives is not None:
        for arch, paths in zip(archs, initial_archives):
            for path in paths:
                arch.seed_path(path)
    res = _search(archs, budget, seed, metric_fn, observer)
    res.outcomes = ultimatum_consensus(
        g,
        [(r.path, r.objectives) for r in archs[0].real_entries()],
        [(r.path, r.objectives) for r in archs[1].real_entries()],
        params,
        party2_fronts,
    )
    if all(not o.failed for o in res.outcomes.values()):
        res.hit_evaluations = res.evaluations
    return res
