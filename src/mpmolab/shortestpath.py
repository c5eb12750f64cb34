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
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import MultiPartyObjectives, Sense

SENSE = Sense.MINIMIZE
SOURCE = 1
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
        missing = sorted(set(range(1, n + 1)) - seen)
        if missing:
            raise ValueError(f"vertex {missing[0]} unreachable from source")

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


def epsilon_dominates(a, b, eps, *, strict: bool = False) -> bool:
    """Whether path-vector pair ``a`` (1+eps)-weakly dominates ``b``.

    ``a`` and ``b`` are (path, objective_vector) pairs for one party. True iff
    the endpoints match and every objective of ``a`` is at most (1+eps) times
    the corresponding objective of ``b``; paths to different targets are
    incomparable. The strict form additionally requires the two vectors to
    differ.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    (pa, fa), (pb, fb) = a, b
    if pa[-1] != pb[-1]:
        return False
    if len(fa) != len(fb):
        raise ValueError("objective vectors differ in length")
    factor = 1 + eps
    num, den = factor.numerator, factor.denominator
    if not all(x * den <= y * num for x, y in zip(fa, fb)):
        return False
    if strict:
        return tuple(fa) != tuple(fb)
    return True


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

    def approx(self) -> float:
        return (self.num / self.den) ** (1.0 / self.root)

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


@dataclass(frozen=True)
class ApproxParams:
    """Approximation slacks and the box base a consensus run works at."""

    eps_1: Fraction
    eps_2: Fraction
    eps_2_max: Fraction
    r: BoxBase

    def __post_init__(self) -> None:
        for name in ("eps_1", "eps_2", "eps_2_max"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.eps_1 <= 0 or self.eps_2 <= 0:
            raise ValueError("approximation slacks must be positive")
        if self.eps_2_max < self.eps_2:
            raise ValueError("eps_2_max must be at least eps_2")

    @classmethod
    def consensus(cls, n: int, eps_1, eps_2, eps_2_max=None) -> "ApproxParams":
        """Standard parameters for an n-vertex graph: r = (1+min eps)^(1/(n-1))."""
        e1, e2 = as_fraction(eps_1), as_fraction(eps_2)
        r = BoxBase.power(1 + min(e1, e2), n - 1)
        return cls(e1, e2, as_fraction(eps_2_max) if eps_2_max is not None else e2, r)


# An edit is (child, sign, u, v, w): the child path, +1 for an Add or -1 for
# a Delete, and the edges it changes. With w set, v was inserted between u
# and w or cut from between them; with w None, the end edge u->v was appended
# or dropped.
_Edit = Tuple[Path, int, int, int, Optional[int]]


def _edit_path(g: WeightedDigraph, p: Path, rng: random.Random, max_len: int) -> Optional[_Edit]:
    """The mutation of ``mutate_path`` on a valid tuple path, with its edit."""
    last = len(p) - 1
    if rng.random() < 0.5:
        if len(p) >= max_len:
            return None
        i = rng.randrange(last + 1)
        u = p[i]
        if i == last:
            succ = g.successors(u)
            if not succ:
                return None
            v = succ[rng.randrange(len(succ))]
            return p + (v,), 1, u, v, None
        w = p[i + 1]
        candidates = g.bridges(u, w)
        if not candidates:
            return None
        v = candidates[rng.randrange(len(candidates))]
        return p[: i + 1] + (v,) + p[i + 1 :], 1, u, v, w
    if last < 2:
        return None
    i = 1 + rng.randrange(last - 1)
    if i == last - 1:
        return p[:-1], -1, p[i], p[last], None
    u, w = p[i], p[i + 2]
    if g.has_edge(u, w):
        return p[: i + 1] + p[i + 2 :], -1, u, p[i + 1], w
    return None


def mutate_path(
    g: WeightedDigraph, p: Sequence[int], rng: random.Random, *, max_len: Optional[int] = None
) -> Optional[Path]:
    """One Add/Delete path mutation; returns the new path or None for no change.

    A fair coin picks Add or Delete. Add draws a uniform position i in 0..l:
    interior positions insert a uniformly chosen vertex v' with both bridging
    edges present (``g.bridges``), position l appends a uniform successor of
    the last vertex. Delete draws a uniform interior index i in 1..l-1: for
    i <= l-2 the vertex after position i is cut if the shortcut edge exists,
    i = l-1 drops the last vertex. A draw with no valid completion returns
    None without consuming further randomness; Add on a path already at
    ``max_len`` vertices (default 2n) returns None before the position draw.

    The archive step calls the same edit core, which also reports the edges
    the edit changed, so both make the same draws and the same children.
    """
    p = tuple(p)
    if not p or p[0] != SOURCE:
        raise ValueError("path must start at the source vertex")
    edit = _edit_path(g, p, rng, 2 * g.n if max_len is None else max_len)
    return None if edit is None else edit[0]


@dataclass(frozen=True)
class SpEntry:
    """Archive member: path, both parties' objectives, per-lane box tuples."""

    path: Path
    objectives: MultiPartyObjectives
    boxes: Tuple[Tuple[int, ...], ...]
    birth_generation: int


@dataclass(frozen=True)
class MetricSample:
    generation: int
    evaluations: int
    max_eps: float
    mean_eps_members: float
    mean_eps_endpoints: float


@dataclass
class SpRunResult:
    algorithm: str
    n: int
    seed: int
    generations: int
    evaluations: int
    no_change: int
    archive: List[SpEntry]
    metrics: List[MetricSample]
    hit_generation: Optional[int]
    hit_evaluations: Optional[int]
    max_archive_size: int
    wall_ms: float


class _Rec:
    __slots__ = ("path", "endpoint", "flat", "objectives", "lanes", "boxes", "birth", "zero")

    def __init__(self, path, endpoint, flat, objectives, lanes, boxes, birth, zero):
        self.path = path
        self.endpoint = endpoint
        self.flat = flat
        self.objectives = objectives
        self.lanes = lanes
        self.boxes = boxes
        self.birth = birth
        self.zero = zero


class _BoxArchive:
    """Endpoint-bucketed archive with per-lane strict-dominance acceptance.

    A lane is one view of the objective vector (one party, or the whole
    concatenation). An offspring is accepted iff some lane sees no incumbent of
    the same endpoint strictly dominating it in either objectives or box
    indices; on acceptance, incumbents whose boxes are weakly dominated in all
    lanes are dropped. The bare source path is the permanent first pool entry;
    it takes part in parent selection only, and walks that return to the
    source are rejected outright since the empty path already dominates them.

    ``step`` mutates through the edit core of ``mutate_path`` and computes the
    child's objectives from its parent's: the parent's flat vector (both
    parties' objectives, concatenated) plus or minus the weights of the one
    or three edges the edit changed, with exactly the sums ``eval_path``
    would give. The per-party objectives, lanes and box tuples of a flat
    vector are memoised per archive (one entry per distinct vector
    evaluated), so ``floor_log`` runs only for vectors not seen before.
    Since ``floor_log`` is monotone, an incumbent whose objectives weakly
    dominate a lane also does so in boxes, so the rejection scan compares
    boxes first and objectives only where the boxes are equal.
    """

    def __init__(
        self,
        g: WeightedDigraph,
        slices: Tuple[Tuple[int, int], ...],
        bases: Tuple[BoxBase, ...],
        max_len: Optional[int] = None,
        target_fn: Optional[Callable[[int, MultiPartyObjectives], bool]] = None,
        target_endpoints: Iterable[int] = (),
    ):
        self.g = g
        self.slices = slices
        self.bases = bases
        self.max_len = max_len if max_len is not None else 2 * g.n
        self.target_fn = target_fn
        self.targets = frozenset(target_endpoints)
        self._views_of: Dict[Tuple[int, ...], tuple] = {}
        k1, k2 = g.k
        zero = (0,) * (k1 + k2)
        src = _Rec((SOURCE,), SOURCE, zero, (zero[:k1], zero[k1:]), (), (), 0, False)
        self.pool: List[_Rec] = [src]
        self.buckets: Dict[int, List[_Rec]] = {}
        self.evaluations = 0
        self.no_change = 0
        self.max_size = 1
        self.zero_counts: Dict[int, int] = {}
        self.covered = 0

    def _views(self, flat: Tuple[int, ...]):
        """The (objectives, lanes, boxes) of a flat vector, memoised."""
        views = self._views_of.get(flat)
        if views is None:
            k1 = self.g.k[0]
            lanes = tuple([flat[a:b] for a, b in self.slices])
            boxes = tuple(
                [tuple([base.floor_log(c) for c in lane]) for lane, base in zip(lanes, self.bases)]
            )
            views = self._views_of[flat] = ((flat[:k1], flat[k1:]), lanes, boxes)
        return views

    def _make_rec(self, path: Path, flat: Tuple[int, ...], birth: int) -> _Rec:
        obj, lanes, boxes = self._views(flat)
        endpoint = path[-1]
        zero = bool(
            self.target_fn is not None
            and endpoint in self.targets
            and self.target_fn(endpoint, obj)
        )
        return _Rec(path, endpoint, flat, obj, lanes, boxes, birth, zero)

    def _enroll(self, rec: _Rec) -> None:
        self.buckets.setdefault(rec.endpoint, []).append(rec)
        self.pool.append(rec)
        if rec.zero:
            c = self.zero_counts.get(rec.endpoint, 0) + 1
            self.zero_counts[rec.endpoint] = c
            if c == 1:
                self.covered += 1
        if len(self.pool) > self.max_size:
            self.max_size = len(self.pool)

    def _drop(self, rec: _Rec) -> None:
        self.buckets[rec.endpoint].remove(rec)
        self.pool.remove(rec)
        if rec.zero:
            c = self.zero_counts[rec.endpoint] - 1
            self.zero_counts[rec.endpoint] = c
            if c == 0:
                self.covered -= 1

    def seed_path(self, path: Sequence[int]) -> None:
        """Insert a given path as-is (evaluated, counted, no acceptance test)."""
        path = tuple(path)
        obj = eval_path(self.g, path)
        self.evaluations += 1
        if len(path) > 1 and path[-1] == SOURCE:
            raise ValueError("cannot seed a walk that returns to the source")
        if len(path) > 1:
            self._enroll(self._make_rec(path, obj[0] + obj[1], 0))

    def step(self, rng: random.Random, generation: int) -> bool:
        parent = self.pool[rng.randrange(len(self.pool))]
        edit = _edit_path(self.g, parent.path, rng, self.max_len)
        if edit is None:
            self.no_change += 1
            return False
        child, sign, u, v, w = edit
        self.evaluations += 1
        endpoint = child[-1]
        if endpoint == SOURCE:
            return False
        weights = self.g.flat
        delta = weights[(u, v)]
        if w is not None:
            delta = tuple(map(sub, map(add, delta, weights[(v, w)]), weights[(u, w)]))
        flat = tuple(map(add if sign > 0 else sub, parent.flat, delta))
        _, lanes, boxes = self._views(flat)
        bucket = self.buckets.get(endpoint)
        if bucket:
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
                return False
            # drop the incumbents whose boxes the child weakly dominates in every lane
            doomed = []
            for z in bucket:
                for box, zb in zip(boxes, z.boxes):
                    if any(map(gt, box, zb)):
                        break
                else:
                    doomed.append(z)
            for z in doomed:
                self._drop(z)
        self._enroll(self._make_rec(child, flat, generation))
        return True

    @property
    def all_covered(self) -> bool:
        return bool(self.targets) and self.covered == len(self.targets)

    def real_entries(self) -> List[_Rec]:
        return self.pool[1:]

    def snapshot(self) -> List[SpEntry]:
        out = [SpEntry((SOURCE,), self.pool[0].objectives, (), 0)]
        for rec in self.pool[1:]:
            out.append(SpEntry(rec.path, rec.objectives, rec.boxes, rec.birth))
        return out


MetricFn = Callable[[List[Tuple[int, MultiPartyObjectives]]], Tuple[float, float, float]]


def _drive(
    archs: Tuple[_BoxArchive, ...],
    budget: int,
    rng: random.Random,
    metric_fn: Optional[MetricFn],
    cadence: int,
    stop_on_hit: bool,
    observer: Optional[Callable],
) -> Tuple[int, List[MetricSample], Optional[int], Optional[int]]:
    """Step the archives in order once per generation, for up to ``budget``.

    The hit is the first generation at which every archive covers its target
    endpoints (never, if one has none); with ``stop_on_hit`` the run ends
    after that generation's step. ``metric_fn`` is sampled over the real
    members of all archives every ``cadence`` generations and once at the
    end. ``observer(generation, pools)`` sees the live pool of a single
    archive, or the tuple of pools. Returns (generations, metric samples, hit
    generation, evaluations at the hit).
    """
    metrics: List[MetricSample] = []
    hit_gen: Optional[int] = None
    hit_evals: Optional[int] = None
    pools = archs[0].pool if len(archs) == 1 else tuple(a.pool for a in archs)

    def sample(gen: int) -> None:
        recs = [r for a in archs for r in a.real_entries()]
        if recs:
            mx, mm, me = metric_fn([(r.endpoint, r.objectives) for r in recs])
            metrics.append(MetricSample(gen, sum(a.evaluations for a in archs), mx, mm, me))

    gen = sampled_at = 0
    for gen in range(1, budget + 1):
        for arch in archs:
            # only an accepted offspring can complete the coverage, and only in its own archive
            if arch.step(rng, gen) and hit_gen is None and arch.all_covered and all(a.all_covered for a in archs):
                hit_gen, hit_evals = gen, sum(a.evaluations for a in archs)
        if stop_on_hit and hit_gen == gen:
            break
        if metric_fn is not None and gen % cadence == 0:
            sample(gen)
            sampled_at = gen
        if observer is not None:
            observer(gen, pools)
    if metric_fn is not None and gen > 0 and sampled_at != gen:
        sample(gen)
    return gen, metrics, hit_gen, hit_evals


def _search(
    algorithm: str,
    arch: _BoxArchive,
    budget: int,
    seed: int,
    metric_fn: Optional[MetricFn],
    cadence: int,
    stop_on_hit: bool,
    observer: Optional[Callable],
) -> SpRunResult:
    """One archive driven by ``_drive`` from ``random.Random(seed)``."""
    t0 = time.perf_counter()
    gen, metrics, hit_gen, hit_evals = _drive(
        (arch,), budget, random.Random(seed), metric_fn, cadence, stop_on_hit, observer
    )
    return SpRunResult(
        algorithm=algorithm,
        n=arch.g.n,
        seed=seed,
        generations=gen,
        evaluations=arch.evaluations,
        no_change=arch.no_change,
        archive=arch.snapshot(),
        metrics=metrics,
        hit_generation=hit_gen,
        hit_evaluations=hit_evals,
        max_archive_size=arch.max_size,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


def run_empmo_cons_sp(
    g: WeightedDigraph,
    params: ApproxParams,
    budget: int,
    seed: int,
    *,
    max_len: Optional[int] = None,
    metric_fn: Optional[MetricFn] = None,
    cadence: int = 100,
    target_fn: Optional[Callable[[int, MultiPartyObjectives], bool]] = None,
    target_endpoints: Iterable[int] = (),
    stop_on_hit: bool = False,
    observer: Optional[Callable] = None,
) -> SpRunResult:
    """Single-archive consensus search with per-party boxes at the shared base.

    An offspring is accepted iff for at least one party no same-endpoint
    incumbent strictly dominates it in that party's objectives or box index;
    acceptance removes incumbents whose boxes are weakly dominated for both
    parties. Per generation the draws are: parent index, then the mutation
    draws. ``params.r`` must be the consensus base (1+min eps)^(1/(n-1)).

    ``metric_fn`` is sampled every ``cadence`` generations (plus once at the
    end) over the real archive members. ``target_fn(endpoint, objectives)``
    marks members that fully attain their endpoint's target; once every
    endpoint in ``target_endpoints`` holds such a member the hit generation is
    recorded, and with ``stop_on_hit`` the run ends there.
    """
    expected = BoxBase.power(1 + min(params.eps_1, params.eps_2), g.n - 1)
    if params.r != expected:
        raise ValueError("params.r must be (1+min(eps_1,eps_2))^(1/(n-1)) for the consensus run")
    k1, k2 = g.k
    arch = _BoxArchive(g, ((0, k1), (k1, k1 + k2)), (params.r, params.r), max_len, target_fn, target_endpoints)
    return _search("empmo-cons-sp", arch, budget, seed, metric_fn, cadence, stop_on_hit, observer)


def run_demo_sp(
    g: WeightedDigraph,
    r: BoxBase,
    budget: int,
    seed: int,
    *,
    max_len: Optional[int] = None,
    metric_fn: Optional[MetricFn] = None,
    cadence: int = 100,
    target_fn: Optional[Callable[[int, MultiPartyObjectives], bool]] = None,
    target_endpoints: Iterable[int] = (),
    stop_on_hit: bool = False,
    observer: Optional[Callable] = None,
) -> SpRunResult:
    """Baseline: identical machinery over the single concatenated vector.

    Party attributions are ignored; dominance and box tests use the joint
    (k_1+k_2)-objective vector at box base ``r``.
    """
    arch = _BoxArchive(g, ((0, sum(g.k)),), (r,), max_len, target_fn, target_endpoints)
    return _search("demo-sp", arch, budget, seed, metric_fn, cadence, stop_on_hit, observer)


def consensus_archive_bound(g: WeightedDigraph, r: BoxBase) -> int:
    """Worst-case archive size for the consensus run at box base r.

    Per party: n-1 endpoints, each holding at most (floor(log_r((n-1) w_max))
    + 1)^(k-1) mutually box-incomparable members, plus the bare source entry;
    the smaller party's figure bounds the archive.
    """
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


@dataclass
class SimpleSpResult:
    algorithm: str
    n: int
    seed: int
    generations: int
    evaluations: int
    no_change: int
    party_archives: Tuple[List[SpEntry], List[SpEntry]]
    outcomes: Dict[int, ConsensusOutcome]
    metrics: List[MetricSample]
    max_archive_size: int
    hit_evaluations: Optional[int]
    wall_ms: float


def _relaxation_ladder(eps_2: Fraction, eps_2_max: Fraction) -> List[Fraction]:
    rungs: List[Fraction] = []
    k = 1
    while eps_2 * k < eps_2_max:
        rungs.append(eps_2 * k)
        k += 1
    rungs.append(eps_2_max)
    return rungs


def path_epsilon(vector: Sequence[int], references: Sequence[Sequence[int]]) -> Fraction:
    """Smallest eps with ``vector`` <= (1+eps) * some reference, entrywise.

    Minimized over the references, clamped at zero. Every reference component
    must be positive.
    """
    if not references:
        raise ValueError("at least one reference vector is required")
    best: Optional[Fraction] = None
    for ref in references:
        if len(ref) != len(vector):
            raise ValueError("reference vector length mismatch")
        worst = max(Fraction(x, z) for x, z in zip(vector, ref))
        if best is None or worst < best:
            best = worst
    return max(best - 1, Fraction(0))


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
    eps_{2,i} (against the endpoint's true party-2 Pareto vectors) stays
    within eps_2_max are accepted, and the minimal-ratio ones are returned
    with the rung as the endpoint's relaxed eps_2'. An endpoint where no rung
    produces a match is reported as a consensus failure.

    Utilities: an accepted proposer scores u1 = 1; the responder scores u2 = 1
    when the winner's ratio is within eps_2, interpolates linearly down to 0
    at eps_2_max when only the relaxed rung admitted it.
    """
    by_endpoint_p1: Dict[int, List[Tuple[Path, MultiPartyObjectives]]] = {}
    for path, obj in proposals:
        by_endpoint_p1.setdefault(path[-1], []).append((path, obj))
    by_endpoint_p2: Dict[int, List[Tuple[Path, MultiPartyObjectives]]] = {}
    for path, obj in responders:
        by_endpoint_p2.setdefault(path[-1], []).append((path, obj))

    rungs = _relaxation_ladder(params.eps_2, params.eps_2_max)
    outcomes: Dict[int, ConsensusOutcome] = {}
    for endpoint in range(2, g.n + 1):
        props = by_endpoint_p1.get(endpoint, [])
        members = by_endpoint_p2.get(endpoint, [])
        fronts = party2_fronts.get(endpoint, ())
        outcome = ConsensusOutcome(endpoint, True, None, (), ())
        if props and members and fronts:
            ratios = [path_epsilon(obj[1], fronts) for _, obj in props]
            for rung in rungs:
                base = BoxBase.plain(1 + rung)
                member_boxes = {
                    tuple(base.floor_log(c) for c in obj[1]) for _, obj in members
                }
                matched = []
                for (path, obj), ratio in zip(props, ratios):
                    if ratio > params.eps_2_max:
                        continue
                    box = tuple(base.floor_log(c) for c in obj[1])
                    if box in member_boxes:
                        matched.append((path, obj, ratio, box))
                if not matched:
                    continue
                best = min(m[2] for m in matched)
                winners = []
                boxes = []
                for path, obj, ratio, box in matched:
                    if ratio != best:
                        continue
                    if ratio <= params.eps_2:
                        u2 = Fraction(1)
                    elif params.eps_2_max > params.eps_2:
                        u2 = (params.eps_2_max - rung) / (params.eps_2_max - params.eps_2)
                    else:
                        u2 = Fraction(0)
                    winners.append(SpProposal(path, obj, ratio, Fraction(1), u2))
                    if box not in boxes:
                        boxes.append(box)
                outcome = ConsensusOutcome(endpoint, False, rung, tuple(boxes), tuple(winners))
                break
        outcomes[endpoint] = outcome
    return outcomes


def run_empmo_simple_sp(
    g: WeightedDigraph,
    params: ApproxParams,
    budget: int,
    seed: int,
    *,
    initial_archives: Optional[Tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]] = None,
    party2_fronts: Optional[Dict[int, Sequence[Sequence[int]]]] = None,
    max_len: Optional[int] = None,
    metric_fn: Optional[MetricFn] = None,
    cadence: int = 100,
    observer: Optional[Callable] = None,
) -> SimpleSpResult:
    """Two independent per-party box searches followed by a consensus round.

    Stage 1 runs each party's archive at its own fine base
    (1+eps_m)^(1/(n-1)); every generation mutates once inside party 1's
    archive, then once inside party 2's, so a generation costs up to two
    evaluations. Stage 2 hands the archives to ``ultimatum_consensus``.

    ``initial_archives`` injects given paths into the stage-1 archives before
    the loop (each is evaluated and counted); with ``budget=0`` this replays
    the consensus round on exactly those archives. ``party2_fronts`` supplies
    each endpoint's exact party-2 Pareto vectors; when omitted they are
    computed by the exhaustive oracle before stage 1, so a graph above its
    size cap fails before any generation is spent.
    """
    t0 = time.perf_counter()
    if party2_fronts is None:
        from .oracles import exact_party_fronts

        party2_fronts = exact_party_fronts(g, 1)
    k1, k2 = g.k
    archs = (
        _BoxArchive(g, ((0, k1),), (BoxBase.power(1 + params.eps_1, g.n - 1),), max_len),
        _BoxArchive(g, ((k1, k1 + k2),), (BoxBase.power(1 + params.eps_2, g.n - 1),), max_len),
    )
    if initial_archives is not None:
        for arch, paths in zip(archs, initial_archives):
            for path in paths:
                arch.seed_path(path)
    gen, metrics, _, _ = _drive(archs, budget, random.Random(seed), metric_fn, cadence, False, observer)
    outcomes = ultimatum_consensus(
        g,
        [(r.path, r.objectives) for r in archs[0].real_entries()],
        [(r.path, r.objectives) for r in archs[1].real_entries()],
        params,
        party2_fronts,
    )
    evaluations = archs[0].evaluations + archs[1].evaluations
    all_agreed = all(not o.failed for o in outcomes.values())
    return SimpleSpResult(
        algorithm="empmo-simple-sp",
        n=g.n,
        seed=seed,
        generations=gen,
        evaluations=evaluations,
        no_change=archs[0].no_change + archs[1].no_change,
        party_archives=(archs[0].snapshot(), archs[1].snapshot()),
        outcomes=outcomes,
        metrics=metrics,
        max_archive_size=max(archs[0].max_size, archs[1].max_size),
        hit_evaluations=evaluations if all_agreed else None,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
