"""Exhaustive ground truth for small graphs, plus closed-form reports and predictors.

The path catalog is deliberately brute force: the graph optimizers and their
references are validated against it, so it must stay simple enough to trust
by inspection. Its size guard is a hard error rather than silent truncation.

``ideal_points`` is exact at any size where it answers. At an endpoint it
certifies, one path attains every objective's least value, so it weakly
dominates every other path there under each party and jointly: both party
fronts, the joint front and the common set are that one ideal point.

The bit-string report reads the closed form and answers at every n; the
2^n enumeration that cross-checks it is a test helper, not package code.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .core import MultiPartyObjectives, approx_degree, weak_ge
from .pseudoboolean import BitString, PseudoBooleanProblem, analytic_fronts
from .shortestpath import SOURCE, Path, WeightedDigraph, eval_path

PathObj = Tuple[Path, MultiPartyObjectives]
# The largest graph whose simple paths ``exact_path_catalog`` enumerates.
CATALOG_MAX_N = 12


def _pareto_distinct(vectors, ge) -> frozenset:
    """Non-dominated subset of distinct vectors; ``ge(u, v)``: u is no worse than v."""
    vecs = list(vectors)
    return frozenset(v for v in vecs if not any(u != v and ge(u, v) for u in vecs))


def _weak_le(a, b) -> bool:
    """``weak_ge`` mirrored, for the minimized path objectives."""
    return weak_ge(b, a)


@dataclass(frozen=True)
class EndpointCatalog:
    endpoint: int
    party_sets: Tuple[Tuple[PathObj, ...], ...]
    common: Tuple[PathObj, ...]
    joint: Tuple[PathObj, ...]


@dataclass(frozen=True)
class PathCatalog:
    n: int
    per_endpoint: Dict[int, EndpointCatalog]

    def common_objectives(self, endpoint: int) -> List[MultiPartyObjectives]:
        return [obj for _, obj in self.per_endpoint[endpoint].common]

    def party_front(self, endpoint: int, party: int) -> Tuple[Tuple[int, ...], ...]:
        vecs = {obj[party] for _, obj in self.per_endpoint[endpoint].party_sets[party]}
        return tuple(sorted(vecs))


def _simple_paths_by_endpoint(g: WeightedDigraph) -> Dict[int, List[PathObj]]:
    by_endpoint: Dict[int, List[PathObj]] = {e: [] for e in range(2, g.n + 1)}
    stack: List[Tuple[Path, frozenset]] = [((SOURCE,), frozenset((SOURCE,)))]
    while stack:
        path, visited = stack.pop()
        for v in g.successors(path[-1]):
            if v in visited:
                continue
            p2 = path + (v,)
            by_endpoint[v].append((p2, eval_path(g, p2)))
            stack.append((p2, visited | {v}))
    return by_endpoint


def exact_path_catalog(g: WeightedDigraph) -> PathCatalog:
    """Exact per-endpoint Pareto, common, and joint-objective path sets.

    Only simple paths are enumerated. This loses no optima: with every weight
    at least 1, a walk that revisits a vertex is strictly worse in every
    objective than the same walk with the cycle removed (which, applied
    repeatedly, ends at a simple path), so no walk is Pareto-optimal and no
    simple path's dominance status depends on walks.

    Set membership is objective-level per party, so paths tied on a party's
    non-dominated vector all appear in that party's set. The common set keeps
    the paths present in every party's set.
    """
    if g.n > CATALOG_MAX_N:
        raise ValueError(f"exhaustive path catalog refused for n > {CATALOG_MAX_N}")
    by_endpoint = _simple_paths_by_endpoint(g)
    catalogs: Dict[int, EndpointCatalog] = {}
    for endpoint in range(2, g.n + 1):
        entries = sorted(by_endpoint[endpoint])
        party_sets = []
        for m in (0, 1):
            front = _pareto_distinct({obj[m] for _, obj in entries}, _weak_le)
            party_sets.append(tuple(pe for pe in entries if pe[1][m] in front))
        in_both = set(p for p, _ in party_sets[0]) & set(p for p, _ in party_sets[1])
        common = tuple(pe for pe in entries if pe[0] in in_both)
        joint_front = _pareto_distinct({obj[0] + obj[1] for _, obj in entries}, _weak_le)
        joint = tuple(pe for pe in entries if pe[1][0] + pe[1][1] in joint_front)
        catalogs[endpoint] = EndpointCatalog(endpoint, tuple(party_sets), common, joint)
    return PathCatalog(n=g.n, per_endpoint=catalogs)


def exact_party_fronts(g: WeightedDigraph, party: int) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Per-endpoint distinct Pareto vectors of one party, via the exact catalog."""
    cat = exact_path_catalog(g)
    return {e: cat.party_front(e, party) for e in cat.per_endpoint}


def ideal_points(g: WeightedDigraph) -> Dict[int, MultiPartyObjectives]:
    """The endpoints that a path reaches at their ideal point, with that point.

    One Dijkstra per objective gives each vertex its least cost per objective.
    A path attains every least cost iff each of its edges u->v is tight, i.e.
    cost(u) + w(u, v) == cost(v) in every objective. The endpoints reached over
    tight edges map, in ascending order, to the point as one vector per party.
    """
    flat = g.flat
    costs = []
    for k in range(sum(g.k)):
        cost = {}
        heap = [(0, SOURCE)]
        while heap:
            c, u = heapq.heappop(heap)
            if u not in cost:
                cost[u] = c
                for v in g.successors(u):
                    if v not in cost:
                        heapq.heappush(heap, (c + flat[(u, v)][k], v))
        costs.append(cost)
    ideal = {v: tuple(cost[v] for cost in costs) for v in costs[0]}
    reached = {SOURCE}
    stack = [SOURCE]
    while stack:
        u = stack.pop()
        for v in g.successors(u):
            if v not in reached and tuple(map(add, ideal[u], flat[(u, v)])) == ideal[v]:
                reached.add(v)
                stack.append(v)
    k1 = g.k[0]
    return {v: (ideal[v][:k1], ideal[v][k1:]) for v in sorted(reached - {SOURCE})}


def references(g: WeightedDigraph) -> Tuple[Dict[int, Tuple], Optional[Dict[int, Tuple]]]:
    """A graph's ground truth: (endpoint references, party-2 fronts).

    Each maps the endpoints, ascending, to a tuple of vectors: the common set,
    which the metric and the coverage targets read, and party 2's front, which
    simple-sp's consensus round reads. When ``ideal_points`` certifies every
    endpoint, its point is both; otherwise, as on the fixture, the exact path
    catalog gives them. Tied paths give the catalog one copy of a vector per
    path and the certificate one; the metric and the target take a max or an
    all over members, so they read the same either way. Above
    ``CATALOG_MAX_N`` this returns ({}, None): the certificate would answer
    there too, but using it would change the pinned planted n > 12 rows.
    """
    if g.n > CATALOG_MAX_N:
        return {}, None
    ideal = ideal_points(g)
    if len(ideal) == g.n - 1:
        return {e: (obj,) for e, obj in ideal.items()}, {e: (obj[1],) for e, obj in ideal.items()}
    cat = exact_path_catalog(g)
    return (
        {e: tuple(cat.common_objectives(e)) for e in cat.per_endpoint},
        {e: cat.party_front(e, 1) for e in cat.per_endpoint},
    )


def epsilon_of_solution(
    objectives: MultiPartyObjectives, common_objectives: Sequence[MultiPartyObjectives]
) -> Fraction:
    """Smallest eps >= 0 with x (1+eps)-weakly dominating every common member.

    The max over members of ``core.approx_degree`` on the concatenated party
    vectors. Each member is checked before it is scored: its party count,
    then per party its objective count and that its objectives are at least
    1, as a real path's are.
    """
    if not common_objectives:
        raise ValueError("common set for the endpoint is empty")
    flat = tuple(chain.from_iterable(objectives))
    degrees = []
    for member in common_objectives:
        if len(member) != len(objectives):
            raise ValueError("party count mismatch against common member")
        for vec_x, vec_z in zip(objectives, member):
            if len(vec_x) != len(vec_z):
                raise ValueError("objective count mismatch against common member")
            if min(vec_z, default=1) < 1:
                raise ValueError("common member has an objective below 1")
        degrees.append(approx_degree(flat, tuple(chain.from_iterable(member))))
    return max(degrees)


def payoff_runtime_predictor(n: int, initial_zero_count: int) -> Fraction:
    """Expected evaluations for the payoff-gated climb from z zero bits: sum n/i."""
    if not 0 <= initial_zero_count <= n:
        raise ValueError("zero count must lie in 0..n")
    total = Fraction(0)
    for i in range(1, initial_zero_count + 1):
        total += Fraction(n, i)
    return total


def _count(c: int) -> str:
    """``c`` exactly, or in scientific form when it has more digits than ``sys.get_int_max_str_digits()``."""
    try:
        return str(c)
    except ValueError:
        return f"{Decimal(c):.6e}"


def pseudoboolean_report(problem: PseudoBooleanProblem) -> str:
    """Plain-text optimum report, the CLI's oracle output, from the closed form.

    A word's vectors depend only on its cell (i, j), which C(n/2, i) *
    C(n/2, j) words share. Every optimum lies in a cell with i = n/2 or
    j = n/2 (``analytic_fronts``), so only those cells are walked. Each common
    cell prints with its word count and one of its words: i ones heading the
    first half, j ones heading the second.
    """
    n, half = problem.n, problem.half
    slab = {(half, j) for j in range(half + 1)} | {(i, half) for i in range(half + 1)}
    words = {c: (1 << c[0]) - 1 | ((1 << c[1]) - 1) << half for c in slab}
    vectors = {c: problem.evaluate(BitString(n, w)) for c, w in words.items()}
    row = [1]  # C(n/2, k) for k = 0..n/2, by a running product
    for k in range(1, half + 1):
        row.append(row[-1] * (half - k + 1) // k)
    size = {c: row[c[0]] * row[c[1]] for c in slab}
    lines = [f"problem {problem.kind} n={n}"]
    common = set(slab)
    for m, front in enumerate(analytic_fronts(problem)):
        cells = {c for c in slab if vectors[c][m] in front}
        common &= cells
        lines.append(f"party {m + 1}: front size {len(front)}, solutions {_count(sum(size[c] for c in cells))}")
        lines.extend(f"  front vector {vec}" for vec in sorted(front))
    shown = sorted(common)
    lines.append(f"common solutions ({_count(sum(size[c] for c in shown))}):")
    for c in shown[:16]:
        lines.append(f"  cell {c}, solutions {_count(size[c])}: {BitString(n, words[c]).to01()}")
    if len(shown) > 16:
        lines.append(f"  ... {len(shown) - 16} more cells")
    return "\n".join(lines) + "\n"


def path_report(cat: PathCatalog) -> str:
    lines = [f"graph catalog n={cat.n}"]
    for endpoint in sorted(cat.per_endpoint):
        ec = cat.per_endpoint[endpoint]
        lines.append(f"endpoint {endpoint}:")
        for m, pset in enumerate(ec.party_sets, start=1):
            lines.append(f"  party {m} set ({len(pset)}):")
            for path, obj in pset:
                lines.append(f"    {'-'.join(map(str, path))} {obj[m - 1]}")
        lines.append(f"  common ({len(ec.common)}):")
        for path, obj in ec.common:
            lines.append(f"    {'-'.join(map(str, path))} {obj[0]} {obj[1]}")
        lines.append(f"  joint ({len(ec.joint)}):")
        for path, obj in ec.joint:
            lines.append(f"    {'-'.join(map(str, path))} {obj[0] + obj[1]}")
    return "\n".join(lines) + "\n"
