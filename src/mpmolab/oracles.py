"""Exhaustive ground truth for small instances, plus analytic predictors.

Everything here is deliberately brute force: the optimizers and their analytic
target sets are validated against these functions, so they must stay simple
enough to trust by inspection. Size guards are hard errors rather than silent
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .core import MultiPartyObjectives, Sense, weakly_dominates
from .pseudoboolean import BitString, PseudoBooleanProblem
from .shortestpath import SOURCE, Path, WeightedDigraph, eval_path

PathObj = Tuple[Path, MultiPartyObjectives]


def _pareto_distinct(vectors, sense: Sense) -> frozenset:
    """Non-dominated subset of a collection of distinct vectors."""
    vecs = list(vectors)
    return frozenset(
        v for v in vecs if not any(u != v and weakly_dominates(u, v, sense) for u in vecs)
    )


@dataclass(frozen=True)
class ParetoCatalog:
    """Exact per-party optima of a pseudo-Boolean problem, as solution words."""

    kind: str
    n: int
    party_solutions: Tuple[frozenset, ...]
    party_fronts: Tuple[frozenset, ...]
    common_solutions: frozenset

    def common_bitstrings(self) -> List[BitString]:
        return [BitString(self.n, w) for w in sorted(self.common_solutions)]


def brute_force_pseudoboolean(problem: PseudoBooleanProblem, *, max_n: int = 16) -> ParetoCatalog:
    """Exact Pareto catalog by enumerating all 2^n solutions.

    Membership is objective-level: a solution belongs to a party's set iff its
    vector for that party is non-dominated over the whole space. The common
    set is the intersection of the per-party sets.
    """
    if problem.n > max_n:
        raise ValueError(f"exhaustive enumeration refused for n > {max_n}")
    n = problem.n
    groups: Dict[MultiPartyObjectives, List[int]] = {}
    for word in range(1 << n):
        obj = problem.evaluate(BitString(n, word))
        groups.setdefault(obj, []).append(word)

    parties = problem.parties
    fronts = []
    solutions = []
    for m in range(parties):
        distinct = {obj[m] for obj in groups}
        front = _pareto_distinct(distinct, Sense.MAXIMIZE)
        fronts.append(front)
        members = set()
        for obj, words in groups.items():
            if obj[m] in front:
                members.update(words)
        solutions.append(frozenset(members))
    common = solutions[0]
    for s in solutions[1:]:
        common = common & s
    return ParetoCatalog(
        kind=problem.kind,
        n=n,
        party_solutions=tuple(solutions),
        party_fronts=tuple(fronts),
        common_solutions=frozenset(common),
    )


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


def exact_path_catalog(g: WeightedDigraph, *, max_n: int = 12) -> PathCatalog:
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
    if g.n > max_n:
        raise ValueError(f"exhaustive path catalog refused for n > {max_n}")
    by_endpoint = _simple_paths_by_endpoint(g)
    catalogs: Dict[int, EndpointCatalog] = {}
    for endpoint in range(2, g.n + 1):
        entries = sorted(by_endpoint[endpoint])
        party_sets = []
        for m in (0, 1):
            front = _pareto_distinct({obj[m] for _, obj in entries}, Sense.MINIMIZE)
            party_sets.append(tuple(pe for pe in entries if pe[1][m] in front))
        in_both = set(p for p, _ in party_sets[0]) & set(p for p, _ in party_sets[1])
        common = tuple(pe for pe in entries if pe[0] in in_both)
        joint_front = _pareto_distinct({obj[0] + obj[1] for _, obj in entries}, Sense.MINIMIZE)
        joint = tuple(pe for pe in entries if pe[1][0] + pe[1][1] in joint_front)
        catalogs[endpoint] = EndpointCatalog(endpoint, tuple(party_sets), common, joint)
    return PathCatalog(n=g.n, per_endpoint=catalogs)


def exact_party_fronts(g: WeightedDigraph, party: int) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Per-endpoint distinct Pareto vectors of one party, via the exact catalog."""
    cat = exact_path_catalog(g)
    return {e: cat.party_front(e, party) for e in cat.per_endpoint}


def epsilon_of_solution(
    objectives: MultiPartyObjectives, common_objectives: Sequence[MultiPartyObjectives]
) -> Fraction:
    """Smallest eps >= 0 with x (1+eps)-weakly dominating every common member.

    Closed form: the largest ratio of an objective of x to the matching
    objective of a common member, over all members, parties, and objectives,
    minus one, clamped at zero. Common members are real paths, so their
    objective values are at least 1, and the ratios are compared by integer
    cross-multiplication.
    """
    if not common_objectives:
        raise ValueError("common set for the endpoint is empty")
    wx = wz = None  # the worst ratio so far is wx / wz
    for member in common_objectives:
        if len(member) != len(objectives):
            raise ValueError("party count mismatch against common member")
        for vec_x, vec_z in zip(objectives, member):
            if len(vec_x) != len(vec_z):
                raise ValueError("objective count mismatch against common member")
            for x, z in zip(vec_x, vec_z):
                if z < 1:
                    raise ValueError("common member has an objective below 1")
                if wz is None or x * wz > wx * z:
                    wx, wz = x, z
    return Fraction(wx - wz, wz) if wx > wz else Fraction(0)


def payoff_runtime_predictor(n: int, initial_zero_count: int) -> Fraction:
    """Expected evaluations for the payoff-gated climb from z zero bits: sum n/i."""
    if not 0 <= initial_zero_count <= n:
        raise ValueError("zero count must lie in 0..n")
    total = Fraction(0)
    for i in range(1, initial_zero_count + 1):
        total += Fraction(n, i)
    return total


def pseudoboolean_report(cat: ParetoCatalog) -> str:
    """Plain-text catalog report, the CLI's oracle output."""
    lines = [f"problem {cat.kind} n={cat.n}"]
    for m, (front, members) in enumerate(zip(cat.party_fronts, cat.party_solutions), start=1):
        lines.append(f"party {m}: front size {len(front)}, solutions {len(members)}")
        for vec in sorted(front):
            lines.append(f"  front vector {vec}")
    commons = cat.common_bitstrings()
    lines.append(f"common solutions ({len(commons)}):")
    shown = commons if len(commons) <= 16 else commons[:16]
    for x in shown:
        lines.append(f"  {x.to01()}")
    if len(commons) > len(shown):
        lines.append(f"  ... {len(commons) - len(shown)} more")
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
