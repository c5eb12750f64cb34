"""Problem instances: the five-vertex fixture graph and a planted generator.

The fixture is a hand-checked 7-edge digraph whose full path catalog is small
enough to audit by hand; its totals are pinned by golden tests.

The generator takes a kind, a size n and a seed, nothing else. It lays
vertices on a jittered grid ceil(sqrt(n)) columns wide, derives raw edge costs
from a tiny UAV-flavored model (edge length and hover-point distance for
party 1, ground-risk and noise-exposure costs for party 2), discretizes them
to integers >= 2, then plants a breadth-first tree from the source with all
weights 1 and raises each off-tree weight by a small random amount. Any path
leaving the tree pays at least one weight >= 2, so for every endpoint the
tree path strictly dominates every alternative in every objective of both
parties. That makes the common Pareto set per endpoint nonempty by
construction (it is exactly the tree path), which downstream consensus
experiments rely on. Each generated graph is checked once against
the exact ideal-point certificate ``oracles.ideal_points``, at every size.

Two streams are seeded with the seed: one draws the density field and the
altitudes, the other the vertex jitter, the hover points and the off-tree
weight raises.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .oracles import ideal_points
from .shortestpath import SOURCE, WeightedDigraph

_FIXTURE_EDGES = {
    (1, 2): ((1, 2), (2, 4)),
    (1, 3): ((3, 2), (3, 5)),
    (2, 3): ((3, 3), (2, 1)),
    (2, 5): ((9, 2), (6, 1)),
    (3, 4): ((2, 1), (1, 1)),
    (3, 5): ((1, 3), (4, 3)),
    (4, 5): ((2, 1), (1, 1)),
}

KIND_PLANTED = "planted-uav"

# Physical-ish constants for the raw party-2 costs. They only shape weight
# magnitudes before discretization; the planted tree is what guarantees the
# common solution, so these can be tuned freely.
P_CRASH = 1e-4          # crash probability per edge traversal
S_H = 12.0              # lethal area, m^2
ALT_REF = 40.0          # altitude softening scale for ground risk, m
PSI_MU = math.log(35.0)  # lognormal noise-exposure peak altitude
PSI_SIGMA = 0.5
DENSITY_BASE = 0.2
WEIGHT_SPAN = 8         # discretized weights fall in 2 .. 2 + WEIGHT_SPAN
HOVER_POINTS = 3        # party 1's second cost is the distance to the nearest one
JITTER = 0.15           # vertex offset amplitude, in grid cells
JITTER_UP = math.ceil(JITTER * 10)  # off-tree weights rise by 0 .. JITTER_UP


def fixture_graph() -> WeightedDigraph:
    """The five-vertex reference graph used across tests and examples."""
    return WeightedDigraph(5, dict(_FIXTURE_EDGES))


@dataclass(frozen=True)
class InstanceSpec:
    """Every input of one generated instance; the file header spells it out."""

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind != KIND_PLANTED:
            raise ValueError(f"unknown instance kind {self.kind!r}; the generator makes {KIND_PLANTED!r}")
        if self.n < 2:
            raise ValueError("instance needs at least 2 vertices")
        if self.seed < 0:  # random.Random(-s) seeds like random.Random(s)
            raise ValueError(f"instance seed must be non-negative, got {self.seed}")

    @property
    def cols(self) -> int:
        return math.ceil(math.sqrt(self.n))

    @property
    def rows(self) -> int:
        return math.ceil(self.n / self.cols)


class _DensityField:
    """Smooth positive field: a base level plus three Gaussian bumps."""

    def __init__(self, rng: random.Random, cols: int, rows: int):
        self.bumps = []
        for _ in range(3):
            cx = rng.uniform(0, max(cols - 1, 1))
            cy = rng.uniform(0, max(rows - 1, 1))
            amp = rng.uniform(0.5, 2.0)
            spread = rng.uniform(0.8, 2.0)
            self.bumps.append((cx, cy, amp, spread))

    def at(self, x: float, y: float) -> float:
        total = DENSITY_BASE
        for cx, cy, amp, spread in self.bumps:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            total += amp * math.exp(-d2 / (2 * spread * spread))
        return total


def _noise_exposure(alt: float) -> float:
    """Lognormal annoyance profile over altitude; peaks near low cruise."""
    return math.exp(-((math.log(alt) - PSI_MU) ** 2) / (2 * PSI_SIGMA**2)) / (
        alt * PSI_SIGMA * math.sqrt(2 * math.pi)
    )


def _grid_pairs(spec: InstanceSpec) -> List[Tuple[int, int]]:
    pairs = []
    cols = spec.cols
    for v in range(1, spec.n + 1):
        r, c = divmod(v - 1, cols)
        if c + 1 < cols and v + 1 <= spec.n:
            pairs.append((v, v + 1))
        if v + cols <= spec.n:
            pairs.append((v, v + cols))
    return pairs


def _discretize(raw: Dict[Tuple[int, int], float]) -> Dict[Tuple[int, int], int]:
    lo = min(raw.values())
    hi = max(raw.values())
    if hi <= lo:
        return {uv: 2 for uv in raw}
    return {uv: 2 + math.ceil((val - lo) / (hi - lo) * WEIGHT_SPAN) for uv, val in raw.items()}


def _bfs_tree(adjacency: Dict[int, List[int]]) -> Tuple[Dict[int, int], set]:
    """First-visit BFS from the source over ascending neighbors (a grid prefix is connected)."""
    depth = {SOURCE: 0}
    tree_edges = set()
    frontier = [SOURCE]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adjacency[u]):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    tree_edges.add((u, v))
                    nxt.append(v)
        frontier = nxt
    return depth, tree_edges


def _build_planted(spec: InstanceSpec, rng: random.Random) -> Tuple[WeightedDigraph, Dict[int, int]]:
    cols, rows = spec.cols, spec.rows
    density_rng = random.Random(spec.seed)
    field_ = _DensityField(density_rng, cols, rows)
    altitude = {v: 25.0 + 25.0 * density_rng.random() for v in range(1, spec.n + 1)}

    positions = {}
    for v in range(1, spec.n + 1):
        r, c = divmod(v - 1, cols)
        positions[v] = (c + rng.uniform(-JITTER, JITTER), r + rng.uniform(-JITTER, JITTER))
    hovers = [
        (rng.uniform(0, max(cols - 1, 1)), rng.uniform(0, max(rows - 1, 1)))
        for _ in range(HOVER_POINTS)
    ]

    pairs = _grid_pairs(spec)
    raw_len: Dict[Tuple[int, int], float] = {}
    raw_hover: Dict[Tuple[int, int], float] = {}
    raw_fatal: Dict[Tuple[int, int], float] = {}
    raw_noise: Dict[Tuple[int, int], float] = {}
    for u, v in pairs:
        (xu, yu), (xv, yv) = positions[u], positions[v]
        mid = ((xu + xv) / 2, (yu + yv) / 2)
        alt = (altitude[u] + altitude[v]) / 2
        raw_len[(u, v)] = math.dist(positions[u], positions[v])
        raw_hover[(u, v)] = min(math.dist(mid, h) for h in hovers)
        shelter = 1.0 / (1.0 + alt / ALT_REF)
        raw_fatal[(u, v)] = P_CRASH * S_H * field_.at(*mid) * shelter
        raw_noise[(u, v)] = field_.at(*mid) * _noise_exposure(alt)

    w_len = _discretize(raw_len)
    w_hover = _discretize(raw_hover)
    w_fatal = _discretize(raw_fatal)
    w_noise = _discretize(raw_noise)

    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, spec.n + 1)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    depth, tree_edges = _bfs_tree(adjacency)

    edges = {}
    for u, v in pairs:
        base = ((w_len[(u, v)], w_hover[(u, v)]), (w_fatal[(u, v)], w_noise[(u, v)]))
        for uv in ((u, v), (v, u)):
            if uv in tree_edges:
                edges[uv] = ((1, 1), (1, 1))
            else:
                edges[uv] = tuple(tuple(w + rng.randrange(JITTER_UP + 1) for w in ws) for ws in base)
    return WeightedDigraph(spec.n, edges), depth


def _verify_planted(g: WeightedDigraph, depth: Dict[int, int]) -> None:
    """Every endpoint's certified ideal point must be its tree path, ((d, d), (d, d))."""
    ideal = ideal_points(g)
    for v in range(2, g.n + 1):
        d = depth[v]
        if ideal.get(v) != ((d, d), (d, d)):
            raise ValueError(f"tree path to vertex {v} is not the certified ideal point")


def generate_planted_uav(spec: InstanceSpec) -> WeightedDigraph:
    """Build a planted instance and check it against the ideal-point certificate."""
    g, depth = _build_planted(spec, random.Random(spec.seed))
    _verify_planted(g, depth)
    return g


def provenance_comment(spec: InstanceSpec) -> str:
    """The header line that names every input, so the file can be regenerated."""
    return f"# spec: kind={spec.kind} n={spec.n} seed={spec.seed}"


def write_instance(g: WeightedDigraph, *, comment: Optional[str] = None) -> str:
    """Serialize to the `bpmosp v1` text format."""
    k1, k2 = g.k
    lines = ["bpmosp v1"]
    if comment is not None:
        for line in comment.splitlines():
            lines.append(line if line.startswith("#") else f"# {line}")
    lines.append(f"{g.n} 2 {k1} {k2}")
    for (u, v), (w1, w2) in g.edge_items():
        left = " ".join(str(w) for w in w1)
        right = " ".join(str(w) for w in w2)
        lines.append(f"{u} {v} {left} | {right}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> WeightedDigraph:
    """Parse the `bpmosp v1` format; failures name the offending line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bpmosp v1":
        raise ValueError("line 1: expected header 'bpmosp v1'")
    n = k1 = k2 = None
    edges: Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    first_line: Dict[Tuple[int, int], int] = {}
    for no, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if n is None:
            parts = s.split()
            if len(parts) != 4:
                raise ValueError(f"line {no}: expected 'n M k1 k2'")
            try:
                n, parties, k1, k2 = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"line {no}: expected four integers 'n M k1 k2'") from None
            if parties != 2:
                raise ValueError(f"line {no}: only two-party instances supported, got M={parties}")
            if n < 2 or k1 < 1 or k2 < 1:
                raise ValueError(f"line {no}: sizes out of range")
            continue
        if s.count("|") != 1:
            raise ValueError(f"line {no}: expected exactly one '|' between party weights")
        left, right = s.split("|")
        try:
            lt = [int(t) for t in left.split()]
            rt = [int(t) for t in right.split()]
        except ValueError:
            raise ValueError(f"line {no}: non-integer token") from None
        if len(lt) != 2 + k1 or len(rt) != k2:
            raise ValueError(f"line {no}: expected 'u v' + {k1} weights | {k2} weights")
        u, v = lt[0], lt[1]
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {no}: vertex outside 1..{n}")
        if u == v:
            raise ValueError(f"line {no}: self loop at vertex {u}")
        if (u, v) in edges:
            raise ValueError(f"line {no}: duplicate edge {u}->{v} (first on line {first_line[(u, v)]})")
        w1, w2 = tuple(lt[2:]), tuple(rt)
        if any(w < 1 for w in w1 + w2):
            raise ValueError(f"line {no}: non-positive weight")
        edges[(u, v)] = (w1, w2)
        first_line[(u, v)] = no
    if n is None:
        raise ValueError("line 2: missing counts line 'n M k1 k2'")
    return WeightedDigraph(n, edges)
