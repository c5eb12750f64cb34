"""Fixture graph, planted generator, and the instance file format."""

import hashlib
import random
import tracemalloc
from collections import deque

import pytest

from mpmolab.instances import (
    KIND_PLANTED,
    InstanceSpec,
    _build_planted,
    _verify_planted,
    fixture_graph,
    generate_planted_uav,
    parse_instance,
    provenance_comment,
    write_instance,
)
from mpmolab.oracles import exact_path_catalog, ideal_points
from mpmolab.shortestpath import WeightedDigraph, eval_path


# objective totals for every source-rooted path of the reference graph,
# checked against the per-edge weights by hand
FIXTURE_PATH_TOTALS = {
    (1, 2): ((1, 2), (2, 4)),
    (1, 3): ((3, 2), (3, 5)),
    (1, 2, 3): ((4, 5), (4, 5)),
    (1, 3, 4): ((5, 3), (4, 6)),
    (1, 2, 3, 4): ((6, 6), (5, 6)),
    (1, 2, 5): ((10, 4), (8, 5)),
    (1, 3, 5): ((4, 5), (7, 8)),
    (1, 3, 4, 5): ((7, 4), (5, 7)),
    (1, 2, 3, 5): ((5, 8), (8, 8)),
    (1, 2, 3, 4, 5): ((8, 7), (6, 7)),
}


def test_fixture_edge_totals():
    g = fixture_graph()
    assert g.n == 5
    assert g.edge_count == 7
    for path, expected in FIXTURE_PATH_TOTALS.items():
        assert eval_path(g, path) == expected


def test_fixture_catalog_is_exactly_the_hand_table():
    cat = exact_path_catalog(fixture_graph())
    all_paths = set()
    for ec in cat.per_endpoint.values():
        for pset in ec.party_sets:
            all_paths.update(p for p, _ in pset)
        all_paths.update(p for p, _ in ec.joint)
    assert all_paths <= set(FIXTURE_PATH_TOTALS)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("mystery", 10)
    with pytest.raises(ValueError):
        InstanceSpec(KIND_PLANTED, 1)
    with pytest.raises(ValueError, match="instance seed must be non-negative, got -3"):
        InstanceSpec(KIND_PLANTED, 10, seed=-3)
    spec = InstanceSpec(KIND_PLANTED, 10)
    assert spec.cols == 4
    assert spec.rows == 3


def test_generate_requires_planted_kind():
    with pytest.raises(ValueError, match="unknown instance kind 'fixture'"):
        InstanceSpec("fixture", 5)


def test_planted_determinism():
    spec = InstanceSpec(KIND_PLANTED, 9, seed=4)
    assert generate_planted_uav(spec) == generate_planted_uav(spec)
    other = generate_planted_uav(InstanceSpec(KIND_PLANTED, 9, seed=5))
    assert other != generate_planted_uav(spec)


def hop_distances(g):
    """Unweighted BFS distance from the source, the planted tree depth."""
    dist = {1: 0}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in g.successors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_tree_path_is_the_common_optimum(seed):
    g = generate_planted_uav(InstanceSpec(KIND_PLANTED, 9, seed=seed))
    dist = hop_distances(g)
    cat = exact_path_catalog(g)
    for endpoint, ec in cat.per_endpoint.items():
        assert ec.common, endpoint
        d = dist[endpoint]
        assert ((d, d), (d, d)) in [obj for _, obj in ec.common]


def test_planted_weight_ranges():
    spec = InstanceSpec(KIND_PLANTED, 12, seed=7)
    g = generate_planted_uav(spec)
    # off-tree weights rise by at most JITTER_UP = ceil(1.5) = 2
    ones = 0
    for (u, v), (w1, w2) in g.edge_items():
        for w in w1 + w2:
            assert 1 <= w <= 12
        if w1 == (1, 1) and w2 == (1, 1):
            ones += 1
    assert ones >= g.n - 1


def test_planted_large_instance_passes_the_certificate():
    g = generate_planted_uav(InstanceSpec(KIND_PLANTED, 16, seed=2))
    assert g.n == 16
    assert hop_distances(g).keys() == set(range(1, 17))
    assert ideal_points(g) == {v: ((d, d), (d, d)) for v, d in hop_distances(g).items() if v != 1}


def test_provenance_comment_format():
    spec = InstanceSpec(KIND_PLANTED, 20, seed=9)
    assert provenance_comment(spec) == "# spec: kind=planted-uav n=20 seed=9"


# sha256 over the comment-free text of every planted instance below, in
# order, as the generator wrote them when it still took grid, hover, jitter
# and density-seed settings at their defaults
PLANTED_DIGEST = "856faa14201fb6dcaeb2b75a89ce5dc8c60fef762266434d650494c785e2fdb9"


def test_planted_instance_bytes_are_pinned():
    digest = hashlib.sha256()
    for n in (2, 3, 5, 7, 10, 12, 16, 30, 50, 100):
        for seed in (0, 1, 2):
            digest.update(write_instance(generate_planted_uav(InstanceSpec(KIND_PLANTED, n, seed=seed))).encode())
    assert digest.hexdigest() == PLANTED_DIGEST


def test_write_then_parse_roundtrip():
    for g in (fixture_graph(), generate_planted_uav(InstanceSpec(KIND_PLANTED, 10, seed=1))):
        text = write_instance(g)
        assert text.startswith("bpmosp v1\n")
        assert parse_instance(text) == g

    commented = write_instance(fixture_graph(), comment="spec: kind=fixture\nhand-checked")
    assert "# spec: kind=fixture" in commented
    assert "# hand-checked" in commented
    assert parse_instance(commented) == fixture_graph()


def test_a_large_vertex_count_is_refused_in_constant_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex 3 unreachable from source"):
            parse_instance("bpmosp v1\n1000000 2 1 1\n1 2 1 | 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="vertex 3 unreachable from source"):
        parse_instance("bpmosp v1\n1000000000000 2 1 1\n1 2 1 | 1\n")


def test_parse_accepts_blank_lines_and_comments():
    text = "bpmosp v1\n# note\n\n2 2 1 1\n# another\n1 2 3 | 4\n\n"
    g = parse_instance(text)
    assert g.n == 2
    assert g.weights(1, 2) == ((3,), (4,))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bpmosp v2\n2 2 1 1\n1 2 1 | 1\n", "line 1: expected header"),
        ("bpmosp v1\n# pad\n2 2 1\n", "line 3: expected 'n M k1 k2'"),
        ("bpmosp v1\n2 two 1 1\n", "line 2: expected four integers"),
        ("bpmosp v1\n2 3 1 1\n", "only two-party instances supported, got M=3"),
        ("bpmosp v1\n1 2 1 1\n", "line 2: sizes out of range"),
        ("bpmosp v1\n2 2 1 1\n1 2 1 1\n", "line 3: expected exactly one '|'"),
        ("bpmosp v1\n2 2 1 1\n1 2 x | 1\n", "line 3: non-integer token"),
        ("bpmosp v1\n2 2 1 1\n1 2 1 2 | 1\n", "line 3: expected 'u v' + 1 weights | 1 weights"),
        ("bpmosp v1\n2 2 1 1\n1 3 1 | 1\n", "line 3: vertex outside 1..2"),
        ("bpmosp v1\n2 2 1 1\n1 1 1 | 1\n", "line 3: self loop at vertex 1"),
        (
            "bpmosp v1\n2 2 1 1\n1 2 1 | 1\n1 2 2 | 2\n",
            "line 4: duplicate edge 1->2 (first on line 3)",
        ),
        ("bpmosp v1\n2 2 1 1\n1 2 0 | 1\n", "line 3: non-positive weight"),
        ("bpmosp v1\n", "line 2: missing counts line"),
        ("", "line 1: expected header"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ValueError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_certificate_rejects_a_tree_path_that_is_not_the_ideal_point():
    spec = InstanceSpec(KIND_PLANTED, 16, seed=2)
    g, depth = _build_planted(spec, random.Random(spec.seed))
    _verify_planted(g, depth)
    raised = {v: d + 1 for v, d in depth.items()}
    with pytest.raises(ValueError, match="tree path to vertex 2 is not the certified ideal point"):
        _verify_planted(g, raised)
    # The tree edge into vertex 7 costing 2 in one objective: the tree path
    # to 7 misses the ideal point there, and tree children carry larger
    # numbers, so 7 is the first vertex named.
    (parent,) = [u for u in depth if g.has_edge(u, 7) and g.weights(u, 7) == ((1, 1), (1, 1))]
    for k in range(4):
        edges = dict(g.edge_items())
        flat = [1, 1, 1, 1]
        flat[k] = 2
        edges[(parent, 7)] = (tuple(flat[:2]), tuple(flat[2:]))
        with pytest.raises(ValueError, match="tree path to vertex 7 is not the certified ideal point"):
            _verify_planted(WeightedDigraph(g.n, edges), depth)
