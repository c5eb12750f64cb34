"""Path machinery: graph type, boxes, mutation, archives, consensus round."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mpmolab.harness import endpoint_commons, make_metric_fn, make_target_fn
from mpmolab.instances import KIND_PLANTED, InstanceSpec, fixture_graph, generate_planted_uav
from mpmolab.oracles import exact_party_fronts
from mpmolab.shortestpath import (
    ApproxParams,
    BoxBase,
    consensus_archive_bound,
    epsilon_dominates,
    eval_path,
    mutate_path,
    path_epsilon,
    run_demo_sp,
    run_empmo_cons_sp,
    run_empmo_simple_sp,
    ultimatum_consensus,
    WeightedDigraph,
)


def small_graph():
    return WeightedDigraph(
        3,
        {
            (1, 2): ((2,), (1,)),
            (2, 3): ((1,), (3,)),
            (1, 3): ((4,), (5,)),
        },
    )


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedDigraph(2, {(1, 1): ((1,), (1,))})
    with pytest.raises(ValueError, match="out of range"):
        WeightedDigraph(2, {(1, 3): ((1,), (1,))})
    with pytest.raises(ValueError, match="non-positive"):
        WeightedDigraph(2, {(1, 2): ((0,), (1,))})
    with pytest.raises(ValueError, match="arity"):
        WeightedDigraph(
            3, {(1, 2): ((1,), (1,)), (2, 3): ((1, 2), (1,))}
        )
    with pytest.raises(ValueError, match="unreachable"):
        WeightedDigraph(3, {(1, 2): ((1,), (1,))})
    with pytest.raises(ValueError, match="no edges"):
        WeightedDigraph(2, {})


def test_graph_accessors():
    g = small_graph()
    assert g.successors(1) == (2, 3)
    assert g.successors(3) == ()
    assert g.has_edge(2, 3) and not g.has_edge(3, 2)
    assert g.edge_count == 3
    assert g.max_weight(0) == 4
    assert g.max_weight(1) == 5
    with pytest.raises(ValueError):
        g.weights(3, 1)
    assert g == small_graph()


def test_eval_path_on_fixture():
    g = fixture_graph()
    assert eval_path(g, (1, 3, 4, 5)) == ((7, 4), (5, 7))
    assert eval_path(g, (1, 2, 5)) == ((10, 4), (8, 5))
    assert eval_path(g, (1,)) == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        eval_path(g, (2, 5))
    with pytest.raises(ValueError):
        eval_path(g, (1, 4))


def test_epsilon_dominates():
    a = ((1, 3, 5), (7, 8))
    b = ((1, 2, 5), (4, 5))
    assert epsilon_dominates(a, b, 1)  # 7 <= 2*4 and 8 <= 2*5
    assert not epsilon_dominates(a, b, Fraction(1, 2))
    assert epsilon_dominates(a, a, Fraction(1, 1000))  # reflexive at any slack
    assert not epsilon_dominates(a, a, 1, strict=True)
    # different endpoints never compare
    assert not epsilon_dominates(((1, 2), (1, 1)), ((1, 3), (9, 9)), 5)
    with pytest.raises(ValueError):
        epsilon_dominates(a, b, 0)
    with pytest.raises(ValueError):
        epsilon_dominates(((1, 2), (1,)), ((1, 2), (1, 1)), 1)


def test_box_base_spot_values():
    r2 = BoxBase.plain(2)
    assert [r2.floor_log(f) for f in (1, 2, 7, 8, 1023, 1024)] == [0, 1, 2, 3, 9, 10]
    r3 = BoxBase.plain(3)
    assert r3.floor_log(8) == 1
    assert r3.floor_log(9) == 2
    # fractional base 2^(1/4): largest t with 2^t <= 3^4
    quarter = BoxBase.power(2, 4)
    assert quarter.floor_log(3) == 6
    with pytest.raises(ValueError):
        BoxBase.plain(1)
    with pytest.raises(ValueError):
        BoxBase.power(2, 0)
    with pytest.raises(ValueError):
        r2.floor_log(0)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5000),
)
def test_floor_log_matches_definition(num, den, root, f):
    if num <= den:
        num, den = den + 1, den
    base = BoxBase(num, den, root)
    t = base.floor_log(f)
    assert t >= 0
    target = f**root
    assert num**t <= target * den**t
    assert num ** (t + 1) > target * den ** (t + 1)


def box_indices(objectives, base):
    """Per-party tuples of floored log_r objective values."""
    return tuple(tuple(base.floor_log(f) for f in vec) for vec in objectives)


def test_box_index_examples():
    assert box_indices(((8, 5),), BoxBase.plain(2)) == ((3, 2),)
    assert box_indices(((7, 8),), BoxBase.plain(3)) == ((1, 1),)
    assert box_indices(((1, 1), (1, 1)), BoxBase.plain(7)) == ((0, 0), (0, 0))


@given(
    st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=2, max_value=5),
)
def test_box_index_is_monotone(vec, bump, root):
    base = BoxBase.power(3, root)
    bigger = list(vec)
    bigger[0] += bump
    small = box_indices((tuple(vec),), base)[0]
    large = box_indices((tuple(bigger),), base)[0]
    assert all(s <= l for s, l in zip(small, large))


def test_approx_params():
    p = ApproxParams.consensus(5, 1, 1)
    assert p.r == BoxBase.power(2, 4)
    assert p.eps_2_max == Fraction(1)
    q = ApproxParams.consensus(5, "1/2", 1, 3)
    assert q.eps_1 == Fraction(1, 2)
    assert q.r == BoxBase.power(Fraction(3, 2), 4)
    with pytest.raises(ValueError):
        ApproxParams.consensus(5, 0, 1)
    with pytest.raises(ValueError):
        ApproxParams.consensus(5, 1, 1, "1/2")


class ScriptedRng:
    """Plays back queued draws; fails loudly when the script runs dry."""

    def __init__(self, floats=(), ints=()):
        self.floats = list(floats)
        self.ints = list(ints)

    def random(self):
        return self.floats.pop(0)

    def randrange(self, *args):
        return self.ints.pop(0)


def test_mutate_path_scripted_edits():
    g = fixture_graph()
    # Delete at i=1: shortcut (3,5) exists
    assert mutate_path(g, (1, 3, 4, 5), ScriptedRng([0.9], [0])) == (1, 3, 5)
    # Delete at i=l-1 drops the endpoint
    assert mutate_path(g, (1, 3, 4, 5), ScriptedRng([0.9], [1])) == (1, 3, 4)
    # Add at the end appends a successor of the endpoint
    assert mutate_path(g, (1,), ScriptedRng([0.1], [0, 0])) == (1, 2)
    assert mutate_path(g, (1,), ScriptedRng([0.1], [0, 1])) == (1, 3)
    # Add in the interior inserts a bridging vertex: 1 -> 3 -> 2? no such. 1->2->5 via nothing.
    # (1, 3, 5) with insertion position 1 has candidates {4}: 3->4 and 4->5
    assert mutate_path(g, (1, 3, 5), ScriptedRng([0.1], [1, 0])) == (1, 3, 4, 5)
    # Delete from a two-vertex path has no interior: no change
    assert mutate_path(g, (1, 2), ScriptedRng([0.9], [])) is None
    # Add past the length cap: no change before any position draw
    assert mutate_path(g, (1, 3, 4, 5), ScriptedRng([0.1], []), max_len=4) is None
    with pytest.raises(ValueError):
        mutate_path(g, (2, 5), random.Random(0))


def test_mutate_path_outputs_are_walks():
    g = fixture_graph()
    rng = random.Random(42)
    frontier = [(1,), (1, 3, 4, 5), (1, 2, 5)]
    produced = 0
    for _ in range(600):
        p = frontier[rng.randrange(len(frontier))]
        q = mutate_path(g, p, rng)
        if q is None:
            continue
        produced += 1
        assert q != p
        assert q[0] == 1
        assert len(q) <= 2 * g.n
        for u, v in zip(q, q[1:]):
            assert g.has_edge(u, v)
        frontier.append(q)
    assert produced > 100


def test_cons_sp_rejects_foreign_box_base():
    g = fixture_graph()
    params = ApproxParams(1, 1, 1, BoxBase.plain(2))
    with pytest.raises(ValueError, match="consensus"):
        run_empmo_cons_sp(g, params, 10, 0)


def test_cons_sp_budget_zero_keeps_bare_source():
    g = fixture_graph()
    res = run_empmo_cons_sp(g, ApproxParams.consensus(5, 1, 1), 0, 0)
    assert res.generations == 0
    assert res.evaluations == 0
    assert [e.path for e in res.archive] == [(1,)]
    assert res.metrics == []


def test_cons_sp_converges_on_fixture():
    g = fixture_graph()
    refs = endpoint_commons(g)
    res = run_empmo_cons_sp(
        g,
        ApproxParams.consensus(5, 1, 1),
        3000,
        seed=0,
        metric_fn=make_metric_fn(refs),
        cadence=100,
    )
    # the per-endpoint minimum converges; a slack-0.6 member such as (1, 2, 5)
    # legitimately stays, so max_eps does not have to reach zero
    assert res.metrics[-1].mean_eps_endpoints == 0.0
    assert res.metrics[-1].max_eps >= res.metrics[-1].mean_eps_members >= 0.0
    gens = [s.generation for s in res.metrics]
    assert gens == sorted(set(gens))
    assert res.max_archive_size <= consensus_archive_bound(g, ApproxParams.consensus(5, 1, 1).r)
    # source stays pinned at the head of the pool
    assert res.archive[0].path == (1,)


def test_cons_sp_observer_sees_source_first():
    g = fixture_graph()
    seen = []
    run_empmo_cons_sp(
        g,
        ApproxParams.consensus(5, 1, 1),
        50,
        seed=2,
        observer=lambda gen, pool: seen.append(pool[0].path),
    )
    assert set(seen) == {(1,)}


def test_consensus_archive_bound_hand_check():
    g = fixture_graph()
    r = ApproxParams.consensus(5, 1, 1).r
    # party 1: (n-1)*w_max = 4*9 = 36, floor(4*log2 36) = 20 -> 4*21^1 + 1 = 85
    # party 2: 4*6 = 24, floor(4*log2 24) = 18 -> 4*19 + 1 = 77
    assert r.floor_log(36) == 20
    assert r.floor_log(24) == 18
    assert consensus_archive_bound(g, r) == 77


def test_demo_sp_keeps_joint_pareto_endpoints():
    g = fixture_graph()
    r = BoxBase.power(2, 4)
    res = run_demo_sp(g, r, 20000, seed=1)
    vecs5 = {e.objectives for e in res.archive if e.path and e.path[-1] == 5}
    assert ((10, 4), (8, 5)) in vecs5
    assert ((4, 5), (7, 8)) in vecs5
    assert ((7, 4), (5, 7)) in vecs5


def test_path_epsilon():
    front1_at_5 = [(4, 5), (7, 4)]
    assert path_epsilon((10, 4), front1_at_5) == Fraction(3, 7)
    assert path_epsilon((7, 4), front1_at_5) == 0
    assert path_epsilon((4, 5), front1_at_5) == 0
    with pytest.raises(ValueError):
        path_epsilon((1, 2), [])
    with pytest.raises(ValueError):
        path_epsilon((1, 2), [(1, 2, 3)])


def fixture_state():
    g = fixture_graph()
    proposals = [(p, eval_path(g, p)) for p in ((1, 3, 5), (1, 3, 4, 5))]
    responders = [(p, eval_path(g, p)) for p in ((1, 2, 5),)]
    return g, proposals, responders, exact_party_fronts(g, 1)


def test_ultimatum_strict_slack_can_fail():
    g, proposals, responders, fronts = fixture_state()
    outcomes = ultimatum_consensus(
        g, proposals, responders, ApproxParams.consensus(5, 1, 1), fronts
    )
    assert outcomes[5].failed
    assert outcomes[5].eps2_prime is None
    # endpoints with no proposals fail by default
    assert outcomes[2].failed and outcomes[3].failed and outcomes[4].failed


def test_ultimatum_relaxation_reaches_agreement():
    g, proposals, responders, fronts = fixture_state()
    outcomes = ultimatum_consensus(
        g, proposals, responders, ApproxParams.consensus(5, 1, 1, 2), fronts
    )
    out = outcomes[5]
    assert not out.failed
    assert out.eps2_prime == 2
    assert out.boxes == ((1, 1),)
    assert [p.path for p in out.accepted] == [(1, 3, 4, 5)]
    winner = out.accepted[0]
    assert winner.eps2 == 0
    assert winner.u1 == 1 and winner.u2 == 1


def test_ultimatum_unique_path_endpoint_agrees_immediately():
    g = fixture_graph()
    both = [((1, 2), eval_path(g, (1, 2)))]
    outcomes = ultimatum_consensus(
        g, both, both, ApproxParams.consensus(5, 1, 1), exact_party_fronts(g, 1)
    )
    out = outcomes[2]
    assert not out.failed
    assert out.eps2_prime == 1  # first rung
    assert out.accepted[0].eps2 == 0


def test_simple_sp_run_reports_outcomes_per_endpoint():
    g = fixture_graph()
    res = run_empmo_simple_sp(
        g,
        ApproxParams.consensus(5, 1, 1, 2),
        500,
        seed=3,
        party2_fronts=exact_party_fronts(g, 1),
        metric_fn=make_metric_fn(endpoint_commons(g)),
        cadence=100,
    )
    assert sorted(res.outcomes) == [2, 3, 4, 5]
    for out in res.outcomes.values():
        if out.failed:
            continue
        for win in out.accepted:
            assert win.eps2 <= 2
    agreed = all(not o.failed for o in res.outcomes.values())
    assert (res.hit_evaluations is not None) == agreed
    gens = [s.generation for s in res.metrics]
    assert gens == sorted(set(gens))


def test_simple_sp_rejects_seeded_walks_back_to_source():
    g = WeightedDigraph(
        3,
        {
            (1, 2): ((1,), (1,)),
            (2, 1): ((1,), (1,)),
            (2, 3): ((1,), (1,)),
        },
    )
    with pytest.raises(ValueError, match="returns to the source"):
        run_empmo_simple_sp(
            g,
            ApproxParams.consensus(3, 1, 1),
            0,
            seed=0,
            initial_archives=([(1, 2, 1)], []),
            party2_fronts=exact_party_fronts(g, 1),
        )


@pytest.fixture(scope="module")
def property_graphs():
    return {
        "fixture": fixture_graph(),
        "planted10": generate_planted_uav(InstanceSpec(KIND_PLANTED, 10, seed=3)),
        "planted30": generate_planted_uav(InstanceSpec(KIND_PLANTED, 30, seed=4)),
    }


@pytest.mark.parametrize("name", ["fixture", "planted10", "planted30"])
def test_bridges_match_the_successor_scan(property_graphs, name):
    g = property_graphs[name]
    for u in range(1, g.n + 1):
        for w in range(1, g.n + 1):
            assert g.bridges(u, w) == tuple(v for v in g.successors(u) if g.has_edge(v, w))


def check_members(g, members, lane_bases):
    """Stored objectives and boxes equal a full evaluation of the path."""
    for m in members:
        assert m.objectives == eval_path(g, m.path), m.path
        if m.path == (1,):
            continue
        flat = m.objectives[0] + m.objectives[1]
        want = tuple(
            tuple(base.floor_log(c) for c in flat[a:b]) for (a, b), base in lane_bases
        )
        assert m.boxes == want, m.path


@pytest.mark.parametrize("name", ["fixture", "planted10", "planted30"])
def test_incremental_objectives_equal_eval_path(property_graphs, name):
    g = property_graphs[name]
    k1, k2 = g.k
    params = ApproxParams.consensus(g.n, 1, Fraction(1, 2), 2)
    both = ((0, k1), params.r), ((k1, k1 + k2), params.r)
    joint = (((0, k1 + k2), params.r),)
    party = (
        (((0, k1), BoxBase.power(2, g.n - 1)),),
        (((k1, k1 + k2), BoxBase.power(Fraction(3, 2), g.n - 1)),),
    )
    generations = 3000

    def watch(lanes):
        def observer(gen, pool):
            if gen % 500 == 0:
                check_members(g, pool, lanes)
        return observer

    res = run_empmo_cons_sp(g, params, generations, 0, observer=watch(both))
    check_members(g, res.archive, both)
    res = run_demo_sp(g, params.r, generations, 1, observer=watch(joint))
    check_members(g, res.archive, joint)

    # injected members are evaluated in full; their offspring incrementally
    seeds = [
        p for p in ((1, 2), (1, 2, 3), (1, 2, 1, 2)) if all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
    ]
    assert seeds
    watch_parties = lambda gen, pools: [watch(lanes)(gen, pool) for lanes, pool in zip(party, pools)]
    res = run_empmo_simple_sp(
        g, params, generations, 2,
        initial_archives=(seeds, seeds), party2_fronts={}, observer=watch_parties,
    )
    assert res.evaluations >= 2 * len(seeds)
    for lanes, members in zip(party, res.party_archives):
        check_members(g, members, lanes)


def test_drive_observer_payloads_and_hit_stop():
    g = fixture_graph()
    params = ApproxParams.consensus(5, 1, 1)
    frames = []
    run_empmo_cons_sp(g, params, 40, 0, observer=lambda gen, pool: frames.append((gen, type(pool))))
    run_demo_sp(g, params.r, 40, 0, observer=lambda gen, pool: frames.append((gen, type(pool))))
    assert frames == [(gen, list) for gen in range(1, 41)] * 2
    pairs = []
    res = run_empmo_simple_sp(
        g, params, 40, 0, party2_fronts={},
        observer=lambda gen, pools: pairs.append((gen, len(pools), [p[0].path for p in pools])),
    )
    assert pairs == [(gen, 2, [(1,), (1,)]) for gen in range(1, 41)]
    assert res.generations == 40

    # with stop_on_hit the run ends at the hit generation, before its observer call
    refs = endpoint_commons(g)
    seen = []
    kwargs = dict(target_fn=make_target_fn(refs), target_endpoints=refs.keys(), stop_on_hit=True)
    res = run_empmo_cons_sp(g, params, 100_000, 0, observer=lambda gen, pool: seen.append(gen), **kwargs)
    assert res.hit_generation == res.generations
    assert seen == list(range(1, res.hit_generation))
    full = run_empmo_cons_sp(
        g, params, res.generations + 50, 0, target_fn=kwargs["target_fn"], target_endpoints=refs.keys()
    )
    assert (full.hit_generation, full.hit_evaluations) == (res.hit_generation, res.hit_evaluations)
    assert full.generations == res.generations + 50
