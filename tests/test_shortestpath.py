"""Path machinery: graph type, boxes, mutation, archives, consensus round."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mpmolab.core import randbelow
from mpmolab.harness import make_metric_fn
from mpmolab.instances import KIND_PLANTED, InstanceSpec, fixture_graph, generate_planted_uav
from mpmolab.oracles import exact_party_fronts, exact_path_catalog, references
from mpmolab.shortestpath import (
    METRIC_CADENCE,
    ApproxParams,
    BoxBase,
    ConsensusOutcome,
    SpProposal,
    box_base,
    consensus_archive_bound,
    eval_path,
    mutate_path,
    path_epsilon,
    run_demo_sp,
    run_empmo_cons_sp,
    run_empmo_simple_sp,
    ultimatum_consensus,
    WeightedDigraph,
    _BoxArchive,
    _child,
    _search,
    SpEntry,
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
    p = ApproxParams(1, 1)
    assert p.eps_2_max == Fraction(1)
    assert box_base(5, p.eps_1, p.eps_2) == BoxBase.power(2, 4)
    q = ApproxParams("1/2", 1, 3)
    assert (q.eps_1, q.eps_2, q.eps_2_max) == (Fraction(1, 2), 1, 3)
    assert box_base(5, q.eps_1, q.eps_2) == BoxBase.power(Fraction(3, 2), 4)
    with pytest.raises(ValueError, match="must be positive"):
        ApproxParams(0, 1)
    with pytest.raises(ValueError, match="at least eps_2"):
        ApproxParams(1, 1, "1/2")


class ScriptedRng:
    """Plays back queued draws; fails loudly when the script runs dry."""

    def __init__(self, floats=(), ints=()):
        self.floats = list(floats)
        self.ints = list(ints)

    def random(self):
        return self.floats.pop(0)

    def randrange(self, *args):
        return self.ints.pop(0)

    def getrandbits(self, k):
        return self.ints.pop(0)


def test_mutate_path_scripted_edits():
    g = fixture_graph()
    loop = WeightedDigraph(2, {(1, 2): ((1,), (1,)), (2, 1): ((1,), (1,))})
    cases = [
        # Delete at i=1: shortcut (3,5) exists
        (g, (1, 3, 4, 5), [0.9], [0], (1, 3, 5)),
        # Delete at i=l-1 drops the endpoint
        (g, (1, 3, 4, 5), [0.9], [1], (1, 3, 4)),
        # Add at the end appends a successor of the endpoint
        (g, (1,), [0.1], [0, 0], (1, 2)),
        (g, (1,), [0.1], [0, 1], (1, 3)),
        # Add in the interior inserts a bridging vertex: (1, 3, 5) with
        # insertion position 1 has candidates {4}: 3->4 and 4->5
        (g, (1, 3, 5), [0.1], [1, 0], (1, 3, 4, 5)),
        # Delete from a two-vertex path has no interior: no change
        (g, (1, 2), [0.9], [], None),
        # Add on a walk of 2n vertices: no change before any position draw;
        # one vertex shorter, Add still appends
        (loop, (1, 2, 1, 2), [0.1], [], None),
        (loop, (1, 2, 1), [0.1], [2, 0], (1, 2, 1, 2)),
    ]
    for graph, p, floats, ints, want in cases:
        assert mutate_path(graph, p, ScriptedRng(floats, ints)) == want, p
        if p[-1] == 1 and len(p) > 1:
            continue  # seed_path refuses a walk back to the source
        # the archive step's own copy of the draws, after its parent draw, takes the same script
        k1, k2 = graph.k
        arch = _BoxArchive(graph, ((0, k1), (k1, k1 + k2)), (box_base(graph.n, 1),) * 2)
        arch.seed_path(p)
        rng = ScriptedRng(floats, [len(arch.pool) - 1] + ints)
        accepted = arch.step(rng.getrandbits, rng.random, 1)
        assert rng.floats == rng.ints == [], p
        # seeding counted one evaluation; a draw with no change counts none
        assert arch.evaluations == 1 + (want is not None), p
        if accepted:
            assert arch.pool[-1].path == want


@pytest.mark.parametrize("path", [(1, 5), (1, 99), (2, 5), ()], ids=str)
def test_mutate_path_refuses_a_path_that_is_no_walk_before_any_draw(path):
    # the fixture has no edge 1->5 and no vertex 99; (2, 5) leaves the source out
    g = fixture_graph()
    with pytest.raises(ValueError):
        eval_path(g, path)
    for seed in range(20):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ValueError):
            mutate_path(g, path, rng)
        assert rng.getstate() == state


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


def test_cons_sp_budget_zero_keeps_bare_source():
    g = fixture_graph()
    res = run_empmo_cons_sp(g, ApproxParams(1, 1), 0, 0)
    assert res.generations == 0
    assert res.evaluations == 0
    assert [e.path for e in res.archives[0]] == [(1,)]
    assert res.metrics == []


def test_cons_sp_converges_on_fixture():
    g = fixture_graph()
    refs = references(g)[0]
    res = run_empmo_cons_sp(
        g,
        ApproxParams(1, 1),
        3000,
        seed=0,
        metric_fn=make_metric_fn(refs),
    )
    # the per-endpoint minimum converges; a slack-0.6 member such as (1, 2, 5)
    # legitimately stays, so max_eps does not have to reach zero
    assert res.metrics[-1].mean_eps_endpoints == 0.0
    assert res.metrics[-1].max_eps >= res.metrics[-1].mean_eps_members >= 0.0
    # samples land on every METRIC_CADENCE-th generation and on the last
    assert [s.generation for s in res.metrics] == [
        *range(METRIC_CADENCE, res.generations, METRIC_CADENCE), res.generations
    ]
    assert res.max_archive_size <= consensus_archive_bound(g, ApproxParams(1, 1))
    # source stays pinned at the head of the pool
    assert res.archives[0][0].path == (1,)


def test_cons_sp_observer_sees_source_first():
    g = fixture_graph()
    seen = []
    run_empmo_cons_sp(
        g,
        ApproxParams(1, 1),
        50,
        seed=2,
        observer=lambda gen, pools: seen.append(pools[0][0].path),
    )
    assert set(seen) == {(1,)}


def test_consensus_archive_bound_hand_check():
    g = fixture_graph()
    r = BoxBase.power(2, 4)
    # party 1: (n-1)*w_max = 4*9 = 36, floor(4*log2 36) = 20 -> 4*21^1 + 1 = 85
    # party 2: 4*6 = 24, floor(4*log2 24) = 18 -> 4*19 + 1 = 77
    assert r.floor_log(36) == 20
    assert r.floor_log(24) == 18
    assert consensus_archive_bound(g, ApproxParams(1, 1)) == 77


def test_demo_sp_keeps_joint_pareto_endpoints():
    g = fixture_graph()
    res = run_demo_sp(g, ApproxParams(1, 1), 20000, seed=1)
    vecs5 = {e.objectives for e in res.archives[0] if e.path and e.path[-1] == 5}
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
        g, proposals, responders, ApproxParams(1, 1), fronts
    )
    assert outcomes[5].failed
    assert outcomes[5].eps2_prime is None
    # endpoints with no proposals fail by default
    assert outcomes[2].failed and outcomes[3].failed and outcomes[4].failed


def test_ultimatum_relaxation_reaches_agreement():
    g, proposals, responders, fronts = fixture_state()
    outcomes = ultimatum_consensus(
        g, proposals, responders, ApproxParams(1, 1, 2), fronts
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
        g, both, both, ApproxParams(1, 1), exact_party_fronts(g, 1)
    )
    out = outcomes[2]
    assert not out.failed
    assert out.eps2_prime == 1  # first rung
    assert out.accepted[0].eps2 == 0


def test_ultimatum_skips_the_ladder_when_no_proposal_passes_the_filter(monkeypatch):
    g = fixture_graph()
    fronts = references(g)[1]
    params = ApproxParams(1, 1, 2)
    res = run_empmo_simple_sp(g, params, 300, 0, party2_fronts=fronts)
    proposals, responders = ([(e.path, e.objectives) for e in P[1:]] for P in res.archives)
    # fronts of all ones: each proposal's ratio is its largest party-2 cost less one
    ones = {e: ((1,) * g.k[1],) for e in fronts}
    assert proposals and all(path_epsilon(obj[1], ones[path[-1]]) > params.eps_2_max for path, obj in proposals)
    calls = []
    real = BoxBase.floor_log
    monkeypatch.setattr(BoxBase, "floor_log", lambda self, c: calls.append(c) or real(self, c))
    assert all(o.failed for o in ultimatum_consensus(g, proposals, responders, params, ones).values())
    assert calls == []
    # the true fronts let every endpoint agree, so the patched count does see the ladder
    assert not any(o.failed for o in ultimatum_consensus(g, proposals, responders, params, fronts).values())
    assert calls


def test_path_epsilon_refuses_a_zero_reference_component():
    with pytest.raises(ValueError, match="below 1"):
        path_epsilon((1, 2), [(1, 0)])
    with pytest.raises(ValueError, match="below 1"):
        path_epsilon((1, 2), [(3, 3), (0, 5)])


def fraction_ultimatum(g, proposals, responders, params, party2_fronts):
    """The consensus round written out rung by rung, as the reference.

    Ratios are maxima of per-component Fractions, and every endpoint builds a
    fresh box base per rung and scores each winner on its own.
    """
    def ratio_of(vector, references):
        return max(min(max(Fraction(x, z) for x, z in zip(vector, ref)) for ref in references) - 1, Fraction(0))

    rungs, k = [], 1
    while params.eps_2 * k < params.eps_2_max:
        rungs.append(params.eps_2 * k)
        k += 1
    rungs.append(params.eps_2_max)
    p1, p2 = {}, {}
    for table, entries in ((p1, proposals), (p2, responders)):
        for path, obj in entries:
            table.setdefault(path[-1], []).append((path, obj))
    outcomes = {}
    for endpoint in range(2, g.n + 1):
        props, members = p1.get(endpoint, []), p2.get(endpoint, [])
        fronts = party2_fronts.get(endpoint, ())
        outcome = ConsensusOutcome(endpoint, True, None, (), ())
        if props and members and fronts:
            ratios = [ratio_of(obj[1], fronts) for _, obj in props]
            for rung in rungs:
                base = BoxBase.plain(1 + rung)
                member_boxes = {tuple(base.floor_log(c) for c in obj[1]) for _, obj in members}
                matched = []
                for (path, obj), ratio in zip(props, ratios):
                    box = tuple(base.floor_log(c) for c in obj[1])
                    if ratio <= params.eps_2_max and box in member_boxes:
                        matched.append((path, obj, ratio, box))
                if not matched:
                    continue
                best = min(m[2] for m in matched)
                winners, boxes = [], []
                for path, obj, ratio, box in matched:
                    if ratio != best:
                        continue
                    if ratio <= params.eps_2:
                        u2 = Fraction(1)
                    else:
                        u2 = (params.eps_2_max - rung) / (params.eps_2_max - params.eps_2)
                    winners.append(SpProposal(path, obj, ratio, Fraction(1), u2))
                    if box not in boxes:
                        boxes.append(box)
                outcome = ConsensusOutcome(endpoint, False, rung, tuple(boxes), tuple(winners))
                break
        outcomes[endpoint] = outcome
    return outcomes


def perturbed(fronts, rng):
    """Fronts moved so that proposals score nonzero ratios: lowered, extended or emptied."""
    out = {}
    for e, front in fronts.items():
        kind = rng.choice(("keep", "lower", "lower", "extend", "empty"))
        if kind == "lower":
            front = tuple(tuple(max(1, c - rng.randrange(c // 2 + 1)) for c in v) for v in front)
        elif kind == "extend":
            front = front + (tuple(rng.randint(1, 12) for _ in front[0]),)
        elif kind == "empty":
            front = ()
        out[e] = front
    return out


def moved(responders, rng):
    """Responders whose party-2 objectives each grow by up to a factor of two."""
    return [(path, (obj[0], tuple(c + rng.randrange(c + 1) for c in obj[1]))) for path, obj in responders]


def test_ultimatum_consensus_matches_the_fraction_round(monkeypatch):
    import mpmolab.shortestpath as sp

    rounds = []
    real = sp.ultimatum_consensus

    def capture(*args):
        rounds.append(args)
        return real(*args)

    monkeypatch.setattr(sp, "ultimatum_consensus", capture)
    graphs = [fixture_graph()] + [generate_planted_uav(InstanceSpec(KIND_PLANTED, n, seed=n)) for n in (6, 9, 12)]
    # eps_2_max / eps_2 is 1, 2, 4, 5/2 and 7/3
    slacks = [(1, 1, 1), (1, 1, 2), (Fraction(1, 2), Fraction(1, 2), 2),
              (Fraction(1, 3), Fraction(1, 2), Fraction(5, 4)), (Fraction(1, 2), Fraction(3, 10), Fraction(7, 10))]
    for g in graphs:
        fronts = references(g)[1]
        for slack in slacks:
            for seed in range(3):
                run_empmo_simple_sp(g, ApproxParams(*slack), 40 * (seed + 1), seed, party2_fronts=fronts)
    rng = random.Random(7)
    # each round again with perturbed fronts, then also with moved responders
    # and every proposal made twice, so that winners share boxes
    rounds += [
        variant
        for g, props, resp, params, fronts in list(rounds)
        for variant in (
            (g, props, resp, params, perturbed(fronts, rng)),
            (g, props + props, moved(resp, rng), params, perturbed(fronts, rng)),
        )
    ]
    seen = {"failed": 0, "agreed": 0, "relaxed": 0, "ratio": 0, "middle rung": 0, "shared box": 0}
    for args in rounds:
        want = fraction_ultimatum(*args)
        assert real(*args) == want
        params = args[3]
        for out in want.values():
            seen["failed" if out.failed else "agreed"] += 1
            seen["relaxed"] += any(p.u2 < 1 for p in out.accepted)
            seen["ratio"] += any(p.eps2 > 0 for p in out.accepted)
            seen["middle rung"] += not out.failed and params.eps_2 < out.eps2_prime < params.eps_2_max
            seen["shared box"] += len(out.boxes) < len(out.accepted)
    assert len(rounds) == 3 * len(graphs) * len(slacks) * 3
    assert min(seen.values()) > 0, seen


def test_simple_sp_run_reports_outcomes_per_endpoint():
    g = fixture_graph()
    res = run_empmo_simple_sp(
        g,
        ApproxParams(1, 1, 2),
        500,
        seed=3,
        party2_fronts=exact_party_fronts(g, 1),
        metric_fn=make_metric_fn(references(g)[0]),
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


def test_simple_sp_hit_is_the_run_end_exactly_when_every_endpoint_agrees():
    g = fixture_graph()
    params = ApproxParams(1, 1, 2)
    fronts = exact_party_fronts(g, 1)
    seen = set()
    for budget in (0, 50, 500):
        res = run_empmo_simple_sp(g, params, budget, 3, party2_fronts=fronts)
        agreed = all(not o.failed for o in res.outcomes.values())
        assert res.hit_evaluations == (res.evaluations if agreed else None)
        seen.add(agreed)
    assert seen == {False, True}


def test_simple_sp_takes_its_party2_fronts():
    # the runner computes no ground truth of its own
    with pytest.raises(TypeError, match="party2_fronts"):
        run_empmo_simple_sp(fixture_graph(), ApproxParams(1, 1, 2), 0, seed=0)


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
            ApproxParams(1, 1),
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
        "planted12": generate_planted_uav(InstanceSpec(KIND_PLANTED, 12, seed=5)),
        "planted30": generate_planted_uav(InstanceSpec(KIND_PLANTED, 30, seed=4)),
    }


@pytest.mark.parametrize("name", ["fixture", "planted10", "planted30"])
def test_bridges_match_the_successor_scan(property_graphs, name):
    g = property_graphs[name]
    for u in range(1, g.n + 1):
        for w in range(1, g.n + 1):
            assert g.bridges(u, w) == tuple(v for v in g.successors(u) if g.has_edge(v, w))


def randrange_edit(g, p, rng, max_len):
    """The child of the path edit as first written, with ``rng.randrange`` draws."""
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
            return p + (succ[rng.randrange(len(succ))],)
        candidates = g.bridges(u, p[i + 1])
        if not candidates:
            return None
        return p[: i + 1] + (candidates[rng.randrange(len(candidates))],) + p[i + 1 :]
    if last < 2:
        return None
    i = 1 + rng.randrange(last - 1)
    if i == last - 1:
        return p[:-1]
    if g.has_edge(p[i], p[i + 2]):
        return p[: i + 1] + p[i + 2 :]
    return None


@pytest.mark.parametrize("name", ["fixture", "planted10"])
def test_mutate_path_replays_the_randrange_edit(property_graphs, name):
    g = property_graphs[name]
    picker = random.Random(7)
    a, b, c = random.Random(11), random.Random(11), random.Random(11)
    frontier = [(1,)]
    changed = 0
    for _ in range(3000):
        p = frontier[picker.randrange(len(frontier))]
        q = mutate_path(g, p, a)
        assert q == randrange_edit(g, p, b, 2 * g.n), p
        # the step's reference edit draws the same child
        edit = randbelow_edit(g, p, c, 2 * g.n)
        assert q == (edit and edit[0]), p
        assert a.getstate() == b.getstate() == c.getstate()
        if q is not None:
            changed += 1
            frontier.append(q)
    assert changed > 1000


def walks_to_test(g, count, seed):
    """Walks that ``mutate_path`` reaches from the source, and walks of 2n - 1 and 2n vertices where ``g`` has them."""
    rng = random.Random(seed)
    walks = [(1,)]
    while len(walks) < count:
        q = mutate_path(g, walks[rng.randrange(len(walks))], rng)
        if q is not None:
            walks.append(q)
    for _ in range(1000):
        p = (1,)
        while len(p) < 2 * g.n and g.successors(p[-1]):
            p += (rng.choice(g.successors(p[-1])),)
        if len(p) == 2 * g.n:
            return walks + [p[:-1], p]
    return walks


@pytest.mark.parametrize("name", ["fixture", "planted10", "planted30"])
def test_the_edit_table_is_mutate_paths_operator(property_graphs, name):
    g = property_graphs[name]
    arch = _BoxArchive(g, ((0, sum(g.k)),), (box_base(g.n, 1),))
    walks = walks_to_test(g, 300, 5)
    assert name == "fixture" or {2 * g.n - 1, 2 * g.n} <= {len(p) for p in walks}
    for p in walks:
        adds, dels, add_bits, del_bits = arch._table(SpEntry(p, p[-1], (), (), (), (), 0))
        assert (add_bits, del_bits) == (len(p).bit_length(), (len(p) - 2).bit_length())
        # each slot is one draw, (coin, position draws[, outcome]); the coin's 0.1 picks Add and 0.9 Delete
        assert (adds is None) == (len(p) >= 2 * g.n)
        slots = [((0.1,), ())] if adds is None else []
        for i, options in enumerate(adds or ()):
            slots += [((0.1,), (i, j), out) for j, out in enumerate(options)] or [((0.1,), (i,))]
        assert len(dels) == max(len(p) - 2, 0)
        slots += [((0.9,), (i,), out) for i, out in enumerate(dels)] or [((0.9,), ())]
        for floats, ints, *out in slots:
            rng = ScriptedRng(floats, ints)
            q = mutate_path(g, p, rng)
            assert rng.floats == rng.ints == [], (p, floats, ints)
            if not out or out[0] is None:
                # an empty or None slot is exactly a draw with no change
                assert q is None, (p, floats, ints)
                continue
            edit = randbelow_edit(g, p, ScriptedRng(floats, ints), 2 * g.n)
            child, i, sign, _, v, _ = edit
            # a walk back to the source is judged at build: a live rejection, since the source's count stays 0
            assert out[0] == [v, child[-1], 0 if child[-1] == 1 else -1, None], (p, floats, ints)
            assert q == child == _child(p, i, sign, v), (p, floats, ints)


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
    params = ApproxParams(1, Fraction(1, 2), 2)
    r = BoxBase.power(Fraction(3, 2), g.n - 1)  # the consensus base, at min(eps_1, eps_2)
    both = ((0, k1), r), ((k1, k1 + k2), r)
    joint = (((0, k1 + k2), r),)
    party = (
        (((0, k1), BoxBase.power(2, g.n - 1)),),
        (((k1, k1 + k2), BoxBase.power(Fraction(3, 2), g.n - 1)),),
    )
    generations = 3000

    def watch(*lane_sets):
        def observer(gen, pools):
            if gen % 500 == 0:
                for lanes, pool in zip(lane_sets, pools, strict=True):
                    check_members(g, pool, lanes)
        return observer

    res = run_empmo_cons_sp(g, params, generations, 0, observer=watch(both))
    check_members(g, res.archives[0], both)
    res = run_demo_sp(g, params, generations, 1, observer=watch(joint))
    check_members(g, res.archives[0], joint)

    # injected members are evaluated in full; their offspring incrementally
    seeds = [
        p for p in ((1, 2), (1, 2, 3), (1, 2, 1, 2)) if all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
    ]
    assert seeds
    res = run_empmo_simple_sp(
        g, params, generations, 2,
        initial_archives=(seeds, seeds), party2_fronts={}, observer=watch(*party),
    )
    assert res.evaluations >= 2 * len(seeds)
    for lanes, members in zip(party, res.archives):
        check_members(g, members, lanes)


def test_graph_run_given_targets_ends_at_its_hit():
    # a larger budget changes nothing once the run has hit
    g = fixture_graph()
    params = ApproxParams(1, 1)
    refs = references(g)[0]
    for run in (run_empmo_cons_sp, run_demo_sp):
        hit = run(g, params, 100_000, 0, targets=refs).generations
        exact = run(g, params, hit, 0, metric_fn=make_metric_fn(refs), targets=refs)
        res = run(g, params, hit + 50, 0, metric_fn=make_metric_fn(refs), targets=refs)
        assert exact.hit_evaluations is not None and exact.generations == hit
        assert (res.generations, res.evaluations, res.no_change, res.max_archive_size) == (
            exact.generations, exact.evaluations, exact.no_change, exact.max_archive_size
        )
        assert (res.hit_evaluations, res.metrics) == (exact.hit_evaluations, exact.metrics)
        assert [(e.path, e.birth) for e in res.archives[0]] == [(e.path, e.birth) for e in exact.archives[0]]


@pytest.mark.parametrize("keyword", ["cadence", "stop_on_hit"])
def test_graph_runners_take_no_sampling_or_stopping_setting(keyword):
    g = fixture_graph()
    params = ApproxParams(1, 1)
    for run in (run_empmo_cons_sp, run_demo_sp, run_empmo_simple_sp):
        with pytest.raises(TypeError):
            run(g, params, 1, 0, **{keyword: 1})


def randbelow_edit(g, p, rng, max_len):
    """The path edit drawn through ``core.randbelow``: (child, i, sign, u, v, w).

    ``i`` is the position the edit acts after and ``sign`` +1 for an Add, -1
    for a Delete; with ``w`` set, ``v`` was inserted between ``u`` and ``w`` or
    cut from between them, and with ``w`` None the end edge u->v was appended
    or dropped.
    """
    last = len(p) - 1
    if rng.random() < 0.5:
        if len(p) >= max_len:
            return None
        i = randbelow(rng.getrandbits, last + 1)
        u = p[i]
        if i == last:
            succ = g.successors(u)
            if not succ:
                return None
            v = succ[randbelow(rng.getrandbits, len(succ))]
            return p + (v,), i, 1, u, v, None
        w = p[i + 1]
        candidates = g.bridges(u, w)
        if not candidates:
            return None
        v = candidates[randbelow(rng.getrandbits, len(candidates))]
        return p[: i + 1] + (v,) + p[i + 1 :], i, 1, u, v, w
    if last < 2:
        return None
    i = 1 + randbelow(rng.getrandbits, last - 1)
    if i == last - 1:
        return p[:-1], i, -1, p[i], p[last], None
    u, w = p[i], p[i + 2]
    if g.has_edge(u, w):
        return p[: i + 1] + p[i + 2 :], i, -1, u, p[i + 1], w
    return None


class NewRecordArchive(_BoxArchive):
    """The archive step with ``core.randbelow`` draws and a new record per accept.

    After each seed and each accepted step it recounts its coverage from
    scratch, from the references as given, through its own comparison, and
    its peak from the pool. It counts its no-change draws one by one.
    """

    def __init__(self, g, slices, bases, targets=None):
        super().__init__(g, slices, bases, targets)
        self.refs = targets
        self.no_change = 0

    def recount(self):
        if self.refs:
            self.uncovered = recount_uncovered(self, self.refs)
        self.max_size = max(self.max_size, len(self.pool))

    def seed_path(self, path):
        super().seed_path(path)
        self.recount()

    def step(self, rng, generation):
        parent = self.pool[randbelow(rng.getrandbits, len(self.pool))]
        edit = randbelow_edit(self.g, parent.path, rng, self.max_len)
        if edit is None:
            self.no_change += 1
            return False
        child, _, sign, u, v, w = edit
        self.evaluations += 1
        endpoint = child[-1]
        if endpoint == 1:
            return False
        weights = self.g.flat
        delta = weights[(u, v)]
        if w is not None:
            delta = tuple(a + b - c for a, b, c in zip(delta, weights[(v, w)], weights[(u, w)]))
        flat = tuple(a + sign * d for a, d in zip(parent.flat, delta))
        obj, lanes, boxes = self._views(flat)
        bucket = self.buckets.get(endpoint)
        if bucket:
            for li in range(len(lanes)):
                lane, box = lanes[li], boxes[li]
                for z in bucket:
                    zb = z.boxes[li]
                    if zb == box:
                        zl = z.lanes[li]
                        if zl != lane and all(a <= b for a, b in zip(zl, lane)):
                            break
                    elif all(a <= b for a, b in zip(zb, box)):
                        break
                else:
                    break
            else:
                return False
            doomed = [z for z in bucket if all(a <= b for box, zb in zip(boxes, z.boxes) for a, b in zip(box, zb))]
            for z in doomed:
                self._drop(z)
        self._enroll(SpEntry(child, endpoint, flat, obj, lanes, boxes, generation))
        self.recount()
        return True


def archive_state(arch):
    """What a trajectory shows: the pool in order, each bucket as a set, and the counts."""
    return (
        [(r.path, r.flat, r.birth) for r in arch.pool],
        {e: sorted(r.path for r in bucket) for e, bucket in arch.buckets.items()},
        arch.evaluations,
        arch.max_size,
        arch.uncovered,
    )


def archive_lanes(g):
    """(name, slices, bases, with targets) for the cons-sp, demo-sp and single-party archives."""
    k1, k2 = g.k
    r1, r2 = BoxBase.power(Fraction(3, 2), g.n - 1), BoxBase.power(Fraction(4, 3), g.n - 1)
    # at eps_1 = 1/2 and eps_2 = 1/3 the consensus base is party 2's
    return [
        ("cons", ((0, k1), (k1, k1 + k2)), (r2, r2), True),
        ("demo", ((0, k1 + k2),), (r2,), True),
        ("party1", ((0, k1),), (r1,), False),
        ("party2", ((k1, k1 + k2),), (r2,), False),
    ]


def replay_side_by_side(g, lanes, refs, seed, generations, seeds=()):
    """Step the archive and its new-record copy on equal streams.

    Counts rebirths, those that shrink the pool, and new records that replace
    the lone member of their endpoint with an equal vector on another path.
    The copy's counted no-change draws must equal the ones ``_search``
    derives from the generations and the evaluations.
    """
    _, slices, bases, targeted = lanes
    targets = refs if targeted else None
    new, old = (cls(g, slices, bases, targets) for cls in (_BoxArchive, NewRecordArchive))
    for path in seeds:
        new.seed_path(path)
        old.seed_path(path)
    a, b = random.Random(seed), random.Random(seed)
    enrolled = set(new.pool)
    reborn = crowded = replaced = 0
    for gen in range(1, generations + 1):
        size = len(new.pool)
        alone = {e: bucket[0] for e, bucket in new.buckets.items() if len(bucket) == 1}
        accepted = new.step(a.getrandbits, a.random, gen)
        assert accepted == old.step(b, gen)
        assert archive_state(new) == archive_state(old), (seed, gen)
        assert old.no_change == gen - (new.evaluations - len(seeds)), (seed, gen)
        assert a.getstate() == b.getstate()
        if accepted:
            rec = new.pool[-1]
            if rec in enrolled:
                reborn += 1
                crowded += len(new.pool) < size
            else:
                z = alone.get(rec.endpoint)
                replaced += z is not None and z.flat == rec.flat and z.path != rec.path
            enrolled.add(rec)
    return reborn, crowded, replaced


def test_an_endpoint_without_references_is_covered_vacuously():
    g = fixture_graph()
    refs = references(g)[0]
    k1, k2 = g.k
    lanes = ((0, k1), (k1, k1 + k2))
    bases = (box_base(g.n, 1), box_base(g.n, 1))
    arch = _BoxArchive(g, lanes, bases, {2: refs[2], 3: ()})
    assert not arch.all_covered
    arch.seed_path((1, 2))
    # no member ends at 3, yet its empty reference tuple asks for nothing
    assert arch.all_covered and not arch.buckets.get(3)
    assert _BoxArchive(g, lanes, bases, {3: ()}).all_covered
    # an empty map has no endpoint to cover, and never hits
    assert not _BoxArchive(g, lanes, bases, {}).all_covered


def joint_targets(g):
    """Each endpoint's joint-front vectors, several per endpoint on the fixture."""
    cat = exact_path_catalog(g)
    return {e: tuple(dict.fromkeys(obj for _, obj in ec.joint)) for e, ec in cat.per_endpoint.items()}


FIXTURE_JOINT = joint_targets(fixture_graph())


def recount_uncovered(arch, targets):
    """The endpoints with a reference no member there weakly dominates in both parties, from the pool."""
    members = [(rec.endpoint, rec.objectives) for rec in arch.real_entries()]
    return {
        e
        for e, refs in targets.items()
        if not all(
            any(
                f == e
                and all(a <= b for a, b in zip(obj[0], m[0]))
                and all(a <= b for a, b in zip(obj[1], m[1]))
                for f, obj in members
            )
            for m in refs
        )
    }


# a duplicate path, and (1, 3) strictly dominating (1, 2, 3) in both parties
FIXTURE_SEEDS = [(1, 2), (1, 2), (1, 3), (1, 2, 3), (1, 3, 4, 5)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lane=st.integers(0, 3),
    emptied=st.sets(st.sampled_from(sorted(FIXTURE_JOINT))),
    generations=st.integers(1, 400),
    seeded=st.booleans(),
)
def test_incremental_coverage_matches_a_recount(seed, lane, emptied, generations, seeded):
    assert any(len(refs) > 1 for refs in FIXTURE_JOINT.values())
    g = fixture_graph()
    targets = {e: () if e in emptied else refs for e, refs in FIXTURE_JOINT.items()}
    _, slices, bases, _ = archive_lanes(g)[lane]
    arch = _BoxArchive(g, slices, bases, targets)
    peak = len(arch.pool)

    def check():
        uncovered = recount_uncovered(arch, targets)
        assert arch.uncovered == uncovered
        assert arch.all_covered == (not uncovered)
        assert arch.max_size == peak

    for path in FIXTURE_SEEDS if seeded else ():
        arch.seed_path(path)
        peak = max(peak, len(arch.pool))
        check()
    rng = random.Random(seed)
    for gen in range(1, generations + 1):
        arch.step(rng.getrandbits, rng.random, gen)
        peak = max(peak, len(arch.pool))
        check()


def live_verdicts(arch, parents):
    """Each endpoint's live step-memo verdicts held in the edit tables of ``parents``.

    Maps endpoint -> {(parent, i, sign, v): None for a rejected child, or the
    member it hands back}. A verdict is live when its stamp equals its
    endpoint's change count.
    """
    live = {}
    for parent in parents:
        if parent.table is None:
            continue
        adds, dels, _, _ = parent.table
        edits = [(i, 1, out) for i, options in enumerate(adds or ()) for out in options]
        edits += [(i, -1, out) for i, out in enumerate(dels, 1) if out is not None]
        for i, sign, (v, endpoint, stamp, verdict) in edits:
            if stamp == arch._counts[endpoint]:
                live.setdefault(endpoint, {})[(parent, i, sign, v)] = verdict
    return live


def count_memo_replays(monkeypatch):
    """Wrap ``_BoxArchive.step`` to sort its steps by outcome and count them.

    The wrapper draws the step's parent and, with ``randbelow_edit``, its
    edit on a copy of the generator that both of the step's draw methods are
    bound to, and looks up the outcome the memo holds for them. Every step
    must leave the generator where the copy is, and count one evaluation
    unless its edit makes no change (``no_change``). A walk back to the
    source (``source``) must be rejected, and its outcome must then hold a
    live rejection. Otherwise, when the memo holds an outcome, the step must
    return it: a rejection (``rejected``), or the stored member moved to the
    end of the pool with the step's generation as its birth (``twin``). The
    rest are scanned (``scan_rejected``, ``scan_accepted``). Among these it
    also counts, as ``lone_twin``, the accepted steps that put back the one
    member their endpoint held before the step.
    """
    kinds = ("no_change", "source", "rejected", "twin", "scan_rejected", "scan_accepted", "lone_twin")
    replays = dict.fromkeys(kinds, 0)
    step = _BoxArchive.step

    def counted(self, getrandbits, random_, generation):
        rng = getrandbits.__self__
        assert random_.__self__ is rng
        probe = random.Random()
        probe.setstate(rng.getstate())
        parent = self.pool[randbelow(probe.getrandbits, len(self.pool))]
        edit = randbelow_edit(self.g, parent.path, probe, self.max_len)
        stored = False
        lone = None
        if edit is not None:
            child, i, sign, _, v, _ = edit
            endpoint = child[-1]
            key = (parent, i, sign, v)
            stored = live_verdicts(self, [parent]).get(endpoint, {}).get(key, False)
            bucket = self.buckets.get(endpoint, ())
            lone = bucket[0] if len(bucket) == 1 else None
        evaluations = self.evaluations
        accepted = step(self, getrandbits, random_, generation)
        # the step's own copy of the draws takes exactly the draws of the reference edit
        assert rng.getstate() == probe.getstate()
        assert self.evaluations == evaluations + (edit is not None)
        if edit is None:
            assert not accepted
            replays["no_change"] += 1
        elif endpoint == 1:
            assert not accepted and live_verdicts(self, [parent])[1][key] is None
            replays["source"] += 1
        elif stored is None:
            assert not accepted
            replays["rejected"] += 1
        elif stored is not False:
            assert accepted and self.pool[-1] is stored and stored.birth == generation
            replays["twin"] += 1
        else:
            replays["scan_accepted" if accepted else "scan_rejected"] += 1
            replays["lone_twin"] += accepted and self.pool[-1] is lone
        return accepted

    monkeypatch.setattr(_BoxArchive, "step", counted)
    return replays


@pytest.mark.parametrize("name", ["fixture", "planted10", "planted12"])
def test_step_replays_the_new_record_step(property_graphs, name, monkeypatch):
    g = property_graphs[name]
    refs = references(g)[0]
    lanes = archive_lanes(g)
    replays = count_memo_replays(monkeypatch)
    reborn = 0
    for seed in range(12):
        reborn += replay_side_by_side(g, lanes[seed % len(lanes)], refs, seed, 2000)[0]
    # most accepted children put back a path the archive holds
    assert reborn > 100
    # and the memo, not a scan, answers both kinds of outcome in these runs
    assert replays["rejected"] > 1000 and replays["twin"] > 5000, replays
    # the scans also put back a member alone at its endpoint, and the state still matches a new record
    assert replays["lone_twin"] > 0, replays


def test_step_replays_the_new_record_step_on_seeded_archives(property_graphs):
    g = property_graphs["fixture"]
    refs = references(g)[0]
    lanes = archive_lanes(g)
    crowded = 0
    for seed in range(12):
        crowded += replay_side_by_side(g, lanes[seed % len(lanes)], refs, seed, 2000, FIXTURE_SEEDS)[1]
    # a reborn twin drops other members with it
    assert crowded > 0


def test_step_replays_an_equal_vector_on_another_path():
    # both routes to vertex 4 cost (3, 3 | 3, 3), so each replaces the other there
    g = WeightedDigraph(
        4,
        {(1, 2): ((1, 2), (2, 1)), (1, 3): ((2, 1), (1, 2)), (2, 4): ((2, 1), (1, 2)), (3, 4): ((1, 2), (2, 1))},
    )
    assert eval_path(g, (1, 2, 4)) == eval_path(g, (1, 3, 4)) == ((3, 3), (3, 3))
    refs = references(g)[0]
    for lanes in archive_lanes(g):
        replaced = sum(replay_side_by_side(g, lanes, refs, seed, 2000)[2] for seed in range(4))
        assert replaced > 400, lanes[0]


def test_a_member_set_change_clears_only_its_endpoints_memo(property_graphs):
    g = property_graphs["fixture"]
    # a duplicate path and dominated members, so some twins drop others with them
    new_records = crowded = 0
    for seed, (_, slices, bases, _) in enumerate(archive_lanes(g) * 3):
        arch = _BoxArchive(g, slices, bases)
        for path in FIXTURE_SEEDS:
            arch.seed_path(path)
        enrolled = set(arch.pool)
        rng = random.Random(seed)
        for gen in range(1, 1001):
            memos = live_verdicts(arch, enrolled)
            members = {e: set(bucket) for e, bucket in arch.buckets.items()}
            arch.step(rng.getrandbits, rng.random, gen)
            changed = [e for e, bucket in arch.buckets.items() if set(bucket) != members.get(e, set())]
            assert len(changed) <= 1
            live = live_verdicts(arch, enrolled)
            for e, memo in memos.items():
                if e not in changed:
                    # an endpoint whose members stay keeps every verdict it holds
                    assert memo.items() <= live.get(e, {}).items()
            if changed:
                (e,) = changed
                rec = arch.pool[-1]
                # the changed endpoint forgets every earlier verdict; only the step's own is stored
                assert list(live.get(e, {}).values()) == [rec]
                if memos.get(e) and any(memos.get(f) for f in memos if f != e):
                    if rec in enrolled:
                        crowded += 1
                    else:
                        new_records += 1
            enrolled.update(arch.pool)
    assert new_records > 10 and crowded > 0, (new_records, crowded)


@pytest.mark.parametrize("seeds", [(), FIXTURE_SEEDS], ids=["bare", "seeded"])
def test_bucket_order_is_unobservable(seeds):
    # the scans, the coverage recount and the drops treat a bucket as a set; the
    # fixture's archives hold a bucket of several members (planted ones mostly do not)
    g = fixture_graph()
    refs = references(g)[0]
    for seed, (_, slices, bases, targeted) in enumerate(archive_lanes(g)):
        a, b = (_BoxArchive(g, slices, bases, refs if targeted else None) for _ in range(2))
        for path in seeds:
            a.seed_path(path)
            b.seed_path(path)
        ra, rb = random.Random(seed), random.Random(seed)
        for gen in range(1, 2001):
            if gen == 1000:
                assert any(len(bucket) > 1 for bucket in b.buckets.values())
                for bucket in b.buckets.values():
                    bucket.reverse()
            assert a.step(ra.getrandbits, ra.random, gen) == b.step(rb.getrandbits, rb.random, gen)
            assert [(r.path, r.birth) for r in a.pool] == [(r.path, r.birth) for r in b.pool], (seed, gen)
            assert (a.evaluations, a.uncovered, a.max_size) == (b.evaluations, b.uncovered, b.max_size)
            assert ra.getstate() == rb.getstate()


def test_no_change_counts_the_draws_that_evaluate_nothing(monkeypatch):
    g = fixture_graph()
    params = ApproxParams(1, 1)
    refs = references(g)[0]
    replays = count_memo_replays(monkeypatch)
    # each archive steps once per generation, the hit generation included; seeding evaluates without a step
    for run in (run_empmo_cons_sp, run_demo_sp):
        replays["no_change"] = 0
        res = run(g, params, 100_000, 0, targets=refs)
        assert res.hit_evaluations is not None and res.generations < 100_000
        assert res.no_change == replays["no_change"] > 0
        assert res.no_change + res.evaluations == res.generations
    replays["no_change"] = 0
    res = run_empmo_simple_sp(g, params, 500, 0, initial_archives=(FIXTURE_SEEDS, FIXTURE_SEEDS[:2]), party2_fronts={})
    assert res.no_change == replays["no_change"] > 0
    assert res.no_change + res.evaluations == 2 * res.generations + len(FIXTURE_SEEDS) + 2


def test_the_step_outcome_mix_is_pinned(property_graphs, monkeypatch):
    # ROADMAP item 6's step traffic, on one short budget-bound cons-sp run
    g = property_graphs["planted12"]
    params = ApproxParams(1, 1)
    want = run_empmo_cons_sp(g, params, 3000, 0)
    replays = count_memo_replays(monkeypatch)
    k1, k2 = g.k
    r = box_base(g.n, params.eps_1, params.eps_2)
    arch = _BoxArchive(g, ((0, k1), (k1, k1 + k2)), (r, r))
    res = _search((arch,), 3000, 0, None, None)
    assert [(e.path, e.birth) for e in res.archives[0]] == [(e.path, e.birth) for e in want.archives[0]]
    assert (res.evaluations, res.no_change) == (want.evaluations, want.no_change)
    assert res.no_change == replays["no_change"]
    # the tables reject walks back to the source, so the source's member set never changes
    assert arch._counts[1] == 0
    # a memo that stops answering moves steps from "rejected" and "twin" to the scans, and costs only speed
    assert replays == {
        "no_change": 1721,
        "source": 46,
        "rejected": 202,
        "twin": 977,
        "scan_rejected": 27,
        "scan_accepted": 27,
        "lone_twin": 12,
    }, replays
