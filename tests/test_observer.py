"""The observer contract shared by the seven runners.

``observer(generation, archives)`` is called once after each generation
1..G, G being the result's ``generations``, the last one included whether the
run ends at its hit or at its budget. ``archives`` is a tuple of live lists,
one per archive in the runner's order. An observer only watches: a graph run
with one equals the same run without.
"""

import pytest

from mpmolab.harness import make_metric_fn
from mpmolab.instances import KIND_PLANTED, InstanceSpec, fixture_graph, generate_planted_uav
from mpmolab.oracles import references
from mpmolab.pseudoboolean import (
    PseudoBooleanProblem,
    analytic_fronts,
    common_optimum,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)
from mpmolab.shortestpath import METRIC_CADENCE, ApproxParams, run_demo_sp, run_empmo_cons_sp, run_empmo_simple_sp

AOAZ, BPAOAZ = PseudoBooleanProblem("aoaz", 10), PseudoBooleanProblem("bpaoaz", 10)
G = fixture_graph()
REFS, FRONTS = references(G)
PARAMS = ApproxParams(1, 1)
BITS_BUDGET = 300  # evaluations
HIT_BUDGET = 10**5  # evaluations, or generations on graphs; every hit run here hits far sooner
GRAPH_BUDGET = 300  # generations; simple-sp has no stopping rule, so its hit run spends it too

# name: (archive count, hit run, budget run); a run takes (seed, observer)
RUNS = {
    "semo": (
        1,
        lambda s, o: run_semo(AOAZ, s, budget=HIT_BUDGET, targets=analytic_fronts(AOAZ), observer=o),
        lambda s, o: run_semo(AOAZ, s, budget=BITS_BUDGET, targets=None, observer=o),
    ),
    "empmo-simple": (
        2,
        lambda s, o: run_empmo_simple(BPAOAZ, s, budget=HIT_BUDGET, targets=common_optimum(BPAOAZ), observer=o),
        lambda s, o: run_empmo_simple(BPAOAZ, s, budget=BITS_BUDGET, targets=None, observer=o),
    ),
    "empmo-random": (
        1,
        lambda s, o: run_empmo_random(BPAOAZ, 0.5, s, budget=HIT_BUDGET, targets=common_optimum(BPAOAZ), observer=o),
        lambda s, o: run_empmo_random(BPAOAZ, 0.5, s, budget=BITS_BUDGET, targets=None, observer=o),
    ),
    "empmo-payoff": (
        1,
        lambda s, o: run_empmo_payoff(BPAOAZ, s, budget=HIT_BUDGET, targets=common_optimum(BPAOAZ), observer=o),
        lambda s, o: run_empmo_payoff(BPAOAZ, s, budget=BITS_BUDGET, targets=None, observer=o),
    ),
    "cons-sp": (
        1,
        lambda s, o: run_empmo_cons_sp(G, PARAMS, HIT_BUDGET, s, targets=REFS, observer=o),
        lambda s, o: run_empmo_cons_sp(G, PARAMS, 20, s, observer=o),
    ),
    "demo-sp": (
        1,
        lambda s, o: run_demo_sp(G, PARAMS, HIT_BUDGET, s, targets=REFS, observer=o),
        lambda s, o: run_demo_sp(G, PARAMS, 20, s, observer=o),
    ),
    "simple-sp": (
        2,
        lambda s, o: run_empmo_simple_sp(G, PARAMS, GRAPH_BUDGET, s, party2_fronts=FRONTS, observer=o),
        lambda s, o: run_empmo_simple_sp(G, PARAMS, 5, s, party2_fronts=FRONTS, observer=o),
    ),
}


def live_members(archives):
    # graph members are SpEntry records; a bit-string member tuple holds its
    # word fourth from the end and its birth last
    return [
        [(e.path, e.birth) if hasattr(e, "path") else (e[-4], e[-1]) for e in P] for P in archives
    ]


@pytest.mark.parametrize("mode", ["hit", "budget"])
@pytest.mark.parametrize("name", list(RUNS))
def test_observer_contract(name, mode):
    count, hit_run, budget_run = RUNS[name]
    gens, sizes = [], []
    last = seen = None

    def observer(gen, archives):
        nonlocal last, seen
        assert type(archives) is tuple and len(archives) == count
        assert all(type(P) is list for P in archives)
        gens.append(gen)
        sizes.append(max(map(len, archives)))
        last, seen = live_members(archives), archives

    res = (hit_run if mode == "hit" else budget_run)(0, observer)
    assert (res.hit_evaluations is not None) == (mode == "hit")
    assert res.generations > 0
    assert gens == list(range(1, res.generations + 1))
    assert last == live_members(res.archives)
    if name != "empmo-payoff":
        # an archive runner hands back the very lists its observer saw last;
        # the payoff climb rebuilds its one list every generation
        assert all(P is Q for P, Q in zip(seen, res.archives, strict=True))
    if hasattr(res, "max_archive_size"):
        assert max(sizes) == res.max_archive_size


PLANTED12 = generate_planted_uav(InstanceSpec(KIND_PLANTED, 12, seed=5))
GRAPH_RUNNERS = {
    "cons-sp": lambda g, fronts, **kw: run_empmo_cons_sp(g, PARAMS, **kw),
    "demo-sp": lambda g, fronts, **kw: run_demo_sp(g, PARAMS, **kw),
    "simple-sp": lambda g, fronts, **kw: run_empmo_simple_sp(g, PARAMS, party2_fronts=fronts, **kw),
}


def graph_run_record(res):
    archives = [[(e.path, e.birth) for e in P] for P in res.archives]
    return (
        res.generations,
        res.evaluations,
        res.no_change,
        archives,
        res.metrics,
        res.hit_evaluations,
        res.max_archive_size,
        res.outcomes,
    )


@pytest.mark.parametrize("graph", ["fixture", "planted12"])
@pytest.mark.parametrize("name", list(GRAPH_RUNNERS))
def test_an_observer_never_changes_a_graph_run(name, graph):
    # a run without targets or observer steps from sample to sample; a budget
    # off the metric cadence asks it for a last sample between two of them
    g = G if graph == "fixture" else PLANTED12
    refs, fronts = (REFS, FRONTS) if graph == "fixture" else references(g)
    budget = 1250
    bare, watched = (
        GRAPH_RUNNERS[name](g, fronts, budget=budget, seed=3, metric_fn=make_metric_fn(refs), observer=observer)
        for observer in (None, lambda gen, archives: None)
    )
    assert graph_run_record(bare) == graph_run_record(watched)
    assert bare.generations == budget
    assert [m.generation for m in bare.metrics] == [*range(METRIC_CADENCE, budget, METRIC_CADENCE), budget]
