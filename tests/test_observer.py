"""The observer contract shared by the seven runners.

``observer(generation, archives)`` is called once after each generation
1..G, G being the result's ``generations``, the last one included whether the
run ends at its hit or at its budget. ``archives`` is a tuple of live lists,
one per archive in the runner's order.
"""

import pytest

from mpmolab.instances import fixture_graph
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
from mpmolab.shortestpath import ApproxParams, run_demo_sp, run_empmo_cons_sp, run_empmo_simple_sp

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
    last = None

    def observer(gen, archives):
        nonlocal last
        assert type(archives) is tuple and len(archives) == count
        assert all(type(P) is list for P in archives)
        gens.append(gen)
        sizes.append(max(map(len, archives)))
        last = live_members(archives)

    res = (hit_run if mode == "hit" else budget_run)(0, observer)
    assert (res.hit_evaluations is not None) == (mode == "hit")
    assert res.generations > 0
    assert gens == list(range(1, res.generations + 1))
    assert last == live_members(res.archives)
    if hasattr(res, "max_archive_size"):
        assert max(sizes) == res.max_archive_size
