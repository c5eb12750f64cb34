"""Evolutionary search where several parties each optimize their own objectives.

The package has three layers: exact primitives (dominance, payoffs, box
indices), optimizers over two problem families (pseudo-Boolean benchmarks and
bi-party shortest paths), and exact oracles plus a batch harness that
make every run checkable and replayable.

Observer contract of all seven runners: ``observer(generation, archives)``
runs once after each generation 1..G, G being the result's ``generations``,
the last included, hit or budget. ``archives`` is a tuple of live lists, one
per archive in the runner's order (party 1's first); the payoff climb's one
list holds the current solution, laid out as an empmo-random member. A
result's ``archives`` are the lists the observer saw last.
"""

from .core import payoff_component
from .pseudoboolean import (
    BitString,
    PseudoBooleanProblem,
    analytic_fronts,
    common_optimum,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)
from .shortestpath import (
    ApproxParams,
    BoxBase,
    WeightedDigraph,
    consensus_archive_bound,
    eval_path,
    mutate_path,
    run_demo_sp,
    run_empmo_cons_sp,
    run_empmo_simple_sp,
    ultimatum_consensus,
)
from .oracles import (
    epsilon_of_solution,
    exact_path_catalog,
    payoff_runtime_predictor,
)
from .instances import InstanceSpec, fixture_graph, generate_planted_uav, parse_instance, write_instance
from .harness import ExperimentConfig, run_many, run_single, summarize

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "BitString",
    "BoxBase",
    "ExperimentConfig",
    "InstanceSpec",
    "PseudoBooleanProblem",
    "WeightedDigraph",
    "analytic_fronts",
    "common_optimum",
    "consensus_archive_bound",
    "epsilon_of_solution",
    "eval_path",
    "exact_path_catalog",
    "fixture_graph",
    "generate_planted_uav",
    "mutate_path",
    "parse_instance",
    "payoff_component",
    "payoff_runtime_predictor",
    "run_demo_sp",
    "run_empmo_cons_sp",
    "run_empmo_payoff",
    "run_empmo_random",
    "run_empmo_simple",
    "run_empmo_simple_sp",
    "run_many",
    "run_semo",
    "run_single",
    "summarize",
    "ultimatum_consensus",
    "write_instance",
]
