"""Exhaustive bit-string ground truth, for the tests only.

The package answers every bit-string question from the closed form
(``analytic_fronts``, ``common_optimum``, ``oracles.pseudoboolean_report``).
This enumeration of all 2^n words is the independent cross-check those
answers are tested against, so it lives outside the code it checks and stays
simple enough to trust by inspection. Its size guard is a hard error rather
than silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from mpmolab.core import MultiPartyObjectives, weak_ge
from mpmolab.oracles import _pareto_distinct
from mpmolab.pseudoboolean import BitString, PseudoBooleanProblem

# The longest bit string whose 2^n words ``brute_force_pseudoboolean`` enumerates.
BRUTE_FORCE_MAX_N = 16


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


def brute_force_pseudoboolean(problem: PseudoBooleanProblem) -> ParetoCatalog:
    """Exact Pareto catalog by enumerating all 2^n solutions.

    Membership is objective-level: a solution belongs to a party's set iff its
    vector for that party is non-dominated over the whole space. The common
    set is the intersection of the per-party sets.
    """
    if problem.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"exhaustive enumeration refused for n > {BRUTE_FORCE_MAX_N}")
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
        front = _pareto_distinct(distinct, weak_ge)
        fronts.append(front)
        members = set()
        for obj, words in groups.items():
            if obj[m] in front:
                members.update(words)
        solutions.append(frozenset(members))
    return ParetoCatalog(
        kind=problem.kind,
        n=n,
        party_solutions=tuple(solutions),
        party_fronts=tuple(fronts),
        common_solutions=frozenset.intersection(*solutions),
    )
