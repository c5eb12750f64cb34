"""Pseudo-Boolean benchmark problems and the archive-based optimizers for them.

The benchmark family splits a bit string of even length n into halves and scores
four linear objectives from the pair (i, j) = (ones in the first half, ones in
the second half):

    f11 = j            f12 = i + n/2 - j
    f21 = n/2 - i + j  f22 = i

``bpaoaz`` assigns (f11, f12) to party 1 and (f21, f22) to party 2; their
per-party optima are the strings with an all-ones first half (party 1) or an
all-ones second half (party 2), so the unique common optimum is the all-ones
string. ``aoaz`` concatenates all four objectives into one party; ``aorz`` and
``aofz`` are the single-party halves. All objectives are maximized.

Every runner draws from a single ``random.Random(seed)``; the per-iteration
draw order is documented on each runner so traces can be reproduced bit for
bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .core import MultiPartyObjectives, Sense, payoff_component

KINDS = ("aorz", "aofz", "aoaz", "bpaoaz")
SENSE = Sense.MAXIMIZE
DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class BitString:
    """Fixed-length bit string stored as an integer word; bit k is x_{k+1}."""

    n: int
    word: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bit string length must be positive")
        if not 0 <= self.word < (1 << self.n):
            raise ValueError("word out of range for length")

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from01(cls, bits: str) -> "BitString":
        if not bits or any(c not in "01" for c in bits):
            raise ValueError("expected a nonempty string of 0s and 1s")
        word = 0
        for k, c in enumerate(bits):
            if c == "1":
                word |= 1 << k
        return cls(len(bits), word)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitString":
        return cls(n, rng.getrandbits(n))

    def flip(self, k: int) -> "BitString":
        if not 0 <= k < self.n:
            raise IndexError(f"bit index {k} out of range")
        return BitString(self.n, self.word ^ (1 << k))

    def to01(self) -> str:
        return "".join("1" if (self.word >> k) & 1 else "0" for k in range(self.n))

    def ones_count(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return self.to01()


def one_bit_mutation(x: BitString, rng: random.Random) -> BitString:
    """Flip one uniformly chosen bit (a single ``rng.randrange(n)`` draw)."""
    return x.flip(rng.randrange(x.n))


def _party1(half: int, i: int, j: int) -> Tuple[int, int]:
    return (j, i + half - j)


def _party2(half: int, i: int, j: int) -> Tuple[int, int]:
    return (half - i + j, i)


def _joint(half: int, i: int, j: int) -> Tuple[int, int, int, int]:
    return (j, i + half - j, half - i + j, i)


# A lane maps a cell (i, j) to one party's vector; a kind has one lane per party.
_LANES = {"aorz": (_party1,), "aofz": (_party2,), "aoaz": (_joint,), "bpaoaz": (_party1, _party2)}


@dataclass(frozen=True)
class PseudoBooleanProblem:
    """One of the four benchmark kinds at a given even length n >= 4."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 4 or self.n % 2:
            raise ValueError(f"n must be even and at least 4, got {self.n}")

    @property
    def parties(self) -> int:
        return len(_LANES[self.kind])

    @property
    def half(self) -> int:
        return self.n // 2

    def counts(self, x: BitString) -> Tuple[int, int]:
        """(ones in first half, ones in second half)."""
        if x.n != self.n:
            raise ValueError(f"solution length {x.n} does not match problem n {self.n}")
        half = self.half
        lo = x.word & ((1 << half) - 1)
        return lo.bit_count(), (x.word >> half).bit_count()

    def evaluate(self, x: BitString) -> MultiPartyObjectives:
        i, j = self.counts(x)
        return tuple(lane(self.half, i, j) for lane in _LANES[self.kind])


def analytic_fronts(problem: PseudoBooleanProblem) -> Tuple[frozenset, ...]:
    """Closed-form Pareto fronts, one frozenset of vectors per party.

    Derived from the (i, j) structure: party 1's front is {(j, n - j)}, party
    2's is {(n - i, i)} for j, i in 0..n/2, and the joint front is the image of
    the two per-party optimum slabs. The exhaustive oracle cross-checks these
    in the tests.
    """
    half, n = problem.half, problem.n
    joint = {(j, n - j, j, half) for j in range(half + 1)}
    joint |= {(half, i, n - i, i) for i in range(half + 1)}
    fronts = {
        _party1: frozenset((j, n - j) for j in range(half + 1)),
        _party2: frozenset((n - i, i) for i in range(half + 1)),
        _joint: frozenset(joint),
    }
    return tuple(fronts[lane] for lane in _LANES[problem.kind])


@dataclass(frozen=True)
class PopulationEntry:
    solution: BitString
    objectives: MultiPartyObjectives
    birth_iteration: int


@dataclass
class RunTrace:
    """Outcome of one optimizer run; time counters are evaluation counts."""

    algorithm: str
    problem: str
    n: int
    phi: Optional[float]
    seed: int
    evaluations: int
    iterations: int
    hit_time: Optional[int]
    final_population: List[PopulationEntry]
    wall_ms: float
    archives: Optional[Tuple[List[PopulationEntry], ...]] = None


def _weak_ge(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x < y:
            return False
    return True


def _entry(problem: PseudoBooleanProblem, word: int, birth: int) -> PopulationEntry:
    x = BitString(problem.n, word)
    return PopulationEntry(x, problem.evaluate(x), birth)


def _check_stop(stop: str, modes: Tuple[str, ...]) -> None:
    if stop not in modes:
        raise ValueError(f"unknown stop mode {stop!r}")


def _start(problem: PseudoBooleanProblem, rng: random.Random, initial: Optional[BitString]) -> Tuple[int, int, int]:
    """The initial word and its cell (i, j); with no ``initial`` the word is ``rng.getrandbits(n)``."""
    x = initial if initial is not None else BitString(problem.n, rng.getrandbits(problem.n))
    return (x.word,) + problem.counts(x)


def _finish(
    algorithm: str,
    problem: PseudoBooleanProblem,
    seed: int,
    t0: float,
    evaluations: int,
    iterations: int,
    hit: Optional[int],
    population: List[PopulationEntry],
    *,
    phi: Optional[float] = None,
    archives: Optional[Tuple[List[PopulationEntry], ...]] = None,
) -> RunTrace:
    """The trace of a run that started at ``time.perf_counter()`` reading ``t0``."""
    return RunTrace(
        algorithm=algorithm,
        problem=problem.kind,
        n=problem.n,
        phi=phi,
        seed=seed,
        evaluations=evaluations,
        iterations=iterations,
        hit_time=hit,
        final_population=population,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        archives=archives,
    )


def _memo_search(
    problem: PseudoBooleanProblem,
    rng: random.Random,
    initial: Optional[BitString],
    targets: Optional[Tuple[frozenset, ...]],
    budget: int,
    observer: Optional[Callable],
) -> Tuple[List[list], int, int, Optional[int]]:
    """One archive per lane of the kind, evolved side by side.

    Every archive starts from the initial word, evaluated once per lane. Each
    while-iteration mutates once inside each archive in lane order, one
    evaluation each, drawing the parent index ``randrange(len(A))`` and then
    the bit index ``randrange(n)``. An offspring enters iff no member weakly
    dominates it under the lane (equal vectors are rejected too); every
    member it weakly dominates is removed.

    ``targets`` holds one set of vectors per lane, or None for a budget run.
    The run hits, and stops, at the evaluation where every lane has accepted
    every vector of its set. ``observer``, if given, sees the live archive of
    a one-lane kind after each iteration, or the tuple of archives. Members
    are ``(vector, word, i, j, birth)`` tuples. Returns (archives,
    evaluations, iterations, hit).

    The vector is a function of the cell, so each archive remembers the cells
    whose offspring it rejected and skips the scan when one comes back. This
    is exact and the memo is never cleared: let D(A) be the set of vectors
    some member of A weakly dominates. An accepted v removes only members e
    with v >= e, and everything such an e dominated v dominates too, so D(A)
    only grows and a rejected cell stays rejected.
    """
    n, half = problem.n, problem.half
    lanes = _LANES[problem.kind]
    word, i, j = _start(problem, rng, initial)
    stride = half + 1
    archives = [[(lane(half, i, j), word, i, j, 0)] for lane in lanes]
    memos = [bytearray(stride * stride) for _ in lanes]
    evaluations = len(lanes)
    iterations = 0
    # the target vectors each lane has yet to accept
    left = None if targets is None else [set(t) - {A[0][0]} for t, A in zip(targets, archives)]
    hit = evaluations if left is not None and not any(left) else None
    order = range(len(lanes))

    while hit is None and evaluations < budget:
        iterations += 1
        for m in order:
            if evaluations >= budget:
                break
            P = archives[m]
            k = rng.randrange(len(P))
            b = rng.randrange(n)
            _, pw, pi, pj, _ = P[k]
            if b < half:
                i2, j2 = pi + (1 if not (pw >> b) & 1 else -1), pj
            else:
                i2, j2 = pi, pj + (1 if not (pw >> b) & 1 else -1)
            evaluations += 1
            cell = i2 * stride + j2
            rejected = memos[m]
            if rejected[cell]:
                continue
            v2 = lanes[m](half, i2, j2)
            for e in P:
                if _weak_ge(e[0], v2):
                    rejected[cell] = 1
                    break
            else:
                P = archives[m] = [e for e in P if not _weak_ge(v2, e[0])]
                P.append((v2, pw ^ (1 << b), i2, j2, iterations))
                if left is not None and v2 in left[m]:
                    left[m].discard(v2)
                    if not any(left):
                        hit = evaluations
                        break
        if observer is not None:
            observer(iterations, archives[0] if len(archives) == 1 else tuple(archives))
    return archives, evaluations, iterations, hit


def run_semo(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    stop: str = "target",
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single-archive global search keeping mutually incomparable solutions.

    Applies to the single-party kinds. Per iteration the draws are: parent
    index ``randrange(len(P))``, then bit index ``randrange(n)``. An offspring
    enters the archive iff no incumbent weakly dominates it (equal vectors are
    rejected too); everything the offspring dominates is removed.

    ``stop="target"`` ends the run when the archive covers the analytic front;
    ``stop="budget"`` runs out the evaluation budget. ``observer``, if given,
    is called as ``observer(iteration, archive)`` with the live archive (a list
    of ``(vector, word, i, j, birth)`` tuples; treat it as read-only).

    This is the one-lane case of ``_memo_search``, with the analytic front as
    the target; it skips the scan for cells (i, j) the archive once rejected.
    """
    if problem.parties != 1:
        raise ValueError("run_semo handles single-party problems; use the bi-party runners for bpaoaz")
    _check_stop(stop, ("target", "budget"))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    targets = analytic_fronts(problem) if stop == "target" else None
    (archive,), evaluations, iterations, hit = _memo_search(problem, rng, initial, targets, budget, observer)
    population = [_entry(problem, e[1], e[4]) for e in archive]
    return _finish("semo", problem, seed, t0, evaluations, iterations, hit, population)


def run_empmo_simple(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    stop: str = "target",
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Per-party archives evolved side by side from a shared start.

    Each while-iteration mutates once inside each party's archive in party
    order, so it costs two evaluations; the initial solution is evaluated once
    per party. Draws per iteration: for each party, parent index then bit
    index. Acceptance and removal inside an archive use only that party's
    objectives, with equal vectors rejected.

    The common set is the objective-level intersection of the two archives: a
    member belongs to it iff each party's archive carries its vector for that
    party. ``stop="target"`` ends the run when the intersection covers the
    analytic common optimum (equivalently, the all-ones string sits in both
    archives); ``stop="fronts"`` runs until both archives cover their full
    per-party fronts; ``stop="budget"`` runs out the budget. ``observer`` is
    called as ``observer(iteration, (P1, P2))`` with live archives of
    ``(vector, word, i, j, birth)`` tuples.

    This is the two-lane case of ``_memo_search``, so each archive skips the
    scan for cells it once rejected. The all-ones string is the one word whose
    vector is (n/2, n/2) under either party, so that vector is each lane's
    target under ``stop="target"``.
    """
    if problem.kind != "bpaoaz":
        raise ValueError("run_empmo_simple requires the bi-party problem")
    _check_stop(stop, ("target", "fronts", "budget"))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    if stop == "target":
        targets = (frozenset({(problem.half, problem.half)}),) * 2
    else:
        targets = analytic_fronts(problem) if stop == "fronts" else None
    archives, evaluations, iterations, hit = _memo_search(problem, rng, initial, targets, budget, observer)
    seen = {}
    for P in archives:
        for e in P:
            if e[1] not in seen or e[4] < seen[e[1]]:
                seen[e[1]] = e[4]
    population = [_entry(problem, w, birth) for w, birth in sorted(seen.items())]
    per_party = tuple(
        [_entry(problem, e[1], e[4]) for e in P] for P in archives
    )
    return _finish(
        "empmo-simple", problem, seed, t0, evaluations, iterations, hit, population, archives=per_party
    )


def common_members(trace: RunTrace) -> List[PopulationEntry]:
    """Objective-level intersection of a two-archive trace.

    A solution from either archive is a common member iff party 1's archive
    holds its party-1 vector and party 2's archive holds its party-2 vector.
    """
    if not trace.archives or len(trace.archives) != 2:
        raise ValueError("trace does not carry two per-party archives")
    p1, p2 = trace.archives
    objs1 = {e.objectives[0] for e in p1}
    objs2 = {e.objectives[1] for e in p2}
    out = []
    seen = set()
    for e in list(p1) + list(p2):
        if e.solution.word in seen:
            continue
        seen.add(e.solution.word)
        if e.objectives[0] in objs1 and e.objectives[1] in objs2:
            out.append(e)
    return out


def run_empmo_random(
    problem: PseudoBooleanProblem,
    phi: float,
    seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    stop: str = "target",
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single shared archive judged each iteration by a randomly drawn party.

    Draws per iteration: parent index, bit index, then one uniform float u
    with party 1 selected iff u < phi. Acceptance and the dominance-removal
    step use only the drawn party; afterwards the archive is pruned under that
    same party, keeping the earliest-born member among any equal-vector group
    (the prune is skipped when the archive is already pruned under that party
    and nothing was added since, which cannot change the outcome).

    ``stop="target"`` ends the run once the all-ones string is accepted into
    the archive; it is never removed afterwards. ``observer`` is called as
    ``observer(iteration, archive)`` with live ``(v1, v2, word, i, j, birth)``
    entries.

    Unlike ``run_semo`` and ``run_empmo_simple`` this runner scans the archive
    for every offspring and keeps no memo of rejected cells: a removal under
    one party can drop the member that dominated a cell under the other, and
    the prune changes the archive without any accept, so the set of vectors
    the archive dominates under a party can shrink.
    """
    if problem.kind != "bpaoaz":
        raise ValueError("run_empmo_random requires the bi-party problem")
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    _check_stop(stop, ("target", "budget"))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    n, half = problem.n, problem.half
    ones_word = (1 << n) - 1
    word, i0, j0 = _start(problem, rng, initial)
    archive = [(_party1(half, i0, j0), _party2(half, i0, j0), word, i0, j0, 0)]
    evaluations = 1
    iterations = 0
    pruned = [True, True]
    hit = evaluations if (stop == "target" and word == ones_word) else None

    while hit is None and evaluations < budget:
        iterations += 1
        k = rng.randrange(len(archive))
        b = rng.randrange(n)
        m = 0 if rng.random() < phi else 1
        e = archive[k]
        pw, pi, pj = e[2], e[3], e[4]
        if b < half:
            i2, j2 = pi + (1 if not (pw >> b) & 1 else -1), pj
        else:
            i2, j2 = pi, pj + (1 if not (pw >> b) & 1 else -1)
        w2 = pw ^ (1 << b)
        v2 = (_party1(half, i2, j2), _party2(half, i2, j2))
        evaluations += 1
        vm = v2[m]
        for z in archive:
            if _weak_ge(z[m], vm):
                break
        else:
            archive = [z for z in archive if not _weak_ge(vm, z[m])]
            archive.append((v2[0], v2[1], w2, i2, j2, iterations))
            pruned = [False, False]
            if stop == "target" and w2 == ones_word:
                hit = evaluations
        if not pruned[m]:
            kept = []
            for idx, z in enumerate(archive):
                zm = z[m]
                keep = True
                for idx2, z2 in enumerate(archive):
                    if idx2 == idx:
                        continue
                    f2 = z2[m]
                    if f2 == zm:
                        if z2[5] < z[5]:
                            keep = False
                            break
                    elif _weak_ge(f2, zm):
                        keep = False
                        break
                if keep:
                    kept.append(z)
            archive = kept
            pruned[m] = True
        if observer is not None:
            observer(iterations, archive)

    population = [_entry(problem, z[2], z[5]) for z in archive]
    return _finish("empmo-random", problem, seed, t0, evaluations, iterations, hit, population, phi=phi)


def run_empmo_payoff(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    stop: str = "target",
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single-solution hill climb gated by the summed per-party payoff.

    Per iteration the only draw is the bit index. The move is taken iff the
    payoff total is positive, i.e. the parties that strictly gain outnumber
    the parties that strictly lose; a move that leaves a party's vector
    incomparable or identical earns that party's vote of zero.

    ``stop="target"`` ends the run when the current solution is the all-ones
    string. ``observer`` is called as ``observer(iteration, word)``.
    """
    if problem.kind != "bpaoaz":
        raise ValueError("run_empmo_payoff requires the bi-party problem")
    _check_stop(stop, ("target", "budget"))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    n, half = problem.n, problem.half
    ones_word = (1 << n) - 1
    word, i, j = _start(problem, rng, initial)
    v1, v2 = _party1(half, i, j), _party2(half, i, j)
    evaluations = 1
    iterations = 0
    hit = evaluations if (stop == "target" and word == ones_word) else None

    while hit is None and evaluations < budget:
        iterations += 1
        b = rng.randrange(n)
        if b < half:
            i2, j2 = i + (1 if not (word >> b) & 1 else -1), j
        else:
            i2, j2 = i, j + (1 if not (word >> b) & 1 else -1)
        nv1, nv2 = _party1(half, i2, j2), _party2(half, i2, j2)
        evaluations += 1
        total = payoff_component(v1, nv1, SENSE) + payoff_component(v2, nv2, SENSE)
        if total > 0:
            word ^= 1 << b
            i, j, v1, v2 = i2, j2, nv1, nv2
            if stop == "target" and word == ones_word:
                hit = evaluations
        if observer is not None:
            observer(iterations, word)

    population = [_entry(problem, word, iterations)]
    return _finish("empmo-payoff", problem, seed, t0, evaluations, iterations, hit, population)
