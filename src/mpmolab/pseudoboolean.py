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

Stop events are data: every runner takes ``targets``, one set of vectors per
lane (party), or None for a budget run. A run hits, and stops, at the
evaluation by which every lane has accepted every vector of its set, the start
counted; a lane accepts a vector when its archive (empmo-random's shared one,
the payoff climb's current solution) takes in a solution with that vector for
the lane's party. Sets of another arity raise ValueError at once.

Every runner draws from a single ``random.Random(seed)``; the per-iteration
draw order is documented on each runner so traces can be reproduced bit for
bit. Integer draws call ``getrandbits`` in ``randrange``'s exact pattern
(``core.randbelow``), so they give ``randrange``'s values and RNG states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .core import MultiPartyObjectives, payoff_component, randbelow, weak_ge

KINDS = ("aorz", "aofz", "aoaz", "bpaoaz")
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

    def to01(self) -> str:
        return "".join("1" if (self.word >> k) & 1 else "0" for k in range(self.n))

    def ones_count(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return self.to01()


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


def common_optimum(problem: PseudoBooleanProblem) -> Tuple[frozenset, ...]:
    """The all-ones string's vector in each lane, a one-vector set per party."""
    return tuple(frozenset({v}) for v in problem.evaluate(BitString.ones(problem.n)))


@dataclass
class RunTrace:
    """Outcome of one optimizer run: its evaluations, its generations (loop
    iterations), the evaluation count at its hit (None without one), and its
    ``archives``, the lists of member tuples its observer saw last."""

    evaluations: int
    generations: int
    hit_evaluations: Optional[int]
    archives: Tuple[list, ...]


def _accept(left: List[set], vectors: Tuple) -> bool:
    """Strike each lane's accepted vector from its set of vectors ``left``; True once all are empty."""
    for rest, v in zip(left, vectors, strict=True):
        rest.discard(v)
    return not any(left)


def _start(problem: PseudoBooleanProblem, seed: int, initial: Optional[BitString], targets: Optional[Tuple]) -> tuple:
    """(rng, word, i, j, vectors, left): the seeded generator, the start word (``initial``, else
    ``rng.getrandbits(n)``), its cell, its vector per lane, and per lane the target vectors still to
    accept after the start (None without targets). Wrong-arity targets raise ValueError at once."""
    if targets is not None and len(targets) != problem.parties:
        raise ValueError(f"targets hold {len(targets)} sets; {problem.kind} needs one per party, {problem.parties}")
    rng = random.Random(seed)
    x = initial if initial is not None else BitString(problem.n, rng.getrandbits(problem.n))
    vectors = problem.evaluate(x)
    left = None if targets is None else [set(t) - {v} for t, v in zip(targets, vectors)]
    return (rng, x.word, *problem.counts(x), vectors, left)


def _flip(half: int, word: int, i: int, j: int, b: int) -> Tuple[int, int, int]:
    """The word and cell (i, j) after bit b of ``word`` flips."""
    step = -1 if (word >> b) & 1 else 1
    return (word ^ (1 << b), i + step, j) if b < half else (word ^ (1 << b), i, j + step)


def _memo_search(
    problem: PseudoBooleanProblem,
    seed: int,
    initial: Optional[BitString],
    targets: Optional[Tuple[frozenset, ...]],
    budget: int,
    observer: Optional[Callable],
) -> RunTrace:
    """One archive per lane of the kind, evolved side by side.

    Every archive starts from the initial word, evaluated once per lane. Each
    while-iteration mutates once inside each archive in lane order, one
    evaluation each, drawing the parent index ``randrange(len(A))`` and then
    the bit index ``randrange(n)``. An offspring enters iff no member weakly
    dominates it under the lane (equal vectors are rejected too); every
    member it weakly dominates is removed.

    ``targets`` sets the stop (module docstring). Members are ``(vector, word,
    i, j, birth)`` tuples.

    The vector is a function of the cell, so each archive remembers the cells
    whose offspring it rejected and skips the scan when one comes back. This
    is exact and the memo is never cleared: let D(A) be the set of vectors
    some member of A weakly dominates. An accepted v removes only members e
    with v >= e, and everything such an e dominated v dominates too, so D(A)
    only grows and a rejected cell stays rejected.
    """
    n, half = problem.n, problem.half
    lanes = _LANES[problem.kind]
    rng, word, i, j, vectors, left = _start(problem, seed, initial, targets)
    stride = half + 1
    archives = [[(v, word, i, j, 0)] for v in vectors]
    memos = [bytearray(stride * stride) for _ in lanes]
    evaluations, iterations = len(lanes), 0
    hit = evaluations if left is not None and not any(left) else None
    order = range(len(lanes))
    getrandbits = rng.getrandbits
    nk = n.bit_length()

    while hit is None and evaluations < budget:
        iterations += 1
        for m in order:
            if evaluations >= budget:
                break
            P = archives[m]
            # core.randbelow's draws, randrange(len(P)) and randrange(n), then _flip, written inline
            size = len(P)
            kb = size.bit_length()
            k = getrandbits(kb)
            while k >= size:
                k = getrandbits(kb)
            b = getrandbits(nk)
            while b >= n:
                b = getrandbits(nk)
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
                if weak_ge(e[0], v2):
                    rejected[cell] = 1
                    break
            else:
                P = archives[m] = [e for e in P if not weak_ge(v2, e[0])]
                P.append((v2, pw ^ (1 << b), i2, j2, iterations))
                if left is not None and v2 in left[m]:
                    left[m].discard(v2)
                    if not any(left):
                        hit = evaluations
                        break
        if observer is not None:
            observer(iterations, tuple(archives))
    return RunTrace(evaluations, iterations, hit, tuple(archives))


def run_semo(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    targets: Optional[Tuple[frozenset, ...]],
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single-archive global search keeping mutually incomparable solutions.

    Applies to the single-party kinds. Per iteration the draws are: parent
    index ``randrange(len(P))``, then bit index ``randrange(n)``. An offspring
    enters the archive iff no incumbent weakly dominates it (equal vectors are
    rejected too); everything the offspring dominates is removed.

    ``targets`` sets the stop (module docstring); ``observer`` follows the
    package's observer contract, members ``(vector, word, i, j, birth)``.

    This is the one-lane case of ``_memo_search``; it skips the scan for
    cells (i, j) the archive once rejected.
    """
    if problem.parties != 1:
        raise ValueError("run_semo handles single-party problems; use the bi-party runners for bpaoaz")
    return _memo_search(problem, seed, initial, targets, budget, observer)


def run_empmo_simple(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    targets: Optional[Tuple[frozenset, ...]],
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Per-party archives evolved side by side from a shared start.

    Each while-iteration mutates once inside each party's archive in party
    order, so it costs two evaluations; the initial solution is evaluated once
    per party. Draws per iteration: for each party, parent index then bit
    index. Acceptance and removal inside an archive use only that party's
    objectives, with equal vectors rejected.

    ``targets`` sets the stop (module docstring); ``common_optimum`` stops it
    once both archives have taken in the all-ones string, the one common
    optimum. ``observer`` follows the observer contract, as in ``run_semo``.

    This is the two-lane case of ``_memo_search``, so each archive skips the
    scan for cells it once rejected.
    """
    if problem.kind != "bpaoaz":
        raise ValueError("run_empmo_simple requires the bi-party problem")
    return _memo_search(problem, seed, initial, targets, budget, observer)


def run_empmo_random(
    problem: PseudoBooleanProblem,
    phi: float,
    seed: int,
    *,
    targets: Optional[Tuple[frozenset, ...]],
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single shared archive judged each iteration by a randomly drawn party.

    Draws per iteration: parent index, bit index, then one uniform float u
    with party 1 selected iff u < phi. Acceptance and the dominance-removal
    step use only the drawn party; afterwards the archive is pruned under that
    same party to its non-dominated members (the prune is skipped while the
    archive is pruned under that party: an accept under a party keeps it so,
    as no member weakly dominated the newcomer and the newcomer removed every
    member it weakly dominates). A party vector fixes the cell (i, j), and an
    offspring whose cell is already in the archive is rejected as equal, so
    members never share a vector under either party.

    ``targets`` sets the stop (module docstring); ``observer`` follows the
    package's observer contract, members ``(v1, v2, word, i, j, birth)``.

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
    n, half = problem.n, problem.half
    rng, word, i0, j0, start, left = _start(problem, seed, initial, targets)
    archive = [(*start, word, i0, j0, 0)]
    evaluations, iterations = 1, 0
    pruned = [True, True]
    hit = evaluations if left is not None and not any(left) else None
    getrandbits = rng.getrandbits

    while hit is None and evaluations < budget:
        iterations += 1
        e = archive[randbelow(getrandbits, len(archive))]
        b = randbelow(getrandbits, n)
        m = 0 if rng.random() < phi else 1
        w2, i2, j2 = _flip(half, e[2], e[3], e[4], b)
        v2 = (_party1(half, i2, j2), _party2(half, i2, j2))
        evaluations += 1
        vm = v2[m]
        for z in archive:
            if weak_ge(z[m], vm):
                break
        else:
            archive = [z for z in archive if not weak_ge(vm, z[m])]
            archive.append((v2[0], v2[1], w2, i2, j2, iterations))
            pruned[1 - m] = False
            if left is not None and _accept(left, v2):
                hit = evaluations
        if not pruned[m]:
            # The members' vectors are distinct; taken in descending order, a
            # 2-vector is non-dominated iff its second component beats all
            # earlier ones.
            kept = set()
            top = -1  # below every count
            for v in sorted([z[m] for z in archive], reverse=True):
                if v[1] > top:
                    kept.add(v)
                    top = v[1]
            archive = [z for z in archive if z[m] in kept]
            pruned[m] = True
        if observer is not None:
            observer(iterations, (archive,))
    return RunTrace(evaluations, iterations, hit, (archive,))


def run_empmo_payoff(
    problem: PseudoBooleanProblem,
    seed: int,
    *,
    targets: Optional[Tuple[frozenset, ...]],
    budget: int = DEFAULT_BUDGET,
    initial: Optional[BitString] = None,
    observer: Optional[Callable] = None,
) -> RunTrace:
    """Single-solution hill climb gated by the summed per-party payoff.

    Per iteration the only draw is the bit index. The move is taken iff the
    payoff total is positive, i.e. the parties that strictly gain outnumber
    the parties that strictly lose; a move that leaves a party's vector
    incomparable or identical earns that party's vote of zero.

    ``targets`` and ``observer`` act as the module and package docstrings state.
    """
    if problem.kind != "bpaoaz":
        raise ValueError("run_empmo_payoff requires the bi-party problem")
    n, half = problem.n, problem.half
    rng, word, i, j, (v1, v2), left = _start(problem, seed, initial, targets)
    evaluations = 1
    iterations = born = 0  # born: the generation of the last accepted move
    hit = evaluations if left is not None and not any(left) else None
    getrandbits = rng.getrandbits

    while hit is None and evaluations < budget:
        iterations += 1
        w2, i2, j2 = _flip(half, word, i, j, randbelow(getrandbits, n))
        nv1, nv2 = _party1(half, i2, j2), _party2(half, i2, j2)
        evaluations += 1
        total = payoff_component(v1, nv1) + payoff_component(v2, nv2)
        if total > 0:
            word, i, j, v1, v2, born = w2, i2, j2, nv1, nv2, iterations
            if left is not None and _accept(left, (v1, v2)):
                hit = evaluations
        if observer is not None:
            observer(iterations, ([(v1, v2, word, i, j, born)],))
    return RunTrace(evaluations, iterations, hit, ([(v1, v2, word, i, j, born)],))
