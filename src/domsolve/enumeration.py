"""Exhaustive enumeration oracles over the finite outcome spaces.

These decide every equiprobable state of a finite outcome space and count
the outcomes, producing exact rational distributions that the closed forms
in :mod:`domsolve.exact` must match with zero tolerance. The 2 x n states go
through the batch elimination kernel of :mod:`domsolve._simkernels` in
chunks, the 3 x n table is counted on the outrank bitsets of the
permutations, and the 2 x 2 classes run the scalar engine of
:mod:`domsolve.elimination`. The test suite checks the batch paths against
the scalar engine state by state and against the raw dominance definition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _simkernels as kernels
from .elimination import _run_elimination
from .exact import CapacityError
from .games import CardinalBimatrix, GameClass, OrdinalBimatrix, check_action_sets, ordinalize
from .rationalizability import _payoff_view, point_rationalizable_sets

MAX_FULL_2XN = 8
MAX_UC_3XN = 6
# States per batch-kernel call of enumerate_2xn. A multiple of 2^MAX_FULL_2XN,
# so each call holds the row patterns of whole second rankings; bounded calls
# keep peak memory flat in n (n = 8 has about 10^7 states).
CHUNK_STATES = 1 << 14


@dataclass(frozen=True)
class ExactDistributionReport:
    """Exact joint dominance statistics of random 2 x n games.

    ``dist_iterations`` is conditional on solvability; the other vectors are
    unconditional and all sum to exactly 1.
    """

    n: int
    total_states: int
    solvable_probability: Fraction
    dist_iterations: tuple[Fraction, Fraction, Fraction]
    dist_undominated: tuple[Fraction, ...]
    dist_survivors: tuple[Fraction, ...]

    def mean_survivors(self) -> Fraction:
        return sum(
            (k * p for k, p in enumerate(self.dist_survivors, start=1)),
            start=Fraction(0),
        )

    def var_survivors(self) -> Fraction:
        mean = self.mean_survivors()
        second = sum(
            (k * k * p for k, p in enumerate(self.dist_survivors, start=1)),
            start=Fraction(0),
        )
        return second - mean * mean


def _permutations(n: int) -> np.ndarray:
    """(n!, n) int16 array of the permutations of 1..n, lexicographic."""
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int16)


def _states_2xn(perms: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column rank stacks (hi - lo, 2, n) of states lo..hi-1 of the
    reduced 2 x n state space.

    State s pairs the second column ranking ``perms[s >> n]`` (the first is
    the identity) with the row pattern s mod 2^n, whose bit j set means row
    0 is the better row in column j.
    """
    n = perms.shape[1]
    states = np.arange(lo, hi)
    top = (1 + (states[:, None] >> np.arange(n) & 1)).astype(np.int16)
    col_ranks = np.empty((hi - lo, 2, n), dtype=np.int16)
    col_ranks[:, 0] = np.arange(1, n + 1)
    col_ranks[:, 1] = perms[states >> n]
    return np.stack([top, 3 - top], axis=1), col_ranks


def enumerate_2xn(n: int) -> ExactDistributionReport:
    """Decide every equiprobable 2 x n state with the batch elimination
    kernel and count the outcomes.

    Because column labels never matter, the first column ranking can be fixed
    to the identity: the state space is the n! second rankings crossed with
    the 2^n per-column row orders, all equally likely. The states go to
    ``_simkernels.eliminate_batch`` as int16 rank stacks, ``CHUNK_STATES``
    per call; the test suite checks every state for n <= 5 against the
    scalar engine of :mod:`domsolve.elimination`.
    """
    if not 1 <= n <= MAX_FULL_2XN:
        raise CapacityError(f"enumerate_2xn supports 1 <= n <= {MAX_FULL_2XN}")
    perms = _permutations(n)
    total = math.factorial(n) * 2**n
    solvable_states = 0
    # iteration_states[i]: solvable states taking i rounds (at most 3 in 2 x n)
    iteration_states = np.zeros(4, dtype=np.int64)
    undominated_states = np.zeros(n + 1, dtype=np.int64)
    survivor_states = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, total, CHUNK_STATES):
        out = kernels.eliminate_batch(*_states_2xn(perms, lo, min(lo + CHUNK_STATES, total)))
        solvable_states += int(out["solvable"].sum())
        iteration_states += np.bincount(out["iterations"][out["solvable"]], minlength=4)
        undominated_states += np.bincount(out["u_c"], minlength=n + 1)
        survivor_states += np.bincount(out["s_c"], minlength=n + 1)
    iterations = iteration_states.tolist()
    undominated = undominated_states.tolist()
    survivors = survivor_states.tolist()
    return ExactDistributionReport(
        n=n,
        total_states=total,
        solvable_probability=Fraction(solvable_states, total),
        dist_iterations=tuple(
            Fraction(iterations[i], solvable_states) for i in (1, 2, 3)
        ),
        dist_undominated=tuple(
            Fraction(undominated[k], total) for k in range(1, n + 1)
        ),
        dist_survivors=tuple(
            Fraction(survivors[k], total) for k in range(1, n + 1)
        ),
    )


def enumerate_undominated_3xn(n: int) -> list[int]:
    """Counts of second/third column-ranking pairs (first fixed to identity)
    leaving exactly k = 1..n column actions of a 3 x n game undominated.

    Enumerates all (n!)^2 pairs on the outrank bitsets of the n!
    permutations (``_simkernels.outrank_bits``); row sums are (n!)^2 and the
    counts generalize the unsigned Stirling numbers of the first kind. The
    test suite checks them against a brute force over the raw dominance
    definition.
    """
    if not 1 <= n <= MAX_UC_3XN:
        raise CapacityError(f"enumerate_undominated_3xn supports 1 <= n <= {MAX_UC_3XN}")
    perms = _permutations(n)
    # Bit k of above[p, j] is set iff permutation p ranks column k above j.
    above = kernels.outrank_bits(perms[None])[0, :, :, 0]
    # With the first ranking equal to the identity, column j is dominated
    # exactly when some k > j is ranked above j by both other rankings.
    later = np.array([(1 << n) - (2 << j) for j in range(n)], dtype=above.dtype)
    counts = np.zeros(n + 1, dtype=np.int64)
    for c2_later in above & later:
        dominated = (c2_later & above).astype(bool).sum(axis=1)
        counts += np.bincount(n - dominated, minlength=n + 1)
    return counts[1:].tolist()


@dataclass(frozen=True)
class Class2x2Report:
    """Exact outcome distribution of a 2 x 2 game class.

    ``outcome_probs`` maps the ordinal game (row_ranks, col_ranks tuples) to
    its probability; the aggregates cover solvability, the iteration count
    and the surviving-count pair.
    """

    game_class: GameClass
    outcome_probs: dict[tuple, Fraction]
    solvable_probability: Fraction
    iteration_probs: dict[int, Fraction]
    survivor_pair_probs: dict[tuple[int, int], Fraction]


def _ordinal_key(game: OrdinalBimatrix) -> tuple:
    return (game.row_ranks, game.col_ranks)


def _int_cardinal(u_row, u_col) -> CardinalBimatrix:
    return CardinalBimatrix(
        [[float(x) for x in row] for row in u_row],
        [[float(x) for x in row] for row in u_col],
    )


def _class_2x2_states(game_class: GameClass):
    """Yield (ordinal game, weight) pairs over the class's discrete structure."""
    if game_class is GameClass.BASELINE:
        for bits_r in range(4):
            rr = [[0, 0], [0, 0]]
            for j in range(2):
                rr[0][j] = 2 if bits_r >> j & 1 else 1
                rr[1][j] = 3 - rr[0][j]
            for bits_c in range(4):
                cc = [[0, 0], [0, 0]]
                for i in range(2):
                    cc[i][0] = 2 if bits_c >> i & 1 else 1
                    cc[i][1] = 3 - cc[i][0]
                yield OrdinalBimatrix(rr, cc), 1
        return

    cells = list(itertools.permutations((1, 2, 3, 4)))

    def matrix(vals):
        return [[vals[0], vals[1]], [vals[2], vals[3]]]

    if game_class in (GameClass.SYMMETRIC, GameClass.POTENTIAL, GameClass.CONSTANT_SUM):
        for vals in cells:
            r = matrix(vals)
            if game_class is GameClass.SYMMETRIC:
                u_col = [[r[0][0], r[1][0]], [r[0][1], r[1][1]]]
            elif game_class is GameClass.POTENTIAL:
                u_col = r
            else:
                u_col = [[5 - x for x in row] for row in r]
            yield ordinalize(_int_cardinal(r, u_col)), 1
        return

    # Strategic complementarities: condition by rejection over the cell
    # orderings, the enumeration-side ground truth for the direct sampler.
    def br_rows_nondecreasing(r):
        best = [0 if r[0][j] > r[1][j] else 1 for j in range(2)]
        return best[0] <= best[1]

    def br_cols_nondecreasing(c):
        best = [0 if c[i][0] > c[i][1] else 1 for i in range(2)]
        return best[0] <= best[1]

    accepted_r = [matrix(v) for v in cells if br_rows_nondecreasing(matrix(v))]
    if game_class is GameClass.STRAT_COMPLEMENTS_SYM:
        for r in accepted_r:
            u_col = [[r[0][0], r[1][0]], [r[0][1], r[1][1]]]
            yield ordinalize(_int_cardinal(r, u_col)), 1
        return
    accepted_c = [matrix(v) for v in cells if br_cols_nondecreasing(matrix(v))]
    for r in accepted_r:
        for c in accepted_c:
            yield ordinalize(_int_cardinal(r, c)), 1


def enumerate_class_2x2(game_class: GameClass) -> Class2x2Report:
    """Exact distribution of (solvable, iterations, survivor pair) for 2 x 2
    games of the given class, by enumerating the underlying discrete
    structure (cell orderings, with rejection for the conditioned classes)."""
    outcome: dict[tuple, int] = {}
    solvable = 0
    iterations: dict[int, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    total = 0
    for game, weight in _class_2x2_states(game_class):
        total += weight
        outcome[_ordinal_key(game)] = outcome.get(_ordinal_key(game), 0) + weight
        rounds, rows, cols, _, _ = _run_elimination(
            game.row_ranks, game.col_ranks, (0, 1), (0, 1)
        )
        if len(rows) == 1 and len(cols) == 1:
            solvable += weight
        iterations[len(rounds)] = iterations.get(len(rounds), 0) + weight
        key = (len(rows), len(cols))
        pairs[key] = pairs.get(key, 0) + weight
    return Class2x2Report(
        game_class=game_class,
        outcome_probs={k: Fraction(v, total) for k, v in outcome.items()},
        solvable_probability=Fraction(solvable, total),
        iteration_probs={k: Fraction(v, total) for k, v in iterations.items()},
        survivor_pair_probs={k: Fraction(v, total) for k, v in pairs.items()},
    )


@functools.lru_cache(maxsize=8)
def _simplex_grid(parts: int, resolution: int) -> np.ndarray:
    """All weight vectors with `parts` coordinates on the 1/resolution grid,
    built once per (parts, resolution) and returned read-only."""
    cuts = itertools.combinations(range(resolution + parts - 1), parts - 1)
    rows = []
    for cut in cuts:
        prev = -1
        weights = []
        for c in cut:
            weights.append(c - prev - 1)
            prev = c
        weights.append(resolution + parts - 2 - prev)
        rows.append(weights)
    grid = np.array(rows, dtype=float) / resolution
    grid.flags.writeable = False
    return grid


def grid_mixed_dominance_oracle(
    game: CardinalBimatrix,
    player: int,
    action: int,
    own: tuple[int, ...] | None = None,
    opp: tuple[int, ...] | None = None,
    resolution: float = 1 / 200,
) -> bool:
    """One-sided mixed-dominance check on a simplex grid.

    True certifies that some grid mixture of the player's other actions in
    ``own`` strictly dominates ``action`` on ``opp``; False only means no
    grid point does, which with a fine grid flags (rather than refutes) a
    borderline LP verdict.
    """
    own, opp = check_action_sets(game, player, own, opp)
    payoffs = _payoff_view(game, player)
    if action not in own:
        raise ValueError("action must belong to own set")
    others = [k for k in own if k != action]
    if len(others) > 3:
        raise CapacityError("grid oracle supports |own| <= 4")
    if not others:
        return False
    steps = round(1 / resolution)
    grid = _simplex_grid(len(others), steps)
    margins = grid @ payoffs[np.ix_(others, opp)] - payoffs[action, list(opp)]
    return bool((margins > 0).all(axis=1).any())


def enumerate_point_rat_2x2() -> Fraction:
    """Probability that a random 2 x 2 game has a unique point-rationalizable
    profile, by enumerating all 16 equiprobable ordinal states."""
    unique = 0
    total = 0
    for game, weight in _class_2x2_states(GameClass.BASELINE):
        total += weight
        rat_rows, rat_cols = point_rationalizable_sets(game)
        if len(rat_rows) == 1 and len(rat_cols) == 1:
            unique += weight
    return Fraction(unique, total)
