"""Exhaustive enumeration oracles over the finite outcome spaces.

These decide every equiprobable state of a finite outcome space and count
the outcomes, producing exact rational distributions that the closed forms
in :mod:`domsolve.exact` must match with zero tolerance. The 2 x n states go
through the batch elimination kernel of :mod:`domsolve._simkernels` in
chunks, each 2 x 2 class's states (built from the cell orderings of 1..4)
go through it in one call, and the 3 x n table is counted on the outrank
bitsets of the permutations. The test suite checks the batch paths against
the scalar engine of :mod:`domsolve.elimination` state by state and against
the raw dominance definition.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _simkernels as kernels
# The scalar reference, bound here only for the benchmark's tracer
# (perfbench/tracing.py installs a span on enumeration._run_elimination).
from .elimination import _run_elimination  # noqa: F401
from .exact import CapacityError
from .games import CardinalBimatrix, GameClass, _action_index, check_action_sets, rank_along
from .rationalizability import _payoff_view

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


def _states_2x2(game_class: GameClass) -> tuple[np.ndarray, np.ndarray]:
    """Row's and Column's (S, 2, 2) payoff stacks of the equiprobable states
    of a 2 x 2 class, built from the 24 cell orderings R of 1..4.

    Baseline pairs two orderings (576 states). Symmetric and
    strat-complements-sym use (R, R^T), potential (R, R) and constant-sum
    (R, 5 - R). The complements classes keep only the orderings whose best
    response map is nondecreasing (each column's best row for Row, each
    row's best column for Column): conditioning by rejection, the
    enumeration-side ground truth for the direct sampler, kept apart from
    the sampler's own construction. Strat-complements pairs the accepted
    orderings (324 states).
    """
    cells = _permutations(4).reshape(-1, 2, 2)
    if game_class in (GameClass.STRAT_COMPLEMENTS, GameClass.STRAT_COMPLEMENTS_SYM):
        rows = cells[(np.diff(cells.argmax(axis=1), axis=1) >= 0).all(axis=1)]
        cols = cells[(np.diff(cells.argmax(axis=2), axis=1) >= 0).all(axis=1)]
    else:
        rows = cols = cells
    if game_class in (GameClass.BASELINE, GameClass.STRAT_COMPLEMENTS):
        return np.repeat(rows, len(cols), axis=0), np.tile(cols, (len(rows), 1, 1))
    if game_class in (GameClass.SYMMETRIC, GameClass.STRAT_COMPLEMENTS_SYM):
        return rows, rows.transpose(0, 2, 1)
    if game_class is GameClass.POTENTIAL:
        return rows, rows
    return rows, 5 - rows


def enumerate_class_2x2(game_class: GameClass) -> Class2x2Report:
    """Exact distribution of (solvable, iterations, survivor pair) for 2 x 2
    games of the given class, by deciding every state of
    :func:`_states_2x2` in one ``_simkernels.eliminate_batch`` call. The
    test suite checks every state against the scalar engine of
    :mod:`domsolve.elimination`."""
    u_row, u_col = _states_2x2(game_class)
    row_ranks, col_ranks = rank_along(u_row, 1).tolist(), rank_along(u_col, 2).tolist()
    out = kernels.eliminate_batch(u_row, u_col)
    total = len(u_row)

    def probs(keys) -> dict:
        return {k: Fraction(v, total) for k, v in Counter(keys).items()}

    return Class2x2Report(
        game_class=game_class,
        outcome_probs=probs((tuple(map(tuple, r)), tuple(map(tuple, c))) for r, c in zip(row_ranks, col_ranks)),
        solvable_probability=Fraction(int(out["solvable"].sum()), total),
        iteration_probs=probs(out["iterations"].tolist()),
        survivor_pair_probs=probs(zip(out["s_r"].tolist(), out["s_c"].tolist())),
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
    if _action_index(action) not in own:
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
    profile, by one ``_simkernels.point_rationalizable_counts`` call on the
    576 equiprobable baseline states."""
    rows, cols = kernels.point_rationalizable_counts(*_states_2x2(GameClass.BASELINE))
    return Fraction(int(((rows == 1) & (cols == 1)).sum()), len(rows))
