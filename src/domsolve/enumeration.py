"""Exhaustive enumeration oracles over the finite outcome spaces.

These decide every equiprobable state of a finite outcome space and count
the outcomes, producing exact rational distributions that the closed forms
in :mod:`domsolve.exact` must match with zero tolerance. The 2 x n states go
through the batch elimination kernel of :mod:`domsolve._simkernels` in
chunks of ``CHUNK_STATES``, and the 3 x n table is counted on the outrank
bitsets of the permutations in blocks of ``RANKING_BLOCK`` second rankings.
Each chunk or block is a work item that returns integer counts, decided on
the thread pool the Monte Carlo batches use
(:func:`domsolve._simkernels.run_work_items`) with one thread per item and
CPU; the counts are summed, so the results do not depend on the thread
count. Each 2 x 2 class's states (built from the cell orderings of 1..4) go
through the kernel in one call. The test suite checks the batch paths
against the scalar engine of :mod:`domsolve.elimination` state by state and
against the raw dominance definition.
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
# States per work item of enumerate_2xn. A multiple of 2^MAX_FULL_2XN, so
# each item holds the row patterns of whole second rankings; bounded items
# keep peak memory flat in n (n = 8 has about 10^7 states).
CHUNK_STATES = 1 << 13
# Second rankings per work item of enumerate_undominated_3xn: one block up
# to n = 5, six at n = 6.
RANKING_BLOCK = 128


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
    pattern = (states & ((1 << n) - 1)).astype(np.int16)  # n <= 8 bits
    top = 1 + (pattern[:, None] >> np.arange(n, dtype=np.int16) & 1)
    col_ranks = np.empty((hi - lo, 2, n), dtype=np.int16)
    col_ranks[:, 0] = np.arange(1, n + 1)
    col_ranks[:, 1] = perms[states >> n]
    return np.stack([top, 3 - top], axis=1), col_ranks


def _tally_2xn(perms: np.ndarray, lo: int, hi: int) -> tuple:
    """Integer counts of states lo..hi-1: the solvable states, and the
    bincounts of the solvable states' iterations and of every state's
    ``u_c`` and ``s_c``."""
    n = perms.shape[1]
    out = kernels.eliminate_batch(*_states_2xn(perms, lo, hi))
    return (
        int(out["solvable"].sum()),
        # at most 3 rounds in 2 x n
        np.bincount(out["iterations"][out["solvable"]], minlength=4),
        np.bincount(out["u_c"], minlength=n + 1),
        np.bincount(out["s_c"], minlength=n + 1),
    )


def enumerate_2xn(n: int) -> ExactDistributionReport:
    """Decide every equiprobable 2 x n state with the batch elimination
    kernel and count the outcomes.

    Because column labels never matter, the first column ranking can be fixed
    to the identity: the state space is the n! second rankings crossed with
    the 2^n per-column row orders, all equally likely. The states go to
    ``_simkernels.eliminate_batch`` as int16 rank stacks, one work item of
    ``CHUNK_STATES`` per call (six at n = 6, one up to n = 5), decided on
    the shared thread pool and summed; the test suite checks every state
    for n <= 5 against the scalar engine of :mod:`domsolve.elimination`.
    """
    if not 1 <= n <= MAX_FULL_2XN:
        raise CapacityError(f"enumerate_2xn supports 1 <= n <= {MAX_FULL_2XN}")
    perms = _permutations(n)
    total = math.factorial(n) * 2**n
    items = [(perms, lo, min(lo + CHUNK_STATES, total)) for lo in range(0, total, CHUNK_STATES)]
    # As many threads as items: the pool clamps them to the CPUs.
    parts = kernels.run_work_items(_tally_2xn, items, len(items))
    solvable_states = sum(part[0] for part in parts)
    iterations, undominated, survivors = (sum(part[i] for part in parts).tolist() for i in (1, 2, 3))
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


def _tally_3xn(c2_later: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Bincount of the undominated count over a block of second rankings
    (their later-and-above sets ``c2_later``) crossed with every third
    ranking's outrank sets ``above``: one (block, n!, n) AND."""
    n = above.shape[1]
    dominated = (c2_later[:, None, :] & above).astype(bool).sum(axis=2, dtype=np.uint8)
    return np.bincount(n - dominated.ravel(), minlength=n + 1)


def enumerate_undominated_3xn(n: int) -> list[int]:
    """Counts of second/third column-ranking pairs (first fixed to identity)
    leaving exactly k = 1..n column actions of a 3 x n game undominated.

    Enumerates all (n!)^2 pairs on the outrank bitsets of the n!
    permutations (``_simkernels.outrank_bits``), ``RANKING_BLOCK`` second
    rankings per work item on the shared thread pool (one item up to n = 5,
    so no pool starts); row sums are (n!)^2 and the counts generalize the
    unsigned Stirling numbers of the first kind. The test suite checks them
    against a brute force over the raw dominance definition.
    """
    if not 1 <= n <= MAX_UC_3XN:
        raise CapacityError(f"enumerate_undominated_3xn supports 1 <= n <= {MAX_UC_3XN}")
    perms = _permutations(n)
    # Bit k of above[p, j] is set iff permutation p ranks column k above j.
    above = kernels.outrank_bits(perms[None])[0, :, :, 0]
    # With the first ranking equal to the identity, column j is dominated
    # exactly when some k > j is ranked above j by both other rankings.
    later = np.array([(1 << n) - (2 << j) for j in range(n)], dtype=above.dtype)
    c2_later = above & later
    items = [(c2_later[lo : lo + RANKING_BLOCK], above) for lo in range(0, len(above), RANKING_BLOCK)]
    parts = kernels.run_work_items(_tally_3xn, items, len(items))
    return sum(parts)[1:].tolist()


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
