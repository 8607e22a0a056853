"""Vectorized batch kernels backing the Monte Carlo harness.

Each kernel processes a whole batch of games as numpy arrays, laid out as
(batch, m, n) with the same conventions as the scalar game objects. Kernels
read only the order of each player's values along the player's own axis, so
they take the float draws of :func:`sample_payoff_batch` or their ranks
alike. The batched eliminator mirrors the simultaneous-deletion semantics of
:mod:`domsolve.elimination` exactly (the test suite cross-checks the two
game by game). The 2 x n CLT sampler draws no game at all: it samples the
surviving column count from its exact law (:func:`records_law`), derived
from the order statistics of a game.

Pure dominance is decided on bitsets. :func:`outrank_bits` turns a player's
(batch, profiles, K) stack into the set of own actions ranked strictly above
each action at each profile, once per batch: by K comparisons when the set
fits a 16-bit word, and otherwise from one sort and a prefix OR. The sets
are packed into the smallest unsigned word holding K bits, or into
ceil(K / 64) uint64 words. A round of :func:`_dominated` is then an AND over
the alive profiles, an AND with the alive own actions, and a nonzero test;
bimatrix and N-player batches share one round loop (:func:`_eliminate`).
Round 1, with every game unfinished and every action alive, reads the
stored bitsets in place and makes no gathered or masked copy; later rounds
gather the unfinished games only. Pure-Nash cells are counted apart
(:func:`pure_nash_counts`), for the one metric that reads them, and
:func:`batch_bytes` estimates a batch's peak memory for the capacity guard
of :mod:`domsolve.montecarlo`.

Float payoff draws can tie with probability ~2**-53 per pair. A tie fed to
the kernels stays a tie: neither action outranks the other (ranking the draw
would instead break it by index). At the batch sizes used here the event is
negligible and intentionally not resampled.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .games import GameClass, rank_along


def _nondecreasing_maps(rng: np.random.Generator, batch: int, m: int, n: int) -> np.ndarray:
    """(batch, n) array of uniform nondecreasing maps [n] -> [m], 0-based."""
    if m == 1:
        return np.zeros((batch, n), dtype=np.int64)
    u = rng.random((batch, m + n - 1))
    chosen = np.sort(np.argpartition(u, n - 1, axis=1)[:, :n], axis=1)
    return chosen - np.arange(n)


def sample_payoff_batch(
    rng: np.random.Generator, batch: int, m: int, n: int, game_class: GameClass
) -> tuple[np.ndarray, np.ndarray]:
    """Row's and Column's (batch, m, n) float payoffs for a batch of games of
    the given class.

    Ordinal dominance statistics do not depend on the payoff distribution
    (any continuous i.i.d. draw induces the same uniform rank law), so the
    draws are uniform; a forced best response is a payoff of 2.0.
    """
    if game_class is GameClass.BASELINE:
        return rng.random((batch, m, n)), rng.random((batch, m, n))
    if game_class in (GameClass.SYMMETRIC, GameClass.POTENTIAL, GameClass.CONSTANT_SUM):
        u = rng.random((batch, m, n))
        if game_class is GameClass.SYMMETRIC:
            return u, u.transpose(0, 2, 1)
        if game_class is GameClass.POTENTIAL:
            return u, u
        return u, -u  # an exact negation: no ties that u does not have
    if game_class in (GameClass.STRAT_COMPLEMENTS, GameClass.STRAT_COMPLEMENTS_SYM):
        b = _nondecreasing_maps(rng, batch, m, n)
        u_row = rng.random((batch, m, n))
        np.put_along_axis(u_row, b[:, None, :], 2.0, axis=1)
        if game_class is GameClass.STRAT_COMPLEMENTS_SYM:
            return u_row, u_row.transpose(0, 2, 1)
        d = _nondecreasing_maps(rng, batch, n, m)
        u_col = rng.random((batch, m, n))
        np.put_along_axis(u_col, d[:, :, None], 2.0, axis=2)
        return u_row, u_col
    raise ValueError(f"unsupported game class {game_class}")


def sample_rank_batch(
    rng: np.random.Generator, batch: int, m: int, n: int, game_class: GameClass
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column rank tensors of the games :func:`sample_payoff_batch`
    draws from the same ``rng``."""
    u_row, u_col = sample_payoff_batch(rng, batch, m, n, game_class)
    return rank_along(u_row, 1), rank_along(u_col, 2)


def _word_layout(k: int) -> tuple[np.dtype, int]:
    """Word type and word count of a k-bit set: the smallest unsigned word
    that holds k bits, or ceil(k / 64) uint64 words when k > 64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if k <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype), 1
    return np.dtype(np.uint64), -(-k // 64)


@functools.lru_cache(maxsize=64)
def _one_hot_words(k: int) -> np.ndarray:
    """(k, W) words whose row y is the set {y}: bit y % b of word y // b,
    for words of b bits; built once per k and returned read-only."""
    dtype, words = _word_layout(k)
    bits = 8 * dtype.itemsize
    y = np.arange(k)
    table = np.zeros((k, words), dtype=dtype)
    table[y, y // bits] = np.left_shift(np.uint64(1), (y % bits).astype(np.uint64))
    table.flags.writeable = False
    return table


def batch_bytes(batch: int, dims: Sequence[int]) -> int:
    """Upper estimate of the peak bytes of sampling and eliminating one batch
    of games whose players have ``dims`` actions.

    Every player's payoff stack has batch * prod(dims) cells. Per cell and
    player that is 32 bytes for the float draw, which lives through
    elimination, with the contiguous copy and the comparison temporaries or
    sort indices of :func:`outrank_bits` (tracemalloc peaks of the batch
    worker stay 1.3-3.5x below it), plus four copies of the player's bitset
    words: stored, gathered for the unfinished games, masked, and halved.
    Round 1 makes no gathered or masked copy, and later rounds make them for
    the unfinished games only, so the count stays an upper bound.
    """
    cells = batch * math.prod(dims)
    total = 0
    for k in dims:
        dtype, words = _word_layout(k)
        total += cells * (32 + 4 * dtype.itemsize * words)
    return total


# Largest K whose bitsets outrank_bits builds by comparison: K steps over the
# stack beat one sort up to here (K = 7: 5.6 vs 16.1 ms, K = 16: 9.7 vs
# 10.6 ms at a fixed B * P * K), and lose beyond (K = 32: 58.6 vs 35.3 ms).
COMPARE_MAX_K = 16


def outrank_bits(values: np.ndarray) -> np.ndarray:
    """Bitsets (B, P, K, W) of a (B, P, K) rank or payoff stack: bit y of
    entry [b, p, x] is set iff values[b, p, y] > values[b, p, x], so ties do
    not outrank.

    Two builds, chosen by K. Up to ``COMPARE_MAX_K`` actions the set fits one
    uint8 or uint16 word and is built by comparison, one vectorised step per
    y. Above it, sorted in descending order, the actions above x are the
    ones before its tie run, so one prefix OR of one-hot words yields every
    set in O(B P K W) after one sort.
    """
    *lead, k = values.shape
    rows = values.reshape(-1, k)
    if k <= COMPARE_MAX_K:
        dtype = _word_layout(k)[0]
        out = np.zeros(rows.shape, dtype=dtype)
        for y in range(k):
            out |= (rows[:, y : y + 1] > rows).astype(dtype) << dtype.type(y)
        return out.reshape(*lead, k, 1)
    one_hot = _one_hot_words(k)
    n = rows.shape[0]
    # numpy's vectorised argsort covers 32- and 64-bit keys only
    keys = rows.astype(np.promote_types(rows.dtype, np.int32), copy=False)
    desc = keys.argsort(axis=1)[:, ::-1]
    # Position-major (K, n, W), so each step of the prefix OR is one
    # contiguous op. prefix[i] is the set of the first i + 1 actions in
    # descending order: what position i + 1 is outranked by, unless it ties
    # position i.
    prefix = one_hot[desc.T]
    for previous, current in zip(prefix, prefix[1:]):
        current |= previous
    above = prefix[:-1]
    flat = (desc + np.arange(0, n * k, k)[:, None]).T
    ranked = rows.reshape(-1)[flat]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        # a tied position gets the set of its run's first position
        above[tied] = 0
        np.maximum.accumulate(above, axis=0, out=above)
    out = np.empty((n * k, one_hot.shape[1]), dtype=one_hot.dtype)
    out[flat[0]] = 0
    out[flat[1:]] = above
    return out.reshape(*lead, k, one_hot.shape[1])


def _dominated(
    ranks: np.ndarray, alive_own: np.ndarray, alive_opp: np.ndarray, beaten: np.ndarray
) -> np.ndarray:
    """ranks: (B, P, K) rank (or payoff) of own action k against opponent
    profile p, or any array of that shape (only its shape is read, here and
    by the benchmark's trace wrapper); ``beaten`` is its
    :func:`outrank_bits`, built once per batch by the caller.

    Own action x is dominated iff some alive y beats it at every alive p:
    the AND of x's bitsets over the alive p, masked by the alive own
    actions, is nonzero.
    """
    # AND over the alive p (dead ones count as all ones) by pairwise halving:
    # each step is one elementwise op over whole rows, where
    # np.bitwise_and.reduce over axis 1 crawls on blocks of a few bytes.
    # Every step writes only into its own result, never into ``beaten``.
    if alive_opp.all():
        acc = beaten
    else:
        acc = np.where(alive_opp[:, :, None, None], beaten, np.iinfo(beaten.dtype).max)
    while acc.shape[1] > 1:
        half = acc.shape[1] // 2
        folded = acc[:, :half] & acc[:, half : 2 * half]
        if acc.shape[1] % 2:
            folded[:, 0] &= acc[:, -1]
        acc = folded
    live = alive_own @ _one_hot_words(ranks.shape[-1])  # (B, W)
    return (acc[:, 0] & live[:, None, :]).any(axis=-1) & alive_own


def _profiles_alive(alive: list[np.ndarray], player: int) -> np.ndarray:
    """(B, P) mask of the opponent profiles of ``player`` whose actions are
    all alive, profiles in lexicographic order (first player most
    significant)."""
    out = np.ones((alive[0].shape[0], 1), dtype=bool)
    for j, mask in enumerate(alive):
        if j != player:
            out = (out[:, :, None] & mask[:, None, :]).reshape(out.shape[0], -1)
    return out


def _eliminate(
    stacks: list[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Simultaneous-deletion elimination over a batch of N-player games.

    ``stacks[k]`` (B, P_k, m_k) orders player k's actions against each
    opponent profile (payoffs or ranks; any strides). The bitsets are built
    once; each round only the unfinished games (``idx``) are decided, read
    in place while they are the whole batch and gathered once some finish.
    Returns the surviving masks, the first-round undominated counts and the
    per-game round counts.
    """
    batch = stacks[0].shape[0]
    beaten = [outrank_bits(s) for s in stacks]
    alive = [np.ones((batch, s.shape[2]), dtype=bool) for s in stacks]
    rounds = np.zeros(batch, dtype=np.int64)
    undominated = None
    idx = np.arange(batch)
    while idx.size:
        whole = idx.size == batch
        live = alive if whole else [a[idx] for a in alive]
        # A word plane of the bitsets stands in for the stack, so no float
        # stack is gathered per round.
        bits = beaten if whole else [b[idx] for b in beaten]
        doms = [
            _dominated(w[..., 0], live[k], _profiles_alive(live, k), w)
            for k, w in enumerate(bits)
        ]
        if undominated is None:
            undominated = [d.shape[1] - d.sum(axis=1) for d in doms]
        progressed = np.logical_or.reduce([d.any(axis=1) for d in doms])
        rounds[idx] += progressed
        for a, now, dom in zip(alive, live, doms):
            a[idx] = now & ~dom
        idx = idx[progressed]
    return alive, undominated, rounds


def eliminate_batch(u_row: np.ndarray, u_col: np.ndarray) -> dict[str, np.ndarray]:
    """Simultaneous-deletion iterated elimination over a batch of (B, m, n)
    payoffs or ranks (only their order along each player's own axis counts).

    Returns undominated counts (first round), surviving counts, iteration
    counts and solvability flags.
    """
    (alive_r, alive_c), (u_r, u_c), rounds = _eliminate([u_row.transpose(0, 2, 1), u_col])
    s_r = alive_r.sum(axis=1)
    s_c = alive_c.sum(axis=1)
    return {
        "u_r": u_r,
        "u_c": u_c,
        "s_r": s_r,
        "s_c": s_c,
        "iterations": rounds,
        "solvable": (s_r == 1) & (s_c == 1),
    }


def pure_nash_counts(u_row: np.ndarray, u_col: np.ndarray) -> np.ndarray:
    """Pure-Nash cell counts of a batch of (B, m, n) payoffs or ranks: the
    cells where each player's action is a best response to the other's."""
    return (
        (u_row == u_row.max(axis=1, keepdims=True)) & (u_col == u_col.max(axis=2, keepdims=True))
    ).sum(axis=(1, 2))


def point_rationalizable_counts(
    u_row: np.ndarray, u_col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surviving set sizes of iterated never-best-response deletion, from
    (B, m, n) payoffs or ranks."""
    batch, m, n = u_row.shape
    alive_r = np.ones((batch, m), dtype=bool)
    alive_c = np.ones((batch, n), dtype=bool)
    actions_r = np.arange(m)
    actions_c = np.arange(n)
    idx = np.arange(batch)
    # Round 1: every action is alive, so the best responses are read off
    # the inputs themselves.
    ar, ac = alive_r, alive_c
    br_r = u_row.argmax(axis=1)  # best response row per column, (b, n)
    br_c = u_col.argmax(axis=2)  # best response column per row, (b, m)
    while True:
        keep_r = ((br_r[:, None, :] == actions_r[None, :, None]) & ac[:, None, :]).any(axis=2)
        keep_c = ((br_c[:, :, None] == actions_c[None, None, :]) & ar[:, :, None]).any(axis=1)
        keep_r &= ar
        keep_c &= ac
        changed = (keep_r != ar).any(axis=1) | (keep_c != ac).any(axis=1)
        alive_r[idx] = keep_r
        alive_c[idx] = keep_c
        idx = idx[changed]
        if not idx.size:
            return alive_r.sum(axis=1), alive_c.sum(axis=1)
        ar = alive_r[idx]
        ac = alive_c[idx]
        # Among the alive actions only (dead ones count as -inf, below
        # every input).
        br_r = np.where(ar[:, :, None], u_row[idx], -np.inf).argmax(axis=1)
        br_c = np.where(ac[:, None, :], u_col[idx], -np.inf).argmax(axis=2)


def records_law(n: int) -> np.ndarray:
    """Float law p[k] (k = 0, 1, ...) of the number of undominated columns of
    a random 2 x n game, s(n, k) / n!.

    Fix Column's first ranking to the identity. A column is then undominated
    iff its value in the second ranking is a strict suffix maximum (the test
    suite checks this against the generic engine state by state), so that
    number is the count of right-to-left records of a uniform permutation,
    a sum of independent Bernoulli(1/i), i = 1..n; the Poisson-binomial
    recurrence builds its law in O(n * support). Only a tail that underflows
    to exactly 0.0 is dropped, which changes no later entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    law = np.zeros(n + 2)
    law[0] = 1.0
    top = 0  # law[top + 1:] is exactly zero
    for i in range(1, n + 1):
        record = law[: top + 1] / i
        law[: top + 1] *= (i - 1) / i
        law[1 : top + 2] += record
        top += 1
        while law[top] == 0.0:
            top -= 1
    return law[: top + 1].copy()


def survivors_2xn_batch(rng: np.random.Generator, batch: int, law: np.ndarray) -> np.ndarray:
    """Surviving column counts of ``batch`` random 2 x n games, O(log n) each.

    ``law`` is ``records_law(n)``. One uniform draws the undominated count k
    from it. Given k, which row wins each undominated column is a fair coin
    independent of k, so the game is solvable (one column survives) with
    probability 2^(1-k), and otherwise all k survive; a second uniform
    decides that.
    """
    # The float sum of the law may stop short of 1 or overshoot it early:
    # clipping and pinning the end keeps every uniform inside the support.
    cdf = np.minimum(np.cumsum(law), 1.0)
    cdf[-1] = 1.0
    u = rng.random((2, batch))
    k = np.searchsorted(cdf, u[0], side="right")
    solvable = u[1] < np.ldexp(1.0, 1 - k)
    return np.where(solvable, 1, k)


def sample_tensor_payoff_batch(
    rng: np.random.Generator, batch: int, dims: tuple[int, ...]
) -> list[np.ndarray]:
    """Float payoffs per player: (batch, m_k, profiles_k), profiles in
    lexicographic order over the other players (first most significant)."""
    total = math.prod(dims)
    return [rng.random((batch, mk, total // mk)) for mk in dims]


def sample_tensor_rank_batch(
    rng: np.random.Generator, batch: int, dims: tuple[int, ...]
) -> list[np.ndarray]:
    """Rank tensors of the payoffs :func:`sample_tensor_payoff_batch` draws
    from the same ``rng``."""
    return [rank_along(u, 1) for u in sample_tensor_payoff_batch(rng, batch, dims)]


def eliminate_tensor_batch(
    ranks: list[np.ndarray], dims: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Simultaneous-deletion elimination for batches of N-player games, from
    per-player (batch, m_k, profiles_k) payoffs or ranks."""
    alive, undominated, rounds = _eliminate([r.transpose(0, 2, 1) for r in ranks])
    counts = [a.sum(axis=1) for a in alive]
    return {
        "survivors": counts,
        "undominated": undominated,
        "iterations": rounds,
        "solvable": np.logical_and.reduce([c == 1 for c in counts]),
    }
