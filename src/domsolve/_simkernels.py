"""Vectorized batch kernels backing the Monte Carlo harness.

Every batch rule takes N players' payoffs in normal form, one
(batch, m_0, ..., m_{N-1}) array per player, and a bimatrix ``(u_row,
u_col)`` is its N = 2 call. Only this module knows how a rule reads that
layout: :func:`_stacks` views player k's payoffs as a (batch, m_k, P_k)
stack against the opponent profiles (lexicographic, first player most
significant), and :func:`normal_form` views such stacks, as the N-player
sampler draws them, in normal form. Kernels read only the order of each
player's values along the player's own axis, so they take float draws or
their ranks alike. The batched eliminator mirrors the simultaneous-deletion
semantics of :mod:`domsolve.elimination` exactly (the test suite
cross-checks the two game by game). The 2 x n CLT sampler draws no game at
all: it samples the surviving column count from its exact law
(:func:`records_law`), derived from the order statistics of a game and
built as a product of blocks of ``RECORDS_BLOCK`` factors (about 5 ms at
n = 10^4).

Pure dominance is decided on bitsets. :func:`outrank_bits` turns a player's
(batch, profiles, K) stack into the set of own actions ranked strictly above
each action at each profile, once per batch: by K comparisons when the set
fits a 16-bit word, and otherwise from one sort and a prefix OR. The sets
are packed into the smallest unsigned word holding K bits, or into
ceil(K / 64) uint64 words, which the sort build gathers and scatters as one
opaque item per set. A round of :func:`_dominated` is then an AND over
the alive profiles, an AND with the alive own actions, and a nonzero test.
One loop, :func:`_fixpoint`, runs every batch elimination, and its rule
decides what a round deletes: pure dominance (:func:`_eliminate`),
never-best-response deletion (:func:`point_rationalizable_counts`) or mixed
dominance (:func:`domsolve.rationalizability.rationalizable_batch`). While
every game is unfinished a rule reads its arrays in place; later rounds
gather the unfinished games only. Pure-Nash cells are counted apart
(:func:`pure_nash_counts`), for the one metric that reads them, and
:func:`batch_bytes` estimates a batch's peak memory for the capacity guard
of :mod:`domsolve.montecarlo`. :func:`run_work_items` is the one thread
pool rule, for Monte Carlo work items and enumeration chunks alike.

Float payoff draws can tie with probability ~2**-53 per pair, and the
class sampler keeps ties (its one tie policy). A tie fed to the kernels
stays a tie: neither action outranks the other in dominance, and among tied
best responses the lowest action counts (ranking the draw would instead
break the tie by index).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .games import GameClass, rank_along, sample_class_batch, sample_tensor_batch


def run_work_items(worker: Callable, items: Sequence[tuple], threads: int) -> list:
    """``worker(*item)`` for every item, in item order. Two or more items
    run on min(threads, items, CPUs) threads, the calling thread and a pool
    of the others, each taking the next item not yet taken; callers merge
    the results so that they do not depend on the count."""
    workers = min(threads, len(items), os.cpu_count() or 1)
    results = [None] * len(items)
    lock = threading.Lock()
    order = iter(range(len(items)))

    def drain() -> None:
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            results[i] = worker(*items[i])

    if workers <= 1:
        drain()
        return results
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        others = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for other in others:
            other.result()
    return results


def sample_rank_batch(
    rng: np.random.Generator, batch: int, m: int, n: int, game_class: GameClass
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column rank tensors of the uniform games
    :func:`domsolve.games.sample_class_batch` draws from the same ``rng``."""
    u_row, u_col = sample_class_batch(rng, batch, m, n, game_class)
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
# stack beat one sort up to here (medians at B * P * K = 2^20 cells, K = 7:
# 16 vs 34 ms, K = 16: 31 vs 51 ms). At K = 17 the word grows to 32 bits and
# the two builds run even (minima 38.8 vs 38.1 ms); beyond, the sort wins
# (K = 24: 62 vs 45 ms, K = 32: 65 vs 47 ms).
COMPARE_MAX_K = 16


def outrank_bits(values: np.ndarray) -> np.ndarray:
    """Bitsets (B, P, K, W) of a (B, P, K) rank or payoff stack: bit y of
    entry [b, p, x] is set iff values[b, p, y] > values[b, p, x], so ties do
    not outrank.

    Two builds, chosen by K. Up to ``COMPARE_MAX_K`` actions the set fits one
    uint8 or uint16 word and is built by comparison, one vectorised step per
    y. Above it, sorted in descending order, the actions above x are the
    ones before its tie run, so one prefix OR of one-hot words yields every
    set in O(B P K W) after one sort. That build views each set's W words as
    one item, so the gather of the one-hot sets and the scatter back to
    action order move one item per index: at K = 200 (W = 4) it runs about
    1.5x as fast as gathering and scattering words, at K = 100 about 2x.
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
    dtype, words = one_hot.dtype, one_hot.shape[1]
    item = np.dtype((np.void, dtype.itemsize * words))
    n = rows.shape[0]
    # numpy's vectorised argsort covers 32- and 64-bit keys only
    keys = rows.astype(np.promote_types(rows.dtype, np.int32), copy=False)
    desc = np.ascontiguousarray(keys.argsort(axis=1)[:, ::-1].T)
    # Position-major (K, n), so each step of the prefix OR is one contiguous
    # op on the word view. prefix[i] is the set of the first i + 1 actions in
    # descending order: what position i + 1 is outranked by, unless it ties
    # position i.
    prefix = one_hot.view(item)[:, 0].take(desc)
    sets = prefix.view(dtype).reshape(k, n, words)
    for previous, current in zip(sets, sets[1:]):
        current |= previous
    above = sets[:-1]
    flat = desc + np.arange(0, n * k, k)
    ranked = rows.reshape(-1)[flat]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        # a tied position gets the set of its run's first position
        above[tied] = 0
        np.maximum.accumulate(above, axis=0, out=above)
    out = np.empty(n * k, dtype=item)
    out[flat[0]] = np.zeros((), dtype=item)
    out[flat[1:]] = prefix[:-1]
    return out.view(dtype).reshape(*lead, k, words)


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


def _stacks(payoffs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Player k's (B, m_k, P_k) view of each normal-form payoff array (for
    a bimatrix, ``u_row`` and Column's transpose)."""
    return [
        np.moveaxis(u, 1 + k, 1).reshape(len(u), u.shape[1 + k], math.prod(u.shape[1:]) // u.shape[1 + k])
        for k, u in enumerate(payoffs)
    ]


def normal_form(stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Normal-form views of per-player (B, m_k, P_k) stacks, as
    :func:`domsolve.games.sample_tensor_batch` draws them."""
    dims = [s.shape[1] for s in stacks]
    return [
        np.moveaxis(s.reshape(len(s), dims[k], *dims[:k], *dims[k + 1 :]), 1, 1 + k)
        for k, s in enumerate(stacks)
    ]


def _profiles_alive(alive: list[np.ndarray], player: int) -> np.ndarray:
    """(B, P) mask of the opponent profiles of ``player`` whose actions are
    all alive, profiles in lexicographic order (first player most
    significant); with two players, the other player's own mask."""
    out, *rest = [a for j, a in enumerate(alive) if j != player]
    for mask in rest:
        out = (out[:, :, None] & mask[:, None, :]).reshape(out.shape[0], -1)
    return out


def _fixpoint(batch: int, sizes: Sequence[int], removed) -> tuple[list[np.ndarray], np.ndarray]:
    """Simultaneous-deletion fixpoint over a batch of games whose players
    have ``sizes`` actions, all alive at first.

    ``removed(sel, live)`` returns each player's (B', m_k) mask of the
    actions a round deletes in the games ``sel``, whose alive masks are
    ``live``. ``sel`` is ``slice(None)`` while every game is unfinished, so
    a rule reads its arrays in place, and the unfinished games' indices
    after. Returns the surviving masks and each game's count of rounds that
    deleted something.
    """
    alive = [np.ones((batch, k), dtype=bool) for k in sizes]
    rounds = np.zeros(batch, dtype=np.int64)
    idx = np.arange(batch)
    while idx.size:
        sel = slice(None) if idx.size == batch else idx
        live = [a[sel] for a in alive]
        gone = removed(sel, live)
        progressed = np.logical_or.reduce([g.any(axis=1) for g in gone])
        rounds[sel] += progressed
        for a, now, g in zip(alive, live, gone):
            a[sel] = now & ~g
        idx = idx[progressed]
    return alive, rounds


def _eliminate(stacks: list[np.ndarray]) -> dict[str, list | np.ndarray]:
    """Iterated strict dominance over a batch of N-player games: the
    :func:`_fixpoint` of the pure-dominance rule.

    ``stacks[k]`` (B, m_k, P_k) orders player k's actions against each
    opponent profile (payoffs or ranks; any strides). The bitsets are built
    once per batch. Returns each player's surviving masks (``alive``),
    undominated counts (first round) and surviving counts, the per-game round
    counts and solvability flags.
    """
    beaten = [outrank_bits(s.transpose(0, 2, 1)) for s in stacks]
    first = []

    def removed(sel, live):
        # A word plane of the bitsets stands in for the stack, so no float
        # stack is gathered per round.
        doms = [
            _dominated(w[..., 0], live[k], _profiles_alive(live, k), w)
            for k, w in enumerate(b[sel] for b in beaten)
        ]
        if not first:
            first.extend(d.shape[1] - d.sum(axis=1) for d in doms)
        return doms

    alive, rounds = _fixpoint(stacks[0].shape[0], [s.shape[1] for s in stacks], removed)
    survivors = [a.sum(axis=1) for a in alive]
    solvable = np.logical_and.reduce([c == 1 for c in survivors])
    return dict(alive=alive, survivors=survivors, undominated=first, iterations=rounds, solvable=solvable)


def eliminate_batch(*payoffs: np.ndarray) -> dict[str, list | np.ndarray]:
    """:func:`_eliminate` from N players' normal-form payoffs or ranks; a
    bimatrix is ``(u_row, u_col)``. Players 0's and 1's counts are also
    under ``u_r``, ``s_r`` and ``u_c``, ``s_c`` (Row's and Column's)."""
    out = _eliminate(_stacks(payoffs))
    (u_r, u_c, *_), (s_r, s_c, *_) = out["undominated"], out["survivors"]
    return out | {"u_r": u_r, "u_c": u_c, "s_r": s_r, "s_c": s_c}


def pure_nash_counts(*payoffs: np.ndarray) -> np.ndarray:
    """Pure-Nash cell counts of N-player normal-form payoffs or ranks: the
    cells where each player's action is a best response to the others'."""
    cells = np.logical_and.reduce([u == u.max(axis=1 + k, keepdims=True) for k, u in enumerate(payoffs)])
    return cells.sum(axis=tuple(range(1, cells.ndim)))


def never_best_responses(stack: np.ndarray, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """(B, K) mask of the alive own actions (``own``) that are a best
    response to no alive opponent profile (``opp``, (B, P)). ``stack``
    (B, K, P) orders own action k against opponent profile p; among tied
    best responses the lowest action counts."""
    batch, k, _ = stack.shape
    if not own.all():
        # dead actions count as -inf, below every input
        stack = np.where(own[:, :, None], stack, -np.inf)
    # Each alive p marks its best response, each dead one the spare slot k:
    # a scatter beats any .any() over a (B, K, P) comparison.
    best = np.where(opp, stack.argmax(axis=1), k)
    hit = np.zeros((batch, k + 1), dtype=bool)
    hit[np.arange(batch)[:, None], best] = True
    return own & ~hit[:, :k]


def point_rationalizable_counts(*payoffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each player's surviving set sizes under iterated never-best-response
    deletion, from N players' normal-form payoffs or ranks: the
    :func:`_fixpoint` of :func:`never_best_responses`."""
    stacks = _stacks(payoffs)

    def removed(sel, live):
        return [never_best_responses(s[sel], live[k], _profiles_alive(live, k)) for k, s in enumerate(stacks)]

    alive, _ = _fixpoint(payoffs[0].shape[0], payoffs[0].shape[1:], removed)
    return tuple(a.sum(axis=1) for a in alive)


# Factors per block of records_law: one vectorised recurrence step per factor
# builds every block's law at once.
RECORDS_BLOCK = 64


def _trim(law: np.ndarray) -> np.ndarray:
    """``law`` without its tail of exact zeros."""
    top = law.size - 1
    while law[top] == 0.0:
        top -= 1
    return law[: top + 1]


def records_law(n: int) -> np.ndarray:
    """Float law p[k] (k = 0, 1, ...) of the number of undominated columns of
    a random 2 x n game, s(n, k) / n!.

    Fix Column's first ranking to the identity. A column is then undominated
    iff its value in the second ranking is a strict suffix maximum (the test
    suite checks this against the generic engine state by state), so that
    number is the count of right-to-left records of a uniform permutation,
    a sum of independent Bernoulli(1/i), i = 1..n: its law is the product of
    the polynomials ((i - 1) + x) / i. The Poisson-binomial recurrence builds
    the product over each block of ``RECORDS_BLOCK`` consecutive factors, all
    blocks at once, and a tree of pairwise ``np.convolve`` (a direct sum of
    nonnegative terms, so small entries keep their relative accuracy)
    multiplies the blocks. Only tails that underflow to exactly 0.0 are
    dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = -(-n // RECORDS_BLOCK)
    i = np.arange(1.0, blocks * RECORDS_BLOCK + 1).reshape(blocks, RECORDS_BLOCK)
    past = i > n  # factors past n are the constant 1
    record = np.where(past, 0.0, 1 / i)
    stay = np.where(past, 1.0, (i - 1) / i)
    law = np.zeros((blocks, RECORDS_BLOCK + 1))
    law[:, 0] = 1.0
    for t in range(RECORDS_BLOCK):
        head = law[:, : t + 1]
        new = head * record[:, t : t + 1]
        head *= stay[:, t : t + 1]
        law[:, 1 : t + 2] += new
    laws = list(law)
    while len(laws) > 1:
        paired = [_trim(np.convolve(a, b)) for a, b in zip(laws[::2], laws[1::2])]
        laws = paired + laws[2 * len(paired) :]
    return _trim(laws[0])


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


def sample_tensor_rank_batch(
    rng: np.random.Generator, batch: int, dims: tuple[int, ...]
) -> list[np.ndarray]:
    """Rank tensors of the payoffs :func:`domsolve.games.sample_tensor_batch`
    draws from the same ``rng``."""
    return [rank_along(u, 1) for u in sample_tensor_batch(rng, batch, dims)]


def eliminate_tensor_batch(ranks: list[np.ndarray], dims: tuple[int, ...]) -> dict[str, list | np.ndarray]:
    """:func:`_eliminate` for batches of N-player games, from per-player
    (batch, m_k, profiles_k) payoffs or ranks."""
    return _eliminate(ranks)
