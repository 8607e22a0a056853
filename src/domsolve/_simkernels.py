"""Vectorized batch kernels backing the Monte Carlo harness.

Each kernel processes a whole batch of games as numpy arrays. Rank tensors
are laid out as (batch, m, n) with the same conventions as the scalar game
objects; the batched eliminator mirrors the simultaneous-deletion semantics
of :mod:`domsolve.elimination` exactly (the test suite cross-checks the two
game by game). The 2 x n CLT sampler draws no game at all: it samples the
surviving column count from its exact law (:func:`records_law`), which
:func:`survivors_2xn_from` derives from the order statistics of a game.

Float payoff draws can tie with probability ~2**-53 per pair; ranking by
argsort breaks such a tie deterministically. At the batch sizes used here
the event is negligible and intentionally not resampled.
"""

from __future__ import annotations

import numpy as np

from .games import GameClass


def _rank(u: np.ndarray, axis: int) -> np.ndarray:
    return u.argsort(axis=axis).argsort(axis=axis).astype(np.int16) + 1


def _nondecreasing_maps(rng: np.random.Generator, batch: int, m: int, n: int) -> np.ndarray:
    """(batch, n) array of uniform nondecreasing maps [n] -> [m], 0-based."""
    if m == 1:
        return np.zeros((batch, n), dtype=np.int64)
    u = rng.random((batch, m + n - 1))
    chosen = np.sort(np.argpartition(u, n - 1, axis=1)[:, :n], axis=1)
    return chosen - np.arange(n)


def _forced_argmax_ranks(
    rng: np.random.Generator, batch: int, m: int, n: int, best: np.ndarray, axis: int
) -> np.ndarray:
    """Ranks of an i.i.d. (batch, m, n) draw conditioned on its argmax pattern
    along ``axis`` being ``best`` (realized by forcing the maximum there)."""
    z = rng.random((batch, m, n))
    if axis == 1:
        np.put_along_axis(z, best[:, None, :], 2.0, axis=1)
    else:
        np.put_along_axis(z, best[:, :, None], 2.0, axis=2)
    return _rank(z, axis)


def sample_rank_batch(
    rng: np.random.Generator, batch: int, m: int, n: int, game_class: GameClass
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column rank tensors for a batch of games of the given class.

    Ordinal dominance statistics do not depend on the payoff distribution
    (any continuous i.i.d. draw induces the same uniform rank law), so the
    kernels construct ranks directly.
    """
    if game_class is GameClass.BASELINE:
        row_ranks = _rank(rng.random((batch, m, n)), 1)
        col_ranks = _rank(rng.random((batch, m, n)), 2)
        return row_ranks, col_ranks
    if game_class in (GameClass.SYMMETRIC, GameClass.POTENTIAL, GameClass.CONSTANT_SUM):
        u = rng.random((batch, m, n))
        row_ranks = _rank(u, 1)
        if game_class is GameClass.SYMMETRIC:
            col_ranks = row_ranks.transpose(0, 2, 1).copy()
        elif game_class is GameClass.POTENTIAL:
            col_ranks = _rank(u, 2)
        else:
            col_ranks = n + 1 - _rank(u, 2)
        return row_ranks, col_ranks.astype(np.int16)
    if game_class is GameClass.STRAT_COMPLEMENTS:
        b = _nondecreasing_maps(rng, batch, m, n)
        row_ranks = _forced_argmax_ranks(rng, batch, m, n, b, axis=1)
        d = _nondecreasing_maps(rng, batch, n, m)
        col_ranks = _forced_argmax_ranks(rng, batch, m, n, d, axis=2)
        return row_ranks, col_ranks
    if game_class is GameClass.STRAT_COMPLEMENTS_SYM:
        b = _nondecreasing_maps(rng, batch, m, n)
        z = rng.random((batch, m, n))
        np.put_along_axis(z, b[:, None, :], 2.0, axis=1)
        row_ranks = _rank(z, 1)
        col_ranks = row_ranks.transpose(0, 2, 1).copy()
        return row_ranks, col_ranks
    raise ValueError(f"unsupported game class {game_class}")


def _dominated(ranks: np.ndarray, alive_own: np.ndarray, alive_opp: np.ndarray) -> np.ndarray:
    """ranks: (B, P, K) rank of own action k against opponent action p.

    Own action x is dominated iff some alive y beats it at every alive p.
    """
    gt = ranks[:, :, :, None] > ranks[:, :, None, :]  # (B, P, y, x)
    ok = gt | ~alive_opp[:, :, None, None]
    pair = ok.all(axis=1)
    pair &= alive_own[:, :, None]
    return pair.any(axis=1) & alive_own


def eliminate_batch(row_ranks: np.ndarray, col_ranks: np.ndarray) -> dict[str, np.ndarray]:
    """Simultaneous-deletion iterated elimination over a batch.

    Returns undominated counts (first round), surviving counts, iteration
    counts, solvability flags, and pure-Nash cell counts.
    """
    batch, m, n = row_ranks.shape
    alive_r = np.ones((batch, m), dtype=bool)
    alive_c = np.ones((batch, n), dtype=bool)
    by_col = np.ascontiguousarray(row_ranks.transpose(0, 2, 1))
    rounds = np.zeros(batch, dtype=np.int64)
    nash = ((row_ranks == m) & (col_ranks == n)).sum(axis=(1, 2))
    u_r = u_c = None
    idx = np.arange(batch)
    while idx.size:
        dom_r = _dominated(by_col[idx], alive_r[idx], alive_c[idx])
        dom_c = _dominated(col_ranks[idx], alive_c[idx], alive_r[idx])
        if u_r is None:
            u_r = m - dom_r.sum(axis=1)
            u_c = n - dom_c.sum(axis=1)
        progressed = dom_r.any(axis=1) | dom_c.any(axis=1)
        rounds[idx] += progressed
        alive_r[idx] &= ~dom_r
        alive_c[idx] &= ~dom_c
        idx = idx[progressed]
    s_r = alive_r.sum(axis=1)
    s_c = alive_c.sum(axis=1)
    return {
        "u_r": u_r,
        "u_c": u_c,
        "s_r": s_r,
        "s_c": s_c,
        "iterations": rounds,
        "solvable": (s_r == 1) & (s_c == 1),
        "pure_nash": nash,
    }


def point_rationalizable_counts(
    row_ranks: np.ndarray, col_ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surviving set sizes of iterated never-best-response deletion."""
    batch, m, n = row_ranks.shape
    alive_r = np.ones((batch, m), dtype=bool)
    alive_c = np.ones((batch, n), dtype=bool)
    actions_r = np.arange(m)
    actions_c = np.arange(n)
    idx = np.arange(batch)
    while idx.size:
        rr = row_ranks[idx]
        cc = col_ranks[idx]
        ar = alive_r[idx]
        ac = alive_c[idx]
        # Best response rows per column, among alive rows (dead rows rank 0).
        br_r = np.where(ar[:, :, None], rr, 0).argmax(axis=1)  # (b, n)
        keep_r = ((br_r[:, None, :] == actions_r[None, :, None]) & ac[:, None, :]).any(axis=2)
        br_c = np.where(ac[:, None, :], cc, 0).argmax(axis=2)  # (b, m)
        keep_c = ((br_c[:, :, None] == actions_c[None, None, :]) & ar[:, :, None]).any(axis=1)
        keep_r &= ar
        keep_c &= ac
        changed = (keep_r != ar).any(axis=1) | (keep_c != ac).any(axis=1)
        alive_r[idx] = keep_r
        alive_c[idx] = keep_c
        idx = idx[changed]
    return alive_r.sum(axis=1), alive_c.sum(axis=1)


def survivors_2xn_from(c2: np.ndarray, row0_better: np.ndarray) -> np.ndarray:
    """Surviving column counts of 2 x n games whose first column ranking is
    the identity, second ranking ``c2`` (batch, n), and per-column row order
    ``row0_better`` (batch, n).

    A column is undominated iff its second-ranking value is a strict suffix
    maximum, and the game is solvable iff one row beats the other on every
    undominated column (then exactly one column survives). Verified against
    the generic engine state by state in the test suite.
    """
    suffix_max = np.maximum.accumulate(c2[:, ::-1], axis=1)[:, ::-1]
    undominated = c2 == suffix_max
    k = undominated.sum(axis=1)
    wins = (row0_better & undominated).sum(axis=1)
    solvable = (wins == 0) | (wins == k)
    return np.where(solvable, 1, k)


def records_law(n: int) -> np.ndarray:
    """Float law p[k] (k = 0, 1, ...) of the number of undominated columns of
    a random 2 x n game, s(n, k) / n!.

    By :func:`survivors_2xn_from` that number is the count of right-to-left
    records of a uniform permutation, a sum of independent Bernoulli(1/i),
    i = 1..n; the Poisson-binomial recurrence builds its law in
    O(n * support). Only a tail that underflows to exactly 0.0 is dropped,
    which changes no later entry.
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


def sample_tensor_rank_batch(
    rng: np.random.Generator, batch: int, dims: tuple[int, ...]
) -> list[np.ndarray]:
    """Rank tensors per player: (batch, m_k, profiles_k), profiles in
    lexicographic order over the other players (first most significant)."""
    out = []
    for k, mk in enumerate(dims):
        profiles = 1
        for j, d in enumerate(dims):
            if j != k:
                profiles *= d
        out.append(_rank(rng.random((batch, mk, profiles)), 1))
    return out


def eliminate_tensor_batch(
    ranks: list[np.ndarray], dims: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Simultaneous-deletion elimination for batches of N-player games."""
    players = len(dims)
    batch = ranks[0].shape[0]
    alive = [np.ones((batch, d), dtype=bool) for d in dims]
    by_profile = [np.ascontiguousarray(r.transpose(0, 2, 1)) for r in ranks]

    def profile_alive(player: int) -> np.ndarray:
        out = np.ones((batch, 1), dtype=bool)
        for j in range(players):
            if j == player:
                continue
            out = (out[:, :, None] & alive[j][:, None, :]).reshape(batch, -1)
        return out

    rounds = np.zeros(batch, dtype=np.int64)
    first_round_undominated = []
    progressing = np.ones(batch, dtype=bool)
    first = True
    while progressing.any():
        doms = []
        for k in range(players):
            dom = _dominated(by_profile[k], alive[k], profile_alive(k))
            dom &= progressing[:, None]
            doms.append(dom)
            if first:
                first_round_undominated.append(dims[k] - dom.sum(axis=1))
        first = False
        progressed = np.zeros(batch, dtype=bool)
        for k in range(players):
            progressed |= doms[k].any(axis=1)
        rounds += progressed
        for k in range(players):
            alive[k] &= ~doms[k]
        progressing = progressed
    counts = [a.sum(axis=1) for a in alive]
    solvable = np.ones(batch, dtype=bool)
    for c in counts:
        solvable &= c == 1
    return {
        "survivors": counts,
        "undominated": first_round_undominated,
        "iterations": rounds,
        "solvable": solvable,
    }
