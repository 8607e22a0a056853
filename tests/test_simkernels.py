"""The bitset dominance kernel against brute force and the scalar engine."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from domsolve import _simkernels as kernels
from domsolve import exact, games, montecarlo, rationalizability
from domsolve.elimination import count_pure_nash, iterate_nplayer, metrics, undominated_nplayer
from domsolve.games import GameClass, OrdinalBimatrix, OrdinalTensorGame, Seed, rank_along
from domsolve.montecarlo import MIXED_PI, PI, ExperimentSpec, GameSource


def brute_dominated(values, alive_own, alive_opp):
    """x is dominated iff some alive y > x strictly at every alive p."""
    batch, profiles, k = values.shape
    out = np.zeros((batch, k), dtype=bool)
    for b, x in itertools.product(range(batch), range(k)):
        live = [p for p in range(profiles) if alive_opp[b, p]]
        out[b, x] = alive_own[b, x] and any(
            alive_own[b, y] and all(values[b, p, y] > values[b, p, x] for p in live)
            for y in range(k)
            if y != x
        )
    return out


def random_masks(rng, batch, profiles, k):
    alive_own = rng.random((batch, k)) < 0.7
    alive_opp = rng.random((batch, profiles)) < 0.6
    alive_opp[np.arange(batch), rng.integers(profiles, size=batch)] = True
    return alive_own, alive_opp


def test_dominated_matches_brute_force_with_ties():
    rng = np.random.default_rng(81)
    for _ in range(60):
        batch, profiles, k = (int(v) for v in rng.integers(1, (9, 6, 12)))
        values = rng.integers(0, int(rng.integers(1, 5)), (batch, profiles, k))
        alive_own, alive_opp = random_masks(rng, batch, profiles, k)
        want = brute_dominated(values, alive_own, alive_opp)
        for stack in (values, values.astype(np.int16), values.astype(float)):
            beaten = kernels.outrank_bits(stack)
            assert np.array_equal(kernels._dominated(stack, alive_own, alive_opp, beaten), want)


def test_kernels_run_on_read_only_bitsets(monkeypatch):
    # The round loops read the bitsets in place while every game is
    # unfinished: no kernel may write into them.
    rng = np.random.default_rng(1414)
    u_row, u_col = games.sample_class_batch(rng, 48, 3, 4)
    u_row[:, 1] = u_row[:, 0]  # a row that ties, so some games take rounds
    alive_own, alive_opp = random_masks(rng, 48, 3, 4)

    def outputs():
        pure = kernels._eliminate([u_row, u_col.transpose(0, 2, 1)])
        beaten = kernels.outrank_bits(u_col)
        dominated = [
            kernels._dominated(u_col, alive_own, opp, beaten) for opp in (alive_opp, np.ones_like(alive_opp))
        ]
        mixed = rationalizability.rationalizable_batch(u_row, u_col)
        pure_out = [*pure["alive"], *pure["undominated"], pure["iterations"]]
        return [*pure_out, *dominated, *mixed["rationalizable"], mixed["iterations"]]

    want = outputs()
    build = kernels.outrank_bits

    def read_only(values):
        bits = build(values)
        bits.flags.writeable = False
        return bits

    monkeypatch.setattr(kernels, "outrank_bits", read_only)
    got = outputs()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


WORDS = {
    1: (np.uint8, 1),
    8: (np.uint8, 1),
    9: (np.uint16, 1),
    15: (np.uint16, 1),
    16: (np.uint16, 1),
    17: (np.uint32, 1),
    63: (np.uint64, 1),
    64: (np.uint64, 1),
    65: (np.uint64, 2),
    130: (np.uint64, 3),
    200: (np.uint64, 4),
    256: (np.uint64, 4),
    257: (np.uint64, 5),
}


@pytest.mark.parametrize("k", sorted(WORDS))
def test_word_boundaries(k):
    # K = 15, 16 and 17 straddle COMPARE_MAX_K, so both builds are checked;
    # above it each set is moved as one W-word item
    rng = np.random.default_rng(k)
    batch, profiles = 5, 4
    ints = rng.integers(0, 3, (batch, profiles, k))  # ties
    ints[0] = rng.permutation(k) + 1  # and one game of ranks
    floats = rng.random((batch, profiles, k))
    floats[:, 1:, k // 2] = floats[:, 1:, 0]  # and float ties
    alive_own, alive_opp = random_masks(rng, batch, profiles, k)
    alive_own[1] = True
    alive_opp[1] = True
    dtype, words = WORDS[k]
    bits = 8 * np.dtype(dtype).itemsize
    y = np.arange(k)

    table = kernels._one_hot_words(k).copy()
    for values in (ints, floats):
        beaten = kernels.outrank_bits(values)
        assert beaten.dtype == dtype and beaten.shape == (batch, profiles, k, words)
        cached = kernels._one_hot_words(k)
        assert np.array_equal(cached, table) and not cached.flags.writeable
        members = (beaten[..., y // bits] >> (y % bits).astype(dtype)) & 1  # (B, P, x, y)
        assert np.array_equal(members.astype(bool), values[:, :, None, :] > values[:, :, :, None])

        want = brute_dominated(values, alive_own, alive_opp)
        assert np.array_equal(kernels._dominated(values, alive_own, alive_opp, beaten), want)


def _bimatrix_matches(rr, cc):
    out = kernels.eliminate_batch(rr, cc)
    nash = kernels.pure_nash_counts(rr, cc)
    for g in range(rr.shape[0]):
        game = OrdinalBimatrix(rr[g].tolist(), cc[g].tolist())
        want = metrics(game)
        got = {key: int(out[key][g]) for key in ("u_r", "u_c", "s_r", "s_c", "iterations")}
        assert got == {key: getattr(want, key) for key in got}
        assert bool(out["solvable"][g]) == want.solvable
        assert nash[g] == count_pure_nash(game)


def _tensor_matches(ranks, dims):
    out = kernels.eliminate_tensor_batch(ranks, dims)
    for g in range(ranks[0].shape[0]):
        game = OrdinalTensorGame(dims, [r[g].T.tolist() for r in ranks])
        trace = iterate_nplayer(game)
        assert bool(out["solvable"][g]) == trace.solvable
        assert out["iterations"][g] == trace.iterations
        for player in range(len(dims)):
            assert out["survivors"][player][g] == len(trace.surviving[player])
            assert out["undominated"][player][g] == len(undominated_nplayer(game, player))


def _every_ordinal_3x3():
    """All 6^3 * 6^3 = 46656 equiprobable ordinal 3 x 3 games: each column
    of the row ranks and each row of the column ranks is a permutation."""
    perms = np.array(list(itertools.permutations((1, 2, 3))), dtype=np.int16)
    per_player = np.array([perms[list(p)] for p in itertools.product(range(6), repeat=3)])
    return np.repeat(per_player.transpose(0, 2, 1), 216, axis=0), np.tile(per_player, (216, 1, 1))


def test_every_ordinal_3x3_game():
    rr, cc = _every_ordinal_3x3()
    assert len({(r.tobytes(), c.tobytes()) for r, c in zip(rr, cc)}) == 46656
    _bimatrix_matches(rr, cc)
    out = kernels.eliminate_batch(rr, cc)
    assert Fraction(int(out["solvable"].sum()), 46656) == Fraction(7, 16)
    assert Fraction(int(out["u_c"].sum()), 46656) == exact.mean_undominated(3, 3)
    assert Fraction(int(out["u_r"].sum()), 46656) == exact.mean_undominated(3, 3)
    # Ranks read as payoffs: a never-best-response rank vector is matched by
    # a 50/50 mixture but never beaten, so every LP check sits at value 0,
    # the tolerance decides, and the mixed survivors are the pure ones.
    mixed = rationalizability.rationalizable_batch(rr.astype(float), cc.astype(float))
    for got, want in zip(mixed["rationalizable"], out["alive"]):
        assert np.array_equal(got, want)
    assert np.array_equal(mixed["iterations"], out["iterations"])
    assert (mixed["lp_checks"], mixed["lp_fallbacks"]) == (29808, 0)


def test_every_ordinal_3x3_gap_game_is_solved_exactly(monkeypatch):
    # With no float pivots allowed every LP check goes to the exact
    # fallback, which must put both certificates at the value 0 exactly.
    # The 29808 checks hold only 20 distinct gap games, so each distinct
    # one is solved once.
    rr, cc = _every_ordinal_3x3()
    solve, bounds = rationalizability.linprog, []

    def distinct(gaps):
        unique, inverse = np.unique(gaps, axis=0, return_inverse=True)
        sigma, lower, upper = solve(unique)
        bounds.append((lower, upper))
        inverse = inverse.ravel()
        return sigma[inverse], lower[inverse], upper[inverse]

    monkeypatch.setattr(rationalizability, "_PIVOTS_PER_DIMENSION", 0)
    monkeypatch.setattr(rationalizability, "linprog", distinct)
    mixed = rationalizability.rationalizable_batch(rr.astype(float), cc.astype(float))
    assert (mixed["lp_checks"], mixed["lp_fallbacks"]) == (29808, 29808)
    assert all((lower == 0.0).all() and (upper == 0.0).all() for lower, upper in bounds)
    for got, want in zip(mixed["rationalizable"], kernels.eliminate_batch(rr, cc)["alive"]):
        assert np.array_equal(got, want)


SIDES = st.one_of(st.integers(1, 4), st.integers(60, 70))


@given(SIDES, SIDES, st.sampled_from(list(GameClass)), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_engine_property(m, n, game_class, seed):
    if game_class.requires_square:
        n = m = min(m, 8)
    rr, cc = kernels.sample_rank_batch(np.random.default_rng(seed), 6, m, n, game_class)
    _bimatrix_matches(rr, cc)


@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda d: np.prod(d) <= 36),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_tensor_batch_matches_scalar_engine_property(dims, seed):
    dims = tuple(dims)
    ranks = kernels.sample_tensor_rank_batch(np.random.default_rng(seed), 6, dims)
    _tensor_matches(ranks, dims)


@pytest.mark.parametrize("dims", [(1, 66), (66, 1), (2, 65, 1), (1, 3, 2)])
def test_tensor_batch_matches_scalar_engine_wide(dims):
    ranks = kernels.sample_tensor_rank_batch(np.random.default_rng(sum(dims)), 5, dims)
    _tensor_matches(ranks, dims)


def _alive_sets(masks, g):
    return tuple(tuple(np.flatnonzero(a[g]).tolist()) for a in masks)


def _rank_game(stacks, g):
    """Game g of per-player (B, m_k, P_k) payoff stacks, in rank form."""
    dims = tuple(s.shape[1] for s in stacks)
    return OrdinalTensorGame(dims, [rank_along(s[g], 0).T.tolist() for s in stacks])


def test_every_ordinal_2x2x2_game():
    # All 16^3 = 4096 equiprobable ordinal 2x2x2 games: each player orders
    # two actions at each of four opponent profiles. With every m_k <= 2 a
    # mixture of the other actions is pure, so mixed survivors are the pure
    # ones and no check needs an LP.
    orders = np.array(list(itertools.product(((1, 2), (2, 1)), repeat=4)), dtype=np.int16)
    per_player = orders.transpose(0, 2, 1)  # (16, m_k, P_k)
    games_ = np.array(list(itertools.product(range(16), repeat=3)))
    stacks = [per_player[games_[:, k]] for k in range(3)]
    payoffs = kernels.normal_form(stacks)
    out = kernels.eliminate_batch(*payoffs)
    pure = out["alive"]
    mixed = rationalizability.rationalizable_batch(*payoffs)
    point = kernels.point_rationalizable_counts(*payoffs)
    nash = kernels.pure_nash_counts(*payoffs)
    assert mixed["lp_checks"] == 0
    for g in range(4096):
        game = OrdinalTensorGame((2, 2, 2), [s[g].T.tolist() for s in stacks])
        trace = iterate_nplayer(game)
        assert _alive_sets(pure, g) == _alive_sets(mixed["rationalizable"], g) == trace.surviving
        assert out["iterations"][g] == mixed["iterations"][g] == trace.iterations
        sets = rationalizability.point_rationalizable_sets(game)
        assert tuple(int(c[g]) for c in point) == tuple(map(len, sets))
        assert nash[g] == count_pure_nash(game)
    assert Fraction(int(out["solvable"].sum()), 4096) == Fraction(121, 512)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (4, 1, 3, 2), (3, 5)])
def test_normal_form_views_the_draws(dims):
    stacks = games.sample_tensor_batch(np.random.default_rng(len(dims)), 4, dims)
    payoffs = kernels.normal_form(stacks)
    rng = np.random.default_rng(0)
    for k, (s, u, back) in enumerate(zip(stacks, payoffs, kernels._stacks(payoffs))):
        assert u.shape == (4, *dims) and np.shares_memory(u, s)
        assert back.strides == s.strides and np.shares_memory(back, s) and np.array_equal(back, s)
        for _ in range(10):
            cell = tuple(int(rng.integers(d)) for d in dims)
            others = [(a, d) for j, (a, d) in enumerate(zip(cell, dims)) if j != k]
            profile = np.ravel_multi_index([a for a, _ in others], [d for _, d in others])
            assert u[(3, *cell)] == s[3, cell[k], profile]


@pytest.mark.parametrize("m, n", [(3, 4), (4, 3), (1, 4), (4, 1), (5, 5), (3, 10), (2, 2)])
def test_two_player_dims_match_the_bimatrix_path(m, n):
    # A 2-player draw of the tensor sampler, as normal-form views and as
    # contiguous bimatrix stacks: every rule gives the same output.
    stacks = games.sample_tensor_batch(np.random.default_rng([m, n]), 128, (m, n))
    u_row, u_col = stacks[0], np.ascontiguousarray(stacks[1].transpose(0, 2, 1))
    payoffs = kernels.normal_form(stacks)
    for rule in (
        kernels.eliminate_batch,
        kernels.pure_nash_counts,
        kernels.point_rationalizable_counts,
        rationalizability.rationalizable_batch,
    ):
        _same_outputs(rule(*payoffs), rule(u_row, u_col))


DIMS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.lists(st.integers(1, 3), min_size=3, max_size=4).map(tuple).filter(lambda d: np.prod(d) <= 36),
)


@given(DIMS, st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_point_within_mixed_within_pure_survivors(dims, seed):
    rng = np.random.default_rng(seed)
    if len(dims) == 2:
        payoffs = list(games.sample_class_batch(rng, 8, *dims))
    else:
        payoffs = kernels.normal_form(games.sample_tensor_batch(rng, 8, dims))
    stacks = kernels._stacks(payoffs)
    pure = kernels.eliminate_batch(*payoffs)["alive"]
    mixed = rationalizability.rationalizable_batch(*payoffs)["rationalizable"]
    counts = kernels.point_rationalizable_counts(*payoffs)
    nash = kernels.pure_nash_counts(*payoffs)
    for g in range(8):
        game = _rank_game(stacks, g)
        point = rationalizability.point_rationalizable_sets(game)
        assert tuple(int(c[g]) for c in counts) == tuple(map(len, point))
        assert nash[g] == count_pure_nash(game)
        for k in range(len(dims)):
            assert set(point[k]) <= set(_alive_sets(mixed, g)[k]) <= set(_alive_sets(pure, g)[k])


def _same_outputs(got, want):
    """Equal outputs: arrays, or lists, tuples and dicts of them, key by key."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        got, want = [got[k] for k in want], list(want.values())
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_outputs(g, w)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("game_class", list(GameClass))
def test_kernels_agree_on_payoffs_and_ranks(game_class):
    # The batch worker feeds the kernels float draws and the scalar-engine
    # tests feed them ranks: both must give every output key by key.
    if game_class.requires_square:
        shapes = ((1, 1), (5, 5), (17, 17))
    else:
        shapes = ((1, 4), (4, 1), (3, 5), (7, 7), (2, 20), (18, 3))
    for m, n in shapes:
        u_row, u_col = games.sample_class_batch(np.random.default_rng(m * n), 64, m, n, game_class)
        rr, cc = kernels.sample_rank_batch(np.random.default_rng(m * n), 64, m, n, game_class)
        assert np.array_equal(rank_along(u_row, 1), rr) and np.array_equal(rank_along(u_col, 2), cc)
        _same_outputs(kernels.eliminate_batch(u_row, u_col), kernels.eliminate_batch(rr, cc))
        _same_outputs(kernels.pure_nash_counts(u_row, u_col), kernels.pure_nash_counts(rr, cc))
        _same_outputs(
            kernels.point_rationalizable_counts(u_row, u_col),
            kernels.point_rationalizable_counts(rr, cc),
        )


@pytest.mark.parametrize("dims", [(1, 3, 2), (2, 1, 3), (3, 3, 1), (1, 17), (18, 2, 1), (2, 2, 2, 1)])
def test_tensor_kernel_agrees_on_payoffs_and_ranks(dims):
    payoffs = games.sample_tensor_batch(np.random.default_rng(sum(dims)), 64, dims)
    ranks = kernels.sample_tensor_rank_batch(np.random.default_rng(sum(dims)), 64, dims)
    for u, r in zip(payoffs, ranks):
        assert np.array_equal(rank_along(u, 1), r)
    _same_outputs(kernels.eliminate_tensor_batch(payoffs, dims), kernels.eliminate_tensor_batch(ranks, dims))


@pytest.mark.parametrize(
    "m, n, game_class",
    [
        (7, 7, GameClass.BASELINE),
        (2, 20, GameClass.BASELINE),
        (8, 8, GameClass.STRAT_COMPLEMENTS),
        (3, 70, GameClass.BASELINE),
        (2, 400, GameClass.BASELINE),
    ],
)
def test_batch_bytes_bounds_the_measured_peak(m, n, game_class):
    # The estimate must cover what sampling and eliminating one default-size
    # batch allocate, without being loose by more than a small factor.
    spec = ExperimentSpec(PI, GameSource(m=m, n=n, game_class=game_class), 1, Seed(0))
    batch = spec.effective_batch_size()
    tracemalloc.start()
    try:
        rr, cc = kernels.sample_rank_batch(np.random.default_rng(5), batch, m, n, game_class)
        kernels.eliminate_batch(rr, cc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = kernels.batch_bytes(batch, (m, n))
    assert peak <= estimate <= 4 * peak, (peak, estimate)


@pytest.mark.parametrize(
    "metric, source, slack, batches",
    [
        (PI, source, 4, 1)
        for source in (
            GameSource(m=7, n=7),
            GameSource(m=2, n=20),
            GameSource(m=8, n=8, game_class=GameClass.STRAT_COMPLEMENTS),
            GameSource(m=3, n=70),
            GameSource(m=2, n=400),
            GameSource(dims=(3, 3, 3)),
            GameSource(dims=(2, 65, 1)),
        )
    ]
    # The mixed estimate allows a simplex tableau for every own action of
    # every game, which the LP shortcuts mostly avoid.
    + [
        (MIXED_PI, source, 32, 1)
        for source in (
            GameSource(m=3, n=3),
            GameSource(m=10, n=10),
            GameSource(m=2, n=40),
            GameSource(m=40, n=2),
            GameSource(m=4, n=4, game_class=GameClass.STRAT_COMPLEMENTS),
        )
    ]
    # A group of mixed batches also holds each batch's draw until they are
    # concatenated.
    + [(MIXED_PI, GameSource(m=5, n=5), 32, 3)],
    ids=["7x7", "2x20", "8x8-complements", "3x70", "2x400", "3x3x3", "2x65x1"]
    + ["mixed-3x3", "mixed-10x10", "mixed-2x40", "mixed-40x2", "mixed-4x4-complements", "mixed-5x5-group"],
)
def test_batch_bytes_bounds_the_batch_worker_peak(metric, source, slack, batches):
    # The batch worker keeps its float draws alive through elimination (and,
    # for the mixed metrics, through the LP rounds); the estimate must cover
    # that too, within a small factor. A mixed worker may decide a group of
    # consecutive batches.
    spec = ExperimentSpec(metric, source, 1, Seed(0))
    size = batches * spec.effective_batch_size()
    worker = montecarlo._mixed_batch_tallies if metric == MIXED_PI else montecarlo._pure_batch_tallies
    tracemalloc.start()
    try:
        worker(spec, 0, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = size * montecarlo._game_bytes(spec)  # the capacity guard's estimate
    assert peak <= estimate <= slack * peak, (peak, estimate)
