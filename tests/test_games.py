import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from domsolve import _simkernels as kernels, games
from domsolve.games import (
    CardinalBimatrix,
    GameClass,
    OrdinalBimatrix,
    OrdinalTensorGame,
    Seed,
    apply_crra,
    game_from_json_dict,
    opponent_profile_count,
    ordinalize,
    rank_along,
    sample_baseline,
    sample_cardinal,
    sample_class,
    sample_class_batch,
    sample_nondecreasing_br,
    sample_nplayer,
    sample_tensor_batch,
)


def assert_valid_ordinal(g: OrdinalBimatrix):
    m, n = g.m, g.n
    for j in range(n):
        assert sorted(g.row_ranks[i][j] for i in range(m)) == list(range(1, m + 1))
    for i in range(m):
        assert sorted(g.col_ranks[i]) == list(range(1, n + 1))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_baseline_invariants(m, n, master):
    g = sample_baseline(m, n, Seed(master))
    assert_valid_ordinal(g)


def test_baseline_determinism():
    a = sample_baseline(4, 5, Seed(123, 9))
    b = sample_baseline(4, 5, Seed(123, 9))
    assert a == b
    assert a != sample_baseline(4, 5, Seed(123, 10))


def test_baseline_1x1():
    g = sample_baseline(1, 1, Seed(0))
    assert g.row_ranks == ((1,),) and g.col_ranks == ((1,),)


def test_baseline_rejects_zero_dimension():
    with pytest.raises(ValueError):
        sample_baseline(0, 3, Seed(0))
    with pytest.raises(ValueError):
        sample_baseline(3, 0, Seed(0))


def test_baseline_col_rank_rows_uniform():
    # Column's rankings in a 2x3 game are uniform over the 6 permutations.
    draws = 20_000
    counts = {}
    for i in range(draws):
        g = sample_baseline(2, 3, Seed(1000, i))
        counts[g.col_ranks[0]] = counts.get(g.col_ranks[0], 0) + 1
    assert len(counts) == 6
    se = math.sqrt((1 / 6) * (5 / 6) / draws)
    assert abs(counts[(1, 2, 3)] / draws - 1 / 6) < 3 * se
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.01


def test_ordinal_validation():
    with pytest.raises(ValueError):
        OrdinalBimatrix(((1, 2), (1, 2)), ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        OrdinalBimatrix(((1, 2), (2, 1)), ((1, 1), (1, 2)))


def test_cardinal_support_and_validation():
    g = sample_cardinal(2, 2, "uniform", Seed(5))
    assert all(0 < x < 1 for row in g.u_row for x in row)
    g1 = sample_cardinal(1, 1, "normal", Seed(5))
    assert g1.m == g1.n == 1
    with pytest.raises(ValueError):
        sample_cardinal(2, 2, "pareto", Seed(5))
    with pytest.raises(ValueError):
        CardinalBimatrix([[0.5, 0.1], [0.5, 0.2]], [[0.1, 0.2], [0.3, 0.4]])


def test_ordinalize_examples():
    g = CardinalBimatrix([[0.9, 0.2], [0.1, 0.7]], [[0.2, 0.7], [0.5, 0.3]])
    o = ordinalize(g)
    assert o.row_ranks[0][0] == 2 and o.row_ranks[1][0] == 1
    g2 = CardinalBimatrix(
        [[0.9, 0.2, 0.4], [0.1, 0.7, 0.6]],
        [[0.2, 0.7, 0.5], [0.5, 0.3, 0.9]],
    )
    assert ordinalize(g2).col_ranks[0] == (1, 3, 2)


def test_rank_along_matches_stable_double_argsort():
    # the reference is argsort of a stable argsort: tied entries rank in
    # index order
    rng = np.random.default_rng(12)
    for shape in ((4, 5), (3, 1, 6), (6, 7, 2)):
        for u in (rng.integers(0, 3, shape), rng.random(shape)):
            for axis in range(len(shape)):
                want = u.argsort(axis=axis, kind="stable").argsort(axis=axis, kind="stable") + 1
                assert np.array_equal(rank_along(u, axis), want)


def test_ordinalized_cardinal_ranks_uniform():
    draws = 10_000
    counts = {}
    for i in range(draws):
        o = ordinalize(sample_cardinal(3, 1, "uniform", Seed(77, i)))
        key = tuple(o.row_ranks[i][0] for i in range(3))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert stats.chisquare(list(counts.values())).pvalue > 0.01


def test_crra():
    g = sample_cardinal(3, 3, "uniform", Seed(9))
    assert apply_crra(g, 1.0) == g
    assert ordinalize(apply_crra(g, 0.41)) == ordinalize(g)
    t = apply_crra(CardinalBimatrix([[0.25, 0.5]], [[0.3, 0.6]]), 0.5)
    assert t.u_row[0][0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        apply_crra(CardinalBimatrix([[-1.0, 0.5]], [[0.3, 0.6]]), 0.5)
    with pytest.raises(ValueError):
        apply_crra(g, 1.5)


def test_class_constructions():
    seed = Seed(31)
    pot = sample_class(GameClass.POTENTIAL, 3, 4, seed)
    assert pot.u_row == pot.u_col
    cs = sample_class(GameClass.CONSTANT_SUM, 3, 4, seed)
    for i in range(3):
        for j in range(4):
            assert cs.u_row[i][j] + cs.u_col[i][j] == pytest.approx(1.0)
    sym = sample_class(GameClass.SYMMETRIC, 3, 3, seed)
    for i in range(3):
        for j in range(3):
            assert sym.u_col[i][j] == sym.u_row[j][i]
    with pytest.raises(ValueError):
        sample_class(GameClass.SYMMETRIC, 2, 3, seed)


def test_constant_sum_reversed_ranks():
    g = sample_class(GameClass.CONSTANT_SUM, 3, 4, Seed(4))
    o = ordinalize(g)
    r = ordinalize(CardinalBimatrix(g.u_row, g.u_row))
    for i in range(3):
        assert tuple(5 - x for x in r.col_ranks[i]) == o.col_ranks[i]


def test_strat_complements_best_responses_nondecreasing():
    for master in range(30):
        g = sample_class(GameClass.STRAT_COMPLEMENTS, 4, 5, Seed(master))
        u_row = np.array(g.u_row)
        u_col = np.array(g.u_col)
        b = u_row.argmax(axis=0)
        d = u_col.argmax(axis=1)
        assert (np.diff(b) >= 0).all()
        assert (np.diff(d) >= 0).all()
    g = sample_class(GameClass.STRAT_COMPLEMENTS_SYM, 4, 4, Seed(2))
    assert np.array_equal(np.array(g.u_col), np.array(g.u_row).T)
    assert (np.diff(np.array(g.u_row).argmax(axis=0)) >= 0).all()


@pytest.mark.parametrize("distribution", ["uniform", "normal"])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1), (4, 6), (6, 6)])
def test_class_batch_structure(m, n, distribution):
    def batch(game_class):
        return sample_class_batch(Seed(88, m * 10 + n).generator(), 300, m, n, game_class, distribution)

    u_row, u_col = batch(GameClass.STRAT_COMPLEMENTS)
    assert (np.diff(u_row.argmax(axis=1), axis=1) >= 0).all()
    assert (np.diff(u_col.argmax(axis=2), axis=1) >= 0).all()
    u_row, u_col = batch(GameClass.CONSTANT_SUM)
    assert np.array_equal(u_col, 1.0 - u_row)
    if distribution == "uniform":
        assert (u_row + u_col == 1.0).all()  # 1 - u is exact for 53-bit uniforms
    u_row, u_col = batch(GameClass.POTENTIAL)
    assert np.array_equal(u_row, u_col)
    if m == n:
        for game_class in (GameClass.SYMMETRIC, GameClass.STRAT_COMPLEMENTS_SYM):
            u_row, u_col = batch(game_class)
            assert np.array_equal(u_col, u_row.transpose(0, 2, 1))
        assert (np.diff(u_row.argmax(axis=1), axis=1) >= 0).all()
    u_row, u_col = batch(GameClass.BASELINE)
    assert (u_row >= 0).all() if distribution == "uniform" else (u_row < 0).any()
    assert not np.array_equal(u_row, u_col)


def test_class_batch_validation():
    rng = Seed(0).generator()
    for args in (
        (0, 3, GameClass.BASELINE),
        (2, 3, GameClass.SYMMETRIC),
        (3, 3, GameClass.BASELINE, "pareto"),
        (3, 3, GameClass.BASELINE, "uniform", 1.5),
        (3, 3, GameClass.BASELINE, "normal", 0.5),
    ):
        with pytest.raises(ValueError):
            sample_class_batch(rng, 4, *args)


def test_crra_batch_is_apply_crra():
    u_row, u_col = sample_class_batch(Seed(6).generator(), 50, 3, 4, GameClass.BASELINE, "uniform", 0.41)
    plain_row, plain_col = sample_class_batch(Seed(6).generator(), 50, 3, 4)
    for k in range(50):
        game = apply_crra(CardinalBimatrix(plain_row[k].tolist(), plain_col[k].tolist()), 0.41)
        assert game == CardinalBimatrix(u_row[k].tolist(), u_col[k].tolist())


def test_ordinal_samplers_rank_a_batch_of_one():
    for m, n in ((1, 1), (3, 4), (5, 2)):
        u_row, u_col = sample_class_batch(Seed(21, m).generator(), 1, m, n)
        want = OrdinalBimatrix(rank_along(u_row[0], 0).tolist(), rank_along(u_col[0], 1).tolist())
        assert sample_baseline(m, n, Seed(21, m)) == want
    for dims in ((2, 2, 2), (3, 1, 2), (4, 3)):
        payoffs = sample_tensor_batch(Seed(22).generator(), 1, dims)
        game = sample_nplayer(dims, Seed(22))
        assert all(np.array_equal(r, rank_along(u[0], 0).T) for r, u in zip(game.ranks, payoffs))
    for m, n in ((1, 4), (3, 4), (6, 2)):
        rng = Seed(23).generator()
        assert sample_nondecreasing_br(m, n, Seed(23)) == tuple(games._nondecreasing_maps(rng, 1, m, n)[0].tolist())


def test_nondecreasing_br_sampler():
    assert sample_nondecreasing_br(1, 5, Seed(0)) == (0, 0, 0, 0, 0)
    for master in range(20):
        b = sample_nondecreasing_br(3, 4, Seed(master))
        assert all(x <= y for x, y in zip(b, b[1:]))
        assert all(0 <= x < 3 for x in b)
    # n=1: uniform over the m rows; m=2, n=2: uniform over 3 maps.
    draws = 30_000
    counts = {}
    for i in range(draws):
        b = sample_nondecreasing_br(2, 2, Seed(17, i))
        counts[b] = counts.get(b, 0) + 1
    assert set(counts) == {(0, 0), (0, 1), (1, 1)}
    se = math.sqrt((1 / 3) * (2 / 3) / draws)
    for v in counts.values():
        assert abs(v / draws - 1 / 3) < 3 * se


def test_nplayer_shapes_and_uniformity():
    g = sample_nplayer((2, 2, 2), Seed(3))
    assert g.player_count == 3
    assert all(len(r) == 4 for r in g.ranks)
    g2 = sample_nplayer((2, 1, 1), Seed(3))
    assert len(g2.ranks[0]) == 1 and len(g2.ranks[0][0]) == 2
    with pytest.raises(ValueError):
        sample_nplayer((2,), Seed(0))
    with pytest.raises(ValueError):
        sample_nplayer((2, 0), Seed(0))
    draws = 20_000
    ones = sum(
        sample_nplayer((2, 2, 2), Seed(23, i)).ranks[0][2][0] == 1
        for i in range(draws)
    )
    assert abs(ones / draws - 0.5) < 3 * math.sqrt(0.25 / draws)


def test_opponent_profile_count():
    assert opponent_profile_count((2, 3, 4), 0) == 12
    assert opponent_profile_count((2, 3, 4), 2) == 6


def test_json_round_trips():
    for game in (
        sample_baseline(3, 4, Seed(1)),
        sample_cardinal(2, 3, "normal", Seed(2)),
        sample_nplayer((2, 3, 2), Seed(3)),
    ):
        data = json.loads(json.dumps(game.to_json_dict()))
        assert game_from_json_dict(data) == game


def test_batched_baseline_matches_scalar_distribution():
    # The 2x2 ordinal space has 16 equiprobable outcomes under both the
    # scalar sampler and the batched kernel.
    rng = Seed(55).generator()
    rr, cc = kernels.sample_rank_batch(rng, 40_000, 2, 2, GameClass.BASELINE)
    keys = {}
    for k in range(rr.shape[0]):
        key = (tuple(map(tuple, rr[k])), tuple(map(tuple, cc[k])))
        keys[key] = keys.get(key, 0) + 1
    assert len(keys) == 16
    assert stats.chisquare(list(keys.values())).pvalue > 0.01
