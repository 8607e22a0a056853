import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from domsolve import _simkernels as kernels
from domsolve.elimination import (
    EliminationTrace,
    count_pure_nash,
    iterate,
    iterate_nplayer,
    iterate_random_order,
    metrics,
    solvable_subgame,
    strictly_dominates,
    subgame,
    undominated,
    undominated_nplayer,
)
from domsolve.games import (
    COL,
    ROW,
    GameClass,
    OrdinalBimatrix,
    OrdinalTensorGame,
    Seed,
    apply_crra,
    ordinalize,
    sample_baseline,
    sample_cardinal,
    sample_class,
    sample_nplayer,
)

MATCHING_PENNIES = OrdinalBimatrix(
    ((2, 1), (1, 2)),  # Row prefers to match
    ((1, 2), (2, 1)),  # Column prefers to mismatch
)


def random_games(count, m, n, master):
    rng = Seed(master).generator()
    rr, cc = kernels.sample_rank_batch(rng, count, m, n, GameClass.BASELINE)
    for k in range(count):
        yield OrdinalBimatrix(rr[k].tolist(), cc[k].tolist())


def test_strictly_dominates_examples():
    g = OrdinalBimatrix(((2,), (1,)), ((1,), (1,)))
    assert strictly_dominates(g, ROW, 0, 1)
    assert not strictly_dominates(g, ROW, 1, 0)
    with pytest.raises(ValueError):
        strictly_dominates(g, ROW, 0, 0)
    assert not strictly_dominates(MATCHING_PENNIES, ROW, 0, 1)
    assert not strictly_dominates(MATCHING_PENNIES, ROW, 1, 0)


def test_undominated_basics():
    g = OrdinalBimatrix(((2, 2, 2), (1, 1, 1)), ((1, 2, 3), (3, 1, 2)))
    assert undominated(g, ROW) == (0,)
    assert undominated(OrdinalBimatrix(((1, 1),), ((1, 2),)), ROW) == (0,)
    with pytest.raises(ValueError):
        undominated(g, ROW, own=())
    with pytest.raises(ValueError):
        undominated(g, ROW, own=(0, 0, 1))
    with pytest.raises(ValueError):
        undominated(g, ROW, own=(0, 1.0))
    assert undominated(g, ROW, own=np.arange(2), opp=[np.int16(2)]) == (0,)
    for player in (-1, 2):
        with pytest.raises(ValueError):
            undominated(g, player)


def test_undominated_exhaustive_2x3_matches_stirling_row():
    # Over the 6 second rankings (first fixed to identity) the undominated
    # counts occur (2, 3, 1) times: the Stirling row for n = 3.
    counts = {1: 0, 2: 0, 3: 0}
    rows = ((1, 1, 1), (2, 2, 2))
    for c2 in itertools.permutations((1, 2, 3)):
        g = OrdinalBimatrix(rows, ((1, 2, 3), c2))
        counts[len(undominated(g, COL))] += 1
    assert counts == {1: 2, 2: 3, 3: 1}


def test_iterate_2x1_always_one_round():
    for ranks in (((2,), (1,)), ((1,), (2,))):
        t = iterate(OrdinalBimatrix(ranks, ((1,), (1,))))
        assert t.solvable and t.iterations == 1


def test_iterate_matching_pennies():
    t = iterate(MATCHING_PENNIES)
    assert not t.solvable
    assert t.iterations == 0
    assert t.surviving == ((0, 1), (0, 1))
    assert count_pure_nash(MATCHING_PENNIES) == 0


def test_iterate_2xn_at_most_three_rounds():
    for n in (2, 4, 6):
        for g in random_games(300, 2, n, 70 + n):
            assert iterate(g).iterations <= 3


def test_metrics_examples():
    g = OrdinalBimatrix(((2, 2), (1, 1)), ((2, 1), (2, 1)))
    got = metrics(g)
    assert (got.u_r, got.u_c, got.s_r, got.s_c) == (1, 1, 1, 1)
    assert got.iterations == 1 and got.solvable
    mp = metrics(MATCHING_PENNIES)
    assert (mp.u_r, mp.u_c, mp.s_r, mp.s_c) == (2, 2, 2, 2)
    assert mp.iterations == 0 and not mp.solvable


def test_count_pure_nash_1x1():
    assert count_pure_nash(OrdinalBimatrix(((1,),), ((1,),))) == 1


def test_trace_invariants_and_partition():
    for g in random_games(400, 4, 5, 81):
        t = iterate(g)
        assert t.iterations == len(t.rounds)
        assert all(any(rnd[p] for p in (ROW, COL)) for rnd in t.rounds)
        for player, size in ((ROW, g.m), (COL, g.n)):
            removed = [a for rnd in t.rounds for a in rnd[player]]
            assert len(set(removed)) == len(removed)
            assert set(removed) | set(t.surviving[player]) == set(range(size))
            assert not set(removed) & set(t.surviving[player])
            assert t.surviving[player]
        assert t.solvable == all(len(s) == 1 for s in t.surviving)


def test_survivors_never_exceed_undominated():
    for g in random_games(300, 5, 4, 99):
        got = metrics(g)
        assert got.s_r <= got.u_r and got.s_c <= got.u_c


def test_solvable_implies_pure_nash_at_solution():
    found = 0
    for g in random_games(500, 3, 3, 17):
        t = iterate(g)
        if not t.solvable:
            continue
        found += 1
        i, j = t.surviving[ROW][0], t.surviving[COL][0]
        assert count_pure_nash(g) >= 1
        assert g.row_ranks[i][j] == g.m and g.col_ranks[i][j] == g.n
    assert found > 20


def test_order_independence_sample():
    rng = np.random.default_rng(5)
    for m, n in ((2, 5), (4, 4), (5, 3)):
        for g in random_games(150, m, n, 23 + m * 10 + n):
            expected = iterate(g).surviving
            assert iterate_random_order(g, rng) == expected


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(list(GameClass)), st.integers(0, 2**32 - 1))
@example(1, 6, GameClass.STRAT_COMPLEMENTS, 3)
@example(6, 1, GameClass.BASELINE, 4)
@settings(max_examples=60, deadline=None)
def test_order_independence_property(m, n, game_class, master):
    if game_class.requires_square:
        n = m
    g = ordinalize(sample_class(game_class, m, n, Seed(master)))
    rng = np.random.default_rng(master)
    for _ in range(3):
        assert iterate_random_order(g, rng) == iterate(g).surviving


def test_crra_does_not_change_elimination():
    for master in range(60):
        g = sample_cardinal(4, 4, "uniform", Seed(900, master))
        base = iterate(ordinalize(g))
        for alpha in (0.41, 0.625, 1.0):
            assert iterate(ordinalize(apply_crra(g, alpha))) == base


def test_max_iterations_bound():
    for m, n in ((3, 3), (4, 4), (3, 6), (5, 4)):
        bound = 2 * min(m, n) - (2 if m == n else 1)
        for g in random_games(200, m, n, 37 + m + 10 * n):
            assert iterate(g).iterations <= bound


def test_subgame_reranks():
    g = sample_baseline(4, 4, Seed(2))
    sub = subgame(g, (0, 2, 3), (1, 3))
    assert sub.m == 3 and sub.n == 2
    for j, col in enumerate((1, 3)):
        order_full = sorted((0, 2, 3), key=lambda i: g.row_ranks[i][col])
        order_sub = sorted(range(3), key=lambda i: sub.row_ranks[i][j])
        assert [(0, 2, 3)[i] for i in order_sub] == order_full
    for rows, cols in (((0, -1), (1, 3)), ((0, 0), (1, 3)), ((0, 2), (4,))):
        with pytest.raises(ValueError):
            subgame(g, rows, cols)


def test_solvable_subgames_exist_at_every_size():
    checked = 0
    for g in random_games(400, 4, 5, 55):
        if not iterate(g).solvable:
            continue
        checked += 1
        for m_target in range(1, 5):
            for n_target in range(1, 6):
                rows, cols = solvable_subgame(g, m_target, n_target)
                assert len(rows) == m_target and len(cols) == n_target
                assert iterate(subgame(g, rows, cols)).solvable
        if checked >= 12:
            break
    assert checked >= 12


def test_iterate_nplayer_trivial_and_2xn_equivalence():
    g = OrdinalTensorGame((1, 1, 1), (((1,),), ((1,),), ((1,),)))
    t = iterate_nplayer(g)
    assert t.solvable and t.iterations == 0

    for master in range(40):
        tg = sample_nplayer((2, 4, 1), Seed(300, master))
        # Equivalent bimatrix: player 1's profiles are Column's actions and
        # vice versa (player 3 is a dummy).
        row_ranks = [[tg.ranks[0][j][i] for j in range(4)] for i in range(2)]
        col_ranks = [list(tg.ranks[1][i]) for i in range(2)]
        g2 = OrdinalBimatrix(row_ranks, col_ranks)
        t_tensor = iterate_nplayer(tg)
        t_flat = iterate(g2)
        assert t_tensor.solvable == t_flat.solvable
        assert t_tensor.iterations == t_flat.iterations
        assert t_tensor.surviving[0] == t_flat.surviving[ROW]
        assert t_tensor.surviving[1] == t_flat.surviving[COL]
        assert t_tensor.surviving[2] == (0,)


def test_undominated_nplayer_matches_flat():
    tg = sample_nplayer((2, 2, 2), Seed(8))
    u = undominated_nplayer(tg, 0)
    assert u and set(u) <= {0, 1}
    for player in (-1, 3):
        with pytest.raises(ValueError):
            undominated_nplayer(tg, player)


def test_trace_json_shape():
    t = iterate(OrdinalBimatrix(((2, 2), (1, 1)), ((2, 1), (2, 1))))
    data = t.to_json_dict()
    assert data["solvable"] is True
    assert data["iterations"] == 1
    assert data["rounds"][0] == [
        {"player": 0, "removed": [1]},
        {"player": 1, "removed": [1]},
    ]


def test_batched_engine_matches_scalar_engine():
    rng = Seed(4242).generator()
    for m, n in ((2, 6), (4, 4), (5, 3)):
        rr, cc = kernels.sample_rank_batch(
            rng, 300, m, n, GameClass.BASELINE
        )
        out = kernels.eliminate_batch(rr, cc)
        nash = kernels.pure_nash_counts(rr, cc)
        for k in range(300):
            g = OrdinalBimatrix(rr[k].tolist(), cc[k].tolist())
            got = metrics(g)
            assert out["u_r"][k] == got.u_r and out["u_c"][k] == got.u_c
            assert out["s_r"][k] == got.s_r and out["s_c"][k] == got.s_c
            assert out["iterations"][k] == got.iterations
            assert bool(out["solvable"][k]) == got.solvable
            assert nash[k] == count_pure_nash(g)


def test_batched_tensor_engine_matches_scalar():
    rng = Seed(777).generator()
    dims = (2, 3, 2)
    ranks = kernels.sample_tensor_rank_batch(rng, 120, dims)
    out = kernels.eliminate_tensor_batch(ranks, dims)
    for k in range(120):
        tg = OrdinalTensorGame(
            dims, tuple(tuple(tuple(p) for p in r[k].T.tolist()) for r in ranks)
        )
        t = iterate_nplayer(tg)
        assert bool(out["solvable"][k]) == t.solvable
        assert out["iterations"][k] == t.iterations
        for player in range(3):
            assert out["survivors"][player][k] == len(t.surviving[player])
        assert out["undominated"][0][k] == len(undominated_nplayer(tg, 0))


def survivors_2xn_from(c2: np.ndarray, row0_better: np.ndarray) -> np.ndarray:
    """Surviving column counts of 2 x n games whose first column ranking is
    the identity, second ranking ``c2`` (batch, n), and per-column row order
    ``row0_better`` (batch, n).

    A column is undominated iff its second-ranking value is a strict suffix
    maximum, and the game is solvable iff one row beats the other on every
    undominated column (then exactly one column survives). This is the
    order-statistics argument behind ``_simkernels.records_law``.
    """
    suffix_max = np.maximum.accumulate(c2[:, ::-1], axis=1)[:, ::-1]
    undominated = c2 == suffix_max
    k = undominated.sum(axis=1)
    wins = (row0_better & undominated).sum(axis=1)
    solvable = (wins == 0) | (wins == k)
    return np.where(solvable, 1, k)


def test_fast_2xn_path_matches_engine_exhaustively():
    # All n!(2^n) states at n = 4: the order-statistics shortcut must agree
    # with the generic engine on the surviving column count.
    n = 4
    for c2 in itertools.permutations(range(n)):
        for bits in range(1 << n):
            row0 = [2 if bits >> j & 1 else 1 for j in range(n)]
            g = OrdinalBimatrix(
                (tuple(row0), tuple(3 - x for x in row0)),
                (tuple(range(1, n + 1)), tuple(v + 1 for v in c2)),
            )
            want = metrics(g).s_c
            got = survivors_2xn_from(
                np.array([c2]), np.array([[bits >> j & 1 for j in range(n)]], dtype=bool)
            )[0]
            assert got == want
