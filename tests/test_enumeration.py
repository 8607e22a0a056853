import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from domsolve import _simkernels as kernels
from domsolve import enumeration, exact
from domsolve.elimination import _run_elimination, iterate, metrics
from domsolve.enumeration import (
    Class2x2Report,
    _permutations,
    _simplex_grid,
    _states_2x2,
    _states_2xn,
    enumerate_2xn,
    enumerate_class_2x2,
    enumerate_point_rat_2x2,
    enumerate_undominated_3xn,
    grid_mixed_dominance_oracle,
)
from domsolve.exact import CapacityError
from domsolve.games import CardinalBimatrix, GameClass, OrdinalBimatrix, Seed, rank_along
from domsolve.rationalizability import is_mixed_dominated, point_rationalizable_sets

TABLE_3XN = {
    1: [1],
    2: [1, 3],
    3: [4, 15, 17],
    4: [36, 147, 242, 151],
    5: [576, 2460, 4775, 4690, 1899],
}


def undominated_3xn_brute(n):
    """The 3 x n table by the raw dominance definition: with the first
    ranking the identity, column j is dominated by k > j exactly when both
    remaining rankings also prefer k."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int16)
    counts = np.zeros(n + 1, dtype=np.int64)
    for c2 in itertools.permutations(range(1, n + 1)):
        dominated = np.zeros((perms.shape[0], n), dtype=bool)
        for j in range(n):
            for k in range(j + 1, n):
                if c2[k] > c2[j]:
                    dominated[:, j] |= perms[:, k] > perms[:, j]
        counts += np.bincount(n - dominated.sum(axis=1), minlength=n + 1)
    return counts[1:].tolist()


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_2xn_matches_exact(n):
    report = enumerate_2xn(n)
    assert report.total_states == math.factorial(n) * 2**n
    assert report.solvable_probability == exact.solvable_probability_2xn(n)
    assert list(report.dist_undominated) == exact.undominated_distribution_2xn(n)
    assert list(report.dist_iterations) == list(exact.iteration_distribution_2xn(n))
    assert list(report.dist_survivors) == exact.survivor_distribution_2xn(n)
    assert report.mean_survivors() == exact.mean_survivors_2xn(n)
    assert report.var_survivors() == exact.var_survivors_2xn(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_2xn_state_matches_scalar_engine(n):
    # The batch kernel against the scalar engine state by state, over a
    # state list that must hold every reduced 2 x n state exactly once.
    total = math.factorial(n) * 2**n
    rr, cc = _states_2xn(_permutations(n), 0, total)
    out = kernels.eliminate_batch(rr, cc)
    seen = set()
    for s in range(total):
        row_ranks = tuple(map(tuple, rr[s].tolist()))
        col_ranks = tuple(map(tuple, cc[s].tolist()))
        assert col_ranks[0] == tuple(range(1, n + 1))
        assert sorted(col_ranks[1]) == list(range(1, n + 1))
        assert all({row_ranks[0][j], row_ranks[1][j]} == {1, 2} for j in range(n))
        seen.add((row_ranks, col_ranks))
        rounds, rows, cols, _, u_c = _run_elimination(row_ranks, col_ranks, (0, 1), range(n))
        want = (u_c, len(rows), len(cols), len(rounds), len(rows) == 1 and len(cols) == 1)
        got = tuple(out[key][s].item() for key in ("u_c", "s_r", "s_c", "iterations", "solvable"))
        assert got == want, (n, s)
    assert len(seen) == total


@pytest.mark.parametrize("n, chunk", [(5, 1), (5, 1000), (6, 1000), (6, 46080)])
def test_enumerate_2xn_chunking(monkeypatch, n, chunk):
    # 1000 divides neither 5! * 2^5 = 3840 nor 6! * 2^6 = 46080 states, so
    # the last chunk is short and the others split second rankings; the
    # default chunk gives six pooled chunks at n = 6 (the last short), and
    # 46080 one chunk and no pool.
    want = enumerate_2xn(n)
    monkeypatch.setattr(enumeration, "CHUNK_STATES", chunk)
    assert enumerate_2xn(n) == want


@pytest.mark.parametrize("oracle, n", [(enumerate_2xn, 6), (enumerate_2xn, 7), (enumerate_undominated_3xn, 6)])
def test_enumeration_does_not_depend_on_the_cpu_count(monkeypatch, oracle, n):
    want = oracle(n)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 1)
    assert oracle(n) == want


def test_enumerate_2xn_capacity():
    with pytest.raises(CapacityError):
        enumerate_2xn(9)


@pytest.mark.parametrize("n", sorted(TABLE_3XN))
def test_enumerate_undominated_3xn_small(n):
    counts = enumerate_undominated_3xn(n)
    assert counts == TABLE_3XN[n]
    assert undominated_3xn_brute(n) == TABLE_3XN[n]
    assert sum(counts) == math.factorial(n) ** 2


@pytest.mark.parametrize("n", range(1, 7))
def test_undominated_3xn_bitsets_match_brute_force(n):
    counts = enumerate_undominated_3xn(n)
    assert counts == undominated_3xn_brute(n)
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_3xn_mean_matches_recurrence(n):
    counts = enumerate_undominated_3xn(n)
    total = math.factorial(n) ** 2
    mean = sum(Fraction(k * c, total) for k, c in enumerate(counts, start=1))
    assert mean == exact.mean_undominated(3, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_first_order_stochastic_dominance(n):
    # More rows for the opponent make small undominated counts less likely:
    # the 3 x n CDF lies pointwise at or below the 2 x n CDF.
    counts3 = enumerate_undominated_3xn(n)
    total3 = math.factorial(n) ** 2
    dist2 = exact.undominated_distribution_2xn(n)
    cdf2 = cdf3 = Fraction(0)
    for k in range(n):
        cdf2 += dist2[k]
        cdf3 += Fraction(counts3[k], total3)
        assert cdf3 <= cdf2


@pytest.mark.parametrize("n", range(1, 7))
def test_no_dominated_lower_bound_holds(n):
    counts = enumerate_undominated_3xn(n)
    prob_all = Fraction(counts[-1], math.factorial(n) ** 2)
    lower, _ = exact.no_dominated_column_bounds_3xn(n)
    assert lower <= prob_all


def test_enumerate_undominated_capacity():
    with pytest.raises(CapacityError):
        enumerate_undominated_3xn(7)


def test_class_2x2_baseline():
    report = enumerate_class_2x2(GameClass.BASELINE)
    assert sum(report.outcome_probs.values()) == 1
    assert len(report.outcome_probs) == 16
    assert report.solvable_probability == Fraction(3, 4)


def test_class_2x2_potential_equals_constant_sum():
    pot = enumerate_class_2x2(GameClass.POTENTIAL)
    cs = enumerate_class_2x2(GameClass.CONSTANT_SUM)
    assert pot.solvable_probability == cs.solvable_probability
    assert pot.iteration_probs == cs.iteration_probs


def test_class_2x2_probabilities_sum_to_one():
    for cls in GameClass:
        report = enumerate_class_2x2(cls)
        assert sum(report.outcome_probs.values()) == 1
        assert sum(report.iteration_probs.values()) == 1
        assert sum(report.survivor_pair_probs.values()) == 1


def class_2x2_states_brute(cls):
    """(Row, Column) payoff matrices of a 2 x 2 class's states, from the
    class definitions over the cell orderings of 1..4, one state at a time."""
    cells = [((a, b), (c, d)) for a, b, c, d in itertools.permutations((1, 2, 3, 4))]

    def transpose(r):
        return tuple(zip(*r))

    # Best row of column j is r[1][j] > r[0][j]; best column of row i is
    # c[i][1] > c[i][0]. Complements need both maps nondecreasing.
    rows_up = [r for r in cells if (r[1][0] > r[0][0]) <= (r[1][1] > r[0][1])]
    cols_up = [c for c in cells if (c[0][1] > c[0][0]) <= (c[1][1] > c[1][0])]
    return {
        GameClass.BASELINE: [(r, c) for r in cells for c in cells],
        GameClass.SYMMETRIC: [(r, transpose(r)) for r in cells],
        GameClass.POTENTIAL: [(r, r) for r in cells],
        GameClass.CONSTANT_SUM: [(r, tuple(tuple(5 - x for x in row) for row in r)) for r in cells],
        GameClass.STRAT_COMPLEMENTS: [(r, c) for r in rows_up for c in cols_up],
        GameClass.STRAT_COMPLEMENTS_SYM: [(r, transpose(r)) for r in rows_up],
    }[cls]


@pytest.mark.parametrize("cls", list(GameClass))
def test_every_2x2_class_state_matches_scalar_engine(cls):
    # The batch oracle's states against the class definitions, then every
    # state (990 over the six classes) against the scalar engine: survivor
    # sets, rounds and solvability, and the report's tallies against the
    # scalar ones.
    u_row, u_col = _states_2x2(cls)
    states = [tuple(map(tuple, r)) + tuple(map(tuple, c)) for r, c in zip(u_row.tolist(), u_col.tolist())]
    assert sorted(states) == sorted(r + c for r, c in class_2x2_states_brute(cls))
    out = kernels.eliminate_batch(u_row, u_col)
    games = [OrdinalBimatrix(r, c) for r, c in zip(rank_along(u_row, 1).tolist(), rank_along(u_col, 2).tolist())]
    outcomes, iterations, pairs = Counter(), Counter(), Counter()
    for s, game in enumerate(games):
        trace, m = iterate(game), metrics(game)
        assert tuple(tuple(np.flatnonzero(a[s]).tolist()) for a in out["alive"]) == trace.surviving, (cls, s)
        got = tuple(out[key][s].item() for key in ("u_r", "u_c", "s_r", "s_c", "iterations", "solvable"))
        assert got == (m.u_r, m.u_c, m.s_r, m.s_c, trace.iterations, trace.solvable), (cls, s)
        outcomes[game.row_ranks, game.col_ranks] += 1
        iterations[m.iterations] += 1
        pairs[m.s_r, m.s_c] += 1
    total = len(games)
    report = enumerate_class_2x2(cls)
    assert report.solvable_probability == Fraction(pairs[1, 1], total)
    assert report.outcome_probs == {k: Fraction(v, total) for k, v in outcomes.items()}
    assert report.iteration_probs == {k: Fraction(v, total) for k, v in iterations.items()}
    assert report.survivor_pair_probs == {k: Fraction(v, total) for k, v in pairs.items()}
    if cls is GameClass.BASELINE:
        counts = kernels.point_rationalizable_counts(u_row, u_col)
        for s, game in enumerate(games):
            assert (counts[0][s], counts[1][s]) == tuple(map(len, point_rationalizable_sets(game))), s


@pytest.mark.parametrize(
    "cls",
    [
        GameClass.BASELINE,
        GameClass.SYMMETRIC,
        GameClass.POTENTIAL,
        GameClass.CONSTANT_SUM,
        GameClass.STRAT_COMPLEMENTS,
        GameClass.STRAT_COMPLEMENTS_SYM,
    ],
)
def test_samplers_match_enumerated_2x2_distribution(cls):
    # The batched generators must reproduce the exact enumerated law; for
    # the complementarity classes this confirms the direct construction
    # against the rejection-defined conditional distribution.
    report = enumerate_class_2x2(cls)
    draws = 100_000
    stream = sorted(c.value for c in GameClass).index(cls.value)
    rng = Seed(1234, stream).generator()
    rr, cc = kernels.sample_rank_batch(rng, draws, 2, 2, cls)
    # Each draw's eight ranks (1..4) packed as int8 into one int64 key: a
    # 1-D np.unique, where axis=0 would sort the rows as opaque items.
    cells = np.concatenate([rr.reshape(draws, 4), cc.reshape(draws, 4)], axis=1).astype(np.int8)
    keys, counts = np.unique(cells.view(np.int64).ravel(), return_counts=True)
    seen = {
        (tuple(map(tuple, g[:4].reshape(2, 2).tolist())), tuple(map(tuple, g[4:].reshape(2, 2).tolist()))): c
        for g, c in zip(keys.view(np.int8).reshape(-1, 8), counts.tolist())
    }
    assert set(seen) <= set(report.outcome_probs)
    observed = [seen.get(key, 0) for key in report.outcome_probs]
    expected = [float(p) * draws for p in report.outcome_probs.values()]
    assert stats.chisquare(observed, expected).pvalue > 0.01


@pytest.mark.parametrize("parts, steps", [(1, 5), (2, 7), (3, 6), (4, 4)])
def test_simplex_grid_is_cached_and_read_only(parts, steps):
    grid = _simplex_grid(parts, steps)
    assert _simplex_grid(parts, steps) is grid
    assert np.array_equal(grid, _simplex_grid.__wrapped__(parts, steps))
    want = sorted(w for w in itertools.product(range(steps + 1), repeat=parts) if sum(w) == steps)
    assert sorted(map(tuple, np.rint(grid * steps).astype(int).tolist())) == want
    with pytest.raises(ValueError):
        grid[0, 0] = 0.5


def test_grid_oracle_constructed_instances():
    g = CardinalBimatrix([[4, 0], [0, 4], [1, 1]], [[1, 2], [2, 1], [1.5, 2.5]])
    assert grid_mixed_dominance_oracle(g, 0, 2, resolution=1 / 2)
    assert grid_mixed_dominance_oracle(g, 0, np.int64(2), resolution=1 / 2)
    with pytest.raises(ValueError):
        grid_mixed_dominance_oracle(g, 0, 2.0)
    g2 = CardinalBimatrix([[4, 0], [0, 4], [3, 3]], [[1, 2], [2, 1], [1.5, 2.5]])
    assert not grid_mixed_dominance_oracle(g2, 0, 2, resolution=1 / 500)


def test_grid_oracle_single_alternative():
    g = CardinalBimatrix([[1, 1], [2, 2]], [[1, 2], [2, 1]])
    assert grid_mixed_dominance_oracle(g, 0, 0, resolution=1 / 10)
    assert not grid_mixed_dominance_oracle(g, 0, 1, resolution=1 / 10)


@pytest.mark.parametrize(
    "own, opp",
    [
        ((0, -1), None),
        ((0, 7), None),
        ((0, 0, 1), None),
        (None, (-1,)),
        (None, (0, 2)),
        (None, (1, 1)),
        (None, ()),
        ((0, 1.0), None),
        (None, (np.float64(0.0),)),
    ],
)
def test_grid_oracle_rejects_bad_action_sets(own, opp):
    g = CardinalBimatrix([[4, 0], [0, 4], [1, 1]], [[1, 2], [2, 1], [1.5, 2.5]])
    with pytest.raises(ValueError):
        grid_mixed_dominance_oracle(g, 0, 0, own=own, opp=opp)


def test_grid_oracle_agrees_with_lp_sample():
    # One-sided agreement on a pinned random sample (the full 10^3-game run
    # lives in the acceptance suite).
    from domsolve.games import sample_cardinal

    games = [sample_cardinal(3, 3, "uniform", Seed(46, i)) for i in range(100)]
    for game in games:
        for action in range(3):
            cert = is_mixed_dominated(game, 0, action)
            oracle = grid_mixed_dominance_oracle(game, 0, action, resolution=1 / 200)
            if oracle:
                assert cert is not None
            if cert is not None and cert.margin > 1e-3:
                assert oracle


def test_point_rat_2x2():
    assert enumerate_point_rat_2x2() == Fraction(3, 4)
    assert enumerate_point_rat_2x2() == exact.unique_point_rationalizable_probability(2, 2)


def test_point_rat_2x2_complement_is_full_survival():
    # The non-unique 2 x 2 games are exactly those where every action is a
    # best response, so the deletion fixpoint is the full game.
    u_row, u_col = _states_2x2(GameClass.BASELINE)
    non_unique = 0
    for r, c in zip(rank_along(u_row, 1).tolist(), rank_along(u_col, 2).tolist()):
        rows, cols = point_rationalizable_sets(OrdinalBimatrix(r, c))
        if len(rows) != 1 or len(cols) != 1:
            non_unique += 1
            assert rows == (0, 1) and cols == (0, 1)
    assert Fraction(non_unique, len(u_row)) == Fraction(1, 4)
