import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from domsolve import _simkernels as kernels, exact, montecarlo
from domsolve.games import COL, GameClass, Seed
from domsolve.montecarlo import (
    CLT_MAX_N,
    COND_ITERATIONS,
    MAX_ACTIONS,
    MIXED_COND_ITERATIONS,
    MIXED_PI,
    PI,
    POINT_RAT_UNIQUE,
    PURE_NASH_DIST,
    RATIONALIZABLE_MEAN,
    SURVIVOR_DIST,
    SURVIVOR_MEAN,
    UNDOMINATED_DIST,
    UNDOMINATED_MEAN,
    BoundCheckRow,
    Estimate,
    ExperimentSpec,
    GameSource,
    HistogramEstimate,
    NoConditioningEventsError,
    bound_checks,
    clt_check,
    run,
    solvability_chain,
    sweep,
    _draw_cardinal_batch,
    _draw_cardinal_game,
    _ks_normal,
    _mixed_batch_tallies,
    _skew_kurtosis,
)
from domsolve.rationalizability import rationalizable_sets

SEED = Seed(20240, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("bogus", GameSource(m=2, n=2), 10, SEED)
    with pytest.raises(ValueError):
        ExperimentSpec(PI, GameSource(m=0, n=2), 10, SEED)
    with pytest.raises(ValueError):
        ExperimentSpec(PI, GameSource(m=2, n=2), 0, SEED)
    with pytest.raises(ValueError):
        ExperimentSpec(MIXED_PI, GameSource(dims=(2, 2)), 10, SEED)
    with pytest.raises(ValueError):
        GameSource(m=2, n=3, game_class=GameClass.SYMMETRIC)


def test_pi_matches_exact():
    est = run(ExperimentSpec(PI, GameSource(m=2, n=6), 100_000, SEED))
    want = float(exact.solvable_probability_2xn(6))
    assert est.samples_used == 100_000
    assert abs(est.mean - want) < 3 * est.se
    assert est.se == pytest.approx(
        math.sqrt(est.mean * (1 - est.mean) / 100_000)
    )


def test_cond_iterations_matches_exact():
    est = run(ExperimentSpec(COND_ITERATIONS, GameSource(m=2, n=4), 100_000, SEED))
    want = float(exact.mean_iterations_2xn(4))
    assert abs(est.mean - want) < 3 * est.se
    assert est.conditioning_count < est.samples_used


def test_no_conditioning_events():
    # A single unsolvable draw leaves the conditional estimator undefined.
    for master in range(50):
        spec = ExperimentSpec(
            COND_ITERATIONS, GameSource(m=4, n=4), 1, Seed(master)
        )
        try:
            run(spec)
        except NoConditioningEventsError as err:
            assert "no solvable games sampled" in str(err)
            return
    raise AssertionError("expected an unsolvable 4x4 draw within 50 seeds")


def test_survivor_and_undominated_means():
    est = run(ExperimentSpec(SURVIVOR_MEAN, GameSource(m=2, n=10), 100_000, SEED))
    assert abs(est.mean - float(exact.mean_survivors_2xn(10))) < 3 * est.se
    est = run(ExperimentSpec(UNDOMINATED_MEAN, GameSource(m=3, n=8), 100_000, SEED))
    assert abs(est.mean - float(exact.mean_undominated(3, 8))) < 3 * est.se


def test_survivor_dist_histogram():
    hist = run(ExperimentSpec(SURVIVOR_DIST, GameSource(m=2, n=3), 100_000, SEED))
    assert isinstance(hist, HistogramEstimate)
    dist = exact.survivor_distribution_2xn(3)
    assert sum(hist.counts.values()) == 100_000
    for k, p in enumerate(dist, start=1):
        assert abs(hist.freq(k) - float(p)) < 3 * hist.se(k) + 1e-9


def test_pure_nash_dist_binomial():
    # The 2 x n pure-equilibrium count approaches Binomial(2, 1/2); at
    # n = 200 the finite-n deviation is ~0.00125, well inside the band.
    hist = run(ExperimentSpec(PURE_NASH_DIST, GameSource(m=2, n=200), 50_000, SEED))
    for k, p in ((0, 0.25), (1, 0.5), (2, 0.25)):
        assert abs(hist.freq(k) - p) < 3 * math.sqrt(p * (1 - p) / 50_000)


def test_point_rat_unique_metric():
    est = run(ExperimentSpec(POINT_RAT_UNIQUE, GameSource(m=3, n=3), 100_000, SEED))
    want = float(exact.unique_point_rationalizable_probability(3, 3))
    assert abs(est.mean - want) < 3 * est.se


def test_class_metrics_run():
    est = run(
        ExperimentSpec(
            PI,
            GameSource(m=3, n=3, game_class=GameClass.STRAT_COMPLEMENTS),
            20_000,
            SEED,
        )
    )
    assert 0 < est.mean < 1


def test_nplayer_metrics():
    est = run(ExperimentSpec(PI, GameSource(dims=(2, 6, 1)), 50_000, SEED))
    want = float(exact.solvable_probability_2xn(6))
    assert abs(est.mean - want) < 3 * est.se
    hist = run(ExperimentSpec(UNDOMINATED_DIST, GameSource(dims=(2, 2, 2)), 50_000, SEED))
    assert abs(hist.freq(1) - 1 / 8) < 3 * hist.se(1) + 1e-9


def test_nplayer_undominated_mean_is_the_histogram_mean():
    spec = ExperimentSpec(UNDOMINATED_MEAN, GameSource(dims=(2, 2, 2)), 50_000, Seed(1313, 0))
    est = run(spec)
    hist = run(replace(spec, metric=UNDOMINATED_DIST))
    assert est.mean == sum(k * count for k, count in hist.counts.items()) / hist.samples
    # Pr(u0 = 1) = 1/8 and otherwise both actions survive the first round.
    assert abs(est.mean - 15 / 8) < 3 * est.se


def test_nplayer_survivor_metrics():
    # The first player's counts are reported: with dims (n, 2, 1) that is
    # the column player of a 2 x n game (the third player has one action).
    n = 5
    est = run(ExperimentSpec(SURVIVOR_MEAN, GameSource(dims=(n, 2, 1)), 20_000, SEED))
    want = float(exact.mean_survivors_2xn(n))
    assert abs(est.mean - want) <= 3 * est.se, (est.mean, want)
    hist = run(ExperimentSpec(SURVIVOR_DIST, GameSource(dims=(2, 2, 2)), 2_000, SEED))
    assert sum(hist.counts.values()) == 2_000


def scalar_mixed_tallies(spec, index, size):
    """The per-game loop that the batched mixed tallies replaced: draw each
    game and decide it with the scalar reference ``rationalizable_sets``."""
    rng = spec.seed.generator(index)
    out = dict.fromkeys(
        ("solvable", "iter_sum", "iter_sq", "rat_cols_sum", "rat_cols_sq",
         "pure_solvable", "prat_unique"),
        0,
    )
    for _ in range(size):
        report = rationalizable_sets(_draw_cardinal_game(rng, spec.source))
        if report.mixed_solvable:
            out["solvable"] += 1
            out["iter_sum"] += report.mixed_iterations
            out["iter_sq"] += report.mixed_iterations**2
        out["pure_solvable"] += all(len(s) == 1 for s in report.pure_survivors)
        out["prat_unique"] += all(len(s) == 1 for s in report.point_rationalizable)
        k = len(report.rationalizable[COL])
        out["rat_cols_sum"] += k
        out["rat_cols_sq"] += k * k
    return out


def _batch_matches_scalar(source, seed, size):
    spec = ExperimentSpec(MIXED_PI, source, size, seed)
    batch = _mixed_batch_tallies(spec, 0, size)
    assert batch.pop("lp_fallbacks") <= batch.pop("lp_checks")
    assert batch == scalar_mixed_tallies(spec, 0, size), source


@pytest.mark.parametrize(
    "source",
    [GameSource(m=4, n=4, game_class=c) for c in GameClass]
    + [
        GameSource(m=3, n=5, game_class=GameClass.STRAT_COMPLEMENTS),
        GameSource(m=5, n=3, game_class=GameClass.CONSTANT_SUM),
        GameSource(m=4, n=4, distribution="normal"),
        GameSource(m=5, n=6, distribution="normal"),
        GameSource(m=4, n=4, crra_alpha=0.41),
        GameSource(m=2, n=5),
        GameSource(m=5, n=2),
        GameSource(m=1, n=4),
        GameSource(m=4, n=1),
    ],
    ids=lambda s: f"{s.m}x{s.n}-{s.game_class.value}-{s.distribution}-{s.crra_alpha}",
)
def test_mixed_batch_matches_scalar_reference(source):
    _batch_matches_scalar(source, Seed(611, source.m * 10 + source.n), 96)


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from(list(GameClass)),
    st.sampled_from(["uniform", "normal", "crra"]),
    st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_mixed_batch_matches_scalar_property(m, n, game_class, payoffs, master):
    if game_class.requires_square:
        n = m
    source = GameSource(
        m=m,
        n=n,
        game_class=game_class,
        distribution="normal" if payoffs == "normal" else "uniform",
        crra_alpha=0.41 if payoffs == "crra" else None,
    )
    _batch_matches_scalar(source, Seed(master), 12)


def _per_game_stacks(rng, source, size):
    drawn = [_draw_cardinal_game(rng, source) for _ in range(size)]
    return np.array([g.u_row for g in drawn]), np.array([g.u_col for g in drawn])


@pytest.mark.parametrize(
    "source",
    [
        GameSource(m=m, n=n, game_class=c, **payoffs)
        for c in GameClass
        for m, n in (((3, 3), (1, 1)) if c.requires_square else ((3, 3), (1, 4), (4, 1), (2, 5)))
        for payoffs in ({}, {"distribution": "normal"}, {"crra_alpha": 0.41})
    ],
    ids=lambda s: f"{s.m}x{s.n}-{s.game_class.value}-{s.distribution}-{s.crra_alpha}",
)
def test_cardinal_batch_draw_is_the_per_game_stream(source):
    seed = Seed(733, source.m * 10 + source.n)
    batch_rng, game_rng = seed.generator(), seed.generator()
    got = _draw_cardinal_batch(batch_rng, source, 37)
    want = _per_game_stacks(game_rng, source, 37)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(u.flags.c_contiguous for u in got)
    # Both generators end in the same state.
    assert batch_rng.random() == game_rng.random()


class _ReplayStream:
    """A stand-in generator whose float draws read ``values`` in order; its
    ``bit_generator.state`` is the read position."""

    def __init__(self, values):
        self.values = values
        self.state = 0
        self.bit_generator = self

    def random(self, shape):
        size = math.prod(shape)
        out = self.values[self.state : self.state + size].reshape(shape).copy()
        self.state += size
        return out

    standard_normal = random


@pytest.mark.parametrize(
    "source, cells",
    [
        (GameSource(m=3, n=4), (1, 5)),  # Row's column 1
        (GameSource(m=3, n=4), (12, 13)),  # Column's row 0
        (GameSource(m=4, n=2, distribution="normal"), (8, 9)),  # Column's row 0
        (GameSource(m=1, n=3), (3, 5)),  # Column's only row
    ],
)
def test_cardinal_batch_replays_a_tied_batch(source, cells, monkeypatch):
    calls = []

    def counted(rng, src):
        calls.append(1)
        return _draw_cardinal_game(rng, src)

    monkeypatch.setattr(montecarlo, "_draw_cardinal_game", counted)
    per_game = 2 * source.m * source.n
    clean = np.random.default_rng(41).random(20 * 9 * per_game)
    # Game 4 of the batch repeats a value.
    tied = clean.copy()
    tied[4 * per_game + cells[1]] = tied[4 * per_game + cells[0]]
    batch_rng, game_rng = _ReplayStream(tied), _ReplayStream(tied)
    got = _draw_cardinal_batch(batch_rng, source, 9)
    assert len(calls) == 9
    want = _per_game_stacks(game_rng, source, 9)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # The per-game path redrew the tie, and the replay did the same.
    assert batch_rng.state == game_rng.state > 9 * per_game
    # Without the tie the batch is one array draw.
    calls.clear()
    got = _draw_cardinal_batch(_ReplayStream(clean), source, 9)
    assert not calls
    want = _per_game_stacks(_ReplayStream(clean), source, 9)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize(
    "source",
    [
        GameSource(m=3, n=4, crra_alpha=0.41),
        GameSource(m=3, n=3, game_class=GameClass.POTENTIAL),
        GameSource(m=3, n=3, game_class=GameClass.STRAT_COMPLEMENTS),
    ],
    ids=lambda s: f"{s.game_class.value}-{s.crra_alpha}",
)
def test_cardinal_batch_draws_other_sources_game_by_game(source, monkeypatch):
    calls = []

    def counted(rng, src):
        calls.append(1)
        return _draw_cardinal_game(rng, src)

    monkeypatch.setattr(montecarlo, "_draw_cardinal_game", counted)
    _draw_cardinal_batch(Seed(5).generator(), source, 9)
    assert len(calls) == 9


def _crra_tie_pair(alpha):
    x = 0.6
    while math.nextafter(x, 1.0) ** alpha != x**alpha:
        x = math.nextafter(x, 1.0)
    return x, math.nextafter(x, 1.0)


@pytest.mark.parametrize(
    "source, error",
    [
        (GameSource(m=3, n=4, crra_alpha=0.41), "u_row column 2 has tied payoffs"),
        (GameSource(m=3, n=4, distribution="normal", crra_alpha=0.41), "nonnegative payoffs"),
    ],
)
def test_cardinal_batch_raises_as_the_per_game_path(source, error):
    # Game 1 of the batch gets a negative payoff (Column's, at (1, 0)), or
    # two Row payoffs in column 2 that CRRA rounds to one value.
    values = np.random.default_rng(43).random(1000)
    if source.distribution == "normal":
        values[24 + 16] = -values[24 + 16]
    else:
        values[24 + 2], values[24 + 6] = _crra_tie_pair(source.crra_alpha)
    for draw in (
        lambda rng: _draw_cardinal_batch(rng, source, 5),
        lambda rng: _per_game_stacks(rng, source, 5),
    ):
        with pytest.raises(ValueError, match=error):
            draw(_ReplayStream(values))


def test_mixed_metrics_small():
    src = GameSource(m=3, n=3)
    est = run(ExperimentSpec(MIXED_PI, src, 2000, SEED))
    pure = run(ExperimentSpec(PI, src, 2000, SEED))
    assert est.mean >= pure.mean - 3 * (est.se + pure.se)
    cond = run(ExperimentSpec(MIXED_COND_ITERATIONS, src, 2000, SEED))
    assert 1 <= cond.mean <= 5
    rmean = run(ExperimentSpec(RATIONALIZABLE_MEAN, src, 2000, SEED))
    assert 1 <= rmean.mean <= 3


def test_mixed_metrics_with_crra():
    src = GameSource(m=3, n=3, crra_alpha=0.41)
    est = run(ExperimentSpec(MIXED_PI, src, 500, SEED))
    assert 0 < est.mean < 1


def test_solvability_chain_is_ordered():
    chain = solvability_chain(GameSource(m=3, n=3), 2000, SEED)
    assert chain["pure"].mean <= chain["mixed"].mean <= chain["point_rat_unique"].mean


def test_determinism_across_thread_counts():
    spec = ExperimentSpec(PI, GameSource(m=4, n=4), 50_000, SEED)
    results = [run(spec, threads=t) for t in (1, 4, 16)]
    assert results[0] == results[1] == results[2]
    hists = [
        run(ExperimentSpec(SURVIVOR_DIST, GameSource(m=3, n=5), 30_000, SEED), threads=t)
        for t in (1, 4)
    ]
    assert hists[0] == hists[1]


def test_determinism_repeated_runs():
    spec = ExperimentSpec(COND_ITERATIONS, GameSource(m=3, n=3), 30_000, SEED)
    assert run(spec) == run(spec)


def test_batch_size_is_part_of_the_stream():
    a = run(ExperimentSpec(PI, GameSource(m=2, n=4), 10_000, SEED, batch_size=1000))
    b = run(ExperimentSpec(PI, GameSource(m=2, n=4), 10_000, SEED, batch_size=1000))
    assert a == b


PINNED = Seed(1414, 3)
BIMATRIX_3X4 = GameSource(m=3, n=4)
BIMATRIX_2X5 = GameSource(m=2, n=5)
THREE_PLAYER = GameSource(dims=(2, 2, 2))


@pytest.mark.parametrize(
    "metric, source, want",
    [
        (PI, BIMATRIX_3X4, Estimate(0.328, 0.006061023015960259, 6000, 1968)),
        (COND_ITERATIONS, BIMATRIX_3X4, Estimate(3.006605691056911, 0.01945321364385296, 6000, 1968)),
        (SURVIVOR_DIST, BIMATRIX_3X4, HistogramEstimate({1: 1968, 2: 1175, 3: 1725, 4: 1132}, 6000)),
        (SURVIVOR_MEAN, BIMATRIX_3X4, Estimate(2.3368333333333333, 0.014473651110429881, 6000, 6000)),
        (UNDOMINATED_MEAN, BIMATRIX_3X4, Estimate(2.888333333333333, 0.01099988550220676, 6000, 6000)),
        (UNDOMINATED_DIST, BIMATRIX_3X4, HistogramEstimate({1: 339, 2: 1533, 3: 2587, 4: 1541}, 6000)),
        (PURE_NASH_DIST, BIMATRIX_3X4, HistogramEstimate({0: 1401, 1: 3266, 2: 1246, 3: 87}, 6000)),
        (POINT_RAT_UNIQUE, BIMATRIX_3X4, Estimate(0.5021666666666667, 0.006454911638377341, 6000, 3013)),
        (SURVIVOR_DIST, BIMATRIX_2X5, HistogramEstimate({1: 2964, 2: 1284, 3: 1287, 4: 420, 5: 45}, 6000)),
        (UNDOMINATED_DIST, BIMATRIX_2X5, HistogramEstimate({1: 1148, 2: 2578, 3: 1739, 4: 484, 5: 51}, 6000)),
        (PURE_NASH_DIST, BIMATRIX_2X5, HistogramEstimate({0: 1229, 1: 3559, 2: 1212}, 6000)),
        (PI, THREE_PLAYER, Estimate(0.24566666666666667, 0.005557495772311415, 6000, 1474)),
        (SURVIVOR_MEAN, THREE_PLAYER, Estimate(1.7261666666666666, 0.005757340037627294, 6000, 6000)),
        (UNDOMINATED_DIST, THREE_PLAYER, HistogramEstimate({1: 751, 2: 5249}, 6000)),
        (POINT_RAT_UNIQUE, BIMATRIX_2X5, Estimate(0.5931666666666666, 0.00634192363328118, 6000, 3559)),
    ],
)
def test_pure_metrics_at_a_fixed_seed(metric, source, want):
    # The batch worker builds only the tallies its metric reads; no pruning
    # of them may change a result.
    assert run(ExperimentSpec(metric, source, 6000, PINNED, batch_size=1000)) == want


MIXED_PINNED = Seed(1515, 7)


@pytest.mark.parametrize(
    "metric, want",
    [
        (MIXED_PI, Estimate(0.405, 0.015523369479594306, 1000, 405)),
        (MIXED_COND_ITERATIONS, Estimate(3.071604938271605, 0.043169520330634786, 1000, 405)),
        (RATIONALIZABLE_MEAN, Estimate(1.988, 0.03080267528648778, 1000, 1000)),
    ],
)
def test_mixed_metrics_at_a_fixed_seed(metric, want):
    assert run(ExperimentSpec(metric, GameSource(m=3, n=4), 1000, MIXED_PINNED)) == want


def test_solvability_chain_at_a_fixed_seed():
    source = GameSource(m=4, n=4)
    assert solvability_chain(source, 1000, MIXED_PINNED) == {
        "pure": Estimate(0.209, 0.012857643641040918, 1000, 209),
        "mixed": Estimate(0.307, 0.01458598642533305, 1000, 307),
        "point_rat_unique": Estimate(0.437, 0.01568537535413163, 1000, 437),
    }
    tallies = montecarlo._run_batches(ExperimentSpec(MIXED_PI, source, 1000, MIXED_PINNED), 1)
    assert (tallies["lp_checks"], tallies["lp_fallbacks"]) == (2053, 0)


def test_bound_checks_at_a_fixed_seed():
    (row,) = bound_checks([(3, 6)], 6000, PINNED)
    assert (row.pi_hat, row.sr_less_hat) == (1205 / 6000, 2351 / 6000)


def test_sweep_rows_and_monotone_pi():
    sources = [GameSource(m=n, n=n) for n in (2, 3, 4)]
    rows = sweep(PI, sources, 30_000, SEED)
    assert [r.source.m for r in rows] == [2, 3, 4]
    assert rows[0].estimate > rows[1].estimate > rows[2].estimate
    with pytest.raises(ValueError):
        sweep(SURVIVOR_DIST, sources, 100, SEED)


@pytest.mark.parametrize("n", [1, 2, 5, 30, 77, 200])
def test_records_law_matches_exact_distributions(n):
    law = kernels.records_law(n)
    undominated = exact.undominated_distribution_2xn(n)
    assert law[0] == 0.0 and law.size <= n + 1
    padded = np.zeros(n + 1)
    padded[: law.size] = law
    assert np.abs(padded[1:] - np.array([float(p) for p in undominated])).max() <= 1e-15
    # Given k undominated columns the game is solvable with probability
    # 2^(1-k); otherwise all k survive.
    solvable = np.ldexp(1.0, -np.arange(n))  # k = 1..n
    survivors = padded[1:] * (1 - solvable)
    survivors[0] = (padded[1:] * solvable).sum()
    want = np.array([float(p) for p in exact.survivor_distribution_2xn(n)])
    assert np.abs(survivors - want).max() <= 1e-15


class _ExtremeUniforms:
    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_law_sampler_stays_inside_the_support():
    for n in (100, 1000, 10_000):
        law = kernels.records_law(n)
        # The float sum of the law at n = 10^4 ends below 1 - 2^-53.
        top = kernels.survivors_2xn_batch(_ExtremeUniforms(np.nextafter(1.0, 0.0)), 3, law)
        assert (top < law.size).all() and (law[top] > 0).all()
        assert (kernels.survivors_2xn_batch(_ExtremeUniforms(0.0), 3, law) == 1).all()


def test_law_sampler_moments_at_n30():
    n = 30
    law = kernels.records_law(n)
    values = kernels.survivors_2xn_batch(np.random.default_rng(7), 200_000, law)
    mean = float(exact.mean_survivors_2xn(n))
    sd = math.sqrt(float(exact.var_survivors_2xn(n)))
    assert abs(values.mean() - mean) <= 3 * sd / math.sqrt(values.size)
    p1 = float(exact.solvable_probability_2xn(n))
    assert abs((values == 1).mean() - p1) <= 3 * math.sqrt(p1 * (1 - p1) / values.size)


def test_numpy_statistics_match_scipy():
    from scipy import stats

    rng = np.random.default_rng(11)
    counts = kernels.survivors_2xn_batch(rng, 50_000, kernels.records_law(10_000))
    lattice = (counts - 9.7) / 2.9
    for z in (lattice, rng.standard_normal(20_000), rng.exponential(size=5000) - 1):
        assert abs(_ks_normal(z) - stats.kstest(z, "norm").statistic) <= 1e-12
        skew, kurt = _skew_kurtosis(z)
        assert abs(skew - stats.skew(z)) <= 1e-12
        assert abs(kurt - stats.kurtosis(z, fisher=False)) <= 1e-12


def test_import_does_not_load_scipy():
    code = "import sys, domsolve, domsolve.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_clt_check_small():
    report = clt_check(200, 20_000, SEED)
    se = math.sqrt(report.exact_var / report.samples)
    assert abs(report.sample_mean - report.exact_mean) < 3 * se
    assert 0 < report.ks_distance < 0.2
    with pytest.raises(ValueError):
        clt_check(50, 1000, SEED)
    with pytest.raises(ValueError):
        clt_check(200, 0, SEED)


def test_clt_check_caps_n_before_building_the_law(monkeypatch):
    def never(n):
        raise AssertionError("records_law was built")

    monkeypatch.setattr(kernels, "records_law", never)
    with pytest.raises(exact.CapacityError):
        clt_check(CLT_MAX_N + 1, 10, SEED)


def test_capacity_guard_refuses_oversized_batches(monkeypatch):
    def never(*args):
        raise AssertionError("a batch was started")

    monkeypatch.setattr(montecarlo, "_pure_batch_tallies", never)
    monkeypatch.setattr(montecarlo, "_mixed_batch_tallies", never)
    for spec in (
        ExperimentSpec(PI, GameSource(m=2, n=30_000), 10, SEED),
        ExperimentSpec(PI, GameSource(dims=(200, 200, 200)), 10, SEED),
        ExperimentSpec(MIXED_PI, GameSource(m=60, n=60), 10, SEED),
        ExperimentSpec(PI, GameSource(m=1, n=MAX_ACTIONS + 1), 1, SEED, batch_size=1),
    ):
        with pytest.raises(exact.CapacityError):
            run(spec)
    # wide pure games and the mixed shapes in use stay inside the limit
    for spec in (
        ExperimentSpec(PI, GameSource(m=5, n=200), 10, SEED),
        ExperimentSpec(PI, GameSource(m=2, n=5000), 10, SEED),
        ExperimentSpec(MIXED_PI, GameSource(m=6, n=6), 10, SEED),
    ):
        montecarlo._check_capacity(spec)


def test_bound_checks_small_grid():
    rows = bound_checks([(2, 10), (3, 10)], 20_000, SEED)
    assert all(isinstance(r, BoundCheckRow) for r in rows)
    assert all(r.pi_ok and r.sr_ok for r in rows)
    assert rows[0].pi_hat == pytest.approx(
        float(exact.solvable_probability_2xn(10)), abs=0.02
    )


def test_row_elimination_becomes_rarer_along_log2_sequence():
    # With m about log2(n) + 1, the chance that any row is ever eliminated
    # shrinks as the game grows.
    grid = [(math.ceil(math.log2(n)) + 1, n) for n in (8, 16, 32)]
    rows = bound_checks(grid, 20_000, SEED, threads=4)
    for earlier, later in zip(rows, rows[1:]):
        slack = 3 * (earlier.sr_less_se + later.sr_less_se)
        assert later.sr_less_hat <= earlier.sr_less_hat + slack
    assert rows[-1].sr_less_hat < rows[0].sr_less_hat
