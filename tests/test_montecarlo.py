import math
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from domsolve import _simkernels as kernels, enumeration, exact, games, montecarlo
from domsolve.games import COL, CardinalBimatrix, GameClass, Seed
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
    CltReport,
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
        GameSource(m=2, n=3, game_class=GameClass.SYMMETRIC)
    with pytest.raises(ValueError, match="distribution"):
        GameSource(m=3, n=3, distribution="pareto")
    with pytest.raises(ValueError, match="nonnegative payoffs"):
        GameSource(m=3, n=3, distribution="normal", crra_alpha=0.5)


def test_nplayer_sources_refuse_payoff_law_flags():
    for flags in ({"distribution": "normal"}, {"crra_alpha": 0.5}, {"game_class": GameClass.POTENTIAL}):
        with pytest.raises(ValueError, match="uniform baseline"):
            GameSource(dims=(2, 2, 2), **flags)


@pytest.mark.parametrize("metric", montecarlo.METRICS)
def test_every_metric_runs_on_nplayer_sources(metric):
    # Two-player dims included: no metric is refused for a --dims source.
    for dims in ((2, 2), (2, 3, 2)):
        result = run(ExperimentSpec(metric, GameSource(dims=dims), 300, Seed(1616, len(dims))))
        assert isinstance(result, (Estimate, HistogramEstimate))


def test_nplayer_pure_nash_mean_is_one():
    # Each of the prod(m_k) cells is an equilibrium with probability
    # prod(1/m_k), so the mean count is 1 for any dims.
    hist = run(ExperimentSpec(PURE_NASH_DIST, GameSource(dims=(2, 3, 4)), 20_000, Seed(1717)))
    values = np.repeat(list(hist.counts), list(hist.counts.values()))
    assert abs(values.mean() - 1) < 3 * values.std(ddof=1) / math.sqrt(values.size)


def test_nplayer_mixed_pi_is_pi_on_2x2x2():
    # With every m_k <= 2 mixed dominance is pure dominance, and a pinned
    # batch size gives both metrics the same stream.
    spec = ExperimentSpec(PI, GameSource(dims=(2, 2, 2)), 3000, Seed(1818), batch_size=256)
    assert run(replace(spec, metric=MIXED_PI)) == run(spec)


def test_nplayer_solvability_chain_is_ordered():
    chain = solvability_chain(GameSource(dims=(3, 3, 2)), 1000, Seed(1919))
    assert chain["pure"].mean <= chain["mixed"].mean <= chain["point_rat_unique"].mean
    assert chain["pure"].mean < chain["point_rat_unique"].mean


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
    """The batch's own arrays, decided game by game with the scalar
    reference ``rationalizable_sets``."""
    u_row, u_col = montecarlo._draw_batch(spec.seed.generator(index), spec.source, size)
    out = dict.fromkeys(
        ("solvable", "iter_sum", "iter_sq", "rat_cols_sum", "rat_cols_sq",
         "pure_solvable", "prat_unique"),
        0,
    )
    for r, c in zip(u_row, u_col):
        report = rationalizable_sets(CardinalBimatrix(r.tolist(), c.tolist()))
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
        # one round of these holds checks of several shapes
        GameSource(m=3, n=10),
        GameSource(m=8, n=8, game_class=GameClass.STRAT_COMPLEMENTS),
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
    # Every per-game draw of a cardinal game is game 0 of a batch of one
    # from the same generator, and leaves the generator where the batch does.
    seed = Seed(733, source.m * 10 + source.n)
    batch_rng, game_rng = seed.generator(), seed.generator()
    u_row, u_col = montecarlo._draw_batch(batch_rng, source, 1)
    want = CardinalBimatrix(u_row[0].tolist(), u_col[0].tolist())
    assert _draw_cardinal_game(game_rng, source) == want
    assert batch_rng.random() == game_rng.random()
    crra = (lambda g: games.apply_crra(g, source.crra_alpha)) if source.crra_alpha else (lambda g: g)
    assert crra(games.sample_class(source.game_class, source.m, source.n, seed, source.distribution)) == want
    if source.game_class is GameClass.BASELINE:
        assert crra(games.sample_cardinal(source.m, source.n, source.distribution, seed)) == want


def test_per_game_draw_redraws_a_tied_game_whole(monkeypatch):
    # The batch keeps ties; the per-game draw, whose CardinalBimatrix
    # rejects them, draws the whole game again.
    tied = np.array([[[0.5, 0.1], [0.5, 0.2]]]), np.array([[[0.1, 0.2], [0.3, 0.4]]])
    clean = np.array([[[0.6, 0.1], [0.5, 0.2]]]), np.array([[[0.1, 0.2], [0.3, 0.4]]])
    draws = iter([tied, clean])
    monkeypatch.setattr(games, "sample_class_batch", lambda *args: next(draws))
    game = _draw_cardinal_game(None, GameSource(m=2, n=2))
    assert game.u_row == ((0.6, 0.1), (0.5, 0.2))
    assert next(draws, None) is None


CRRA_SIDES = st.one_of(st.just(1), st.integers(2, 6))


@given(
    CRRA_SIDES,
    CRRA_SIDES,
    st.sampled_from(list(GameClass)),
    st.sampled_from([PI, COND_ITERATIONS, SURVIVOR_DIST, UNDOMINATED_DIST, PURE_NASH_DIST, POINT_RAT_UNIQUE]),
    st.floats(0.05, 1.0),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_pure_metrics_are_crra_invariant(m, n, game_class, metric, alpha, master):
    # CRRA is strictly increasing, so no pure metric may see it.
    if game_class.requires_square:
        n = m
    source = GameSource(m=m, n=n, game_class=game_class)
    spec = ExperimentSpec(metric, source, 200, Seed(master), batch_size=64)
    try:
        want = run(spec)
    except NoConditioningEventsError:
        with pytest.raises(NoConditioningEventsError):
            run(replace(spec, source=replace(source, crra_alpha=alpha)))
        return
    assert run(replace(spec, source=replace(source, crra_alpha=alpha))) == want


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


@pytest.mark.parametrize(
    "source",
    [GameSource(m=4, n=4), GameSource(m=3, n=5, game_class=GameClass.STRAT_COMPLEMENTS), GameSource(dims=(3, 2, 3))],
    ids=["4x4", "3x5-complements", "3x2x3"],
)
def test_a_group_of_batches_is_the_merge_of_its_batches(source):
    spec = ExperimentSpec(MIXED_PI, source, 700, SEED, batch_size=256)
    group = _mixed_batch_tallies(spec, 0, 700)
    batches = montecarlo._merge(_mixed_batch_tallies(spec, i, size) for i, size in enumerate((256, 256, 188)))
    assert group == batches and group["lp_checks"] > 0


def test_mixed_groups_do_not_change_results(monkeypatch):
    spec = ExperimentSpec(MIXED_COND_ITERATIONS, GameSource(m=3, n=4), 950, SEED, batch_size=100)
    worker = montecarlo._mixed_batch_tallies
    calls = []

    def recorded(spec, index, size):
        calls.append((index, size))
        return worker(spec, index, size)

    monkeypatch.setattr(montecarlo, "_mixed_batch_tallies", recorded)
    want = montecarlo._run_batches(spec, 1)
    assert calls == [(0, 950)]  # the default budget holds the whole run
    estimate = run(spec)
    for batches, items in ((1, [(i, 100) for i in range(9)] + [(9, 50)]), (3, [(0, 300), (3, 300), (6, 300), (9, 50)])):
        monkeypatch.setattr(montecarlo, "MIXED_GROUP_BYTES", batches * 100 * montecarlo._game_bytes(spec))
        for threads in (1, 2, 4):
            calls.clear()
            assert montecarlo._run_batches(spec, threads) == want
            assert sorted(calls) == items
            assert run(spec, threads) == estimate


class _RecordingPool:
    """A stand-in ThreadPoolExecutor that records the threads a run uses
    (its ``max_workers`` and the calling thread) and runs what is submitted
    in the calling thread."""

    def __init__(self, made, max_workers):
        made.append(max_workers + 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_thread_pool_is_clamped_to_items_and_cpus(monkeypatch):
    made = []
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers))
    spec = ExperimentSpec(PI, GameSource(m=3, n=3), 30, SEED, batch_size=10)
    want = montecarlo._run_batches(spec, 1)
    for cpus, workers in ((64, 3), (2, 2), (1, None), (None, None)):
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: cpus)
        made.clear()
        assert montecarlo._run_batches(spec, 10**6) == want
        assert made == ([] if workers is None else [workers]), cpus
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 64)
    made.clear()
    # one batch, and a mixed run of three batches in one group: no pool
    montecarlo._run_batches(replace(spec, samples=10), 10**6)
    montecarlo._run_batches(ExperimentSpec(MIXED_PI, GameSource(m=3, n=3), 600, SEED), 10**6)
    assert made == []


def test_one_pool_rule_for_batches_and_enumeration(monkeypatch):
    # Both callers go through kernels.run_work_items: one work item starts
    # no pool, and several start one thread per item up to the CPUs.
    made = []
    monkeypatch.setattr(kernels, "ThreadPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers))
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 64)
    spec = ExperimentSpec(PI, GameSource(m=3, n=3), 10, SEED, batch_size=10)
    montecarlo._run_batches(spec, 10**6)
    enumeration.enumerate_2xn(5)  # 3840 states: one chunk
    enumeration.enumerate_undominated_3xn(5)  # 120 second rankings: one block
    assert made == []
    montecarlo._run_batches(replace(spec, samples=40), 10**6)
    enumeration.enumerate_2xn(6)  # 46080 states: six chunks, the last short
    enumeration.enumerate_undominated_3xn(6)  # 720 second rankings: six blocks
    assert made == [4, 6, 6]
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
    made.clear()
    enumeration.enumerate_2xn(6)
    enumeration.enumerate_undominated_3xn(6)
    assert made == [2, 2]


def test_run_work_items_keeps_item_order():
    items = [(i, i * i) for i in range(7)]
    for threads in (1, 2, 3, 10):
        assert kernels.run_work_items(lambda a, b: a - b, items, threads) == [a - b for a, b in items]


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
        pytest.param(PI, BIMATRIX_3X4, Estimate(0.328, 0.006061023015960259, 6000, 1968), id="pi-source0-want0"),
        pytest.param(COND_ITERATIONS, BIMATRIX_3X4, Estimate(3.006605691056911, 0.01945321364385296, 6000, 1968), id="cond-iterations-source1-want1"),
        pytest.param(SURVIVOR_DIST, BIMATRIX_3X4, HistogramEstimate({1: 1968, 2: 1175, 3: 1725, 4: 1132}, 6000), id="survivor-dist-source2-want2"),
        pytest.param(SURVIVOR_MEAN, BIMATRIX_3X4, Estimate(2.3368333333333333, 0.014473651110429881, 6000, 6000), id="survivor-mean-source3-want3"),
        pytest.param(UNDOMINATED_MEAN, BIMATRIX_3X4, Estimate(2.888333333333333, 0.01099988550220676, 6000, 6000), id="undominated-mean-source4-want4"),
        pytest.param(UNDOMINATED_DIST, BIMATRIX_3X4, HistogramEstimate({1: 339, 2: 1533, 3: 2587, 4: 1541}, 6000), id="undominated-dist-source5-want5"),
        pytest.param(PURE_NASH_DIST, BIMATRIX_3X4, HistogramEstimate({0: 1401, 1: 3266, 2: 1246, 3: 87}, 6000), id="pure-nash-dist-source6-want6"),
        pytest.param(POINT_RAT_UNIQUE, BIMATRIX_3X4, Estimate(0.5021666666666667, 0.006454911638377341, 6000, 3013), id="point-rat-unique-source7-want7"),
        pytest.param(SURVIVOR_DIST, BIMATRIX_2X5, HistogramEstimate({1: 2964, 2: 1284, 3: 1287, 4: 420, 5: 45}, 6000), id="survivor-dist-source8-want8"),
        pytest.param(UNDOMINATED_DIST, BIMATRIX_2X5, HistogramEstimate({1: 1148, 2: 2578, 3: 1739, 4: 484, 5: 51}, 6000), id="undominated-dist-source9-want9"),
        pytest.param(PURE_NASH_DIST, BIMATRIX_2X5, HistogramEstimate({0: 1229, 1: 3559, 2: 1212}, 6000), id="pure-nash-dist-source10-want10"),
        pytest.param(PI, THREE_PLAYER, Estimate(0.24566666666666667, 0.005557495772311415, 6000, 1474), id="pi-source11-want11"),
        pytest.param(SURVIVOR_MEAN, THREE_PLAYER, Estimate(1.7261666666666666, 0.005757340037627294, 6000, 6000), id="survivor-mean-source12-want12"),
        pytest.param(UNDOMINATED_DIST, THREE_PLAYER, HistogramEstimate({1: 751, 2: 5249}, 6000), id="undominated-dist-source13-want13"),
        pytest.param(POINT_RAT_UNIQUE, BIMATRIX_2X5, Estimate(0.5931666666666666, 0.00634192363328118, 6000, 3559), id="point-rat-unique-source14-want14"),
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
        pytest.param(MIXED_PI, Estimate(0.4, 0.015491933384829668, 1000, 400), id="mixed-pi-want0"),
        pytest.param(MIXED_COND_ITERATIONS, Estimate(3.0525, 0.04377957289086162, 1000, 400), id="mixed-cond-iterations-want1"),
        pytest.param(RATIONALIZABLE_MEAN, Estimate(2.0, 0.031192514694602182, 1000, 1000), id="rationalizable-mean-want2"),
    ],
)
def test_mixed_metrics_at_a_fixed_seed(metric, want):
    assert run(ExperimentSpec(metric, GameSource(m=3, n=4), 1000, MIXED_PINNED)) == want


def test_solvability_chain_at_a_fixed_seed():
    source = GameSource(m=4, n=4)
    assert solvability_chain(source, 1000, MIXED_PINNED) == {
        "pure": Estimate(0.211, 0.012902674141432851, 1000, 211),
        "mixed": Estimate(0.305, 0.014559361249725209, 1000, 305),
        "point_rat_unique": Estimate(0.433, 0.015668790636165893, 1000, 433),
    }
    tallies = montecarlo._run_batches(ExperimentSpec(MIXED_PI, source, 1000, MIXED_PINNED), 1)
    assert (tallies["lp_checks"], tallies["lp_fallbacks"]) == (2039, 0)


def test_bound_checks_at_a_fixed_seed():
    (row,) = bound_checks([(3, 6)], 6000, PINNED)
    assert (row.pi_hat, row.sr_less_hat) == (1147 / 6000, 2320 / 6000)


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


def _records_loop(n):
    """The records law one factor at a time: the Poisson-binomial recurrence
    over Bernoulli(1/i), i = 1..n, dropping a tail that underflows to 0.0.
    The reference for records_law's block products."""
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


def _padded(*laws):
    size = max(law.size for law in laws)
    return [np.pad(law, (0, size - law.size)) for law in laws]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000, 10_000])
def test_records_law_matches_the_sequential_recurrence(n):
    # Block boundaries at 64 and 128; the products sum in another order, so
    # the entries agree to rounding, and the last kept entries (below 1e-300)
    # may differ in where the tail underflows.
    law = kernels.records_law(n)
    assert law[-1] > 0
    got, want = _padded(law, _records_loop(n))
    assert np.abs(got - want).max() <= 1e-15
    big = want > 1e-200
    assert (np.abs(got - want)[big] <= 1e-12 * want[big]).all()


@pytest.mark.parametrize("n", [200, 1000])
def test_records_law_no_less_accurate_than_the_recurrence(n):
    exact_law = np.array([0.0] + [float(p) for p in exact.undominated_distribution_2xn(n)])
    block, loop, want = _padded(kernels.records_law(n), _records_loop(n), exact_law)
    assert np.abs(block - want).max() <= np.abs(loop - want).max()


@pytest.mark.parametrize(
    "want",
    [
        CltReport(100, 20000, 0.1080753449994229, 4.9106, 4.80354781739087, 4.9299391018319705,
                  4.82264249943689, -0.004829265105852322, 2.7992795410098337),
        CltReport(10_000, 20000, 0.0841487367032856, 9.71125, 8.637905332766639, 9.73584877465621,
                  8.763210760632793, 0.09367423133264655, 3.4113237173792803),
        CltReport(100_000, 20000, 0.08027198530911805, 12.04585, 10.571276341317066, 12.069670770133571,
                  10.76181874487349, 0.17511893570108156, 3.269348443267043),
    ],
    ids=lambda report: f"n{report.n}",
)
def test_clt_check_at_a_fixed_seed(want):
    # The values drawn from the sequential recurrence's law: the block
    # products move no sample.
    assert clt_check(want.n, want.samples, Seed(11)) == want


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
