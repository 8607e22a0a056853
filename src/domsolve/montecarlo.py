"""Seeded, parallel Monte Carlo experiments over random games.

Every experiment is deterministic in (spec, seed): work is split into
batches, batch ``i`` draws from its own counter-derived random stream, and
batch results are exact integer tallies whose merge is associative, so the
estimates are bit-identical for any thread count or completion order. The
batch size is part of the stream layout; it is derived deterministically
from the game dimensions unless pinned explicitly in the spec.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _simkernels as kernels
from . import exact, games, rationalizability
from .games import COL, GameClass, Seed, UNIFORM
# The per-game reference, bound here for callers that wrap or compare it
# (perfbench/tracing.py installs a span on montecarlo.rationalizable_sets).
from .rationalizability import rationalizable_sets  # noqa: F401

# Every metric runs on bimatrix and N-player sources. Survivor, undominated
# and rationalizable-mean metrics report one player's counts, that of
# GameSource.reported: Column in a bimatrix, player 0 of N players. Iteration
# metrics condition on (pure or mixed) solvability.
PI = "pi"
COND_ITERATIONS = "cond-iterations"
SURVIVOR_DIST = "survivor-dist"
SURVIVOR_MEAN = "survivor-mean"
UNDOMINATED_MEAN = "undominated-mean"
UNDOMINATED_DIST = "undominated-dist"
PURE_NASH_DIST = "pure-nash-dist"
MIXED_PI = "mixed-pi"
MIXED_COND_ITERATIONS = "mixed-cond-iterations"
RATIONALIZABLE_MEAN = "rationalizable-mean"
POINT_RAT_UNIQUE = "point-rat-unique"

METRICS = (
    PI,
    COND_ITERATIONS,
    SURVIVOR_DIST,
    SURVIVOR_MEAN,
    UNDOMINATED_MEAN,
    UNDOMINATED_DIST,
    PURE_NASH_DIST,
    MIXED_PI,
    MIXED_COND_ITERATIONS,
    RATIONALIZABLE_MEAN,
    POINT_RAT_UNIQUE,
)
_MIXED_METRICS = (MIXED_PI, MIXED_COND_ITERATIONS, RATIONALIZABLE_MEAN)
# The tally key of the one histogram each histogram metric reads.
_HISTOGRAM_KEYS = {SURVIVOR_DIST: "sc_hist", UNDOMINATED_DIST: "uc_hist", PURE_NASH_DIST: "nash_hist"}

# An experiment whose batch would need more than this (estimated before
# anything is allocated) raises CapacityError; about one batch per thread is
# in flight at a time.
BATCH_BYTES_LIMIT = 1 << 30
# Ranks are stored as int16.
MAX_ACTIONS = 32767


class NoConditioningEventsError(RuntimeError):
    """A conditional metric saw zero conditioning events."""


@dataclass(frozen=True)
class GameSource:
    """What to sample: an m x n bimatrix game of a class, or a uniform
    baseline N-player game when ``dims`` is set."""

    m: int = 0
    n: int = 0
    game_class: GameClass = GameClass.BASELINE
    distribution: str = UNIFORM
    crra_alpha: float | None = None
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
            if len(self.dims) < 2 or any(d < 1 for d in self.dims):
                raise ValueError("dims needs >= 2 players with >= 1 action each")
            if (self.game_class, self.distribution, self.crra_alpha) != (GameClass.BASELINE, UNIFORM, None):
                raise ValueError("N-player sources draw uniform baseline games only")
        else:
            if self.m < 1 or self.n < 1:
                raise ValueError("m and n must be >= 1")
            if self.game_class.requires_square and self.m != self.n:
                raise ValueError(f"{self.game_class.value} requires m = n")
        games.check_payoff_law(self.distribution, self.crra_alpha)

    @property
    def is_nplayer(self) -> bool:
        return self.dims is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dims or (self.m, self.n)

    @property
    def reported(self) -> int:
        return 0 if self.is_nplayer else COL


@dataclass(frozen=True)
class ExperimentSpec:
    metric: str
    source: GameSource
    samples: int
    seed: Seed
    batch_size: int | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def effective_batch_size(self) -> int:
        if self.batch_size is not None:
            return self.batch_size
        if self.metric in _MIXED_METRICS:
            return 256
        # sum over players of m_k^2 * P_k: each player's outrank bitsets
        dims = self.source.shape
        return max(32, min(8192, 2**23 // (math.prod(dims) * sum(dims))))


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with its standard error.

    For Bernoulli metrics ``se`` is sqrt(p(1-p)/N); for means it is the
    sample standard deviation over sqrt of the conditioning count.
    """

    mean: float
    se: float
    samples_used: int
    conditioning_count: int


@dataclass(frozen=True)
class HistogramEstimate:
    counts: dict[int, int]
    samples: int

    def freq(self, value: int) -> float:
        return self.counts.get(value, 0) / self.samples

    def se(self, value: int) -> float:
        p = self.freq(value)
        return math.sqrt(p * (1 - p) / self.samples)


def _bernoulli_estimate(successes: int, samples: int) -> Estimate:
    p = successes / samples
    return Estimate(p, math.sqrt(p * (1 - p) / samples), samples, successes)


def _mean_estimate(total: int, sq_total: int, count: int, samples: int) -> Estimate:
    mean = total / count
    if count > 1:
        var = (sq_total - total * total / count) / (count - 1)
        se = math.sqrt(max(var, 0.0) / count)
    else:
        se = 0.0
    return Estimate(mean, se, samples, count)


def _batch_sizes(samples: int, batch_size: int) -> list[int]:
    full, rem = divmod(samples, batch_size)
    return [batch_size] * full + ([rem] if rem else [])


def _all_one(counts) -> np.ndarray:
    """Per game, whether every player's count is 1."""
    return np.logical_and.reduce([c == 1 for c in counts])


def _pure_batch_tallies(spec: ExperimentSpec, index: int, size: int) -> dict:
    """Integer tallies of one batch. The ``sc_*`` and ``uc_*`` keys hold the
    reported player's survivor and undominated counts.

    point-rat-unique gets ``unique`` alone and pure-nash-dist its pure-Nash
    histogram ``nash_hist`` alone; neither runs the elimination. Every other
    metric gets the integer sums (``solvable``, ``iter_*``, ``sc_*``,
    ``uc_*``, and ``sr_less``, the games where player 0, Row in a bimatrix,
    loses an action), and a histogram metric also its one ``Counter``:
    survivor-dist ``sc_hist``, undominated-dist ``uc_hist``."""
    src = spec.source
    payoffs = _draw_batch(spec.seed.generator(index), src, size)
    if spec.metric == POINT_RAT_UNIQUE:
        return {"unique": int(_all_one(kernels.point_rationalizable_counts(*payoffs)).sum())}
    if spec.metric == PURE_NASH_DIST:
        return {"nash_hist": Counter(kernels.pure_nash_counts(*payoffs).tolist())}
    out = kernels.eliminate_batch(*payoffs)
    survivors, undominated = out["survivors"][src.reported], out["undominated"][src.reported]
    solvable = out["solvable"]
    iters = out["iterations"]
    tallies = {
        "sr_less": int((out["survivors"][0] < src.shape[0]).sum()),
        "solvable": int(solvable.sum()),
        "iter_sum": int(iters[solvable].sum()),
        "iter_sq": int((iters[solvable] ** 2).sum()),
        "sc_sum": int(survivors.sum()),
        "sc_sq": int((survivors.astype(np.int64) ** 2).sum()),
        "uc_sum": int(undominated.sum()),
        "uc_sq": int((undominated.astype(np.int64) ** 2).sum()),
    }
    per_game = {"sc_hist": survivors, "uc_hist": undominated}
    key = _HISTOGRAM_KEYS.get(spec.metric)
    if key is not None:
        tallies[key] = Counter(per_game[key].tolist())
    return tallies


def _draw_batch(rng: np.random.Generator, src: GameSource, size: int) -> Sequence[np.ndarray]:
    """Each player's normal-form payoffs (size, m_0, ..., m_{N-1}) of ``size``
    games of either source kind, for pure and mixed batches alike."""
    if src.is_nplayer:
        return kernels.normal_form(games.sample_tensor_batch(rng, size, src.dims))
    return games.sample_class_batch(rng, size, src.m, src.n, src.game_class, src.distribution, src.crra_alpha)


def _draw_cardinal_game(rng: np.random.Generator, src: GameSource) -> games.CardinalBimatrix:
    """One game of a bimatrix source: a batch of one, drawn again while it
    has a tie (the per-game reference of the tests)."""
    return games._draw_game(rng, src.m, src.n, src.game_class, src.distribution, src.crra_alpha)


def _mixed_batch_tallies(spec: ExperimentSpec, index: int, size: int) -> dict:
    """Mixed, pure and point-rationalizable tallies of one batch, drawn as
    a pure batch is and decided together."""
    payoffs = _draw_batch(spec.seed.generator(index), spec.source, size)
    mixed = rationalizability.rationalizable_batch(*payoffs)
    rat = [alive.sum(axis=1) for alive in mixed["rationalizable"]]
    solvable = _all_one(rat)
    iters = mixed["iterations"][solvable]
    reported = rat[spec.source.reported]
    # The kernels read the payoffs' order only; a tie in the draw stays a
    # tie in all three rules (see the class sampler's tie policy).
    return {
        "solvable": int(solvable.sum()),
        "iter_sum": int(iters.sum()),
        "iter_sq": int((iters**2).sum()),
        "rat_cols_sum": int(reported.sum()),
        "rat_cols_sq": int((reported**2).sum()),
        "pure_solvable": int(kernels.eliminate_batch(*payoffs)["solvable"].sum()),
        "prat_unique": int(_all_one(kernels.point_rationalizable_counts(*payoffs)).sum()),
        "lp_checks": mixed["lp_checks"],
        "lp_fallbacks": mixed["lp_fallbacks"],
    }


def solvability_chain(
    source: GameSource, samples: int, seed: Seed, threads: int = 1
) -> dict[str, Estimate]:
    """Paired frequencies of pure solvability, mixed solvability and unique
    point-rationalizability on the same sampled games (the three events are
    nested per game, so the estimates are ordered by construction)."""
    spec = ExperimentSpec(MIXED_PI, source, samples, seed)
    tallies = _run_batches(spec, threads)
    return {
        "pure": _bernoulli_estimate(tallies["pure_solvable"], samples),
        "mixed": _bernoulli_estimate(tallies["solvable"], samples),
        "point_rat_unique": _bernoulli_estimate(tallies["prat_unique"], samples),
    }


def _merge(tallies: Iterable[dict]) -> dict:
    total: dict = {}
    for t in tallies:
        for key, value in t.items():
            if isinstance(value, Counter):
                total.setdefault(key, Counter()).update(value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _mixed_game_bytes(dims: tuple[int, ...]) -> int:
    """Upper estimate of the bytes one game adds to a mixed batch: 32 bytes
    a payoff cell per player, which covers the float64 payoff stacks with
    the copies the rules gather from them, and, per player and own action,
    one float64 simplex tableau against the opponent profiles with two
    gap-game copies."""
    cells = math.prod(dims)
    return 32 * len(dims) * cells + sum(24 * k * (k + 1) * (k + cells // k + 1) for k in dims)


def _check_capacity(spec: ExperimentSpec) -> None:
    dims = spec.source.shape
    if max(dims) > MAX_ACTIONS:
        raise exact.CapacityError(f"at most {MAX_ACTIONS} actions per player (ranks are int16)")
    batch = spec.effective_batch_size()
    need = kernels.batch_bytes(batch, dims)
    if spec.metric in _MIXED_METRICS:
        need += batch * _mixed_game_bytes(dims)
    if need > BATCH_BYTES_LIMIT:
        raise exact.CapacityError(
            f"a batch of {batch} games needs about {need / 2**30:.3g} GiB, "
            f"above the {BATCH_BYTES_LIMIT / 2**30:g} GiB limit"
        )


def _run_batches(spec: ExperimentSpec, threads: int) -> dict:
    _check_capacity(spec)
    sizes = _batch_sizes(spec.samples, spec.effective_batch_size())
    worker = _mixed_batch_tallies if spec.metric in _MIXED_METRICS else _pure_batch_tallies
    if threads <= 1:
        parts = [worker(spec, i, s) for i, s in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(worker, [spec] * len(sizes), range(len(sizes)), sizes))
    return _merge(parts)


def run(spec: ExperimentSpec, threads: int = 1) -> Estimate | HistogramEstimate:
    """Run one experiment; conditional metrics raise
    :class:`NoConditioningEventsError` when no game satisfied the condition."""
    tallies = _run_batches(spec, threads)
    n = spec.samples
    metric = spec.metric
    if metric in (PI, MIXED_PI):
        return _bernoulli_estimate(tallies["solvable"], n)
    if metric in (COND_ITERATIONS, MIXED_COND_ITERATIONS):
        count = tallies["solvable"]
        if count == 0:
            raise NoConditioningEventsError(
                f"no solvable games sampled ({n} draws)"
            )
        return _mean_estimate(tallies["iter_sum"], tallies["iter_sq"], count, n)
    if metric == SURVIVOR_MEAN:
        return _mean_estimate(tallies["sc_sum"], tallies["sc_sq"], n, n)
    if metric == UNDOMINATED_MEAN:
        return _mean_estimate(tallies["uc_sum"], tallies["uc_sq"], n, n)
    if metric in _HISTOGRAM_KEYS:
        return HistogramEstimate(dict(sorted(tallies[_HISTOGRAM_KEYS[metric]].items())), n)
    if metric == RATIONALIZABLE_MEAN:
        return _mean_estimate(tallies["rat_cols_sum"], tallies["rat_cols_sq"], n, n)
    if metric == POINT_RAT_UNIQUE:
        return _bernoulli_estimate(tallies["unique"], n)
    raise AssertionError(metric)  # pragma: no cover


@dataclass(frozen=True)
class SweepRow:
    metric: str
    source: GameSource
    samples: int
    seed: Seed
    estimate: float
    se: float
    conditioning_count: int


def sweep(
    metric: str,
    sources: Iterable[GameSource],
    samples: int,
    seed: Seed,
    threads: int = 1,
) -> list[SweepRow]:
    """One estimate per grid point; point i draws from ``seed.child(i)``, so
    no point shares random numbers with another run."""
    if metric in _HISTOGRAM_KEYS:
        raise ValueError("sweep supports scalar metrics only")
    rows = []
    for offset, source in enumerate(sources):
        point_seed = seed.child(offset)
        est = run(ExperimentSpec(metric, source, samples, point_seed), threads)
        rows.append(
            SweepRow(
                metric=metric,
                source=source,
                samples=samples,
                seed=point_seed,
                estimate=est.mean,
                se=est.se,
                conditioning_count=est.conditioning_count,
            )
        )
    return rows


@dataclass(frozen=True)
class CltReport:
    """Standardized surviving-count sample versus the normal limit."""

    n: int
    samples: int
    ks_distance: float
    sample_mean: float
    sample_var: float
    exact_mean: float
    exact_var: float
    skewness: float
    kurtosis: float


# Samples per random stream of clt_check; part of its stream layout.
CLT_CHUNK = 1 << 16
# Largest n of clt_check: records_law loops over i = 1..n in Python (about
# 0.4 s at this n, 5 s at 10^6).
CLT_MAX_N = 10**5


def _ks_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample ``z`` to the standard normal:
    max_i max(i/N - Phi(z_(i)), Phi(z_(i)) - (i-1)/N) over the sorted sample.
    Tied values share one Phi evaluation; over a run of ties the maximum sits
    at the run's last i in the first term and at its first i in the second."""
    values, counts = np.unique(z, return_counts=True)
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in values.tolist()])
    above = np.cumsum(counts) / z.size
    below = np.concatenate(([0.0], above[:-1]))
    return float(max((above - phi).max(), (phi - below).max()))


def _skew_kurtosis(z: np.ndarray) -> tuple[float, float]:
    """Sample skewness and raw kurtosis (normal = 3), population moments."""
    d = z - z.mean()
    m2 = (d * d).mean()
    return float((d**3).mean() / m2**1.5), float((d**4).mean() / (m2 * m2))


def clt_check(n: int, samples: int, seed: Seed) -> CltReport:
    """Sample surviving column counts of 2 x n games, standardize with the
    exact mean/variance, and measure the fit to the standard normal.

    ``kurtosis`` is the raw fourth standardized moment (normal = 3). The
    counts are drawn from their exact law (:func:`_simkernels.records_law`,
    built once per call), ``CLT_CHUNK`` samples per random stream, so a
    sample costs O(log n); 100 <= n <= ``CLT_MAX_N`` required.
    """
    if n < 100:
        raise ValueError("clt_check requires n >= 100")
    if n > CLT_MAX_N:
        raise exact.CapacityError(f"clt_check supports n <= {CLT_MAX_N}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    law = kernels.records_law(n)
    values = np.concatenate(
        [
            kernels.survivors_2xn_batch(seed.generator(index), size, law)
            for index, size in enumerate(_batch_sizes(samples, CLT_CHUNK))
        ]
    )
    mean = exact.mean_survivors_2xn(n, exact_limit=0)
    var = exact.var_survivors_2xn(n, exact_limit=0)
    z = (values - mean) / math.sqrt(var)
    skewness, kurtosis = _skew_kurtosis(z)
    return CltReport(
        n=n,
        samples=samples,
        ks_distance=_ks_normal(z),
        sample_mean=float(values.mean()),
        sample_var=float(values.var(ddof=1)),
        exact_mean=float(mean),
        exact_var=float(var),
        skewness=skewness,
        kurtosis=kurtosis,
    )


@dataclass(frozen=True)
class BoundCheckRow:
    """One grid point of the bound suite.

    The pass flags use 3 * max(observed SE, SE at the bound value): with a
    rare event the observed SE degenerates to 0 at p_hat = 0, while the SE
    under the bound hypothesis keeps the test calibrated.
    """

    m: int
    n: int
    samples: int
    pi_hat: float
    pi_se: float
    pi_lower_bound: float
    pi_ok: bool
    sr_less_hat: float
    sr_less_se: float
    sr_less_bound: float
    sr_ok: bool


def _guard_se(p_hat: float, bound: float, samples: int) -> float:
    se_obs = math.sqrt(p_hat * (1 - p_hat) / samples)
    se_null = math.sqrt(bound * (1 - bound) / samples)
    return max(se_obs, se_null)


def bound_checks(
    grid: Iterable[tuple[int, int]],
    samples: int,
    seed: Seed,
    threads: int = 1,
) -> list[BoundCheckRow]:
    """Check the solvability lower bound and the row-elimination upper bound
    on each (m, n) grid point; point i draws from ``seed.child(i)``."""
    rows = []
    for offset, (m, n) in enumerate(grid):
        spec = ExperimentSpec(
            PI,
            GameSource(m=m, n=n),
            samples,
            seed.child(offset),
        )
        tallies = _run_batches(spec, threads)
        pi_hat = tallies["solvable"] / samples
        sr_hat = tallies["sr_less"] / samples
        pi_bound = float(exact.solvable_probability_lower_bound(m, n))
        sr_bound = exact.row_elimination_probability_bound(m, n)
        rows.append(
            BoundCheckRow(
                m=m,
                n=n,
                samples=samples,
                pi_hat=pi_hat,
                pi_se=math.sqrt(pi_hat * (1 - pi_hat) / samples),
                pi_lower_bound=pi_bound,
                pi_ok=pi_hat >= pi_bound - 3 * _guard_se(pi_hat, pi_bound, samples),
                sr_less_hat=sr_hat,
                sr_less_se=math.sqrt(sr_hat * (1 - sr_hat) / samples),
                sr_less_bound=sr_bound,
                sr_ok=sr_hat <= sr_bound + 3 * _guard_se(sr_hat, sr_bound, samples),
            )
        )
    return rows
