"""Seeded, parallel Monte Carlo experiments over random games.

Every experiment is deterministic in (spec, seed): work is split into
batches, batch ``i`` draws from its own counter-derived random stream, and
batch results are exact integer tallies whose merge is associative, so the
estimates are bit-identical for any thread count or completion order. The
batch size is part of the stream layout; it is derived deterministically
from the game dimensions unless pinned explicitly in the spec.

Draws stay per batch, but a mixed run decides its batches in groups: a
group is a run of consecutive batches, as many as fit in
``MIXED_GROUP_BYTES`` by the capacity guard's per-game estimate (at least
one), whose draws are concatenated and decided by one call of each batch
rule. The group size depends on the spec alone, so the tallies do not
depend on the thread count either. A pure batch is its own work item. Work
items run by :func:`domsolve._simkernels.run_work_items`, the pool rule the
enumeration oracles share: a pool starts only for two or more items, and
min(threads, items, CPUs) threads, the calling one among them, take the
items in turn.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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

# The rules that decide a metric's games. A metric names its rule: workers and
# kernels are looked up when a batch runs (the benchmark's tracer swaps them).
_ELIMINATION, _PURE_NASH, _NEVER_BEST_RESPONSE, _MIXED = "elimination", "pure-nash", "never-best-response", "mixed"

# An experiment whose work item (a batch, or a mixed run's group of batches)
# would need more than this (estimated before anything is allocated) raises
# CapacityError; about one work item per thread is in flight at a time.
BATCH_BYTES_LIMIT = 1 << 30
# Estimated bytes of a mixed run's group of batches. A mixed batch is
# thousands of small numpy calls that hold the GIL, so larger calls pay off
# and let a second thread help: mixed-pi 5x5 with 8192 games took 293 / 385
# ms at threads 1 / 2 with one batch per call, 194 / 184 at 16 MiB, 154 / 109
# at 64 MiB and 154 / 132 at 128 MiB, where the peak RSS of a 5x5, 7x7 and
# 10x10 run rose from 70 to 100 MB (60 MB with one batch; 2 vCPUs). Pure
# batches stay one per work item: 16 MiB groups raised the wide-games peak
# RSS from 50 to 59 MB.
MIXED_GROUP_BYTES = 64 << 20
# Most batches of one run, checked before the list of batch sizes is built.
# 2^20 single-game batches of 2x2 pi take over 100 s; at the default batch
# size the cap is 8.6e9 samples of small games and 4e7 of 5x200.
MAX_BATCHES = 1 << 20
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
        if _TABLE[self.metric].rule == _MIXED:
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


def _bernoulli(tallies: dict, key: str, samples: int) -> Estimate:
    p = tallies[key] / samples
    return Estimate(p, math.sqrt(p * (1 - p) / samples), samples, tallies[key])


def _mean(tallies: dict, key: str, samples: int, count: int | None = None) -> Estimate:
    """Mean of the values tallied as ``key``_sum and _sq over ``count`` games (default all)."""
    total, sq_total = tallies[key + "_sum"], tallies[key + "_sq"]
    count = samples if count is None else count
    mean = total / count
    if count > 1:
        var = (sq_total - total * total / count) / (count - 1)
        se = math.sqrt(max(var, 0.0) / count)
    else:
        se = 0.0
    return Estimate(mean, se, samples, count)


def _solvable_mean(tallies: dict, key: str, samples: int) -> Estimate:
    if tallies["solvable"] == 0:
        raise NoConditioningEventsError(f"no solvable games sampled ({samples} draws)")
    return _mean(tallies, key, samples, tallies["solvable"])


def _histogram(tallies: dict, key: str, samples: int) -> HistogramEstimate:
    return HistogramEstimate(dict(sorted(tallies[key].items())), samples)


class _Metric(NamedTuple):
    rule: str
    tally: str  # the tally key, or the common prefix of a mean's two keys
    estimate: Callable[[dict, str, int], Estimate | HistogramEstimate]


_TABLE = {
    PI: _Metric(_ELIMINATION, "solvable", _bernoulli),
    COND_ITERATIONS: _Metric(_ELIMINATION, "iter", _solvable_mean),
    SURVIVOR_DIST: _Metric(_ELIMINATION, "sc_hist", _histogram),
    SURVIVOR_MEAN: _Metric(_ELIMINATION, "sc", _mean),
    UNDOMINATED_MEAN: _Metric(_ELIMINATION, "uc", _mean),
    UNDOMINATED_DIST: _Metric(_ELIMINATION, "uc_hist", _histogram),
    PURE_NASH_DIST: _Metric(_PURE_NASH, "nash_hist", _histogram),
    MIXED_PI: _Metric(_MIXED, "solvable", _bernoulli),
    MIXED_COND_ITERATIONS: _Metric(_MIXED, "iter", _solvable_mean),
    RATIONALIZABLE_MEAN: _Metric(_MIXED, "rat_cols", _mean),
    POINT_RAT_UNIQUE: _Metric(_NEVER_BEST_RESPONSE, "unique", _bernoulli),
}
METRICS = tuple(_TABLE)


def _batch_sizes(samples: int, batch_size: int) -> list[int]:
    full, rem = divmod(samples, batch_size)
    if full + (rem > 0) > MAX_BATCHES:
        raise exact.CapacityError(f"{samples} samples take more than {MAX_BATCHES} batches of {batch_size}")
    return [batch_size] * full + ([rem] if rem else [])


def _all_one(counts) -> np.ndarray:
    """Per game, whether every player's count is 1."""
    return np.logical_and.reduce([c == 1 for c in counts])


def _pure_batch_tallies(spec: ExperimentSpec, index: int, size: int) -> dict:
    """Integer tallies of one batch under the metric's pure rule. The
    ``sc_*`` and ``uc_*`` keys hold the reported player's survivor and
    undominated counts.

    The never-best-response and pure-Nash rules tally the metric's key
    alone; neither runs the elimination. The elimination tallies the integer
    sums (``solvable``, ``iter_*``, ``sc_*``, ``uc_*``, and ``sr_less``, the
    games where player 0, Row in a bimatrix, loses an action), and for a
    histogram metric also its one ``Counter``."""
    src = spec.source
    rule, key, estimate = _TABLE[spec.metric]
    payoffs = _draw_batch(spec.seed.generator(index), src, size)
    if rule == _NEVER_BEST_RESPONSE:
        return {key: int(_all_one(kernels.point_rationalizable_counts(*payoffs)).sum())}
    if rule == _PURE_NASH:
        return {key: Counter(kernels.pure_nash_counts(*payoffs).tolist())}
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
    if estimate is _histogram:
        tallies[key] = Counter({"sc_hist": survivors, "uc_hist": undominated}[key].tolist())
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
    """Mixed, pure and point-rationalizable tallies of ``size`` games from
    batch ``index`` on: each batch drawn from its own stream as a pure batch
    is, then all of them decided together by one call of each rule. A size
    of at most one batch is that batch alone."""
    batch = spec.effective_batch_size()
    draws = [
        _draw_batch(spec.seed.generator(index + j), spec.source, min(batch, size - start))
        for j, start in enumerate(range(0, size, batch))
    ]
    payoffs = draws[0] if len(draws) == 1 else [np.concatenate(stacks) for stacks in zip(*draws)]
    del draws  # a group keeps only the concatenated copy through the rules
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
        "pure": _bernoulli(tallies, "pure_solvable", samples),
        "mixed": _bernoulli(tallies, "solvable", samples),
        "point_rat_unique": _bernoulli(tallies, "prat_unique", samples),
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
    gap-game copies. Players may share a solver call, but only when their
    widest checks have one shape, so no check is padded past its own
    player's widest."""
    cells = math.prod(dims)
    return 32 * len(dims) * cells + sum(24 * k * (k + 1) * (k + cells // k + 1) for k in dims)


def _game_bytes(spec: ExperimentSpec) -> int:
    """The capacity guard's upper estimate of the bytes one game adds to a
    work item of ``spec``."""
    dims = spec.source.shape
    need = kernels.batch_bytes(1, dims)
    if _TABLE[spec.metric].rule == _MIXED:
        need += _mixed_game_bytes(dims)
    return need


def _group_batches(spec: ExperimentSpec) -> int:
    """Batches per work item: as many as fit in ``MIXED_GROUP_BYTES`` for a
    mixed metric, at least one; one for a pure metric."""
    if _TABLE[spec.metric].rule != _MIXED:
        return 1
    return max(1, MIXED_GROUP_BYTES // (spec.effective_batch_size() * _game_bytes(spec)))


def _check_capacity(spec: ExperimentSpec) -> None:
    if max(spec.source.shape) > MAX_ACTIONS:
        raise exact.CapacityError(f"at most {MAX_ACTIONS} actions per player (ranks are int16)")
    games_at_once = spec.effective_batch_size() * _group_batches(spec)
    need = games_at_once * _game_bytes(spec)
    if need > BATCH_BYTES_LIMIT:
        raise exact.CapacityError(
            f"a work item of {games_at_once} games needs about {need / 2**30:.3g} GiB, "
            f"above the {BATCH_BYTES_LIMIT / 2**30:g} GiB limit"
        )


def _run_batches(spec: ExperimentSpec, threads: int) -> dict:
    """The merged tallies of every work item: a batch, or a mixed run's
    group of consecutive batches (the worker's ``size`` is the item's game
    count)."""
    _check_capacity(spec)
    sizes = _batch_sizes(spec.samples, spec.effective_batch_size())
    group = _group_batches(spec)
    starts = range(0, len(sizes), group)
    games_per_item = [sum(sizes[i : i + group]) for i in starts]
    worker = _mixed_batch_tallies if _TABLE[spec.metric].rule == _MIXED else _pure_batch_tallies
    items = [(spec, i, s) for i, s in zip(starts, games_per_item)]
    return _merge(kernels.run_work_items(worker, items, threads))


def run(spec: ExperimentSpec, threads: int = 1) -> Estimate | HistogramEstimate:
    """Run one experiment; conditional metrics raise
    :class:`NoConditioningEventsError` when no game satisfied the condition."""
    metric = _TABLE[spec.metric]
    return metric.estimate(_run_batches(spec, threads), metric.tally, spec.samples)


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
    if metric in _TABLE and _TABLE[metric].estimate is _histogram:
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
# Largest n of clt_check: records_law's recurrence and block products are
# linear in n (about 0.05 s at this n).
CLT_MAX_N = 10**5
# Bytes per sample that clt_check holds at its peak, an upper estimate: the
# counts, their standardized copy and the temporaries of the moments and the
# KS distance (tracemalloc peaks read 32).
CLT_SAMPLE_BYTES = 40


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
    """Sample skewness and raw kurtosis (normal = 3), population moments;
    NaN for a sample without spread."""
    d = z - z.mean()
    m2 = (d * d).mean()
    if m2 == 0:
        return math.nan, math.nan
    return float((d**3).mean() / m2**1.5), float((d**4).mean() / (m2 * m2))


def clt_check(n: int, samples: int, seed: Seed) -> CltReport:
    """Sample surviving column counts of 2 x n games, standardize with the
    exact mean/variance, and measure the fit to the standard normal.

    ``kurtosis`` is the raw fourth standardized moment (normal = 3). The
    counts are drawn from their exact law (:func:`_simkernels.records_law`,
    built once per call), ``CLT_CHUNK`` samples per random stream, so a
    sample costs O(log n); 100 <= n <= ``CLT_MAX_N`` and samples >= 2 required,
    and a sample too large for ``BATCH_BYTES_LIMIT`` is refused before the law
    is built.
    """
    if n < 100:
        raise ValueError("clt_check requires n >= 100")
    if n > CLT_MAX_N:
        raise exact.CapacityError(f"clt_check supports n <= {CLT_MAX_N}")
    if samples < 2:
        raise ValueError("clt_check requires samples >= 2")
    sizes = _batch_sizes(samples, CLT_CHUNK)
    if samples * CLT_SAMPLE_BYTES > BATCH_BYTES_LIMIT:
        raise exact.CapacityError(
            f"clt_check holds about {samples * CLT_SAMPLE_BYTES / 2**30:.3g} GiB for {samples} samples, "
            f"above the {BATCH_BYTES_LIMIT / 2**30:g} GiB limit"
        )
    law = kernels.records_law(n)
    values = np.concatenate(
        [kernels.survivors_2xn_batch(seed.generator(index), size, law) for index, size in enumerate(sizes)]
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
        pi, sr_less = (_bernoulli(tallies, key, samples) for key in ("solvable", "sr_less"))
        pi_bound = float(exact.solvable_probability_lower_bound(m, n))
        sr_bound = exact.row_elimination_probability_bound(m, n)
        rows.append(
            BoundCheckRow(
                m=m,
                n=n,
                samples=samples,
                pi_hat=pi.mean,
                pi_se=pi.se,
                pi_lower_bound=pi_bound,
                pi_ok=pi.mean >= pi_bound - 3 * _guard_se(pi.mean, pi_bound, samples),
                sr_less_hat=sr_less.mean,
                sr_less_se=sr_less.se,
                sr_less_bound=sr_bound,
                sr_ok=sr_less.mean <= sr_bound + 3 * _guard_se(sr_less.mean, sr_bound, samples),
            )
        )
    return rows
