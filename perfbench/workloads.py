"""The benchmark's four workloads.

A workload builds one round of operations from (seed, round). An operation
is one call into domsolve's public API, which is timed, plus the check of its
output, which is not. Checks run after every call of the round has returned,
so no check warms a cache that a later timed call would use. Rounds are
identical in shape: every run attempts whole rounds of the same operations.

Random inputs come from ``Seed(seed, 64 * round + op)``; the games a check
re-decides with the scalar engine are picked by a generator seeded with
(seed, round). ``exact-oracles`` has no random inputs: the seed only picks
which Stirling rows and variance points are cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks
from domsolve import _simkernels as kernels
from domsolve import elimination, enumeration, exact, montecarlo, rationalizability
from domsolve.games import (
    COL,
    ROW,
    CardinalBimatrix,
    GameClass,
    OrdinalBimatrix,
    OrdinalTensorGame,
    Seed,
)
from domsolve.montecarlo import ExperimentSpec, GameSource

THREADS = 2  # nproc of the reference machine; results do not depend on it
CONFIRM_STREAM = 1 << 20  # offset of the stream a 3-SE miss is measured again on
SCALAR_GAMES = 48  # games per kernel operation re-decided by the scalar engine
CHAIN_GAMES = 8  # games per mixed operation re-decided game by game


@dataclass
class Op:
    name: str
    games: int  # games the call decides; 0 for exact tables
    call: Callable[[], object]
    check: Callable[[object, dict], list[str]]  # (output, outputs of the round by name)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], list[Op]]
    warmup: Callable[[], None]
    # each round in a forked child with clean module state (exact memoises)
    fresh_process_per_round: bool = False


def _stream(seed: int, rnd: int, op: int) -> Seed:
    return Seed(seed, 64 * rnd + op)


def _confirm(seed: Seed) -> Seed:
    return Seed(seed.master, seed.stream + CONFIRM_STREAM)


def _picker(seed: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd])


# -- small-games ------------------------------------------------------------


def _redraw_batch(spec: ExperimentSpec, pick: np.random.Generator):
    """(batch index, batch size, chosen game indices) of one batch of ``spec``."""
    size = spec.effective_batch_size()
    index = int(pick.integers(math.ceil(spec.samples / size)))
    this = min(size, spec.samples - index * size)
    chosen = np.sort(pick.choice(this, min(SCALAR_GAMES, this), replace=False))
    return index, this, chosen


def _bimatrix_games(spec, pick):
    index, size, chosen = _redraw_batch(spec, pick)
    src = spec.source
    rr, cc = kernels.sample_rank_batch(spec.seed.generator(index), size, src.m, src.n, src.game_class)
    return rr[chosen], cc[chosen]


def _ordinal(rr, cc) -> list[OrdinalBimatrix]:
    return [OrdinalBimatrix(r.tolist(), c.tolist()) for r, c in zip(rr, cc)]


def _kernel_check(label, spec, pick) -> list[str]:
    rr, cc = _bimatrix_games(spec, pick)
    problems = checks.bimatrix_kernel_matches(
        label, kernels.eliminate_batch(rr, cc), [elimination.metrics(g) for g in _ordinal(rr, cc)]
    )
    if spec.source.game_class is GameClass.STRAT_COMPLEMENTS:
        problems += checks.complements_ok(label, rr, cc)
    return problems


def _tensor_check(label, spec, pick) -> list[str]:
    index, size, chosen = _redraw_batch(spec, pick)
    dims = spec.source.dims
    ranks = [r[chosen] for r in kernels.sample_tensor_rank_batch(spec.seed.generator(index), size, dims)]
    traces = [
        elimination.iterate_nplayer(OrdinalTensorGame(dims, [r[g].T.tolist() for r in ranks]))
        for g in range(len(chosen))
    ]
    return checks.tensor_kernel_matches(label, kernels.eliminate_tensor_batch(ranks, dims), traces)


def _pointrat_check(label, spec, pick) -> list[str]:
    rr, cc = _bimatrix_games(spec, pick)
    sets = [rationalizability.point_rationalizable_sets(g) for g in _ordinal(rr, cc)]
    return checks.pointrat_kernel_matches(label, kernels.point_rationalizable_counts(rr, cc), sets)


def _run_conditional(spec):
    """A conditional metric raises when no game met the condition; for rare
    events (a solvable 10x10 game) that is a valid outcome, not a failure."""
    try:
        return montecarlo.run(spec, THREADS)
    except montecarlo.NoConditioningEventsError as err:
        return err


def _exact_gate(label, spec, want, est) -> list[str]:
    def gate(e):
        return checks.within_se(label, e.mean, e.se, float(want))

    return checks.confirmed(
        gate(est), lambda: gate(montecarlo.run(replace(spec, seed=_confirm(spec.seed)), THREADS))
    )


def _small_games(seed: int, rnd: int) -> list[Op]:
    pick = _picker(seed, rnd)

    def spec(i, metric, samples, **source):
        return ExperimentSpec(metric, GameSource(**source), samples, _stream(seed, rnd, i))

    pi77 = spec(0, "pi", 65536, m=7, n=7)
    cond1010 = spec(1, "cond-iterations", 65536, m=10, n=10)
    sc88 = spec(2, "pi", 65536, m=8, n=8, game_class=GameClass.STRAT_COMPLEMENTS)
    pi333 = spec(3, "pi", 32768, dims=(3, 3, 3))
    prat = spec(4, "point-rat-unique", 65536, m=3, n=10)
    pi26 = spec(5, "pi", 65536, m=2, n=6)
    cond210 = spec(6, "cond-iterations", 65536, m=2, n=10)
    surv220 = spec(7, "survivor-mean", 65536, m=2, n=20)

    def check_pi77(est, _):
        return checks.bernoulli_consistent("pi 7x7", est, pi77.samples) + _kernel_check("pi 7x7", pi77, pick)

    def check_cond1010(out, _):
        label = "cond-iterations 10x10"
        if isinstance(out, montecarlo.NoConditioningEventsError):
            problems = []
        else:
            problems = checks.iterations_consistent(label, out, cond1010.samples)
        return problems + _kernel_check(label, cond1010, pick)

    def check_sc88(est, _):
        label = "pi strat-complements 8x8"
        return checks.bernoulli_consistent(label, est, sc88.samples) + _kernel_check(label, sc88, pick)

    def check_pi333(est, _):
        return checks.bernoulli_consistent("pi 3x3x3", est, pi333.samples) + _tensor_check(
            "pi 3x3x3", pi333, pick
        )

    def check_prat(est, _):
        label = "point-rat-unique 3x10"
        want = (3 + 10 - 1) / (3 * 10)  # (m + n - 1) / (m n)
        return (
            checks.bernoulli_consistent(label, est, prat.samples)
            + _exact_gate(label, prat, want, est)
            + _pointrat_check(label, prat, pick)
        )

    def check_pi26(est, _):
        label = "pi 2x6"
        return (
            checks.bernoulli_consistent(label, est, pi26.samples)
            + _exact_gate(label, pi26, checks.solvable_probability_2xn(6), est)
            + checks.same_estimate(f"{label}, 2 threads vs 1", est, montecarlo.run(pi26, 1))
        )

    def check_cond210(est, _):
        label = "cond-iterations 2x10"
        return checks.iterations_consistent(label, est, cond210.samples) + _exact_gate(
            label, cond210, exact.mean_iterations_2xn(10), est
        )

    def check_surv220(est, _):
        return _exact_gate("survivor-mean 2x20", surv220, exact.mean_survivors_2xn(20), est)

    def op(name, s, check, call=None):
        return Op(name, s.samples, call or (lambda: montecarlo.run(s, THREADS)), check)

    return [
        op("pi 7x7", pi77, check_pi77),
        op("cond-iterations 10x10", cond1010, check_cond1010, lambda: _run_conditional(cond1010)),
        op("pi strat-complements 8x8", sc88, check_sc88),
        op("pi 3x3x3", pi333, check_pi333),
        op("point-rat-unique 3x10", prat, check_prat),
        op("pi 2x6", pi26, check_pi26),
        op("cond-iterations 2x10", cond210, check_cond210),
        op("survivor-mean 2x20", surv220, check_surv220),
    ]


def _warm_small_games() -> None:
    seed = Seed(0)
    for metric, source in (
        ("pi", GameSource(m=3, n=3)),
        ("pi", GameSource(m=3, n=3, game_class=GameClass.STRAT_COMPLEMENTS)),
        ("pi", GameSource(dims=(2, 2, 2))),
        ("point-rat-unique", GameSource(m=3, n=3)),
        ("survivor-mean", GameSource(m=2, n=3)),
    ):
        montecarlo.run(ExperimentSpec(metric, source, 512, seed, batch_size=256), THREADS)


# -- wide-games -------------------------------------------------------------

BOUND_GRID = ((2, 200), (5, 200))
BOUND_SAMPLES = 2048
CLT_N = 10_000
CLT_SAMPLES = 8192  # the 5% variance gate then sits at 3.2 SE


def _wide_games(seed: int, rnd: int) -> list[Op]:
    bound_seed = _stream(seed, rnd, 0)
    clt_seed = _stream(seed, rnd, 1)

    def bounds():
        return montecarlo.bound_checks(BOUND_GRID, BOUND_SAMPLES, bound_seed, THREADS)

    def check_bounds(rows, _):
        want = checks.solvable_probability_2xn(200)

        def gate(row):
            return checks.within_se("bounds 2x200 pi", row.pi_hat, row.pi_se, float(want))

        def again():
            return gate(montecarlo.bound_checks(BOUND_GRID[:1], BOUND_SAMPLES, _confirm(bound_seed), THREADS)[0])

        return checks.bound_rows_ok(rows, BOUND_GRID) + checks.confirmed(gate(rows[0]), again)

    def clt():
        return montecarlo.clt_check(CLT_N, CLT_SAMPLES, clt_seed)

    def check_clt(rep, _):
        def again(gate):
            return lambda: gate(montecarlo.clt_check(CLT_N, CLT_SAMPLES, _confirm(clt_seed)))

        problems = checks.equal("CLT shape", (rep.n, rep.samples), (CLT_N, CLT_SAMPLES))
        problems += checks.within_rel("CLT exact mean", rep.exact_mean, checks.survivor_mean_2xn(CLT_N), 1e-9)
        problems += checks.confirmed(checks.clt_mean_ok(rep), again(checks.clt_mean_ok))
        return problems + checks.confirmed(checks.clt_var_ok(rep), again(checks.clt_var_ok))

    return [
        Op("bound_checks n=200", BOUND_SAMPLES * len(BOUND_GRID), bounds, check_bounds),
        Op("clt_check n=10^4", CLT_SAMPLES, clt, check_clt),
    ]


def _warm_wide_games() -> None:
    montecarlo.bound_checks(((2, 20),), 512, Seed(0), THREADS)
    montecarlo.clt_check(100, 512, Seed(0))


# -- mixed-lp ---------------------------------------------------------------

# n -> samples; a mixed batch holds 256 games
CHAIN_SAMPLES = {3: 512, 4: 256, 5: 128, 6: 128}
GRID_ORACLE_MAX_N = 4  # the simplex-grid oracle supports at most 4 own actions


def _cardinal_games(source: GameSource, samples: int, seed: Seed, pick) -> list[CardinalBimatrix]:
    """The first games of one batch of a solvability chain, redrawn from
    that batch's stream: a uniform baseline game draws Row's then Column's
    m x n payoffs (ties, of probability ~2^-50, would raise here)."""
    size = ExperimentSpec(montecarlo.MIXED_PI, source, samples, seed).effective_batch_size()
    index = int(pick.integers(math.ceil(samples / size)))
    rng = seed.generator(index)
    shape = (source.m, source.n)
    games = []
    for _ in range(min(CHAIN_GAMES, samples - index * size)):
        u_row = rng.random(shape)
        games.append(CardinalBimatrix(u_row.tolist(), rng.random(shape).tolist()))
    return games


def _lp_verdicts(game: CardinalBimatrix) -> list:
    out = []
    for player, actions in ((ROW, game.m), (COL, game.n)):
        for action in range(actions):
            out.append(
                (
                    rationalizability.is_mixed_dominated(game, player, action),
                    enumeration.grid_mixed_dominance_oracle(game, player, action, resolution=checks.GRID_RESOLUTION),
                )
            )
    return out


def _mixed_lp(seed: int, rnd: int) -> list[Op]:
    pick = _picker(seed, rnd)
    ops = []
    for i, (n, samples) in enumerate(CHAIN_SAMPLES.items()):
        source = GameSource(m=n, n=n)
        chain_seed = _stream(seed, rnd, i)
        label = f"solvability_chain {n}x{n}"

        def call(source=source, samples=samples, chain_seed=chain_seed):
            return montecarlo.solvability_chain(source, samples, chain_seed, THREADS)

        def check(chain, _, n=n, source=source, samples=samples, chain_seed=chain_seed, label=label):
            want = float(2 * n - 1) / (n * n)  # unique point-rationalizable profile

            def gate(c):
                est = c["point_rat_unique"]
                return checks.within_se(f"{label} point-rat", est.mean, est.se, want)

            def again():
                return gate(montecarlo.solvability_chain(source, samples, _confirm(chain_seed), THREADS))

            problems = checks.chain_nested(label, chain)
            for key, est in chain.items():
                problems += checks.bernoulli_consistent(f"{label} {key}", est, samples)
            problems += checks.confirmed(gate(chain), again)
            games = _cardinal_games(source, samples, chain_seed, pick)
            problems += checks.reports_nested(label, [rationalizability.rationalizable_sets(g) for g in games])
            if n <= GRID_ORACLE_MAX_N:
                verdicts = [v for g in games for v in _lp_verdicts(g)]
                problems += checks.lp_agrees_with_grid(label, verdicts)
            return problems

        ops.append(Op(label, samples, call, check))
    return ops


def _warm_mixed_lp() -> None:
    montecarlo.solvability_chain(GameSource(m=3, n=3), 16, Seed(0), THREADS)


# -- exact-oracles ----------------------------------------------------------

ENUMERATION_N = range(1, 7)  # enumerate_2xn(7) alone takes ~35 s
SURVIVOR_N = 1000  # Stirling memo up to n: ~0.33 GB peak (1500: ~0.87 GB)
GRID_M = range(2, 13)
GRID_N_MAX = 200
VARIANCE_N = range(1, 401)
STIRLING_ROWS_CHECKED = 16
VARIANCE_POINTS_CHECKED = 4


def _exact_oracles(seed: int, rnd: int) -> list[Op]:
    pick = _picker(seed, rnd)
    ops = []
    for n in ENUMERATION_N:

        def check_2xn(rep, _, n=n):
            want = {
                "solvable": exact.solvable_probability_2xn(n),
                "iterations": exact.iteration_distribution_2xn(n),
                "undominated": exact.undominated_distribution_2xn(n),
                "survivors": exact.survivor_distribution_2xn(n),
                "mean": exact.mean_survivors_2xn(n),
                "var": exact.var_survivors_2xn(n),
            }
            return checks.enumeration_matches(n, rep, want) + checks.survivor_distribution_ok(
                n, want["survivors"], want["mean"]
            )

        ops.append(
            Op(f"enumerate_2xn({n})", math.factorial(n) * 2**n, lambda n=n: enumeration.enumerate_2xn(n), check_2xn)
        )
    for n in ENUMERATION_N:
        ops.append(
            Op(
                f"enumerate_undominated_3xn({n})",
                math.factorial(n) ** 2,
                lambda n=n: enumeration.enumerate_undominated_3xn(n),
                lambda counts, _, n=n: checks.table_3xn_matches(n, counts),
            )
        )

    def check_survivors(dist, _):
        rows = {SURVIVOR_N, *(int(k) for k in pick.integers(1, SURVIVOR_N, STIRLING_ROWS_CHECKED))}
        problems = checks.survivor_distribution_ok(SURVIVOR_N, dist, exact.mean_survivors_2xn(SURVIVOR_N))
        for n in sorted(rows):
            problems += checks.stirling_row_ok(n, exact.stirling_row(n))
        return problems

    def grid():
        return {(m, n): exact.mean_undominated(m, n) for m in GRID_M for n in range(m, GRID_N_MAX + 1)}

    def check_variances(values, outputs):
        problems = checks.equal("var_survivors_2xn(1)", values[0], 0)
        for n in ENUMERATION_N:
            rep = outputs[f"enumerate_2xn({n})"]
            if rep is not None:
                problems += checks.equal(f"var_survivors_2xn({n}) vs enumeration", values[n - 1], rep.var_survivors())
        later = [n for n in VARIANCE_N if n > max(ENUMERATION_N)]
        for n in sorted(int(k) for k in pick.choice(later, VARIANCE_POINTS_CHECKED, replace=False)):
            dist = exact.survivor_distribution_2xn(n)
            problems += checks.equal(f"var_survivors_2xn({n}) vs its distribution", values[n - 1], checks.variance_of(dist))
        return problems

    ops += [
        Op(
            f"survivor_distribution_2xn({SURVIVOR_N})",
            0,
            lambda: exact.survivor_distribution_2xn(SURVIVOR_N),
            check_survivors,
        ),
        Op("mean_undominated grid", 0, grid, lambda values, _: checks.mean_undominated_ok(values)),
        Op(
            f"var_survivors_2xn({VARIANCE_N.start}..{VARIANCE_N.stop - 1})",
            0,
            lambda: [exact.var_survivors_2xn(n) for n in VARIANCE_N],
            check_variances,
        ),
    ]
    return ops


def _no_warmup() -> None:
    """exact's memo caches start empty in every round, as in every fresh
    ``domsolve`` process."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-games", _small_games, _warm_small_games),
        Workload("wide-games", _wide_games, _warm_wide_games),
        Workload("mixed-lp", _mixed_lp, _warm_mixed_lp),
        Workload("exact-oracles", _exact_oracles, _no_warmup, fresh_process_per_round=True),
    )
}
