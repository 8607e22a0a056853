"""Shows that every correctness check of the benchmark rejects a wrong answer.

    python3 perfbench/selftest.py

Each case feeds a check a right output, which must pass, and the same output
made wrong in one place (an estimate shifted by 6 SE, a count off by one, a
Fraction off by 1/n!, ...), which must fail. Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from domsolve import _simkernels as kernels  # noqa: E402
from domsolve import elimination, enumeration, exact, montecarlo, rationalizability  # noqa: E402
from domsolve.games import (  # noqa: E402
    ROW,
    GameClass,
    OrdinalBimatrix,
    OrdinalTensorGame,
    Seed,
    sample_cardinal,
)
from domsolve.montecarlo import ExperimentSpec, GameSource  # noqa: E402

CASES: list[tuple[str, list[str], list[str]]] = []


def case(name: str, right: list[str], wrong: list[str]) -> None:
    CASES.append((name, right, wrong))


def ordinal_batch(m, n, count, seed, game_class=GameClass.BASELINE):
    rr, cc = kernels.sample_rank_batch(Seed(seed).generator(), count, m, n, game_class)
    return rr, cc, [OrdinalBimatrix(r.tolist(), c.tolist()) for r, c in zip(rr, cc)]


def statistical_cases() -> None:
    est = montecarlo.run(ExperimentSpec("pi", GameSource(m=2, n=6), 20000, Seed(5)))
    want = float(checks.solvable_probability_2xn(6))
    case("3-SE gate", checks.within_se("pi", est.mean, est.se, want),
         checks.within_se("pi", est.mean + 6 * est.se, est.se, want))
    miss = checks.within_se("pi", est.mean + 6 * est.se, est.se, want)
    case("confirmation of a 3-SE miss",
         checks.confirmed(miss, lambda: []),
         checks.confirmed(miss, lambda: checks.within_se("pi", est.mean - 6 * est.se, est.se, want)))
    case("Bernoulli estimate", checks.bernoulli_consistent("pi", est, 20000),
         checks.bernoulli_consistent("pi", replace(est, se=est.se * 1.01), 20000))
    cond = montecarlo.run(ExperimentSpec("cond-iterations", GameSource(m=2, n=5), 5000, Seed(5)))
    case("conditional iteration mean", checks.iterations_consistent("I", cond, 5000),
         checks.iterations_consistent("I", replace(cond, conditioning_count=0), 5000))
    case("thread determinism", checks.same_estimate("pi", est, replace(est)),
         checks.same_estimate("pi", est, replace(est, mean=math.nextafter(est.mean, 1))))


def kernel_cases() -> None:
    rr, cc, games = ordinal_batch(5, 5, 40, 7)
    batch = kernels.eliminate_batch(rr, cc)
    scalar = [elimination.metrics(g) for g in games]
    wrong = dict(batch, iterations=batch["iterations"].copy())
    wrong["iterations"][3] += 1
    case("bimatrix kernel vs scalar engine", checks.bimatrix_kernel_matches("k", batch, scalar),
         checks.bimatrix_kernel_matches("k", wrong, scalar))

    dims = (3, 3, 3)
    ranks = kernels.sample_tensor_rank_batch(Seed(8).generator(), 30, dims)
    tbatch = kernels.eliminate_tensor_batch(ranks, dims)
    traces = [elimination.iterate_nplayer(OrdinalTensorGame(dims, [r[g].T.tolist() for r in ranks]))
              for g in range(30)]
    twrong = dict(tbatch, survivors=[s.copy() for s in tbatch["survivors"]])
    twrong["survivors"][1][0] += 1
    case("tensor kernel vs scalar engine", checks.tensor_kernel_matches("t", tbatch, traces),
         checks.tensor_kernel_matches("t", twrong, traces))

    rr, cc, games = ordinal_batch(3, 10, 40, 9)
    counts = kernels.point_rationalizable_counts(rr, cc)
    sets = [rationalizability.point_rationalizable_sets(g) for g in games]
    bad_rows = counts[0].copy()
    bad_rows[0] += 1
    case("point-rationalizable kernel vs scalar sets", checks.pointrat_kernel_matches("p", counts, sets),
         checks.pointrat_kernel_matches("p", (bad_rows, counts[1]), sets))

    rr, cc, _ = ordinal_batch(6, 6, 20, 10, GameClass.STRAT_COMPLEMENTS)
    swapped = rr.copy()
    swapped[0] = swapped[0][:, ::-1]  # reverses Row's best responses across columns
    case("strategic complements", checks.complements_ok("sc", rr, cc), checks.complements_ok("sc", swapped, cc))


def wide_cases() -> None:
    grid = ((2, 20), (3, 20))
    rows = montecarlo.bound_checks(grid, 2000, Seed(11))
    case("bound rows", checks.bound_rows_ok(rows, grid),
         checks.bound_rows_ok([replace(rows[0], pi_ok=False), rows[1]], grid))
    case("bound values", [], checks.bound_rows_ok([replace(rows[0], pi_lower_bound=0.06), rows[1]], grid))
    rep = montecarlo.clt_check(400, 8192, Seed(12))
    case("CLT mean", checks.clt_mean_ok(rep),
         checks.clt_mean_ok(replace(rep, sample_mean=rep.exact_mean + 6 * math.sqrt(rep.exact_var / rep.samples))))
    case("CLT variance", checks.clt_var_ok(rep), checks.clt_var_ok(replace(rep, sample_var=rep.exact_var * 1.06)))
    mean = checks.survivor_mean_2xn(400)
    case("independent survivor mean", checks.within_rel("m", float(exact.mean_survivors_2xn(400)), mean, 1e-12),
         checks.within_rel("m", float(exact.mean_survivors_2xn(401)), mean, 1e-9))


def mixed_cases() -> None:
    chain = montecarlo.solvability_chain(GameSource(m=3, n=3), 64, Seed(13))
    swapped = dict(chain, pure=chain["point_rat_unique"], point_rat_unique=chain["pure"])
    case("chain nesting", checks.chain_nested("c", chain), checks.chain_nested("c", swapped))
    games = [sample_cardinal(3, 3, "uniform", Seed(14, i)) for i in range(6)]
    reports = [rationalizability.rationalizable_sets(g) for g in games]
    broken = object.__new__(type(reports[0]))  # bypasses the report's own inclusion check
    for field in ("rationalizable", "point_rationalizable", "pure_survivors", "mixed_solvable", "mixed_iterations"):
        object.__setattr__(broken, field, getattr(reports[0], field))
    object.__setattr__(broken, "point_rationalizable", ((0, 1, 2), (0, 1, 2)))
    object.__setattr__(broken, "rationalizable", ((0,), (0,)))
    case("per-game nesting", checks.reports_nested("r", reports), checks.reports_nested("r", [broken]))
    verdicts = []
    for g in games:
        for a in range(3):
            verdicts.append((rationalizability.is_mixed_dominated(g, ROW, a),
                             enumeration.grid_mixed_dominance_oracle(g, ROW, a, resolution=checks.GRID_RESOLUTION)))
    flipped = [(None, True)] + verdicts
    case("LP vs grid oracle", checks.lp_agrees_with_grid("lp", verdicts), checks.lp_agrees_with_grid("lp", flipped))
    clear = rationalizability.MixedCertificate((1, 2), (0.5, 0.5), 2 * checks.LP_MARGIN_FLOOR)
    case("LP certificate without a grid witness", [], checks.lp_agrees_with_grid("lp", [(clear, False)]))


def exact_cases() -> None:
    n = 5
    rep = enumeration.enumerate_2xn(n)
    want = {
        "solvable": exact.solvable_probability_2xn(n),
        "iterations": exact.iteration_distribution_2xn(n),
        "undominated": exact.undominated_distribution_2xn(n),
        "survivors": exact.survivor_distribution_2xn(n),
        "mean": exact.mean_survivors_2xn(n),
        "var": exact.var_survivors_2xn(n),
    }
    off = Fraction(1, math.factorial(n))
    bad_survivors = list(want["survivors"])
    bad_survivors[1] += off
    case("enumeration vs Fractions", checks.enumeration_matches(n, rep, want),
         checks.enumeration_matches(n, rep, dict(want, survivors=bad_survivors)))
    case("enumeration state count", [], checks.enumeration_matches(n, replace(rep, total_states=rep.total_states + 1), want))
    counts = enumeration.enumerate_undominated_3xn(6)
    case("3 x n table", checks.table_3xn_matches(6, counts),
         checks.table_3xn_matches(6, [counts[0] + 1] + counts[1:]))
    row = exact.stirling_row(30)
    case("Stirling row", checks.stirling_row_ok(30, row), checks.stirling_row_ok(30, [row[0]] + [row[1] + 1] + row[2:]))
    dist = exact.survivor_distribution_2xn(30)
    mean = exact.mean_survivors_2xn(30)
    case("survivor distribution total", checks.survivor_distribution_ok(30, dist, mean),
         checks.survivor_distribution_ok(30, dist[:-1] + [dist[-1] + Fraction(1, math.factorial(30))], mean))
    case("survivor distribution mean", [], checks.survivor_distribution_ok(30, dist, mean + Fraction(1, math.factorial(30))))
    grid = {(m, k): exact.mean_undominated(m, k) for m in range(2, 6) for k in range(m, 30)}
    case("mean_undominated grid", checks.mean_undominated_ok(grid),
         checks.mean_undominated_ok(grid | {(3, 10): grid[(3, 10)] + Fraction(1, math.factorial(10))}))
    case("mean_undominated sandwich", [], checks.mean_undominated_ok(grid | {(5, 20): grid[(5, 20)] * 3}))
    var = exact.var_survivors_2xn(30)
    case("variance vs distribution", checks.equal("v", var, checks.variance_of(dist)),
         checks.equal("v", var + Fraction(1, math.factorial(30)), checks.variance_of(dist)))


def main() -> int:
    for group in (statistical_cases, kernel_cases, wide_cases, mixed_cases, exact_cases):
        group()
    bad = 0
    for name, right, wrong in CASES:
        ok = not right and bool(wrong)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: right -> {right or 'accepted'}; wrong -> {wrong[:1] or 'accepted'}")
    print(f"{len(CASES) - bad} of {len(CASES)} checks accept the right answer and reject the wrong one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
