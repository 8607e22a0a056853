"""Correctness checks for the benchmark's outputs.

Each check returns a list of problems; an empty list means the output passed.
References are computed apart from the code path that produced the output:
exact ``Fraction`` closed forms for Monte Carlo estimates and enumerations,
the scalar engine for batch kernels, the paper's table for the 3 x n counts,
or identities the quantity must satisfy. No check compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

Z = 3.0  # statistical gates sit at 3 standard errors
CLT_VAR_TOLERANCE = 0.05  # sample variance within 5% of the exact variance
GRID_RESOLUTION = 1 / 200  # of the simplex-grid mixed-dominance oracle
# Rounding the LP's mixture over k <= 3 other actions to that grid moves it by
# at most 2(k-1) * resolution in L1, which costs at most (k-1) * resolution
# times the payoff range (<= 1 for uniform payoffs) of margin. A certificate
# with a larger margin therefore has a grid witness.
LP_MARGIN_FLOOR = 2 * GRID_RESOLUTION
MAX_REPORTED = 3  # problems listed per check

# Appendix B of the paper: 3 x n games with the first column ranking fixed to
# the identity, counted by the number k = 1..n of undominated column actions.
PAPER_TABLE_3XN = {
    1: [1],
    2: [1, 3],
    3: [4, 15, 17],
    4: [36, 147, 242, 151],
    5: [576, 2460, 4775, 4690, 1899],
    6: [14400, 63228, 134909, 164193, 109959, 31711],
}


# -- generic ----------------------------------------------------------------


def within_se(label: str, mean: float, se: float, want: float, z: float = Z) -> list[str]:
    if abs(mean - want) <= z * se:
        return []
    distance = abs(mean - want) / se if se > 0 else math.inf
    return [f"{label}: {mean:.6g} lies {distance:.1f} SE from the exact {float(want):.6g}"]


def within_rel(label: str, value: float, want: float, rel: float) -> list[str]:
    if abs(value - want) <= rel * abs(want):
        return []
    return [f"{label}: {value:.6g} differs from {float(want):.6g} by more than a share {rel:g}"]


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {_short(got)}, want {_short(want)}"]


def confirmed(problems: list[str], rerun) -> list[str]:
    """A statistical miss counts only if an independent rerun misses as well.

    One 3-SE gate rejects a correct estimate with probability 0.27%, and the
    benchmark evaluates thousands of gates over its repeated runs, so a lone
    miss is measured again on a fresh random stream (``rerun()`` returns that
    gate's problems). A correct program then fails a gate with probability
    7e-6; an estimator biased by 6 SE fails it with probability 0.997.
    """
    if not problems:
        return []
    again = rerun()
    return problems + [f"confirmed on an independent stream: {p}" for p in again] if again else []


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


# -- Monte Carlo estimates --------------------------------------------------


def bernoulli_consistent(label: str, est, samples: int) -> list[str]:
    """A frequency estimate reports its sample count, its count of
    successes and the SE sqrt(p(1-p)/N) of that frequency."""
    problems = []
    if est.samples_used != samples:
        problems.append(f"{label}: used {est.samples_used} samples, asked for {samples}")
    if est.conditioning_count != round(est.mean * samples) or not 0 <= est.mean <= 1:
        problems.append(f"{label}: frequency {est.mean} does not match {est.conditioning_count} successes")
    want_se = math.sqrt(est.mean * (1 - est.mean) / samples)
    if abs(est.se - want_se) > 1e-12:
        problems.append(f"{label}: SE {est.se} != sqrt(p(1-p)/N) = {want_se}")
    return problems


def iterations_consistent(label: str, est, samples: int) -> list[str]:
    """A mean iteration count given solvability: at least one solvable game,
    and a solvable game (m, n >= 2) needs at least one round."""
    problems = []
    if not 1 <= est.conditioning_count <= samples or est.samples_used != samples:
        problems.append(f"{label}: {est.conditioning_count} events out of {est.samples_used}")
    if est.mean < 1 or est.se < 0:
        problems.append(f"{label}: mean {est.mean} below 1 or negative SE {est.se}")
    return problems


def same_estimate(label: str, one, other) -> list[str]:
    return [] if one == other else [f"{label}: {one} != {other}"]


def _first_mismatches(label: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} results for {len(want)} games"]
    bad = [
        f"{label}: game {k}: batch {g} != scalar {w}"
        for k, (g, w) in enumerate(zip(got, want))
        if g != w
    ]
    return bad[:MAX_REPORTED]


def bimatrix_kernel_matches(label: str, batch: dict, scalar: list) -> list[str]:
    """Batch kernel output equals ``elimination.metrics`` game by game."""
    keys = ("u_r", "u_c", "s_r", "s_c", "iterations", "solvable")
    got = [tuple(int(batch[key][k]) for key in keys) for k in range(len(batch["solvable"]))]
    want = [(g.u_r, g.u_c, g.s_r, g.s_c, g.iterations, int(g.solvable)) for g in scalar]
    return _first_mismatches(label, got, want)


def tensor_kernel_matches(label: str, batch: dict, traces: list) -> list[str]:
    """Tensor kernel output equals ``elimination.iterate_nplayer`` game by game."""
    games = len(batch["solvable"])
    got = [
        (
            tuple(int(s[k]) for s in batch["survivors"]),
            int(batch["iterations"][k]),
            bool(batch["solvable"][k]),
        )
        for k in range(games)
    ]
    want = [(tuple(len(s) for s in t.surviving), t.iterations, t.solvable) for t in traces]
    return _first_mismatches(label, got, want)


def pointrat_kernel_matches(label: str, counts: tuple, sets: list) -> list[str]:
    """Batch point-rationalizable set sizes equal the scalar sets' sizes."""
    rows, cols = counts
    got = [(int(rows[k]), int(cols[k])) for k in range(len(rows))]
    want = [(len(r), len(c)) for r, c in sets]
    return _first_mismatches(label, got, want)


def complements_ok(label: str, row_ranks, col_ranks) -> list[str]:
    """Strategic complements: Row's best response is nondecreasing in
    Column's action and Column's best response nondecreasing in Row's."""
    problems = []
    for k in range(row_ranks.shape[0]):
        best_row = row_ranks[k].argmax(axis=0)
        best_col = col_ranks[k].argmax(axis=1)
        if (best_row[1:] < best_row[:-1]).any() or (best_col[1:] < best_col[:-1]).any():
            problems.append(f"{label}: game {k} has a decreasing best response")
    return problems[:MAX_REPORTED]


def bound_rows_ok(rows, grid) -> list[str]:
    """Every bound-suite row passes, for the requested (m, n), with the
    bounds n^-(m-1) and min(1, m(m-1)(m/n)^((m-1)/4))."""
    problems = equal("bound grid", [(r.m, r.n) for r in rows], list(grid))
    for r in rows:
        label = f"bounds {r.m}x{r.n}"
        if not (r.pi_ok and r.sr_ok):
            problems.append(f"{label}: pi_ok={r.pi_ok} sr_ok={r.sr_ok}")
        problems += equal(f"{label} pi lower bound", r.pi_lower_bound, float(Fraction(1, r.n ** (r.m - 1))))
        sr = min(1.0, r.m * (r.m - 1) * (r.m / r.n) ** ((r.m - 1) / 4))
        problems += equal(f"{label} row-elimination bound", r.sr_less_bound, sr)
    return problems


def clt_mean_ok(report) -> list[str]:
    se = math.sqrt(report.exact_var / report.samples)
    return within_se(f"CLT mean n={report.n}", report.sample_mean, se, report.exact_mean)


def clt_var_ok(report) -> list[str]:
    return within_rel(f"CLT variance n={report.n}", report.sample_var, report.exact_var, CLT_VAR_TOLERANCE)


def survivor_mean_2xn(n: int) -> float:
    """E[surviving columns] of a random 2 x n game from the record law of a
    uniform permutation: H_n + W_n (2 - sum_{i<=n} 2/(2i-1)), with W_n the
    Wallis ratio; evaluated in floats, apart from domsolve.exact."""
    wallis = math.exp(math.lgamma(n + 0.5) - math.lgamma(n + 1) - math.lgamma(0.5))
    harmonic = math.fsum(1 / i for i in range(1, n + 1))
    odd = math.fsum(2 / (2 * i - 1) for i in range(1, n + 1))
    return harmonic + wallis * (2 - odd)


# -- mixed dominance --------------------------------------------------------


def chain_nested(label: str, chain: dict) -> list[str]:
    """Pure solvability implies mixed solvability implies a unique
    point-rationalizable profile, so the counts on the same games nest."""
    counts = [chain[k].conditioning_count for k in ("pure", "mixed", "point_rat_unique")]
    return [] if counts[0] <= counts[1] <= counts[2] else [f"{label}: counts {counts} not nested"]


def reports_nested(label: str, reports: list) -> list[str]:
    """Per game and player: point-rationalizable within rationalizable
    within pure survivors, and the three solvability events nested."""
    problems = []
    for k, rep in enumerate(reports):
        for player in (0, 1):
            inner = set(rep.point_rationalizable[player])
            mid = set(rep.rationalizable[player])
            outer = set(rep.pure_survivors[player])
            if not inner or not inner <= mid <= outer:
                problems.append(f"{label}: game {k} player {player}: {inner} / {mid} / {outer}")
        pure = all(len(s) == 1 for s in rep.pure_survivors)
        point = all(len(s) == 1 for s in rep.point_rationalizable)
        if pure > rep.mixed_solvable or rep.mixed_solvable > point:
            problems.append(f"{label}: game {k}: events pure={pure} mixed={rep.mixed_solvable} point={point}")
    return problems[:MAX_REPORTED]


def lp_agrees_with_grid(label: str, verdicts: list) -> list[str]:
    """(certificate, grid verdict) pairs: a grid witness implies an LP
    certificate, and a certificate with a clear margin implies a witness."""
    problems = []
    for k, (cert, grid) in enumerate(verdicts):
        if grid and cert is None:
            problems.append(f"{label}: check {k}: a grid mixture dominates but the LP says no")
        if cert is not None and cert.margin > LP_MARGIN_FLOOR and not grid:
            problems.append(f"{label}: check {k}: LP margin {cert.margin:.4g} without a grid witness")
    return problems[:MAX_REPORTED]


# -- exact oracles ----------------------------------------------------------


def odd_double_factorial(n: int) -> int:
    return math.prod(range(1, 2 * n, 2))


def solvable_probability_2xn(n: int) -> Fraction:
    """(2n-1)!! / (2^(n-1) n!), apart from domsolve.exact."""
    return Fraction(odd_double_factorial(n), 2 ** (n - 1) * math.factorial(n))


def enumeration_matches(n: int, rep, want: dict) -> list[str]:
    """Enumerated 2 x n distributions equal the closed forms exactly and
    cover all n! 2^n equiprobable states."""
    label = f"enumerate_2xn({n})"
    problems = equal(f"{label} states", rep.total_states, math.factorial(n) * 2**n)
    problems += equal(f"{label} solvability", rep.solvable_probability, want["solvable"])
    problems += equal(f"{label} solvability (direct)", rep.solvable_probability, solvable_probability_2xn(n))
    problems += equal(f"{label} iterations", list(rep.dist_iterations), list(want["iterations"]))
    problems += equal(f"{label} undominated", list(rep.dist_undominated), list(want["undominated"]))
    problems += equal(f"{label} survivors", list(rep.dist_survivors), list(want["survivors"]))
    problems += equal(f"{label} survivor mean", rep.mean_survivors(), want["mean"])
    problems += equal(f"{label} survivor variance", rep.var_survivors(), want["var"])
    for name in ("dist_iterations", "dist_undominated", "dist_survivors"):
        problems += equal(f"{label} {name} total", sum(getattr(rep, name)), 1)
    return problems


def table_3xn_matches(n: int, counts: list[int]) -> list[str]:
    label = f"enumerate_undominated_3xn({n})"
    return equal(f"{label} vs the paper", counts, PAPER_TABLE_3XN[n]) + equal(
        f"{label} total", sum(counts), math.factorial(n) ** 2
    )


def stirling_row_ok(n: int, row: list[int]) -> list[str]:
    """s(n, k), k = 1..n: sums to n!, alternating sum 0 (n >= 2),
    s(n, 1) = (n-1)!, s(n, n-1) = C(n, 2), s(n, n) = 1."""
    label = f"stirling_row({n})"
    problems = equal(f"{label} length", len(row), n)
    if problems:
        return problems
    problems += equal(f"{label} total", sum(row), math.factorial(n))
    problems += equal(f"{label} s(n,1)", row[0], math.factorial(n - 1))
    problems += equal(f"{label} s(n,n)", row[-1], 1)
    if n >= 2:
        problems += equal(f"{label} s(n,n-1)", row[-2], math.comb(n, 2))
        alternating = sum(s if k % 2 else -s for k, s in enumerate(row, start=1))
        problems += equal(f"{label} alternating total", alternating, 0)
    return problems


def survivor_distribution_ok(n: int, dist: list[Fraction], mean) -> list[str]:
    """Sums to exactly 1, its mean is the closed-form mean, and its spike at
    one survivor is the solvability probability."""
    label = f"survivor_distribution_2xn({n})"
    problems = equal(f"{label} total", sum(dist), 1)
    problems += equal(f"{label} mean", sum(k * p for k, p in enumerate(dist, start=1)), mean)
    problems += equal(f"{label} Pr(1)", dist[0], solvable_probability_2xn(n))
    return problems


def variance_of(dist: list[Fraction]) -> Fraction:
    mean = sum(k * p for k, p in enumerate(dist, start=1))
    return sum(k * k * p for k, p in enumerate(dist, start=1)) - mean * mean


def harmonic_table(n: int, order: int = 1) -> list[Fraction]:
    """[H_0, H_1, ..., H_n] of the given order."""
    out = [Fraction(0)]
    for k in range(1, n + 1):
        out.append(out[-1] + Fraction(1, k**order))
    return out


def mean_undominated_ok(grid: dict) -> list[str]:
    """E(m, n) over the grid: E(2, n) = H_n and E(3, n) = (H_n^2 + H_n^(2))/2
    exactly; for m >= 4 the Poisson-form sandwich
    (ln n)^(m-1)/(m-1)! <= E <= sum_{k<m} (ln n)^k/k!; increasing in m and n."""
    top = max(n for _, n in grid)
    h1 = harmonic_table(top)
    h2 = harmonic_table(top, 2)
    problems = []
    for (m, n), value in sorted(grid.items()):
        label = f"mean_undominated({m}, {n})"
        if m == 2:
            problems += equal(label, value, h1[n])
        elif m == 3:
            problems += equal(label, value, (h1[n] ** 2 + h2[n]) / 2)
        else:
            log_n = math.log(n)
            lower = log_n ** (m - 1) / math.factorial(m - 1)
            upper = sum(log_n**k / math.factorial(k) for k in range(m))
            if not lower <= float(value) + 1e-12 or not float(value) <= upper + 1e-9:
                problems.append(f"{label}: {float(value)} outside [{lower}, {upper}]")
        for before in ((m - 1, n), (m, n - 1)):
            if before in grid and min(before) >= 2 and not grid[before] < value:
                problems.append(f"{label}: not above E{before}")
    return problems[:MAX_REPORTED]
