"""Exact closed forms for dominance statistics of random 2 x n games and
related bounds for general m x n games.

Everything that is a rational number is computed as a
:class:`fractions.Fraction` so that enumeration oracles can be compared with
zero tolerance. Gamma-ratio expressions are rewritten through

    sqrt(pi) * Gamma(n) / Gamma(n + 1/2)  =  (n-1)! * 2^n / (2n-1)!!

and digamma/polygamma values at half-integers through

    psi(n + 1/2) - psi(1/2)          =  sum_{k<=n} 2 / (2k - 1)
    psi'(n + 1/2) - psi'(1/2)        = -4 * sum_{k<=n} 1 / (2k - 1)^2

so no floating-point Gamma evaluation is ever needed.

Exact computation is capped at ``EXACT_LIMIT`` (big-integer growth): scalar
functions return a ``float`` computed in log space beyond the cap (the
return type is the "approximate" flag), while distribution-valued functions
raise :class:`CapacityError`. Pass a larger ``exact_limit`` to force exact
values.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

EXACT_LIMIT = 4096

EULER_GAMMA = 0.5772156649015329

_lock = threading.Lock()
_stirling_last: list[int] = [1]  # the latest row n, s(n, 0..n); row 0 is [1]
_harmonic_cache: dict[int, list[Fraction]] = {}
_digamma_gap_cache: list[Fraction] = [Fraction(0)]
_trigamma_gap_cache: list[Fraction] = [Fraction(0)]
_mean_undominated_cache: dict[int, list[Fraction]] = {1: [Fraction(1)]}


class CapacityError(ValueError):
    """Requested exact computation exceeds the supported size."""


def _check_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1")


def stirling_row(n: int, exact_limit: int = EXACT_LIMIT) -> list[int]:
    """Unsigned Stirling numbers of the first kind s(n, 1..n).

    Built with s(n, k) = (n-1) s(n-1, k) + s(n-1, k-1); s(n, k) counts the
    permutations of n elements with k cycles, and here the second rankings of
    a 2 x n game leaving exactly k column actions undominated.
    """
    _check_positive(n)
    if n > exact_limit:
        raise CapacityError(f"stirling_row supports n <= {exact_limit}")
    global _stirling_last
    with _lock:
        # Only the latest row is kept (all rows up to n would take memory
        # cubic in n); a smaller n is rebuilt from row 0.
        row = _stirling_last if len(_stirling_last) <= n + 1 else [1]
        for size in range(len(row), n + 1):  # building row `size`
            factor = size - 1
            row = [0] + [
                factor * (row[k] if k < size else 0) + row[k - 1]
                for k in range(1, size + 1)
            ]
        _stirling_last = row
        return row[1:]


def harmonic(n: int, order: int = 1) -> Fraction:
    """Generalized harmonic number: sum of 1/k**order for k = 1..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        cache = _harmonic_cache.setdefault(order, [Fraction(0)])
        while len(cache) <= n:
            k = len(cache)
            cache.append(cache[-1] + Fraction(1, k**order))
        return cache[n]


def _digamma_gap(n: int) -> Fraction:
    """psi(n + 1/2) - psi(1/2), a rational number."""
    with _lock:
        while len(_digamma_gap_cache) <= n:
            k = len(_digamma_gap_cache)
            _digamma_gap_cache.append(_digamma_gap_cache[-1] + Fraction(2, 2 * k - 1))
        return _digamma_gap_cache[n]


def _trigamma_gap(n: int) -> Fraction:
    """psi'(n + 1/2) - psi'(1/2), a rational number (negative)."""
    with _lock:
        while len(_trigamma_gap_cache) <= n:
            k = len(_trigamma_gap_cache)
            _trigamma_gap_cache.append(
                _trigamma_gap_cache[-1] - Fraction(4, (2 * k - 1) ** 2)
            )
        return _trigamma_gap_cache[n]


def odd_double_factorial(n: int) -> int:
    """(2n - 1)!! = 1 * 3 * ... * (2n - 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def wallis_ratio(n: int) -> Fraction:
    """(2n-1)!! / (2n)!! = Gamma(n + 1/2) / (Gamma(1/2) Gamma(n + 1))."""
    _check_positive(n)
    return Fraction(odd_double_factorial(n), math.factorial(n) * 2**n)


def _log_wallis(n: int) -> float:
    return math.lgamma(n + 0.5) - math.lgamma(n + 1) - math.lgamma(0.5)


def solvable_probability_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Probability that a random 2 x n game is strict-dominance solvable:
    exactly (2n-1)!! / (2^(n-1) n!), twice the Wallis ratio. Strictly
    decreasing in n, asymptotically 2 / sqrt(pi n)."""
    _check_positive(n)
    if n > exact_limit:
        return 2.0 * math.exp(_log_wallis(n))
    return 2 * wallis_ratio(n)


def undominated_distribution_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> list[Fraction]:
    """Distribution of the number of undominated column actions in a random
    2 x n game: Pr(k) = s(n, k) / n! for k = 1..n."""
    _check_positive(n)
    fact = math.factorial(n)
    return [Fraction(s, fact) for s in stirling_row(n, exact_limit)]


def _pr_one_round(n: int) -> Fraction:
    # Conditional probability of finishing in a single round: both players
    # have strictly dominant actions.
    return Fraction(math.factorial(n - 1), odd_double_factorial(n))


def iteration_distribution_2xn(
    n: int, exact_limit: int = EXACT_LIMIT
) -> tuple[Fraction, Fraction, Fraction] | tuple[float, float, float]:
    """Distribution of the number of elimination rounds of a solvable random
    2 x n game; at most three rounds are ever needed.

    Pr(1) = (n-1)!/(2n-1)!!, Pr(2) = (n + 2^(n-1) - 2) * Pr(1), and Pr(3) is
    the remainder.
    """
    _check_positive(n)
    if n > exact_limit:
        log_p1 = math.lgamma(n) - _log_odd_double_factorial(n)
        p1 = math.exp(log_p1)
        p2 = math.exp(log_p1 + math.log(n + 2 ** (n - 1) - 2)) if n > 1 else 0.0
        return p1, p2, 1.0 - p1 - p2
    p1 = _pr_one_round(n)
    p2 = (n + 2 ** (n - 1) - 2) * p1
    return p1, p2, 1 - p1 - p2


def _log_odd_double_factorial(n: int) -> float:
    # (2n)! = (2n)!! (2n-1)!! = 2^n n! (2n-1)!!
    return math.lgamma(2 * n + 1) - n * math.log(2) - math.lgamma(n + 1)


def mean_iterations_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of rounds conditional on solvability:
    3 - (n + 2^(n-1)) (n-1)! / (2n-1)!!, strictly increasing to 3."""
    _check_positive(n)
    if n > exact_limit:
        return 3.0 - math.exp(
            math.log(n + 2 ** (n - 1))
            + math.lgamma(n)
            - _log_odd_double_factorial(n)
        )
    return 3 - (n + 2 ** (n - 1)) * _pr_one_round(n)


def survivor_distribution_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> list[Fraction]:
    """Distribution of the number of column actions surviving the full
    iterated elimination in a random 2 x n game.

    There is a spike at 1 equal to the solvability probability; for k >= 2
    the undominated-count probabilities are discounted by 1 - 2^(1-k).
    """
    _check_positive(n)
    if n > exact_limit:
        raise CapacityError(f"survivor_distribution_2xn supports n <= {exact_limit}")
    dist = undominated_distribution_2xn(n, exact_limit)
    out = [solvable_probability_2xn(n, exact_limit)]
    for k in range(2, n + 1):
        out.append(dist[k - 1] * (1 - Fraction(1, 2 ** (k - 1))))
    return out


def mean_survivors_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of surviving column actions:
    W(n) (2 - (psi(n+1/2) - psi(1/2))) + H_n, asymptotically ln n + gamma."""
    _check_positive(n)
    if n > exact_limit:
        w = math.exp(_log_wallis(n))
        return w * (2.0 - _float_sum("d", n)) + _float_sum("h1", n)
    return wallis_ratio(n) * (2 - _digamma_gap(n)) + harmonic(n)


def var_survivors_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Variance of the number of surviving column actions (exact polygamma
    form), asymptotically ln n + gamma - pi^2/6."""
    _check_positive(n)
    if n > exact_limit:
        w = math.exp(_log_wallis(n))
        h1, h2, d, t = (_float_sum(kind, n) for kind in ("h1", "h2", "d", "t"))
    else:
        w, h1, h2 = wallis_ratio(n), harmonic(n), harmonic(n, 2)
        d, t = _digamma_gap(n), _trigamma_gap(n)
    return (
        h1
        - h2
        + w / 2 * (4 - 2 * d - (d * d + t) - 8 * h1 + 4 * h1 * d)
        - (w * (2 - d)) ** 2
    )


# Cumulative float sums used by the log-space fallbacks and the diagnostics,
# by the increment of their k-th term: H_n, H_n^(2), psi(n + 1/2) - psi(1/2)
# and psi'(n + 1/2) - psi'(1/2).
_FLOAT_TERMS = {
    "h1": lambda k: 1.0 / k,
    "h2": lambda k: 1.0 / (k * k),
    "d": lambda k: 2.0 / (2 * k - 1),
    "t": lambda k: -4.0 / (2 * k - 1) ** 2,
}
_float_sums_lock = threading.Lock()
_float_sums: dict[str, list[float]] = {kind: [0.0] for kind in _FLOAT_TERMS}


def _float_sum(kind: str, n: int) -> float:
    term = _FLOAT_TERMS[kind]
    with _float_sums_lock:
        cache = _float_sums[kind]
        while len(cache) <= n:
            cache.append(cache[-1] + term(len(cache)))
        return cache[n]


def mean_undominated(m: int, n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of undominated column actions of a random m x n game,
    via the recurrence E(m, n) = sum_{k<=n} E(m-1, k) / k with E(1, n) = 1.

    Strictly increasing in each argument for m, n >= 2; E(2, n) = H_n and
    E(3, n) = (H_n^2 + H_n^(2)) / 2. No closed form is known for m >= 4.
    """
    _check_positive(m, "m")
    _check_positive(n)
    if n > exact_limit:
        prev = [1.0] * (n + 1)  # E(1, k) = 1
        if m == 1:
            return 1.0
        for _ in range(2, m + 1):
            row = [0.0] * (n + 1)
            acc = 0.0
            for k in range(1, n + 1):
                acc += prev[k] / k
                row[k] = acc
            prev = row
        return prev[n]
    with _lock:
        for mm in range(1, m + 1):
            row = _mean_undominated_cache.setdefault(
                mm, [Fraction(1) if mm == 1 else Fraction(0)]
            )
            if mm == 1:
                while len(row) <= n:
                    row.append(Fraction(1))
                continue
            prev_row = _mean_undominated_cache[mm - 1]
            while len(row) <= n:
                k = len(row)
                row.append(row[-1] + prev_row[k] / k)
        return _mean_undominated_cache[m][n]


def undominated_mean_bounds(m: int, n: int) -> tuple[float, float]:
    """Poisson-form sandwich for the expected undominated column count:
    (ln n)^(m-1)/(m-1)!  <=  E  <=  sum_{k<m} (ln n)^k / k!."""
    _check_positive(m, "m")
    _check_positive(n)
    logn = math.log(n)
    lower = logn ** (m - 1) / math.factorial(m - 1)
    upper = sum(logn**k / math.factorial(k) for k in range(m))
    return lower, upper


def poisson_form_bounds(m: int, n: int) -> tuple[float, float]:
    """The same sandwich written with Poisson(ln n) probabilities:
    n Pr(X = m-1) <= E <= n Pr(X <= m-1)."""
    _check_positive(m, "m")
    _check_positive(n)
    lam = math.log(n)
    pmf = lambda k: math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else (1.0 if k == 0 else 0.0)
    lower = n * pmf(m - 1)
    upper = n * sum(pmf(k) for k in range(m))
    return lower, upper


def undominated_fraction_lower_bound(m: int, n: int) -> float:
    """Union bound: the expected fraction of undominated column actions is at
    least 1 - (n-1)/2^m (clamped at 0)."""
    _check_positive(m, "m")
    _check_positive(n)
    return max(0.0, 1.0 - (n - 1) / 2**m)


def blocking_event_probability(m: int, j: int) -> Fraction:
    """Probability of the event that column j both survives a fixed first
    column round and orders a fixed pair of rows against domination:

        Pr = 1/2 * (m-1)/j + 1/2 * sum_{k=2}^{m-1} (-1)^(k-1) C(m-1, k) j^-k

    which collapses by inclusion-exclusion to (1 - (1 - 1/j)^(m-1)) / 2; the
    two forms are computed and cross-checked exactly.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    _check_positive(j, "j")
    series = Fraction(m - 1, 2 * j)
    for k in range(2, m):
        series += Fraction((-1) ** (k - 1) * math.comb(m - 1, k), 2 * j**k)
    closed = (1 - (1 - Fraction(1, j)) ** (m - 1)) / 2
    if series != closed:  # pragma: no cover - identity
        raise AssertionError("inclusion-exclusion identity failed")
    return closed


def row_elimination_probability_bound(m: int, n: int) -> float:
    """Upper bound on the probability that any row action is ever eliminated:
    m(m-1) (m/n)^((m-1)/4), clamped to [0, 1]."""
    _check_positive(m, "m")
    _check_positive(n)
    if m < 2:
        return 0.0
    return min(1.0, m * (m - 1) * (m / n) ** ((m - 1) / 4))


def solvable_probability_lower_bound(m: int, n: int) -> Fraction:
    """n^-(m-1): the probability that the column player has a strictly
    dominant action, which already makes the game solvable."""
    _check_positive(m, "m")
    _check_positive(n)
    return Fraction(1, n ** (m - 1))


def unique_point_rationalizable_probability(m: int, n: int) -> Fraction:
    """Probability that a random m x n game has a unique point-rationalizable
    action profile: (m + n - 1) / (m n)."""
    _check_positive(m, "m")
    _check_positive(n)
    return Fraction(m + n - 1, m * n)


def no_dominated_column_bounds_3xn(n: int) -> tuple[Fraction, float]:
    """Bounds for the probability that no column action of a random 3 x n
    game is dominated: prod_{i<=n} (H_i / i) below, 0.362^n above.

    The upper bound is asymptotic in character; small-n enumeration exceeds
    it (e.g. already at n = 6), so callers should treat it as a large-n
    diagnostic only. The lower bound is valid for every n.
    """
    _check_positive(n)
    lower = Fraction(1)
    for i in range(1, n + 1):
        lower *= harmonic(i) / i
    return lower, 0.362**n


@dataclass(frozen=True)
class DiagnosticsRow:
    """Scaled finite-n quantities next to their limits.

    ``sqrt_n_solvable`` -> 2/sqrt(pi); ``scaled_pr_one_round`` (by 2^n
    sqrt(n)) -> sqrt(pi); ``sqrt_n_pr_two_rounds`` and
    ``sqrt_n_pr_not_three`` -> sqrt(pi)/2; ``mean_survivors_minus_log`` ->
    Euler gamma; ``var_survivors_minus_log`` -> gamma - pi^2/6.
    """

    n: int
    sqrt_n_solvable: float
    scaled_pr_one_round: float
    sqrt_n_pr_two_rounds: float
    sqrt_n_pr_not_three: float
    mean_survivors_minus_log: float
    var_survivors_minus_log: float


def asymptotic_diagnostics(ns: list[int]) -> list[DiagnosticsRow]:
    """Evaluate the scaled quantities of :class:`DiagnosticsRow` for each n."""
    rows = []
    for n in ns:
        _check_positive(n)
        sqrt_n = math.sqrt(n)
        log_p1 = math.lgamma(n) - _log_odd_double_factorial(n)
        # 2^n sqrt(n) Pr(one round) in log space: the 2^n factors cancel.
        scaled_p1 = math.exp(log_p1 + 0.5 * math.log(n) + n * math.log(2))
        p2 = math.exp(log_p1 + math.log(n + 2 ** (n - 1) - 2)) if n > 1 else 0.0
        rows.append(
            DiagnosticsRow(
                n=n,
                sqrt_n_solvable=sqrt_n * 2.0 * math.exp(_log_wallis(n)),
                scaled_pr_one_round=scaled_p1,
                sqrt_n_pr_two_rounds=sqrt_n * p2,
                sqrt_n_pr_not_three=sqrt_n * (math.exp(log_p1) + p2),
                mean_survivors_minus_log=mean_survivors_2xn(n, exact_limit=0)
                - math.log(n),
                var_survivors_minus_log=var_survivors_2xn(n, exact_limit=0)
                - math.log(n),
            )
        )
    return rows
