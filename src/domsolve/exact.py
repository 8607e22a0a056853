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
functions return a ``float`` beyond the cap (the return type is the
"approximate" flag), while distribution-valued functions raise
:class:`CapacityError`. Pass a larger ``exact_limit`` to force exact
values. Each law is written once and picks its arithmetic at one branch
point: the Wallis ratio and the iteration law come from ``lgamma`` in log
space, and the harmonic and half-integer polygamma sums come from one
running-sum memo that adds each term p/q as a ``Fraction`` or as a
correctly rounded ``p / q``. ``mean_undominated`` runs one recurrence in
either arithmetic and stays exact only while both n and (m - 1) n are at
most the cap, since its exact cost grows about as (m n)^2.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction

EXACT_LIMIT = 4096
# Largest n of no_dominated_column_bounds_3xn: its Fraction product grows
# about as n^3.9 in time (0.17 s at n = 600, 1.1 s at 1000, 16.7 s at 2000).
NO_DOMINATED_3XN_LIMIT = 1000
# Largest n of a float running sum, which keeps every partial sum:
# survivors-var at n = 10^6 takes 1.0 s and 184 MB.
FLOAT_SUM_LIMIT = 10**6
# Largest (m - 1) n of the float recurrence of mean_undominated, which also
# keeps n <= FLOAT_SUM_LIMIT for its two rows of n floats: m = 5, n = 10^6
# takes 0.8 s and 107 MB.
MEAN_UNDOMINATED_FLOAT_LIMIT = 4 * 10**6
# Largest (m - 1)^2 bit_length(j) of blocking_event_probability, whose
# series adds m - 1 Fractions over powers of j up to j^(m-1): 1.5 s at
# m = 1000, j = 10^20 (6.7 * 10^7), and 9.7 s at m = 10^4, j = 5.
BLOCKING_EVENT_LIMIT = 5 * 10**7
# Largest (m - 1) bit_length(n) of solvable_probability_lower_bound, the
# bits of n^(m-1), whose decimal digits take time quadratic in their count:
# 1.1 s at m = 3 * 10^5, n = 10 (1.2 * 10^6).
POWER_BITS_LIMIT = 1 << 20
# Largest k whose k! converts to a float.
_FLOAT_FACTORIAL_MAX = 170

EULER_GAMMA = 0.5772156649015329

_lock = threading.Lock()
_stirling_last: list[int] = [1]  # the latest row n, s(n, 0..n); row 0 is [1]
_running_sums: dict[tuple, list] = {}  # by (series, exact); see _running_sum
_mean_undominated_cache: dict[int, list[Fraction]] = {}
_ZERO_ONE = {True: (Fraction(0), Fraction(1)), False: (0.0, 1.0)}

_H1, _H2 = (1, 1, 0, 1), (1, 1, 0, 2)  # H_n and H_n^(2)
_DIGAMMA = (2, 2, -1, 1)  # psi(n + 1/2) - psi(1/2)
_TRIGAMMA = (-4, 2, -1, 2)  # psi'(n + 1/2) - psi'(1/2), negative


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


def _running_sum(series: tuple[int, int, int, int], n: int, exact: bool) -> Fraction | float:
    """sum_{k<=n} c / (a k + b)^e for ``series`` (c, a, b, e), term by term
    in ``Fraction`` or in float (int / int division is correctly rounded,
    so a float term equals ``c / float((a k + b)^e)``)."""
    c, a, b, e = series
    if not exact and n > FLOAT_SUM_LIMIT:
        raise CapacityError(f"float sums support n <= {FLOAT_SUM_LIMIT}")
    term = Fraction if exact else operator.truediv
    with _lock:
        sums = _running_sums.setdefault((series, exact), [_ZERO_ONE[exact][0]])
        while len(sums) <= n:
            sums.append(sums[-1] + term(c, (a * len(sums) + b) ** e))
        return sums[n]


def harmonic(n: int, order: int = 1) -> Fraction:
    """Generalized harmonic number: sum of 1/k**order for k = 1..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _running_sum((1, 1, 0, order), n, True)


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


def _wallis(n: int, exact: bool) -> Fraction | float:
    if exact:
        return wallis_ratio(n)
    return math.exp(math.lgamma(n + 0.5) - math.lgamma(n + 1) - math.lgamma(0.5))


def solvable_probability_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Probability that a random 2 x n game is strict-dominance solvable:
    exactly (2n-1)!! / (2^(n-1) n!), twice the Wallis ratio. Strictly
    decreasing in n, asymptotically 2 / sqrt(pi n)."""
    _check_positive(n)
    return 2 * _wallis(n, n <= exact_limit)


def undominated_distribution_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> list[Fraction]:
    """Distribution of the number of undominated column actions in a random
    2 x n game: Pr(k) = s(n, k) / n! for k = 1..n."""
    _check_positive(n)
    row = stirling_row(n, exact_limit)  # refuses n above the cap before n! is built
    fact = math.factorial(n)
    return [Fraction(s, fact) for s in row]


def _pr_one_round(n: int) -> Fraction:
    # Conditional probability of finishing in a single round: both players
    # have strictly dominant actions.
    return Fraction(math.factorial(n - 1), odd_double_factorial(n))


def _log_pow2_plus(n: int, c: int) -> float:
    """log(2^(n-1) + c) for 0 <= c <= n. Above n = 1024 the integer leaves
    the float range, where CPython takes its log as log(0.5) + log(2) n
    (frexp), so that float is returned without building the integer."""
    return math.log(0.5) + math.log(2.0) * n if n > 1024 else math.log(2 ** (n - 1) + c)


def _log_odd_double_factorial(n: int) -> float:
    # (2n)! = (2n)!! (2n-1)!! = 2^n n! (2n-1)!!
    return math.lgamma(2 * n + 1) - n * math.log(2) - math.lgamma(n + 1)


def iteration_distribution_2xn(
    n: int, exact_limit: int = EXACT_LIMIT
) -> tuple[Fraction, Fraction, Fraction] | tuple[float, float, float]:
    """Distribution of the number of elimination rounds of a solvable random
    2 x n game; at most three rounds are ever needed.

    Pr(1) = (n-1)!/(2n-1)!!, Pr(2) = (n + 2^(n-1) - 2) * Pr(1), and Pr(3) is
    the remainder.
    """
    _check_positive(n)
    if n <= exact_limit:
        p1 = _pr_one_round(n)
        p2 = (n + 2 ** (n - 1) - 2) * p1
    else:
        # lgamma's rounding puts Pr(1) above 1 at n = 1 and Pr(1) + Pr(2)
        # above 1 at n = 2, so each is capped at what is left.
        log_p1 = math.lgamma(n) - _log_odd_double_factorial(n)
        p1 = min(1.0, math.exp(log_p1))
        p2 = min(1.0 - p1, math.exp(log_p1 + _log_pow2_plus(n, n - 2))) if n > 1 else 0.0
    return p1, p2, 1 - p1 - p2


def mean_iterations_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of rounds conditional on solvability:
    3 - (n + 2^(n-1)) (n-1)! / (2n-1)!!, strictly increasing to 3."""
    _check_positive(n)
    if n > exact_limit:
        mean = 3.0 - math.exp(
            _log_pow2_plus(n, n)
            + math.lgamma(n)
            - _log_odd_double_factorial(n)
        )
        # lgamma's rounding puts the n = 1 value below 1, the fewest rounds
        # a game can take; every n >= 2 is above it.
        return max(1.0, mean)
    return 3 - (n + 2 ** (n - 1)) * _pr_one_round(n)


def survivor_distribution_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> list[Fraction]:
    """Distribution of the number of column actions surviving the full
    iterated elimination in a random 2 x n game.

    There is a spike at 1 equal to the solvability probability; for k >= 2
    the undominated-count probabilities s(n, k) / n! are discounted by
    1 - 2^(1-k), one Fraction s(n, k) (2^(k-1) - 1) / (n! 2^(k-1)) each.
    """
    _check_positive(n)
    if n > exact_limit:
        raise CapacityError(f"survivor_distribution_2xn supports n <= {exact_limit}")
    row = stirling_row(n, exact_limit)
    fact = math.factorial(n)
    out = [solvable_probability_2xn(n, exact_limit)]
    for k in range(2, n + 1):
        half = 1 << (k - 1)
        out.append(Fraction(row[k - 1] * (half - 1), fact * half))
    return out


def mean_survivors_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of surviving column actions:
    W(n) (2 - (psi(n+1/2) - psi(1/2))) + H_n, asymptotically ln n + gamma."""
    _check_positive(n)
    exact = n <= exact_limit
    return _wallis(n, exact) * (2 - _running_sum(_DIGAMMA, n, exact)) + _running_sum(_H1, n, exact)


def var_survivors_2xn(n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Variance of the number of surviving column actions (exact polygamma
    form), asymptotically ln n + gamma - pi^2/6."""
    _check_positive(n)
    exact = n <= exact_limit
    w = _wallis(n, exact)
    h1, h2, d, t = (_running_sum(s, n, exact) for s in (_H1, _H2, _DIGAMMA, _TRIGAMMA))
    return (
        h1
        - h2
        + w / 2 * (4 - 2 * d - (d * d + t) - 8 * h1 + 4 * h1 * d)
        - (w * (2 - d)) ** 2
    )


def mean_undominated(m: int, n: int, exact_limit: int = EXACT_LIMIT) -> Fraction | float:
    """Expected number of undominated column actions of a random m x n game,
    via the recurrence E(m, n) = sum_{k<=n} E(m-1, k) / k with E(1, n) = 1.

    Strictly increasing in each argument for m, n >= 2; E(2, n) = H_n and
    E(3, n) = (H_n^2 + H_n^(2)) / 2. No closed form is known for m >= 4.
    Exact while n and (m - 1) n are at most ``exact_limit``; a float beyond.
    """
    _check_positive(m, "m")
    _check_positive(n)
    exact = max(m - 1, 1) * n <= exact_limit
    if not exact and (n > FLOAT_SUM_LIMIT or (m - 1) * n > MEAN_UNDOMINATED_FLOAT_LIMIT):
        raise CapacityError(
            f"mean_undominated supports n <= {FLOAT_SUM_LIMIT} and (m - 1) n <= {MEAN_UNDOMINATED_FLOAT_LIMIT}"
        )
    zero, one = _ZERO_ONE[exact]
    with _lock:
        prev = [one] * (n + 1)  # E(1, k)
        for mm in range(2, m + 1):
            # Only exact rows are cached; a float row can hold 10^6 entries,
            # so the float loop keeps two rows alive.
            row = _mean_undominated_cache.setdefault(mm, [zero]) if exact else [zero]
            while len(row) <= n:
                k = len(row)
                row.append(row[-1] + prev[k] / k)
            prev = row
        return prev[n]


def undominated_mean_bounds(m: int, n: int) -> tuple[float, float]:
    """Poisson-form sandwich for the expected undominated column count:
    (ln n)^(m-1)/(m-1)!  <=  E  <=  sum_{k<m} (ln n)^k / k!.
    Where a term leaves the float range, the same sandwich in log space
    (:func:`poisson_form_bounds`)."""
    _check_positive(m, "m")
    _check_positive(n)
    logn = math.log(n)
    if m - 1 <= _FLOAT_FACTORIAL_MAX:
        try:
            lower = logn ** (m - 1) / math.factorial(m - 1)
            return lower, sum(logn**k / math.factorial(k) for k in range(m))
        except OverflowError:  # (ln n)^k
            pass
    return poisson_form_bounds(m, n)


def poisson_form_bounds(m: int, n: int) -> tuple[float, float]:
    """The same sandwich written with Poisson(ln n) probabilities:
    n Pr(X = m-1) <= E <= n Pr(X <= m-1), with X ~ Poisson(ln n)."""
    _check_positive(m, "m")
    _check_positive(n)
    lam = math.log(n)
    pmf = lambda k: math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else (1.0 if k == 0 else 0.0)
    cdf = 0.0
    for k in range(m):
        term = pmf(k)
        # Past the mode the terms fall; one below half an ulp of the sum
        # leaves it as it is, and so does every later one.
        if k > lam and term < cdf * 2.0**-54:
            break
        cdf += term
    return n * pmf(m - 1), n * cdf


def undominated_fraction_lower_bound(m: int, n: int) -> float:
    """Union bound: the expected fraction of undominated column actions is at
    least 1 - (n-1)/2^m (clamped at 0)."""
    _check_positive(m, "m")
    _check_positive(n)
    bits = (n - 1).bit_length()
    if bits > m + 1:  # (n - 1) / 2^m >= 2
        return 0.0
    if bits < m - 60:  # (n - 1) / 2^m < 2^-60, below half an ulp of 1
        return 1.0
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
    if (m - 1) ** 2 * j.bit_length() > BLOCKING_EVENT_LIMIT:
        raise CapacityError(f"blocking_event_probability supports (m-1)^2 bit_length(j) <= {BLOCKING_EVENT_LIMIT}")
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
    if m >= n:  # m (m - 1) >= 2 times a power of m / n >= 1
        return 1.0
    return min(1.0, m * (m - 1) * (m / n) ** ((m - 1) / 4))


def solvable_probability_lower_bound(m: int, n: int) -> Fraction:
    """n^-(m-1): the probability that the column player has a strictly
    dominant action, which already makes the game solvable."""
    _check_positive(m, "m")
    _check_positive(n)
    if (m - 1) * n.bit_length() > POWER_BITS_LIMIT:
        raise CapacityError(f"solvable_probability_lower_bound supports (m-1) bit_length(n) <= {POWER_BITS_LIMIT}")
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
    diagnostic only. The lower bound is valid for every n. Above
    ``NO_DOMINATED_3XN_LIMIT`` it raises :class:`CapacityError`.
    """
    _check_positive(n)
    if n > NO_DOMINATED_3XN_LIMIT:
        raise CapacityError(f"no_dominated_column_bounds_3xn supports n <= {NO_DOMINATED_3XN_LIMIT}")
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
    """Evaluate the scaled quantities of :class:`DiagnosticsRow` for each n
    from the float laws (``exact_limit=0``)."""
    rows = []
    for n in ns:
        p1, p2, _ = iteration_distribution_2xn(n, exact_limit=0)
        sqrt_n = math.sqrt(n)
        # 2^n sqrt(n) Pr(one round) in log space: the 2^n factors cancel.
        log_p1 = math.lgamma(n) - _log_odd_double_factorial(n)
        rows.append(
            DiagnosticsRow(
                n=n,
                sqrt_n_solvable=sqrt_n * solvable_probability_2xn(n, exact_limit=0),
                scaled_pr_one_round=math.exp(log_p1 + 0.5 * math.log(n) + n * math.log(2)),
                sqrt_n_pr_two_rounds=sqrt_n * p2,
                sqrt_n_pr_not_three=sqrt_n * (p1 + p2),
                mean_survivors_minus_log=mean_survivors_2xn(n, exact_limit=0)
                - math.log(n),
                var_survivors_minus_log=var_survivors_2xn(n, exact_limit=0)
                - math.log(n),
            )
        )
    return rows
