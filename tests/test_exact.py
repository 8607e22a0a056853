import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from domsolve import exact
from domsolve.exact import (
    CapacityError,
    EULER_GAMMA,
    asymptotic_diagnostics,
    blocking_event_probability,
    harmonic,
    iteration_distribution_2xn,
    mean_iterations_2xn,
    mean_survivors_2xn,
    mean_undominated,
    no_dominated_column_bounds_3xn,
    odd_double_factorial,
    poisson_form_bounds,
    row_elimination_probability_bound,
    solvable_probability_2xn,
    solvable_probability_lower_bound,
    stirling_row,
    survivor_distribution_2xn,
    undominated_distribution_2xn,
    undominated_fraction_lower_bound,
    undominated_mean_bounds,
    unique_point_rationalizable_probability,
    var_survivors_2xn,
    wallis_ratio,
)


def test_stirling_rows():
    assert stirling_row(1) == [1]
    assert stirling_row(3) == [2, 3, 1]
    assert stirling_row(4) == [6, 11, 6, 1]
    for n in range(1, 201):
        assert sum(stirling_row(n)) == math.factorial(n)


def test_stirling_rows_match_rising_factorial_in_any_order():
    # s(n, k) is the coefficient of x^k in x (x + 1) ... (x + n - 1).
    want = {}
    poly = [1]
    for n in range(1, 61):
        poly = [0] + poly
        for k in range(len(poly) - 1):
            poly[k] += (n - 1) * poly[k + 1]
        want[n] = poly[1:]
    for n in (60, 7, 33, 1, 60, 59, 2, 45):
        assert stirling_row(n) == want[n]


def test_stirling_log_concave_and_mode():
    for n in range(2, 201):
        row = stirling_row(n)
        for k in range(1, n - 1):
            assert row[k] ** 2 >= row[k - 1] * row[k + 1]
        mode = max(range(n), key=lambda k: row[k]) + 1
        h = float(harmonic(n))
        assert mode in (math.floor(h), math.ceil(h))


def test_solvable_probability_values():
    expected = [1, Fraction(3, 4), Fraction(5, 8), Fraction(35, 64), Fraction(63, 128)]
    for n, want in enumerate(expected, start=1):
        assert solvable_probability_2xn(n) == want


def test_solvable_probability_monotone_and_ratio():
    for n in range(1, 65):
        assert solvable_probability_2xn(n + 1) < solvable_probability_2xn(n)
        ratio = solvable_probability_2xn(n + 1) / solvable_probability_2xn(n)
        assert ratio == Fraction(2 * n + 1, 2 * n + 2)


def test_wallis_ratio_identity():
    for n in (1, 2, 7, 30):
        assert wallis_ratio(n) == Fraction(
            odd_double_factorial(n), math.factorial(n) * 2**n
        )
    assert solvable_probability_2xn(5) == 2 * wallis_ratio(5)


def test_undominated_distribution():
    assert undominated_distribution_2xn(1) == [Fraction(1)]
    assert undominated_distribution_2xn(3) == [
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1, 6),
    ]
    for n in range(1, 65):
        dist = undominated_distribution_2xn(n)
        assert sum(dist) == 1
        mean = sum(k * p for k, p in enumerate(dist, start=1))
        assert mean == harmonic(n)


def test_iteration_distribution():
    assert iteration_distribution_2xn(1) == (1, 0, 0)
    assert iteration_distribution_2xn(2) == (Fraction(1, 3), Fraction(2, 3), 0)
    assert iteration_distribution_2xn(3)[1] == Fraction(2, 3)
    for n in range(1, 257):
        p1, p2, p3 = iteration_distribution_2xn(n)
        assert p1 >= 0 and p2 >= 0 and p3 >= 0
        assert p1 + p2 + p3 == 1
    for n in range(1, 200):
        assert iteration_distribution_2xn(n + 1)[0] < iteration_distribution_2xn(n)[0]
    for n in range(3, 200):
        assert iteration_distribution_2xn(n + 1)[1] < iteration_distribution_2xn(n)[1]
    for n in range(2, 200):
        assert iteration_distribution_2xn(n + 1)[2] > iteration_distribution_2xn(n)[2]


def test_mean_iterations():
    assert mean_iterations_2xn(1) == 1
    assert mean_iterations_2xn(2) == Fraction(5, 3)
    for n in range(1, 65):
        dist = iteration_distribution_2xn(n)
        assert mean_iterations_2xn(n) == sum(
            k * p for k, p in enumerate(dist, start=1)
        )
    for n in range(1, 64):
        assert mean_iterations_2xn(n + 1) > mean_iterations_2xn(n)


def test_survivor_distribution():
    assert survivor_distribution_2xn(1) == [Fraction(1)]
    assert survivor_distribution_2xn(2) == [Fraction(3, 4), Fraction(1, 4)]
    for n in range(1, 65):
        dist = survivor_distribution_2xn(n)
        assert dist[0] == solvable_probability_2xn(n)
        assert sum(dist) == 1
        if n >= 2:
            assert dist[0] > dist[1]


def test_survivor_distribution_is_the_discounted_undominated_law():
    # One Fraction per entry equals the undominated law discounted by
    # 1 - 2^(1-k) in Fraction arithmetic.
    for n in [*range(1, 301), 1000]:
        undominated = undominated_distribution_2xn(n)
        want = [solvable_probability_2xn(n)]
        want += [undominated[k - 1] * (1 - Fraction(1, 2 ** (k - 1))) for k in range(2, n + 1)]
        got = survivor_distribution_2xn(n)
        assert got == want, n
        assert all(type(p) is Fraction for p in got)


def test_survivor_moments():
    assert mean_survivors_2xn(1) == 1
    assert var_survivors_2xn(1) == 0
    assert mean_survivors_2xn(2) == Fraction(5, 4)
    for n in range(1, 65):
        dist = survivor_distribution_2xn(n)
        mean = sum(k * p for k, p in enumerate(dist, start=1))
        second = sum(k * k * p for k, p in enumerate(dist, start=1))
        assert mean_survivors_2xn(n) == mean
        assert var_survivors_2xn(n) == second - mean * mean
        assert var_survivors_2xn(n) >= 0
    for n in range(1, 64):
        assert mean_survivors_2xn(n + 1) > mean_survivors_2xn(n)


def test_float_fallbacks_match_exact():
    for n in (10, 100, 1000):
        assert mean_survivors_2xn(n, exact_limit=0) == pytest.approx(
            float(mean_survivors_2xn(n)), rel=1e-11
        )
        assert var_survivors_2xn(n, exact_limit=0) == pytest.approx(
            float(var_survivors_2xn(n)), rel=1e-9
        )
        assert solvable_probability_2xn(n, exact_limit=0) == pytest.approx(
            float(solvable_probability_2xn(n)), rel=1e-11
        )
        assert mean_iterations_2xn(n, exact_limit=0) == pytest.approx(
            float(mean_iterations_2xn(n)), rel=1e-11
        )
        got = iteration_distribution_2xn(n, exact_limit=0)
        want = iteration_distribution_2xn(n)
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-9, abs=1e-13)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        stirling_row(5000)
    with pytest.raises(CapacityError):
        survivor_distribution_2xn(5000)
    assert isinstance(mean_survivors_2xn(5000), float)
    assert isinstance(solvable_probability_2xn(5000), float)
    assert isinstance(mean_survivors_2xn(10, exact_limit=20), Fraction)


def test_mean_undominated():
    for n in range(1, 65):
        assert mean_undominated(2, n) == harmonic(n)
        assert mean_undominated(3, n) == (harmonic(n) ** 2 + harmonic(n, 2)) / 2
    assert mean_undominated(3, 2) == Fraction(7, 4)
    for m in range(1, 8):
        assert mean_undominated(m, 1) == 1
    for m in range(2, 7):
        for n in range(2, 30):
            assert mean_undominated(m + 1, n) > mean_undominated(m, n)
            assert mean_undominated(m, n + 1) > mean_undominated(m, n)


def test_mean_undominated_float_path():
    for m, n in ((2, 50), (4, 120)):
        assert mean_undominated(m, n, exact_limit=0) == pytest.approx(
            float(mean_undominated(m, n)), rel=1e-12
        )


def test_undominated_mean_bounds():
    lo, hi = undominated_mean_bounds(2, 10)
    assert lo == pytest.approx(math.log(10))
    assert hi == pytest.approx(math.log(10) + 1)
    assert lo < float(harmonic(10)) < hi
    lo, hi = undominated_mean_bounds(4, 1)
    assert lo == 0 and hi == 1
    for m, n in ((2, 10), (3, 40), (5, 120)):
        plo, phi = poisson_form_bounds(m, n)
        blo, bhi = undominated_mean_bounds(m, n)
        assert plo == pytest.approx(blo)
        assert phi >= bhi - 1e-9  # CDF form includes every term of the sum


def test_union_lower_bound():
    assert undominated_fraction_lower_bound(20, 100) == pytest.approx(1 - 99 / 2**20)
    assert undominated_fraction_lower_bound(2, 100) == 0.0
    for m, n in ((8, 50), (10, 100)):
        assert float(mean_undominated(m, n)) / n >= undominated_fraction_lower_bound(m, n)


def test_blocking_event_probability():
    for j in range(1, 20):
        assert blocking_event_probability(2, j) == Fraction(1, 2 * j)
    assert blocking_event_probability(3, 2) == Fraction(3, 8)
    for m in range(2, 9):
        assert blocking_event_probability(m, 1) == Fraction(1, 2)


def test_row_elimination_bound():
    assert row_elimination_probability_bound(2, 100) == pytest.approx(
        2 * 0.02**0.25
    )
    assert row_elimination_probability_bound(1, 7) == 0.0
    assert row_elimination_probability_bound(5, 5) == 1.0


def test_solvable_probability_lower_bound():
    for n in range(1, 65):
        assert solvable_probability_lower_bound(2, n) == Fraction(1, n)
        assert Fraction(1, n) <= solvable_probability_2xn(n)
    assert solvable_probability_lower_bound(1, 9) == 1
    assert float(solvable_probability_lower_bound(3, 10)) == pytest.approx(0.01)


def test_unique_point_rationalizable_probability():
    assert unique_point_rationalizable_probability(1, 1) == 1
    assert unique_point_rationalizable_probability(2, 2) == Fraction(3, 4)
    assert unique_point_rationalizable_probability(3, 3) == Fraction(5, 9)


def test_no_dominated_column_bounds():
    lower, upper = no_dominated_column_bounds_3xn(1)
    assert lower == 1
    assert upper == pytest.approx(0.362)
    lower3, _ = no_dominated_column_bounds_3xn(3)
    assert lower3 == Fraction(11, 24)


def test_no_dominated_column_bounds_are_capped(monkeypatch):
    def never(*args):
        raise AssertionError("the product was started")

    monkeypatch.setattr(exact, "harmonic", never)
    with pytest.raises(exact.CapacityError):
        no_dominated_column_bounds_3xn(exact.NO_DOMINATED_3XN_LIMIT + 1)


def test_diagnostics_approach_limits():
    ns = [125, 250, 500, 1000, 2000, 4000, 8000]
    rows = asymptotic_diagnostics(ns)
    two_over_sqrt_pi = 2 / math.sqrt(math.pi)
    half_sqrt_pi = math.sqrt(math.pi) / 2
    for key, limit in (
        ("sqrt_n_solvable", two_over_sqrt_pi),
        ("sqrt_n_pr_two_rounds", half_sqrt_pi),
        ("sqrt_n_pr_not_three", half_sqrt_pi),
        ("mean_survivors_minus_log", EULER_GAMMA),
        ("var_survivors_minus_log", EULER_GAMMA - math.pi**2 / 6),
    ):
        gaps = [abs(getattr(r, key) - limit) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), key
    p1_gaps = [abs(r.scaled_pr_one_round - math.sqrt(math.pi)) for r in rows]
    assert all(a > b for a, b in zip(p1_gaps, p1_gaps[1:]))


def test_diagnostics_match_exact_at_small_n():
    row = asymptotic_diagnostics([64])[0]
    p1, p2, p3 = iteration_distribution_2xn(64)
    assert row.scaled_pr_one_round == pytest.approx(float(2**64 * 8 * p1), rel=1e-9)
    assert row.sqrt_n_pr_two_rounds == pytest.approx(8 * float(p2), rel=1e-9)
    assert row.sqrt_n_pr_not_three == pytest.approx(8 * float(1 - p3), rel=1e-9)
    assert row.sqrt_n_solvable == pytest.approx(
        8 * float(solvable_probability_2xn(64)), rel=1e-11
    )


def test_log_space_iteration_law_at_n1():
    # Pr(2 rounds) = (n + 2^(n-1) - 2) Pr(1) is 0 at n = 1, where its log
    # would be log(0). lgamma's rounding would put Pr(1) above 1 at n = 1
    # and Pr(1) + Pr(2) above 1 at n = 2; the law stays in [0, 1] and the
    # diagnostics read it.
    assert iteration_distribution_2xn(1, exact_limit=0) == (1.0, 0.0, 0.0)
    p1, p2, p3 = iteration_distribution_2xn(2, exact_limit=0)
    assert p3 == 0.0 and p1 + p2 == 1.0
    assert (p1, p2) == pytest.approx((1 / 3, 2 / 3), rel=1e-15)
    one, two = asymptotic_diagnostics([1, 2])
    assert one.sqrt_n_pr_two_rounds == 0.0
    assert one.sqrt_n_pr_not_three == 1.0
    assert two.sqrt_n_pr_not_three == math.sqrt(2)
    # The float mean would read 0.9999999999999996 at n = 1.
    assert mean_iterations_2xn(1, exact_limit=0) == 1.0
    assert repr(mean_iterations_2xn(2, exact_limit=0)) == "1.6666666666666663"
    for n in range(1, 400):
        assert all(0.0 <= p <= 1.0 for p in iteration_distribution_2xn(n, exact_limit=0)), n


def test_exact_caches_are_thread_safe():
    def probe(k):
        return (
            mean_undominated(4, 60 + k),
            stirling_row(100 + k)[0],
            harmonic(200 + k),
            mean_survivors_2xn(5000 + 7 * k),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    for k, triple in enumerate(results):
        assert triple == probe(k)


def test_input_validation():
    with pytest.raises(ValueError):
        solvable_probability_2xn(0)
    with pytest.raises(ValueError):
        mean_undominated(0, 3)
    with pytest.raises(ValueError):
        blocking_event_probability(1, 3)


def test_running_sums_are_plain_running_sums():
    terms = {
        exact._H1: lambda k: (1, k),
        exact._H2: lambda k: (1, k * k),
        exact._DIGAMMA: lambda k: (2, 2 * k - 1),
        exact._TRIGAMMA: lambda k: (-4, (2 * k - 1) ** 2),
        (1, 1, 0, 3): lambda k: (1, k**3),
    }
    for is_exact, n in ((False, 10**4), (True, 300)):
        for series, term in terms.items():
            want = [Fraction(0) if is_exact else 0.0]
            for k in range(1, n + 1):
                p, q = term(k)
                want.append(want[-1] + (Fraction(p, q) if is_exact else float(p) / float(q)))
            queries = (n, 1, 7, n // 3, 0)
            got = [exact._running_sum(series, i, is_exact) for i in queries]
            assert got == [want[i] for i in queries], (series, is_exact)
            assert all(type(v) is type(want[0]) for v in got)
    assert harmonic(300, 3) == exact._running_sum((1, 1, 0, 3), 300, True)


def test_float_branch_literals():
    # Reprs of the float branches: reordering a float operation changes
    # their last digits.
    assert repr(mean_survivors_2xn(5000)) == "9.026844322985866"
    assert repr(var_survivors_2xn(10**5)) == "10.76181874487349"
    assert repr(solvable_probability_2xn(5000)) == "0.01595729227880805"
    assert repr(mean_iterations_2xn(3, exact_limit=0)) == "2.0666666666666687"
    assert repr(iteration_distribution_2xn(5000)) == "(0.0, 0.012533454705747633, 0.9874665452942524)"
    assert repr(mean_undominated(4, 5000)) == "133.24765287619488"
    assert repr(mean_undominated(3, 120, exact_limit=0)) == "15.230691023118407"
    assert repr(asymptotic_diagnostics([1000])[0]) == (
        "DiagnosticsRow(n=1000, sqrt_n_solvable=1.1282381285213134, "
        "scaled_pr_one_round=1.7726754214748346, sqrt_n_pr_two_rounds=0.8863377107374283, "
        "sqrt_n_pr_not_three=0.8863377107374283, mean_survivors_minus_log=0.4551390024627562, "
        "var_survivors_minus_log=-0.026685964243128524)"
    )


def test_mean_undominated_exact_only_below_the_cap():
    # Exact cost grows about as (m n)^2, so Fractions stop where (m - 1) n
    # passes the cap; m = 1 and m = 2 keep the cap on n alone.
    assert isinstance(mean_undominated(3, 2048), Fraction)
    assert isinstance(mean_undominated(3, 2049), float)
    assert isinstance(mean_undominated(2, 4096), Fraction)
    assert isinstance(mean_undominated(1, 4096), Fraction)
    assert mean_undominated(1, 4097) == 1.0 and isinstance(mean_undominated(1, 4097), float)
    assert isinstance(mean_undominated(5, 30, exact_limit=120), Fraction)
    assert isinstance(mean_undominated(5, 31, exact_limit=120), float)
    start = time.perf_counter()
    value = mean_undominated(200, 4096)
    # every column is undominated but for a chance of about n / 2^m
    assert isinstance(value, float) and value == pytest.approx(4096, rel=1e-12)
    assert time.perf_counter() - start < 10


def test_log_of_the_big_power_of_two_without_the_integer():
    # Above n = 1024 CPython takes the log of 2^(n-1) + c through frexp.
    for n in (*range(2, 30), *range(1020, 1300), 4097, 10**5):
        for c in (n - 2, n):
            assert exact._log_pow2_plus(n, c) == math.log(2 ** (n - 1) + c), (n, c)


def test_float_tables_beyond_the_float_range_stay_finite():
    lower, upper = undominated_mean_bounds(172, 10)
    assert 0.0 < lower < upper <= 10.0 + 1e-12
    assert (lower, upper) == poisson_form_bounds(172, 10)
    assert undominated_mean_bounds(10**20, 10) == (0.0, poisson_form_bounds(171, 10)[1])
    assert row_elimination_probability_bound(100000, 10) == 1.0
    assert row_elimination_probability_bound(10**20, 10**30) == 0.0
    mean = mean_iterations_2xn(10**9)
    assert 2.99 < mean < 3.0
    p1, p2, p3 = iteration_distribution_2xn(10**9)
    assert p1 == 0.0 and p2 + p3 == pytest.approx(1.0) and 3 - mean == pytest.approx(p2 + 2 * p1)
    assert undominated_fraction_lower_bound(10**9, 10) == 1.0
    assert undominated_fraction_lower_bound(2, 10**20) == 0.0


def test_poisson_sum_stops_where_terms_no_longer_count():
    for m, n in ((40, 10), (300, 10**6), (2000, 10**50), (5, 3)):
        lam = math.log(n)
        cdf = 0.0
        for k in range(m):  # every term, added in order
            cdf += math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        assert poisson_form_bounds(m, n)[1] == n * cdf, (m, n)


def test_runaway_exact_tables_are_capped():
    for call in (
        lambda: mean_survivors_2xn(exact.FLOAT_SUM_LIMIT + 1),
        lambda: var_survivors_2xn(10**10),
        lambda: mean_undominated(2, exact.FLOAT_SUM_LIMIT + 1),
        lambda: mean_undominated(1, exact.FLOAT_SUM_LIMIT + 1),
        lambda: mean_undominated(5, 10**7),
        lambda: mean_undominated(exact.MEAN_UNDOMINATED_FLOAT_LIMIT + 2, 1),
        lambda: blocking_event_probability(10**5, 5),
        lambda: blocking_event_probability(1000, 10**20),
        lambda: solvable_probability_lower_bound(10**8, 10),
        lambda: undominated_distribution_2xn(10**9),
    ):
        with pytest.raises(CapacityError):
            call()
    assert blocking_event_probability(4083, 5) > blocking_event_probability(4082, 5)
    assert solvable_probability_lower_bound(exact.POWER_BITS_LIMIT // 4 + 1, 10) > 0
