import math
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
    # would be log(0); both log-space paths return it as 0.
    p1, p2, p3 = iteration_distribution_2xn(1, exact_limit=0)
    assert p2 == 0.0
    assert p1 == pytest.approx(1.0, rel=1e-12) and p3 == pytest.approx(0.0, abs=1e-12)
    row = asymptotic_diagnostics([1])[0]
    assert row.sqrt_n_pr_two_rounds == 0.0
    assert row.sqrt_n_pr_not_three == pytest.approx(1.0, rel=1e-12)


def test_exact_caches_are_thread_safe():
    def probe(k):
        return (
            mean_undominated(4, 60 + k),
            stirling_row(100 + k)[0],
            harmonic(200 + k),
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


def test_float_sums_are_plain_running_sums():
    terms = {
        "h1": lambda k: 1.0 / k,
        "h2": lambda k: 1.0 / (k * k),
        "d": lambda k: 2.0 / (2 * k - 1),
        "t": lambda k: -4.0 / (2 * k - 1) ** 2,
    }
    n = 10**4
    for kind, term in terms.items():
        want = [0.0]
        for k in range(1, n + 1):
            want.append(want[-1] + term(k))
        got = [exact._float_sum(kind, i) for i in (n, 1, 7, n // 3, 0)]
        assert got == [want[i] for i in (n, 1, 7, n // 3, 0)], kind
