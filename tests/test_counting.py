import sys
import threading
import tracemalloc

import pytest

from oracles import (
    balanced_strings,
    count_by,
    dyck_paths,
    hairpin_count,
    irreducible_factors,
    level0_count_sumform,
    motzkin_paths,
    pascal_binomial,
    step_counts,
)
from shapeforge import ExactCounts
from shapeforge.errors import DivisibilityFailure

# ---------------------------------------------------------------------------
# fixed example values


def test_binomial_examples(counts):
    assert counts.binomial(7, 4) == 35 == pascal_binomial(7, 4)
    assert counts.binomial(5, 0) == 1
    assert counts.binomial(3, 5) == 0
    assert counts.binomial(3, -1) == 0
    with pytest.raises(ValueError):
        counts.binomial(-1, 0)


def test_catalan_examples(counts):
    assert counts.catalan(3) == 5
    assert counts.catalan(0) == 1
    assert counts.catalan(10) == 16796
    with pytest.raises(ValueError):
        counts.catalan(-1)


def test_catalan_against_dyck_enumeration(counts):
    for u in range(9):
        assert counts.catalan(u) == sum(1 for _ in dyck_paths(u))


def test_narayana_examples(counts):
    assert counts.narayana(4, 2) == 6
    assert counts.narayana(1, 1) == 1
    assert counts.narayana(5, 2) == 10
    assert counts.narayana(3, 0) == 0
    assert counts.narayana(3, 4) == 0
    with pytest.raises(ValueError):
        counts.narayana(0, 0)


def test_narayana_against_bracket_enumeration(counts):
    for n in range(1, 8):
        by_hairpins = count_by(balanced_strings(n), hairpin_count)
        for k in range(1, n + 1):
            assert counts.narayana(n, k) == by_hairpins.get(k, 0)


def test_motzkin_poly_coeff_examples(counts):
    assert counts.motzkin_poly_coeff(7, 2) == 70
    assert counts.motzkin_poly_coeff(0, 0) == 1
    assert counts.motzkin_poly_coeff(4, 2) == 2
    assert counts.motzkin_poly_coeff(5, 3) == 0
    assert counts.motzkin_poly_coeff(5, -1) == 0


def test_motzkin_numbers(counts):
    known = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    assert [counts.motzkin_number(n) for n in range(11)] == known


def test_motzkin_against_enumeration(counts):
    for n in range(9):
        by_ups = count_by(motzkin_paths(n), lambda p: step_counts(p)[0])
        assert sum(by_ups.values()) == counts.motzkin_number(n)
        for k in range(n // 2 + 1):
            assert counts.motzkin_poly_coeff(n, k) == by_ups.get(k, 0)


def test_catalan_convolution_examples(counts):
    assert counts.catalan_convolution(3, 1) == 2
    assert counts.catalan_convolution(3, 2) == 2
    assert counts.catalan_convolution(3, 3) == 1
    # exhaustive Dyck enumeration factoring at axis returns gives 5 here
    assert counts.catalan_convolution(4, 2) == 5
    assert counts.catalan_convolution(4, 5) == 0
    with pytest.raises(ValueError):
        counts.catalan_convolution(0, 1)


def test_catalan_convolution_against_enumeration(counts):
    for u in range(1, 9):
        by_factors = count_by(dyck_paths(u), irreducible_factors)
        for p in range(1, u + 1):
            assert counts.catalan_convolution(u, p) == by_factors.get(p, 0)


def test_fib_poly_coeff_examples(counts):
    assert counts.fib_poly_coeff(3, 1) == 1
    for a in range(1, 8):
        assert counts.fib_poly_coeff(a, 0) == 1
    assert counts.fib_poly_coeff(2, 2) == 0
    assert counts.fib_poly_coeff(0, 0) == 0


def test_level0_count_examples(counts):
    assert counts.level0_count(0, 4, 2) == 2
    assert counts.level0_count(1, 4, 1) == 2
    assert counts.level0_count(0, 2, 1) == 1
    with pytest.raises(ValueError):
        counts.level0_count(0, 4, 0)


def test_level0_count_raises_on_non_integral_value(monkeypatch):
    # (r0+1) C(n+1, u) F / (n+1) with F forced to 1 is 15/6 at r0=0, n=5, u=2
    counts = ExactCounts()
    monkeypatch.setattr(counts, "fib_poly_coeff", lambda n, k: 1)
    with pytest.raises(DivisibilityFailure):
        counts.level0_count(0, 5, 2)


def test_level0_count_against_enumeration(counts):
    for n in range(11):
        by_class = count_by(motzkin_paths(n), lambda p: (step_counts(p)[0], step_counts(p)[2]))
        for u in range(1, n // 2 + 1):
            for r0 in range(n + 1):
                assert counts.level0_count(r0, n, u) == by_class.get((u, r0), 0)


def test_level0_sumform_matches_closed_form(counts):
    for n in range(15):
        for r0 in range(n + 1):
            for u in range(1, n // 2 + 1):
                assert counts.level0_count(r0, n, u) == level0_count_sumform(r0, n, u)


def test_level0_total_examples(counts):
    assert counts.level0_total(4, 4) == 1
    assert counts.level0_total(0, 4) == 3
    assert counts.level0_total(3, 4) == 0
    assert counts.level0_total(0, 0) == 1
    with pytest.raises(ValueError):
        counts.level0_total(5, 4)


def test_level0_totals_sum_to_motzkin(counts):
    for n in range(15):
        assert sum(counts.level0_total(r0, n) for r0 in range(n + 1)) == counts.motzkin_number(n)


def test_level0_parity_identity(counts):
    for n in range(1, 31):
        assert counts.level0_total(0, n) - counts.level0_total(1, n) == (-1) ** n


def test_level0_weighted_sum(counts):
    for n in range(13):
        direct = sum(r0 * counts.level0_total(r0, n) for r0 in range(n + 1))
        assert counts.level0_weighted_sum(n) == direct


def test_chu_vandermonde_analog(counts):
    for m in range(7):
        for t in range(m + 1):
            for n in range(7):
                rhs = sum(
                    counts.binomial(m + n - t - a, n - a) * counts.binomial(t + a, a)
                    for a in range(n + 1)
                )
                assert counts.binomial(m + n + 1, n) == rhs


def test_island_count_examples(counts):
    assert counts.island_count(1, 2, 1) == 1
    assert counts.island_count(1, 3, 2) == 2
    assert counts.island_count(2, 3, 2) == 1
    assert counts.island_count(1, 1, 1) == 0
    with pytest.raises(ValueError):
        counts.island_count(0, 1, 1)


def test_island_counts_sum_over_islands(counts):
    for ell in range(1, 9):
        for h in range(1, ell + 1):
            total = sum(
                counts.island_count(h, islands, ell)
                for islands in range(h + 1, 2 * ell + 1)
            )
            assert total == counts.narayana(ell, h) * 2 ** (2 * ell - 1 - h)


def test_narayana_sums_to_catalan(counts):
    for n in range(1, 13):
        assert sum(counts.narayana(n, k) for k in range(1, n + 1)) == counts.catalan(n)


def test_motzkin_coeffs_sum_to_motzkin_number(counts):
    for n in range(21):
        total = sum(counts.motzkin_poly_coeff(n, k) for k in range(n // 2 + 1))
        assert total == counts.motzkin_number(n)


def test_motzkin_recurrence_matches_coefficient_sum_at_large_n():
    counts = ExactCounts()
    for n in (500, 1001):
        total = sum(counts.motzkin_poly_coeff(n, k) for k in range(n // 2 + 1))
        assert counts.motzkin_number(n) == total


def test_convolution_sums_to_catalan(counts):
    for u in range(1, 11):
        assert sum(counts.catalan_convolution(u, p) for p in range(1, u + 1)) == counts.catalan(u)


def test_huge_values_stay_exact():
    c = ExactCounts()
    value = c.binomial(4000, 2000)
    assert value > 3 ** 2000
    assert c.catalan(2000) == c.binomial(4000, 2000) // 2001


def test_shared_instance_agrees_with_serial_run_across_threads():
    shared = ExactCounts()

    def compute():
        return (
            [shared.motzkin_number(n) for n in range(40)],
            [shared.level0_total(r0, 60) for r0 in range(61)],
        )

    serial = compute()
    results = []
    threads = [threading.Thread(target=lambda: results.append(compute())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


def test_level0_total_ratio_sum_matches_closed_form_terms(counts):
    def by_terms(r0, n):
        if r0 == n:
            return 1
        return sum(counts.level0_count(r0, n, u) for u in range(1, (n - r0) // 2 + 1))

    for n in range(121):
        for r0 in range(n + 1):
            assert counts.level0_total(r0, n) == by_terms(r0, n), (r0, n)
    for r0 in range(9):
        assert counts.level0_total(r0, 2000) == by_terms(r0, 2000)


def test_level0_weighted_sum_matches_motzkin_self_convolution(counts):
    motzkin = [counts.motzkin_number(i) for i in range(400)]
    for n in range(401):
        convolution = sum(motzkin[i] * motzkin[n - 1 - i] for i in range(n))
        assert counts.level0_weighted_sum(n) == convolution, n


def test_motzkin_number_traced_peak_stays_under_a_megabyte():
    counts = ExactCounts()
    tracemalloc.start()
    try:
        counts.motzkin_number(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
