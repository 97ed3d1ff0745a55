"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import time
from fractions import Fraction

import pytest

from oracles import count_by, level0_count_sumform, motzkin_paths, step_counts
from shapeforge import (
    ExactCounts,
    PathKind,
    asym_count,
    asym_level0,
    asym_pi,
    asym_pi_expected,
    compatible_counts,
    decode1,
    decode2,
    decorate_islands,
    encode1,
    encode2,
    enumerate_paths,
    expand_island_gf,
    expand_level0_gf,
    expand_motzkin_gf,
    expected_level0,
    find_zeta,
    generate_island_diagrams,
    parse_path,
    verify_identity,
)


@pytest.fixture(scope="module")
def counts():
    return ExactCounts()


class Budget:
    def __init__(self, criterion: int, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"criterion {self.criterion}: PASS ({elapsed:.2f}s)")
        else:
            print(f"criterion {self.criterion}: FAIL")
        return False


def test_criterion_1_bijection_exhaustives(counts):
    with Budget(1, 30):
        for n in range(10):
            image = set()
            for path in enumerate_paths(n, PathKind.MOTZKIN2):
                s = encode2(path)
                assert decode2(s) == path
                image.add(s)
            assert len(image) == counts.catalan(n + 1)
        for n in range(11):
            image = set()
            for path in enumerate_paths(n, PathKind.MOTZKIN1):
                shape = encode1(path)
                assert decode1(shape) == path
                image.add(shape.text)
            assert len(image) == counts.motzkin_number(n)


def test_criterion_2_worked_example():
    with Budget(2, 5):
        assert encode2(parse_path("UBURDD", PathKind.MOTZKIN2)) == "(()((())()()))"


def test_criterion_3_identity_suite(counts):
    with Budget(3, 60):
        assert verify_identity("narayana_motzkin", 12, counts).passed
        assert verify_identity("coker1", 12, counts).passed
        assert verify_identity("coker2", 12, counts).passed
        assert verify_identity("touchard", 12, counts).passed
        assert verify_identity("chu_vandermonde", 6, counts).passed
        assert verify_identity("parity_m0m1", 30, counts).passed


def test_criterion_4_triple_oracle_island_counts(counts):
    with Budget(4, 30):
        for ell in range(1, 6):
            generated = count_by(generate_island_diagrams(ell), lambda d: d.stats()[:2])
            decorated: dict = {}
            seen = set()
            for path in enumerate_paths(ell - 1, PathKind.MOTZKIN2):
                for diagram in decorate_islands(path):
                    assert diagram.text not in seen
                    seen.add(diagram.text)
                    key = diagram.stats()[:2]
                    decorated[key] = decorated.get(key, 0) + 1
            formula = {}
            for h in range(1, ell + 1):
                for islands in range(h + 1, 2 * ell + 1):
                    c = counts.island_count(h, islands, ell)
                    if c:
                        formula[(h, islands)] = c
            assert dict(generated) == decorated == formula


def test_criterion_5_level0_cross_check(counts):
    with Budget(5, 30):
        for n in range(13):
            by_class = count_by(
                motzkin_paths(n), lambda p: (step_counts(p)[0], step_counts(p)[2])
            )
            for r0 in range(n + 1):
                exhaustive_total = 0
                for u in range(1, n // 2 + 1):
                    closed = counts.level0_count(r0, n, u)
                    assert closed == level0_count_sumform(r0, n, u)
                    assert closed == by_class.get((u, r0), 0)
                    exhaustive_total += closed
                if r0 == n:
                    exhaustive_total += 1  # the all-horizontal path
                assert counts.level0_total(r0, n) == exhaustive_total
            assert (
                sum(counts.level0_total(r0, n) for r0 in range(n + 1))
                == counts.motzkin_number(n)
            )


def test_criterion_6_series_agreement(counts):
    with Budget(6, 60):
        forms = [
            expand_island_gf(10, form, counts)
            for form in ("narayana", "closed", "motzkin2")
        ]
        assert forms[0] == forms[1] == forms[2]

        gf = expand_motzkin_gf(40, with_v=True, counts=counts)
        for n in range(41):
            poly = gf.coefficient(n)
            for k in range(n // 2 + 1):
                assert poly.coefficient(v=k) == counts.motzkin_poly_coeff(n, k)

        lvl = expand_level0_gf(30, counts)
        for n in range(31):
            poly = lvl.coefficient(n)
            for r0 in range(n + 1):
                assert poly.coefficient(t=r0) == counts.level0_total(r0, n)


def test_criterion_7_level0_distribution_convergence(counts):
    with Budget(7, 60):
        m100 = counts.motzkin_number(100)
        for r0 in range(9):
            freq = Fraction(counts.level0_total(r0, 100), m100)
            assert abs(float(freq) - asym_level0(r0)) <= 0.03
        errors = [abs(float(expected_level0(n, counts)) - 2) for n in (100, 200, 400)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.05


def test_criterion_8_lambda_four_paper_numbers():
    with Budget(8, 5):
        sing = find_zeta(4)
        z = sing.zeta
        assert 0.7562 <= z <= 0.7564
        a = z * z / (1 + z * z)
        b = (1 + z ** 5) / (2 * (1 + z * z))
        assert abs(a - 0.3639) <= 5e-4
        assert abs(b - 0.3968) <= 5e-4
        assert asym_pi(4, 0, sing) == pytest.approx(a)
        expected = asym_pi_expected(4, sing)
        assert abs(expected - 1.316) <= 2e-3
        assert abs((expected + 1) - 2.316) <= 2e-3


def test_criterion_9_pi_distribution_at_nu_200(counts):
    with Budget(9, 60):
        table = compatible_counts(4, 200, counts)
        total = table.total(200)
        sing = find_zeta(4)
        for r0 in range(9):
            freq = Fraction(table.count(r0, 200), total)
            assert abs(float(freq) - asym_pi(4, r0, sing)) <= 0.03


def test_criterion_10_asymptotic_ratios(counts):
    with Budget(10, 120):
        report = asym_count("motzkin_number", n=400, counts=counts)
        assert 0.95 <= report.ratio <= 1.05
        for r0 in range(5):
            report = asym_count("level0_total", n=400, r0=r0, counts=counts)
            assert 0.95 <= report.ratio <= 1.05, (r0, report.ratio)
        report = asym_count("pi_total", lam=4, nu=300, counts=counts)
        assert 0.90 <= report.ratio <= 1.10

        for lam in (1, 3):
            table = compatible_counts(lam, 101, counts)
            for k in range(51):
                assert table.total(2 * k) == table.total(2 * k + 1)
