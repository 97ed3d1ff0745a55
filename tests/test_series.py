import inspect
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import shapeforge.asymptotics as asymptotics_module
import shapeforge.poly as poly_module
import shapeforge.series as series_module
from oracles import (
    coker1_sides_by_products,
    coker2_sides_by_products,
    island_gf_by_products,
    island_gf_by_sqrt,
    level0_gf_by_inverse,
    motzkin_gf_by_sqrt,
    motzkin_paths,
    pi_shapes_by_components,
    poly_degree,
    poly_evaluate,
    poly_substitute,
    scaled_sqrt,
    series_inverse,
    series_mul,
    series_sqrt,
    shift_down,
    step_counts,
)
from shapeforge import (
    IDENTITY_NAMES,
    asym_count,
    convergence_report,
    expected_pi_r0,
    ExactCounts,
    ISLAND_GF_FORMS,
    Poly,
    TruncatedSeries,
    compatible_counts,
    expand_island_gf,
    expand_level0_gf,
    expand_motzkin_gf,
    verify_identity,
)
from shapeforge.errors import (
    DivisibilityFailure,
    NonUnitConstantTerm,
    ResourceGuardExceeded,
    SelfCheckFailure,
    UnknownIdentity,
)

# ---------------------------------------------------------------------------
# the oracles' series arithmetic, on coefficient lists


def test_sqrt_of_one_is_one():
    root = series_sqrt([Fraction(1)] + [0] * 10)
    assert root[0] == 1 and all(c == 0 for c in root[1:])


def test_sqrt_reproduces_catalan_numbers(counts):
    # (1 - sqrt(1 - 4w)) / (2w) generates the Catalan numbers
    s = [Fraction(1), Fraction(-4)] + [0] * 11
    numerator = [int(n == 0) - c for n, c in enumerate(series_sqrt(s))]
    series = [c * Fraction(1, 2) for c in shift_down(numerator, 1)]
    for k in range(11):
        assert series[k] == counts.catalan(k)


def test_sqrt_square_round_trip_on_random_polynomial_series():
    # the root of a random integral series is not integral, so the round
    # trip runs on its scaled coefficients Y_n = 4^n y_n
    rng = random.Random(20240817)
    variables = ("x", "y")
    for _ in range(3):
        coeffs = [Poly.one(variables)]
        for _ in range(20):
            terms = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)
                for _ in range(3)
            }
            coeffs.append(Poly(variables, terms))
        root = scaled_sqrt(coeffs)  # checks root * root internally
        assert series_mul(root, root) == [4 ** n * c for n, c in enumerate(coeffs)]


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8))
@settings(max_examples=40, deadline=None)
def test_sqrt_inverts_squaring(tail):
    f = [Fraction(1)] + [Fraction(c) for c in tail]
    assert series_sqrt(series_mul(f, f)) == f


def test_sqrt_self_check_raises(monkeypatch):
    # a broken recurrence step (the halving of 4^n a_n - sum Y_k Y_{n-k})
    # must be caught by a check that python -O keeps
    exact_quotient = oracles.exact_quotient

    def off_by_one_halving(a, b):
        return exact_quotient(a, b) + (1 if b == 2 else 0)

    monkeypatch.setattr(oracles, "exact_quotient", off_by_one_halving)
    with pytest.raises(SelfCheckFailure):
        series_sqrt([Fraction(1), Fraction(-4)] + [0] * 5)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NonUnitConstantTerm):
        series_inverse([Fraction(2), Fraction(1)] + [0] * 3)
    with pytest.raises(NonUnitConstantTerm):
        series_sqrt([Fraction(0), Fraction(1)] + [0] * 3)


def test_inverse_round_trip():
    f = [Fraction(1), Fraction(3), Fraction(-2), Fraction(7)] + [0] * 6
    product = series_mul(f, series_inverse(f))
    assert product[0] == 1
    assert all(c == 0 for c in product[1:])


def test_the_series_square_root_inverse_and_long_division_are_gone_from_src():
    # every generating function runs a linear recurrence; the general
    # kernels live on only as the oracles above
    gone = {
        TruncatedSeries: ("sqrt", "inverse", "shift_down", "map_coeffs", "one",
                          "__add__", "__sub__", "__neg__", "__mul__"),
        Poly: ("substitute", "evaluate", "degree"),
        series_module: ("_divide_by_y", "exact_quotient", "exact_scalar"),
        asymptotics_module: ("_eval_poly",),
        poly_module: ("Fraction", "Scalar", "exact_scalar", "exact_quotient"),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert "Fraction" not in inspect.getsource(poly_module)


# ---------------------------------------------------------------------------
# Motzkin generating function


def test_motzkin_gf_examples(counts):
    m = expand_motzkin_gf(8, with_v=False)
    assert m.coefficient(0) == 1
    assert m.coefficient(4) == 9
    mv = expand_motzkin_gf(8, with_v=True)
    assert mv.coefficient(7).coefficient(v=2) == 70


def test_motzkin_gf_matches_closed_counts(counts):
    mv = expand_motzkin_gf(200, with_v=True)
    for n in range(201):
        expected = {(k,): counts.motzkin_poly_coeff(n, k) for k in range(n // 2 + 1)}
        assert mv.coefficient(n).terms == expected, n
    m1 = expand_motzkin_gf(200, with_v=False)
    assert m1.coeffs == tuple(counts.motzkin_number(n) for n in range(201))
    assert all(type(c) is int for c in _scalars(mv)) and all(type(c) is int for c in m1.coeffs)


@pytest.mark.parametrize("with_v", [True, False])
def test_motzkin_gf_recurrence_matches_the_sqrt_route(with_v):
    expected = motzkin_gf_by_sqrt(60, with_v)
    for order in range(61):
        g = expand_motzkin_gf(order, with_v)
        assert g.order == order
        assert list(g.coeffs) == expected[: order + 1], order


def test_motzkin_gf_guard():
    limit = series_module.MOTZKIN_GF_LIMIT
    for with_v in (True, False):
        with pytest.raises(ResourceGuardExceeded):
            expand_motzkin_gf(limit + 1, with_v)
        with pytest.raises(ValueError):
            expand_motzkin_gf(-1, with_v)


@pytest.mark.parametrize("expand", [lambda: expand_motzkin_gf(12),
                                    lambda: expand_island_gf(12, "closed")],
                         ids=["motzkin", "island_closed"])
def test_gf_recurrences_refuse_a_wrong_coefficient(monkeypatch, expand):
    # the fourth exact division returns one more than the true coefficient;
    # a later division of the recurrence must then leave a remainder
    right = Poly.exact_div
    calls = []

    def off_by_one_once(self, divisor):
        calls.append(divisor)
        return right(self, divisor) + (len(calls) == 4)

    expand()
    monkeypatch.setattr(Poly, "exact_div", off_by_one_once)
    with pytest.raises(DivisibilityFailure):
        expand()


def test_no_level0_factor_is_true_inverse(counts):
    # A(v, w) (1 - v w^2 m(v, w)) = 1 up to truncation
    order = 16
    m = expand_motzkin_gf(order, with_v=True)
    variables = ("v",)
    v = Poly.var(variables, "v")
    zero = Poly.zero(variables)
    denom = [Poly.one(variables), zero] + [-(v * c) for c in m.coeffs[: order - 1]]
    product = series_mul(denom, series_inverse(denom))
    assert product[0] == Poly.one(variables)
    assert all(c == zero for c in product[1:])


# ---------------------------------------------------------------------------
# island-diagram generating function


def test_island_gf_examples(counts):
    g = expand_island_gf(4, "narayana")
    x = Poly.var(("x", "y"), "x")
    y = Poly.var(("x", "y"), "y")
    assert g.coefficient(1) == x * y * y
    assert g.coefficient(2).coefficient(x=1, y=3) == 2


def test_island_gf_forms_agree(counts):
    # at the order guard
    series = [expand_island_gf(24, form, counts) for form in ("narayana", "closed", "motzkin2")]
    assert series[0] == series[1] == series[2]
    assert all(type(c) is int for c in _scalars(series[1]))


def test_island_gf_matches_island_count(counts):
    g = expand_island_gf(7, "closed", counts)
    for ell in range(1, 8):
        poly = g.coefficient(ell)
        for h in range(1, ell + 1):
            for islands in range(h + 1, 2 * ell + 1):
                assert poly.coefficient(x=h, y=islands) == counts.island_count(h, islands, ell)


def test_island_gf_closed_form_matches_the_sqrt_of_its_quadratic():
    for order in range(13):
        assert list(expand_island_gf(order, "closed").coeffs) == island_gf_by_sqrt(order), order



@pytest.mark.parametrize("form", ["narayana", "motzkin2"])
def test_island_gf_sums_match_their_poly_products(form, counts):
    # each term expanded from a Pascal row, against sums of Poly products
    oracle = island_gf_by_products(24, form, counts)
    for order in range(25):
        assert list(expand_island_gf(order, form, counts).coeffs) == oracle[: order + 1], order


def test_island_gf_guard():
    with pytest.raises(ResourceGuardExceeded):
        expand_island_gf(25)
    with pytest.raises(ValueError):
        expand_island_gf(5, "nonsense")


# ---------------------------------------------------------------------------
# level-0 generating function


def test_level0_gf_examples(counts):
    g = expand_level0_gf(6, counts)
    assert g.coefficient(4).coefficient(t=4) == 1
    assert g.coefficient(4).coefficient(t=0) == 3
    assert g.coefficient(4).coefficient(t=1) == 2


def test_level0_gf_matches_totals(counts):
    g = expand_level0_gf(16, counts)
    for n in range(17):
        poly = g.coefficient(n)
        for r0 in range(n + 1):
            assert poly.coefficient(t=r0) == counts.level0_total(r0, n)
        assert poly_degree(poly) <= n


def test_level0_gf_at_t_one_recovers_motzkin(counts):
    g = expand_level0_gf(16, counts)
    for n in range(17):
        assert poly_evaluate(g.coefficient(n), t=1) == counts.motzkin_number(n)


def test_level0_gf_numeric_t(counts):
    # fixing t numerically keeps Fraction coefficients and lifts the guard
    g1 = expand_level0_gf(12, counts, t=1)
    assert g1 == expand_motzkin_gf(12, with_v=False)
    g2 = expand_level0_gf(10, counts, t=2)
    for n in range(11):
        expected = sum(2 ** r0 * counts.level0_total(r0, n) for r0 in range(n + 1))
        assert g2.coefficient(n) == expected
    big = expand_level0_gf(250, counts, t=1)
    assert big.coefficient(250) == counts.motzkin_number(250)
    with pytest.raises(ResourceGuardExceeded):
        expand_level0_gf(250, counts)


@pytest.mark.parametrize("t", [Fraction(3, 7), Fraction(-5, 3), Fraction(4, 2), 1 / 1])
def test_level0_gf_at_rational_t_is_the_polynomial_evaluated(t, counts):
    order = 40
    poly_t = expand_level0_gf(order, counts)
    numeric = expand_level0_gf(order, counts, t=t)
    for n in range(order + 1):
        assert numeric.coefficient(n) == poly_evaluate(poly_t.coefficient(n), t=t), n


LEVEL0_RATIONAL_TS = [Fraction(3, 7), Fraction(1, 2), Fraction(-5, 3), Fraction(9, 4), -1, 0, 1, 2, 3]


def test_level0_gf_in_t_matches_the_inverse_route():
    expected = level0_gf_by_inverse(60)
    for order in range(61):
        g = expand_level0_gf(order)
        assert g.order == order
        assert [c.terms for c in g.coeffs] == [c.terms for c in expected[: order + 1]]
        assert all(type(c) is int for c in _scalars(g))


def test_level0_gf_in_t_equals_its_checked_constructor_build(monkeypatch):
    # each coefficient skips Poly's validation; with the validating
    # constructor in its place the expansion must come out the same
    fast = [expand_level0_gf(order) for order in range(201)]
    built = []

    def checked_build(variables, terms):
        built.append(variables)
        return Poly(variables, terms)

    monkeypatch.setattr(series_module, "_build", checked_build)
    checked = expand_level0_gf(200)
    assert built == [("t",)] * 200  # every coefficient past the constant term
    for order, g in enumerate(fast):
        assert [(c.variables, c.terms) for c in g.coeffs] == \
            [(c.variables, c.terms) for c in checked.coeffs[: order + 1]], order


@pytest.mark.parametrize("t", LEVEL0_RATIONAL_TS, ids=str)
def test_level0_gf_at_rational_t_matches_the_inverse_route(t):
    expected = [(c, type(c)) for c in level0_gf_by_inverse(150, t)]
    for order in range(151):
        g = expand_level0_gf(order, t=t)
        assert g.order == order
        assert [(c, type(c)) for c in g.coeffs] == expected[: order + 1], order


def test_level0_gf_needs_no_sqrt_inverse_or_product(monkeypatch):
    expected = {t: level0_gf_by_inverse(40, t) for t in (None, Fraction(3, 7))}

    def refuse(*args, **kwargs):
        raise AssertionError("the level-0 recurrence must not get here")

    monkeypatch.setattr(series_module, "expand_motzkin_gf", refuse)
    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "__rmul__", refuse)
    for t, series in expected.items():
        assert list(expand_level0_gf(40, t=t).coeffs) == series


def test_level0_gf_refuses_a_wrong_motzkin_number(monkeypatch):
    right = series_module._motzkin_numbers

    def off_by_one_at_3():
        for n, m in enumerate(right()):
            yield m + (n == 3)

    monkeypatch.setattr(series_module, "_motzkin_numbers", off_by_one_at_3)
    for t in (None, Fraction(3, 7)):
        with pytest.raises(DivisibilityFailure):
            expand_level0_gf(10, t=t)


@pytest.mark.parametrize("t", [Fraction(3, 7), 2], ids=str)
def test_level0_gf_at_its_numeric_limit_is_fast(t):
    start = time.process_time()
    g = expand_level0_gf(2000, t=t)
    assert time.process_time() - start < 5
    assert g.order == 2000


def test_motzkin_self_convolution(counts):
    # [w^n] w m(1,w)^2 = sum_{i+j=n-1} M_i M_j = sum r0 * level0_total(r0, n)
    order = 14
    m = expand_motzkin_gf(order, with_v=False)
    msq = series_mul(m.coeffs, m.coeffs)
    for n in range(1, order + 1):
        conv = msq[n - 1]
        assert conv == counts.level0_weighted_sum(n)
        assert conv == sum(r0 * counts.level0_total(r0, n) for r0 in range(n + 1))


# ---------------------------------------------------------------------------
# exact coefficient types


def _scalars(series):
    for c in series.coeffs:
        yield from c.terms.values() if isinstance(c, Poly) else (c,)


def test_coefficients_are_int_or_fraction_never_float(counts):
    poly_valued = [expand_island_gf(10, form, counts) for form in ISLAND_GF_FORMS] + [
        expand_motzkin_gf(20),
        expand_level0_gf(20, counts),
    ]
    for series in poly_valued:
        for c in _scalars(series):
            assert type(c) is int, c
    scalar_valued = [
        expand_motzkin_gf(20, with_v=False),
        expand_level0_gf(20, counts, t=Fraction(3, 7)),
        expand_level0_gf(20, counts, t=2),
    ]
    for series in scalar_valued:
        assert all(type(c) in (int, Fraction) for c in series.coeffs)
    assert all(type(c) is int for c in scalar_valued[0].coeffs + scalar_valued[2].coeffs)
    # a Poly holds ints only, so an odd coefficient does not halve
    with pytest.raises(DivisibilityFailure):
        (Poly.var(("x", "y"), "x") + 1).exact_div(2)


# ---------------------------------------------------------------------------
# compatible shape counts


def test_compatible_examples(counts):
    table = compatible_counts(4, 12, counts)
    for nu in range(5):
        assert table.total(nu) == 0
    assert table.total(5) == 1
    assert table.total(10) == 2


def test_compatible_parity_lambda_one(counts):
    table = compatible_counts(1, 101, counts)
    for k in range(51):
        assert table.total(2 * k) == table.total(2 * k + 1)


def test_compatible_guard():
    with pytest.raises(ResourceGuardExceeded):
        compatible_counts(4, 2001)
    with pytest.raises(ValueError):
        compatible_counts(0, 10)


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_compatible_against_path_enumeration(lam, counts):
    # brute force over all Motzkin paths of size <= 12; the cap keeps every
    # contributing path inside the enumerated range
    nu_cap = min(60, 8 * lam + 19)
    table = compatible_counts(lam, nu_cap, counts)
    brute: dict[tuple[int, int], int] = {}
    for n in range(13):
        for steps in motzkin_paths(n):
            u, _, r0 = step_counts(steps)
            nu = (lam + 1) * (n + 1) - (lam - 1) * u
            if nu <= nu_cap:
                brute[(r0, nu)] = brute.get((r0, nu), 0) + 1
    for r0 in range(table.r0_max + 1):
        acc = 0
        for nu in range(nu_cap + 1):
            acc += brute.get((r0, nu), 0)
            assert table.count(r0, nu) == acc


# ---------------------------------------------------------------------------
# pi counts at one nu from S = sqrt(p), against the table and the structures


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 7, 12, 32])
def test_pi_counts_match_the_table_at_every_nu(lam):
    table = compatible_counts(lam, 300)
    r0s = range(table.r0_max + 2)
    for nu in range(301):
        total, weighted, rows = series_module._pi_counts(lam, nu, r0s)
        assert total == table.total(nu)
        assert weighted == table.weighted_sum(nu)
        assert rows == {r0: table.count(r0, nu) for r0 in r0s}


@pytest.mark.parametrize("lam, nu_max", [(2, 14), (3, 14), (4, 15)])
def test_pi_counts_match_the_structures_they_abstract(lam, nu_max):
    for nu in range(nu_max + 1):
        shapes = pi_shapes_by_components(nu, lam - 1)
        total, weighted, rows = series_module._pi_counts(lam, nu, range(nu + 1))
        assert rows == {r0: shapes.get(r0, 0) for r0 in range(nu + 1)}
        assert total == sum(shapes.values())
        assert weighted == sum(r0 * c for r0, c in shapes.items())


@pytest.mark.parametrize("args, exc, message", [
    ((0, 10), ValueError, "lam must be positive, got 0"),
    ((4, -1), ValueError, "nu_max must be nonnegative"),
    ((4, 2001), ResourceGuardExceeded, "nu_max = 2001 exceeds guard 2000"),
    ((4, 51, None, 50), ResourceGuardExceeded, "nu_max = 51 exceeds guard 50"),
])
def test_pi_counts_refuse_what_the_table_refuses(args, exc, message):
    lam, nu, *limit = args
    limit = {"limit": limit[1]} if limit else {}
    for build in (compatible_counts, series_module._pi_counts):
        with pytest.raises(exc) as info:
            build(lam, nu, **limit)
        assert str(info.value) == message
    with pytest.raises(exc) as info:
        convergence_report("pi", lam=lam, nu=nu, **limit)
    assert str(info.value) == message


def test_a_negative_r0_is_refused_as_the_table_refused_it():
    with pytest.raises(IndexError) as info:
        compatible_counts(4, 60).count(-1, 60)
    assert str(info.value) == "r0 must be nonnegative"
    with pytest.raises(IndexError) as info:
        series_module._pi_counts(4, 60, (3, -1))
    assert str(info.value) == "r0 must be nonnegative"
    with pytest.raises(IndexError) as info:
        asym_count("pi_r0", lam=4, nu=60, r0=-1)
    assert str(info.value) == "r0 must be nonnegative"


@pytest.mark.parametrize("lam, nu", [(1, 157), (4, 200), (7, 241)])
def test_pi_queries_read_what_the_table_holds(lam, nu):
    table = compatible_counts(lam, nu)
    assert asym_count("pi_total", lam=lam, nu=nu).exact == table.total(nu)
    assert asym_count("pi_weighted_sum", lam=lam, nu=nu).exact == table.weighted_sum(nu)
    for r0 in (0, 3, table.r0_max, table.r0_max + 1):
        assert asym_count("pi_r0", lam=lam, nu=nu, r0=r0).exact == table.count(r0, nu)
    assert expected_pi_r0(lam, nu) == Fraction(table.weighted_sum(nu), table.total(nu))
    rows = convergence_report("pi", lam=lam, nu=nu, r0_max=table.r0_max + 1)
    assert [r[1] for r in rows] == [float(Fraction(table.count(r0, nu), table.total(nu)))
                                    for r0 in range(table.r0_max + 2)]


def test_pi_queries_build_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pi query built the compatible_counts table")

    monkeypatch.setattr(series_module, "compatible_counts", refuse)
    for target in ("pi_total", "pi_weighted_sum", "pi_r0"):
        assert asym_count(target, lam=2, nu=2000, r0=8).exact > 0
    assert expected_pi_r0(2, 2000) > 0
    assert len(convergence_report("pi", lam=2, nu=2000, r0_max=2000)) == 2001


def test_pi_counts_refuse_a_wrong_coefficient(monkeypatch):
    # the singular polynomial of lam = 3 with its x^4 coefficient off by 1
    # gives an S whose recurrence meets a remainder
    original = series_module.singular_polynomial

    def wrong(lam):
        coeffs = original(lam)
        coeffs[lam + 1] += 1
        return coeffs

    monkeypatch.setattr(series_module, "singular_polynomial", wrong)
    with pytest.raises(DivisibilityFailure):
        series_module._pi_counts(3, 40)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_bounds_follow_the_identity_names():
    assert tuple(series_module.IDENTITY_BOUNDS) == IDENTITY_NAMES


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identities_pass(name, counts):
    bounds = {"narayana_motzkin": 8, "coker1": 9, "coker2": 9, "touchard": 10,
              "chu_vandermonde": 5, "parity_m0m1": 20, "pi_parity": 20,
              "island_gf_forms_agree": 6}
    report = verify_identity(name, bounds[name], counts)
    assert report.passed, report.counterexample
    assert report.counterexample is None
    assert report.to_json()["status"] == "pass"


def test_coker_sides_match_their_poly_products(counts):
    for n in range(1, series_module.IDENTITY_BOUNDS["coker1"][2] + 1):
        assert series_module._coker1_sides(n, counts) == coker1_sides_by_products(n, counts), n
    for n in range(1, series_module.IDENTITY_BOUNDS["coker2"][2] + 1):
        assert series_module._coker2_sides(n, counts) == coker2_sides_by_products(n, counts), n


class _OneWrongNarayana(ExactCounts):
    def narayana(self, n, k):
        return super().narayana(n, k) + ((n, k) == (7, 3))


@pytest.mark.parametrize("name", ["narayana_motzkin", "coker1", "coker2",
                                  "island_gf_forms_agree"])
def test_identities_fail_on_one_wrong_narayana_number(name):
    # the shared expansion makes neither side a copy of the other: a wrong
    # N(7, 3) on one side shows at that instance and no other
    report = verify_identity(name, 9, _OneWrongNarayana())
    instance = "ell=7" if name in ("narayana_motzkin", "island_gf_forms_agree") else "n=7"
    assert [desc for desc, ok in report.instances if not ok] == [instance]
    assert report.counterexample == instance


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify_identity("no_such_identity")


def test_identity_report_json_fields(counts):
    report = verify_identity("touchard", 5, counts)
    doc = report.to_json()
    assert set(doc) == {"name", "range", "status", "counterexample"}


def test_specialisations_of_the_island_identity(counts):
    # setting y = 0 after replacing x by x/y turns the island identity into
    # the first bracket-count identity; substituting x = y/(1+y) and clearing
    # (1+y) keeps an exact polynomial identity
    XY = ("x", "y")
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    one = Poly.one(XY)
    oy = one + y
    for ell in range(1, 11):
        lhs0 = Poly.zero(XY)
        for h in range(1, ell + 1):
            lhs0 = lhs0 + counts.narayana(ell, h) * x ** h * oy ** (2 * ell - 1 - h)
        rhs0 = Poly.zero(XY)
        for p in range((ell - 1) // 2 + 1):
            rhs0 = rhs0 + counts.motzkin_poly_coeff(ell - 1, p) * (x * oy ** 3) ** p * (
                oy * (oy + x)) ** (ell - 2 * p - 1)
        assert poly_substitute(lhs0, y=0) == poly_substitute(x * rhs0, y=0)

        lhs1 = Poly.zero(XY)
        for h in range(1, ell + 1):
            lhs1 = lhs1 + counts.narayana(ell, h) * y ** (2 * h + 1) * oy ** (2 * (ell - h))
        mixed = one + 2 * y + 2 * y * y
        rhs1 = Poly.zero(XY)
        for p in range((ell - 1) // 2 + 1):
            rhs1 = rhs1 + counts.motzkin_poly_coeff(ell - 1, p) * (y * y * oy * oy) ** p * (
                mixed) ** (ell - 2 * p - 1)
        assert lhs1 == y ** 3 * rhs1
