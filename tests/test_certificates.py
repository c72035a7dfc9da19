import functools
import math
import random

import pytest

import weierstrass.certificates
from conftest import random_distinct_points, random_unit_disk
from weierstrass.certificates import _CATALOG
from weierstrass import (
    Certificate,
    CertificateNotSatisfied,
    ConvergenceFailure,
    DegenerateDenominator,
    DomainViolation,
    NormIndex,
    Polynomial,
    aposteriori_bound,
    apriori_bound,
    c_wangzhao_inf,
    c_wangzhao_l1,
    certificate_from_quantity,
    certify,
    convergence_radius,
    lambda_zheng,
    majorant,
    radius_exp_majorant,
    radius_han,
    radius_inf_linear,
    radius_simple,
    radius_sum_norm,
    radius_table,
    radius_zhaowang_l1,
    solve_exp_fixed_point,
    threshold_petkovic_herceg,
)

SQUARE = Polynomial.from_coefficients([-1, 0])  # z^2 - 1
GRID_P = (1, 1.5, 2, 3, math.inf)


# --- the scalar test function ---------------------------------------------


def test_majorant_zero_at_zero():
    for n in (2, 5, 20):
        for p in GRID_P:
            assert majorant(0.0, n, p) == 0.0


def test_majorant_hand_value_degree_two():
    # 0.25/((0.75)(0.5)) * (1 + 0.25/0.5) = (2/3)(3/2) = 1
    assert majorant(0.25, 2, math.inf) == pytest.approx(1.0, rel=1e-14)
    # same number as the closed form (4/3)(5-b)/(4-b)^2 at b = 2
    assert (4 / 3) * (5 - 2) / (4 - 2) ** 2 == 1.0


def test_majorant_walkthrough_value():
    assert majorant(0.1875, 2, math.inf) == pytest.approx(0.48, rel=1e-12)


def test_majorant_domain():
    with pytest.raises(DomainViolation):
        majorant(-0.01, 3, 2)
    with pytest.raises(DomainViolation):
        majorant(0.5, 3, math.inf)  # b = 2, domain is [0, 0.5)
    with pytest.raises(DomainViolation):
        majorant(1.0, 3, 1)  # b = 1, domain is [0, 1)
    assert majorant(0.999, 3, 1) > 1.0


def test_majorant_strictly_increasing():
    for n, p in ((2, math.inf), (5, 2), (10, 1), (7, 1.5), (20, 3)):
        b = 2.0 ** (1.0 / NormIndex(p).q)
        hi = min(1.0, 1.0 / b) * (1 - 1e-9)
        values = [majorant(hi * i / 1000, n, p) for i in range(1000)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_majorant_below_exponential_envelope():
    # g(x) exp(g(x)) with g = ax/((1-x)(1-bx)) dominates strictly on (0, 1/b).
    for n in (2, 5, 20, 50):
        for p in (1, 2, math.inf):
            q = NormIndex(p).q
            a = (n - 1) ** (1.0 / q)
            b = 2.0 ** (1.0 / q)
            hi = min(1.0, 1.0 / b)
            for i in range(1, 400):
                x = hi * (i / 400) * 0.999
                g = a * x / ((1 - x) * (1 - b * x))
                try:
                    envelope = g * math.exp(g)
                except OverflowError:
                    continue
                assert majorant(x, n, p) < envelope


def test_sum_norm_envelope_dominates_majorant():
    # for p = 1 the n -> inf envelope is x/(1-x)^2 exp(x/(1-x))
    for n in (2, 3, 5, 10, 25, 50):
        for i in range(1, 500):
            x = (i / 500) * 0.998
            envelope = x / (1 - x) ** 2 * math.exp(x / (1 - x))
            assert majorant(x, n, 1) < envelope


# --- convergence radius ----------------------------------------------------


def test_radius_small_case():
    assert convergence_radius(2, math.inf) == pytest.approx(0.25, abs=1e-10)


def test_radius_satisfies_defining_equation():
    for n, p in ((2, math.inf), (3, 1), (10, 2), (40, 1.5), (100, 3)):
        r = convergence_radius(n, p)
        assert majorant(r, n, p) == pytest.approx(1.0, abs=1e-10)


def test_radius_regression_value():
    assert convergence_radius(10, 2) == pytest.approx(0.13910491656494767, abs=1e-9)


# --- certificates ----------------------------------------------------------


def test_certify_walkthrough():
    cert = certify(SQUARE, (2, -2), math.inf)
    assert cert.e0 == pytest.approx(0.1875)
    assert cert.lam == pytest.approx(0.48, rel=1e-12)
    assert cert.theta == pytest.approx(0.625)
    assert cert.satisfied and cert.strict


def test_certify_at_root_vector():
    cert = certify(SQUARE, (1, -1), 2)
    assert cert.e0 == 0.0
    assert cert.lam == 0.0
    assert cert.theta == 1.0
    assert cert.satisfied and cert.strict


def test_certify_far_point_fails():
    cert = certify(SQUARE, (10, 9.9), math.inf)
    assert not cert.satisfied
    assert not cert.strict
    assert math.isinf(cert.lam)


def test_certificate_agrees_with_radius_formulation():
    rng = random.Random(20)
    for _ in range(400):
        n = rng.randint(2, 20)
        p = GRID_P[rng.randrange(len(GRID_P))]
        b = 2.0 ** (1.0 / NormIndex(p).q)
        e = rng.random() * min(1.0, 1.0 / b)
        radius = convergence_radius(n, p)
        cert = certificate_from_quantity(e, n, p)
        assert cert.theta == pytest.approx(1.0 - b * e, rel=1e-15)
        assert cert.satisfied == (cert.e0 < 1.0 / b and cert.lam <= 1.0)
        assert cert.strict == (cert.satisfied and cert.lam < 1.0)
        if cert.satisfied:
            assert 0.0 < cert.theta <= 1.0
        if abs(e - radius) <= 1e-9:
            continue  # within bisection tolerance either verdict is defensible
        assert cert.satisfied == (e <= radius)


@pytest.mark.parametrize(
    "lam, satisfied", [(1.0, True), (math.nextafter(1.0, 2.0), False)], ids=["one", "above-one"]
)
def test_certificate_at_a_majorant_of_exactly_one(monkeypatch, lam, satisfied):
    # The theorem holds at lam <= 1. No float E near the radius gives a
    # majorant of exactly 1.0, so the majorant is replaced to reach the edge.
    monkeypatch.setattr(weierstrass.certificates, "majorant", lambda e, n, p: lam)
    cert = certificate_from_quantity(0.1, 5, 2)
    assert (cert.lam, cert.satisfied, cert.strict) == (lam, satisfied, False)


@pytest.mark.parametrize("where", ["edge", "above-edge", "one", "inf", "nan"])
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_certificate_outside_the_majorant_domain(p, where):
    q = NormIndex(p).q
    edge = min(1.0, 2.0 ** (-1.0 / q))
    e = {
        "edge": edge,
        "above-edge": math.nextafter(edge, math.inf),
        "one": 1.0,
        "inf": math.inf,
        "nan": math.nan,
    }[where]
    cert = certificate_from_quantity(e, 5, p)
    assert cert.lam == math.inf
    assert not cert.satisfied
    assert not cert.strict
    assert cert.theta.hex() == (1.0 - 2.0 ** (1.0 / q) * e).hex()


def test_certificate_needs_degree_two():
    with pytest.raises(ValueError, match=r"^degree must be at least 2, got 1$"):
        certificate_from_quantity(0.1, 1, 2)


# --- error bounds ----------------------------------------------------------


def test_apriori_zero_contraction_gives_zero():
    cert = Certificate(e0=0.0, lam=0.0, theta=1.0, satisfied=True, strict=True)
    for k in (1, 2, 10):
        assert apriori_bound(k, cert, 1.0) == 0.0


def test_apriori_hand_values():
    cert = Certificate(e0=0.25, lam=1.0, theta=0.5, satisfied=True, strict=False)
    assert apriori_bound(1, cert, 1.0) == pytest.approx(1.0)
    cert = Certificate(e0=0.25, lam=0.5, theta=0.5, satisfied=True, strict=True)
    # 0.25 * 0.125 / (1 - 0.5 * 0.0625) = 0.03125/0.96875
    assert apriori_bound(2, cert, 1.0) == pytest.approx(0.03125 / 0.96875, rel=1e-12)


def test_apriori_requires_satisfied_certificate():
    cert = Certificate(e0=0.9, lam=5.0, theta=-0.8, satisfied=False, strict=False)
    with pytest.raises(CertificateNotSatisfied):
        apriori_bound(1, cert, 1.0)


def test_apriori_rejects_a_zero_denominator():
    cert = Certificate(e0=0.1, lam=1.0, theta=1.0, satisfied=True, strict=False)
    with pytest.raises(DegenerateDenominator) as excinfo:
        apriori_bound(1, cert, 1.0)
    assert str(excinfo.value) == "1 - theta lam^(2^k) = 0 is not positive"


def test_apriori_rejects_k_zero():
    cert = Certificate(e0=0.1, lam=0.5, theta=0.8, satisfied=True, strict=True)
    with pytest.raises(DomainViolation):
        apriori_bound(0, cert, 1.0)


def test_apriori_deep_iterates_underflow_to_zero():
    cert = Certificate(e0=0.1, lam=0.5, theta=0.8, satisfied=True, strict=True)
    assert apriori_bound(60, cert, 1.0) == 0.0
    assert apriori_bound(5000, cert, 1.0) == 0.0


def test_aposteriori_zero_at_root_vector():
    assert aposteriori_bound(SQUARE, (1, -1), 2, 0.0) == 0.0
    assert aposteriori_bound(SQUARE, (1, -1), 2, 5.0) == 0.0


def test_aposteriori_walkthrough_dominates_true_error():
    bound = aposteriori_bound(SQUARE, (2, -2), math.inf, 0.75)
    assert bound == pytest.approx(0.2628504672897196, rel=1e-12)
    # next iterate is (1.25, -1.25), true error 0.25
    assert bound >= 0.25


def test_aposteriori_requires_satisfied_certificate():
    with pytest.raises(CertificateNotSatisfied):
        aposteriori_bound(SQUARE, (10, 9.9), math.inf, 1.0)


def test_aposteriori_rejects_a_zero_denominator(monkeypatch):
    # No point of a polynomial gives theta lam^2 = 1 with lam <= 1, so the
    # certificate at z^k is substituted.
    cert = Certificate(e0=0.1, lam=1.0, theta=1.0, satisfied=True, strict=False)
    monkeypatch.setattr(weierstrass.certificates, "certify", lambda poly, zk, p: cert)
    with pytest.raises(DegenerateDenominator) as excinfo:
        aposteriori_bound(SQUARE, (2, -2), math.inf, 0.75)
    assert str(excinfo.value) == "1 - theta lam^2 is not positive (lam = 1)"


def test_aposteriori_equals_first_apriori_step():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 8)
        roots = random_distinct_points(rng, n, min_sep=0.2)
        poly = Polynomial.from_roots(roots)
        z = tuple(r + 1e-3 * random_unit_disk(rng) for r in roots)
        for p in (1, 2, math.inf):
            cert = certify(poly, z, p)
            assert cert.satisfied
            direct = aposteriori_bound(poly, z, p, 1.7)
            via_apriori = apriori_bound(1, cert, 1.7)
            assert direct == pytest.approx(via_apriori, rel=1e-12)


# --- published thresholds --------------------------------------------------


def test_exp_fixed_point_constant():
    a = solve_exp_fixed_point()
    assert a == pytest.approx(1.763222, abs=1e-5)
    assert abs(math.exp(1 / a) - a) <= 1e-9
    assert 1.5 < a < 2.0


def test_exp_majorant_radius_degree_two():
    value = radius_exp_majorant(2, math.inf)
    assert value == pytest.approx(0.209942, abs=1e-5)
    assert value == pytest.approx(1.0 / (solve_exp_fixed_point() + 3.0), rel=1e-14)


def test_simple_radius_values():
    assert radius_simple(2, math.inf) == pytest.approx(0.25)
    # q = inf collapses (n-1)^(1/q) to 1 for any degree
    assert radius_simple(5, 1) == pytest.approx(0.25)


def test_sum_norm_radius_constant():
    r = radius_sum_norm()
    assert r == pytest.approx(0.307541, abs=1e-5)
    residual = r / (1 - r) ** 2 * math.exp(r / (1 - r)) - 1.0
    assert abs(residual) <= 1e-9
    for n in range(2, 51):
        assert majorant(r, n, 1) < 1.0


def test_han_radius():
    # tau = 2(sqrt(2)-1)/3, value tau(1-tau)
    assert radius_han(2, math.inf) == pytest.approx(0.19989, abs=1e-5)
    for n in range(2, 1001):
        assert n * (2 ** (1 / n) - 1) < 1.0
    for n in (2, 5, 17, 60, 100):
        for p in GRID_P:
            assert radius_han(n, p) <= radius_simple(n, p) + 1e-15


def test_lambda_zheng_matches_majorant():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(2, 20)
        c = rng.uniform(1e-6, 0.499)
        assert lambda_zheng(c, n) == pytest.approx(majorant(c, n, math.inf), rel=1e-14)
    assert lambda_zheng(0.25, 2) == pytest.approx(1.0, rel=1e-14)
    assert lambda_zheng(1e-9, 5) < 1e-7
    # The growth factor overflows here; the value is inf, like the majorant's.
    assert lambda_zheng(0.4999999, 100) == majorant(0.4999999, 100, math.inf) == math.inf
    with pytest.raises(DomainViolation):
        lambda_zheng(0.5, 4)
    with pytest.raises(DomainViolation):
        lambda_zheng(0.0, 4)


def test_inf_linear_radius():
    assert radius_inf_linear(2) == pytest.approx(0.237338, abs=1e-6)
    for n in (2, 10, 132, 500):
        assert majorant(radius_inf_linear(n), n, math.inf) < 1.0
    # tighter offset than the Petkovic-Herceg threshold, for every degree
    for n in range(2, 501):
        assert radius_inf_linear(n) > threshold_petkovic_herceg(n)


def test_wang_zhao_inf_constants():
    assert c_wangzhao_inf(2) == pytest.approx(0.25, abs=1e-9)
    assert c_wangzhao_inf(3) == pytest.approx(0.112, abs=1e-3)
    assert c_wangzhao_inf(3) == pytest.approx(0.11261179092238027, abs=1e-6)
    for n in range(4, 101):
        assert c_wangzhao_inf(n) < 1 / (3 * n)


def test_wang_zhao_inf_rejects_an_inaccurate_stationary_point(monkeypatch):
    # A bisection that returns half the stationary point: the objective and
    # its closed form at that point disagree, and the cross-check says so.
    bisect = weierstrass.certificates.bisect
    monkeypatch.setattr(
        weierstrass.certificates, "bisect", lambda f, lo, hi: 0.5 * bisect(f, lo, hi)
    )
    with pytest.raises(ConvergenceFailure, match="inaccurate at n = 5: "):
        c_wangzhao_inf.__wrapped__(5)


def test_wang_zhao_l1_constants():
    assert c_wangzhao_l1(4) == pytest.approx(0.279, abs=1e-3)
    assert c_wangzhao_l1(4) == pytest.approx(0.2790095463060578, abs=1e-6)
    # j! overflows at j = 171 and 3^j at j = 647, where a term of the slope
    # at the bracket's end 3 was 0 * inf = NaN. From j = 171 on every term
    # is +0.0, so the series stops there: n = 648 and n = 10^9 are solved,
    # the latter in the time of n = 171, and C(n) keeps falling across 647.
    values = [c_wangzhao_l1(n) for n in (*range(4, 52), 170, 171, 646, 647, 648, 649, 10**9)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values
    assert all(0.0 < v <= 0.3 for v in values)
    with pytest.raises(DomainViolation):
        c_wangzhao_l1(3)


# A frozen copy of the sum-norm constant as it was computed before the slope
# bisection: a 300-point scan of (0, 3] brackets the minimum of the objective,
# and a golden-section search narrows that bracket to width 1e-12.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_section(f, lo, hi, tol=1e-12):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return f(0.5 * (lo + hi))


@functools.lru_cache(maxsize=None)
def reference_c_wangzhao_l1(n):
    def objective(x):
        total = 0.0
        factorial = 1.0
        power = x
        for j in range(1, n):
            factorial *= j
            power *= x
            total += (n - j) / (factorial * n) * power
        return total - x

    xs = [0.01 * i for i in range(1, 301)]
    best = min(range(len(xs)), key=lambda i: objective(xs[i]))
    lo = xs[best] - 0.01 if best > 0 else 1e-12
    hi = xs[best] + 0.01 if best < len(xs) - 1 else 3.0
    return -_reference_golden_section(objective, lo, hi)


def test_wang_zhao_l1_is_within_four_ulps_of_the_frozen_reference():
    for n in range(4, 101):
        reference = reference_c_wangzhao_l1(n)
        assert abs(c_wangzhao_l1(n) - reference) <= 4 * math.ulp(reference), n


def test_wang_zhao_l1_keeps_its_row_in_every_sum_norm_table():
    # The frozen constant, sorted among the other rows in catalog order as
    # radius_table sorts them, must give the same row order.
    catalog = [row[0] for row in _CATALOG]
    for n in range(4, 101):
        entries, _ = radius_table(n, 1)
        values = {e.name: e.value for e in entries}
        values["wang-zhao-l1"] = reference_c_wangzhao_l1(n)
        expected = sorted(sorted(values, key=catalog.index), key=lambda name: -values[name])
        assert [e.name for e in entries] == expected, n


def test_memoized_constants_equal_a_fresh_computation():
    for n in range(4, 41):
        assert c_wangzhao_inf(n) == c_wangzhao_inf.__wrapped__(n)
        assert c_wangzhao_l1(n) == c_wangzhao_l1.__wrapped__(n)
    for n in range(2, 101):
        for p in GRID_P:
            radius = convergence_radius(n, p)
            assert radius == convergence_radius.__wrapped__(n, p), (n, p)
            assert convergence_radius(n, NormIndex(p)) == radius, (n, p)


def test_radius_table_returns_fresh_lists():
    entries, omitted = radius_table(12, 1)
    expected = (list(entries), list(omitted))
    entries.clear()
    omitted.append(("bogus", "mutated by the caller"))
    assert radius_table(12, 1) == expected


def test_zhao_wang_l1_threshold():
    assert radius_zhaowang_l1(2) == pytest.approx(0.343146, abs=1e-6)
    assert radius_zhaowang_l1(10 ** 9) == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-8)
    # subsumed by the sharp exp-majorant radius from degree 3 on, but not at 2
    for n in range(3, 101):
        assert radius_zhaowang_l1(n) <= radius_exp_majorant(n, 1, sharp=True)
    assert radius_zhaowang_l1(2) > radius_exp_majorant(2, 1, sharp=True)


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("n", (2, 3, 5, 10, 20))
def test_threshold_ordering_and_soundness(n, p):
    exact = convergence_radius(n, p)
    sharp = radius_exp_majorant(n, p, sharp=True)
    plain = radius_exp_majorant(n, p)
    simple = radius_simple(n, p)
    han = radius_han(n, p)
    assert han <= simple + 1e-15
    assert simple <= exact + 1e-12
    assert plain <= sharp + 1e-15
    assert sharp <= exact + 1e-12
    for r in (sharp, plain, simple, han):
        assert majorant(r, n, p) <= 1 + 1e-12


# --- the comparison table --------------------------------------------------


def test_radius_table_generic_p():
    entries, omitted = radius_table(6, 2)
    names = {e.name for e in entries}
    assert names == {"exact", "exp-majorant", "exp-majorant-sharp", "simple", "han"}
    assert {name for name, _ in omitted} == {
        "sum-norm",
        "inf-linear",
        "zheng",
        "wang-zhao-inf",
        "petkovic-herceg",
        "wang-zhao-l1",
        "zhao-wang-l1",
    }
    values = [e.value for e in entries]
    assert values == sorted(values, reverse=True)
    for e in entries:
        assert e.kind == "ratio"
        if e.name == "exact":
            assert e.majorant_at_value == pytest.approx(1.0, abs=1e-10)
        else:
            assert e.majorant_at_value <= 1 + 1e-12


def test_radius_table_sum_norm_side():
    entries, _ = radius_table(4, 1)
    by_name = {e.name: e for e in entries}
    assert by_name["sum-norm"].kind == "ratio"
    assert by_name["sum-norm"].value == pytest.approx(0.307541, abs=1e-5)
    wz = by_name["wang-zhao-l1"]
    assert wz.kind == "w_over_delta"
    assert wz.norm == 1.0
    assert wz.majorant_at_value is None
    assert by_name["zhao-wang-l1"].value == pytest.approx((3 - 2 * math.sqrt(2)) * 4 / 3)


def test_radius_table_max_norm_side():
    entries, _ = radius_table(5, math.inf)
    by_name = {e.name: e for e in entries}
    assert by_name["inf-linear"].kind == "ratio"
    assert by_name["zheng"].kind == "w_over_delta"
    assert math.isinf(by_name["zheng"].norm)
    assert by_name["zheng"].value == pytest.approx(convergence_radius(5, math.inf))
    assert by_name["wang-zhao-inf"].value == pytest.approx(c_wangzhao_inf(5))
    assert by_name["petkovic-herceg"].value == pytest.approx(threshold_petkovic_herceg(5))


def test_radius_table_small_degree_omits_wang_zhao_l1():
    entries, omitted = radius_table(2, 1)
    assert "wang-zhao-l1" not in {e.name for e in entries}
    assert ("wang-zhao-l1", "requires n >= 4") in omitted
