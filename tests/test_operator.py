import math
import random

import pytest

from conftest import random_distinct_points, random_unit_disk
from weierstrass import (
    DistinctCoordinatesViolated,
    InvalidExponent,
    NonFiniteValue,
    NormIndex,
    Polynomial,
    certificate_quantity,
    conjugate_exponent,
    distances,
    p_norm,
    weierstrass_correction,
)

SQUARE = Polynomial.from_coefficients([-1, 0])  # z^2 - 1


def test_conjugate_exponent():
    assert conjugate_exponent(2) == 2
    assert conjugate_exponent(math.inf) == 1
    assert conjugate_exponent(1) == math.inf
    assert conjugate_exponent(1.5) == pytest.approx(3.0)
    with pytest.raises(InvalidExponent):
        conjugate_exponent(0.5)


def test_norm_index_conventions():
    # 1/q = 0 at q = inf, so the certificate prefactors degenerate to 1.
    q = NormIndex(1).q
    assert 2.0 ** (1.0 / q) == 1.0
    assert 7.0 ** (1.0 / q) == 1.0
    assert NormIndex(math.inf).q == 1.0
    with pytest.raises(InvalidExponent):
        NormIndex(0.99)


def test_p_norm_examples():
    v = (3, 4j)
    assert p_norm(v, 2) == pytest.approx(5.0)
    assert p_norm(v, math.inf) == pytest.approx(4.0)
    assert p_norm(v, 1) == pytest.approx(7.0)
    assert p_norm(v, 3) == pytest.approx((27 + 64) ** (1 / 3))


@pytest.mark.parametrize(
    "v, p, expected",
    [
        # The unscaled power sum underflows to 0 ...
        ([0.1875, 0.1875], 2000, 0.1875 * 2 ** (1 / 2000)),
        # ... or to a subnormal ...
        ([0.69, 0.69], 2000, 0.69 * 2 ** (1 / 2000)),
        ([1e-160, 1e-160j], 2, 1e-160 * math.sqrt(2)),
        # ... or overflows.
        ([3, 3], 800, 3 * 2 ** (1 / 800)),
        ([3e200, -4e200j], 2, 5e200),
    ],
)
def test_p_norm_rescales_when_the_power_sum_leaves_the_normal_range(v, p, expected):
    assert p_norm(v, p) == pytest.approx(expected, rel=1e-14, abs=0)


def test_p_norm_edge_values():
    assert p_norm([], 3) == 0.0
    assert p_norm([0, 0j], 2000) == 0.0
    assert p_norm([1, math.inf], 3) == math.inf
    assert p_norm([1e300, 1e300], 2) == pytest.approx(math.sqrt(2) * 1e300, rel=1e-14)
    assert math.isnan(p_norm([1, math.nan], 3))
    # 1.98...^2000 overflows, so the rescaled pass meets the NaN entry with
    # errno still at ERANGE, where CPython's abs() of it raises OverflowError.
    assert math.isnan(p_norm([complex(math.nan, -0.68), complex(-1.98, 1.03)], 2000))
    assert math.isnan(p_norm([complex(-1.98, 1.03), complex(0.5, math.nan)], 2000))


@pytest.mark.parametrize("p", [1, 2, 2000, math.inf])
@pytest.mark.parametrize(
    "v",
    [
        [1, complex(math.nan, 0)],
        [0, math.nan],
        [math.inf, math.nan],
        # 1e300**2 overflows, so at p = 2 the rescaled pass decides.
        [1e300, math.inf, complex(0.5, math.nan)],
    ],
)
def test_p_norm_is_nan_whenever_an_entry_is_nan(v, p):
    # max() keeps a NaN only when it comes first, so both orders are checked.
    assert math.isnan(p_norm(v, p))
    assert math.isnan(p_norm(v[::-1], p))


def test_correction_at_root_vector_is_zero():
    assert weierstrass_correction(SQUARE, (1, -1)) == (0j, 0j)


def test_correction_hand_values():
    assert weierstrass_correction(SQUARE, (2, -2)) == (0.75 + 0j, pytest.approx(-0.75))
    poly = Polynomial.from_roots([1, 2])  # z^2 - 3z + 2
    w = weierstrass_correction(poly, (0, 4))
    assert w[0] == pytest.approx(-0.5)
    assert w[1] == pytest.approx(1.5)


def test_correction_rejects_coincident_coordinates():
    with pytest.raises(DistinctCoordinatesViolated):
        weierstrass_correction(SQUARE, (1, 1))
    with pytest.raises(DistinctCoordinatesViolated):
        weierstrass_correction(SQUARE, (0, 1e-310))


def test_correction_overflow_guard():
    with pytest.raises(NonFiniteValue):
        weierstrass_correction(SQUARE, (1e200, -1e200))


NAN_POINT = [complex(math.nan, 0), 0, 1]


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_p_norm_of_a_nan_entry_is_nan(call, p):
    assert math.isnan(call(p_norm, [complex(math.nan, 0), 1], p))


def test_distances_of_a_nan_coordinate(call):
    assert call(distances, NAN_POINT) == ((math.inf, 1.0, 1.0), 1.0)
    with pytest.raises(DistinctCoordinatesViolated, match="coordinates 0 and 2"):
        call(distances, [0, complex(math.nan, 0), 1e-310])


def test_correction_at_a_nan_coordinate(call):
    poly = Polynomial.from_coefficients([0.5] * 3)
    with pytest.raises(NonFiniteValue, match="coordinate 0"):
        call(weierstrass_correction, poly, NAN_POINT)
    with pytest.raises(DistinctCoordinatesViolated, match="coordinates 0 and 2"):
        call(weierstrass_correction, poly, [0, complex(math.nan, 0), 0])


def test_correction_checks_length():
    with pytest.raises(ValueError):
        weierstrass_correction(SQUARE, (1, 2, 3))


def test_distances_examples():
    d, delta = distances((0, 1, 3))
    assert d == (1.0, 1.0, 2.0)
    assert delta == 1.0
    d, delta = distances((2, -2))
    assert d == (4.0, 4.0)
    assert delta == 4.0
    d, delta = distances((0, 1j, -1j))
    assert d == (1.0, 1.0, 1.0)
    assert delta == 1.0


@pytest.mark.parametrize("z", [(), (1,)])
def test_distances_need_two_points(z):
    with pytest.raises(ValueError, match="need at least 2 coordinates"):
        distances(z)


def test_certificate_quantity_examples():
    data = certificate_quantity(SQUARE, (2, -2), math.inf)
    assert data.e == pytest.approx(0.1875)
    assert data.delta == 4.0
    data = certificate_quantity(SQUARE, (2, -2), 1)
    assert data.e == pytest.approx(0.375)
    for p in (1, 2, math.inf):
        assert certificate_quantity(SQUARE, (1, -1), p).e == 0.0


def test_trace_identity_on_random_inputs():
    # sum_i (z_i - W_i(z)) equals the root sum -c_{n-1} for any distinct z.
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(2, 20)
        coeffs = [2 * random_unit_disk(rng) for _ in range(n)]
        poly = Polynomial.from_coefficients(coeffs)
        z = random_distinct_points(rng, n, radius=2.0)
        w = weierstrass_correction(poly, z)
        lhs = sum(zi - wi for zi, wi in zip(z, w))
        rhs = -poly.coeffs[-1]
        scale = max(
            1.0, abs(rhs), sum(abs(zi) for zi in z) + sum(abs(wi) for wi in w)
        )
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_ratio_norm_never_exceeds_crude_quotient():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 15)
        coeffs = [random_unit_disk(rng) for _ in range(n)]
        poly = Polynomial.from_coefficients(coeffs)
        z = random_distinct_points(rng, n, radius=2.0)
        for p in (1, 2, math.inf):
            data = certificate_quantity(poly, z, p)
            crude = p_norm(data.w, p) / data.delta
            assert data.e <= crude * (1 + 1e-12) + 1e-15


def test_correction_vanishes_at_any_root_vector():
    # At its own roots the product form of f is exactly 0, and so is W.
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(2, 15)
        roots = random_distinct_points(rng, n, min_sep=1e-2)
        poly = Polynomial.from_roots(roots)
        assert weierstrass_correction(poly, roots) == (0j,) * n


def test_scale_and_translation_equivariance():
    # Roots c*r + t probed at c*z + t: W picks up the factor c, d the factor
    # |c|, and E is unchanged.
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 8)
        roots = random_distinct_points(rng, n, min_sep=1e-2)
        z = random_distinct_points(rng, n, radius=1.2, min_sep=1e-2)
        poly = Polynomial.from_roots(roots)
        c = (0.7 + 0.6 * rng.random()) * complex(
            math.cos(2 * math.pi * rng.random()), math.sin(2 * math.pi * rng.random())
        )
        t = 0.5 * random_unit_disk(rng)
        moved_poly = Polynomial.from_roots([c * r + t for r in roots])
        moved_z = [c * zi + t for zi in z]
        for p in (1, 2, math.inf):
            base = certificate_quantity(poly, z, p)
            moved = certificate_quantity(moved_poly, moved_z, p)
            for wi, wi2 in zip(base.w, moved.w):
                assert abs(wi2 - c * wi) <= 1e-10 * max(1.0, abs(c * wi))
            for di, di2 in zip(base.d, moved.d):
                assert abs(di2 - abs(c) * di) <= 1e-12 * abs(c) * di
            assert abs(moved.e - base.e) <= 1e-10 * max(base.e, 1e-30)


@pytest.mark.parametrize(
    "z, overflow_at",
    [
        ([0.5, -1 + 2j, 2 - 0.5j, 1j], None),
        ([0.5, 1e200, 2], 1),
        # A conjugate pair and two points on the real axis: every pair is checked.
        ([0.5 + 1j, 0.5 - 1j, 3, -2], None),
        ([0.5 + 1j, 0.5 - 1j, 1e200, 3], 2),
    ],
)
def test_correction_evaluates_each_coordinate_once_in_order(monkeypatch, z, overflow_at):
    calls = []
    evaluate = Polynomial.evaluate

    def counting(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    poly = Polynomial.from_coefficients([0.5] * len(z))
    if overflow_at is None:
        weierstrass_correction(poly, z)
        assert calls == [complex(c) for c in z]
    else:
        with pytest.raises(NonFiniteValue, match=f"at coordinate {overflow_at}$"):
            weierstrass_correction(poly, z)
        # A raise at coordinate k follows exactly k + 1 evaluations.
        assert calls == [complex(c) for c in z[: overflow_at + 1]]
