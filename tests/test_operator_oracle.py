"""The operator kernels against their all-pairs reference formulas, bit for bit.

`weierstrass_correction` skips its per-pair coincidence check when the
sorted parts of the points rule a coincidence out, and `distances` sweeps the
finite points in real-part order. Both promise the exact doubles, and the
exact exceptions, of the direct formulas below, except that `distances`
raises OverflowError only for a pair its sweep visits.

Below degree `_ONE_PASS_BELOW`, `certificate_quantity` forms W, d and delta
in one loop per row instead; it promises the doubles, and the exceptions, of
`weierstrass_correction`, `distances` and `p_norm` run one after the other.
"""

import cmath
import math
import random

import pytest

from conftest import random_unit_disk
from weierstrass import (
    DistinctCoordinatesViolated,
    NonFiniteValue,
    Polynomial,
    certificate_quantity,
    distances,
    p_norm,
    weierstrass_correction,
)
from weierstrass.operator import COINCIDENCE_FLOOR, _ONE_PASS_BELOW, _one_pass, _separated


def reference_correction(poly, z):
    """W_i(z) = f(z_i) / prod_{j != i} (z_i - z_j), one row at a time."""
    pts = [complex(c) for c in z]
    if len(pts) != poly.degree:
        raise ValueError(f"point has {len(pts)} coordinates, polynomial degree is {poly.degree}")
    w = []
    for i, zi in enumerate(pts):
        den = 1 + 0j
        for j, zj in enumerate(pts):
            if j == i:
                continue
            diff = zi - zj
            if abs(diff) < COINCIDENCE_FLOOR:
                raise DistinctCoordinatesViolated(
                    f"coordinates {i} and {j} coincide (separation {abs(diff):.3g})"
                )
            den *= diff
        try:
            wi = poly.evaluate(zi) / den
        except ZeroDivisionError:
            raise NonFiniteValue(f"denominator product underflowed to zero at coordinate {i}")
        if not cmath.isfinite(wi):
            raise NonFiniteValue(f"correction overflowed at coordinate {i}")
        w.append(wi)
    return tuple(w)


def reference_distances(z):
    """d_i = min_{j != i} |z_i - z_j| over all pairs, and delta = min_i d_i."""
    pts = [complex(c) for c in z]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 coordinates")
    d = [math.inf] * n
    for i in range(n):
        for j in range(i + 1, n):
            sep = abs(pts[i] - pts[j])
            if sep < COINCIDENCE_FLOOR:
                raise DistinctCoordinatesViolated(
                    f"coordinates {i} and {j} coincide (separation {sep:.3g})"
                )
            if sep < d[i]:
                d[i] = sep
            if sep < d[j]:
                d[j] = sep
    return tuple(d), min(d)


def reference_quantity(poly, z, p):
    """W, d, delta and E = ||W/d||_p from the two kernels and `p_norm`."""
    w = weierstrass_correction(poly, z)
    d, delta = distances(z)
    return w, d, delta, p_norm([wi / di for wi, di in zip(w, d)], p)


def fused_quantity(poly, z, p):
    data = certificate_quantity(poly, z, p)
    return data.w, data.d, data.delta, data.e


def _bits(value):
    """Exact representation of a result: float.hex of every real and imaginary part."""
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    return float(value).hex()


def _outcome(f, *args):
    try:
        return "ok", _bits(f(*args))
    except (ValueError, DistinctCoordinatesViolated, NonFiniteValue) as exc:
        return type(exc).__name__, str(exc)


def _unit_disk_cloud(rng, n):
    return [random_unit_disk(rng) for _ in range(n)]


def _circle(rng, n):
    phase = rng.random()
    radius = 0.5 + rng.random()
    return [radius * cmath.exp(2j * math.pi * (k + phase) / n) for k in range(n)]


def _conjugate_symmetric(rng, n):
    upper = [complex(rng.uniform(-1, 1), rng.uniform(0.01, 1)) for _ in range(n // 2)]
    pts = upper + [z.conjugate() for z in upper] + [complex(rng.uniform(-1, 1), 0)] * (n % 2)
    rng.shuffle(pts)
    return pts


def _equal_real_parts(rng, n):
    x = rng.uniform(-1, 1)
    return [complex(x, rng.uniform(-1, 1)) for _ in range(n)]


def _equal_imag_parts(rng, n):
    y = rng.uniform(-1, 1)
    return [complex(rng.uniform(-1, 1), y) for _ in range(n)]


def _clusters(rng, n):
    centres = [random_unit_disk(rng) for _ in range(max(1, n // 4))]
    return [
        rng.choice(centres) + 1e-12 * complex(k, rng.uniform(-3, 3)) for k in range(n)
    ]


POINT_SETS = [
    _unit_disk_cloud,
    _circle,
    _conjugate_symmetric,
    _equal_real_parts,
    _equal_imag_parts,
    _clusters,
]


@pytest.mark.parametrize("make_points", POINT_SETS, ids=[f.__name__[1:] for f in POINT_SETS])
def test_certificate_quantity_matches_its_kernels_bit_for_bit(make_points):
    # Both sides of the degree at which the one-pass loop hands over.
    rng = random.Random(f"one-pass/{make_points.__name__}")
    for n in range(2, _ONE_PASS_BELOW + 9):
        z = make_points(rng, n)
        for poly in (
            Polynomial.from_coefficients([random_unit_disk(rng) for _ in range(n)]),
            Polynomial.from_roots(_unit_disk_cloud(rng, n)),
        ):
            p = rng.choice((1, 2, 3.5, math.inf))
            expected = _outcome(reference_quantity, poly, z, p)
            assert _outcome(fused_quantity, poly, z, p) == expected, (n, poly)
            if n < _ONE_PASS_BELOW and expected[0] == "ok":
                assert _one_pass(poly, z) is not None, n


def _quantity_outcomes(z):
    """certificate_quantity and its reference at z, for a coefficient-held
    and a root-held polynomial of degree len(z), and of one degree more."""
    n = len(z)
    polys = [
        Polynomial.from_coefficients([0.5] * n),
        Polynomial.from_roots([complex(k, 1) for k in range(n)]),
        Polynomial.from_coefficients([0.5] * (n + 1)),
    ]
    return [
        (_outcome_with_overflow(fused_quantity, poly, z, 2),
         _outcome_with_overflow(reference_quantity, poly, z, 2))
        for poly in polys
    ]


@pytest.mark.parametrize("make_points", POINT_SETS, ids=[f.__name__[1:] for f in POINT_SETS])
def test_kernels_match_reference_bit_for_bit(make_points):
    rng = random.Random(f"oracle/{make_points.__name__}")
    for n in list(range(2, 13)) + [rng.randint(13, 99) for _ in range(6)] + [100]:
        z = make_points(rng, n)
        poly = Polynomial.from_coefficients([random_unit_disk(rng) for _ in range(n)])
        assert _outcome(distances, z) == _outcome(reference_distances, z)
        assert _outcome(weierstrass_correction, poly, z) == _outcome(reference_correction, poly, z)


NAN = float("nan")
INF = math.inf


@pytest.mark.parametrize(
    "z",
    [
        # Coincident pairs whose order by real part differs from their index order.
        [2, 0, 2, 0],
        [3 + 1j, 1, 1 + 1e-310, 3 + 1j, -1],
        [5j, 1, -2, 5j + 1e-301j, -2, 1],
        [1j, 1j, -1j, -1j],
        # Non-finite coordinates.
        [NAN, 0, 1],
        [0, 1, complex(0, NAN), 2],
        [INF, 0, 1],
        [complex(INF, 1), complex(-INF, 1), 0],
        [complex(0, INF), complex(0, -INF), 3],
        [NAN, 1, 1, 2],
        # Differences that overflow, and denominators that underflow.
        [1e308, -1e308, 0],
        [1e-200, 2e-200, 3e-200],
    ],
)
def test_degenerate_inputs_match_reference(z):
    poly = Polynomial.from_coefficients([0.5] * len(z))
    assert _outcome(distances, z) == _outcome(reference_distances, z)
    assert _outcome(weierstrass_correction, poly, z) == _outcome(reference_correction, poly, z)
    for got, expected in _quantity_outcomes(z):
        assert got == expected


DEGENERATE_PARTS = (NAN, INF, -INF, 0.0, -0.0, 1e-310, 1e-300, 1e307, -1e307)


def _degenerate_part(rng):
    return rng.choice(DEGENERATE_PARTS) if rng.random() < 0.4 else rng.uniform(-2, 2)


def _degenerate_point(rng, n):
    """n points whose parts mix non-finite values, signed zeros, subnormal and
    near-floor values and parts of modulus 1e307, with repeated points."""
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.2:
            pts.append(rng.choice(pts))
        else:
            pts.append(complex(_degenerate_part(rng), _degenerate_part(rng)))
    return pts


def test_degenerate_sweep_matches_reference():
    # Every part is at most 1e307 in modulus, so no |z_i - z_j| overflows.
    rng = random.Random("oracle/degenerate")
    poly = {n: Polynomial.from_coefficients([0.5] * n) for n in range(2, 10)}
    for _ in range(2000):
        z = _degenerate_point(rng, rng.randint(2, 9))
        assert _outcome(distances, z) == _outcome(reference_distances, z), z
        assert _outcome(weierstrass_correction, poly[len(z)], z) == _outcome(
            reference_correction, poly[len(z)], z
        ), z
        assert _outcome_with_overflow(fused_quantity, poly[len(z)], z, 1) == (
            _outcome_with_overflow(reference_quantity, poly[len(z)], z, 1)
        ), z


def test_conjugate_pair_keeps_the_sign_of_zero():
    # z_1 - z_0 is 0+2j but -(z_0 - z_1) is -0+2j, and under f(z) = z^2 the
    # sign of that zero reaches the imaginary part of W_1.
    poly = Polynomial.from_coefficients([0, 0])
    z = [1 - 1j, 1 + 1j]
    assert _outcome(weierstrass_correction, poly, z) == _outcome(reference_correction, poly, z)
    assert _outcome(fused_quantity, poly, z, 2) == _outcome(reference_quantity, poly, z, 2)


def _outcome_with_overflow(f, *args):
    """`_outcome`, also recording the OverflowError abs() raises on a modulus too large."""
    try:
        return _outcome(f, *args)
    except OverflowError as exc:
        return type(exc).__name__, str(exc)


BELOW_FLOOR = math.nextafter(COINCIDENCE_FLOOR, 0)

# Inputs on either side of the test that lets `weierstrass_correction` skip
# the coincidence check: finite parts of modulus at most 1e307, and sorted
# real (or imaginary) parts at least COINCIDENCE_FLOOR apart.
SEPARATION_BOUNDARY = {
    # One real part for all: only the imaginary parts are apart.
    "equal-real-parts": [complex(0.25, y) for y in (-1, 0.5, 2, -0.75, 3)],
    # Conjugate pairs and two points on the real axis repeat a real part and
    # an imaginary part, so every pair is checked.
    "conjugates-and-real-axis": [1 + 1j, 1 - 1j, -2 + 0.5j, -2 - 0.5j, 0.3, -0.7],
    # W_0 overflows before the pair (1, 2), closer than 1e-301, is reached.
    "overflow-before-coincidence": [1e200, 0, 1e-302],
    # Every difference of parts is finite, but abs() of z_0 - z_1 (and of
    # z_1 - z_2, after W_0 is formed) overflows.
    "abs-overflows-in-row-0": [1.5e308, complex(1, 1.5e308), 0.5],
    "abs-overflows-in-row-1": [0.5, 1.5e308, complex(1, 1.5e308)],
    # Parts of modulus 1e307, whose differences and moduli stay finite.
    "parts-at-1e307": [0.5, 1e307, complex(-1e307, 1), complex(2, 1e307), complex(3, -1e307)],
    # Real-part gaps of exactly COINCIDENCE_FLOOR, and of one ulp below it.
    "real-gap-at-floor": [0, COINCIDENCE_FLOOR, 1, 2 + 2j],
    "real-gap-at-floor-equal-imag": [
        1j,
        complex(COINCIDENCE_FLOOR, 1),
        complex(2 * COINCIDENCE_FLOOR, -1),
    ],
    "real-gap-below-floor": [0, BELOW_FLOOR, 1],
    "real-gap-below-floor-apart": [1j, complex(BELOW_FLOOR, -1), complex(2, 1)],
    # sorted() leaves a NaN where it stood, and 1e-310 after it: only an
    # explicit finiteness test sees the pair (0, 3) as unchecked.
    "nan-hides-coincident-pair": [0, 2, NAN, 1e-310],
}


@pytest.mark.parametrize("z", SEPARATION_BOUNDARY.values(), ids=SEPARATION_BOUNDARY.keys())
def test_separation_boundary_matches_reference(z):
    poly = Polynomial.from_coefficients([0.5] * len(z))
    got = _outcome_with_overflow(weierstrass_correction, poly, z)
    assert got == _outcome_with_overflow(reference_correction, poly, z)
    for got, expected in _quantity_outcomes(z):
        assert got == expected


def test_distances_raise_only_for_a_pair_the_sweep_visits():
    # |1.5e308 - 1.5e308j| overflows, but the sweep stops before that pair:
    # the all-pairs scan, and W (which certificate_quantity calls first), raise.
    z = [1.5e308j, 1.5e308, 5]
    assert distances(z) == ((1.5e308,) * 3, 1.5e308)
    with pytest.raises(OverflowError):
        reference_distances(z)
    with pytest.raises(OverflowError):
        certificate_quantity(Polynomial.from_coefficients([0.5] * 3), z, 2)


SEPARATED = {
    "real-gap-at-floor": ([0, COINCIDENCE_FLOOR, 1], True),
    "real-gap-below-floor": ([0, BELOW_FLOOR, 1], False),
    # The imaginary parts alone can separate, as can the real parts alone.
    "equal-real-parts": ([complex(0.25, y) for y in (-1, 0.5, 2)], True),
    "real-gaps-at-floor-equal-imag": (
        [1j, complex(COINCIDENCE_FLOOR, 1), complex(2 * COINCIDENCE_FLOOR, -1)],
        True,
    ),
    "conjugates-and-real-axis": ([1 + 1j, 1 - 1j, 0.3, -0.7], False),
    # Parts of modulus up to 1e307, and not one ulp more.
    "parts-at-1e307": ([complex(-1e307, 1), complex(1e307, -1e307), 1e307j], True),
    "real-part-above-1e307": ([0, math.nextafter(1e307, INF)], False),
    "imag-part-above-1e307": ([0, complex(1, -math.nextafter(1e307, INF))], False),
    "infinite-part": ([0, 1, INF], False),
    "nan-hides-coincident-pair": ([0, 2, NAN, 1e-310], False),
    "nan-imag-part": ([0, 1, complex(2, NAN)], False),
}


@pytest.mark.parametrize("z, separated", SEPARATED.values(), ids=SEPARATED.keys())
def test_separated_at_its_boundaries(z, separated):
    assert _separated([complex(c) for c in z]) is separated
