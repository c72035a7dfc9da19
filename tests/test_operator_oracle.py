"""The operator kernels against their all-pairs reference formulas, bit for bit.

`weierstrass_correction` forms its denominators eight rows per pass, takes
each pair's difference once for both of its rows, forms any denominator with
a zero part again one row at a time, and looks for a coincident pair only
when a row fails; `distances` sweeps the finite points in real-part order.
Both promise the exact doubles, and the exact exceptions, of the direct
formulas below, with two exceptions: `distances` raises OverflowError only
for a pair its sweep visits, and W returns the formula's values for
coordinates closer than COINCIDENCE_FLOOR when every row is finite, leaving
that pair to `distances`. `_bits` compares float.hex strings, which keep the
sign of a zero.

Below degree `_ONE_PASS_BELOW`, `certificate_quantity` forms W, d and delta
in one loop per row instead; it promises the doubles, and the exceptions, of
`weierstrass_correction`, `distances` and `p_norm` run one after the other.
"""

import cmath
import json
import math
import random

import pytest

from conftest import random_unit_disk
from weierstrass import (
    DistinctCoordinatesViolated,
    NonFiniteValue,
    Polynomial,
    aposteriori_bound,
    certificate_quantity,
    certify,
    distances,
    h_wangzhao,
    p_norm,
    run_sor,
    weierstrass_correction,
)
from weierstrass.cli import main, parse_problem
from weierstrass.operator import COINCIDENCE_FLOOR, _ONE_PASS_BELOW, _one_pass


def reference_correction(poly, z, floor=COINCIDENCE_FLOOR):
    """W_i(z) = f(z_i) / prod_{j != i} (z_i - z_j), one row at a time,
    rejecting pairs closer than `floor` (none when it is 0)."""
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
            if floor and abs(diff) < floor:
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


# `weierstrass_correction` forms the denominators of eight rows per pass;
# these degrees sit on either side of whole blocks, and from 23 on carry
# column products across two to four blocks, with 0-7 rows left over.
BLOCK_EDGES = [15, 16, 17, 24, 36, 40, 41, 23, 25, 31, 32, 33]


@pytest.mark.parametrize("make_points", POINT_SETS, ids=[f.__name__[1:] for f in POINT_SETS])
def test_kernels_match_reference_bit_for_bit(make_points):
    rng = random.Random(f"oracle/{make_points.__name__}")
    for n in list(range(2, 13)) + [rng.randint(13, 99) for _ in range(6)] + [100] + BLOCK_EDGES:
        z = make_points(rng, n)
        poly = Polynomial.from_coefficients([random_unit_disk(rng) for _ in range(n)])
        assert _outcome(distances, z) == _outcome(reference_distances, z)
        assert _outcome(weierstrass_correction, poly, z) == _outcome(reference_correction, poly, z)


def _real_line(rng, n):
    # Imaginary parts +0.0 and -0.0: equal as parts, with different signs.
    return [complex(rng.uniform(-2, 2), rng.choice((0.0, -0.0))) for _ in range(n)]


def _integer_grid(rng, n):
    side = math.isqrt(n - 1) + 1
    cells = rng.sample(range(side * side), n)
    return [complex(c % side - side // 2, c // side - side // 2) for c in cells]


# Coordinates that share a real or an imaginary part make a zero part in some
# a_k - z_j, whose negation is -0 where z_j - a_k is +0. A column product
# built from such differences can differ from the direct product in the sign
# of a zero part, so W forms each den_i with a zero part again, one row at a
# time; points on one line give every den_i a zero part. Real-valued data
# (real coefficients, real roots) keeps zero parts in f(z_i) too, where that
# sign reaches W: without the rule, W on the real line gives some zero parts
# the other sign.
SHARED_PARTS = [_real_line, _equal_real_parts, _conjugate_symmetric, _integer_grid]


@pytest.mark.parametrize("make_points", SHARED_PARTS, ids=[f.__name__[1:] for f in SHARED_PARTS])
def test_shared_parts_match_reference_bit_for_bit(make_points):
    rng = random.Random(f"shared-parts/{make_points.__name__}")
    for n in (16, 17, 24, 40):
        for _ in range(8):
            z = make_points(rng, n)
            for poly in (
                Polynomial.from_coefficients([complex(rng.uniform(-1, 1)) for _ in range(n)]),
                Polynomial.from_roots(make_points(rng, n)),
            ):
                assert _outcome(weierstrass_correction, poly, z) == _outcome(
                    reference_correction, poly, z
                ), (n, z)


# Two inputs on which a column product gives den_i a zero part of the other
# sign while f(z_i) = 0 (the polynomial's roots are the points), so that sign
# reaches W_i; W passes only by forming den_i again. UNDERFLOWED_ZERO_PART has
# distinct real and distinct imaginary parts, from 1e-305 to 1e-12 in
# modulus: z_8's product underflows into a zero imaginary part (the direct
# one is -2.17e-314+0j), which a test of the coordinates for shared parts
# misses. In the 5 x 5 integer grid centred at 0, in a seeded order, z_24 = -1
# lies on the real axis, about which the grid is symmetric, so den_24 is
# exactly real (-12480000-0j).
UNDERFLOWED_ZERO_PART = [
    3.034994521651443e-82 - 7.469091956534828e-32j,
    3.8733564601426725e-209 + 2.0162502749646464e-22j,
    1.586753119960753e-143 - 3.7467812115609873e-16j,
    4.03013890440531e-156 + 1.2918768830287286e-78j,
    -1.2311971584446678e-305 + 2.12960293863413e-52j,
    6.167428299465149e-90 + 7.595846539789748e-137j,
    -3.554492123866803e-12 + 7.1036913685290655e-118j,
    6.949462833611999e-168 - 6.382020236427653e-16j,
    -5.2864321273192726e-195 + 2.7746428209737688e-207j,
]


def _shuffled_grid():
    z = [complex(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    random.Random(4).shuffle(z)
    return z


ZERO_PART_CASES = {
    "underflowed": (UNDERFLOWED_ZERO_PART, 8, ("0x0.0p+0", "-0x0.0p+0")),
    "grid-axis": (_shuffled_grid(), 24, ("-0x0.0p+0", "0x0.0p+0")),
}


@pytest.mark.parametrize("case", ZERO_PART_CASES)
def test_a_zero_part_of_den_matches_reference(case):
    z, row, w_row = ZERO_PART_CASES[case]
    poly = Polynomial.from_roots(z)
    expected = _outcome(reference_correction, poly, z)
    assert expected[0] == "ok" and expected[1][row] == w_row
    assert _outcome(weierstrass_correction, poly, z) == expected


def all_pairs_quantity(poly, z, p):
    """W, d, delta and E from the all-pairs formulas alone."""
    w = reference_correction(poly, z)
    d, delta = reference_distances(z)
    return w, d, delta, p_norm([wi / di for wi, di in zip(w, d)], p)


@pytest.mark.parametrize("n", [16, 17, 24, 33, 40, 64, 100])
def test_range_edges_match_reference(n):
    # Distinct coordinates scaled by target^(1/(n-1)), so that |den_i|
    # straddles the subnormal range and the overflow threshold.
    rng = random.Random(f"range-edge/{n}")
    for exponent in (-322, -315, -308, -301, 301, 308):
        scale = 10.0 ** (exponent / (n - 1))
        z = [scale * c for c in _unit_disk_cloud(rng, n)]
        roots = [c * (1 + 1e-3 * random_unit_disk(rng)) for c in z]
        for poly in (
            Polynomial.from_roots(roots),
            Polynomial.from_coefficients([10.0**exponent * random_unit_disk(rng)] + [0j] * (n - 1)),
        ):
            assert _outcome_with_overflow(weierstrass_correction, poly, z) == (
                _outcome_with_overflow(reference_correction, poly, z)
            ), (n, exponent)
            assert _outcome_with_overflow(distances, z) == _outcome_with_overflow(reference_distances, z)
            assert _outcome_with_overflow(fused_quantity, poly, z, 2) == (
                _outcome_with_overflow(all_pairs_quantity, poly, z, 2)
            ), (n, exponent)


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


def _ring_case(n, big, pair):
    """n points on the unit circle, but z_big = 1e200, whose W overflows, and
    z_j = z_i for pair = (i, j), a coincident pair."""
    z = [cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    z[big] = 1e200
    i, j = pair
    z[j] = z[i]
    return z


# Rows 8-15 form the second block of eight. Each input has a failing row and
# a coincident pair: W looks for the pair in every row up to the failing one,
# so the lower row decides which error wins.
SECOND_BLOCK = {
    "overflow-in-block-1-before-pair-8-13": (
        _ring_case(17, 2, (8, 13)),
        ("NonFiniteValue", "correction overflowed at coordinate 2"),
    ),
    "pair-9-12-before-overflow-in-block-2": (
        _ring_case(18, 14, (9, 12)),
        ("DistinctCoordinatesViolated", "coordinates 9 and 12 coincide (separation 0)"),
    ),
    "overflow-in-block-2-before-pair-11-15": (
        _ring_case(19, 10, (11, 15)),
        ("NonFiniteValue", "correction overflowed at coordinate 10"),
    ),
    "pair-8-15-before-overflow-past-the-blocks": (
        _ring_case(20, 17, (8, 15)),
        ("DistinctCoordinatesViolated", "coordinates 8 and 15 coincide (separation 0)"),
    ),
    # Rows 0-7 are 1e-50 apart, so den_0 underflows to zero.
    "underflow-in-block-1-before-pair-9-11": (
        [1e-50 * k for k in range(8)] + [2, 3j, -1, 3j, -2j, 1 + 1j, 2 - 1j, -1 - 1j, 0.5],
        ("NonFiniteValue", "denominator product underflowed to zero at coordinate 0"),
    ),
}


@pytest.mark.parametrize("z, expected", SECOND_BLOCK.values(), ids=SECOND_BLOCK.keys())
def test_second_block_errors_match_reference(z, expected):
    poly = Polynomial.from_coefficients([0.5] * len(z))
    assert _outcome(weierstrass_correction, poly, z) == expected
    assert _outcome(reference_correction, poly, z) == expected
    for got, want in _quantity_outcomes(z):
        assert got == want


# Rows 0-2 are finite, so only a failing row sends W looking for the pair,
# and it must look in every row up to that one, not in that row alone.
FAILING_ROW = {
    "pair-0-1-before-overflow-at-3": (
        [0, 1e-310, 2, 1e200],
        ("DistinctCoordinatesViolated", "coordinates 0 and 1 coincide (separation 1e-310)"),
    ),
    "overflow-at-0-before-pair-1-2": (
        [1e200, 0, 1e-310, 2],
        ("NonFiniteValue", "correction overflowed at coordinate 0"),
    ),
}


@pytest.mark.parametrize("z, expected", FAILING_ROW.values(), ids=FAILING_ROW.keys())
def test_a_failing_row_reports_the_first_fault_in_index_order(z, expected):
    poly = Polynomial.from_coefficients([0.5] * 4)
    assert _outcome(weierstrass_correction, poly, z) == expected
    assert _outcome(fused_quantity, poly, z, 2) == expected


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

# Inputs at the edges of COINCIDENCE_FLOOR and of the double range: pairs
# whose parts are equal, at the floor or just below it, moduli that overflow,
# and a NaN beside a coincident pair.
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
    # W_2 is NaN, so W looks for a pair in rows 0-2 and finds (0, 3).
    "nan-hides-coincident-pair": [0, 2, NAN, 1e-310],
    # W_0 is NaN, so W looks no further than row 0, but the one-pass kernel
    # meets the overflowing abs() of z_1 - z_2 in row 1.
    "nan-row-before-abs-overflow": [NAN, complex(1.5e308, 1.5e308), 0, 1],
}


@pytest.mark.parametrize("name", SEPARATION_BOUNDARY)
def test_separation_boundary_matches_reference(name):
    z = SEPARATION_BOUNDARY[name]
    poly = Polynomial.from_coefficients([0.5] * len(z))
    got = _outcome_with_overflow(weierstrass_correction, poly, z)
    expected = _outcome_with_overflow(reference_correction, poly, z)
    if name == "real-gap-below-floor":
        # Every row is finite, so W gives the formula's values and leaves the
        # pair (0, 1) to `distances`, which raises what the reference W did.
        assert got == _outcome(reference_correction, poly, z, 0.0)
        assert _outcome(distances, z) == expected
    else:
        assert got == expected
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


# Inputs at the edges of COINCIDENCE_FLOOR, of parts of modulus 1e307 and of
# the finite doubles, each marked with whether it holds a pair closer than
# the floor. `distances` owns the floor: it must raise for exactly those
# inputs, as the all-pairs scan does.
FLOOR_EDGES = {
    "real-gap-at-floor": ([0, COINCIDENCE_FLOOR, 1], False),
    "real-gap-below-floor": ([0, BELOW_FLOOR, 1], True),
    # The imaginary parts alone can separate, as can the real parts alone.
    "equal-real-parts": ([complex(0.25, y) for y in (-1, 0.5, 2)], False),
    "real-gaps-at-floor-equal-imag": (
        [1j, complex(COINCIDENCE_FLOOR, 1), complex(2 * COINCIDENCE_FLOOR, -1)],
        False,
    ),
    "conjugates-and-real-axis": ([1 + 1j, 1 - 1j, 0.3, -0.7], False),
    "parts-at-1e307": ([complex(-1e307, 1), complex(1e307, -1e307), 1e307j], False),
    "real-part-above-1e307": ([0, math.nextafter(1e307, INF)], False),
    "imag-part-above-1e307": ([0, complex(1, -math.nextafter(1e307, INF))], False),
    "infinite-part": ([0, 1, INF], False),
    "nan-hides-coincident-pair": ([0, 2, NAN, 1e-310], True),
    "nan-imag-part": ([0, 1, complex(2, NAN)], False),
}


@pytest.mark.parametrize("z, below_floor", FLOOR_EDGES.values(), ids=FLOOR_EDGES.keys())
def test_distances_keep_the_floor_at_its_edges(z, below_floor):
    got = _outcome_with_overflow(distances, z)
    assert got == _outcome_with_overflow(reference_distances, z)
    assert (got[0] == "DistinctCoordinatesViolated") is below_floor
    # W agrees with the reference, except that a pair below the floor with
    # every row finite gets the formula's values.
    poly = Polynomial.from_coefficients([0.5] * len(z))
    expected = _outcome_with_overflow(reference_correction, poly, z)
    if expected[0] == "DistinctCoordinatesViolated":
        floorless = _outcome_with_overflow(reference_correction, poly, z, 0.0)
        if floorless[0] == "ok":
            expected = floorless
    assert _outcome_with_overflow(weierstrass_correction, poly, z) == expected
    for got, want in _quantity_outcomes(z):
        assert got == want


# Coordinates 0 and 1 are closer than COINCIDENCE_FLOOR, yet every row of W
# is finite, so W returns its values and the floor is left to `distances`.
# At n = 40 `certificate_quantity` runs W and `distances` without `_one_pass`.
_CIRCLE = [[0.5 * math.cos(2 * math.pi * k / 39), 0.5 * math.sin(2 * math.pi * k / 39)]
           for k in range(39)]
FINITE_BELOW_FLOOR = {
    "real-gap-below-floor": {
        "coefficients": [[0.5, 0]] * 3,
        "initial": [[0, 0], [BELOW_FLOOR, 0], [1, 0]],
    },
    "finite-pair-1e-310-apart": {
        "roots": [[1e-20, 0], [1, 1], [-1, 0]],
        "initial": [[0, 0], [1e-310, 0], [2, 0]],
    },
    "finite-pair-1e-310-apart-at-n-40": {
        "roots": [[1e-20, 0]] + _CIRCLE,
        "initial": [[0, 0], [1e-310, 0]] + _CIRCLE[1:],
    },
}


@pytest.mark.parametrize("doc", FINITE_BELOW_FLOOR.values(), ids=FINITE_BELOW_FLOOR.keys())
def test_every_entry_point_keeps_the_floor(doc, tmp_path, capsys):
    problem = parse_problem(doc)
    poly, z = problem.poly, problem.z0
    assert _outcome(weierstrass_correction, poly, z)[0] == "ok"
    expected = _outcome(reference_correction, poly, z)
    assert expected[0] == "DistinctCoordinatesViolated"
    for entry in (
        lambda: certificate_quantity(poly, z, 2),
        lambda: certify(poly, z, 2),
        lambda: h_wangzhao(poly, z),
        lambda: aposteriori_bound(poly, z, 2, 0.1),
        lambda: run_sor(poly, z),
    ):
        assert _outcome(entry) == expected
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc) + "\n")
    for command in ("certify", "solve"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {expected[1]}\n")
