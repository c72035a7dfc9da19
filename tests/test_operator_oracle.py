"""The operator kernels against their all-pairs reference formulas, bit for bit.

`weierstrass_correction` builds its denominators in one pass over the pairs
i < j and `distances` sweeps the points in real-part order. Both promise the
exact doubles, and the exact exceptions, of the direct formulas below.
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
    distances,
    weierstrass_correction,
)
from weierstrass.operator import COINCIDENCE_FLOOR


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


def _clusters(rng, n):
    centres = [random_unit_disk(rng) for _ in range(max(1, n // 4))]
    return [
        rng.choice(centres) + 1e-12 * complex(k, rng.uniform(-3, 3)) for k in range(n)
    ]


POINT_SETS = [_unit_disk_cloud, _circle, _conjugate_symmetric, _equal_real_parts, _clusters]


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


def test_conjugate_pair_keeps_the_sign_of_zero():
    # z_1 - z_0 is 0+2j but -(z_0 - z_1) is -0+2j, and under f(z) = z^2 the
    # sign of that zero reaches the imaginary part of W_1.
    poly = Polynomial.from_coefficients([0, 0])
    z = [1 - 1j, 1 + 1j]
    assert _outcome(weierstrass_correction, poly, z) == _outcome(reference_correction, poly, z)
