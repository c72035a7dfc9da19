"""The Weierstrass correction, nearest-neighbour distances, p-norms, and the
certificate quantity E(z) = ||W(z)/d(z)||_p that all convergence tests consume."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import DistinctCoordinatesViolated, InvalidExponent, NonFiniteValue
from .polynomial import Polynomial

#: Coordinate pairs closer than this are rejected outright: the difference is
#: mathematically legal but its reciprocal products overflow double precision.
COINCIDENCE_FLOOR = 1e-300

_MIN_NORMAL = sys.float_info.min

PointVector = tuple[complex, ...]


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, using q = inf for p = 1 and q = 1 for p = inf."""
    if not p >= 1:
        raise InvalidExponent(f"norm exponent must satisfy p >= 1, got {p}")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1)


@dataclass(frozen=True)
class NormIndex:
    """A norm exponent p in [1, inf] paired with its conjugate exponent q.

    Infinite exponents follow the usual limit conventions: 1/inf = 0, so
    factors like 2^(1/q) and (n-1)^(1/q) degenerate to 1 automatically.
    """

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        p = float(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", conjugate_exponent(p))


NormLike = Union[NormIndex, float, int]


def as_norm(p: NormLike) -> NormIndex:
    """Coerce a bare exponent into a NormIndex."""
    return p if isinstance(p, NormIndex) else NormIndex(float(p))


def p_norm(v: Sequence[complex], p: NormLike) -> float:
    """||v||_p = (sum |v_i|^p)^(1/p), with the max modulus for p = inf.

    A power sum that is zero, subnormal or overflows is recomputed scaled by
    the max modulus m, as m (sum (|v_i|/m)^p)^(1/p); otherwise, and always at
    p = 1 and p = inf, the result is the unscaled formula's, bit for bit.
    """
    norm = as_norm(p)
    if math.isinf(norm.p):
        return max((abs(x) for x in v), default=0.0)
    if norm.p == 1:
        return sum(abs(x) for x in v)
    q = norm.p
    try:
        total = sum(abs(x) ** q for x in v)
    except OverflowError:
        return _scaled_p_norm(v, q)
    if total < _MIN_NORMAL or total == math.inf:
        return _scaled_p_norm(v, q)
    return total ** (1.0 / q)


def _scaled_p_norm(v: Sequence[complex], q: float) -> float:
    # Kept out of p_norm, whose frame would otherwise build one more closure
    # cell on every call; that keeps p_norm lean for its per-iteration callers.
    top = max((abs(x) for x in v), default=0.0)
    if not 0.0 < top < math.inf:
        return top
    return top * sum((abs(x) / top) ** q for x in v) ** (1.0 / q)


@dataclass(frozen=True)
class OperatorData:
    """Snapshot of W(z), d(z), delta(z) and E(z) at a single point."""

    w: tuple[complex, ...]
    d: tuple[float, ...]
    delta: float
    e: float
    p: NormIndex


def distances(z: Sequence[complex]) -> tuple[tuple[float, ...], float]:
    """Per-coordinate nearest-neighbour distances d_i = min_{j != i} |z_i - z_j|
    and their overall minimum delta.

    A plane sweep over the points sorted by real part: from each point it
    scans outward in both directions and stops once the real-part gap reaches
    the best distance so far, which is exact because |z_i - z_j| >=
    |Re(z_i - z_j)|. Every d_i is a minimum over the same separations as the
    all-pairs formula, so the result is bit-identical to it. Non-finite
    coordinates, and a pair closer than COINCIDENCE_FLOOR, fall back to the
    all-pairs scan, which raises for the first coincident pair in index order.
    """
    pts = [complex(c) for c in z]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 coordinates")
    if all(map(cmath.isfinite, pts)):
        d = _sweep_distances(pts)
        if min(d) >= COINCIDENCE_FLOOR:
            return tuple(d), min(d)
    d = _all_pairs_distances(pts)
    return tuple(d), min(d)


def _sweep_distances(pts: list[complex]) -> list[float]:
    n = len(pts)
    order = sorted(range(n), key=lambda k: pts[k].real)
    xs = [pts[k] for k in order]
    res = [x.real for x in xs]
    d = [math.inf] * n
    # res[b] - ra is, up to sign, the computed real part of za - xs[b], and the
    # computed abs() of a complex never falls below that part's modulus: a
    # break skips no closer point, in rounded arithmetic too.
    for a in range(n):
        za, ra = xs[a], res[a]
        best = math.inf
        b = a + 1
        while b < n and res[b] - ra < best:
            sep = abs(za - xs[b])
            if sep < best:
                best = sep
            b += 1
        b = a - 1
        while b >= 0 and ra - res[b] < best:
            sep = abs(za - xs[b])
            if sep < best:
                best = sep
            b -= 1
        d[order[a]] = best
    return d


def _all_pairs_distances(pts: list[complex]) -> list[float]:
    n = len(pts)
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
    return d


def weierstrass_correction(poly: Polynomial, z: Sequence[complex]) -> tuple[complex, ...]:
    """W_i(z) = f(z_i) / prod_{j != i} (z_i - z_j).

    Vanishes exactly when z is a root vector of f. Denominators are direct
    products, built in one pass over the pairs i < j: each difference is
    formed once and multiplied into den_i as z_i - z_j and into den_j as
    z_j - z_i. Every den_i still takes its factors in ascending j, so the
    result is bit-identical to the row-by-row formula. W_i is formed as soon
    as den_i is complete, so the first coincident pair in index order is
    reported before any later coordinate's NonFiniteValue. Overflow or a
    vanished product raises NonFiniteValue.
    """
    pts = [complex(c) for c in z]
    n = len(pts)
    if n != poly.degree:
        raise ValueError(f"point has {n} coordinates, polynomial degree is {poly.degree}")
    dens = [1 + 0j] * n
    w = []
    for i, zi in enumerate(pts):
        den = dens[i]
        for j in range(i + 1, n):
            zj = pts[j]
            diff = zi - zj
            if abs(diff) < COINCIDENCE_FLOOR:
                raise DistinctCoordinatesViolated(
                    f"coordinates {i} and {j} coincide (separation {abs(diff):.3g})"
                )
            den *= diff
            # z_j - z_i, not -diff: the two differ in the sign of a zero part.
            dens[j] *= zj - zi
        try:
            wi = poly.evaluate(zi) / den
        except ZeroDivisionError:
            raise NonFiniteValue(f"denominator product underflowed to zero at coordinate {i}")
        if not cmath.isfinite(wi):
            raise NonFiniteValue(f"correction overflowed at coordinate {i}")
        w.append(wi)
    return tuple(w)


def certificate_quantity(poly: Polynomial, z: Sequence[complex], p: NormLike) -> OperatorData:
    """Evaluate W, d, delta and E = ||W/d||_p at one point.

    E is always formed from the coordinate-wise ratios W_i/d_i; the looser
    ||W||_p / delta value (which it never exceeds) is left to the caller.
    """
    norm = as_norm(p)
    w = weierstrass_correction(poly, z)
    d, delta = distances(z)
    e = p_norm([wi / di for wi, di in zip(w, d)], norm)
    return OperatorData(w=w, d=d, delta=delta, e=e, p=norm)
