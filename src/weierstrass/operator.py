"""The Weierstrass correction, nearest-neighbour distances, p-norms, and the
certificate quantity E(z) = ||W(z)/d(z)||_p that all convergence tests consume."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import compress
from operator import sub
from typing import Sequence, Union

from .errors import DistinctCoordinatesViolated, InvalidExponent, NonFiniteValue
from .polynomial import Polynomial

#: Coordinate pairs closer than this are rejected outright: the difference is
#: mathematically legal but its reciprocal products overflow double precision.
COINCIDENCE_FLOOR = 1e-300

#: Parts of modulus at most this keep every difference of two coordinates,
#: and its modulus (at most 2 * sqrt(2) * 1e307), finite.
_PART_LIMIT = 1e307

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
    The result is NaN whenever a modulus is NaN, at every p.
    """
    norm = as_norm(p)
    if math.isinf(norm.p):
        # max() skips a NaN that is not first; a sum of moduli is NaN exactly
        # when one of them is.
        mods = _moduli(v)
        total = sum(mods)
        return total if total != total else max(mods, default=0.0)
    if norm.p == 1:
        return sum(_moduli(v))
    q = norm.p
    try:
        total = sum(abs(x) ** q for x in v)
    except OverflowError:
        return _scaled_p_norm(v, q)
    if total < _MIN_NORMAL or total == math.inf:
        return _scaled_p_norm(v, q)
    return total ** (1.0 / q)


def _moduli(v: Sequence[complex]) -> list[float]:
    """[abs(x) for x in v]. A caught overflow may leave errno at ERANGE, where
    CPython's abs() of a complex with a NaN part raises: then those entries
    take math.hypot, which gives the same value."""
    try:
        return list(map(abs, v))
    except OverflowError:
        return [math.hypot(x.real, x.imag) if x != x else abs(x) for x in v]


def _scaled_p_norm(v: Sequence[complex], q: float) -> float:
    # Kept out of p_norm, whose frame would otherwise build one more closure
    # cell on every call; that keeps p_norm lean for its per-iteration callers.
    mods = _moduli(v)
    top = max(mods, default=0.0)
    if not 0.0 < top < math.inf:
        # Zero, inf, or a NaN that max() met first. The moduli then sum to
        # zero or inf, or to NaN if any of them is NaN.
        return sum(mods, 0.0)
    return top * sum((m / top) ** q for m in mods) ** (1.0 / q)


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

    A plane sweep over the finite points sorted by real part: from each point
    it scans outward in both directions and stops once the real-part gap
    reaches the best distance so far, which is exact because |z_i - z_j| >=
    |Re(z_i - z_j)|. A separation involving a non-finite coordinate is inf or
    NaN and lowers no minimum, so such a coordinate gets d_i = inf. Every d_i
    is a minimum over the same separations as the all-pairs formula, so the
    result is bit-identical to it, up to overflow: once some |z_i - z_j|
    overflows (a part above 1e307 can), the sweep raises OverflowError only
    for a pair it visits, where the all-pairs scan raises for any pair. When
    delta < COINCIDENCE_FLOOR the rows are checked in index order, so the
    error names the first coincident pair, as the all-pairs scan does.
    """
    pts = [complex(c) for c in z]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 coordinates")
    order = sorted(compress(range(n), map(cmath.isfinite, pts)), key=lambda k: pts[k].real)
    xs = [pts[k] for k in order]
    res = [x.real for x in xs]
    m = len(xs)
    d = [math.inf] * n
    # res[b] - ra is, up to sign, the computed real part of za - xs[b], and the
    # computed abs() of a complex never falls below that part's modulus: a
    # break skips no closer point, in rounded arithmetic too.
    for a in range(m):
        za, ra = xs[a], res[a]
        best = math.inf
        b = a + 1
        while b < m and res[b] - ra < best:
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
    delta = min(d)
    if delta < COINCIDENCE_FLOOR:
        for i in range(n):
            _check_coincidence(pts, i)
    return tuple(d), delta


def _check_coincidence(pts: list[complex], i: int) -> None:
    """Raise for the first j > i with |z_i - z_j| < COINCIDENCE_FLOOR."""
    zi = pts[i]
    for j in range(i + 1, len(pts)):
        diff = zi - pts[j]
        try:
            sep = abs(diff)
        except OverflowError:
            # A NaN part under a stale errno (see `_moduli`) is no coincidence.
            if diff == diff:
                raise
            continue
        if sep < COINCIDENCE_FLOOR:
            raise DistinctCoordinatesViolated(
                f"coordinates {i} and {j} coincide (separation {sep:.3g})"
            )


def _separated(pts: list[complex]) -> bool:
    """True when no computed |z_i - z_j| can fall below COINCIDENCE_FLOOR or
    overflow, which lets `weierstrass_correction` skip its per-pair check.

    It holds when every part is finite and at most _PART_LIMIT in modulus, and
    the sorted real parts, or the sorted imaginary parts, are each at least
    COINCIDENCE_FLOOR apart. Rounding is monotone, so every computed
    difference of two parts is at least one computed gap between neighbours,
    and abs() of a complex never falls below the modulus of either part.
    """
    if not all(map(cmath.isfinite, pts)):
        return False
    xs = sorted([z.real for z in pts])
    ys = sorted([z.imag for z in pts])
    if max(-xs[0], xs[-1], -ys[0], ys[-1]) > _PART_LIMIT:
        return False
    return (
        min(map(sub, xs[1:], xs), default=math.inf) >= COINCIDENCE_FLOOR
        or min(map(sub, ys[1:], ys), default=math.inf) >= COINCIDENCE_FLOOR
    )


def weierstrass_correction(poly: Polynomial, z: Sequence[complex]) -> tuple[complex, ...]:
    """W_i(z) = f(z_i) / prod_{j != i} (z_i - z_j).

    Vanishes exactly when z is a root vector of f. Each den_i is a direct
    product formed row by row, its factors in ascending j. Unless `_separated`
    rules a coincidence out in O(n log n), every pair i < j is checked as
    row i is built, so the first coincident pair in index order is reported
    before any later coordinate's NonFiniteValue. Overflow or a vanished
    product raises NonFiniteValue.
    """
    pts = [complex(c) for c in z]
    n = len(pts)
    if n != poly.degree:
        raise ValueError(f"point has {n} coordinates, polynomial degree is {poly.degree}")
    checked = not _separated(pts)
    w = []
    for i, zi in enumerate(pts):
        if checked:
            _check_coincidence(pts, i)
        den = 1 + 0j
        for zj in pts[:i]:
            den *= zi - zj
        for zj in pts[i + 1 :]:
            den *= zi - zj
        try:
            wi = poly.evaluate(zi) / den
        except ZeroDivisionError:
            raise NonFiniteValue(f"denominator product underflowed to zero at coordinate {i}")
        if not cmath.isfinite(wi):
            raise NonFiniteValue(f"correction overflowed at coordinate {i}")
        w.append(wi)
    return tuple(w)


#: Below this degree one loop over the pairs of each row, in `_one_pass`,
#: beats the sorts of `_separated` and `distances`; from it on they win.
#: On a 2-vCPU Xeon (min of 9 x 300 calls near the roots) one pass took
#: 0.66-0.68 of the time of W plus `distances` at n = 8, 0.90-0.99 at
#: n = 32, 0.99-1.05 at n = 36, 0.98-1.03 at n = 40 and 1.12-1.28 at n = 100.
_ONE_PASS_BELOW = 36


def _one_pass(
    poly: Polynomial, z: Sequence[complex]
) -> tuple[tuple[complex, ...], tuple[float, ...], float] | None:
    """W, d and delta as `weierstrass_correction` and `distances` give them,
    bit for bit, from one loop per row: each difference z_i - z_j, in
    ascending j, is multiplied into den_i and its modulus taken into d_i.

    Returns None wherever either of them could raise, so that the caller
    runs them and the exception, its message and which one comes first are
    theirs. A non-finite z_i needs no test of its own: it makes W_i
    non-finite.
    """
    pts = [complex(c) for c in z]
    if len(pts) != poly.degree:
        return None
    w, d = [], []
    try:
        for i, zi in enumerate(pts):
            den = 1 + 0j
            near = math.inf
            for zj in pts[:i] + pts[i + 1 :]:
                diff = zi - zj
                den *= diff
                sep = abs(diff)
                if sep < near:
                    near = sep
            if near < COINCIDENCE_FLOOR or not den:
                return None
            wi = poly.evaluate(zi) / den
            if not cmath.isfinite(wi):
                return None
            w.append(wi)
            d.append(near)
    except OverflowError:
        return None
    return tuple(w), tuple(d), min(d)


def certificate_quantity(poly: Polynomial, z: Sequence[complex], p: NormLike) -> OperatorData:
    """Evaluate W, d, delta and E = ||W/d||_p at one point.

    E is always formed from the coordinate-wise ratios W_i/d_i; the looser
    ||W||_p / delta value (which it never exceeds) is left to the caller.
    Below degree _ONE_PASS_BELOW, W, d and delta come from `_one_pass`.
    """
    norm = as_norm(p)
    one_pass = _one_pass(poly, z) if len(z) < _ONE_PASS_BELOW else None
    if one_pass is None:
        w = weierstrass_correction(poly, z)
        d, delta = distances(z)
    else:
        w, d, delta = one_pass
    e = p_norm([wi / di for wi, di in zip(w, d)], norm)
    return OperatorData(w=w, d=d, delta=delta, e=e, p=norm)
