"""The Weierstrass correction, nearest-neighbour distances, p-norms, and the
certificate quantity E(z) = ||W(z)/d(z)||_p that all convergence tests consume."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence, Union

from .errors import DistinctCoordinatesViolated, InvalidExponent, NonFiniteValue
from .polynomial import Polynomial

#: `distances` rejects coordinate pairs closer than this: E = ||W/d||_p
#: divides each W_i by d_i, and below the floor that overflows once |W_i|
#: exceeds about 1.8e8. W's finiteness test already catches a product that
#: overflows or vanishes, and only then does W look for such a pair.
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
        _check_coincidence(pts, n)
    return tuple(d), delta


def _check_coincidence(pts: list[complex], rows: int) -> None:
    """Raise for the first pair in index order, row i < rows against each
    j > i, with |z_i - z_j| < COINCIDENCE_FLOOR.

    Both callers overwrite a stale errno first, W by its complex division and
    `distances` by a finite abs(), so abs() of a difference with a NaN part
    gives NaN here, not the OverflowError of a stale ERANGE (see `_moduli`).
    """
    for i in range(rows):
        zi = pts[i]
        for j in range(i + 1, len(pts)):
            sep = abs(zi - pts[j])
            if sep < COINCIDENCE_FLOOR:
                raise DistinctCoordinatesViolated(
                    f"coordinates {i} and {j} coincide (separation {sep:.3g})"
                )


def weierstrass_correction(poly: Polynomial, z: Sequence[complex]) -> tuple[complex, ...]:
    """W_i(z) = f(z_i) / prod_{j != i} (z_i - z_j).

    Vanishes exactly when z is a root vector of f. Each den_i is a direct
    product, its factors multiplied in ascending j. The denominators are
    formed eight rows per pass: a block's rows start from their column
    products, take the block's own seven others, then each later z_j, and
    z_j's column product is multiplied by the eight a_k - z_j, left to
    right, so each pair is subtracted once. Those are the negated factors
    z_j - a_k and rounding is symmetric in sign, so a column product is the
    direct one but for the sign of a zero part, exact or underflowed (a - b
    and b - a are both +0 where a = b). That sign reaches only zeros, so a
    den_i with a zero part is formed again by the one-row loop. Rows past
    the last full block start that loop from their column products.
    Complex `-` and `*` never raise, so forming every den_i first moves no
    exception. The rows are then finished in index order.
    When W_i is not finite, or den_i vanished, the pairs of rows 0..i are
    checked in index order: the first pair closer than COINCIDENCE_FLOOR
    raises DistinctCoordinatesViolated, and otherwise row i raises
    NonFiniteValue. Coordinates closer than the floor whose rows are all
    finite get the formula's values; `distances`, which `certificate_quantity`
    runs after W, rejects them.
    """
    pts = [complex(c) for c in z]
    n = len(pts)
    if n != poly.degree:
        raise ValueError(f"point has {n} coordinates, polynomial degree is {poly.degree}")
    dens = []
    full = n - n % 8
    cols = [1 + 0j] * n
    for i in range(0, full, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = pts[i : i + 8]
        d0, d1, d2, d3, d4, d5, d6, d7 = cols[i : i + 8]
        d0 = d0 * (a0 - a1) * (a0 - a2) * (a0 - a3) * (a0 - a4) * (a0 - a5) * (a0 - a6) * (a0 - a7)
        d1 = d1 * (a1 - a0) * (a1 - a2) * (a1 - a3) * (a1 - a4) * (a1 - a5) * (a1 - a6) * (a1 - a7)
        d2 = d2 * (a2 - a0) * (a2 - a1) * (a2 - a3) * (a2 - a4) * (a2 - a5) * (a2 - a6) * (a2 - a7)
        d3 = d3 * (a3 - a0) * (a3 - a1) * (a3 - a2) * (a3 - a4) * (a3 - a5) * (a3 - a6) * (a3 - a7)
        d4 = d4 * (a4 - a0) * (a4 - a1) * (a4 - a2) * (a4 - a3) * (a4 - a5) * (a4 - a6) * (a4 - a7)
        d5 = d5 * (a5 - a0) * (a5 - a1) * (a5 - a2) * (a5 - a3) * (a5 - a4) * (a5 - a6) * (a5 - a7)
        d6 = d6 * (a6 - a0) * (a6 - a1) * (a6 - a2) * (a6 - a3) * (a6 - a4) * (a6 - a5) * (a6 - a7)
        d7 = d7 * (a7 - a0) * (a7 - a1) * (a7 - a2) * (a7 - a3) * (a7 - a4) * (a7 - a5) * (a7 - a6)
        for j in range(i + 8, n):
            zj = pts[j]
            x0 = a0 - zj
            x1 = a1 - zj
            x2 = a2 - zj
            x3 = a3 - zj
            x4 = a4 - zj
            x5 = a5 - zj
            x6 = a6 - zj
            x7 = a7 - zj
            d0 *= x0
            d1 *= x1
            d2 *= x2
            d3 *= x3
            d4 *= x4
            d5 *= x5
            d6 *= x6
            d7 *= x7
            cols[j] = cols[j] * x0 * x1 * x2 * x3 * x4 * x5 * x6 * x7
        dens += (d0, d1, d2, d3, d4, d5, d6, d7)
    dens += [_row_product(pts, i, cols[i], full) for i in range(full, n)]
    evaluate = poly.evaluate
    w = []
    for i, (zi, den) in enumerate(zip(pts, dens)):
        if full and not (den.real and den.imag):
            den = _row_product(pts, i, 1 + 0j, 0)
        try:
            wi = evaluate(zi) / den
        except ZeroDivisionError:
            raise _first_fault(pts, i, "denominator product underflowed to zero")
        if not cmath.isfinite(wi):
            raise _first_fault(pts, i, "correction overflowed")
        w.append(wi)
    return tuple(w)


def _row_product(pts: list[complex], i: int, den: complex, lo: int) -> complex:
    """den times z_i - z_j for j from lo to i - 1, then for j > i, in ascending j."""
    zi = pts[i]
    for zj in pts[lo:i]:
        den *= zi - zj
    for zj in pts[i + 1 :]:
        den *= zi - zj
    return den


def _first_fault(pts: list[complex], i: int, what: str) -> NonFiniteValue:
    """Raise for the first coincident pair in rows 0..i, else return the
    NonFiniteValue for row i of W."""
    _check_coincidence(pts, i + 1)
    return NonFiniteValue(f"{what} at coordinate {i}")


#: Below this degree `_one_pass`'s one loop over the pairs of each row runs
#: in place of W and `distances`. On a 2-vCPU Xeon (two sets of runs, each
#: the median of 5 rounds of the min of 9 x 100 calls near the roots of
#: z^n - c, coefficient- and root-held) one pass took, as a share of W plus
#: `distances`, 0.93-0.98 at n = 16, 0.96-1.01 at 18, 0.99-1.05 at 20-22,
#: 1.06-1.13 at 24, 1.07-1.12 at 26-28 and 1.10-1.17 at 30-35. The switch
#: stays at 36: with it at 24, alternated `cli-batch` runs read a higher
#: `latency_ms_tail` in one set and a higher `peak_rss_mb` in both
#: (ROADMAP item 1).
_ONE_PASS_BELOW = 36


def _one_pass(
    poly: Polynomial, z: Sequence[complex]
) -> tuple[tuple[complex, ...], tuple[float, ...], float] | None:
    """W, d and delta as `weierstrass_correction` and `distances` give them,
    bit for bit, from one loop per row: each difference z_i - z_j, in
    ascending j, is multiplied into den_i and its modulus taken into d_i.

    Returns None, so that the caller runs W and `distances` and every
    exception is theirs, on a wrong length, an overflowed modulus or a zero
    den_i, and after the loop on delta < COINCIDENCE_FLOOR or a non-finite
    W_i: together these cover every input on which either of them raises.
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
            w.append(poly.evaluate(zi) / den)
            d.append(near)
    except (OverflowError, ZeroDivisionError):
        return None
    delta = min(d)
    if delta < COINCIDENCE_FLOOR or not all(map(cmath.isfinite, w)):
        return None
    return tuple(w), tuple(d), delta


def certificate_quantity(poly: Polynomial, z: Sequence[complex], p: NormLike) -> OperatorData:
    """Evaluate W, d, delta and E = ||W/d||_p at one point.

    E is always formed from the coordinate-wise ratios W_i/d_i; the looser
    ||W||_p / delta value (which it never exceeds) is left to the caller.
    Below degree _ONE_PASS_BELOW they come from `_one_pass`; elsewhere, or
    where it gives up, W runs and then `distances`, and an exception is theirs.
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
