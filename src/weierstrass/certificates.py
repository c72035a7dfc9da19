"""Initial-point convergence certificates for the Weierstrass iteration.

Everything here is driven by one scalar quantity, E(z) = ||W(z)/d(z)||_p, and
one scalar function of it, `majorant`. A point certifies convergence when
E < 1/2^(1/q) and majorant(E) <= 1; the certified region's edge is the
convergence radius, the unique solution of majorant(x) = 1. The same
quantities yield computable a priori and a posteriori error bounds for every
iterate. The remaining functions reproduce the catalog of published
sufficient thresholds (closed forms and extremal constants) that the exact
radius is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import (
    CertificateNotSatisfied,
    ConvergenceFailure,
    DegenerateDenominator,
    DomainViolation,
)
from .numerics import bisect
from .operator import NormIndex, NormLike, as_norm, certificate_quantity
from .polynomial import Polynomial

#: Printed constants of the linear max-norm radius 1/(slope*n + offset).
INF_LINEAR_SLOPE = 1.76325
INF_LINEAR_OFFSET = 0.6869
#: Petkovic-Herceg threshold constants, kept verbatim (note the different offset).
PETKOVIC_HERCEG_SLOPE = 1.76325
PETKOVIC_HERCEG_OFFSET = 0.8689425


@dataclass(frozen=True)
class Certificate:
    """Outcome of the initial-point convergence test at one point.

    lam = majorant(e0) decides convergence (lam <= 1) and the quadratic rate
    (lam < 1); theta = 1 - 2^(1/q) e0 is the geometric factor of the error
    bounds. lam is +inf when e0 falls outside the majorant's domain.
    """

    e0: float
    lam: float
    theta: float
    satisfied: bool
    strict: bool


def _check_degree(n: int) -> None:
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")


def _norm_factors(n: int, p: NormLike) -> tuple[NormIndex, float, float]:
    """Check the degree; return the norm, a = (n-1)^(1/q) and b = 2^(1/q)."""
    _check_degree(n)
    norm = as_norm(p)
    return norm, (n - 1) ** (1.0 / norm.q), 2.0 ** (1.0 / norm.q)


def majorant(x: float, n: int, p: NormLike) -> float:
    """The scalar convergence test function.

    majorant(x) = a x / ((1-x)(1-b x)) * (1 + x / (c (1-b x)))^(n-1)
    with a = (n-1)^(1/q), b = 2^(1/q), c = (n-1)^(1/p). It is zero at zero,
    strictly increasing, and blows up at the right end of its domain
    [0, min(1, 1/b)). Values above the domain raise DomainViolation.
    """
    norm, a, b = _norm_factors(n, p)
    limit = min(1.0, 1.0 / b)
    if not 0.0 <= x < limit:
        raise DomainViolation(f"argument must lie in [0, {limit:g}), got {x}")
    den1 = 1.0 - x
    den2 = 1.0 - b * x
    if den1 <= 0.0 or den2 <= 0.0:
        raise DomainViolation(f"argument {x} is too close to the domain edge {limit:g}")
    c = (n - 1) ** (1.0 / norm.p)
    try:
        growth = (1.0 + x / (c * den2)) ** (n - 1)
    except OverflowError:
        return math.inf
    return a * x / (den1 * den2) * growth


@lru_cache(maxsize=None)
def convergence_radius(n: int, p: NormLike) -> float:
    """Largest certifiable E(z0): the unique root of majorant(x) = 1.

    Found by bisection (the majorant rises monotonically from 0 to +inf on
    its domain), to absolute tolerance 1e-12. A pure function of (n, p), so
    it is memoized: equal norms share one entry.
    """
    norm, _, b = _norm_factors(n, p)
    hi = (1.0 / b) * (1.0 - 1e-12)
    return bisect(lambda x: majorant(x, n, norm) - 1.0, 0.0, hi)


def certificate_from_quantity(e: float, n: int, p: NormLike) -> Certificate:
    """Build the certificate for a point whose quantity E equals e."""
    norm = as_norm(p)
    try:
        lam = majorant(e, n, norm)
    except DomainViolation:
        lam = math.inf
    return Certificate(
        e0=e,
        lam=lam,
        theta=1.0 - 2.0 ** (1.0 / norm.q) * e,
        satisfied=lam <= 1.0,
        strict=lam < 1.0,
    )


def certify(poly: Polynomial, z0: Sequence[complex], p: NormLike) -> Certificate:
    """Run the initial-point test at z0: compute E(z0) and evaluate the majorant."""
    data = certificate_quantity(poly, z0, p)
    return certificate_from_quantity(data.e, poly.degree, data.p)


def apriori_bound(k: int, cert: Certificate, first_step_norm: float) -> float:
    """Error bound for iterate k from data at the initial point alone.

    ||z^k - roots||_p <= theta^k lam^(2^k - 1) / (1 - theta lam^(2^k)) * ||z^1 - z^0||_p
    for k >= 1. The doubly exponential power is taken through exp/log so that
    underflow clamps cleanly to zero.
    """
    if k < 1:
        raise DomainViolation(f"the bound holds for k >= 1, got k = {k}")
    if not cert.satisfied:
        raise CertificateNotSatisfied(f"certificate does not hold (lam = {cert.lam:g})")
    lam, theta = cert.lam, cert.theta
    if lam == 0.0 or first_step_norm == 0.0:
        return 0.0
    if lam == 1.0:
        pow_2k = 1.0
        pow_2k_minus_1 = 1.0
    else:
        two_k = 2.0 ** k if k < 1024 else math.inf
        log_lam = math.log(lam)
        pow_2k = math.exp(two_k * log_lam)
        pow_2k_minus_1 = math.exp((two_k - 1.0) * log_lam)
    denom = 1.0 - theta * pow_2k
    if denom <= 0.0:
        raise DegenerateDenominator(f"1 - theta lam^(2^k) = {denom:g} is not positive")
    return theta ** k * pow_2k_minus_1 / denom * first_step_norm


def _aposteriori(cert: Certificate, step_norm: float) -> float | None:
    """theta lam / (1 - theta lam^2) * step_norm from the certificate at z^k;
    None when the certificate fails or the denominator is not positive."""
    if not cert.satisfied:
        return None
    denom = 1.0 - cert.theta * cert.lam ** 2
    return cert.theta * cert.lam / denom * step_norm if denom > 0.0 else None


def aposteriori_bound(
    poly: Polynomial,
    zk: Sequence[complex],
    p: NormLike,
    step_norm: float,
) -> float:
    """Error bound for the next iterate from data at the current one.

    ||z^(k+1) - roots||_p <= theta_k lam_k / (1 - theta_k lam_k^2) * ||z^(k+1) - z^k||_p
    where lam_k and theta_k come from the certificate evaluated at z^k. Raises
    CertificateNotSatisfied when the per-point test fails, rather than
    assuming it persists along the iteration.
    """
    cert = certify(poly, zk, p)
    if not cert.satisfied:
        raise CertificateNotSatisfied(f"certificate does not hold at this point (E = {cert.e0:g})")
    bound = _aposteriori(cert, step_norm)
    if bound is None:
        raise DegenerateDenominator(f"1 - theta lam^2 is not positive (lam = {cert.lam:g})")
    return bound


# ---------------------------------------------------------------------------
# Published sufficient thresholds.
#
# "ratio" thresholds bound E(z0) = ||W/d||_p directly; "w over delta"
# thresholds bound ||W(z0)||_p / delta(z0), which by the elementary inequality
# E <= ||W||_p / delta is the cruder certificate.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def solve_exp_fixed_point() -> float:
    """Unique solution A of exp(1/A) = A, bracketed in (1, 3); about 1.763222."""
    return bisect(lambda x: math.exp(1.0 / x) - x, 1.0, 3.0)


def radius_exp_majorant(n: int, p: NormLike, sharp: bool = False) -> float:
    """Closed-form certified radius built on the constant A of exp(1/A) = A.

    Plain form 1/(A a + b + 1) with a = (n-1)^(1/q), b = 2^(1/q). The sharp
    form 2/(m + sqrt(m^2 - 4b)), m = A a + b + 1, is the exact point where the
    exponential upper envelope of the majorant reaches 1, so it is larger and
    still certified.
    """
    _, a, b = _norm_factors(n, p)
    m = solve_exp_fixed_point() * a + b + 1.0
    if sharp:
        return 2.0 / (m + math.sqrt(m * m - 4.0 * b))
    return 1.0 / m


def radius_simple(n: int, p: NormLike) -> float:
    """The plain closed form 1/(2(n-1)^(1/q) + 2)."""
    _, a, _ = _norm_factors(n, p)
    return 1.0 / (2.0 * a + 2.0)


@lru_cache(maxsize=None)
def radius_sum_norm() -> float:
    """Certified radius specific to p = 1; about 0.307541.

    Unique root in (0, 1) of x/(1-x)^2 * exp(x/(1-x)) = 1, the n -> inf
    envelope of the p = 1 majorant, so the value certifies every degree.
    """
    return bisect(lambda x: x / (1.0 - x) ** 2 * math.exp(x / (1.0 - x)) - 1.0, 1e-9, 0.9)


def radius_han(n: int, p: NormLike) -> float:
    """Han's threshold tau (1 - a tau) with tau = n(2^(1/n) - 1)/(a + b)."""
    _, a, b = _norm_factors(n, p)
    tau = n * (2.0 ** (1.0 / n) - 1.0) / (a + b)
    return tau * (1.0 - a * tau)


def lambda_zheng(c: float, n: int) -> float:
    """Zheng's convergence factor for C = ||W(z0)||_inf / delta(z0) < 1/2.

    (n-1) C / ((1-C)(1-2C)) * (1 + C/(1-2C))^(n-1); convergence is certified
    when this is at most 1. It is majorant(C, n, inf), so it is inf where the
    growth factor overflows.
    """
    _check_degree(n)
    if not 0.0 < c < 0.5:
        raise DomainViolation(f"C must lie in (0, 1/2), got {c}")
    return majorant(c, n, math.inf)


def radius_inf_linear(n: int) -> float:
    """Max-norm radius 1/(1.76325 n + 0.6869), specific to p = inf.

    The printed constants are kept verbatim; they are tuned so that the
    majorant stays below 1 for every degree, peaking near n = 132.
    """
    _check_degree(n)
    return 1.0 / (INF_LINEAR_SLOPE * n + INF_LINEAR_OFFSET)


def threshold_petkovic_herceg(n: int) -> float:
    """Petkovic-Herceg threshold on ||W(z0)||_inf / delta(z0): 1/(1.76325 n + 0.8689425)."""
    _check_degree(n)
    return 1.0 / (PETKOVIC_HERCEG_SLOPE * n + PETKOVIC_HERCEG_OFFSET)


@lru_cache(maxsize=None)
def c_wangzhao_inf(n: int) -> float:
    """Wang-Zhao max-norm constant C(n) = max over x > 0 of (2x - x(1+x)^(n-1)).

    The maximizer t is the root of the derivative inside (0, 2^(1/(n-1)) - 1);
    the result is cross-checked against the closed form 2(n-1)t^2/(1+nt).
    A pure function of n, so it is memoized: each degree is solved once per
    process and later calls return the same float.
    """
    _check_degree(n)
    upper = 2.0 ** (1.0 / (n - 1)) - 1.0
    t = bisect(lambda x: 2.0 - (1.0 + x) ** (n - 2) * (1.0 + n * x), 0.0, upper)
    value = 2.0 * t - t * (1.0 + t) ** (n - 1)
    closed_form = 2.0 * (n - 1) * t * t / (1.0 + n * t)
    if abs(value - closed_form) > 1e-9:
        raise ConvergenceFailure(
            f"stationary point of the Wang-Zhao objective is inaccurate at n = {n}: "
            f"{value:.12g} vs {closed_form:.12g}"
        )
    return value


@lru_cache(maxsize=None)
def c_wangzhao_l1(n: int) -> float:
    """Wang-Zhao sum-norm constant C(n) = -min over x > 0 of f_n(x), n >= 4,

    where f_n(x) = sum_{j=1}^{n-1} ((n-j)/(j! n)) x^(j+1) - x. Its slope
    f_n'(x) = sum_{j=1}^{n-1} ((n-j)(j+1)/(j! n)) x^j - 1 has only positive
    coefficients besides the -1, so it is strictly increasing on x > 0, from
    -1 at 0 to a positive value at 3: its one root t in (0, 3) is the
    minimizer, and bisection on the sign of the slope cannot miss it. As
    f_n'(t) = 0, the 1e-12 width of the bracket moves f_n(t) only to second
    order, far below its rounding. A pure function of n, so it is memoized:
    each degree is solved once per process and later calls return the same
    float.
    """
    if n < 4:
        raise DomainViolation(f"this constant is defined for n >= 4, got {n}")

    def series(x: float) -> tuple[float, float]:
        """(f_n(x), f_n'(x)), with x^(j+1) formed as x^j x. From j = 171 on,
        j! is inf and every term +0.0, so at most 170 terms are summed; past
        n = 647 summing on would meet 0 * inf = NaN where 3^j overflows."""
        value = slope = 0.0
        factorial = 1.0
        power = 1.0
        for j in range(1, n):
            factorial *= j
            if factorial == math.inf:
                break
            power *= x
            value += (n - j) / (factorial * n) * (power * x)
            slope += (n - j) * (j + 1) / (factorial * n) * power
        return value - x, slope - 1.0

    return -series(bisect(lambda x: series(x)[1], 0.0, 3.0))[0]


def radius_zhaowang_l1(n: int) -> float:
    """Zhao-Wang threshold on ||W(z0)||_1 / delta(z0): (3 - 2 sqrt(2)) n/(n-1)."""
    _check_degree(n)
    return (3.0 - 2.0 * math.sqrt(2.0)) * n / (n - 1)


# ---------------------------------------------------------------------------
# Catalog used by the CLI to compare thresholds at a given (n, p).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusEntry:
    """One row of the threshold comparison table.

    kind "ratio" rows bound E(z0) at the table's p; kind "w_over_delta" rows
    bound ||W(z0)||_norm / delta(z0) for the fixed norm stored in `norm`.
    """

    name: str
    value: float
    kind: str
    norm: float | None
    majorant_at_value: float | None


#: (name, fixed norm of a ||W||/delta threshold or None for one on E, required
#: p or None, least degree, value at (n, norm)), in report order. Values look
#: their functions up by name, so a rebound module attribute reaches a table
#: built after it.
_CATALOG = (
    ("exact", None, None, 2, lambda n, norm: convergence_radius(n, norm)),
    ("exp-majorant-sharp", None, None, 2, lambda n, norm: radius_exp_majorant(n, norm, True)),
    ("exp-majorant", None, None, 2, lambda n, norm: radius_exp_majorant(n, norm, False)),
    ("simple", None, None, 2, lambda n, norm: radius_simple(n, norm)),
    ("han", None, None, 2, lambda n, norm: radius_han(n, norm)),
    ("sum-norm", None, 1.0, 2, lambda n, norm: radius_sum_norm()),
    ("inf-linear", None, math.inf, 2, lambda n, norm: radius_inf_linear(n)),
    ("zheng", math.inf, math.inf, 2, lambda n, norm: convergence_radius(n, norm)),
    ("wang-zhao-inf", math.inf, math.inf, 2, lambda n, norm: c_wangzhao_inf(n)),
    ("petkovic-herceg", math.inf, math.inf, 2, lambda n, norm: threshold_petkovic_herceg(n)),
    ("wang-zhao-l1", 1.0, 1.0, 4, lambda n, norm: c_wangzhao_l1(n)),
    ("zhao-wang-l1", 1.0, 1.0, 2, lambda n, norm: radius_zhaowang_l1(n)),
)


def radius_table(n: int, p: NormLike) -> tuple[list[RadiusEntry], list[tuple[str, str]]]:
    """All thresholds applicable at (n, p), sorted by value descending,
    plus (name, reason) pairs for the ones that do not apply at this p.

    Each table is built once per (n, p) and returned as fresh lists."""
    _check_degree(n)
    entries, omitted = _radius_table(n, as_norm(p))
    return list(entries), list(omitted)


@lru_cache(maxsize=None)
def _radius_table(
    n: int, norm: NormIndex
) -> tuple[tuple[RadiusEntry, ...], tuple[tuple[str, str], ...]]:
    entries: list[RadiusEntry] = []
    omitted: list[tuple[str, str]] = []
    for name, fixed_norm, required_p, min_degree, value_at in _CATALOG:
        if required_p is not None and norm.p != required_p:
            omitted.append((name, f"requires p = {required_p:g}"))
        elif n < min_degree:
            omitted.append((name, f"requires n >= {min_degree}"))
        elif fixed_norm is None:
            value = value_at(n, norm)
            entries.append(RadiusEntry(name, value, "ratio", None, majorant(value, n, norm)))
        else:
            entries.append(RadiusEntry(name, value_at(n, norm), "w_over_delta", fixed_norm, None))
    entries.sort(key=lambda entry: -entry.value)
    return tuple(entries), tuple(omitted)
