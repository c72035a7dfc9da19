"""Plain and damped (SOR) Weierstrass iterations with certified per-step records.

The plain update is z^(k+1) = z^k - W(z^k); the damped one scales the
correction by an acceleration parameter h_k in (0, 1] chosen per step. Every
iterate is recorded together with its certificate quantities and, when the
theory covers the step, its a posteriori error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .certificates import Certificate, _aposteriori, apriori_bound, certificate_from_quantity
from .errors import DistinctCoordinatesViolated, NonFiniteValue
from .operator import (
    NormIndex,
    PointVector,
    as_norm,
    certificate_quantity,
    p_norm,
)
from .polynomial import Polynomial

#: Damping constant applied to delta(z) / ||W(z)||_1 (Wang-Zhao strategy).
WZ_ACCEL_COEFF = 0.204378
#: Damping constant applied to 1 / sum_i |W_i/d_i| (ratio strategy). Printed
#: value of the sum-norm radius; the ratio strategy dominates the Wang-Zhao
#: one by the factor 0.307541/0.204378 ~ 1.5048 whenever it actually damps.
RATIO_ACCEL_COEFF = 0.307541


def _damped(scale: float, total: float) -> float:
    h = 1.0 if total == 0.0 else min(1.0, scale / total)
    if not h > 0.0:
        raise NonFiniteValue(f"damping h = {scale:g} / {total:g} is {h:g}, outside (0, 1]")
    return h


#: The damping h_k of each mode, from the fixed h and the data at z^k.
_DAMPING = {
    "plain": lambda h, data: 1.0,
    "sor_wz": lambda h, data: _damped(WZ_ACCEL_COEFF * data.delta, sum(map(abs, data.w))),
    "sor_new": lambda h, data: _damped(
        RATIO_ACCEL_COEFF, sum(abs(wi) / di for wi, di in zip(data.w, data.d))
    ),
    "sor_fixed": lambda h, data: h,
}


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls.

    Stopping is by E(z^k) <= tol_e, by step norm <= tol_step (only when
    tol_step > 0), or by the max_iter step cap, whichever fires first.
    """

    p: NormIndex = NormIndex(math.inf)
    mode: str = "plain"
    h: float = 1.0
    max_iter: int = 100
    tol_e: float = 1e-13
    tol_step: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_norm(self.p))
        if self.mode not in _DAMPING:
            raise ValueError(f"mode must be one of {tuple(_DAMPING)}, got {self.mode!r}")
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"fixed acceleration must lie in (0, 1], got {self.h}")
        if type(self.max_iter) is not int:
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        # Written so that a NaN tolerance, which no E or step ever meets, fails.
        if not (self.tol_e >= 0.0 and self.tol_step >= 0.0):
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One iterate with its certificate quantities.

    apost_bound is the certified bound on the distance of the *next* iterate
    from the root vector; it is None whenever the per-point certificate fails
    or the step is damped (h < 1), where the bound is not established.
    """

    k: int
    z: PointVector
    w_norm: float
    step_norm: float
    e: float
    lam: float
    theta: float
    apost_bound: float | None
    h: float


@dataclass(frozen=True)
class IterationTrace:
    """Full run record.

    steps counts the updates between z0 and `final`, rounded-away ones too.
    stop_reason is "tol_e" (`final` is the last record), "tol_step" (`final`
    is one update past it), "max_iter" or "aborted"; only the first two converge.
    apriori_curve[i] is the initial-data error bound for iterate i+1; it is
    empty when the initial certificate fails or any step was damped. `error`
    carries the diagnostic when the run aborted mid-way (coincident
    coordinates, overflow or a damping of 0), in which case converged is
    False and `final` is the last valid iterate.
    """

    records: tuple[IterationRecord, ...]
    final: PointVector
    steps: int
    converged: bool
    stop_reason: str
    certificate: Certificate
    apriori_curve: tuple[float, ...]
    error: str | None = None


def h_wangzhao(poly: Polynomial, z: Sequence[complex]) -> float:
    """Wang-Zhao acceleration min(1, 0.204378 delta(z) / sum_i |W_i(z)|); 1 when W = 0."""
    return _DAMPING["sor_wz"](1.0, certificate_quantity(poly, z, 1))


def h_ratio(poly: Polynomial, z: Sequence[complex]) -> float:
    """Ratio acceleration min(1, 0.307541 / sum_i |W_i(z)/d_i(z)|); 1 when W = 0."""
    return _DAMPING["sor_new"](1.0, certificate_quantity(poly, z, 1))


def run_sor(poly: Polynomial, z0: Sequence[complex], opts: SolverOptions | None = None) -> IterationTrace:
    """Iterate z^(k+1) = z^k - h_k W(z^k) with h_k picked by opts.mode.

    The initial point must have pairwise distinct coordinates and a positive
    damping; a collision, an overflow or a damping that rounds to 0 at a
    later iterate aborts the run and returns the partial trace with the
    diagnostic in `error` rather than perturbing the point.
    """
    opts = SolverOptions() if opts is None else opts
    damping = _DAMPING[opts.mode]
    z: PointVector = tuple(complex(c) for c in z0)
    data = certificate_quantity(poly, z, opts.p)
    h = damping(opts.h, data)
    cert0 = cert_k = certificate_from_quantity(data.e, poly.degree, opts.p)
    records: list[IterationRecord] = []
    run_error: str | None = None
    for k in range(opts.max_iter + 1):
        w_norm = p_norm(data.w, opts.p)
        step_norm = h * w_norm
        apost = _aposteriori(cert_k, step_norm) if h == 1.0 else None
        records.append(
            IterationRecord(
                k=k,
                z=z,
                w_norm=w_norm,
                step_norm=step_norm,
                e=data.e,
                lam=cert_k.lam,
                theta=cert_k.theta,
                apost_bound=apost,
                h=h,
            )
        )
        final, steps = z, k
        if data.e <= opts.tol_e:
            stop_reason = "tol_e"
            break
        z = tuple(zi - h * wi for zi, wi in zip(z, data.w))
        if opts.tol_step > 0.0 and step_norm <= opts.tol_step:
            final, steps, stop_reason = z, k + 1, "tol_step"
            break
        if k == opts.max_iter:
            stop_reason = "max_iter"
            break
        try:
            data = certificate_quantity(poly, z, opts.p)
            h = damping(opts.h, data)
        except (DistinctCoordinatesViolated, NonFiniteValue, OverflowError) as exc:
            run_error, stop_reason = f"aborted at k = {k + 1}: {exc}", "aborted"
            break
        cert_k = certificate_from_quantity(data.e, poly.degree, opts.p)

    curve: tuple[float, ...] = ()
    if cert0.satisfied and len(records) >= 2 and all(r.h == 1.0 for r in records):
        first_step = records[0].step_norm
        curve = tuple(apriori_bound(j, cert0, first_step) for j in range(1, len(records)))
    return IterationTrace(
        records=tuple(records),
        final=final,
        steps=steps,
        converged=stop_reason in ("tol_e", "tol_step"),
        stop_reason=stop_reason,
        certificate=cert0,
        apriori_curve=curve,
        error=run_error,
    )


def run_weierstrass(
    poly: Polynomial, z0: Sequence[complex], opts: SolverOptions | None = None
) -> IterationTrace:
    """Plain iteration z^(k+1) = z^k - W(z^k); any mode in opts is overridden."""
    opts = SolverOptions() if opts is None else opts
    return run_sor(poly, z0, replace(opts, mode="plain"))
