"""Output checks that do not trust the library.

Every formula here is written out again with the standard library: the
p-norm (scaled, so it neither underflows nor overflows), the nearest-root
pairing, and the certificate quantity E(z) evaluated from the product form
prod(z - r) of known roots. None of it calls into `weierstrass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Absolute tolerance on each returned root, scaled by max(1, max |root|).
#: Well-separated roots of modulus about 1 come back to about 1e-15, so this
#: leaves five orders of magnitude of headroom.
ROOT_TOL = 1e-10
#: Relative tolerance between a reported E(z0) and the one computed here.
E0_RTOL = 1e-6


@dataclass
class Unit:
    """Verdict on one solved problem (one document on cli-batch).

    `hard` names an operation failure: an exception, exit code 1, or output
    that is malformed or contradicts itself. `unconverged` names a run that
    reported non-convergence, `miss` returned roots outside the tolerance of
    the known roots. `bound` is the certified bound the output claims for the
    returned roots, `error` the true matched error in the same p-norm.
    """

    degree: int
    hard: str | None = None
    unconverged: str | None = None
    miss: str | None = None
    bound: float | None = None
    error: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.hard or self.unconverged or self.miss)

    @property
    def violated(self) -> bool:
        return self.bound is not None and self.error is not None and self.bound < self.error


def pnorm(values, p: float) -> float:
    """(sum |v_i|^p)^(1/p), scaled by the largest modulus; max modulus for p = inf."""
    mags = [abs(v) for v in values]
    top = max(mags, default=0.0)
    if top == 0.0 or math.isinf(p) or math.isinf(top):
        return top
    return top * math.fsum((m / top) ** p for m in mags) ** (1.0 / p)


def nearest_pairing(computed, truth) -> list[int]:
    """Index of the nearest true root for every computed root."""
    return [min(range(len(truth)), key=lambda j, z=z: abs(z - truth[j])) for z in computed]


def check_roots(unit: Unit, computed, truth, p: float) -> None:
    """Pair computed roots with the truth and record error or miss on `unit`."""
    if len(computed) != len(truth):
        unit.hard = f"{len(computed)} roots returned for degree {len(truth)}"
        return
    perm = nearest_pairing(computed, truth)
    if sorted(perm) != list(range(len(truth))):
        unit.miss = "nearest-root pairing is not a permutation"
        return
    diffs = [z - truth[j] for z, j in zip(computed, perm)]
    unit.error = pnorm(diffs, p)
    worst = max(abs(d) for d in diffs)
    scale = max(1.0, max(abs(r) for r in truth))
    if not worst <= ROOT_TOL * scale:
        unit.miss = f"root error {worst:.3g} exceeds {ROOT_TOL:g}"


def bound_on_final(apost_bounds: list, final_is_last: bool) -> float | None:
    """The a posteriori bound that covers the returned point.

    Record k's bound covers iterate k + 1, so when the run returns the last
    recorded iterate the bound comes from the record before it.
    """
    if final_is_last:
        return apost_bounds[-2] if len(apost_bounds) >= 2 else None
    return apost_bounds[-1]


def certificate_quantity(roots, z, p: float) -> float:
    """E(z) = ||W(z)/d(z)||_p with f(z) = prod(z - r) over the known roots."""
    ratios = []
    for i, zi in enumerate(z):
        f = 1 + 0j
        for r in roots:
            f *= zi - r
        den = 1 + 0j
        nearest = math.inf
        for j, zj in enumerate(z):
            if j != i:
                den *= zi - zj
                nearest = min(nearest, abs(zi - zj))
        ratios.append(abs(f / den) / nearest)
    return pnorm(ratios, p)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))
