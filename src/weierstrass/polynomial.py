"""Monic complex polynomials, held as coefficients or as roots, and their evaluation."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import repeat
from math import copysign, prod
from typing import Sequence

from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    DuplicateRoots,
    NonFiniteValue,
    ZeroLeadingCoefficient,
)

#: Degree cap. Direct products of n-1 coordinate differences are used in the
#: Weierstrass denominators, so very large degrees would need log-space arithmetic.
DEFAULT_MAX_DEGREE = 100

#: Shortest run of zero coefficients that Horner multiplies straight through.
#: The break-even is near runs of 7 (ROADMAP item 1); 8 sits above it.
_ZERO_RUN = 8


def _horner_plan(coeffs: tuple[complex, ...]) -> tuple[int, tuple[complex, ...]]:
    """Horner's steps over `coeffs` as (skip, steps), leading end first: a
    bare acc * x `skip` times, then acc * x + c per c in `steps`.

    Only the leading zero run is skipped: the inputs this package meets have
    their zeros there (z^n - c). A run of at least _ZERO_RUN zeros whose
    lowest-degree member is exactly +0j is skipped but for that member, the
    first of `steps`. This is bit-identical to plain Horner. Adding a zero
    changes only the sign of a zero part, and no nonzero part of a complex
    product depends on the signs of the zero parts of its factors: each is a
    sum or difference in which a signed zero contributes a signed zero, and
    0 * inf is nan for either sign. So skipping the additions moves only zero
    signs, and the +0j that the run's last step adds makes every zero part
    +0.0 on both paths.
    """
    steps = coeffs[::-1]
    run = next((i for i, c in enumerate(steps) if c), len(steps))
    if run < _ZERO_RUN:
        return 0, steps
    last = steps[run - 1]
    if copysign(1.0, last.real) < 0 or copysign(1.0, last.imag) < 0:
        return 0, steps
    return run - 1, steps[run - 1 :]


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial of degree n, held as its coefficients or as its roots.

    `coeffs` holds c[0] .. c[n-1] of z^n + c[n-1] z^(n-1) + ... + c[0] (the
    leading 1 is implicit); `roots` holds r_1 .. r_n of prod_i (z - r_i).
    Exactly one of the two is non-empty; neither is derived from the other.
    Every construction checks 2 <= n <= DEFAULT_MAX_DEGREE and that the roots,
    if given, are pairwise distinct.
    """

    coeffs: tuple[complex, ...] = ()
    roots: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and self.roots:
            raise ValueError("a polynomial holds coefficients or roots, not both")
        coeffs = tuple(map(complex, self.coeffs))
        roots = tuple(map(complex, self.roots))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "roots", roots)
        n = len(coeffs or roots)
        if n < 2:
            raise DegreeTooSmall(f"degree must be at least 2, got {n}")
        if n > DEFAULT_MAX_DEGREE:
            raise DegreeTooLarge(f"degree {n} exceeds cap {DEFAULT_MAX_DEGREE}")
        # Equal complexes hash equally (0.0 and -0.0 included), so the set
        # misses no duplicate; the pairwise scan only names the first one.
        if len(set(roots)) < len(roots):
            for i in range(n):
                for j in range(i + 1, n):
                    if roots[i] == roots[j]:
                        raise DuplicateRoots(f"roots {i} and {j} are both {roots[i]}")
        if coeffs:
            object.__setattr__(self, "_plan", _horner_plan(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs or self.roots)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[complex], leading: complex = 1) -> "Polynomial":
        """Build the monic polynomial with non-leading coefficients coeffs / leading.

        `coeffs` are the coefficients of z^0 .. z^(n-1); `leading` is the
        coefficient of z^n and is divided out. A finite coefficient whose
        quotient is not finite raises NonFiniteValue; non-finite coefficients
        given directly are passed on unchecked.
        """
        leading = complex(leading)
        if leading == 0:
            raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
        quotients = tuple(complex(c) / leading for c in coeffs)
        if leading != 1:
            for i, (c, q) in enumerate(zip(coeffs, quotients)):
                if not cmath.isfinite(q) and cmath.isfinite(complex(c)):
                    raise NonFiniteValue(f"coefficient {i} divided by leading {leading} is {q}")
        return cls(quotients)

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """Hold prod_i (z - r_i) as its roots, unexpanded; `coeffs` stays empty.

        Used throughout the tests as the ground-truth construction: the root
        vector is known exactly, by design.
        """
        return cls(roots=roots)

    def evaluate(self, x: complex) -> complex:
        """prod_i (x - r_i) if roots are held (relative error O(n u)), else Horner.

        Horner follows `_horner_plan`, bit for bit one acc * x + c per
        coefficient. The skip is math.prod over `skip` copies of x with a
        complex start, which bypasses prod's int and float paths: `skip`
        complex products, left to right, as a loop.
        """
        acc = 1 + 0j
        if self.roots:
            for r in self.roots:
                acc *= x - r
            return acc
        skip, steps = self._plan
        if skip:
            acc = prod(repeat(x, skip), start=acc)
        for c in steps:
            acc = acc * x + c
        return acc

    __call__ = evaluate
