"""Monic complex polynomials, held as coefficients or as roots, and their evaluation."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import groupby
from math import copysign
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
#: The break-even is near runs of 4 (ROADMAP item 1); 8 keeps a margin.
_ZERO_RUN = 8


def _horner_segments(coeffs: tuple[complex, ...]) -> tuple[tuple[range, tuple[complex, ...]], ...]:
    """Horner's steps over `coeffs` as (zeros, dense) segments, leading end first.

    A segment takes a bare acc * x per member of `zeros`, a stored range, so
    no range is built per call; then acc * x + c per c in `dense`.
    A run of at least _ZERO_RUN zero coefficients whose lowest-degree member
    is exactly +0j goes to `zeros`, all but that member, which stays a step
    of `dense`; a polynomial without such a run is one segment. This is
    bit-identical to plain Horner. Adding a zero changes only the sign of a
    zero part, and no nonzero part of a complex product depends on the signs
    of the zero parts of its factors: each is a sum or difference in which a
    signed zero contributes a signed zero, and 0 * inf is nan for either
    sign. So skipping the additions moves only zero signs, and the +0j that
    the run's last step adds makes every zero part +0.0 on both paths.
    """
    segments = []
    zeros, dense = range(0), []
    for nonzero, group in groupby(reversed(coeffs), bool):
        run = list(group)
        last = run[-1]
        signed = copysign(1.0, last.real) < 0 or copysign(1.0, last.imag) < 0
        if nonzero or len(run) < _ZERO_RUN or signed:
            dense += run
            continue
        if zeros or dense:
            segments.append((zeros, tuple(dense)))
        zeros, dense = range(len(run) - 1), [last]
    segments.append((zeros, tuple(dense)))
    return tuple(segments)


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
            object.__setattr__(self, "_segments", _horner_segments(coeffs))

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

        Horner runs over `_horner_segments`, bit-identical to one step
        acc * x + c per coefficient.
        """
        acc = 1 + 0j
        if self.roots:
            for r in self.roots:
                acc *= x - r
            return acc
        for zeros, dense in self._segments:
            for _ in zeros:
                acc *= x
            for c in dense:
                acc = acc * x + c
        return acc

    __call__ = evaluate
