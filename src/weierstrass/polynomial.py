"""Monic complex polynomials, held as coefficients or as roots, and their evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeTooLarge, DegreeTooSmall, DuplicateRoots, ZeroLeadingCoefficient

#: Soft degree cap. Direct products of n-1 coordinate differences are used in the
#: Weierstrass denominators, so very large degrees would need log-space arithmetic.
DEFAULT_MAX_DEGREE = 100


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial of degree n, held as its coefficients or as its roots.

    `coeffs` holds c[0] .. c[n-1] of z^n + c[n-1] z^(n-1) + ... + c[0] (the
    leading 1 is implicit); `roots` holds r_1 .. r_n of prod_i (z - r_i).
    Exactly one of the two is non-empty; neither is derived from the other.
    """

    coeffs: tuple[complex, ...] = ()
    roots: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and self.roots:
            raise ValueError("a polynomial holds coefficients or roots, not both")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
        if self.degree < 2:
            raise DegreeTooSmall(f"degree must be at least 2, got {self.degree}")

    @property
    def degree(self) -> int:
        return len(self.coeffs or self.roots)

    @classmethod
    def from_coefficients(
        cls,
        coeffs: Sequence[complex],
        leading: complex = 1,
        max_degree: int = DEFAULT_MAX_DEGREE,
    ) -> "Polynomial":
        """Build the monic polynomial with non-leading coefficients coeffs / leading.

        `coeffs` are the coefficients of z^0 .. z^(n-1); `leading` is the
        coefficient of z^n and is divided out.
        """
        leading = complex(leading)
        if leading == 0:
            raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
        if len(coeffs) > max_degree:
            raise DegreeTooLarge(f"degree {len(coeffs)} exceeds cap {max_degree}")
        return cls(tuple(complex(c) / leading for c in coeffs))

    @classmethod
    def from_roots(
        cls,
        roots: Sequence[complex],
        max_degree: int = DEFAULT_MAX_DEGREE,
    ) -> "Polynomial":
        """Hold prod_i (z - r_i) as its pairwise-distinct roots, unexpanded.

        `coeffs` stays empty. Used throughout the tests as the ground-truth
        construction: the root vector is known exactly, by design.
        """
        pts = tuple(complex(r) for r in roots)
        if len(pts) > max_degree:
            raise DegreeTooLarge(f"degree {len(pts)} exceeds cap {max_degree}")
        # Equal complexes hash equally (0.0 and -0.0 included), so the set
        # misses no duplicate; the pairwise scan only names the first one.
        if len(set(pts)) < len(pts):
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if pts[i] == pts[j]:
                        raise DuplicateRoots(f"roots {i} and {j} are both {pts[i]}")
        return cls(roots=pts)

    def evaluate(self, x: complex) -> complex:
        """prod_i (x - r_i) if roots are held (relative error O(n u)), else Horner."""
        acc = 1 + 0j
        if self.roots:
            for r in self.roots:
                acc *= x - r
            return acc
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate
