"""Monic complex polynomials: normalization, root-product construction, Horner evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeTooLarge, DegreeTooSmall, DuplicateRoots, ZeroLeadingCoefficient

#: Soft degree cap. Direct products of n-1 coordinate differences are used in the
#: Weierstrass denominators, so very large degrees would need log-space arithmetic.
DEFAULT_MAX_DEGREE = 100


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial z^n + c[n-1] z^(n-1) + ... + c[1] z + c[0].

    Only the n non-leading coefficients are stored, in ascending power order;
    the leading coefficient is implicitly 1.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise DegreeTooSmall(f"degree must be at least 2, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

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
        """Expand prod_i (z - r_i) for pairwise-distinct roots.

        Used throughout the tests as the ground-truth construction: the root
        vector is known exactly, by design.
        """
        pts = [complex(r) for r in roots]
        if len(pts) > max_degree:
            raise DegreeTooLarge(f"degree {len(pts)} exceeds cap {max_degree}")
        # Equal complexes hash equally (0.0 and -0.0 included), so the set
        # misses no duplicate; the pairwise scan only names the first one.
        if len(set(pts)) < len(pts):
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if pts[i] == pts[j]:
                        raise DuplicateRoots(f"roots {i} and {j} are both {pts[i]}")
        # Iterated multiplication by (z - r); `full` holds the complete ascending
        # coefficient list including the leading 1.
        full = [1 + 0j]
        for r in pts:
            nxt = [0j] * (len(full) + 1)
            for i, c in enumerate(full):
                nxt[i + 1] += c
                nxt[i] -= r * c
            full = nxt
        return cls(tuple(full[:-1]))

    def evaluate(self, x: complex) -> complex:
        """Horner evaluation in complex double precision."""
        acc = 1 + 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate
