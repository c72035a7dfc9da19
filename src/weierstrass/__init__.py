"""Simultaneous polynomial root finding with certified convergence.

Finds all zeros of a monic complex polynomial at once by iterating
z^(k+1) = z^k - W(z^k), where W is the Weierstrass correction. Convergence is
certified from data at the initial point alone through the single scalar
quantity E(z0) = ||W(z0)/d(z0)||_p, and every iterate carries the paper's a
priori and a posteriori error bounds, evaluated in floating point with no
rounding term yet (ROADMAP 2b). The package also tabulates the published
sufficient convergence radii and implements the damped (SOR) iteration.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .certificates import (
    Certificate,
    RadiusEntry,
    aposteriori_bound,
    apriori_bound,
    c_wangzhao_inf,
    c_wangzhao_l1,
    certificate_from_quantity,
    certify,
    convergence_radius,
    lambda_zheng,
    majorant,
    radius_exp_majorant,
    radius_han,
    radius_inf_linear,
    radius_simple,
    radius_sum_norm,
    radius_table,
    radius_zhaowang_l1,
    solve_exp_fixed_point,
    threshold_petkovic_herceg,
)
from .errors import (
    CertificateNotSatisfied,
    ConvergenceFailure,
    DegenerateDenominator,
    DegreeTooLarge,
    DegreeTooSmall,
    DistinctCoordinatesViolated,
    DomainViolation,
    DuplicateRoots,
    InvalidExponent,
    NoSignChange,
    NonFiniteValue,
    ParseError,
    WeierstrassError,
    ZeroLeadingCoefficient,
)
from .numerics import bisect, match_roots
from .operator import (
    NormIndex,
    OperatorData,
    PointVector,
    as_norm,
    certificate_quantity,
    conjugate_exponent,
    distances,
    p_norm,
    weierstrass_correction,
)
from .polynomial import DEFAULT_MAX_DEGREE, Polynomial
from .solver import (
    IterationRecord,
    IterationTrace,
    SolverOptions,
    h_ratio,
    h_wangzhao,
    run_sor,
    run_weierstrass,
)

#: Every public name bound above, except the submodules, sorted.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
