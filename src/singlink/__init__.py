"""Exact invariants of links of isolated weighted-homogeneous singularities.

The pipeline, bottom to top: weight systems and monomial supports
(weights), the characteristic divisor as its ascending (j, a_j) pairs
(divisor), Milnor number and monodromy characteristic polynomial
(monodromy), the divisor's check, Hodge data and genus read off the
Milnor algebra's Poincare series without expanding it (milnor_algebra),
singular strata and orbifold data (orbifold), and the assembled report
with the 5-manifold classification (classify).  The cli module wraps it
all for the command line.
"""

import types

from .classify import (
    BUILTIN_REGISTRY,
    CANDIDATE,
    KNOWN_SE,
    NOT_FANO,
    NOT_QUASI_SMOOTH,
    NOT_WELL_FORMED,
    OBSTRUCTED,
    CheckResult,
    InvariantReport,
    RegistryEntry,
    analyze,
    cross_checks,
    load_registry,
    registry_dump,
    registry_lookup,
    require_consistent,
    smale_name,
    smale_type,
)
from .divisor import Divisor
from .errors import (
    BoundExceededError,
    CancelledMonomialError,
    ConsistencyError,
    DegenerateDegreeError,
    DuplicateMonomialWarning,
    EmptySubsetError,
    InexactDivisionError,
    IntegralityViolationError,
    LengthMismatchError,
    NonIntegralMilnorNumberError,
    NonPositiveWeightError,
    NotNormalizedError,
    NotQuasiHomogeneousError,
    PolynomialSyntaxError,
    SinglinkError,
    UnsupportedDimensionError,
    WrongDimensionError,
)
from .milnor_algebra import genus_branch_curve
from .monodromy import (
    ExpandedPoly,
    bp_oracle,
    characteristic_divisor,
    expand,
    middle_betti,
    milnor_number,
    to_factored,
)
from .orbifold import (
    CONTAINED,
    DISJOINT,
    MEETS,
    TORSION_FREE,
    TORSION_UNKNOWN,
    Fano,
    Stratum,
    fano,
    orbifold_order,
    pair_well_formed,
    singular_strata,
    torsion_status,
)
from .weights import (
    WeightedPolynomial,
    WeightSystem,
    count_monomials,
    divisibility_condition,
    is_well_formed_space,
    quasi_degree,
    quasi_smooth_failure,
    validate_weights,
    weighted_degree,
)

__version__ = "0.1.0"

# The import lists above are the public API; the submodules are not part of it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
