"""Locally D-optimal factorial designs for generalized linear models.

Given an m x d design matrix of candidate factor settings and a GLM
(family/link plus assumed coefficients), this package maximizes the
determinant of the Fisher information matrix over approximate designs
(proportions on the simplex, via the lift-one coordinate ascent) and
exact designs (integer allocations with a fixed total, via pairwise
exchange), certifies optimality from first-order conditions, and
supports expected-weight designs that average the information weights
over a prior on the coefficients.
"""

from .certify import (
    DEFAULT_TOL,
    OptimalityCertificate,
    PointCheck,
    SaturatedPoint,
    check_saturated,
    verify_optimal,
)
from .errors import (
    ConfigError,
    DesignError,
    DimensionMismatch,
    EmptyPair,
    GammaZeroEta,
    NonFiniteInput,
    NonPositiveWeight,
    SingularDesign,
    SingularSupport,
    UnsupportedCombination,
)
from .ew import PointPrior, UniformPrior, ew_optimize, expected_weights
from .exchange import (
    PairProfile,
    exchange_optimize,
    maximize_pair,
    optimize_exact,
    pair_profile,
    round_allocation,
)
from .liftone import (
    LiftOneOptions,
    LiftOneResult,
    lift_one_optimize,
)
from .objective import (
    MASS_ATOL,
    allocation,
    design_matrix,
    integer_allocation,
    objective,
    relative_efficiency,
)
from .weights import (
    FAMILY_LINKS,
    WEIGHT_FLOOR,
    GlmModel,
    compute_weights,
    nu_eval,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "FAMILY_LINKS",
    "MASS_ATOL",
    "WEIGHT_FLOOR",
    "ConfigError",
    "DesignError",
    "DimensionMismatch",
    "EmptyPair",
    "GammaZeroEta",
    "GlmModel",
    "LiftOneOptions",
    "LiftOneResult",
    "NonFiniteInput",
    "NonPositiveWeight",
    "OptimalityCertificate",
    "PairProfile",
    "PointCheck",
    "PointPrior",
    "SaturatedPoint",
    "SingularDesign",
    "SingularSupport",
    "UniformPrior",
    "UnsupportedCombination",
    "allocation",
    "check_saturated",
    "compute_weights",
    "design_matrix",
    "ew_optimize",
    "exchange_optimize",
    "expected_weights",
    "integer_allocation",
    "lift_one_optimize",
    "maximize_pair",
    "nu_eval",
    "objective",
    "optimize_exact",
    "pair_profile",
    "relative_efficiency",
    "round_allocation",
    "verify_optimal",
]
