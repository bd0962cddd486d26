"""Exception hierarchy for design construction and optimization."""


class DesignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DesignError):
    """Vector or matrix shapes do not agree."""


class NonFiniteInput(DesignError):
    """An input contains NaN or infinity."""


class SingularDesign(DesignError):
    """The information matrix is singular: the rows carrying mass do not span R^d."""


class SingularSupport(DesignError):
    """A saturated support has a singular design submatrix."""


class NonPositiveWeight(DesignError):
    """A design point received a non-positive or invalid GLM weight.

    Attributes
    ----------
    index : int or None
        Row index of the offending design point, when known.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class GammaZeroEta(DesignError):
    """Gamma-inverse weight requested at eta = 0 (undefined mean)."""


class EmptyPair(DesignError):
    """A pair exchange was requested for two points holding zero units."""


class UnsupportedCombination(DesignError):
    """The requested method does not apply to this model family."""


class ConfigError(DesignError):
    """A problem configuration is missing or inconsistent."""
