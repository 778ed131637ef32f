"""Exception hierarchy shared by all lp-lab modules."""


class LpLabError(Exception):
    """Base class for all lp-lab errors."""


class ModelValidationError(LpLabError):
    """A candidate model failed validation."""


class NonStochasticRow(ModelValidationError):
    pass


class NegativeEntry(ModelValidationError):
    pass


class DuplicateLabel(ModelValidationError):
    pass


class UnreachablePoint(ModelValidationError):
    """A sample point has probability zero under every parameter value."""


class MalformedRational(LpLabError, ValueError):
    """A probability or weight is not an exact rational such as "p/q"."""


class LengthMismatch(LpLabError):
    pass


class ParameterSpaceMismatch(LpLabError):
    pass


class GroundSetMismatch(LpLabError):
    pass


class SpaceTooLarge(LpLabError):
    """Sample space exceeds the exhaustive-enumeration bound."""


class NotAncillary(LpLabError):
    pass


class NotLRelated(LpLabError):
    pass


class DegenerateHypothesis(LpLabError):
    pass


class EmptyHypothesis(LpLabError):
    pass


class UnknownTheta(LpLabError):
    pass
