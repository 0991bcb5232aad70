"""Exception types shared across the package."""


class MatchPriorError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(MatchPriorError):
    """An input array has NaN or infinite entries where finite ones are required."""


class NonFiniteLogDensity(MatchPriorError):
    """Log density evaluated to NaN or -inf at an interior point."""


class StepTooLarge(MatchPriorError):
    """A finite-difference probe left the parameter support."""


class SingularFisher(MatchPriorError):
    """Fisher information (or observed information) is numerically singular."""


class FamilyMismatch(MatchPriorError):
    """A prior-pair construction was applied to an incompatible model family."""


class SupportMismatch(MatchPriorError):
    """Evaluation point lies outside the support of one of the priors."""


class InvalidHyperparameter(MatchPriorError):
    """Prior hyperparameters violate their positivity/shape constraints."""


class NotConverged(MatchPriorError):
    """An iterative optimizer exhausted its iteration budget."""

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


class IndefiniteHessian(MatchPriorError):
    """Line search found no ascent along the (ridged) Newton direction."""


class BoundaryStuck(MatchPriorError):
    """All coordinates pinned to the lower bound with the gradient pointing outward."""


class BoundaryPoint(MatchPriorError):
    """A point estimate sits on an optimization bound where calibration is invalid."""


class ZeroAcceptance(MatchPriorError):
    """A Metropolis chain accepted essentially no proposals."""


class SingularPrecision(MatchPriorError):
    """The Gaussian full conditional has a singular precision matrix."""


class TailNotDecaying(MatchPriorError):
    """Quadrature integrand does not decay at the probed tail points."""


class ToleranceNotMet(MatchPriorError):
    """Adaptive quadrature could not reach the requested tolerance."""
