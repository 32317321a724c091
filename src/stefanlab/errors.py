"""Exception hierarchy for stefanlab."""


class StefanLabError(Exception):
    """Base class for all stefanlab errors."""


class NonConvergence(StefanLabError):
    """An iterative method exceeded its iteration cap."""


class GridMismatch(StefanLabError):
    """A profile does not match its grid."""


class BoundaryBlowup(StefanLabError):
    """The boundary slope left the perturbative regime (|a| > 1)."""


class NonPositiveRadius(StefanLabError):
    """The interface radius became non-positive."""


class ConservationError(StefanLabError):
    """Mass invariant drifted beyond the configured tolerance."""


class SingularGram(StefanLabError):
    """Gram matrix of the decomposition basis is ill-conditioned."""


class InsufficientHistory(StefanLabError):
    """Not enough recorded states for finite differencing."""


class PoleCrossing(StefanLabError):
    """Closed-form reduced solution has a pole inside the requested interval."""


class NoTrappedData(StefanLabError):
    """The trap search stopped without certifying trapped initial data: a
    horizon too short to tell trapped from untrapped data, a singular
    Jacobian, non-finite trap variables, a step below tol or too many
    steps."""


class RunNotConverged(StefanLabError):
    """A time series did not reach the decay floor required for post-processing."""


class InsufficientDecay(StefanLabError):
    """Decay range too short for a reliable rate fit."""


class ZeroInitialMode(StefanLabError):
    """Regime classification needs a nonzero driving mode."""


class ConfigError(StefanLabError, ValueError):
    """Malformed configuration, or an argument a library function rejects."""
