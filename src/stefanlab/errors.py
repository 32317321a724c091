"""Exception hierarchy for stefanlab: eight failure types, the base class
:class:`StefanLabError` and seven subclasses, each raised for one kind of
failure that a run, a shoot or a criterion can meet (``cli.main`` maps
each to one exit code and stderr prefix, see the README)."""


class StefanLabError(Exception):
    """Base class for all stefanlab errors."""


class NonConvergence(StefanLabError):
    """An iterative method exceeded its iteration cap."""


class BoundaryBlowup(StefanLabError):
    """The boundary slope left the perturbative regime (|a| > 1)."""


class NonPositiveRadius(StefanLabError):
    """The interface radius became non-positive."""


class ConservationError(StefanLabError):
    """Mass invariant drifted beyond the configured tolerance."""


class NoTrappedData(StefanLabError):
    """The trap search stopped without certifying trapped initial data: a
    horizon too short to tell trapped from untrapped data, a singular
    Jacobian, non-finite trap variables, a step below tol or too many
    steps."""


class RunNotConverged(StefanLabError):
    """A run too short to judge: its boundary slope has not settled into
    the exponential regime, or its decay spans too few decades for the
    rate fit."""


class ConfigError(StefanLabError, ValueError):
    """Malformed configuration, or an argument a library function rejects."""
