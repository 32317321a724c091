"""stefanlab: numerical laboratory for the interior radial Stefan problem.

Subpackages
-----------
bessel
    J0 machinery, its zeros, and the radial Dirichlet eigenbasis.
weighted
    Radial grid, Gaussian drift weight, weighted inner product.
spectrum
    Divergence-form drifted Laplacian, its eigenbasis (each mode signed
    positive at the origin) and weighted projection, perturbation sweeps,
    gap checks.
solver
    IMEX time stepping of the renormalized moving-boundary flow.
modulation
    Mode decomposition, trap variables, energy and law residuals.
reduced
    Closed-form mode law, mode couplings; trapped-data shooting.
asymptotics
    Terminal radius, rate fits, melting/freezing classification.
cli
    Scenario-driven command line front end (`stefanlab`).

Every failure the library raises is one of eight types: `StefanLabError`
or one of its seven subclasses in `stefanlab.errors`, all exported here.
"""

from . import (asymptotics, bessel, config, modulation, reduced, solver,
               spectrum, verify, weighted)
from .errors import (BoundaryBlowup, ConfigError, ConservationError,
                     NonConvergence, NonPositiveRadius, NoTrappedData,
                     RunNotConverged, StefanLabError)
from .weighted import RadialGrid, WeightParam

__version__ = "0.1.0"

__all__ = [
    "asymptotics", "bessel", "config", "modulation", "reduced", "solver",
    "spectrum", "verify", "weighted",
    "RadialGrid", "WeightParam",
    "StefanLabError", "NonConvergence", "BoundaryBlowup",
    "NonPositiveRadius", "ConservationError", "NoTrappedData",
    "RunNotConverged", "ConfigError",
    "__version__",
]
