"""Random low-mode profiles and their Rayleigh quotients, for the tests.

``random_dirichlet(grid, rng)`` draws a smooth Dirichlet profile from a
seeded ``numpy.random.Generator``; with the same seed it gives the same
profile.  The library draws no random numbers.
"""

from __future__ import annotations

import numpy as np

from stefanlab import bessel
from stefanlab.errors import ConfigError
from stefanlab.weighted import RadialGrid, WeightParam, deriv_values, inner_b


def rayleigh_quotient(grid: RadialGrid, f: np.ndarray,
                      w: WeightParam) -> float:
    """||f'||^2_{L2_b} / ||f||^2_{L2_b} of a profile on ``grid``."""
    df = deriv_values(f, grid.h)
    return inner_b(grid, df, df, w) / inner_b(grid, f, f, w)


def random_dirichlet(grid: RadialGrid, rng: np.random.Generator,
                     modes: int = 16) -> np.ndarray:
    """Random smooth Dirichlet profile: Gaussian mix of the first few modes.

    White nodal noise would make every Rayleigh quotient enormous and the
    gap check vacuous; a random low-mode combination actually probes it.
    """
    if not 1 <= modes <= 64:
        raise ConfigError("modes must be in [1, 64]")
    coeffs = rng.standard_normal(modes) / np.arange(1, modes + 1)
    vals = np.zeros(grid.n + 1)
    for j in range(1, modes + 1):
        vals += coeffs[j - 1] * bessel.eta(j, grid)
    vals[-1] = 0.0
    return vals
