"""Gaussian-weighted radial geometry on the unit disk.

Carries the uniform radial grid, the drift weight rho_b(y) = exp(-b y^2 / 2),
the weighted inner product <f, g>_b = int_0^1 f g rho_b y dy, the 4th-order
derivative stencils and the one-sided boundary slope.  A profile is the
array of its samples at the grid nodes.

All quadrature is composite Simpson on the grid nodes (O(h^4) on smooth
integrands); derivatives use 4th-order stencils so that quadrature error,
not differentiation, dominates.  The stencils serve derivatives only: the
scheme is second order in h, because H_b's flux form is (lam_1's relative
error is -2.156e-6, -5.391e-7, -1.348e-7 at n = 512, 1024, 2048).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: hard cap on the drift parameter accepted by library entry points
B_CAP = 0.2
#: above this the perturbative expansions are no longer comfortably valid
B_WARN = 0.05


class RadialGrid:
    """Uniform, endpoint-inclusive grid y_i = i/n on [0, 1].

    ``n`` must be even (composite Simpson) and at least 8.
    """

    __slots__ = ("n", "h", "y", "simpson")

    def __init__(self, n: int):
        if n < 8 or n % 2 != 0:
            raise ConfigError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.y = np.linspace(0.0, 1.0, self.n + 1)
        w = np.ones(self.n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.simpson = w * (self.h / 3.0)

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and other.n == self.n

    def __hash__(self):
        return hash(("RadialGrid", self.n))

    def __repr__(self):
        return f"RadialGrid(n={self.n})"


@dataclass(frozen=True)
class WeightParam:
    """Drift/weight parameter b with the validity cap |b| < 0.2.

    A warning is emitted above |b| = 0.05 where the expansions are only
    marginally accurate.
    """

    b: float

    def __post_init__(self):
        if not np.isfinite(self.b) or abs(self.b) >= B_CAP:
            raise ConfigError(f"|b| must be < {B_CAP}, got {self.b}")
        if abs(self.b) > B_WARN:
            warnings.warn(
                f"drift parameter |b|={float(abs(self.b))!r} > {B_WARN}; "
                "expansions degrade in this range",
                # past __post_init__ and the generated __init__ to the caller
                stacklevel=3,
            )

    def rho(self, y: np.ndarray) -> np.ndarray:
        """Weight rho_b(y) = exp(-b y^2 / 2)."""
        return np.exp(-0.5 * self.b * np.asarray(y) ** 2)


@functools.lru_cache(maxsize=8)
def nodal_rho(grid: RadialGrid, w: WeightParam) -> np.ndarray:
    """rho_b at the nodes of ``grid``; read-only and memoized, so the node
    masses, norms, projections and residuals of one basis evaluate the
    exponential once."""
    rho = w.rho(grid.y)
    rho.flags.writeable = False
    return rho


def inner_b(grid: RadialGrid, f: np.ndarray, g: np.ndarray,
            w: WeightParam) -> float | np.ndarray:
    """Simpson approximation of int_0^1 f g rho_b y dy for nodal samples on
    ``grid``, summed over the last axis: a float for profiles, one value per
    row for stacks of them (row by row the same floats)."""
    out = np.sum(grid.simpson * f * g * nodal_rho(grid, w) * grid.y, axis=-1)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=None)
def right_stencils(h: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided 5-point stencils for v' (4th order) and v'' (3rd order) at
    the right end, applied to the last five nodes with spacing h; read-only
    and memoized per h."""
    d1 = np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / (12.0 * h)
    d2 = np.array([11.0, -56.0, 114.0, -104.0, 35.0]) / (12.0 * h * h)
    d1.flags.writeable = d2.flags.writeable = False
    return d1, d2


def deriv_values(v: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative of nodal values with spacing h
    (5-point one-sided stencils at the ends)."""
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    cr = right_stencils(h)[0]
    c = -cr[::-1]
    d[0] = c @ v[:5]
    d[1] = c @ v[1:6]
    d[-1] = cr @ v[-5:]
    d[-2] = cr @ v[-6:-1]
    return d


def end_slope(values: np.ndarray, h: float) -> float:
    """4-point one-sided O(h^3) estimate of the derivative at y = 1."""
    return float((11.0 * values[-1] - 18.0 * values[-2]
                  + 9.0 * values[-3] - 2.0 * values[-4]) / (6.0 * h))
