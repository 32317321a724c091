"""Gaussian-weighted radial geometry on the unit disk.

Carries the uniform radial grid, the drift weight rho_b(y) = exp(-b y^2 / 2),
the weighted inner product <f, g>_b = int_0^1 f g rho_b y dy and its L2
norm, the 4th-order derivative stencils and the one-sided boundary slope.

All quadrature is composite Simpson on the grid nodes (O(h^4) on smooth
integrands); derivatives use 4th-order stencils so that quadrature error,
not differentiation, dominates.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

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
            raise ValueError(f"grid size must be even and >= 8, got {n}")
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
            raise ValueError(f"|b| must be < {B_CAP}, got {self.b}")
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


@dataclass
class GridFunction:
    """Sampled radial profile on a :class:`RadialGrid`.

    Dirichlet-tagged functions must vanish exactly at y = 1.
    """

    grid: RadialGrid
    values: np.ndarray
    dirichlet: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n + 1} nodes)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite values")
        if self.dirichlet and self.values[-1] != 0.0:
            raise ValueError("Dirichlet-tagged function must vanish at y=1")


def _check_same_grid(f: GridFunction, g: GridFunction):
    if f.grid != g.grid:
        raise GridMismatch(f"{f.grid} vs {g.grid}")


def inner_b(f: GridFunction, g: GridFunction, w: WeightParam) -> float:
    """Simpson approximation of int_0^1 f g rho_b y dy."""
    _check_same_grid(f, g)
    grid = f.grid
    return float(np.sum(grid.simpson * f.values * g.values * w.rho(grid.y) * grid.y))


def norm_b(f: GridFunction, w: WeightParam) -> float:
    """Weighted L2 norm."""
    return float(np.sqrt(max(inner_b(f, f, w), 0.0)))


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


def deriv(f: GridFunction) -> GridFunction:
    """4th-order first derivative of a grid function."""
    return GridFunction(f.grid, deriv_values(f.values, f.grid.h),
                        dirichlet=False)


def end_slope(values: np.ndarray, h: float) -> float:
    """4-point one-sided O(h^3) estimate of the derivative at y = 1."""
    return float((11.0 * values[-1] - 18.0 * values[-2]
                  + 9.0 * values[-3] - 2.0 * values[-4]) / (6.0 * h))
