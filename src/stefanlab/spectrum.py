"""Discrete drifted Laplacian H_b = -Delta + b Lambda and its spectrum.

The operator is assembled in divergence (flux) form at half nodes,

    (H_b v)_i = -[ w_{i+1/2} (v_{i+1} - v_i) - w_{i-1/2} (v_i - v_{i-1}) ] / (h^2 y_i rho_i)

with w = y rho_b evaluated at half nodes, which makes the matrix exactly
self-adjoint in the discrete weighted inner product with finite-volume node
masses.  The Dirichlet row at y = 1 is eliminated; the origin row uses the
regularity limit (radial Laplacian of a smooth even profile tends to twice
its second derivative) with a Neumann mirror, realized here as a zero-flux
finite-volume cell of width h/2.

Eigenpairs come from the symmetrized tridiagonal matrix (LAPACK bisection
plus inverse iteration, ``dstebz``/``dstein`` as scipy's
``eigh_tridiagonal`` calls them, bound by :mod:`stefanlab.lapack` without
the ``scipy.linalg`` import); eigenvectors are mapped back,
Simpson-normalized in the weighted norm, and signed positive at the
origin.
They are returned as one :class:`Basis`, whose weighted Gram projection
serves the k = 1 fixed point and the mode decomposition, and whose
eigenvalues are the floors of the spectral gap check.

Every basis a run tracks comes from one rule, :func:`basis_family`: the
eigenpairs are analytic in b, so those at any |b| < 0.2 (the range
:class:`WeightParam` accepts) are the barycentric interpolant (Berrut &
Trefethen, SIAM Review 46, 2004) of cold solves at ``FAMILY_NODES``
Chebyshev points of the first kind on (-0.2, 0.2), memoized per grid and
mode count.  Against cold solves at n = 512 and 1024, k in {1, 2, 12} and
b from -0.199 to 0.199, the interpolant is within 1.1e-11 in psi and
7.0e-16 relative in lam, the cold solver's own noise floor.  The basis at
b is thus a pure function of (grid, k, b), whatever was solved before it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ConfigError, NonConvergence
from .lapack import lowest_eigh_tridiagonal
from .weighted import (B_CAP, B_SMALL, RadialGrid, WeightParam, end_slope,
                       inner_b, nodal_rho, right_stencils)

#: largest number of eigenpairs `eigenpairs` computes
MAX_EIGENPAIRS = 12
#: cold solves a :class:`BasisFamily` interpolates between (7 already reach
#: the noise floor; 5 give 2e-11 in psi)
FAMILY_NODES = 13


@dataclass
class DriftOperator:
    """Assembled flux form of H_b on a grid.

    ``node_mass`` are the finite-volume masses of the interior nodes
    (index 0 .. n-1) and ``half_flux`` the weights y rho_b at the half
    nodes; ``diag``/``off``, the symmetric tridiagonal matrix after the
    diagonal similarity with sqrt of the node masses, are formed on first
    read (eigensolves and the stepper's factorization read them,
    :meth:`apply` does not).
    """

    grid: RadialGrid
    w: WeightParam
    node_mass: np.ndarray
    half_flux: np.ndarray

    @functools.cached_property
    def diag(self) -> np.ndarray:
        h, m, wf = self.grid.h, self.node_mass, self.half_flux
        diag = np.empty(self.grid.n)
        diag[0] = wf[0] / (h * m[0])
        diag[1:] = (wf[:-1] + wf[1:]) / (h * m[1:])
        return diag

    @functools.cached_property
    def off(self) -> np.ndarray:
        h, m = self.grid.h, self.node_mass
        return -self.half_flux[:-1] / (h * np.sqrt(m[:-1] * m[1:]))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply H_b to a full nodal vector (Dirichlet value included).

        Returns a full vector; the y = 1 entry is computed from one-sided
        4th-order stencils for v' and v'' since the matrix rows only cover
        interior nodes.
        """
        v = np.asarray(values, dtype=float)
        n, h = self.grid.n, self.grid.h
        wf = self.half_flux
        m = self.node_mass
        out = np.empty(n + 1)
        flux = wf * (v[1:] - v[:n]) / h          # flux through y_{i+1/2}
        out[0] = -flux[0] / m[0]
        out[1:n] = -(flux[1:] - flux[:-1]) / m[1:]
        # boundary value from one-sided derivatives:
        # H_b v (1) = -(v'' + v') + b v'  at y = 1
        c1, c2 = right_stencils(h)
        vp = c1 @ v[-5:]
        vpp = c2 @ v[-5:]
        out[n] = -(vpp + vp) + self.w.b * vp
        return out


@functools.lru_cache(maxsize=None)
def _half_nodes(grid: RadialGrid) -> np.ndarray:
    """The half nodes y_{i+1/2}, i = 0 .. n-1, of ``grid``; read-only and
    memoized per grid."""
    yh = (np.arange(grid.n) + 0.5) * grid.h
    yh.flags.writeable = False
    return yh


def assemble_hb(grid: RadialGrid, w: WeightParam) -> DriftOperator:
    """Assemble H_b in flux form on ``grid``."""
    n, h = grid.n, grid.h
    yh = _half_nodes(grid)
    half_flux = yh * w.rho(yh)
    mass = grid.y * nodal_rho(grid, w) * h
    # origin cell [0, h/2]: int_0^{h/2} rho y dy, rho evaluated mid-cell
    mass[0] = (h * h / 8.0) * float(w.rho(np.array([h / 4.0]))[0])
    return DriftOperator(grid=grid, w=w, node_mass=mass[:n],
                         half_flux=half_flux)


@dataclass
class Basis:
    """The first k eigenpairs of H_b, one column per mode.

    Column j of ``psis`` is psi_{b,j+1}, Simpson-normalized to unit weighted
    norm and positive at the origin;
    ``residuals`` are the discrete weighted norms of H_b psi - lam psi (NaN
    for the bases of a :class:`BasisFamily`, which measures none).

    ``w`` is the :class:`WeightParam` the basis was made at, ``b`` its
    value.  A basis forms what its projections and energies read once, on
    first use: the quadrature weights at ``w``, the Gram matrix of the
    columns and ``operator``, the H_b at ``w`` (a cold solve carries the
    one it was solved from).  A basis that :meth:`BasisFamily.at` returns
    again thus reuses all three.
    """

    w: WeightParam
    psis: np.ndarray              # (n+1, k), C-contiguous
    lams: np.ndarray              # (k,)
    residuals: np.ndarray         # (k,)
    grid: RadialGrid

    @classmethod
    def solve(cls, grid: RadialGrid, b: float, k: int) -> "Basis":
        """The cold :func:`eigenpairs` of H_b at parameter b."""
        return eigenpairs(grid, WeightParam(b), k)

    @property
    def b(self) -> float:
        """The drift parameter of ``w``."""
        return self.w.b

    @functools.cached_property
    def operator(self) -> DriftOperator:
        """H_b at ``w``, assembled on first use."""
        return assemble_hb(self.grid, self.w)

    @functools.cached_property
    def boundary_slopes(self) -> np.ndarray:
        """The columns' 4-point one-sided derivatives at y = 1, formed on
        first use (tracking never reads them)."""
        return np.array([end_slope(psi, self.grid.h) for psi in self.psis.T])

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """Quadrature weights of the weighted inner product at ``w``."""
        grid = self.grid
        return grid.simpson * nodal_rho(grid, self.w) * grid.y

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        """Gram matrix of the columns: near the identity, since both
        builders (:func:`eigenpairs`, :meth:`BasisFamily.at`) give columns
        orthonormal in the node-mass product (conditioning <= 1.00012
        measured), so it needs no conditioning check."""
        return self.psis.T @ (self._weights[:, None] * self.psis)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Coefficients c of the weighted Gram projection of values on the
        columns: the k x k Gram system, a division for k = 1 (the floats
        ``np.linalg.solve`` gives)."""
        rhs = self.psis.T @ (self._weights * values)
        if len(rhs) == 1:
            return rhs / self._gram[0, 0]
        return np.linalg.solve(self._gram, rhs)

    def split(self, values: np.ndarray, coeffs: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients c (:meth:`coefficients`, unless given as ``coeffs``)
        and remainder r of values = psis @ c + r, with r weighted-orthogonal
        to every column in the weight at ``b`` and pinned to 0 at y = 1.
        """
        if coeffs is None:
            coeffs = self.coefficients(values)
        rest = values - self.psis @ coeffs
        rest[-1] = 0.0
        return coeffs, rest


def eigenpairs(grid: RadialGrid, w: WeightParam, count: int) -> Basis:
    """Smallest ``count`` eigenpairs of H_b on ``grid``, solved cold, as one
    basis that carries the H_b it was solved from.

    Requires count <= 12 and a grid of at least 512 intervals (coarser grids
    are fine for the low modes but are outside the accuracy contract).
    """
    if not 1 <= count <= MAX_EIGENPAIRS:
        raise ConfigError(f"count must be in [1, {MAX_EIGENPAIRS}]")
    if grid.n < 512:
        raise ConfigError("eigenpairs requires a grid of at least 512 intervals")
    op = assemble_hb(grid, w)
    try:
        vecs = lowest_eigh_tridiagonal(op.diag, op.off, count).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"tridiagonal eigensolver failed: {exc}") from exc
    n = grid.n
    # one row per mode, mapped back through the similarity sqrt(node mass):
    # every reduction then runs along a contiguous row and gives the floats
    # inner_b gives on that mode alone
    rows = np.zeros((count, n + 1))
    rows[:, :n] = vecs
    rows[:, :n] /= np.sqrt(op.node_mass)
    rows /= np.sqrt(np.maximum(inner_b(grid, rows, rows, w), 0.0))[:, None]
    rows[rows[:, 0] < 0.0] *= -1.0
    # Rayleigh polish in the matrix's own mass weights: the bisection
    # eigenvalues carry an absolute error ~ ||T|| eps ~ 1e-9 otherwise
    resid = np.array([op.apply(r) for r in rows])
    lams = np.array([np.dot(op.node_mass * r[:n], hr[:n])
                     / np.dot(op.node_mass * r[:n], r[:n])
                     for r, hr in zip(rows, resid)])
    resid -= lams[:, None] * rows
    resid[:, -1] = 0.0  # residual measured on the Dirichlet subspace
    residuals = np.sqrt(np.maximum(inner_b(grid, resid, resid, w), 0.0))
    basis = Basis(w=w, psis=np.ascontiguousarray(rows.T), lams=lams,
                  residuals=residuals, grid=grid)
    basis.operator = op  # fills the cached property: no second assembly
    return basis


class BasisFamily:
    """The first k eigenpairs of H_b on a grid as functions of b: cold
    solves at the ``FAMILY_NODES`` Chebyshev points of the first kind
    b_j = 0.2 cos((2j + 1) pi / (2 FAMILY_NODES)), all inside |b| < 0.2, and
    their barycentric interpolant at any other b (see the module
    docstring).

    :meth:`at` keeps the basis it built last, keyed on the bits of b: a
    track starts each record's fixed point at the previous record's b, so
    its first iterate reuses that basis with its weights, Gram and H_b.
    The basis at b is a pure function of b, so the memo changes no float;
    its arrays are read-only, so no caller can write into a basis another
    caller holds.
    """

    def __init__(self, grid: RadialGrid, k: int):
        theta = (2 * np.arange(FAMILY_NODES) + 1) * math.pi / (2 * FAMILY_NODES)
        self.nodes = B_CAP * np.cos(theta)
        self._bary = (-1.0) ** np.arange(FAMILY_NODES) * np.sin(theta)
        solved = [Basis.solve(grid, b, k) for b in self.nodes]
        self.grid = grid
        self.psis = np.stack([basis.psis for basis in solved])
        self.lams = np.stack([basis.lams for basis in solved])
        for arr in (self.nodes, self.psis, self.lams):
            arr.flags.writeable = False
        self._last: tuple[str, Basis] | None = None

    def at(self, b: float) -> Basis:
        """The basis at b: a node's own pair where b is a node, else the
        interpolant; H_b is assembled on first read of its ``operator``.
        Raises :class:`ConfigError` for |b| >= 0.2, as :class:`WeightParam`
        does."""
        w = WeightParam(float(b))
        b = w.b
        key = b.hex()  # the sign of zero included
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        diff = b - self.nodes
        hit = np.flatnonzero(diff == 0.0)
        if len(hit):
            psis, lams = self.psis[hit[0]], self.lams[hit[0]]
        else:
            c = self._bary / diff
            c /= c.sum()
            # einsum's own loops, not BLAS's kernels (whose rounding may
            # follow the alignment of a fresh output): the same b gives the
            # same floats
            flat = np.einsum("j,jn->n", c, self.psis.reshape(len(c), -1))
            lams = np.einsum("j,jk->k", c, self.lams)
            flat.flags.writeable = lams.flags.writeable = False
            psis = flat.reshape(self.psis.shape[1:])
        residuals = np.full(len(lams), np.nan)
        residuals.flags.writeable = False
        basis = Basis(w=w, psis=psis, lams=lams, residuals=residuals,
                      grid=self.grid)
        self._last = (key, basis)
        return basis


@functools.lru_cache(maxsize=None)
def basis_family(grid: RadialGrid, k: int) -> BasisFamily:
    """The :class:`BasisFamily` of the first k eigenpairs on ``grid``,
    built on first use and kept for the process."""
    return BasisFamily(grid, k)


@dataclass
class PerturbationReport:
    """Measured drift-parameter response of mode k.

    ``slope`` is the least-squares d lam / d b over the sweep (the expansion
    predicts -1); ``defects`` are lam_b - (lam_0 - b) with the same-grid
    b = 0 eigenvalue as reference, and ``residual_order`` their log-log
    order against b (predicts 2).
    """

    k: int
    b_values: np.ndarray
    lam_values: np.ndarray
    defects: np.ndarray
    slope: float
    residual_order: float
    boundary_slopes: np.ndarray
    residuals: np.ndarray


def perturbation_sweep(grid: RadialGrid, ks, b_values,
                       solve=None) -> list[PerturbationReport]:
    """Sweep the drift parameter and measure the spectral response of each
    mode k in ``ks``, one report per k: one solve of max(ks) pairs at b = 0
    and one at each b serve every k.  ``solve(b)`` gives those pairs
    (default: the cold :func:`eigenpairs` on ``grid``); a caller that sweeps
    the same b twice passes a memo of them.

    Needs at least three nonzero b values inside (-0.05, 0.05).
    """
    bs = np.asarray(sorted(b_values), dtype=float)
    if len(bs) < 3 or np.any(bs == 0.0) or np.any(np.abs(bs) >= B_SMALL):
        raise ConfigError(
            f"need >= 3 nonzero b values inside (-{B_SMALL}, {B_SMALL})")
    if not ks or min(ks) < 1:
        raise ConfigError("need at least one mode, each k >= 1")
    count = max(ks)
    if solve is None:
        def solve(b):
            return eigenpairs(grid, WeightParam(b), count)
    lams0 = solve(0.0).lams
    bases = [solve(b) for b in bs]
    reports = []
    for k in ks:
        lam_vals = np.array([basis.lams[k - 1] for basis in bases])
        defects = lam_vals - (lams0[k - 1] - bs)
        reports.append(PerturbationReport(
            k=k, b_values=bs, lam_values=lam_vals, defects=defects,
            slope=float(np.polyfit(bs, lam_vals, 1)[0]),
            residual_order=float(np.polyfit(
                np.log(np.abs(bs)), np.log(np.abs(defects)), 1)[0]),
            boundary_slopes=np.array([basis.boundary_slopes[k - 1]
                                      for basis in bases]),
            residuals=np.array([basis.residuals[k - 1] for basis in bases]),
        ))
    return reports


def spectral_gap_check(basis: Basis, k: int) -> float:
    """The least Rayleigh quotient of H_b on the weighted complement of the
    first k eigenfunctions of ``basis``: by Courant-Fischer, its solved
    lam_{k+1}, the exact minimum.

    Raises :class:`ConfigError` for a basis with <= k pairs.
    """
    if not 1 <= k < len(basis.lams):
        raise ConfigError(
            f"gap check needs 1 <= k < {len(basis.lams)} (the basis's pairs)")
    return float(basis.lams[k])


def sweep_to_csv(path, reports: list[PerturbationReport]):
    """CSV rows (b, k, lambda_bk, boundary_slope, residual) per sweep point."""
    files.write_csv(
        path, ["b", "k", "lambda_bk", "boundary_slope", "residual"],
        [[b, rep.k, lam, slope, res] for rep in reports
         for b, lam, slope, res in zip(rep.b_values, rep.lam_values,
                                       rep.boundary_slopes, rep.residuals)])
