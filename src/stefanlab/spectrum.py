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
Simpson-normalized in the weighted norm, and sign-fixed against the
unperturbed eigenfunctions.
They are returned as one :class:`Basis`, whose weighted Gram projection
serves both the mode decomposition and the spectral gap check.

Given a start basis (k = 1 tracking passes the one solved at the previous
iterate of b, k > 1 tracking the previous record's scheduled basis), the
vectors come instead from two steps of Rayleigh-quotient inverse iteration
on the symmetrized matrix, one LAPACK ``gtsv`` each, followed by the same
post-processing.  A warm result is kept only when it
proves it is the right pair: every solve succeeded, each polished
eigenvalue lies strictly between the midpoints to its neighbouring
unperturbed Bessel eigenvalues (0 below the first), each vector projects
on its eta_j with magnitude at least ``WARM_MIN_PROJECTION`` before the
sign fix, and each residual is at most ``WARM_RESIDUAL_CAP``.  Otherwise
the cold LAPACK solve runs, and its basis is returned unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bessel, files
from .errors import ConfigError, NonConvergence, SingularGram
from .lapack import dgtsv, lowest_eigh_tridiagonal
from .weighted import (RadialGrid, WeightParam, deriv_values, end_slope,
                       inner_b, nodal_rho, right_stencils)

#: largest number of eigenpairs `eigenpairs` computes
MAX_EIGENPAIRS = 12
#: largest residual a warm-started eigenpair may keep; cold residuals
#: measure 1.6e-10 to 1e-8 for n = 512 to 2048
WARM_RESIDUAL_CAP = 1e-6
#: smallest |<psi_j, eta_j>_b| of a warm-started pair before the sign fix
WARM_MIN_PROJECTION = 0.5
#: Rayleigh-quotient inverse-iteration steps of a warm start (the
#: iteration converges cubically from a nearby b's vector)
WARM_STEPS = 2


@dataclass
class DriftOperator:
    """Assembled tridiagonal form of H_b on a grid.

    ``diag``/``off`` form the symmetric tridiagonal matrix after the diagonal
    similarity with sqrt of the node masses; ``node_mass`` are the
    finite-volume masses of the interior nodes (index 0 .. n-1).
    """

    grid: RadialGrid
    w: WeightParam
    diag: np.ndarray
    off: np.ndarray
    node_mass: np.ndarray
    half_flux: np.ndarray

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


def assemble_hb(grid: RadialGrid, w: WeightParam) -> DriftOperator:
    """Assemble H_b in flux form on ``grid``."""
    n, h = grid.n, grid.h
    yh = (np.arange(n) + 0.5) * h
    half_flux = yh * w.rho(yh)
    mass = grid.y * nodal_rho(grid, w) * h
    # origin cell [0, h/2]: int_0^{h/2} rho y dy, rho evaluated mid-cell
    mass[0] = (h * h / 8.0) * float(w.rho(np.array([h / 4.0]))[0])
    m = mass[:n]
    diag = np.empty(n)
    diag[0] = half_flux[0] / (h * m[0])
    diag[1:] = (half_flux[: n - 1] + half_flux[1:n]) / (h * m[1:])
    off = -half_flux[: n - 1] / (h * np.sqrt(m[: n - 1] * m[1:n]))
    return DriftOperator(grid=grid, w=w, diag=diag, off=off,
                         node_mass=m, half_flux=half_flux)


#: largest Gram conditioning a :meth:`Basis.split` accepts
GRAM_COND_CAP = 1e8


@dataclass
class Basis:
    """The first k eigenpairs of H_b, one column per mode.

    Column j of ``psis`` is psi_{b,j+1}, Simpson-normalized to unit weighted
    norm with the sign fixed so its projection on eta_{j+1} is positive;
    ``residuals`` are the discrete weighted norms of H_b psi - lam psi.
    ``operator`` is the H_b they were solved from, kept for the energies of
    the profiles split on them; None once dropped from a cache.
    """

    b: float
    psis: np.ndarray              # (n+1, k), C-contiguous
    lams: np.ndarray              # (k,)
    residuals: np.ndarray         # (k,)
    grid: RadialGrid
    operator: DriftOperator | None = None

    @classmethod
    def solve(cls, grid: RadialGrid, b: float, k: int,
              start: "Basis | None" = None) -> "Basis":
        """:func:`eigenpairs` of H_b at parameter b, warm-started from
        ``start`` when given."""
        return eigenpairs(grid, WeightParam(b), k, start=start)

    @functools.cached_property
    def boundary_slopes(self) -> np.ndarray:
        """The columns' 4-point one-sided derivatives at y = 1, formed on
        first use (tracking never reads them)."""
        return np.array([end_slope(psi, self.grid.h) for psi in self.psis.T])

    def _weights(self) -> np.ndarray:
        """Quadrature weights of the weighted inner product at ``b``."""
        grid = self.grid
        return grid.simpson * nodal_rho(grid, WeightParam(self.b)) * grid.y

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        """Gram matrix of the columns, formed once per basis (only this
        k x k matrix is kept, so cached bases stay small).

        Raises :class:`SingularGram` when its conditioning exceeds
        ``GRAM_COND_CAP``; a 1 x 1 Gram is conditioned exactly 1.
        """
        gram = self.psis.T @ (self._weights()[:, None] * self.psis)
        if len(gram) > 1:
            cond = np.linalg.cond(gram)
            if cond > GRAM_COND_CAP:
                raise SingularGram(f"Gram conditioning {cond:.2e}")
        return gram

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients c and remainder r of values = psis @ c + r, with r
        weighted-orthogonal to every column in the weight at ``b`` and
        pinned to 0 at y = 1.

        Solves the k x k Gram system; raises :class:`SingularGram` when its
        conditioning exceeds ``GRAM_COND_CAP`` (a sign that b is outside its
        range).
        """
        coeffs = np.linalg.solve(self._gram,
                                 self.psis.T @ (self._weights() * values))
        rest = values - self.psis @ coeffs
        rest[-1] = 0.0
        return coeffs, rest


def eigenpairs(grid: RadialGrid, w: WeightParam, count: int,
               start: Basis | None = None) -> Basis:
    """Smallest ``count`` eigenpairs of H_b on ``grid``, as one basis that
    carries the H_b it was solved from.

    Requires count <= 12 and a grid of at least 512 intervals (coarser grids
    are fine for the low modes but are outside the accuracy contract).
    ``start``, a basis of ``count`` columns on ``grid`` solved at a nearby
    parameter, warm-starts the solve by inverse iteration from its columns;
    a warm result that fails its checks (see the module docstring) falls
    back to the cold LAPACK solve.
    """
    if not 1 <= count <= MAX_EIGENPAIRS:
        raise ConfigError(f"count must be in [1, {MAX_EIGENPAIRS}]")
    if grid.n < 512:
        raise ConfigError("eigenpairs requires a grid of at least 512 intervals")
    op = assemble_hb(grid, w)
    # the similarity between nodal values and the symmetrized matrix
    root_mass = np.sqrt(op.node_mass)
    if start is not None:
        if start.psis.shape != (grid.n + 1, count):
            raise ConfigError("start basis does not match the grid and count")
        vecs = _inverse_iteration(op, start.psis[: grid.n].T * root_mass)
        if vecs is not None:
            basis, proj = _post_process(grid, w, op, vecs, root_mass)
            if _warm_pairs_hold(basis, proj):
                return basis
    try:
        vecs = lowest_eigh_tridiagonal(op.diag, op.off, count).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"tridiagonal eigensolver failed: {exc}") from exc
    return _post_process(grid, w, op, vecs, root_mass)[0]


def _inverse_iteration(op: DriftOperator,
                       vecs: np.ndarray) -> np.ndarray | None:
    """Unit eigenvectors of the symmetrized tridiagonal T, one row per row
    of the start vectors ``vecs`` (in the symmetrized frame; iterated in
    place), after ``WARM_STEPS`` solves of (T - mu) x_new = x with mu the
    Rayleigh quotient of x; None when a solve reports a singular pivot."""
    d, e = op.diag, op.off
    for x in vecs:
        x /= np.linalg.norm(x)
        for _ in range(WARM_STEPS):
            tx = d * x
            tx[1:] += e * x[:-1]
            tx[:-1] += e * x[1:]
            _, _, _, sol, info = dgtsv(e, d - np.dot(x, tx), e, x[:, None])
            if info != 0:
                return None
            x[:] = sol[:, 0] / np.linalg.norm(sol)
    return vecs


def _post_process(grid: RadialGrid, w: WeightParam, op: DriftOperator,
                  vecs: np.ndarray, root_mass: np.ndarray
                  ) -> tuple[Basis, np.ndarray]:
    """Basis from eigenvectors of the symmetrized matrix (one row each),
    mapped back through ``root_mass`` = sqrt(op.node_mass), and each
    vector's projection on its eta_j before the sign fix."""
    n = grid.n
    # one row per mode: every reduction then runs along a contiguous row and
    # gives the floats inner_b gives on that mode alone
    rows = np.zeros((len(vecs), n + 1))
    rows[:, :n] = vecs
    rows[:, :n] /= root_mass
    rows /= np.sqrt(np.maximum(inner_b(grid, rows, rows, w), 0.0))[:, None]
    proj = np.array([inner_b(grid, row, bessel.eta_samples(j, grid), w)
                     for j, row in enumerate(rows, start=1)])
    rows[proj < 0.0] *= -1.0
    # Rayleigh polish in the matrix's own mass weights: the bisection
    # eigenvalues carry an absolute error ~ ||T|| eps ~ 1e-9 otherwise
    resid = np.array([op.apply(r) for r in rows])
    lams = np.array([np.dot(op.node_mass * r[:n], hr[:n])
                     / np.dot(op.node_mass * r[:n], r[:n])
                     for r, hr in zip(rows, resid)])
    resid -= lams[:, None] * rows
    resid[:, -1] = 0.0  # residual measured on the Dirichlet subspace
    residuals = np.sqrt(np.maximum(inner_b(grid, resid, resid, w), 0.0))
    return Basis(b=w.b, psis=np.ascontiguousarray(rows.T), lams=lams,
                 residuals=residuals, grid=grid, operator=op), proj


@functools.lru_cache(maxsize=None)
def _eigenvalue_windows(count: int) -> tuple[tuple[float, float], ...]:
    """(low, high) per pair j <= count: the midpoints from the unperturbed
    eigenvalue lam_j to its neighbours (0 below the first)."""
    lam0 = [0.0] + [z.lam for z in bessel.j0_zeros(count + 1)]
    return tuple((0.5 * (lam0[j - 1] + lam0[j]), 0.5 * (lam0[j] + lam0[j + 1]))
                 for j in range(1, count + 1))


def _warm_pairs_hold(basis: Basis, proj: np.ndarray) -> bool:
    """Whether warm-started pairs pass the checks of the module docstring
    (NaNs fail every check)."""
    windows = _eigenvalue_windows(len(basis.lams))
    return (all(low < lam < high
                for (low, high), lam in zip(windows, basis.lams))
            and bool(np.all(np.abs(proj) >= WARM_MIN_PROJECTION))
            and bool(np.all(basis.residuals <= WARM_RESIDUAL_CAP)))


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


def perturbation_sweep(grid: RadialGrid, k: int, b_values) -> PerturbationReport:
    """Sweep the drift parameter and measure the spectral response of mode k.

    Needs at least three nonzero b values inside (-0.05, 0.05).
    """
    bs = np.asarray(sorted(b_values), dtype=float)
    if len(bs) < 3 or np.any(bs == 0.0) or np.any(np.abs(bs) >= 0.05):
        raise ConfigError("need >= 3 nonzero b values inside (-0.05, 0.05)")
    lam0 = eigenpairs(grid, WeightParam(0.0), k).lams[k - 1]
    bases = [eigenpairs(grid, WeightParam(b), k) for b in bs]
    lam_vals = np.array([basis.lams[k - 1] for basis in bases])
    defects = lam_vals - (lam0 - bs)
    slope = float(np.polyfit(bs, lam_vals, 1)[0])
    order = float(np.polyfit(np.log(np.abs(bs)), np.log(np.abs(defects)), 1)[0])
    return PerturbationReport(
        k=k, b_values=bs, lam_values=lam_vals, defects=defects, slope=slope,
        residual_order=order,
        boundary_slopes=np.array([basis.boundary_slopes[k - 1]
                                  for basis in bases]),
        residuals=np.array([basis.residuals[k - 1] for basis in bases]),
    )


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
        vals += coeffs[j - 1] * bessel.eta_samples(j, grid)
    vals[-1] = 0.0
    return vals


def spectral_gap_check(grid: RadialGrid, w: WeightParam, k: int,
                       samples: int = 32, seed: int = 1234,
                       modes: int = 16) -> float:
    """Minimum Rayleigh quotient over random profiles orthogonal to the
    first k eigenfunctions of H_b (in the weighted inner product).

    The gap estimate predicts a value above lam_{k+1} - O(|b|).
    """
    if k > 8:
        raise ConfigError("gap check supports k <= 8")
    basis = eigenpairs(grid, w, k)
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        _, rest = basis.split(random_dirichlet(grid, rng, modes=modes))
        best = min(best, rayleigh_quotient(grid, rest, w))
    return float(best)


def sweep_to_csv(path, reports: list[PerturbationReport]):
    """CSV rows (b, k, lambda_bk, boundary_slope, residual) per sweep point."""
    files.write_csv(
        path, ["b", "k", "lambda_bk", "boundary_slope", "residual"],
        [[b, rep.k, lam, slope, res] for rep in reports
         for b, lam, slope, res in zip(rep.b_values, rep.lam_values,
                                       rep.boundary_slopes, rep.residuals)])
