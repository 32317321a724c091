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
plus inverse iteration); eigenvectors are mapped back, Simpson-normalized in
the weighted norm, and sign-fixed against the unperturbed eigenfunctions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import bessel
from .errors import NonConvergence
from .weighted import (GridFunction, RadialGrid, WeightParam, deriv, end_slope,
                       inner_b, norm_b)

#: largest number of eigenpairs `eigenpairs` computes
MAX_EIGENPAIRS = 12


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
        c1 = np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / (12.0 * h)
        c2 = np.array([11.0, -56.0, 114.0, -104.0, 35.0]) / (12.0 * h * h)
        vp = c1 @ v[-5:]
        vpp = c2 @ v[-5:]
        out[n] = -(vpp + vp) + self.w.b * vp
        return out


def assemble_hb(grid: RadialGrid, w: WeightParam) -> DriftOperator:
    """Assemble H_b in flux form on ``grid``."""
    n, h = grid.n, grid.h
    yh = (np.arange(n) + 0.5) * h
    half_flux = yh * w.rho(yh)
    mass = grid.y * w.rho(grid.y) * h
    # origin cell [0, h/2]: int_0^{h/2} rho y dy, rho evaluated mid-cell
    mass[0] = (h * h / 8.0) * float(w.rho(np.array([h / 4.0]))[0])
    m = mass[:n]
    diag = np.empty(n)
    diag[0] = half_flux[0] / (h * m[0])
    diag[1:] = (half_flux[: n - 1] + half_flux[1:n]) / (h * m[1:])
    off = -half_flux[: n - 1] / (h * np.sqrt(m[: n - 1] * m[1:n]))
    return DriftOperator(grid=grid, w=w, diag=diag, off=off,
                         node_mass=m, half_flux=half_flux)


@dataclass
class EigenPair:
    """Discrete eigenpair of H_b.

    ``psi`` is Simpson-normalized to unit weighted norm with the sign fixed
    so its projection on the unperturbed eigenfunction of the same index is
    positive; ``boundary_slope`` is the 4-point one-sided derivative at y = 1
    and ``residual`` the discrete weighted norm of H_b psi - lam psi.
    """

    index: int
    b: float
    lam: float
    psi: GridFunction
    boundary_slope: float
    residual: float


def eigenpairs(grid: RadialGrid, w: WeightParam, count: int,
               operator: DriftOperator | None = None) -> list[EigenPair]:
    """Smallest ``count`` eigenpairs of H_b on ``grid``.

    Requires count <= 12 and a grid of at least 512 intervals (coarser grids
    are fine for the low modes but are outside the accuracy contract).
    """
    if not 1 <= count <= MAX_EIGENPAIRS:
        raise ValueError(f"count must be in [1, {MAX_EIGENPAIRS}]")
    if grid.n < 512:
        raise ValueError("eigenpairs requires a grid of at least 512 intervals")
    op = operator if operator is not None else assemble_hb(grid, w)
    try:
        vals, vecs = eigh_tridiagonal(
            op.diag, op.off, select="i", select_range=(0, count - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"tridiagonal eigensolver failed: {exc}") from exc
    out = []
    sqrt_m = np.sqrt(op.node_mass)
    for k in range(1, count + 1):
        full = np.zeros(grid.n + 1)
        full[: grid.n] = vecs[:, k - 1] / sqrt_m
        psi = GridFunction(grid, full)
        nrm = norm_b(psi, w)
        psi.values /= nrm
        ek = GridFunction(grid, bessel.eta_samples(k, grid))
        if inner_b(psi, ek, w) < 0.0:
            psi.values *= -1.0
        # Rayleigh polish in the matrix's own mass weights: the bisection
        # eigenvalues carry an absolute error ~ ||T|| eps ~ 1e-9 otherwise
        interior = psi.values[: grid.n]
        hpsi = op.apply(psi.values)
        lam = float(np.dot(op.node_mass * interior, hpsi[: grid.n])
                    / np.dot(op.node_mass * interior, interior))
        resid_full = hpsi - lam * psi.values
        resid_full[-1] = 0.0  # residual measured on the Dirichlet subspace
        resid = norm_b(GridFunction(grid, resid_full), w)
        out.append(
            EigenPair(
                index=k,
                b=w.b,
                lam=lam,
                psi=psi,
                boundary_slope=end_slope(psi.values, grid.h),
                residual=resid,
            )
        )
    return out


@dataclass
class PerturbationReport:
    """Measured drift-parameter response of the low spectrum.

    ``slope`` is the least-squares d lam / d b over the sweep (the expansion
    predicts -1); ``residual_order`` the log-log order of
    |lam_b - (lam_0 - b)| against b with the same-grid b = 0 eigenvalue as
    reference (predicts 2); ``mu_hat`` the measured coefficients of
    psi_{b,k} on the lower unperturbed modes, against their first-order
    model b <y eta_k', eta_j>_0 / (lam_k - lam_j).

    The lower-mode coefficients are extracted by solving the weighted Gram
    system over span{eta_1 .. eta_k} and normalizing by the eta_k
    coefficient: the decomposition's remainder is weighted-orthogonal to
    that span, whereas a bare weighted projection on eta_j would pick up an
    O(b) contamination from <eta_k, eta_j>_b != 0.
    """

    k: int
    b_values: np.ndarray
    lam_values: np.ndarray
    slope: float
    residual_order: float
    mu_hat: dict[float, np.ndarray]
    mu_model: dict[float, np.ndarray]
    mu_db_fd: np.ndarray
    mu_db_model: np.ndarray
    boundary_slopes: np.ndarray
    residuals: np.ndarray


def perturbation_sweep(grid: RadialGrid, k: int, b_values) -> PerturbationReport:
    """Sweep the drift parameter and measure the spectral response of mode k.

    Needs at least three nonzero b values inside (-0.05, 0.05).
    """
    bs = np.asarray(sorted(b_values), dtype=float)
    if len(bs) < 3 or np.any(bs == 0.0) or np.any(np.abs(bs) >= 0.05):
        raise ValueError("need >= 3 nonzero b values inside (-0.05, 0.05)")
    base = eigenpairs(grid, WeightParam(0.0), k)
    lam0 = base[k - 1].lam
    etas = [GridFunction(grid, bessel.eta_samples(j, grid))
            for j in range(1, k + 1)]
    lam_ex = [z.lam for z in bessel.j0_zeros(k)]
    gcoef = [bessel.scaling_coefficient(k, j, grid) for j in range(1, k)]

    lam_vals, defects, slopes, residuals = [], [], [], []
    mu_hat, mu_model = {}, {}
    for b in bs:
        w = WeightParam(b)
        pair = eigenpairs(grid, w, k)[k - 1]
        lam_vals.append(pair.lam)
        defects.append(pair.lam - (lam0 - b))
        slopes.append(pair.boundary_slope)
        residuals.append(pair.residual)
        if k > 1:
            gram = np.array([
                [inner_b(ei, ej, w) for ej in etas] for ei in etas
            ])
            rhs = np.array([inner_b(pair.psi, e, w) for e in etas])
            coef = np.linalg.solve(gram, rhs)
            mu_hat[b] = coef[: k - 1] / coef[k - 1]
            mu_model[b] = np.array([
                b * gcoef[j - 1] / (lam_ex[k - 1] - lam_ex[j - 1])
                for j in range(1, k)
            ])
    lam_vals = np.asarray(lam_vals)
    slope = float(np.polyfit(bs, lam_vals, 1)[0])
    order = float(np.polyfit(np.log(np.abs(bs)), np.log(np.abs(defects)), 1)[0])
    # finite-difference estimate of d mu / d b between the two largest |b|
    if k > 1:
        b_hi, b_lo = bs[-1], bs[-2]
        mu_db_fd = (mu_hat[b_hi] - mu_hat[b_lo]) / (b_hi - b_lo)
        mu_db_model = np.array([
            gcoef[j - 1] / (lam_ex[k - 1] - lam_ex[j - 1]) for j in range(1, k)
        ])
    else:
        mu_db_fd = np.zeros(0)
        mu_db_model = np.zeros(0)
    return PerturbationReport(
        k=k, b_values=bs, lam_values=lam_vals, slope=slope,
        residual_order=order, mu_hat=mu_hat,
        mu_model=mu_model, mu_db_fd=mu_db_fd, mu_db_model=mu_db_model,
        boundary_slopes=np.asarray(slopes), residuals=np.asarray(residuals),
    )


def rayleigh_quotient(f: GridFunction, w: WeightParam) -> float:
    """||f'||^2_{L2_b} / ||f||^2_{L2_b}."""
    df = deriv(f)
    return inner_b(df, df, w) / inner_b(f, f, w)


def random_dirichlet(grid: RadialGrid, rng: np.random.Generator,
                     modes: int = 16) -> GridFunction:
    """Random smooth Dirichlet profile: Gaussian mix of the first few modes.

    White nodal noise would make every Rayleigh quotient enormous and the
    gap check vacuous; a random low-mode combination actually probes it.
    """
    if not 1 <= modes <= 64:
        raise ValueError("modes must be in [1, 64]")
    coeffs = rng.standard_normal(modes) / np.arange(1, modes + 1)
    vals = np.zeros(grid.n + 1)
    for j in range(1, modes + 1):
        vals += coeffs[j - 1] * bessel.eta_samples(j, grid)
    vals[-1] = 0.0
    return GridFunction(grid, vals)


def spectral_gap_check(grid: RadialGrid, w: WeightParam, k: int,
                       samples: int = 32, seed: int = 1234,
                       modes: int = 16) -> float:
    """Minimum Rayleigh quotient over random profiles orthogonal to the
    first k eigenfunctions of H_b (in the weighted inner product).

    The gap estimate predicts a value above lam_{k+1} - O(|b|).
    """
    if k > 8:
        raise ValueError("gap check supports k <= 8")
    pairs = eigenpairs(grid, w, k)
    rng = np.random.default_rng(seed)
    gram = np.array([
        [inner_b(pairs[i].psi, pairs[j].psi, w) for j in range(k)]
        for i in range(k)
    ])
    best = math.inf
    for _ in range(samples):
        f = random_dirichlet(grid, rng, modes=modes)
        rhs = np.array([inner_b(f, pairs[j].psi, w) for j in range(k)])
        coef = np.linalg.solve(gram, rhs)
        vals = f.values - sum(c * p.psi.values for c, p in zip(coef, pairs))
        vals[-1] = 0.0
        u = GridFunction(grid, vals)
        best = min(best, rayleigh_quotient(u, w))
    return float(best)


def sweep_to_csv(path, reports: list[PerturbationReport]):
    """CSV rows (b, k, lambda_bk, boundary_slope, residual) per sweep point."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["b", "k", "lambda_bk", "boundary_slope", "residual"])
        for rep in reports:
            for i, b in enumerate(rep.b_values):
                wr.writerow([
                    repr(float(b)), rep.k, repr(float(rep.lam_values[i])),
                    repr(float(rep.boundary_slopes[i])),
                    repr(float(rep.residuals[i])),
                ])
