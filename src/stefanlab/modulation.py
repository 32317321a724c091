"""Mode decomposition and diagnostics along a renormalized run.

A profile v(s) is split as v = sum_j b_j psi_{b,j} + eps with eps weighted-
orthogonal to the first k eigenfunctions psi_{b,j} of the drifted Laplacian
H_b, solved at exactly the parameter b the profile is decomposed at (frozen
at b = 0 below B_FREEZE).  Only the choice of b depends on the regime: for
the ground mode (k = 1) it is the coefficient itself, found by a fixed-point
iteration; for k > 1 it rides a fixed adiabatic schedule

    b(s) = A e^{-lam_k s} / (s + 1),

whose bases are memoized per scheduled b, since the schedule does not
depend on the data.  Either way a basis is warm-started from the previous
one (see :func:`spectrum.eigenpairs`), so a run's first eigensolve is its
only cold one unless a warm result fails its checks.

Tracked at each record as the run takes it (:func:`track_run`): the
coefficients b_j, the second-order energy E = ||H_b eps||^2 (weighted) of
the remainder, the rescaled trap variables V_j = b_j e^{(lam_k + gap_k) s},
and the leading-order mode-equation residuals.  Neither the remainder nor
the profile is kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bessel, solver, spectrum
from .errors import InsufficientHistory, NonConvergence
from .spectrum import Basis
from .weighted import RadialGrid, WeightParam, inner_b

#: default amplitude of the adiabatic basis schedule for k > 1
ADIABATIC_AMPLITUDE = 0.02
#: below this the basis is frozen at b = 0 (eigenpairs are numerically static)
B_FREEZE = 1e-9


def trap_rate(k: int) -> float:
    """Growth rate lam_k + gap_k of the trap variables V_j = b_j e^{rate s}
    of a k-mode run: gap_k is a quarter of the gap to the next-lower
    eigenvalue (any value in the open half-gap works; the midpoint is
    used), and 0 for k = 1."""
    zeros = bessel.j0_zeros(k)
    lam = zeros[k - 1].lam
    return lam + 0.25 * (lam - zeros[k - 2].lam) if k > 1 else lam


def adiabatic_b(s: float, k: int,
                amplitude: float = ADIABATIC_AMPLITUDE) -> float:
    """Adiabatic basis parameter A e^{-lam_k s} / (s + 1)."""
    lam_k = bessel.j0_zeros(k)[k - 1].lam
    return amplitude * math.exp(-lam_k * s) / (s + 1.0)


def frozen_b(b: float) -> float:
    """Parameter a basis for b is solved at: 0 below B_FREEZE, else b."""
    return 0.0 if abs(b) < B_FREEZE else b


@dataclass
class ModulationState:
    """Decomposition of the profile at one record."""

    s: float
    b: float
    coeffs: np.ndarray        # (k,)
    energy: float
    V: np.ndarray


def decompose(v: np.ndarray, s: float, basis: Basis) -> ModulationState:
    """Split the profile v into the k modes of ``basis`` plus a remainder eps
    weighted-orthogonal to them, in the weight of the basis parameter b
    (:meth:`Basis.split`, which raises :class:`SingularGram` on a singular
    basis).  The state keeps the energy of eps, not eps.  Trap variables
    whose growth factor overflows are +-inf (0 for a zero coefficient).
    """
    k = basis.psis.shape[1]
    coeffs, eps = basis.split(v)
    V = coeffs[: k - 1]
    if k > 1:
        growth = trap_rate(k) * s
        try:
            V = V * math.exp(growth)
        except OverflowError:
            V = np.where(V == 0.0, V, np.copysign(math.inf, V))
    energy = energy_of(basis.grid, eps, WeightParam(basis.b), basis.operator)
    return ModulationState(s=s, b=basis.b, coeffs=coeffs, energy=energy, V=V)


def energy_of(grid: RadialGrid, eps: np.ndarray, w: WeightParam,
              operator: spectrum.DriftOperator | None = None) -> float:
    """Second-order energy ||H_b eps||^2 in the weighted norm of a profile
    on ``grid``."""
    op = operator if operator is not None else spectrum.assemble_hb(grid, w)
    e2 = op.apply(eps)
    return inner_b(grid, e2, e2, w)


def self_consistent_b1(grid: RadialGrid, v: np.ndarray,
                       tol: float = 1e-12, max_iter: int = 50,
                       initial: float | None = None,
                       basis: Basis | None = None):
    """Ground-mode coefficient of the profile v on ``grid``, with the basis
    parameter equal to itself.

    Fixed-point iteration b <- F(b) = <v, psi_{b,1}>_b / <psi_{b,1}, psi_{b,1}>_b
    from ``initial`` (default 0), stopped at the first iterate with
    |F(b) - b| < tol; raises :class:`NonConvergence` after ``max_iter``
    iterations.  A ``basis`` already solved at an iterate's parameter is used
    instead of a new eigensolve; otherwise the current basis warm-starts
    the solve at the new iterate (see :func:`spectrum.eigenpairs`), and only
    a solve without one is cold.  Returns ``(b, basis, solves)``: that
    iterate, its basis (solved at ``frozen_b(b)``) and the number of
    eigensolves performed.
    """
    b = 0.0 if initial is None else float(initial)
    solves = 0
    for _ in range(max_iter):
        bb = frozen_b(b)
        if basis is None or basis.b != bb:
            basis = Basis.solve(grid, bb, 1, start=basis)
            solves += 1
        w = WeightParam(bb)
        psi = basis.psis[:, 0]
        b_new = inner_b(grid, v, psi, w) / inner_b(grid, psi, psi, w)
        if abs(b_new - b) < tol:
            return b, basis, solves
        b = b_new
    raise NonConvergence("self-consistent ground-mode parameter did not settle")


def scheduled_basis(cache: dict, grid: RadialGrid, k: int, s: float,
                    amplitude: float, start: Basis | None = None) -> Basis:
    """Basis at the adiabatic schedule's parameter for s, memoized in
    ``cache`` (one per grid and k) by that parameter and kept without its
    operator, so that a cache shared by many runs stays small.

    On a miss the solve is warm-started from ``start`` (see
    :func:`spectrum.eigenpairs`), the basis of the run's previous record;
    without one it is cold.  Every run starts at s = 0 on the same
    schedule, so an entry's start is the same whichever run solved it.
    """
    b = frozen_b(adiabatic_b(s, k, amplitude))
    if b not in cache:
        cache[b] = replace(Basis.solve(grid, b, k, start=start),
                           operator=None)
    return cache[b]


def build_profile(grid: RadialGrid, k: int, coeffs,
                  amplitude: float = ADIABATIC_AMPLITUDE,
                  cache: dict | None = None) -> np.ndarray:
    """Initial data sum_j coeffs[j] psi_{b, j+1} of a k-mode run, with
    coeffs = (b_1(0), .., b_k(0)).  The basis parameter b is the ground
    coefficient itself for k = 1 and the adiabatic schedule's b(0), as
    tracked, for k > 1, whose basis is read from (or solved cold into) the
    schedule ``cache`` of :func:`scheduled_basis` when one is given."""
    coeffs = np.asarray(coeffs, dtype=float)
    if k == 1:
        basis = Basis.solve(grid, float(coeffs[0]), 1)
    else:
        basis = scheduled_basis({} if cache is None else cache, grid, k,
                                0.0, amplitude)
    vals = basis.psis @ coeffs
    vals[-1] = 0.0
    return vals


def modulation_residual(states: list[ModulationState], dt_s: float,
                        grid: RadialGrid) -> np.ndarray:
    """Centered-difference residuals of the leading mode laws, one row of k
    per state.

    Needs at least 3 states recorded at the cadence ``dt_s``.  A row is NaN
    where the state's neighbours are not one cadence away on each side: the
    first and last states, and the one before a closing record taken between
    cadence points.  Mode k's residual is |(b_k)_s + lam_k b_k - c b_k^2|,
    c = :attr:`bessel.BesselZero.boundary_slope` of zero k; for k > 1 each
    lower mode j includes the forcing c b_k^2 g_jk instead.  The
    residuals are reported, not asserted: the implicit constants of the
    remainder bounds are unknown.  The coupling coefficients are
    integrated on ``grid``.
    """
    if len(states) < 3:
        raise InsufficientHistory("need >= 3 states for centered differences")
    B = np.vstack([st.coeffs for st in states])
    k = B.shape[1]
    zeros = bessel.j0_zeros(k)
    lam = np.array([z.lam for z in zeros])
    slope = zeros[k - 1].boundary_slope
    gcoef = np.array([bessel.scaling_coefficient(k, j, grid)
                      for j in range(1, k)])
    s_arr = np.array([st.s for st in states])
    dB = (B[2:] - B[:-2]) / (2.0 * dt_s)
    Bm = B[1:-1]
    res = np.full(B.shape, np.nan)
    mid = res[1:-1]
    mid[:, k - 1] = np.abs(dB[:, k - 1] + lam[k - 1] * Bm[:, k - 1]
                           - slope * Bm[:, k - 1] ** 2)
    for j in range(1, k):
        mid[:, j - 1] = np.abs(dB[:, j - 1] + lam[j - 1] * Bm[:, j - 1]
                               + slope * Bm[:, k - 1] ** 2 * gcoef[j - 1])
    # an off-cadence record is at least one step short of the cadence, far
    # beyond the round-off of the summed steps between records
    mid[np.abs(s_arr[2:] - s_arr[:-2] - 2.0 * dt_s) > 1e-6 * dt_s] = np.nan
    return res


@dataclass
class TrackResult:
    """Per-record decompositions of a run plus summary diagnostics.

    ``residuals`` holds the mode-law residuals of each state (see
    :func:`modulation_residual`; all NaN for fewer than 3 states), and
    ``n_basis_refreshes`` counts the eigensolves the tracking performed.
    """

    k: int
    states: list[ModulationState]
    residuals: np.ndarray     # (n_states, k)
    n_basis_refreshes: int

    def coeff_array(self) -> np.ndarray:
        return np.vstack([st.coeffs for st in self.states])

    def to_csv(self, path):
        k = self.k
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            head = (["s", "b"] + [f"b_{j}" for j in range(1, k + 1)]
                    + ["E"] + [f"V_{j}" for j in range(1, k)]
                    + [f"residual_{j}" for j in range(1, k + 1)])
            wr.writerow(head)
            for st, res in zip(self.states, self.residuals):
                row = ([st.s, st.b] + list(st.coeffs) + [st.energy]
                       + list(st.V) + list(res))
                wr.writerow([repr(float(x)) for x in row])


def track_run(grid: RadialGrid, v0: np.ndarray, k: int, ds: float,
              s_max: float, amplitude: float = ADIABATIC_AMPLITUDE,
              basis_cache: dict | None = None,
              **run_options) -> tuple[solver.TimeSeries, TrackResult]:
    """Run the flow of the profile v0 on ``grid`` with :func:`solver.run`
    (``ds``, ``s_max`` and ``run_options`` are its arguments) and decompose
    each record as the run takes it; returns ``(series, track)``.

    Every record is decomposed on the basis solved at exactly its parameter
    b.  For k = 1, b is the self-consistent ground coefficient, warm-started
    from the previous record's b and basis.  For k > 1, b is the adiabatic
    schedule's value at the record, and its basis comes from
    ``basis_cache`` (see :func:`scheduled_basis`), which can be shared
    across runs of the same family; a miss is warm-started from the
    previous record's basis.  Either way the first record's first
    eigensolve is the only cold one unless a warm result fails its checks.
    """
    cache = basis_cache if basis_cache is not None else {}
    n_cached = len(cache)
    states: list[ModulationState] = []
    n_solves = 0
    b, basis = None, None

    def observe(s, v):
        nonlocal b, basis, n_solves
        if k == 1:
            b, basis, solves = self_consistent_b1(grid, v, initial=b,
                                                  basis=basis)
            n_solves += solves
        else:
            basis = scheduled_basis(cache, grid, k, s, amplitude,
                                    start=basis)
        states.append(decompose(v, s, basis))

    series = solver.run(grid, v0, ds, s_max, observe=observe, **run_options)
    n_solves += len(cache) - n_cached

    if len(states) >= 3:
        residuals = modulation_residual(
            states, float(series.s[1] - series.s[0]), grid)
    else:
        residuals = np.full((len(states), k), np.nan)
    return series, TrackResult(k=k, states=states, residuals=residuals,
                               n_basis_refreshes=n_solves)
