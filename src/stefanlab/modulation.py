"""Mode decomposition and diagnostics along a renormalized run.

A profile v(s) is split as v = sum_j b_j psi_{b,j} + eps with eps weighted-
orthogonal to the first k eigenfunctions psi_{b,j} of the drifted Laplacian
H_b, taken at exactly the parameter b the profile is decomposed at.  Every
such basis is the one of :func:`spectrum.basis_family` at b: the
interpolant of 13 cold solves over |b| < 0.2, within 1.1e-11 of a cold
solve in psi, so a record's basis depends on its b alone.  For every k the
parameter is the tracked mode's own coefficient, b = b_k, found by a
fixed-point iteration (:func:`self_consistent_b1`).

Tracked at each record as the run takes it (:func:`track_run`): the
coefficients b_j, the second-order energy E = ||H_b eps||^2 (weighted) of
the remainder, the rescaled trap variables V_j = b_j e^{(lam_k + gap_k) s},
and the leading-order mode-equation residuals.  Neither the remainder nor
the profile is kept.
One run from its k-mode datum, as ``--mode run``, the criteria and the
trap search make it, is :func:`scenario`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, bessel, files, solver, spectrum
from .errors import ConfigError, NonConvergence
from .spectrum import Basis
from .weighted import RadialGrid, inner_b

#: the fixed point of :func:`self_consistent_b1`: tolerance, iteration cap
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 50


@functools.lru_cache(maxsize=None)
def trap_rate(k: int) -> float:
    """Growth rate lam_k + gap_k of the trap variables V_j = b_j e^{rate s}
    of a k-mode run: gap_k is a quarter of the gap to the next-lower
    eigenvalue (any value in the open half-gap works; the midpoint is
    used), and 0 for k = 1."""
    zeros = bessel.j0_zeros(k)
    lam = zeros[k - 1].lam
    return lam + 0.25 * (lam - zeros[k - 2].lam) if k > 1 else lam


@dataclass
class ModulationState:
    """Decomposition of the profile at one record."""

    s: float
    b: float
    coeffs: np.ndarray        # (k,)
    energy: float
    V: np.ndarray


def decompose(v: np.ndarray, s: float, basis: Basis,
              coeffs: np.ndarray | None = None) -> ModulationState:
    """Split the profile v into the k modes of ``basis`` plus a remainder eps
    weighted-orthogonal to them, in the weight of the basis parameter b
    (:meth:`Basis.split`; ``coeffs``, if given, are v's
    :meth:`Basis.coefficients` on ``basis``, already formed).  The state
    keeps the energy of eps, not eps.  Trap variables grow at
    :func:`trap_rate` of k; those whose growth factor overflows are +-inf
    (0 for a zero coefficient).
    """
    k = basis.psis.shape[1]
    coeffs, eps = basis.split(v, coeffs)
    V = coeffs[: k - 1]
    if k > 1:
        growth = trap_rate(k) * s
        try:
            V = V * math.exp(growth)
        except OverflowError:
            V = np.where(V == 0.0, V, np.copysign(math.inf, V))
    energy = energy_of(basis.operator, eps)
    return ModulationState(s=s, b=basis.b, coeffs=coeffs, energy=energy, V=V)


def energy_of(op: spectrum.DriftOperator, eps: np.ndarray) -> float:
    """Second-order energy ||H_b eps||^2 of a profile in the weighted norm,
    on the grid and at the weight of ``op``."""
    e2 = op.apply(eps)
    return inner_b(op.grid, e2, e2, op.w)


def self_consistent_b1(grid: RadialGrid, v: np.ndarray,
                       initial: float | None = None,
                       k: int = 1) -> tuple[float, Basis, np.ndarray]:
    """Coefficient b_k of the profile v on ``grid`` in the k-mode basis
    whose parameter is b_k itself.

    Fixed-point iteration b <- F(b), the k-th coefficient of v's projection
    on the basis of :func:`spectrum.basis_family` at b (for k = 1,
    <v, psi_{b,1}>_b / <psi_{b,1}, psi_{b,1}>_b), from ``initial``
    (default 0), stopped at the first iterate with |F(b) - b| <=
    min(``FIXED_POINT_TOL``, 1e-6 |F(b)|): absolute above |b| = 1e-6,
    relative below, so a b far under the tolerance still moves from one
    record to the next.  Raises :class:`NonConvergence` after
    ``FIXED_POINT_MAX_ITER`` iterations.  F(b) is the basis's own
    projection coefficient (:meth:`Basis.coefficients`, the one
    :meth:`Basis.split` and so :func:`decompose` read), so each iterate
    costs the family's interpolant, its weights and Gram, and a projection;
    a first iterate at the previous record's b reuses that record's basis.
    Returns ``(b, basis, coeffs)``: that iterate, its basis and v's
    coefficients on it, the projection :func:`decompose` would form again.
    """
    family = spectrum.basis_family(grid, k)
    b = 0.0 if initial is None else float(initial)
    for _ in range(FIXED_POINT_MAX_ITER):
        basis = family.at(b)
        coeffs = basis.coefficients(v)
        b_new = float(coeffs[k - 1])
        if abs(b_new - b) <= min(FIXED_POINT_TOL, 1e-6 * abs(b_new)):
            return b, basis, coeffs
        b = b_new
    raise NonConvergence(f"self-consistent parameter b_{k} did not settle")


def build_profile(grid: RadialGrid, k: int, coeffs) -> np.ndarray:
    """Initial data sum_j coeffs[j] psi_{b, j+1} of a k-mode run, with
    coeffs = (b_1(0), .., b_k(0)), on the basis of
    :func:`spectrum.basis_family` at b = b_k(0), the tracked coefficient
    itself; other than k coefficients raise :class:`ConfigError`."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (k,):
        raise ConfigError(f"k = {k} needs {k} coefficients, got {coeffs.size}")
    vals = spectrum.basis_family(grid, k).at(coeffs[-1]).psis @ coeffs
    vals[-1] = 0.0
    return vals


def modulation_residual(states: list[ModulationState],
                        dt_s: float) -> np.ndarray:
    """Centered-difference residuals of the leading mode laws, one row of k
    per state.

    Needs at least 3 states recorded at the cadence ``dt_s`` (fewer raise
    :class:`ConfigError`).  A row is NaN where the state's neighbours are
    not one cadence away on each side: the first and last states, and the
    one before a closing record taken between cadence points.  Mode k's
    residual is |(b_k)_s + lam_k b_k - c b_k^2|, c =
    :attr:`bessel.BesselZero.boundary_slope` of zero k; for k > 1 each
    lower mode j includes the forcing c b_k^2 g_jk instead (closed-form
    g_jk, :func:`bessel.coupling_coefficients`).  The residuals are
    reported, not asserted: the remainder bounds' constants are unknown.
    """
    if len(states) < 3:
        raise ConfigError("need >= 3 states for centered differences")
    B = np.vstack([st.coeffs for st in states])
    k = B.shape[1]
    zeros = bessel.j0_zeros(k)
    lam = np.array([z.lam for z in zeros])
    slope = zeros[k - 1].boundary_slope
    gcoef = bessel.coupling_coefficients(k)
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
    :func:`modulation_residual`; all NaN for fewer than 3 states).
    """

    k: int
    states: list[ModulationState]
    residuals: np.ndarray     # (n_states, k)

    def coeff_array(self) -> np.ndarray:
        return np.vstack([st.coeffs for st in self.states])

    def to_csv(self, path):
        head = (["s", "b"] + [f"b_{j}" for j in range(1, self.k + 1)]
                + ["E"] + [f"V_{j}" for j in range(1, self.k)]
                + [f"residual_{j}" for j in range(1, self.k + 1)])
        files.write_csv(path, head,
                        ([st.s, st.b, *st.coeffs, st.energy, *st.V, *res]
                         for st, res in zip(self.states, self.residuals)))


def track_run(grid: RadialGrid, v0: np.ndarray, k: int, ds: float,
              s_max: float, norm_floor: float = solver.NORM_FLOOR
              ) -> tuple[solver.TimeSeries, TrackResult]:
    """Run the flow of the profile v0 on ``grid`` with :func:`solver.run`
    (``ds``, ``s_max`` and ``norm_floor`` are its arguments) and decompose
    each record as the run takes it; returns ``(series, track)``.

    Every record is decomposed on the basis of
    :func:`spectrum.basis_family` at exactly its parameter b, the
    self-consistent coefficient b_k (:func:`self_consistent_b1`), iterated
    from the previous record's b, with the fixed point's own projection as
    its coefficients.
    """
    states: list[ModulationState] = []
    b = None

    def observe(s, v):
        nonlocal b
        b, basis, coeffs = self_consistent_b1(grid, v, initial=b, k=k)
        states.append(decompose(v, s, basis, coeffs))

    series = solver.run(grid, v0, ds, s_max, norm_floor=norm_floor,
                        observe=observe)
    if len(states) >= 3:
        residuals = modulation_residual(states,
                                        float(series.s[1] - series.s[0]))
    else:
        residuals = np.full((len(states), k), np.nan)
    return series, TrackResult(k=k, states=states, residuals=residuals)


@dataclass
class Scenario:
    """A k-mode run from b_k(0) = ``b_k0``: its records and its track (None
    if untracked); ``verdict`` is formed on first read, so the records can
    be written before it raises."""

    k: int
    b_k0: float
    series: solver.TimeSeries
    track: TrackResult | None

    @functools.cached_property
    def verdict(self) -> dict:
        return asymptotics.verdict(self.series, self.k, self.b_k0)


def scenario(grid: RadialGrid, k: int, coeffs, ds: float | None = None,
             s_max: float | None = None, track: bool = True,
             norm_floor: float = solver.NORM_FLOOR) -> Scenario:
    """The run of the datum ``coeffs`` = (b_1(0), .., b_k(0)) on ``grid``
    (:func:`build_profile`) to ``s_max`` or ``norm_floor``, by
    :func:`track_run`, or by :func:`solver.run` if not ``track``; ``ds``
    and ``s_max`` default to :func:`solver.default_ds`/``default_s_max``."""
    v0 = build_profile(grid, k, coeffs)
    ds = ds if ds is not None else solver.default_ds(grid, k)
    s_max = s_max if s_max is not None else solver.default_s_max(k)
    if track:
        series, tracked = track_run(grid, v0, k, ds, s_max, norm_floor)
    else:
        series, tracked = solver.run(grid, v0, ds, s_max, norm_floor), None
    return Scenario(k, float(coeffs[-1]), series, tracked)
