"""Renormalized interface flow on the fixed unit interval.

The moving-boundary heat problem, rescaled to y = r / lam(t) with the clock
ds/dt = 1 / lam^2, becomes

    v_s = Delta v - a Lambda v,   v(s, 1) = 0,
    a(s) = v_y(s, 1) = -lam_s / lam,

so the interface radius follows lam_s = -a lam and the physical time is
recovered from dt/ds = lam^2.

Time stepping is IMEX: diffusion by Crank-Nicolson (tridiagonal solve,
factored once per run), the drift term a Lambda v explicit with the boundary
slope a taken from a 4-point one-sided stencil.  A single corrector pass
re-evaluates the drift at the predicted end state and applies it
trapezoidally; without it the scheme is first order in ds through the drift
coupling and cannot meet the mass-conservation budget at practical step
sizes.  The radius update is the exponential integrator
lam <- lam exp(-a_bar ds), which keeps lam > 0 structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from . import bessel, spectrum
from .errors import (BoundaryBlowup, ConservationError, GridMismatch,
                     NonPositiveRadius)
from .weighted import RadialGrid, WeightParam, deriv_values, end_slope

#: stop a run once the solution norm falls below this floor
NORM_FLOOR = 1e-12
#: default record cadence in s
RECORD_DS = 2e-3
#: default bound on the relative mass drift
MASS_TOL = 1e-6


def mass(grid: RadialGrid, v: np.ndarray, lam: float) -> float:
    """Conserved quantity of the nodal profile v at radius lam: heat content
    plus disk area, 2 pi lam^2 int v y dy + pi lam^2."""
    integral = float(np.sum(grid.simpson * v * grid.y))
    return 2.0 * np.pi * lam ** 2 * integral + np.pi * lam ** 2


def dmp_step_limit(grid: RadialGrid, safety: float = 1.0) -> float:
    """Step bound 0.5 h^2 under which the scheme obeys a discrete maximum
    principle (sign preservation).  Production runs use far larger steps;
    positivity then holds for smooth data but is no longer guaranteed."""
    return 0.5 * grid.h ** 2 * safety


class Stepper:
    """IMEX Crank-Nicolson stepper with a fixed step on a fixed grid."""

    def __init__(self, grid: RadialGrid, ds: float):
        if ds <= 0:
            raise ValueError("ds must be positive")
        self.grid = grid
        self.ds = ds
        n, h = grid.n, grid.h
        # unsymmetrized tridiagonal of -Delta on interior nodes: H_b at b = 0,
        # where the weight is exactly 1.0, so fluxes and masses are unscaled
        op = spectrum.assemble_hb(grid, WeightParam(0.0))
        wf, m = op.half_flux, op.node_mass
        diag = op.diag
        sub = np.empty(n)
        sub[0] = 0.0
        sub[1:] = -wf[: n - 1] / (h * m[1:])
        sup = np.empty(n)
        sup[: n - 1] = -wf[: n - 1] / (h * m[: n - 1])
        sup[n - 1] = 0.0
        self._diag, self._sub, self._sup = diag, sub, sup
        dl = (ds / 2.0) * sub[1:]
        dd = 1.0 + (ds / 2.0) * diag
        du = (ds / 2.0) * sup[:-1]
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (dd,))
        self._gttrs = gttrs
        res = gttrf(dl, dd, du)
        if res[-1] != 0:
            raise RuntimeError("tridiagonal factorization failed")
        self._fact = res[:5]

    def _apply_neg_lap(self, vi: np.ndarray) -> np.ndarray:
        out = self._diag * vi
        out[1:] += self._sub[1:] * vi[:-1]
        out[:-1] += self._sup[:-1] * vi[1:]
        return out

    def _implicit_solve(self, rhs: np.ndarray) -> np.ndarray:
        dl, dd, du, du2, ipiv = self._fact
        sol, info = self._gttrs(dl, dd, du, du2, ipiv, rhs)
        return sol

    def advance(self, v: np.ndarray, lam: float,
                a: float) -> tuple[np.ndarray, float, float]:
        """One IMEX step of the nodal profile v (v[-1] = 0) at radius lam and
        boundary slope a = end_slope(v); returns the next (v, lam, a).
        Raises on a non-positive radius or |a| > 1."""
        ds = self.ds
        n, h = self.grid.n, self.grid.h
        if lam <= 0.0:
            raise NonPositiveRadius(f"lam = {lam}")
        if abs(a) > 1.0:
            raise BoundaryBlowup(f"|a| = {abs(a):.3g} > 1")
        vi = v[:n]
        base = vi - (ds / 2.0) * self._apply_neg_lap(vi)
        y = self.grid.y[:n]
        drift0 = y * deriv_values(v, h)[:n]
        # predictor: drift frozen at the start of the step
        vstar = np.zeros(n + 1)
        vstar[:n] = self._implicit_solve(base - ds * a * drift0)
        a1 = end_slope(vstar, h)
        drift1 = y * deriv_values(vstar, h)[:n]
        # corrector: trapezoidal drift
        vnew = np.zeros(n + 1)
        vnew[:n] = self._implicit_solve(
            base - (ds / 2.0) * (a * drift0 + a1 * drift1)
        )
        abar = 0.5 * (a + a1)
        lam_new = lam * float(np.exp(-abar * ds))
        if lam_new <= 0.0:
            raise NonPositiveRadius(f"lam = {lam_new}")
        return vnew, lam_new, end_slope(vnew, h)


@dataclass
class TimeSeries:
    """Sampled run records plus profile snapshots at the record cadence."""

    grid: RadialGrid
    s: np.ndarray
    t: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    mass: np.ndarray
    vnorm: np.ndarray
    snapshots: list[np.ndarray] = field(repr=False, default_factory=list)
    reached_floor: bool = False

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["s", "t", "lambda", "a", "mass", "l2b_norm"])
            for i in range(len(self.s)):
                wr.writerow([repr(float(x)) for x in
                             (self.s[i], self.t[i], self.lam[i],
                              self.a[i], self.mass[i], self.vnorm[i])])


def run(grid: RadialGrid, v0: np.ndarray, ds: float, s_max: float,
        record_ds: float = RECORD_DS, mass_tol: float = MASS_TOL,
        norm_floor: float = NORM_FLOOR) -> TimeSeries:
    """Integrate the renormalized flow of the profile v0 on ``grid`` from
    unit radius until s_max or the norm floor; an s_max whose step count
    overflows is no bound.

    A v0 without one sample per node raises :class:`GridMismatch`, one
    that does not vanish at y = 1 ``ValueError``, as does a ``ds`` for
    which ``record_ds / ds`` is not finite (NaN, or so small that it
    overflows).  The mass invariant is
    checked at every record; drifting past ``mass_tol`` (relative), or a
    non-finite state (v0 included, at s = 0), raises
    :class:`ConservationError`.
    """
    v = np.asarray(v0, dtype=float)
    if v.shape != (grid.n + 1,):
        raise GridMismatch(f"profile of shape {v.shape} on {grid} "
                           f"({grid.n + 1} nodes)")
    if v[-1] != 0.0:
        raise ValueError(f"profile must vanish at y = 1, got {v[-1]:g}")
    stepper = Stepper(grid, ds)
    per_record = record_ds / ds
    if not math.isfinite(per_record):
        raise ValueError(f"record_ds / ds is not finite: record_ds = "
                         f"{record_ds:g}, ds = {ds:g}")
    lam = 1.0
    s = t = 0.0
    a = end_slope(v, grid.h)
    every = max(1, int(round(per_record)))
    sw, y = grid.simpson, grid.y

    rec = {k: [] for k in ("s", "t", "lam", "a", "mass", "vnorm")}
    snaps: list[np.ndarray] = []
    m0 = mass(grid, v, lam)

    def record(s, t, lam, a, v):
        rec["s"].append(s)
        rec["t"].append(t)
        rec["lam"].append(lam)
        rec["a"].append(a)
        m = mass(grid, v, lam)
        rec["mass"].append(m)
        rec["vnorm"].append(float(np.sqrt(np.sum(sw * v ** 2 * y))))
        snaps.append(v.copy())
        drift = abs(m - m0) / abs(m0)
        # a NaN or inf anywhere in the state makes the drift non-finite
        if not drift <= mass_tol:
            raise ConservationError(
                f"mass drift {drift:.3e} > {mass_tol:.3e} at s = {s:.4f}"
            )

    record(s, t, lam, a, v)
    reached_floor = False
    nsteps = 0
    steps = s_max / ds
    max_steps = int(steps) + 2 if math.isfinite(steps) else math.inf
    while s < s_max - 0.5 * ds and nsteps < max_steps:
        lam_old = lam
        v, lam, a = stepper.advance(v, lam, a)
        s += ds
        t += ds * 0.5 * (lam_old ** 2 + lam ** 2)
        nsteps += 1
        if nsteps % every == 0:
            record(s, t, lam, a, v)
            if rec["vnorm"][-1] < norm_floor:
                reached_floor = True
                break
    if not reached_floor and rec["s"][-1] < s:
        record(s, t, lam, a, v)
    return TimeSeries(
        grid=grid, s=np.asarray(rec["s"]), t=np.asarray(rec["t"]),
        lam=np.asarray(rec["lam"]), a=np.asarray(rec["a"]),
        mass=np.asarray(rec["mass"]), vnorm=np.asarray(rec["vnorm"]),
        snapshots=snaps, reached_floor=reached_floor,
    )


def default_ds(grid: RadialGrid, k: int = 1) -> float:
    """Step-size default: 0.2 h scaled down with the mode's decay rate."""
    lam_k = bessel.j0_zeros(k)[k - 1].lam
    lam_1 = bessel.j0_zeros(1)[0].lam
    return 0.2 * grid.h * (lam_1 / lam_k)


def default_s_max(k: int) -> float:
    """Run horizon default: long enough for the rate fit of mode k."""
    return 6.0 if k == 1 else 0.85
