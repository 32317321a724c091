"""Renormalized interface flow on the fixed unit interval.

The moving-boundary heat problem, rescaled to y = r / lam(t) with the clock
ds/dt = 1 / lam^2, becomes

    v_s = Delta v - a Lambda v,   v(s, 1) = 0,
    a(s) = v_y(s, 1) = -lam_s / lam,

so the interface radius follows lam_s = -a lam and the physical time is
recovered from dt/ds = lam^2.

Time stepping is the IMEX ARS(2,2,2) scheme of Ascher, Ruuth & Spiteri
(Appl. Numer. Math. 25, 1997): diffusion by its L-stable, stiffly accurate
two-stage SDIRK half with gamma = 1 - 1/sqrt(2), the drift term a Lambda v
explicit with weights (delta, 1 - delta, 0), delta = 1 - 1/(2 gamma), and
the boundary slope a taken from a 4-point one-sided stencil.  Writing
d(v) for y v' and L = -Delta on the interior nodes (H_b at b = 0), a step
from v with slope a is

    r2 = v - gamma ds a d(v),             U2 = (I + gamma ds L)^-1 r2,
    r3 = v - (1 - gamma)/gamma (r2 - U2)
           - ds (delta a d(v) + (1 - delta) a2 d(U2)),
    v_new = (I + gamma ds L)^-1 r3,

with a2 = end_slope(U2); r2 - U2 is gamma ds L U2, so no product with L
is formed.  Stiff modes are damped like 1/(ds lam_max) rather than kept at
|R| ~ 1 as Crank-Nicolson keeps them, so the step is set by accuracy.  The
radius update is the exponential integrator
lam <- lam exp(-ds ((1 - gamma) a2 + gamma a_new)) on the diffusion's
weights (0, 1 - gamma, gamma): the mass balance pairs the diffusion's
boundary flux with the disc-area term, and on the drift's weights
(delta, 1 - delta, 0) the mass drift's time error is ~50x larger.  The
exponential keeps lam > 0 structurally.

I + gamma ds L = D^-1 A for the node masses D, where A = D + gamma ds K and
K = D L is the symmetric flux-form stiffness: A is symmetric positive
definite and tridiagonal, factored LDL^T once per run (``dpttrf``) and
solved once per stage, twice per step (``dpttrs``), scipy's LAPACK
wrappers as :mod:`stefanlab.lapack` binds them.  The drift y v' on the
interior nodes is one banded operator read off ``weighted.deriv_values``:
the centred 5-point row scaled by y on rows 2..n-2, the one-sided rows 1
and n-1, and 0 on row 0 (y = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel, files, spectrum
from .errors import (BoundaryBlowup, ConfigError, ConservationError,
                     NonConvergence, NonPositiveRadius)
from .lapack import dpttrf, dpttrs
from .weighted import RadialGrid, WeightParam, deriv_values, end_slope

#: stop a run once the solution norm falls below this floor
NORM_FLOOR = 1e-12
#: record cadence in s
RECORD_DS = 2e-3
#: bound on the relative mass drift
MASS_TOL = 1e-6
#: most steps between two records: the state is checked only at records
MAX_STEPS_PER_RECORD = 1e6


def check_step(ds: float) -> None:
    """Raise :class:`ConfigError` unless ds is finite and ds >= RECORD_DS /
    MAX_STEPS_PER_RECORD (so for a NaN and a ds <= 0 too)."""
    if ds == math.inf:
        raise ConfigError(f"ds must be finite, got {ds!r}")
    if not (ds > 0 and RECORD_DS / ds <= MAX_STEPS_PER_RECORD):
        raise ConfigError(
            f"ds must be at least {RECORD_DS / MAX_STEPS_PER_RECORD:g} "
            f"(the fixed record cadence RECORD_DS = {RECORD_DS:g} over at "
            f"most {MAX_STEPS_PER_RECORD:g} steps); got ds = {ds!r}")


def mass(grid: RadialGrid, v: np.ndarray, lam: float) -> float:
    """Conserved quantity of the nodal profile v at radius lam: heat content
    plus disk area, 2 pi lam^2 int v y dy + pi lam^2."""
    integral = float(np.sum(grid.simpson * v * grid.y))
    return 2.0 * np.pi * lam ** 2 * integral + np.pi * lam ** 2


#: the ARS(2,2,2) diagonal weight and the drift's first-stage weight
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)


class Stepper:
    """IMEX ARS(2,2,2) stepper with a fixed step on a fixed grid."""

    def __init__(self, grid: RadialGrid, ds: float):
        check_step(ds)
        self.grid = grid
        self.ds = ds
        n, h = grid.n, grid.h
        # at b = 0 the weight is exactly 1.0, so fluxes and masses are unscaled
        op = spectrum.assemble_hb(grid, WeightParam(0.0))
        gds = GAMMA * ds
        *self._ldl, info = dpttrf(op.node_mass * (1.0 + gds * op.diag),
                                  (-gds / h) * op.half_flux[: n - 1])
        if info != 0:
            raise NonConvergence("tridiagonal factorization failed")
        self._mass = op.node_mass
        # at h = 1/12 (12 h = 1 exactly) the rows hold the stencils' integer
        # weights, so the interior sums are those of deriv_values
        rows = deriv_values(np.eye(10), 1.0 / 12.0)
        self._centred = rows[4, 2:7]
        scale = grid.y / (12.0 * h)
        self._y_mid = scale[2: n - 1]
        self._end_nodes = np.r_[1:6, n - 5:n]
        self._end_rows = np.zeros((2, 10))
        self._end_rows[0, :5] = scale[1] * rows[1, 1:6]
        self._end_rows[1, 5:] = scale[n - 1] * rows[8, 4:9]
        self._d0, self._d1, self._r = np.zeros((3, n))
        self._u2 = np.zeros(n + 1)

    def _drift(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """y v' on the interior nodes into ``out``; out[0] is left as is."""
        n = self.grid.n
        np.multiply(self._y_mid, np.correlate(v, self._centred),
                    out=out[2: n - 1])
        np.matmul(self._end_rows, v[self._end_nodes], out=out[1:: n - 2])
        return out

    def _stage(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(I + gamma ds L)^-1 r = A^-1 D r into the contiguous ``out``:
        LAPACK solves a contiguous float64 right-hand side in place, so the
        returned array is ``out``."""
        sol, _ = dpttrs(*self._ldl, np.multiply(self._mass, r, out=out),
                        overwrite_b=1)
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
        d0 = self._drift(v, self._d0)
        # first implicit stage: r2 = v - gamma ds a d(v)
        r = np.multiply(d0, -GAMMA * ds * a, out=self._r)
        r += vi
        u2 = self._u2
        self._stage(r, u2[:n])
        a2 = end_slope(u2, h)
        # second stage: r3 = v - (1 - gamma)/gamma (r2 - U2)
        #                      - ds (delta a d(v) + (1 - delta) a2 d(U2))
        r -= u2[:n]
        r *= (GAMMA - 1.0) / GAMMA
        r += vi
        r += np.multiply(d0, -DELTA * ds * a, out=d0)
        d1 = self._drift(u2, self._d1)
        r += np.multiply(d1, (DELTA - 1.0) * ds * a2, out=d1)
        vnew = np.zeros(n + 1)
        self._stage(r, vnew[:n])
        a_new = end_slope(vnew, h)
        lam_new = lam * math.exp(-ds * ((1.0 - GAMMA) * a2 + GAMMA * a_new))
        if lam_new <= 0.0:
            raise NonPositiveRadius(f"lam = {lam_new}")
        return vnew, lam_new, a_new


@dataclass
class TimeSeries:
    """Sampled run records at the record cadence; no profile is kept."""

    s: np.ndarray
    t: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    mass: np.ndarray
    vnorm: np.ndarray

    def to_csv(self, path):
        files.write_csv(path, ["s", "t", "lambda", "a", "mass", "l2b_norm"],
                        zip(self.s, self.t, self.lam, self.a, self.mass,
                            self.vnorm))


def run(grid: RadialGrid, v0: np.ndarray, ds: float, s_max: float,
        norm_floor: float = NORM_FLOOR, observe=None) -> TimeSeries:
    """Integrate the renormalized flow of the profile v0 on ``grid`` from
    unit radius until s_max or the norm floor; an s_max whose step count
    overflows is no bound.

    A v0 without one sample per node or not vanishing at y = 1 raises
    :class:`ConfigError`, as does a ``ds`` that :func:`check_step` rejects
    (before the first step).  The mass invariant is checked at every
    record; drifting past ``MASS_TOL`` (relative), or a non-finite state
    (v0 included, at s = 0), raises :class:`ConservationError`.
    ``observe(s, v)`` is called with the profile of each record once that
    record has passed the guard; v is the run's state, not a copy, and
    must not be written to.  Records fall every round(RECORD_DS / ds)
    steps, so the cadence is RECORD_DS only to a multiple of ds: at the
    default step 2 x 1/1024 = 1.953e-3 for k = 1, n = 1024 and
    5 x 3.707e-4 = 1.853e-3 for k = 2, n = 512.  The module's RECORD_DS
    and MASS_TOL are read at call time.
    """
    v = np.asarray(v0, dtype=float)
    if v.shape != (grid.n + 1,):
        raise ConfigError(f"profile of shape {v.shape} on {grid} "
                          f"({grid.n + 1} nodes)")
    if v[-1] != 0.0:
        raise ConfigError(f"profile must vanish at y = 1, got {v[-1]:g}")
    stepper = Stepper(grid, ds)
    lam = 1.0
    s = t = 0.0
    a = end_slope(v, grid.h)
    every = max(1, int(round(RECORD_DS / ds)))
    sw, y = grid.simpson, grid.y

    rows: list[tuple] = []    # (s, t, lam, a, mass, vnorm) per record
    m0 = mass(grid, v, lam)

    def record(s, t, lam, a, v):
        m = mass(grid, v, lam)
        vnorm = float(np.sqrt(np.sum(sw * v ** 2 * y)))
        rows.append((s, t, lam, a, m, vnorm))
        drift = abs(m - m0) / abs(m0)
        # a NaN or inf anywhere in the state makes the drift non-finite
        if not drift <= MASS_TOL:
            raise ConservationError(
                f"mass drift {drift:.3e} > {MASS_TOL:.3e} at s = {s:.4f}"
            )
        if observe is not None:
            observe(s, v)
        return vnorm

    record(s, t, lam, a, v)
    nsteps = 0
    steps = s_max / ds
    max_steps = int(steps) + 2 if math.isfinite(steps) else math.inf
    while s < s_max - 0.5 * ds and nsteps < max_steps:
        lam_old = lam
        v, lam, a = stepper.advance(v, lam, a)
        s += ds
        t += ds * 0.5 * (lam_old ** 2 + lam ** 2)
        nsteps += 1
        if nsteps % every == 0 and record(s, t, lam, a, v) < norm_floor:
            break
    if rows[-1][0] < s:
        record(s, t, lam, a, v)
    # the columns of the records are the series' fields, in order
    return TimeSeries(*np.array(rows).T.copy())


def default_ds(grid: RadialGrid, k: int = 1) -> float:
    """Step-size default: h scaled down with the mode's decay rate."""
    lam_k = bessel.j0_zeros(k)[k - 1].lam
    lam_1 = bessel.j0_zeros(1)[0].lam
    return grid.h * (lam_1 / lam_k)


def default_s_max(k: int) -> float:
    """Run horizon default: long enough for the rate fit of mode k and for
    the settled tail that :func:`asymptotics.settled_tail` reads the
    terminal radius from; at k = 1 the tail spread is <= 1.9e-13 at s = 2
    (n >= 512), so the run stops there, half way to the norm floor
    (s ~ 4)."""
    return 2.0 if k == 1 else 0.85
