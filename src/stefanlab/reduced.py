"""Finite-dimensional mode dynamics: closed forms and trap shooting.

The tracked mode obeys the quadratic law

    b' = -lam_k b + c_k b^2,        c_k = (-1)^k sqrt(2 lam_k),

the boundary slope of eta_k (``bessel.BesselZero.boundary_slope``), solved
exactly through the reciprocal substitution w = 1/b; lower modes are
linearly damped and quadratically forced,

    b_j' = -lam_j b_j - c_k b_k^2 g_jk,

with coupling coefficients g_jk = c_j c_k / (lam_k - lam_j) in closed form.

For k > 1 the lower modes are exponentially unstable against the rescaled
trap variables V.  Trapped initial data for the full PDE evolution is the
root of the lower-mode data's map to V at a fixed horizon, searched in the
mode law's own coordinates u_j = e^{lam_j s_F} b_j(s_F) of the lower modes
(:func:`mode_law_model`), where the map is affine to the forcing's order:
Newton steps from the linear law's Jacobian with Broyden updates (the
secant method for k = 2), certified by a run whose V never reaches the
ceiling.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bessel, files, modulation, solver
from .bessel import coupling_coefficients
from .errors import ConfigError, NoTrappedData
from .weighted import B_SMALL, RadialGrid

#: default ceiling on the summed squared trap variables
TRAP_CEILING = 1.0
#: step length below which the trap search gives up without a trap
SHOOT_TOL = 1e-12
#: norm floor of trap-search runs: running past the standard floor narrows
#: the trapped window, which keeps the found point well inside it relative
#: to the tolerance
SHOOT_NORM_FLOOR = 1e-14
#: Newton (secant/Broyden) steps after which the trap search gives up
MAX_UPDATES = 20


def default_shoot_horizon(k: int, tol: float = SHOOT_TOL,
                          ceiling: float = TRAP_CEILING) -> float:
    """Longest horizon whose trapped window still dwarfs the tolerance.

    The slowest-growing trap variable of a near-trapped trajectory expands
    like e^{(lam_k + gap_k - lam_1) s}, so data within the tolerance of the
    trapped point stays below the ceiling up to
    s = ln(ceiling / (4 tol)) / growth.  The trap search reads V there;
    beyond it a datum found to within the tolerance cannot certify a trap.
    """
    growth = modulation.trap_rate(k) - bessel.j0_zeros(k)[0].lam
    return math.log(ceiling / (4.0 * tol)) / growth


def riccati_exact(k: int, b0: float, s):
    """Mode k's law in closed form from b(0) = b0:
    b(s) = b0 e^{-lam_k s} / (1 + b0 shift (1 - e^{-lam_k s})),
    shift = -c_k / lam_k with c_k the boundary slope.

    Raises :class:`ConfigError` for |b0| > ``B_SMALL``.  Inside that bound
    |shift| = sqrt(2 / lam_k) <= 0.59, so the denominator lies in
    1 +- |b0 shift|, inside [0.97, 1.03], for every s >= 0: the law has no
    pole there, and a large lam_k s underflows e^{-lam_k s} to 0 with no
    floating-point warning.
    """
    if abs(b0) > B_SMALL:
        raise ConfigError(f"|b0| <= {B_SMALL} in the reduced regime")
    zero = bessel.j0_zeros(k)[k - 1]
    shift = -zero.boundary_slope / zero.lam
    decay = np.exp(-zero.lam * np.asarray(s, dtype=float))
    return b0 * decay / (1.0 + b0 * shift * (1.0 - decay))


def mode_law_model(k: int, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear-law Jacobian diagonal and Riccati curvatures of the lower
    modes j = 1..k-1 of a k-mode run at the horizon s_F.

    Mode j alone obeys the quadratic law of :func:`riccati_exact`, under
    which u_j = e^{lam_j s_F} b_j(s_F) equals x_j / (1 + q_j x_j) for the
    datum x_j = b_j(0), with q_j = -(c_j / lam_j) (1 - e^{-lam_j s_F}) and
    c_j the boundary slope of eta_j; the inverse is x_j = u_j / (1 - q_j u_j).
    Since V_j = b_j e^{(lam_k + gap_k) s} (:func:`modulation.trap_rate`),
    dV_j(s_F) / du_j = e^{(lam_k + gap_k - lam_j) s_F}, the returned
    ``slopes`` (ceiling / (4 tol) for j = 1 at the default horizon).
    Returns ``(slopes, q)``.
    """
    lower = bessel.j0_zeros(k)[: k - 1]
    lam = np.array([z.lam for z in lower])
    c = np.array([z.boundary_slope for z in lower])
    slopes = np.exp((modulation.trap_rate(k) - lam) * horizon)
    return slopes, -(c / lam) * (1.0 - np.exp(-lam * horizon))


@dataclass
class ShootingResult:
    """Trapped datum found by the search of ``evaluator``, which holds the
    terms of the trap (k, b_k0, ceiling, tol, horizon and s_max), with the
    search's final Jacobian dV_i(s_F) / dx_j at the datum and the
    evaluation that certified it, whose ``max_v2`` the record reports."""

    evaluator: TrapEvaluator
    initials: tuple[float, ...]
    iterations: int
    evaluations: int
    jacobian: np.ndarray      # (k - 1, k - 1)
    certificate: TrapEvaluation

    def to_json(self, path):
        ev = self.evaluator
        payload = {
            "k": ev.k,
            "b_k0": ev.b_k0,
            "found_initials": list(self.initials),
            "exit_s": None,     # only trapped data is returned
            "max_V2": self.certificate.max_v2,
            "ceiling": ev.ceiling,
            "tol": ev.tol,
            "horizon": ev.horizon,
            "s_max": ev.s_max,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "jacobian": self.jacobian.tolist(),
        }
        files.write_json(path, payload)


def read_initials(path, k: int, b_k0: float) -> tuple[float, ...]:
    """The trapped lower-mode initials of the shoot file at ``path``
    (:meth:`ShootingResult.to_json`), which must have been shot for
    (``k``, ``b_k0``); else :class:`ConfigError`."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        vals = payload["found_initials"]
        if not isinstance(vals, list) or any(
                isinstance(x, bool) for x in vals):
            raise TypeError("found_initials must be a list of numbers")
        lower = tuple(float(x) for x in vals)
        shot = (payload["k"], float(payload["b_k0"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad shoot file {path}: {exc}") from exc
    # trapped initials belong to the (k, b_k0) they were shot for
    if shot != (k, b_k0):
        raise ConfigError(
            f"shoot file {path} is for k = {shot[0]!r}, "
            f"b_k0 = {shot[1]!r}, not k = {k}, b0 = {b_k0!r}")
    return lower


@dataclass
class TrapEvaluation:
    """One PDE evaluation of the exit map."""

    exit_s: float | None
    horizon_V: np.ndarray     # trap variables at the evaluator's horizon
    max_v2: float
    track: modulation.TrackResult


class TrapEvaluator:
    """Exit map of the full PDE flow for lower-mode initial data, and the
    one source of a trap search's settings.

    Makes the tracked run of the datum (b_1(0), .., b_k(0)) to ``s_max``
    (or ``SHOOT_NORM_FLOOR``) at the step ``ds``
    (:func:`modulation.scenario`) and reports the first record where
    sum_j V_j^2 of its trap variables crosses the ceiling, plus V at the
    ``horizon`` min(s_max, default_shoot_horizon): the first record with
    s >= horizon - ds/2 (NaN if the run stopped short of it).  ``tol`` is
    the search's step tolerance; ``ceiling > 4 tol`` keeps the horizon
    positive.  The profiles and the tracks of every evaluation take their
    bases at b = b_k, the tracked coefficient itself, from the one
    interpolated family of the grid and k (:func:`spectrum.basis_family`),
    whose 13 node solves are the process's only eigensolves for it; the
    lower-mode data are thus coordinates in the basis at b = b_k(0).
    """

    def __init__(self, k: int, b_k0: float, grid: RadialGrid,
                 ds: float | None = None, s_max: float | None = None,
                 ceiling: float = TRAP_CEILING, tol: float = SHOOT_TOL):
        if k < 2 or k > 3:
            raise ConfigError("trap shooting supports k in {2, 3}")
        if ceiling <= 4.0 * tol:
            raise ConfigError(f"ceiling > 4 tol keeps the horizon positive; "
                              f"got ceiling = {ceiling!r}, tol = {tol!r}")
        self.k = k
        self.b_k0 = b_k0
        self.grid = grid
        self.ds = ds if ds is not None else solver.default_ds(grid, k)
        horizon = default_shoot_horizon(k, tol, ceiling)
        self.s_max = s_max if s_max is not None else horizon
        self.horizon = min(self.s_max, horizon)
        self.ceiling = ceiling
        self.tol = tol
        self.evaluations = 0

    def evaluate(self, lower) -> TrapEvaluation:
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        run = modulation.scenario(self.grid, self.k, [*lower, self.b_k0],
                                  ds=self.ds, s_max=self.s_max,
                                  norm_floor=SHOOT_NORM_FLOOR)
        self.evaluations += 1
        s, track = run.series.s, run.track
        at = np.nonzero(s >= self.horizon - 0.5 * self.ds)[0]
        horizon_V = (track.states[at[0]].V.copy() if len(at)
                     else np.full(self.k - 1, np.nan))
        v2 = np.array([float(np.sum(st.V ** 2)) for st in track.states])
        over = np.nonzero(v2 >= self.ceiling ** 2)[0]
        end = int(over[0]) + 1 if len(over) else len(v2)
        return TrapEvaluation(
            exit_s=float(s[end - 1]) if len(over) else None,
            horizon_V=horizon_V, max_v2=float(v2[:end].max()), track=track)


def shoot_trapped(evaluator: TrapEvaluator) -> ShootingResult:
    """Newton search for lower-mode data trapped to the horizon, with every
    setting read from ``evaluator``.

    The trapped datum is the root of F(x) = V(s_F), the trap variables at
    the evaluator's horizon s_F of the run from lower-mode data x.  F bends
    as the lower modes' own quadratic law does, so the search runs in that
    law's coordinates u (see :func:`mode_law_model`), where F is affine up
    to the forcing: from u = 0, Newton steps u <- u - J^{-1} F from the
    linear law's diagonal J, with Broyden's update of J after each step
    (the secant method for k = 2); each u is evaluated at
    x = u / (1 - q u), and a step that would take some q_j u_j past 1/2
    (half-way to that map's pole, beyond which x changes sign) is
    shortened to end there.  The search stops at the first evaluation that
    stays below the ceiling up to s_max or the norm floor, the trap
    certificate.
    When x = 0 traps although b_k(0) != 0 forces it off the trapped point,
    a probe x_1 at eight times the forced-response scale is evaluated too;
    if it also traps, s_max is too short to tell trapped from untrapped
    data and the search raises :class:`NoTrappedData`.  It also raises
    after a step shorter than the evaluator's ``tol`` that does not trap,
    after ``MAX_UPDATES`` steps, on a singular J or a non-finite F.  Each
    evaluation is reported on stderr.  The result's ``jacobian`` is the J
    of the last step, mapped to dV / dx at the datum.
    """
    k, b_k0, tol = evaluator.k, evaluator.b_k0, evaluator.tol
    slopes, q = mode_law_model(k, evaluator.horizon)
    first = evaluator.evaluations

    def evaluate(x):
        ev = evaluator.evaluate(x)
        norm = float(np.linalg.norm(ev.horizon_V))
        where = ("trapped" if ev.exit_s is None
                 else f"exit s = {ev.exit_s:.4f}")
        print(f"shoot: evaluation {evaluator.evaluations - first}: "
              f"x = [{', '.join(f'{v:+.15e}' for v in x)}], {where}, "
              f"|V(s_F)| = {norm:.3e}", file=sys.stderr)
        if ev.exit_s is None or np.isfinite(norm):
            return ev
        raise NoTrappedData(f"non-finite trap variables at s_F = "
                            f"{evaluator.horizon:.4f} for x = {list(x)}")

    def trapped(x, ev, updates):
        return ShootingResult(evaluator, tuple(float(v) for v in x), updates,
                              evaluator.evaluations - first,
                              J / (1.0 + q * x) ** 2, ev)

    u = np.zeros(k - 1)
    J = np.diag(slopes)
    ev = evaluate(u)
    if ev.exit_s is None:
        if b_k0 != 0.0:
            # forced-response scale of the lower coefficients
            z = bessel.j0_zeros(k)
            g = coupling_coefficients(k)
            width = 8.0 * max(abs(z[k - 1].boundary_slope * b_k0 ** 2 * g[0]
                                  / (2.0 * z[k - 1].lam - z[0].lam)), 1e-8)
            if evaluate(np.eye(k - 1)[0] * width).exit_s is None:
                raise NoTrappedData(
                    f"x = 0 and the probe x_1 = {width:.3g} both trap up to "
                    f"s_max = {evaluator.s_max:.4g} (horizon "
                    f"{evaluator.horizon:.4g}): too short to certify a trap")
        return trapped(u, ev, 0)
    F = ev.horizon_V
    for updates in range(1, MAX_UPDATES + 1):
        # a rank-deficient J (after an update along a direction V ignores)
        # is singular to working precision, seldom exactly
        if not (np.all(np.isfinite(J))
                and np.linalg.cond(J) < 1.0 / np.finfo(float).eps):
            raise NoTrappedData(f"singular Jacobian of V(s_F): {J.tolist()}")
        step = -np.linalg.solve(J, F)
        # keep every q_j u_j <= 1/2, half-way to the pole of x(u)
        rise, room = q * step, 0.5 - q * u
        if np.any(rise > room):
            step *= np.min(room[rise > room] / rise[rise > room])
        u = u + step
        x = u / (1.0 - q * u)
        ev = evaluate(x)
        if ev.exit_s is None:
            return trapped(x, ev, updates)
        if np.max(np.abs(step)) < tol:
            raise NoTrappedData(
                f"step {np.max(np.abs(step)):.3g} below tol = {tol:g} "
                f"without trapping; last exit at s = {ev.exit_s:.4f}")
        F_new = ev.horizon_V
        J += np.outer(F_new - F - J @ step, step) / (step @ step)
        F = F_new
    raise NoTrappedData(f"no trapped data after {MAX_UPDATES} steps; "
                        f"last exit at s = {ev.exit_s:.4f}")
