"""Finite-dimensional mode dynamics: closed forms, RK4, and trap shooting.

The tracked mode obeys the quadratic law

    b' = -lam_k b - sigma sqrt(2 lam_k) b^2,        sigma = (-1)^{k+1},

solved exactly through the reciprocal substitution w = 1/b; lower modes are
linearly damped and quadratically forced,

    b_j' = -lam_j b_j - (-1)^k sqrt(2 lam_k) b_k^2 g_jk,

with coupling coefficients g_jk = <y eta_k', eta_j>_0 from quadrature.  The
full system (with the remainder terms dropped) integrates by fixed-step RK4.

For k > 1 the lower modes are exponentially unstable against the rescaled
trap variables; trapped initial data for the full PDE evolution is found by
bisection (coordinate-wise sign boxes for k = 3) on the exit map of a run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bessel, modulation, solver
from .errors import NoTrappedData, PoleCrossing
from .weighted import GridFunction, RadialGrid

#: default ceiling on the summed squared trap variables
TRAP_CEILING = 1.0
#: bisection width at which the shooting stops refining
SHOOT_TOL = 1e-12


def default_shoot_horizon(k: int, tol: float = SHOOT_TOL,
                          ceiling: float = TRAP_CEILING) -> float:
    """Longest horizon whose trapped window still dwarfs the tolerance.

    The slowest-growing trap variable of a near-trapped trajectory expands
    like e^{(lam_k + gap_k - lam_1) s}, so data within the tolerance of the
    trapped point stays below the ceiling up to
    s = ln(ceiling / (4 tol)) / growth; beyond that no tolerable bisection
    output can certify a trap.
    """
    zeros = bessel.j0_zeros(k)
    growth = (zeros[k - 1].lam + modulation.gap_exponent(k, zeros)
              - zeros[0].lam)
    return math.log(ceiling / (4.0 * tol)) / growth


@dataclass(frozen=True)
class RiccatiParams:
    """Closed-form parameters of the tracked-mode law."""

    k: int
    lam_k: float
    sigma: float
    b0: float

    @classmethod
    def for_mode(cls, k: int, b0: float, zeros=None) -> "RiccatiParams":
        if abs(b0) > 0.05:
            raise ValueError("|b0| <= 0.05 in the reduced regime")
        if zeros is None:
            zeros = bessel.j0_zeros(k)
        return cls(k=k, lam_k=zeros[k - 1].lam,
                   sigma=(-1.0) ** (k + 1), b0=b0)


def riccati_exact(p: RiccatiParams, s):
    """Closed-form solution b(s) = 1 / ((1/b0 + sigma c/lam) e^{lam s} - sigma c/lam).

    Raises :class:`PoleCrossing` if the reciprocal crosses zero on [0, s]
    (possible only far outside the small-data regime).
    """
    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    if p.b0 == 0.0:
        out = np.zeros_like(s_arr)
        return float(out[0]) if scalar else out
    c = math.sqrt(2.0 * p.lam_k)
    shift = p.sigma * c / p.lam_k
    coef = 1.0 / p.b0 + shift
    denom = coef * np.exp(p.lam_k * s_arr) - shift
    d0 = 1.0 / p.b0
    if np.any(denom == 0.0) or np.any(np.sign(denom) != np.sign(d0)):
        raise PoleCrossing("reduced solution has a pole inside [0, s]")
    out = 1.0 / denom
    return float(out[0]) if scalar else out


def coupling_coefficients(k: int, grid: RadialGrid | None = None,
                          zeros=None) -> np.ndarray:
    """Quadrature couplings g_jk = <y eta_k', eta_j>_0 for j = 1..k-1."""
    if grid is None:
        grid = RadialGrid(1024)
    if zeros is None:
        zeros = bessel.j0_zeros(max(k, 1))
    return np.array([bessel.scaling_coefficient(k, j, grid, zeros)
                     for j in range(1, k)])


def integrate_system(k: int, b0, s_max: float, ds: float = 1e-3,
                     quadratic: bool = True,
                     grid: RadialGrid | None = None):
    """Fixed-step RK4 on the k-mode leading system.

    ``b0`` is the initial coefficient vector (b_1 .. b_k).  With
    ``quadratic=False`` the forcing terms are dropped and the modes decay as
    pure exponentials (a linearization check).  Returns (s_grid, B) with B
    of shape (n_steps + 1, k).
    """
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != (k,):
        raise ValueError(f"need {k} initial coefficients")
    zeros = bessel.j0_zeros(k)
    lam = np.array([z.lam for z in zeros])
    c_k = math.sqrt(2.0 * lam[k - 1])
    sigma = (-1.0) ** (k + 1)
    g = coupling_coefficients(k, grid, zeros) if k > 1 else np.zeros(0)

    def rhs(B):
        out = -lam * B
        if quadratic:
            bk2 = B[k - 1] ** 2
            out[k - 1] -= sigma * c_k * bk2
            if k > 1:
                out[: k - 1] -= (-1.0) ** k * c_k * bk2 * g
        return out

    n = int(round(s_max / ds))
    S = np.linspace(0.0, n * ds, n + 1)
    B = np.empty((n + 1, k))
    B[0] = b0
    y = b0.copy()
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * ds * k1)
        k3 = rhs(y + 0.5 * ds * k2)
        k4 = rhs(y + ds * k3)
        y = y + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        B[i + 1] = y
    return S, B


@dataclass
class ShootingResult:
    """Outcome of the trapped-data search."""

    k: int
    b_k0: float
    initials: tuple[float, ...]
    exit_s: float | None
    max_v2: float
    ceiling: float
    tol: float
    iterations: int

    @property
    def trapped(self) -> bool:
        return self.exit_s is None

    def to_json(self, path=None) -> str:
        payload = {
            "k": self.k,
            "b_k0": self.b_k0,
            "found_initials": list(self.initials),
            "exit_s": self.exit_s,
            "max_V2": self.max_v2,
            "ceiling": self.ceiling,
            "tol": self.tol,
            "iterations": self.iterations,
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


@dataclass
class TrapEvaluation:
    """One PDE evaluation of the exit map."""

    exit_s: float | None
    exit_V: np.ndarray
    max_v2: float
    track: modulation.TrackResult


class TrapEvaluator:
    """Exit map of the full PDE flow for lower-mode initial data.

    Builds v0 = sum_j b_j(0) psi_{b(0), j}, runs the renormalized flow,
    tracks the trap variables V_j, and reports the first record where
    sum_j V_j^2 crosses the ceiling.  The bases of the adiabatic schedule,
    b(0) included, are solved once and shared across evaluations in
    ``basis_cache`` (the schedule is data-independent).
    """

    def __init__(self, k: int, b_k0: float, grid: RadialGrid,
                 ds: float | None = None, s_max: float | None = None,
                 ceiling: float = TRAP_CEILING,
                 amplitude: float = modulation.ADIABATIC_AMPLITUDE,
                 record_ds: float = 2e-3, mass_tol: float = 1e-5,
                 norm_floor: float = 1e-14, tol: float = SHOOT_TOL):
        if k < 2 or k > 3:
            raise ValueError("trap shooting supports k in {2, 3}")
        self.k = k
        self.b_k0 = b_k0
        self.grid = grid
        self.ds = ds if ds is not None else solver.default_ds(grid, k)
        self.s_max = (s_max if s_max is not None
                      else default_shoot_horizon(k, tol, ceiling))
        self.ceiling = ceiling
        self.amplitude = amplitude
        self.record_ds = record_ds
        self.mass_tol = mass_tol
        # running past the standard norm floor narrows the trapped window,
        # which keeps the found point well inside it relative to the tolerance
        self.norm_floor = norm_floor
        self.basis_cache: dict = {}
        self.evaluations = 0

    def initial_profile(self, lower: np.ndarray) -> GridFunction:
        basis = modulation.scheduled_basis(self.basis_cache, self.grid,
                                           self.k, 0.0, self.amplitude)
        coeffs = np.concatenate([lower, [self.b_k0]])
        vals = basis.psis @ coeffs
        vals[-1] = 0.0
        return GridFunction(self.grid, vals)

    def evaluate(self, lower) -> TrapEvaluation:
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        v0 = self.initial_profile(lower)
        series = solver.run(v0, ds=self.ds, s_max=self.s_max,
                            record_ds=self.record_ds,
                            mass_tol=self.mass_tol,
                            norm_floor=self.norm_floor)
        track = modulation.track_run(series, self.k,
                                     amplitude=self.amplitude,
                                     basis_cache=self.basis_cache,
                                     with_residuals=False)
        self.evaluations += 1
        v2 = np.array([float(np.sum(st.V ** 2)) for st in track.states])
        over = np.nonzero(v2 >= self.ceiling ** 2)[0]
        if len(over):
            i = int(over[0])
            return TrapEvaluation(exit_s=float(track.states[i].s),
                                  exit_V=track.states[i].V.copy(),
                                  max_v2=float(v2[: i + 1].max()),
                                  track=track)
        return TrapEvaluation(exit_s=None, exit_V=track.states[-1].V.copy(),
                              max_v2=float(v2.max()), track=track)


def _exit_sign(ev: TrapEvaluation, j: int) -> float:
    return math.copysign(1.0, ev.exit_V[j])


def _bracket_coordinate(evaluator: TrapEvaluator, lower: np.ndarray, j: int,
                        scale: float, max_expand: int = 24):
    """Find [lo, hi] in coordinate j with opposite exit signs (or a trap)."""
    width = scale
    for _ in range(max_expand):
        lo_vec = lower.copy()
        lo_vec[j] -= width
        hi_vec = lower.copy()
        hi_vec[j] += width
        ev_lo = evaluator.evaluate(lo_vec)
        if ev_lo.exit_s is None:
            return ("trapped", lo_vec, ev_lo)
        ev_hi = evaluator.evaluate(hi_vec)
        if ev_hi.exit_s is None:
            return ("trapped", hi_vec, ev_hi)
        if _exit_sign(ev_lo, j) != _exit_sign(ev_hi, j):
            return ("bracket", (lo_vec[j], hi_vec[j], ev_lo, ev_hi), None)
        width *= 4.0
    raise NoTrappedData(
        f"no sign change in coordinate {j + 1} after {max_expand} expansions; "
        "check the driving amplitude or the resolution"
    )


def shoot_trapped(k: int, b_k0: float, ceiling: float = TRAP_CEILING,
                  s_max: float | None = None, grid: RadialGrid | None = None,
                  ds: float | None = None, tol: float = SHOOT_TOL,
                  amplitude: float = modulation.ADIABATIC_AMPLITUDE,
                  evaluator: TrapEvaluator | None = None) -> ShootingResult:
    """Bisection search for lower-mode data trapped to the horizon.

    k = 2 bisects the single lower coefficient; k = 3 alternates coordinate
    bisections driven by the sign of the dominant trap variable at exit
    (assumes the empirically observed monotone exit behavior).  The default
    horizon is :func:`default_shoot_horizon` for the tolerance in use.
    """
    if grid is None:
        grid = RadialGrid(512)
    if evaluator is None:
        evaluator = TrapEvaluator(k, b_k0, grid, ds=ds, s_max=s_max,
                                  ceiling=ceiling, amplitude=amplitude,
                                  tol=tol)
    zeros = bessel.j0_zeros(k)
    lam = np.array([z.lam for z in zeros])
    c_k = math.sqrt(2.0 * lam[k - 1])
    g = coupling_coefficients(k, grid, zeros)
    # forced-response scale of the lower coefficients, used to seed brackets
    scale = np.abs(c_k * b_k0 ** 2 * g / (2.0 * lam[k - 1] - lam[: k - 1]))
    scale = np.maximum(scale, 1e-8)

    lower = np.zeros(k - 1)
    iterations = 0
    best: TrapEvaluation | None = None

    for sweep in range(2 if k == 3 else 1):
        for j in range(k - 1):
            status, payload, ev = _bracket_coordinate(
                evaluator, lower, j, 8.0 * float(scale[j]))
            if status == "trapped":
                lower = payload
                best = ev
                break
            lo, hi, ev_lo, ev_hi = payload
            sign_lo = _exit_sign(ev_lo, j)
            while hi - lo > tol:
                iterations += 1
                mid = 0.5 * (lo + hi)
                vec = lower.copy()
                vec[j] = mid
                ev_mid = evaluator.evaluate(vec)
                if ev_mid.exit_s is None:
                    lower = vec
                    best = ev_mid
                    break
                if _exit_sign(ev_mid, j) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            else:
                lower[j] = 0.5 * (lo + hi)
                continue
            break
        if best is not None and best.exit_s is None:
            break

    if best is None or best.exit_s is not None:
        final = evaluator.evaluate(lower)
        if final.exit_s is not None:
            raise NoTrappedData(
                f"bracket narrowed to {tol:g} without trapping; "
                f"last exit at s = {final.exit_s:.4f}"
            )
        best = final
    return ShootingResult(k=k, b_k0=b_k0,
                          initials=tuple(float(x) for x in lower),
                          exit_s=best.exit_s, max_v2=best.max_v2,
                          ceiling=ceiling, tol=tol, iterations=iterations)
