"""Interface-radius asymptotics: terminal value, decay rate, regime parity.

A completed run is judged against the closed-form predictions: the terminal
radius follows from mass conservation,

    lam_inf = sqrt(m_0 / pi),

with m_0 = pi + 2 pi int_0^1 v0 y dy the run's recorded mass at its unit
initial radius (:func:`solver.mass`); the approach is exponential in
physical time with exponent lam_k / lam_inf^2, and the melting/freezing
direction is fixed by the parity of k together with the sign of the
driving coefficient.

The measured terminal radius is read off the run's tail, not its last
record.  Since lam_s = -a lam, log lam_inf = log lam(s) - int_s^inf a, and
once the boundary slope decays at its own rate, a(s') = a(s) e^{-lam_k
(s' - s)}, the integral is a(s) / lam_k: lam_inf = lam_end e^{-a_end /
lam_k}.  The run must show that the tail is settled: put the slope rate
-d log|a| / ds, fitted over the last quarter of its s, in place of lam_k,
and the radius must move by at most ``TAIL_SPREAD_TOL``.  That bounds the
slope rate's relative distance from lam_k by TAIL_SPREAD_TOL over the tail
correction lam_end |a_end| / lam_k: the further the run has decayed, the
less its tail needs to be the pure lam_k exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel, files
from .errors import ConfigError, RunNotConverged
from .solver import TimeSeries

#: leading fraction of usable records excluded from the fit window
FIT_SKIP_FRACTION = 0.3
#: records within this factor of the terminal noise floor are excluded
FIT_FLOOR_FACTOR = 10.0
#: the slope rate is fitted over this trailing fraction of the run's s
SLOPE_WINDOW_FRACTION = 0.25
#: most the tail radius may move between the slope rates lam_k and measured:
#: k = 1 runs at n >= 512 stopped at s = 1.5 measure <= 4.1e-12, at s = 2
#: <= 1.9e-13 (slope rate within 3.1e-6 of lam_1), trapped k = 2 runs
#: ~1e-18; stopped at s = 1 they measure 1.8e-10 to 3.2e-10, and in
#: s in [0.1, 0.6] from 1.7e-8 up (slope rate 9e-5 to 1.8e-3 off lam_1)
TAIL_SPREAD_TOL = 1e-10


def predicted_terminal_radius(mass0: float) -> float:
    """Terminal radius sqrt(mass0 / pi) of a run whose conserved mass
    (:func:`solver.mass`) is ``mass0``."""
    return math.sqrt(mass0 / math.pi)


def slope_rate(ts: TimeSeries) -> tuple[float, tuple[float, float]]:
    """Decay rate -d log|a| / ds of the boundary slope, the least-squares
    line through the records in the last ``SLOPE_WINDOW_FRACTION`` of the
    run's s, and that window (first, last record's s).  NaN where a
    vanishes or changes sign in the window, or it holds fewer than 3
    records."""
    s_from = ts.s[-1] - SLOPE_WINDOW_FRACTION * (ts.s[-1] - ts.s[0])
    win = ts.s >= s_from
    s, a = ts.s[win], ts.a[win]
    window = (float(s[0]), float(s[-1]))
    if len(s) < 3 or not (np.all(a > 0) or np.all(a < 0)):
        return math.nan, window
    return float(-np.polyfit(s, np.log(np.abs(a)), 1)[0]), window


def tail_radius(ts: TimeSeries, rate: float) -> float:
    """Terminal radius lam_end e^{-a_end / rate} of a run whose boundary
    slope decays at ``rate`` from its last record on."""
    return float(ts.lam[-1] * math.exp(-ts.a[-1] / rate))


@dataclass
class Tail:
    """The tail of a k-mode run: its :func:`slope_rate` over ``window``,
    the terminal radius at lam_k (:func:`tail_radius`) and the ``spread``
    of that radius to the one at the measured rate."""

    rate: float
    window: tuple[float, float]
    radius: float
    spread: float


def settled_tail(ts: TimeSeries, k: int) -> Tail:
    """The :class:`Tail` of a k-mode run, which must be settled: a slope
    decaying (a positive slope rate) and a spread of at most
    ``TAIL_SPREAD_TOL``, else :class:`RunNotConverged` is raised.  Where a
    is 0 at every record the radius never moves: the last record's radius,
    with spread 0."""
    lam_k = bessel.j0_zeros(k)[k - 1].lam
    rate, window = slope_rate(ts)
    radius = tail_radius(ts, lam_k)
    if not np.any(ts.a):
        return Tail(rate, window, radius, 0.0)
    try:
        spread = abs(radius - tail_radius(ts, rate)) if rate > 0 else math.inf
    except OverflowError:
        # a freezing run's slope rate near 0 (|a| near its peak)
        spread = math.inf
    if not spread <= TAIL_SPREAD_TOL:
        raise RunNotConverged(
            f"boundary slope decays at rate {rate:.6g} over s in "
            f"[{window[0]:.3g}, {window[1]:.3g}], against lam_{k} = "
            f"{lam_k:.6g}: the tail radius moves by {spread:.2e} between "
            f"them (> {TAIL_SPREAD_TOL:g}), so the run stops before its "
            f"exponential regime; extend s_max")
    return Tail(rate, window, radius, spread)


@dataclass
class FitResult:
    """Log-linear fit of |lam(t) - lam_inf|."""

    rate_fitted: float
    rate_predicted: float
    window: tuple[float, float]
    r_squared: float
    n_points: int

    @property
    def rate_rel_error(self) -> float:
        return abs(self.rate_fitted - self.rate_predicted) / self.rate_predicted


def fit_rate(ts: TimeSeries, lambda_inf: float, k: int) -> FitResult:
    """Fit the decay exponent of |lam(t) - lam_inf| over an auto window.

    The series must span at least three decades (else
    :class:`RunNotConverged`).  The window drops the first 30% of the
    usable records (early-time transient bias) and everything within a
    decade of the terminal noise floor.
    """
    d = np.abs(ts.lam - lambda_inf)
    pos = d[d > 0]
    if len(pos) < 10 or pos.max() / pos.min() < 1e3:
        raise RunNotConverged(
            "need >= 3 decades of |lam - lam_inf|; extend s_max or shrink ds"
        )
    floor = max(float(d[-1]), 1e-300)
    usable = np.nonzero(d > FIT_FLOOR_FACTOR * floor)[0]
    if len(usable) < 10:
        raise RunNotConverged("decay range above the noise floor is too short")
    start = usable[int(FIT_SKIP_FRACTION * len(usable))]
    window = usable[usable >= start]
    t_win = ts.t[window]
    logd = np.log(d[window])
    slope, intercept = np.polyfit(t_win, logd, 1)
    resid = logd - (slope * t_win + intercept)
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    lam_k = bessel.j0_zeros(k)[k - 1].lam
    return FitResult(
        rate_fitted=float(-slope),
        rate_predicted=lam_k / lambda_inf ** 2,
        window=(float(t_win[0]), float(t_win[-1])),
        r_squared=r2,
        n_points=len(window),
    )


def classify_regime(k: int, b_k0: float) -> str:
    """Melting iff (k odd, b_k0 > 0) or (k even, b_k0 < 0); else freezing
    (b_k0 = 0 raises :class:`ConfigError`)."""
    if b_k0 == 0.0:
        raise ConfigError("driving coefficient must be nonzero")
    melting = (k % 2 == 1) == (b_k0 > 0.0)
    return "melting" if melting else "freezing"


def time_reconstruction_check(ts: TimeSeries) -> float:
    """Max defect between recorded t and the trapezoid of lam^2 over s."""
    lam2 = ts.lam ** 2
    t_rec = np.concatenate([
        [0.0],
        np.cumsum(0.5 * (lam2[1:] + lam2[:-1]) * np.diff(ts.s)),
    ])
    t_rec += ts.t[0]
    return float(np.max(np.abs(ts.t - t_rec)))


def verdict(ts: TimeSeries, k: int, b_k0: float) -> dict:
    """Scenario verdict: terminal radius, fitted rate, regime coherence,
    at fixed bounds: the radius within ``radius_tol`` = 1e-4 of the
    prediction, the rate within ``rate_tol`` = 2% (k = 1) or 3% (k > 1)."""
    rate_tol = 0.02 if k == 1 else 0.03
    radius_tol = 1e-4
    tail = settled_tail(ts, k)
    measured = tail.radius
    predicted = predicted_terminal_radius(ts.mass[0])
    fit = fit_rate(ts, predicted, k)
    regime = classify_regime(k, b_k0)
    direction_ok = ((regime == "melting") == (predicted > 1.0)
                    and (regime == "melting") == (measured > 1.0))
    return {
        "k": k,
        "b_k0": b_k0,
        "regime": regime,
        "lambda_inf_measured": measured,
        "lambda_inf_predicted": predicted,
        "radius_defect": abs(measured - predicted),
        "radius_tol": radius_tol,
        "rate_fitted": fit.rate_fitted,
        "rate_predicted": fit.rate_predicted,
        "rate_rel_error": fit.rate_rel_error,
        "rate_tol": rate_tol,
        "r_squared": fit.r_squared,
        "fit_window": list(fit.window),
        "fit_points": fit.n_points,
        "slope_rate": tail.rate,
        "slope_window": list(tail.window),
        "tail_spread": tail.spread,
        "direction_consistent": bool(direction_ok),
        "time_reconstruction_defect": time_reconstruction_check(ts),
        "passed": bool(
            abs(measured - predicted) <= radius_tol
            and fit.rate_rel_error <= rate_tol
            and fit.r_squared >= 0.999
            and direction_ok
        ),
    }


def write_verdict_json(path, verdict_dict: dict):
    files.write_json(path, verdict_dict)


def decay_plot(path, ts: TimeSeries, verdict_dict: dict):
    """Log-linear plot of |lam(t) - lam_inf| with the line fitted by
    :func:`verdict`."""
    d = np.abs(ts.lam - verdict_dict["lambda_inf_predicted"])
    mask = d > 0
    t = ts.t[mask]
    logd = np.log10(d[mask])
    t0, t1 = verdict_dict["fit_window"]
    rate = verdict_dict["rate_fitted"]
    in_win = (t >= t0) & (t <= t1)
    fit_line = np.where(
        in_win,
        (np.log10(math.e) * (-rate) * (t - t0)) + logd[in_win][0]
        if np.any(in_win) else np.nan,
        np.nan,
    )
    files.line_plot(
        path, t,
        [("measured", logd, "#1f77b4"), ("fitted", fit_line, "#d62728")],
        xlabel="t", ylabel="log10 |lambda - lambda_inf|",
        title=f"rate fit: {rate:.4f} vs {verdict_dict['rate_predicted']:.4f}",
    )
