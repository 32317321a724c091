"""Acceptance verification suite.

Eleven numbered criteria pin the laboratory's numerical claims: spectral
tables against an independent high-precision oracle, drift-parameter
expansions, conservation and terminal-radius budgets, decay-rate laws for
the ground and first excited regimes, modulation fidelity against the
closed-form mode law, energy boundedness, and closed-form/RK4 equivalence
of the reduced dynamics.

Each criterion is a check returning (passed, details), declared once with
``_criterion``, which times it, counts its time budget into ``passed``
(criteria 1, 2 and 8), returns a :class:`CriterionResult` and registers it
in ``ALL_CRITERIA``.  Criteria 2 and 3 read the drift law from
:func:`spectrum.perturbation_sweep`, the measurement ``--mode spectrum``
reports; criteria 6-8 read :func:`asymptotics.verdict` of their runs, the
verdict ``--mode run`` writes, against their own bounds.  ``run_all``
executes the suite (optionally a quick spectral-only subset) and is what
the ``verify-all`` CLI mode drives; the acceptance tests call the criteria
one by one.

Criterion 3 (boundary-slope drift constant <= 0.5) is retained verbatim but
is not attainable: a Rellich-type identity forces the unit-norm eigenpair's
slope to first order, |d slope / d b| = sqrt(2 lam_k) / 4 (about 0.85, 1.95,
3.06 for the first three modes).  The criterion runs and reports the
measured constants; see the README for discussion.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import asymptotics, bessel, modulation, reduced, solver, spectrum
from .weighted import RadialGrid

K1_B0 = 0.01
K2_B0 = 0.01
#: criterion 10 splits the k = 2 energy ratio E/b^2 into thirds over the
#: records whose tracked b = b_2 is at least this, a window fixed by b alone
#: (b_2 runs on to ~ 1e-12 at the norm floor)
K2_ENERGY_B_FLOOR = 1e-9


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] criterion {self.number:2d} ({self.name}): "
                f"{self.details} [{self.seconds:.2f}s]")


class VerificationContext:
    """Lazily built shared artifacts (runs, tracks, spectra) for the suite."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def _k1(self, sign: int, n: int):
        """(series, u0 disk integral, track) of the k = 1 run from
        sign * K1_B0 on n intervals; only the n = 1024 runs are tracked."""
        def build():
            grid = RadialGrid(n)
            v0 = modulation.build_profile(grid, 1, [sign * K1_B0])
            u0i = asymptotics.u0_disk_integral(grid, v0)
            ds, s_max = solver.default_ds(grid, 1), solver.default_s_max(1)
            if n != 1024:
                return solver.run(grid, v0, ds, s_max), u0i, None
            ts, track = modulation.track_run(grid, v0, 1, ds, s_max)
            return ts, u0i, track
        return self._get(("k1", sign, n), build)

    def k1_run(self, sign: int, n: int = 1024):
        return self._k1(sign, n)[:2]

    def k1_track(self, sign: int):
        return self._k1(sign, 1024)[2]

    def k1_verdict(self, sign: int) -> dict:
        """:func:`asymptotics.verdict` of the n = 1024 run, the verdict
        ``--mode run`` writes for it."""
        return self._get(("k1_verdict", sign), lambda: asymptotics.verdict(
            self.k1_run(sign)[0], 1, sign * K1_B0, self.k1_run(sign)[1]))

    def k2_family(self, sign: int = 1):
        """Shoot for trapped data and build the fit run at the same
        resolution, the run ``--mode run --shoot-file`` makes."""
        def build():
            ev = reduced.TrapEvaluator(2, sign * K2_B0, RadialGrid(512))
            result = reduced.shoot_trapped(ev)
            v0 = modulation.build_profile(ev.grid, 2,
                                          [*result.initials, ev.b_k0])
            u0i = asymptotics.u0_disk_integral(ev.grid, v0)
            fit_ts = solver.run(ev.grid, v0, ds=ev.ds,
                                s_max=solver.default_s_max(2))
            return {
                "evaluator": ev,
                "result": result,
                "fit_ts": fit_ts,
                "u0_integral": u0i,
            }
        return self._get(("k2_family", sign), build)


ALL_CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def _criterion(number: int, name: str, budget: float | None = None):
    """Declare a check ``(ctx, **kw) -> (passed, details)`` as criterion
    ``number``: the returned criterion times the check, counts a ``budget``
    (seconds) into ``passed`` when one is given, and is registered in
    ``ALL_CRITERIA``."""
    def register(check):
        @functools.wraps(check)
        def criterion(ctx: VerificationContext, **kw) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = check(ctx, **kw)
            dt = time.perf_counter() - t0
            if budget is not None:
                passed = passed and dt < budget
                details += f", time budget {budget:g}s"
            # numpy bools break json dumps
            return CriterionResult(number, name, bool(passed), details, dt)
        ALL_CRITERIA[number] = criterion
        return criterion
    return register


# ---------------------------------------------------------------------------
# criterion 1: spectral table vs independent series-bisection oracle

#: pi to 50 significant digits, for the decimal oracle
_PI = "3.1415926535897932384626433832795028841971693993751"


def _oracle_zero_series_bisection(j: int, dps: int = 25) -> float:
    """High-precision J0 zero: bisection on the power series, in ``dps``
    significant decimal digits."""
    import decimal      # only this oracle needs it; kept off the import path

    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=dps)):
        cutoff = D(10) ** (-dps - 5)

        def series(x):
            q = x * x / 4
            term = D(1)
            s = D(1)
            m = 0
            while True:
                m += 1
                term *= -q / (m * m)
                s += term
                if abs(term) < cutoff * max(1, abs(s)):
                    return s

        pi = D(_PI)
        lo = (j - D(3) / 4) * pi
        hi = (j + D(1) / 4) * pi
        flo = series(lo)
        while hi - lo > D("1e-12"):
            mid = (lo + hi) / 2
            fm = series(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return float((lo + hi) / 2)


@_criterion(1, "spectral table vs bisection oracle", budget=1.0)
def criterion_1(ctx: VerificationContext):
    zeros = bessel.j0_zeros(8)
    worst = max(abs(z.r - _oracle_zero_series_bisection(z.index))
                for z in zeros)
    gaps = [zeros[i + 1].lam - zeros[i].lam for i in range(7)]
    ok = worst <= 1e-10 and all(g > 1.0 for g in gaps)
    return ok, (f"max |r_j - oracle| = {worst:.2e} (<= 1e-10), "
                f"min gap = {min(gaps):.3f} (> 1)")


# criterion 2: eigenvalue drift law, log-log order >= 1.8, Richardson-confirmed


@_criterion(2, "eigenvalue drift law order >= 1.8", budget=30.0)
def criterion_2(ctx: VerificationContext, quick: bool = False):
    bs = np.array([0.005, 0.01, 0.02])
    rows = []
    ok = True
    for k in (1, 2, 3):
        coarse = spectrum.perturbation_sweep(RadialGrid(1024), k, bs)
        o1024 = coarse.residual_order
        if quick:
            rows.append(f"k={k}: order(1024)={o1024:.2f}")
            ok = ok and o1024 >= 1.8
            continue
        fine = spectrum.perturbation_sweep(RadialGrid(2048), k, bs)
        d_rich = (4.0 * fine.defects - coarse.defects) / 3.0
        o_rich = float(np.polyfit(np.log(bs), np.log(np.abs(d_rich)), 1)[0])
        ok = ok and o1024 >= 1.8 and o_rich >= 1.8
        rows.append(f"k={k}: order(1024)={o1024:.2f}, Richardson={o_rich:.2f}")
    return ok, "; ".join(rows)


# criterion 3: boundary-slope drift bound (unattainable as stated; measured)


@_criterion(3, "boundary slope defect <= 0.5|b|")
def criterion_3(ctx: VerificationContext):
    zeros = bessel.j0_zeros(12)
    ratios = []
    rel_consts = []
    for k in (1, 2, 3):
        target = zeros[k - 1].boundary_slope
        rep = spectrum.perturbation_sweep(
            RadialGrid(1024), k, (-0.02, -0.01, -0.005, 0.005, 0.01, 0.02))
        defect = np.abs(rep.boundary_slopes - target)
        abs_b = np.abs(rep.b_values)
        ratios.append(defect / abs_b)
        rel_consts.append(defect / (abs_b * abs(target)))
    worst_ratio = np.max(ratios)
    return worst_ratio <= 0.5, (
        f"measured max defect/|b| = {worst_ratio:.3f} "
        f"(bound 0.5; structural value is sqrt(2 lam_k)/4); "
        f"slope-relative constant = {np.max(rel_consts):.3f}")


# criterion 4: scaling identity <y eta_k', eta_k>_0 = -1 with 1e-8 slack


@_criterion(4, "scaling identity = -1 (k <= 8)")
def criterion_4(ctx: VerificationContext):
    worst = bessel.scaling_identity_defect(RadialGrid(2048))
    return worst <= 1e-8, (f"max |<y eta_k', eta_k>_0 + 1| = {worst:.2e} "
                           f"(<= 1e-8)")


# criterion 5: mass conservation <= 1e-6 at n = 1024; >= 3x drop at 2n


def _drift(ts: solver.TimeSeries) -> float:
    return float(np.max(np.abs(ts.mass - ts.mass[0])) / abs(ts.mass[0]))


@_criterion(5, "mass conservation")
def criterion_5(ctx: VerificationContext):
    d_pos = _drift(ctx.k1_run(+1)[0])
    d_neg = _drift(ctx.k1_run(-1)[0])
    d_2048 = _drift(ctx.k1_run(-1, 2048)[0])
    ratio = d_neg / d_2048 if d_2048 > 0 else math.inf
    ok = d_pos <= 1e-6 and d_neg <= 1e-6 and ratio >= 3.0
    return ok, (f"drift(+)={d_pos:.2e}, drift(-)={d_neg:.2e} (<= 1e-6), "
                f"1024/2048 ratio = {ratio:.1f} (>= 3)")


# criterion 6: terminal radius within 1e-4 of the conservation prediction


@_criterion(6, "terminal radius")
def criterion_6(ctx: VerificationContext):
    errs = [ctx.k1_verdict(sign)["radius_defect"] for sign in (+1, -1)]
    return max(errs) <= 1e-4, (f"|measured - predicted| = {errs[0]:.2e}, "
                               f"{errs[1]:.2e} (<= 1e-4)")


# criterion 7: ground-regime rate law within 2%, parity-consistent direction


@_criterion(7, "ground-mode rate law (<= 2%)")
def criterion_7(ctx: VerificationContext):
    rows = []
    ok = True
    for sign in (+1, -1):
        v = ctx.k1_verdict(sign)
        ok = ok and v["rate_rel_error"] <= 0.02 and v["r_squared"] >= 0.999 \
            and v["direction_consistent"]
        rows.append(f"b0={sign * K1_B0:+.3f}: rate rel err "
                    f"{v['rate_rel_error']:.3%}, R2={v['r_squared']:.5f}, "
                    f"{v['regime']}")
    return ok, "; ".join(rows)


# criterion 8: excited-regime rate after shooting; codimension-1 witness


@_criterion(8, "excited-mode rate law (<= 3%) + trap witness",
            budget=600.0)
def criterion_8(ctx: VerificationContext):
    fam = ctx.k2_family(+1)
    res = fam["result"]
    ev = fam["evaluator"]
    v = asymptotics.verdict(fam["fit_ts"], 2, ev.b_k0, fam["u0_integral"])
    ok = v["rate_rel_error"] <= 0.03 and v["r_squared"] >= 0.999
    witness_exits = []
    for sgn in (+1, -1):
        pert = np.array(res.initials)
        pert[0] += sgn * 100.0 * res.tol
        witness_exits.append(ev.evaluate(pert).exit_s)
    ok = ok and all(x is not None for x in witness_exits)
    return ok, (f"trapped b_1(0) = {res.initials[0]:+.3e}, rate rel err = "
                f"{v['rate_rel_error']:.3%}, witness exits at s = "
                f"{witness_exits[0]}, {witness_exits[1]}")


# criterion 9: tracked coefficient matches the closed-form mode law


@_criterion(9, "mode-law fidelity")
def criterion_9(ctx: VerificationContext):
    rows = []
    ok = True
    for sign in (+1, -1):
        track = ctx.k1_track(sign)
        ts, _ = ctx.k1_run(sign)
        b1 = track.coeff_array()[:, 0]
        params = reduced.RiccatiParams.for_mode(1, float(b1[0]))
        exact = reduced.riccati_exact(params, np.asarray(ts.s))
        mask = np.abs(b1) >= 1e-6
        rel = np.max(np.abs(b1[mask] - exact[mask]) / np.abs(exact[mask]))
        allowance = 5.0 * abs(b1[0]) ** 0.5
        ok = ok and rel <= allowance
        rows.append(f"b0={sign * K1_B0:+.3f}: max rel dev {rel:.2e} "
                    f"(<= {allowance:.2f})")
    return ok, "; ".join(rows)


# criterion 10: energy ratios bounded with a non-growing tail


def _tail_bounded(ratio: np.ndarray) -> tuple[bool, str]:
    n = len(ratio)
    if n < 9:
        return False, "too few points"
    thirds = np.array_split(ratio, 3)
    m1, m2, m3 = (float(np.max(t)) for t in thirds)
    ok = np.all(np.isfinite(ratio)) and m3 <= 1.25 * max(m1, m2)
    return bool(ok), f"third maxima {m1:.3g} / {m2:.3g} / {m3:.3g}"


@_criterion(10, "energy ratios bounded")
def criterion_10(ctx: VerificationContext):
    rows = []
    ok = True
    for sign in (+1, -1):
        track = ctx.k1_track(sign)
        b1 = track.coeff_array()[:, 0]
        energy = np.array([st.energy for st in track.states])
        mask = np.abs(b1) >= 1e-6
        good, info = _tail_bounded(energy[mask] / np.abs(b1[mask]) ** 3)
        ok = ok and good
        rows.append(f"k=1 b0={sign * K1_B0:+.3f}: E/|b1|^3 {info}")
    fam = ctx.k2_family(+1)
    track2 = fam["result"].certificate.track
    b2 = np.array([st.b for st in track2.states])
    energy2 = np.array([st.energy for st in track2.states])
    mask2 = b2 >= K2_ENERGY_B_FLOOR
    good2, info2 = _tail_bounded(energy2[mask2] / b2[mask2] ** 2)
    ok = ok and good2
    rows.append(f"k=2 trapped: E/b^2 {info2}")
    return ok, "; ".join(rows)


# criterion 11: closed form vs RK4 oracle at ds = 1e-4


def _rk4_mode_law(lam: float, sigma: float, b0: float, s_grid: np.ndarray,
                  ds: float) -> np.ndarray:
    """Classical RK4 for b' = -lam b - sigma sqrt(2 lam) b^2 from b0 at the
    step ds, sampled on the uniform grid ``s_grid`` from 0 (whose spacing
    is a whole number of steps)."""
    sc = sigma * math.sqrt(2.0 * lam)
    half = 0.5 * ds
    sixth = ds / 6.0
    per = int(round((s_grid[1] - s_grid[0]) / ds))
    out = np.empty_like(s_grid)
    out[0] = b = b0
    for idx in range(1, len(s_grid)):
        for _ in range(per):
            k1 = -lam * b - sc * b * b
            y = b + half * k1
            k2 = -lam * y - sc * y * y
            y = b + half * k2
            k3 = -lam * y - sc * y * y
            y = b + ds * k3
            k4 = -lam * y - sc * y * y
            b += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[idx] = b
    return out


@_criterion(11, "closed form vs RK4 oracle")
def criterion_11(ctx: VerificationContext):
    s_grid = np.linspace(0.0, 5.0, 51)
    worst = 0.0
    for k in (1, 2, 3, 4):
        for b0 in (0.05, -0.05, 0.01, -0.01):
            params = reduced.RiccatiParams.for_mode(k, b0)
            exact = reduced.riccati_exact(params, s_grid)
            rk4 = _rk4_mode_law(params.lam_k, params.sigma, b0, s_grid, 1e-4)
            worst = max(worst, float(np.max(np.abs(exact - rk4))))
    return worst <= 1e-10, (f"max |closed - RK4| = {worst:.2e} (<= 1e-10) "
                            f"over k <= 4, |b0| <= 0.05")


QUICK_SET = (1, 2, 3, 4, 11)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the suite (or the quick spectral subset) and print one line each."""
    ctx = VerificationContext()
    results = []
    for num in QUICK_SET if quick else sorted(ALL_CRITERIA):
        res = ALL_CRITERIA[num](ctx, **({"quick": quick} if num == 2 else {}))
        results.append(res)
        print(res.line())
    return results
