"""Terminal radius, rate fitting, regime parity, time reconstruction."""

import math

import numpy as np
import pytest

from stefanlab import asymptotics
from stefanlab.errors import (InsufficientDecay, RunNotConverged,
                              ZeroInitialMode)
from stefanlab.solver import TimeSeries


def synthetic_series(rate=3.0, lam_inf=0.9, amp=0.1, n=1000, dt=5e-3,
                     floored=True):
    # keep the decay well above float quantization of lam_inf + d
    t = np.arange(n) * dt
    lam = lam_inf + amp * np.exp(-rate * t)
    return TimeSeries(
        s=t.copy(), t=t, lam=lam, a=np.zeros(n),
        mass=np.full(n, math.pi), vnorm=np.full(n, 1e-13),
        reached_floor=floored,
    )


class TestTerminalRadius:
    def test_zero_data(self):
        ts = synthetic_series(amp=0.0, lam_inf=1.0)
        measured, predicted = asymptotics.terminal_radius(ts, 0.0)
        assert measured == 1.0
        assert predicted == 1.0

    def test_prediction_formula(self):
        # integral -0.02 pi gives sqrt(0.98)
        val = asymptotics.predicted_terminal_radius(-0.02 * math.pi)
        assert val == pytest.approx(math.sqrt(0.98), abs=1e-15)

    def test_requires_floor(self):
        ts = synthetic_series(floored=False)
        with pytest.raises(RunNotConverged):
            asymptotics.terminal_radius(ts, 0.0)

    def test_freezing_run_accuracy(self, ctx):
        ts, u0i = ctx.k1_run(-1)
        measured, predicted = asymptotics.terminal_radius(ts, u0i)
        assert abs(measured - predicted) <= 1e-4

    def test_monotone_in_heat_content(self):
        vals = [asymptotics.predicted_terminal_radius(x)
                for x in np.linspace(-1.0, 1.0, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFitRate:
    def test_synthetic_exponential(self):
        ts = synthetic_series(rate=3.0)
        fit = asymptotics.fit_rate(ts, 0.9, 1)
        assert abs(fit.rate_fitted - 3.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_insufficient_decay(self):
        ts = synthetic_series(n=40)
        with pytest.raises(InsufficientDecay):
            asymptotics.fit_rate(ts, 0.9, 1)

    def test_k1_run_rate(self, ctx, zeros12):
        for sign in (+1, -1):
            ts, u0i = ctx.k1_run(sign)
            lam_inf = asymptotics.predicted_terminal_radius(u0i)
            fit = asymptotics.fit_rate(ts, lam_inf, 1)
            assert fit.rate_rel_error <= 0.02
            assert fit.r_squared >= 0.999
            assert fit.rate_predicted == pytest.approx(
                zeros12[0].lam / lam_inf ** 2)


class TestClassifyRegime:
    @pytest.mark.parametrize("k,b0,expect", [
        (1, 0.01, "melting"),
        (1, -0.01, "freezing"),
        (2, 0.01, "freezing"),
        (2, -0.01, "melting"),
        (3, 0.01, "melting"),
    ])
    def test_parity_table(self, k, b0, expect):
        assert asymptotics.classify_regime(k, b0) == expect

    def test_zero_mode_rejected(self):
        with pytest.raises(ZeroInitialMode):
            asymptotics.classify_regime(1, 0.0)

    def test_consistent_with_terminal_radius(self, ctx):
        for sign in (+1, -1):
            ts, u0i = ctx.k1_run(sign)
            regime = asymptotics.classify_regime(1, sign * 0.01)
            lam_inf = asymptotics.predicted_terminal_radius(u0i)
            assert (regime == "melting") == (lam_inf > 1.0)
            assert (regime == "melting") == (ts.lam[-1] > 1.0)


class TestTimeReconstruction:
    def test_unit_radius_identity(self):
        ts = synthetic_series(amp=0.0, lam_inf=1.0)
        assert asymptotics.time_reconstruction_check(ts) < 1e-12

    def test_monotone_time(self, ctx):
        ts, _ = ctx.k1_run(+1)
        assert np.all(np.diff(ts.t) > 0)

    def test_run_defect_small(self, ctx):
        ts, _ = ctx.k1_run(+1)
        assert asymptotics.time_reconstruction_check(ts) < 1e-5


class TestVerdict:
    def test_k1_verdict_passes(self, ctx):
        ts, u0i = ctx.k1_run(-1)
        v = asymptotics.verdict(ts, 1, -0.01, u0i)
        assert v["passed"]
        assert v["regime"] == "freezing"
        assert v["direction_consistent"]

    def test_verdict_json(self, ctx, tmp_path):
        import json

        ts, u0i = ctx.k1_run(-1)
        v = asymptotics.verdict(ts, 1, -0.01, u0i)
        path = tmp_path / "verdict.json"
        asymptotics.write_verdict_json(path, v)
        assert json.loads(path.read_text())["regime"] == "freezing"

    @pytest.mark.parametrize("k, rate_tol", [(1, 0.02), (2, 0.03)])
    def test_bounds_are_fixed_by_k(self, k, rate_tol):
        # the paper's bounds: 2% on the k = 1 rate, 3% for k > 1
        v = asymptotics.verdict(synthetic_series(), k, 0.01,
                                math.pi * (0.9 ** 2 - 1.0))
        assert (v["rate_tol"], v["radius_tol"]) == (rate_tol, 1e-4)


class TestRateParityCoherence:
    """All four scenarios (two regimes per tracked mode) agree with the
    parity rule and fit the same predicted exponent."""

    def test_four_scenarios(self, ctx):
        outcomes = []
        for sign in (+1, -1):
            ts, u0i = ctx.k1_run(sign)
            lam_inf = asymptotics.predicted_terminal_radius(u0i)
            fit = asymptotics.fit_rate(ts, lam_inf, 1)
            regime = asymptotics.classify_regime(1, sign * 0.01)
            outcomes.append((1, regime, lam_inf, fit))
        for sign in (+1, -1):
            fam = ctx.k2_family(sign)
            lam_inf = asymptotics.predicted_terminal_radius(fam["u0_integral"])
            fit = asymptotics.fit_rate(fam["fit_ts"], lam_inf, 2)
            regime = asymptotics.classify_regime(2, sign * 0.01)
            outcomes.append((2, regime, lam_inf, fit))
        for k, regime, lam_inf, fit in outcomes:
            assert (regime == "melting") == (lam_inf > 1.0)
            tol = 0.02 if k == 1 else 0.03
            assert fit.rate_rel_error <= tol
            assert fit.amplitude_sign == (1 if regime == "freezing" else -1)


def test_decay_plot_svg(ctx, tmp_path):
    ts, u0i = ctx.k1_run(-1)
    verdict = asymptotics.verdict(ts, 1, -0.01, u0i)
    path = tmp_path / "decay.svg"
    asymptotics.decay_plot(path, ts, verdict)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
