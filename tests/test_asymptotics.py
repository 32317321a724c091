"""Terminal radius, rate fitting, regime parity, time reconstruction."""

import json
import math

import numpy as np
import pytest

from stefanlab import asymptotics, cli, modulation, solver
from stefanlab.errors import ConfigError, RunNotConverged
from stefanlab.solver import TimeSeries
from stefanlab.weighted import RadialGrid


def synthetic_series(rate=3.0, lam_inf=0.9, amp=0.1, n=1000, dt=5e-3):
    # keep the decay well above float quantization of lam_inf + d
    t = np.arange(n) * dt
    lam = lam_inf + amp * np.exp(-rate * t)
    # the mass whose terminal radius sqrt(mass / pi) is lam_inf
    return TimeSeries(
        s=t.copy(), t=t, lam=lam, a=np.zeros(n),
        mass=np.full(n, math.pi * lam_inf ** 2), vnorm=np.full(n, 1e-13),
    )


class TestTerminalRadius:
    def test_zero_data(self):
        ts = synthetic_series(amp=0.0, lam_inf=1.0)
        assert asymptotics.settled_tail(ts, 1).radius == 1.0
        assert asymptotics.predicted_terminal_radius(math.pi) == 1.0

    def test_prediction_formula(self):
        # mass 0.98 pi (heat content -0.02 pi) gives sqrt(0.98)
        val = asymptotics.predicted_terminal_radius(0.98 * math.pi)
        assert val == pytest.approx(math.sqrt(0.98), abs=1e-15)

    def test_verdict_reads_the_recorded_mass(self):
        # the datum of `run --k 1 --grid 1024 --b0 0.01`, whose prediction
        # from its heat content, sqrt(1 + u0 / pi), is 1 ulp off
        grid = RadialGrid(1024)
        v0 = modulation.build_profile(grid, 1, [0.01])
        mass0 = solver.mass(grid, v0, 1.0)
        u0 = float(2.0 * np.pi * np.sum(grid.simpson * v0 * grid.y))
        expect = math.sqrt(mass0 / math.pi)
        assert abs(math.sqrt(1.0 + u0 / math.pi) - expect) == math.ulp(expect)
        ts = synthetic_series(lam_inf=expect)
        ts.mass[:] = mass0
        v = asymptotics.verdict(ts, 1, 0.01)
        assert v["lambda_inf_predicted"] == math.sqrt(ts.mass[0] / math.pi)

    def test_requires_floor(self):
        # the boundary slope decays at 3, not at lam_1 = 5.78: the run is
        # outside its exponential regime, so its tail gives no radius
        ts = synthetic_series()
        ts.a = 0.1 * np.exp(-3.0 * ts.s)
        with pytest.raises(RunNotConverged, match="exponential regime"):
            asymptotics.settled_tail(ts, 1)

    def test_freezing_run_accuracy(self, ctx):
        ts = ctx.k1(-1).series
        measured = asymptotics.settled_tail(ts, 1).radius
        predicted = asymptotics.predicted_terminal_radius(ts.mass[0])
        assert abs(measured - predicted) <= 1e-4

    def test_monotone_in_heat_content(self):
        vals = [asymptotics.predicted_terminal_radius(math.pi + x)
                for x in np.linspace(-1.0, 1.0, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTail:
    """The slope rate -d log|a|/ds over the last quarter of the run and the
    tail radius lam_end e^{-a_end / lam_k} it licenses."""

    @staticmethod
    def sloped(rate):
        # a boundary slope decaying at ``rate`` and the radius it moves,
        # lam = exp(-int_0^s a), to s = 1, where a is still 3e-6
        ts = synthetic_series(amp=0.0, lam_inf=1.0, n=201)
        ts.a = 1e-3 * np.exp(-rate * ts.s)
        ts.lam = np.exp(-1e-3 * (1.0 - np.exp(-rate * ts.s)) / rate)
        return ts

    def test_rate_and_window_of_an_exponential(self, zeros12):
        lam1 = zeros12[0].lam
        ts = self.sloped(lam1)
        rate, window = asymptotics.slope_rate(ts)
        assert rate == pytest.approx(lam1, rel=1e-12)
        assert window == (ts.s[ts.s >= 0.75 * ts.s[-1]][0], ts.s[-1])
        tail = asymptotics.settled_tail(ts, 1)
        assert tail.radius == ts.lam[-1] * math.exp(-ts.a[-1] / lam1)
        assert tail.spread <= 1e-22

    def test_tail_is_the_integrated_radius(self, zeros12):
        # lam_inf = exp(-int_0^inf a) = exp(-1e-3 / lam_1)
        lam1 = zeros12[0].lam
        ts = self.sloped(lam1)
        measured = asymptotics.settled_tail(ts, 1).radius
        assert measured == pytest.approx(math.exp(-1e-3 / lam1), abs=1e-15)

    def test_sign_change_is_not_settled(self, zeros12):
        ts = self.sloped(zeros12[0].lam)
        ts.a[-5] *= -1.0
        assert math.isnan(asymptotics.slope_rate(ts)[0])
        with pytest.raises(RunNotConverged):
            asymptotics.settled_tail(ts, 1)

    def test_slow_freezing_slope_is_not_settled(self):
        # |a| near its peak: a slope rate near 0 with a_end < 0 puts
        # e^{-a_end / rate} past the float range, a refusal, not an error
        ts = self.sloped(1e-4)
        ts.a = -ts.a * 1e3
        rate, _ = asymptotics.slope_rate(ts)
        assert 0.0 < rate < 2e-4
        with pytest.raises(OverflowError):
            math.exp(-ts.a[-1] / rate)
        with pytest.raises(RunNotConverged, match="exponential regime"):
            asymptotics.settled_tail(ts, 1)

    @pytest.mark.parametrize("s_max, code", [
        (0.1, 2), (0.3, 2), (1.0, 2), (1.1, 2), (1.5, 0), (2.0, 0),
        (None, 0)])
    def test_cli_horizon_table(self, s_max, code, tmp_path, capsys):
        # exit 2 before the exponential regime (s <= 1: no settled tail;
        # s = 1.1: settled, but under three decades for the rate fit), one
        # refusal with one prefix, and no verdict is written
        out = tmp_path / "run"
        got = cli.main(["--mode", "run", "--k", "1", "--grid", "512",
                        "--b0", "0.01", "--smax", str(s_max).lower(),
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert got == code
        assert (out / "verdict.json").exists() == (code == 0)
        assert "Traceback" not in err
        assert err.startswith("verification failure:") == (code == 2)
        if code == 0:
            verdict = json.loads((out / "verdict.json").read_text())
            assert verdict["slope_window"][1] == pytest.approx(s_max or 2.0)
            assert verdict["tail_spread"] <= asymptotics.TAIL_SPREAD_TOL

    @staticmethod
    def k1_run(n, b0, s_max):
        return modulation.scenario(RadialGrid(n), 1, [b0], s_max=s_max,
                                   track=False).series

    def test_slope_rate_is_second_order(self, zeros12):
        # mean over b0 = +-0.01 of the slope rate's relative error over
        # s in [1.5, 2]: measured 3.0e-6 at n = 512 and 7.5e-7 at n = 1024
        # (order 2.00); the mean cancels the O(b0) part of each sign
        lam1 = zeros12[0].lam
        errs = [np.mean([asymptotics.slope_rate(self.k1_run(n, b0, 2.0))[0]
                         / lam1 - 1.0 for b0 in (0.01, -0.01)])
                for n in (512, 1024)]
        assert 2.5e-6 <= errs[0] <= 3.5e-6
        assert 1.9 <= math.log2(errs[0] / errs[1]) <= 2.1

    @pytest.mark.parametrize("n", [512, 1024])
    def test_s2_tail_is_the_floor_radius(self, n):
        # the s = 2 run's tail against the s_max = 6 run's last record (at
        # the norm floor, s ~ 4): measured |difference| <= 5.7e-13, to
        # radius defects of ~4e-9 at n = 1024 and ~1.5e-8 at n = 512
        for b0 in (0.01, -0.01, -0.005):
            short = self.k1_run(n, b0, solver.default_s_max(1))
            floor = self.k1_run(n, b0, 6.0)
            assert short.s[-1] == 2.0
            assert floor.vnorm[-1] < solver.NORM_FLOOR
            tail = asymptotics.settled_tail(short, 1).radius
            assert abs(tail - floor.lam[-1]) <= 1.5e-12


class TestFitRate:
    def test_synthetic_exponential(self):
        ts = synthetic_series(rate=3.0)
        fit = asymptotics.fit_rate(ts, 0.9, 1)
        assert abs(fit.rate_fitted - 3.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_insufficient_decay(self):
        ts = synthetic_series(n=40)
        with pytest.raises(RunNotConverged, match="3 decades"):
            asymptotics.fit_rate(ts, 0.9, 1)

    def test_k1_run_rate(self, ctx, zeros12):
        for sign in (+1, -1):
            ts = ctx.k1(sign).series
            lam_inf = asymptotics.predicted_terminal_radius(ts.mass[0])
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
        with pytest.raises(ConfigError):
            asymptotics.classify_regime(1, 0.0)

    def test_consistent_with_terminal_radius(self, ctx):
        for sign in (+1, -1):
            ts = ctx.k1(sign).series
            regime = asymptotics.classify_regime(1, sign * 0.01)
            lam_inf = asymptotics.predicted_terminal_radius(ts.mass[0])
            assert (regime == "melting") == (lam_inf > 1.0)
            assert (regime == "melting") == (ts.lam[-1] > 1.0)


class TestTimeReconstruction:
    def test_unit_radius_identity(self):
        ts = synthetic_series(amp=0.0, lam_inf=1.0)
        assert asymptotics.time_reconstruction_check(ts) < 1e-12

    def test_monotone_time(self, ctx):
        ts = ctx.k1(+1).series
        assert np.all(np.diff(ts.t) > 0)

    def test_run_defect_small(self, ctx):
        ts = ctx.k1(+1).series
        assert asymptotics.time_reconstruction_check(ts) < 1e-5


class TestVerdict:
    def test_k1_verdict_passes(self, ctx):
        v = ctx.k1(-1).verdict
        assert v["passed"]
        assert v["regime"] == "freezing"
        assert v["direction_consistent"]

    def test_verdict_json(self, ctx, tmp_path):
        import json

        v = ctx.k1(-1).verdict
        path = tmp_path / "verdict.json"
        asymptotics.write_verdict_json(path, v)
        assert json.loads(path.read_text())["regime"] == "freezing"

    @pytest.mark.parametrize("k, rate_tol", [(1, 0.02), (2, 0.03)])
    def test_bounds_are_fixed_by_k(self, k, rate_tol):
        # the paper's bounds: 2% on the k = 1 rate, 3% for k > 1
        v = asymptotics.verdict(synthetic_series(), k, 0.01)
        assert (v["rate_tol"], v["radius_tol"]) == (rate_tol, 1e-4)


class TestRateParityCoherence:
    """All four scenarios (two regimes per tracked mode) agree with the
    parity rule and fit the same predicted exponent."""

    def test_four_scenarios(self, ctx):
        outcomes = []
        for sign in (+1, -1):
            ts = ctx.k1(sign).series
            lam_inf = asymptotics.predicted_terminal_radius(ts.mass[0])
            fit = asymptotics.fit_rate(ts, lam_inf, 1)
            regime = asymptotics.classify_regime(1, sign * 0.01)
            outcomes.append((1, regime, ts, lam_inf, fit))
        for sign in (+1, -1):
            run = ctx.k2_family(sign)[1]
            lam_inf = asymptotics.predicted_terminal_radius(run.series.mass[0])
            fit = asymptotics.fit_rate(run.series, lam_inf, 2)
            regime = asymptotics.classify_regime(2, sign * 0.01)
            outcomes.append((2, regime, run.series, lam_inf, fit))
        for k, regime, ts, lam_inf, fit in outcomes:
            assert (regime == "melting") == (lam_inf > 1.0)
            tol = 0.02 if k == 1 else 0.03
            assert fit.rate_rel_error <= tol
            first = np.searchsorted(ts.t, fit.window[0])
            assert np.sign(ts.lam[first] - lam_inf) == (
                1 if regime == "freezing" else -1)


def test_decay_plot_svg(ctx, tmp_path):
    run = ctx.k1(-1)
    path = tmp_path / "decay.svg"
    asymptotics.decay_plot(path, run.series, run.verdict)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
