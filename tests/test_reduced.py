"""Closed-form mode law and trapped-data shooting."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from stefanlab import reduced, verify
from stefanlab.errors import ConfigError, NoTrappedData
from stefanlab.weighted import RadialGrid


# criterion 11's cases and sample grid: s = 0, 0.1, ..., 5 at ds = 1e-4
C11_CASES = [(k, b0) for k in (1, 2, 3, 4)
             for b0 in (0.05, -0.05, 0.01, -0.01)]
C11_GRID = np.linspace(0.0, 5.0, 51)


def rk4_samples(zero, b0, n):
    """b0 and the first n samples of criterion 11's RK4 oracle, 0.1 apart."""
    return np.array([b0, *itertools.islice(
        verify._rk4_mode_law(zero, b0, 1e-4, 1000), n)])


class TestRiccatiExact:
    def test_zero_initial(self):
        assert reduced.riccati_exact(1, 0.0, 3.0) == 0.0

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            reduced.riccati_exact(1, 0.06, 1.0)

    def test_matches_rk4_small_step(self, zeros12):
        # against criterion 11's RK4 oracle
        s_grid = np.linspace(0.0, 1.0, 11)
        rk4 = rk4_samples(zeros12[0], 0.01, 10)
        exact = reduced.riccati_exact(1, 0.01, s_grid)
        assert np.max(np.abs(rk4 - exact)) < 1e-10

    def test_mode_law_model_is_each_lower_modes_own_law(self, zeros12):
        # u_j = e^{lam_j s_F} b_j(s_F) under mode j's law is x / (1 + q_j x),
        # and at the default horizon J_11 = ceiling / (4 tol)
        horizon = reduced.default_shoot_horizon(3)
        slopes, q = reduced.mode_law_model(3, horizon)
        assert abs(slopes[0] / 2.5e11 - 1.0) < 1e-12
        for j in (1, 2):
            for x in (1e-3, -2e-3):
                u = math.exp(zeros12[j - 1].lam * horizon) * (
                    reduced.riccati_exact(j, x, horizon))
                assert abs(u - x / (1.0 + q[j - 1] * x)) < 1e-13 * abs(x)

    def test_rk4_oracle_matches_its_stage_function_form(self, zeros12):
        # criterion 11's inlined RK4 loop, its coefficient read off the
        # boundary slope, repeats bit for bit the loop that called a stage
        # function of lam and sigma = (-1)^{k+1} and sampled by a step
        # count modulo
        def rk4_stage_function(lam, sigma, b0, s_grid, ds):
            c = math.sqrt(2.0 * lam)

            def f(b):
                return -lam * b - sigma * c * b * b

            out = np.empty_like(s_grid)
            out[0] = b0
            b = b0
            idx = 1
            n_total = int(round(s_grid[-1] / ds))
            per = int(round((s_grid[1] - s_grid[0]) / ds))
            for i in range(n_total):
                k1 = f(b)
                k2 = f(b + 0.5 * ds * k1)
                k3 = f(b + 0.5 * ds * k2)
                k4 = f(b + ds * k3)
                b += (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if (i + 1) % per == 0:
                    out[idx] = b
                    idx += 1
            return out

        for k, b0 in C11_CASES:
            zero, sigma = zeros12[k - 1], (-1.0) ** (k + 1)
            got = rk4_samples(zero, b0, 50)
            want = rk4_stage_function(zero.lam, sigma, b0, C11_GRID, 1e-4)
            assert got.tobytes() == want.tobytes()

    def test_both_laws_keep_the_sign_and_never_grow(self, zeros12):
        # criterion 11's stop rule rests on this: over the whole grid, the
        # RK4 samples and the closed form keep b0's sign and |b| falls
        for k, b0 in C11_CASES:
            for b in (rk4_samples(zeros12[k - 1], b0, 50),
                      reduced.riccati_exact(k, b0, C11_GRID)):
                assert np.all(b * math.copysign(1.0, b0) >= 0.0)
                assert np.all(np.diff(np.abs(b)) <= 0.0)

    def test_criterion_11_stops_early_on_the_full_maximum(self, zeros12,
                                                          monkeypatch):
        # the maximum over all 16 x 50 intervals, bit for bit, from at most
        # 270 of them
        full = max(float(np.max(np.abs(
            reduced.riccati_exact(k, b0, C11_GRID)
            - rk4_samples(zeros12[k - 1], b0, 50)))) for k, b0 in C11_CASES)
        drawn = []
        oracle = verify._rk4_mode_law

        def counted(*args):
            for b in oracle(*args):
                drawn.append(b)
                yield b

        monkeypatch.setattr(verify, "_rk4_mode_law", counted)
        assert verify._rk4_gap().hex() == full.hex()
        assert len(drawn) <= 270
        assert "5.54e-15" in verify.criterion_11(None).details

    @pytest.mark.parametrize("factor", [1.0, 0.9])
    def test_criterion_11_reads_every_sample_that_can_raise_the_maximum(
            self, factor, monkeypatch):
        # the oracle's largest gaps come at the first samples, so an early
        # stop cannot show there; a stand-in that keeps b0's sign and never
        # grows, as the stop rule assumes, but decays slower than the closed
        # form puts the largest gaps last, and the rule must still read them
        def stand_in(zero, b0, ds, per):
            b = b0
            while True:
                b *= factor
                yield b

        full = max(float(np.max(np.abs(
            reduced.riccati_exact(k, b0, C11_GRID)[1:]
            - list(itertools.islice(stand_in(None, b0, 0, 0), 50)))))
            for k, b0 in C11_CASES)
        monkeypatch.setattr(verify, "_rk4_mode_law", stand_in)
        assert verify._rk4_gap().hex() == full.hex()

    def test_normalized_limit_constant(self, zeros12):
        # e^{lam s} b(s) approaches 1 / (1/b0 + shift), shift = -c / lam
        # with the boundary slope c = +sqrt(2 lam) of eta_2
        lam, b0 = zeros12[1].lam, 0.01
        c = math.sqrt(2 * lam)
        expect = 1.0 / (1.0 / b0 - c / lam)
        for s in (8.0, 10.0):
            val = math.exp(lam * s) * reduced.riccati_exact(2, b0, s)
            assert abs(val - expect) < 1e-6 * abs(expect)

    def test_monotone_melting_branch(self):
        s = np.linspace(0.0, 4.0, 200)
        b = reduced.riccati_exact(1, 0.03, s)
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_no_pole_in_small_data(self):
        # |b0| <= B_SMALL keeps 1/b0 + shift away from 0 (|shift| <= 0.59),
        # so the law keeps b0's sign until it underflows to 0
        s = np.linspace(0.0, 50.0, 2001)
        for k in range(1, 13):
            for b0 in (0.05, -0.05, 0.01, -0.01):
                b = reduced.riccati_exact(k, b0, s)
                assert np.all(np.isfinite(b))
                assert np.all(np.sign(b) * math.copysign(1.0, b0) >= 0.0)
                assert b[0] == pytest.approx(b0, rel=1e-14)

    @pytest.mark.parametrize("k, s", [(1, 200.0), (12, 1.0)])
    def test_decay_past_the_float_range_warns_nothing(self, k, s):
        # e^{-lam_k s} underflows to 0 where e^{lam_k s} would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduced.riccati_exact(k, 0.01, s) == 0.0


@pytest.fixture(scope="module")
def k2_shot(ctx):
    return ctx.k2_family(+1)[0]


class TestShootingK2:
    def test_trapped_found_and_small(self, k2_shot):
        res = k2_shot
        assert abs(res.initials[0]) < 50.0 * reduced.TRAP_CEILING * 0.01 ** 2
        assert res.certificate.max_v2 <= res.evaluator.ceiling ** 2

    def test_trap_certificate(self, k2_shot):
        ev = k2_shot.certificate
        assert ev.exit_s is None
        assert ev.max_v2 <= 1.0

    def test_codimension_one_witness(self, k2_shot):
        res = k2_shot
        ev = res.evaluator
        for sgn in (+1, -1):
            pert = np.array(res.initials)
            pert[0] += sgn * 100.0 * ev.tol
            out = ev.evaluate(pert)
            assert out.exit_s is not None

    def test_search_cost_and_centre(self, k2_shot):
        # the model step from the base point and one secant step land at
        # the root of V_1(s_F), the centre of the trapped window
        res = k2_shot
        assert res.evaluations == 3 and res.iterations == res.evaluations - 1
        assert abs(res.certificate.horizon_V[0]) < 1e-3

    def test_jacobian_is_the_linear_law(self, k2_shot, tmp_path):
        # at the default horizon the linear law's slope is ceiling / (4 tol)
        res = k2_shot
        assert res.jacobian.shape == (1, 1)
        assert abs(res.jacobian[0, 0] / 2.5e11 - 1.0) < 0.01
        res.to_json(tmp_path / "shoot.json")
        payload = json.loads((tmp_path / "shoot.json").read_text())
        assert payload["jacobian"] == res.jacobian.tolist()

    def test_json_record(self, k2_shot, tmp_path):
        res = k2_shot
        path = tmp_path / "shoot.json"
        res.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["k"] == 2
        assert payload["exit_s"] is None
        assert payload["found_initials"] == list(res.initials)
        # the terms of the certificate: the default horizon and s_max
        ev = res.evaluator
        assert payload["horizon"] == payload["s_max"] == ev.horizon
        assert ev.horizon == reduced.default_shoot_horizon(2)
        assert payload["evaluations"] == res.evaluations
        # identical serialization on repeat: fixed-step, no randomness
        res.to_json(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_shoot_file_gives_back_its_initials(self, k2_shot, tmp_path):
        # the run reads the initials the shoot wrote, bit for bit, and only
        # for the (k, b_k0) they were shot for
        path = tmp_path / "shoot_k2.json"
        k2_shot.to_json(path)
        lower = reduced.read_initials(path, 2, 0.01)
        assert ([x.hex() for x in lower]
                == [x.hex() for x in k2_shot.initials])
        for k, b0 in ((2, -0.01), (3, 0.01)):
            with pytest.raises(ConfigError) as exc:
                reduced.read_initials(path, k, b0)
            assert str(exc.value) == (
                f"shoot file {path} is for k = 2, b_k0 = 0.01, "
                f"not k = {k}, b0 = {b0!r}")


class TestShootingK3:
    def test_two_unstable_modes_trapped(self):
        # the default horizon keeps the fastest trap variable's trapped
        # window wider than the search tolerance (~0.33 for k = 3)
        grid = RadialGrid(512)
        ev = reduced.TrapEvaluator(3, 0.02, grid, ds=6e-5)
        assert ev.s_max == pytest.approx(reduced.default_shoot_horizon(3))
        res = reduced.shoot_trapped(ev)
        assert ev.evaluations == res.evaluations <= 5
        assert res.certificate.max_v2 <= ev.ceiling ** 2
        # both lower coefficients sit at the quadratically forced scale
        assert all(abs(x) < 1e-2 for x in res.initials)

    def test_zero_driving_mode_trivially_trapped(self):
        # with b_k(0) = 0 and no lower-mode data the profile vanishes and
        # every trap variable stays at zero
        grid = RadialGrid(512)
        ev = reduced.TrapEvaluator(3, 0.0, grid)
        out = ev.evaluate([0.0, 0.0])
        assert out.exit_s is None
        assert out.max_v2 == 0.0

    def test_k_bounds(self):
        grid = RadialGrid(512)
        with pytest.raises(ValueError):
            reduced.TrapEvaluator(4, 0.01, grid)
        with pytest.raises(ValueError):
            reduced.TrapEvaluator(1, 0.01, grid)

    def test_ceiling_above_four_tol(self):
        # ln(ceiling / (4 tol)) / growth is the horizon; it must be positive
        grid = RadialGrid(512)
        for ceiling in (1e-8, 4e-6):
            with pytest.raises(ValueError, match="ceiling"):
                reduced.TrapEvaluator(2, 0.02, grid, ceiling=ceiling,
                                      tol=1e-6)


class TestShootingFailure:
    def test_no_trapped_data_with_tiny_ceiling(self):
        # an absurd ceiling makes every trajectory exit, so the Newton steps
        # shrink below the evaluator's tol without ever trapping
        grid = RadialGrid(512)
        ev = reduced.TrapEvaluator(2, 0.02, grid, s_max=0.2, ceiling=1e-8)
        with pytest.raises(NoTrappedData, match="below tol = 1e-12"):
            reduced.shoot_trapped(ev)


class TestShootingHorizon:
    def test_long_run_reads_v_at_the_default_horizon(self):
        # runs to s_max = 2 end at the norm floor at different s; the search
        # reads V at the default horizon, not at each run's last record
        ev = reduced.TrapEvaluator(2, 0.01, RadialGrid(512), s_max=2.0)
        res = reduced.shoot_trapped(ev)
        assert res.certificate.exit_s is None
        assert res.evaluations <= 6
        assert res.evaluator is ev and ev.s_max == 2.0
        assert ev.horizon == reduced.default_shoot_horizon(2)

    def test_zero_driving_mode_needs_one_evaluation(self):
        res = reduced.shoot_trapped(
            reduced.TrapEvaluator(2, 0.0, RadialGrid(512)))
        assert res.certificate.exit_s is None
        assert res.initials == (0.0,)
        assert res.evaluations == 1
        assert res.iterations == 0


class _StubEvaluator:
    """Exit map without a PDE: V(s_F) = f(x); data traps iff |f(x)| < trap_below."""

    grid = RadialGrid(512)
    horizon = s_max = 0.5
    ceiling = 1.0

    def __init__(self, f, k=2, trap_below=1e-3, b_k0=0.01, tol=1e-12):
        self.f = f
        self.k = k
        self.b_k0 = b_k0
        self.tol = tol
        self.trap_below = trap_below
        self.evaluations = 0

    def evaluate(self, x):
        self.evaluations += 1
        v = np.asarray(self.f(np.asarray(x)), dtype=float)
        trapped = bool(np.all(np.abs(v) < self.trap_below))
        return reduced.TrapEvaluation(exit_s=None if trapped else 0.1,
                                      horizon_V=v, max_v2=1.0, track=None)


class TestShootingStubs:
    def _shoot(self, k, f):
        # at the default horizon the linear law's slope J_11 is
        # ceiling / (4 tol) = 2.5e11, the slope of the maps below
        ev = _StubEvaluator(f, k)
        ev.horizon = ev.s_max = reduced.default_shoot_horizon(k)
        return reduced.shoot_trapped(ev), ev

    @pytest.mark.parametrize("k, root", [(2, [3e-6]), (3, [3e-6, -5e-6])])
    def test_map_affine_in_mode_law_coordinates_traps_on_model_step(
            self, k, root):
        # V = slopes (u - root) with u = x / (1 + q x): the search's own
        # model, so its first step lands on the root
        slopes, q = reduced.mode_law_model(k, reduced.default_shoot_horizon(k))
        res, ev = self._shoot(k, lambda x: slopes * (x / (1.0 + q * x)
                                                     - np.array(root)))
        assert ev.evaluations == 2 and res.iterations == 1
        assert np.allclose(res.initials, np.array(root) / (1.0 - q * root),
                           rtol=1e-12, atol=0)
        # the model J, untouched by an update, mapped to dV/dx = J du/dx
        assert np.allclose(res.jacobian,
                           np.diag(slopes * (1.0 - q * np.array(root)) ** 2),
                           rtol=1e-12, atol=0)

    def test_affine_map_secant_lands_in_one_step(self):
        # affine in x, the map bends in u at the Riccati curvature: the
        # model step lands 5e-12 past the root, the secant step on it
        res, ev = self._shoot(2, lambda x: 2.5e11 * (x - 3e-6))
        assert ev.evaluations == 3
        assert res.iterations == 2
        assert abs(res.initials[0] - 3e-6) < 1e-14

    def test_affine_map_broyden_k3(self):
        # A's second column is ~6000 times the linear law's slope there
        A = np.array([[2.0e11, 3.0e10], [-1.0e10, 5.0e11]])
        root = np.array([2e-6, -7e-6])
        res, ev = self._shoot(3, lambda x: A @ (x - root))
        assert ev.evaluations == 7
        assert np.allclose(res.initials, root, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k, f", [
        (2, lambda x: np.array([3.0])),
        (3, lambda x: np.array([1.0, 2.0])),
    ])
    def test_v_independent_of_data_is_no_trapped_data(self, k, f):
        # the first Broyden update leaves J singular (exactly for k = 2,
        # to working precision for k = 3)
        with pytest.raises(NoTrappedData, match="singular"):
            self._shoot(k, f)

    def test_rank_one_map_traps_on_its_root_line(self):
        # V depends on the data only through x_1 + x_2, so every datum on
        # the line x_1 + x_2 = -1 is trapped; the search reaches one
        f = lambda x: np.array([1.0, 1.0]) * (x[0] + x[1] + 1.0)
        res, ev = self._shoot(3, f)
        assert ev.evaluations == 6 and res.iterations == 5
        assert abs(sum(res.initials) + 1.0) < 1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_v_is_no_trapped_data(self, bad):
        with pytest.raises(NoTrappedData, match="non-finite"):
            self._shoot(2, lambda x: np.array([bad]))

    def test_step_below_tolerance_is_no_trapped_data(self):
        # the root itself does not trap, so the step after the one that
        # reaches it is shorter than tol
        ev = _StubEvaluator(lambda x: 2.5e11 * (x - 3e-6), trap_below=0.0)
        ev.horizon = ev.s_max = reduced.default_shoot_horizon(2)
        with pytest.raises(NoTrappedData, match="below tol"):
            reduced.shoot_trapped(ev)
        assert ev.evaluations == 4

    def test_result_records_the_evaluators_terms(self, tmp_path):
        ev = _StubEvaluator(lambda x: 2.5e11 * (x - 3e-6), tol=1e-9)
        ev.ceiling, ev.horizon, ev.s_max = 0.25, 0.3, 0.4
        res = reduced.shoot_trapped(ev)
        assert res.evaluator is ev
        res.to_json(tmp_path / "shoot.json")
        payload = json.loads((tmp_path / "shoot.json").read_text())
        assert (payload["ceiling"], payload["tol"]) == (0.25, 1e-9)
        assert (payload["horizon"], payload["s_max"]) == (0.3, 0.4)

    def test_step_stops_short_of_the_pole_of_the_data_map(self):
        # at horizon 0.3 the linear law's slope is 1.05e4, so the model's
        # first step u = 71.5 lies far past the pole 1/q_1 = 2.06 of
        # x = u / (1 - q u); shortened to q_1 u = 1/2, it stays on x > 0
        xs = []
        ev = _StubEvaluator(lambda x: xs.append(float(x[0]))
                            or 2.5e11 * (x - 3e-6), tol=1e-9)
        ev.ceiling, ev.horizon, ev.s_max = 0.25, 0.3, 0.4
        res = reduced.shoot_trapped(ev)
        _, q = reduced.mode_law_model(2, 0.3)
        assert min(xs) >= 0.0 and ev.evaluations <= 6
        assert xs[1] == pytest.approx(1.0 / q[0], rel=1e-12)
        assert abs(res.initials[0] - 3e-6) < 1e-12

    def test_horizon_too_short_to_certify(self):
        # every datum traps: x = 0 and the first probe cannot be told apart
        ev = _StubEvaluator(lambda x: np.zeros(1))
        with pytest.raises(NoTrappedData, match="s_max = 0.5"):
            reduced.shoot_trapped(ev)
        assert ev.evaluations == 2
        # with b_k(0) = 0 the zero datum is the trapped point itself
        ev = _StubEvaluator(lambda x: np.zeros(1), b_k0=0.0)
        res = reduced.shoot_trapped(ev)
        assert res.initials == (0.0,) and ev.evaluations == 1

    def test_family_reuses_the_certifying_evaluation(self, monkeypatch):
        # the verification family takes its trapped run from the search
        # instead of evaluating the certified datum again
        stub = _StubEvaluator(lambda x: 2.5e11 * (x - 3e-6))

        def evaluate(self, x):
            self.evaluations += 1
            return stub.evaluate(x)

        monkeypatch.setattr(reduced.TrapEvaluator, "evaluate", evaluate)
        result, _ = verify.VerificationContext().k2_family(+1)
        assert result.evaluator.evaluations == result.evaluations == 3
        assert result.certificate.exit_s is None


def test_readme_library_use():
    # README's "Library use" block runs as written and its comments hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    ns: dict = {}
    exec(compile(code, "README.md (Library use)", "exec"), ns)
    fit = ns["fit"]
    assert fit.rate_fitted == pytest.approx(5.85, rel=0.02)
    assert fit.rate_predicted == pytest.approx(5.85, rel=0.02)
    assert ns["zero"].boundary_slope == math.sqrt(2.0 * ns["zero"].lam)
    assert ns["hv"].shape == ns["basis"].psis[:, 0].shape
    assert ns["shot"].certificate.exit_s is None
    assert ns["v0"][-1] == 0.0
