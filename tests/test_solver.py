"""IMEX stepping of the renormalized flow: guards, conservation, orders."""

import math

import numpy as np
import pytest

import profiles
from stefanlab import bessel, modulation, solver, spectrum, verify
from stefanlab.errors import (BoundaryBlowup, ConservationError,
                              GridMismatch, NonPositiveRadius)
from stefanlab.weighted import RadialGrid, WeightParam, deriv_values, end_slope

W0 = WeightParam(0.0)


def eta_profile(grid, j, amp):
    vals = amp * bessel.eta(j, grid)
    vals[-1] = 0.0
    return vals


def initial_state(grid, v0):
    """(v, lam, a) of a run's first step: unit radius, one-sided slope."""
    return v0, 1.0, end_slope(v0, grid.h)


def dense_stepper(grid, ds):
    """The IMEX ARS(2,2,2) step written out densely: each stage solves
    (I + gamma ds L) u = r with L = -Delta on the interior nodes, column by
    column from H_0, and the drift y v' from deriv_values."""
    n, h = grid.n, grid.h
    g, dl = solver.GAMMA, solver.DELTA
    op = spectrum.assemble_hb(grid, W0)
    lap = np.array([op.apply(e)[:n] for e in np.eye(n + 1)[:n]]).T
    implicit = np.eye(n) + g * ds * lap

    def drift(u):
        return grid.y[:n] * deriv_values(u, h)[:n]

    def stage(r):
        out = np.zeros(n + 1)
        out[:n] = np.linalg.solve(implicit, r)
        return out

    def step(v, lam, a):
        u2 = stage(v[:n] - g * ds * a * drift(v))
        a2 = end_slope(u2, h)
        vnew = stage(v[:n] - (1.0 - g) * ds * (lap @ u2[:n])
                     - ds * (dl * a * drift(v) + (1.0 - dl) * a2 * drift(u2)))
        a_new = end_slope(vnew, h)
        return (vnew, lam * math.exp(-ds * ((1.0 - g) * a2 + g * a_new)),
                a_new)

    return step


def diffusion_step(stepper, v):
    """One ARS(2,2,2) step of v with the drift switched off: the two
    stages of ``Stepper.advance`` at a = a2 = 0."""
    n = stepper.grid.n
    u2 = stepper._stage(v[:n], np.zeros(n))
    g = solver.GAMMA
    out = np.zeros(n + 1)
    stepper._stage(v[:n] - ((1.0 - g) / g) * (v[:n] - u2), out[:n])
    return out


def rel_error(x, ref):
    return float(np.max(np.abs(np.asarray(x) - ref)) / np.max(np.abs(ref)))


class TestStepBasics:
    def test_zero_solution_fixed_point(self, grid512):
        v0 = np.zeros(513)
        v, lam, a = solver.Stepper(grid512, 1e-4).advance(
            *initial_state(grid512, v0))
        assert np.all(v == 0.0)
        assert a == 0.0
        assert lam == 1.0
        # the clock of a one-step run advances by lam^2 ds
        ts = solver.run(grid512, v0, ds=1e-4, s_max=1e-4)
        assert ts.t[-1] == pytest.approx(1e-4)

    def test_dirichlet_preserved_exactly(self, grid512):
        state = initial_state(grid512, eta_profile(grid512, 1, 0.01))
        v, _, _ = solver.Stepper(grid512, 1e-4).advance(*state)
        assert v[-1] == 0.0

    def test_boundary_blowup_guard(self, grid512):
        v, lam, a = initial_state(grid512, eta_profile(grid512, 1, 0.9))
        assert abs(a) > 1.0
        with pytest.raises(BoundaryBlowup):
            solver.Stepper(grid512, 1e-4).advance(v, lam, a)

    def test_nonpositive_radius_guard(self, grid512):
        v, _, a = initial_state(grid512, eta_profile(grid512, 1, 0.01))
        with pytest.raises(NonPositiveRadius):
            solver.Stepper(grid512, 1e-4).advance(v, 0.0, a)

    def test_radius_update_multiplicative(self, grid512):
        v, lam, a = initial_state(grid512, eta_profile(grid512, 1, 0.01))
        _, lam_new, _ = solver.Stepper(grid512, 1e-4).advance(v, lam, a)
        assert lam_new > 0.0
        # freezing direction: a > 0 for a negative slope profile? a is the
        # boundary slope of v; for +eta_1 data the slope is negative, so the
        # radius must grow (melting)
        assert a < 0.0
        assert lam_new > lam


class TestAgainstDenseReference:
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("profile", ["eta1", "random"])
    def test_fifty_steps_match(self, n, profile):
        # the banded drift and the LDL^T solve reorder sums only: 50 steps
        # stay within round-off of the dense solve of the same scheme
        grid = RadialGrid(n)
        if profile == "eta1":
            v0 = eta_profile(grid, 1, 0.01)
        else:
            v0 = 0.01 * profiles.random_dirichlet(
                grid, np.random.default_rng(n))
        ds = solver.default_ds(grid, 1)
        stepper = solver.Stepper(grid, ds)
        dense = dense_stepper(grid, ds)
        state = ref = initial_state(grid, v0)
        for _ in range(50):
            state = stepper.advance(*state)
            ref = dense(*ref)
        assert state[0][-1] == 0.0
        assert rel_error(state[0], ref[0]) <= 1e-12
        assert rel_error(state[1:], np.array(ref[1:])) <= 1e-12

    @pytest.mark.parametrize("n", [64, 512])
    def test_banded_drift_is_y_times_deriv_values(self, n):
        grid = RadialGrid(n)
        stepper = solver.Stepper(grid, solver.default_ds(grid, 1))
        rng = np.random.default_rng(7)
        for v in (bessel.eta(1, grid), bessel.eta(12, grid),
                  profiles.random_dirichlet(grid, rng)):
            ref = grid.y[:n] * deriv_values(v, grid.h)[:n]
            assert rel_error(stepper._drift(v, np.zeros(n)), ref) <= 1e-14


class TestDiffusionDecay:
    def test_eigen_decay_with_frozen_drift(self, grid512, zeros12):
        # the implicit half alone (drift frozen at zero): || v(s) || tracks
        # delta e^{-lam_1 s} to the scheme's accuracy
        stepper = solver.Stepper(grid512, 1e-4)
        delta = 1e-3
        v = delta * bessel.eta(1, grid512)
        v[-1] = 0.0
        nsteps = 2000
        for _ in range(nsteps):
            v = diffusion_step(stepper, v)
        s = nsteps * 1e-4
        norm = math.sqrt(float(np.sum(grid512.simpson * v ** 2 * grid512.y)))
        expect = delta * math.exp(-zeros12[0].lam * s)
        assert abs(norm - expect) / expect < 1e-4

    def test_stiffest_mode_damped(self, grid512):
        # L-stability: one zero-drift step at the default ds damps the
        # stiffest grid mode, which Crank-Nicolson keeps at |R| ~ 1
        n = grid512.n
        op = spectrum.assemble_hb(grid512, W0)
        sym = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
        mu, vecs = np.linalg.eigh(sym)
        v = np.zeros(n + 1)
        # D^-1/2 maps the symmetric form's eigenvector to one of L
        v[:n] = vecs[:, -1] / np.sqrt(op.node_mass)
        stepper = solver.Stepper(grid512, solver.default_ds(grid512, 1))
        ratio = np.linalg.norm(diffusion_step(stepper, v)) / np.linalg.norm(v)
        assert mu[-1] * stepper.ds > 1e3
        assert ratio <= 1e-2


class TestRun:
    def test_zero_data_trivial_run(self, grid512):
        ts = solver.run(grid512, np.zeros(513), ds=1e-4, s_max=0.01)
        assert np.all(ts.lam == 1.0)
        assert np.allclose(ts.mass, math.pi)
        assert ts.reached_floor

    def test_mass_of_zero_state(self, grid512):
        assert solver.mass(grid512, np.zeros(513), 1.0) == pytest.approx(
            math.pi)

    def test_melting_and_freezing_direction(self, grid512):
        # ground-mode data: positive coefficient melts, negative freezes
        for amp, growing in ((0.01, True), (-0.01, False)):
            ts = solver.run(grid512, eta_profile(grid512, 1, amp),
                            ds=4e-4, s_max=0.3)
            assert (ts.lam[-1] > ts.lam[0]) == growing

    def test_records_monotone(self, grid512):
        ts = solver.run(grid512, eta_profile(grid512, 1, 0.01),
                        ds=4e-4, s_max=0.2)
        assert np.all(np.diff(ts.s) > 0)
        assert np.all(np.diff(ts.t) > 0)

    def test_mass_tolerance_enforced(self, grid512, monkeypatch):
        monkeypatch.setattr(solver, "MASS_TOL", 1e-14)
        with pytest.raises(ConservationError):
            solver.run(grid512, eta_profile(grid512, 1, 0.01),
                       ds=4e-4, s_max=0.5)

    def test_nonfinite_state_is_typed(self, grid512, monkeypatch):
        # one NaN from the tridiagonal solve, mid-run: the record that
        # follows raises the typed guard and names the clock
        solve = solver.Stepper._stage
        calls = []

        def solve_once_nan(self, r, out):
            sol = solve(self, r, out)
            calls.append(None)
            if len(calls) == 20:
                sol[7] = np.nan
            return sol

        monkeypatch.setattr(solver.Stepper, "_stage", solve_once_nan)
        with pytest.raises(ConservationError,
                           match=r"^mass drift nan > .* at s = 0\.0040$"):
            solver.run(grid512, eta_profile(grid512, 1, 0.01), ds=4e-4,
                       s_max=0.02)

    def test_profile_checked_at_entry(self, grid512):
        # a profile handed in by a library caller: one sample per node,
        # pinned to 0 at y = 1
        for bad in (np.zeros(512), np.zeros(1025), np.zeros((2, 513))):
            with pytest.raises(GridMismatch, match="513 nodes"):
                solver.run(grid512, bad, ds=4e-4, s_max=0.01)
        v0 = eta_profile(grid512, 1, 0.01)
        v0[-1] = 1e-300
        with pytest.raises(ValueError, match="vanish at y = 1"):
            solver.run(grid512, v0, ds=4e-4, s_max=0.01)

    @pytest.mark.parametrize("ds", [1e-320, np.nan])
    def test_nonfinite_record_cadence_is_typed(self, grid512, ds):
        # RECORD_DS / ds overflows or is NaN: rejected before the first step
        with pytest.raises(ValueError, match=r"^ds must be at least 2e-09 "
                                             r"\(the fixed record cadence "
                                             r"RECORD_DS = 0\.002 over at "
                                             r"most 1e\+06 steps\); got ds = "):
            solver.run(grid512, eta_profile(grid512, 1, 0.01), ds=ds,
                       s_max=0.01)

    def test_tiny_step_is_rejected_before_stepping(self, grid512):
        # finite but astronomically many steps per record: the run would
        # never reach its first record
        with pytest.raises(ValueError, match=r"^ds must be at least 2e-09 "
                                             r"\(the fixed record cadence "
                                             r"RECORD_DS = 0\.002 over at "
                                             r"most 1e\+06 steps\); "
                                             r"got ds = 1e-200$"):
            solver.run(grid512, eta_profile(grid512, 1, 0.01), ds=1e-200,
                       s_max=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_profile_is_typed(self, grid512, bad):
        # the record guard at s = 0 trips before any step is taken
        v0 = eta_profile(grid512, 1, 0.01)
        v0[100] = bad
        with pytest.raises(ConservationError, match=r"at s = 0\.0000$"):
            solver.run(grid512, v0, ds=4e-4, s_max=0.02)

    def test_overflowing_horizon_is_no_bound(self, grid512):
        # s_max / ds overflows a float: the run stops at the norm floor
        # as it does under the default horizon
        v0 = eta_profile(grid512, 1, 0.01)
        ts = solver.run(grid512, v0, ds=solver.default_ds(grid512, 1),
                        s_max=1e308)
        assert ts.reached_floor
        assert ts.s[-1] < 6.0

    def test_taylor_sign_propagates(self, ctx):
        # the boundary slope keeps one sign while the solution is resolved
        for sign in (+1, -1):
            ts = ctx.k1(sign).series
            live = ts.vnorm > 1e-8
            a_live = ts.a[live]
            assert np.all(np.sign(a_live) == np.sign(a_live[0]))

    def test_positivity_on_melting_run(self, ctx, grid1024):
        # the criteria's n = 1024, b0 = +0.01 run, its profiles observed
        v0 = modulation.build_profile(grid1024, 1, [verify.K1_B0])
        lows = []
        ts = solver.run(grid1024, v0, ds=solver.default_ds(grid1024, 1),
                        s_max=verify.K1_S_MAX,
                        observe=lambda s, v: lows.append(np.min(v)))
        assert ts.lam.tobytes() == ctx.k1(+1).series.lam.tobytes()
        assert len(lows) == len(ts.s)
        assert min(lows) >= -1e-10


class TestObserver:
    """``run(..., observe=f)`` hands f each record's profile, once the
    record has passed the mass guard."""

    def test_called_once_per_record_in_order(self, grid512):
        seen = []

        def observe(s, v):
            seen.append((s, float(np.sqrt(np.sum(
                grid512.simpson * v ** 2 * grid512.y)))))

        # s_max off the cadence: the run closes with an extra record
        ts = solver.run(grid512, eta_profile(grid512, 1, 0.01), ds=4e-4,
                        s_max=0.021, observe=observe)
        assert len(seen) == len(ts.s) == 12
        assert [s for s, _ in seen] == list(ts.s)
        # the weighted norm of the observed profile is the recorded one
        assert np.array([n for _, n in seen]).tobytes() == ts.vnorm.tobytes()

    def test_guard_trips_before_observation(self, grid512, monkeypatch):
        seen = []
        monkeypatch.setattr(solver, "MASS_TOL", 1e-14)
        with pytest.raises(ConservationError) as err:
            solver.run(grid512, eta_profile(grid512, 1, 0.01), ds=4e-4,
                       s_max=0.5, observe=lambda s, v: seen.append(s))
        # the failing record is the one after the last observed
        failed = float(str(err.value).rpartition("s = ")[2])
        assert seen and failed == pytest.approx(seen[-1] + solver.RECORD_DS,
                                                abs=1e-4)


class TestDiscreteMaximumPrinciple:
    def test_sign_preservation_under_dmp_step(self):
        grid = RadialGrid(128)
        ds = 0.4 * grid.h ** 2
        stepper = solver.Stepper(grid, ds)
        vals = 0.01 * bessel.eta(1, grid)
        vals[-1] = 0.0
        state = initial_state(grid, vals)
        for _ in range(400):
            state = stepper.advance(*state)
        assert np.min(state[0]) >= -1e-15


class TestConvergence:
    def test_radius_convergence_order(self, monkeypatch):
        # halving h and ds together: second order in both by construction
        # (the coarse levels carry an O(h^2) mass drift of their own)
        monkeypatch.setattr(solver, "RECORD_DS", 0.1)
        monkeypatch.setattr(solver, "MASS_TOL", 1e-3)
        outs = []
        for n, ds in ((128, 3.2e-3), (256, 1.6e-3), (512, 8e-4)):
            grid = RadialGrid(n)
            v0 = eta_profile(grid, 1, -0.01)
            ts = solver.run(grid, v0, ds=ds, s_max=1.0)
            outs.append(ts.lam[-1])
        d1, d2 = abs(outs[0] - outs[1]), abs(outs[1] - outs[2])
        order = math.log2(d1 / d2)
        assert order >= 1.8

    def test_mass_coupling_second_order(self, ctx):
        # the k = 1 mass drift at the default ds falls ~4x per grid
        # doubling: the radius update on the implicit weights keeps the
        # coupled step second order
        for sign in (+1, -1):
            d512, d1024 = (verify._drift(ctx.k1(sign, n).series)
                           for n in (512, 1024))
            assert d512 / d1024 >= 3.0

    def test_time_reconstruction_two_cadences(self, grid512, monkeypatch):
        from stefanlab.asymptotics import time_reconstruction_check

        defects = []
        for rec in (8e-3, 4e-3):
            monkeypatch.setattr(solver, "RECORD_DS", rec)
            ts = solver.run(grid512, eta_profile(grid512, 1, -0.01),
                            ds=4e-4, s_max=0.8)
            defects.append(time_reconstruction_check(ts))
        # trapezoid-in-s error model: quartering with the halved cadence
        assert defects[1] <= defects[0] / 3.0


def test_csv_header(tmp_path, grid512):
    ts = solver.run(grid512, eta_profile(grid512, 1, 0.01),
                    ds=4e-4, s_max=0.05)
    path = tmp_path / "ts.csv"
    ts.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "s,t,lambda,a,mass,l2b_norm"
