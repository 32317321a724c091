"""Mode decomposition, self-consistent ground parameter, energy, residuals."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stefanlab import bessel, modulation, reduced, solver, spectrum
from stefanlab.errors import InsufficientHistory, NonConvergence, SingularGram
from stefanlab.weighted import WeightParam, inner_b

W0 = WeightParam(0.0)


def remainder(v, basis, ms):
    """eps = v - Psi c of a decomposition, pinned at y = 1."""
    eps = v - basis.psis @ ms.coeffs
    eps[-1] = 0.0
    return eps


def norm(grid, f, w):
    """Weighted L2 norm of a profile."""
    return math.sqrt(inner_b(grid, f, f, w))


class TestDecompose:
    def test_pure_mode_recovered(self, grid512):
        w = WeightParam(0.01)
        basis = modulation.Basis.solve(grid512, 0.01, 1)
        v = basis.psis[:, 0].copy()
        ms = modulation.decompose(v, 0.0, basis)
        assert abs(ms.coeffs[0] - 1.0) < 1e-12
        assert norm(grid512, remainder(v, basis, ms), w) < 1e-12

    def test_two_mode_combination(self, grid512):
        w = WeightParam(0.01)
        basis = modulation.Basis.solve(grid512, 0.01, 2)
        v = basis.psis @ np.array([2.0, 3.0])
        ms = modulation.decompose(v, 0.0, basis)
        assert np.allclose(ms.coeffs, [2.0, 3.0], atol=1e-10)
        assert norm(grid512, remainder(v, basis, ms), w) < 1e-10

    def test_orthogonal_mode_goes_to_remainder(self, grid512):
        v = bessel.eta(3, grid512)
        basis = modulation.Basis.solve(grid512, 0.0, 2)
        ms = modulation.decompose(v, 0.0, basis)
        assert np.max(np.abs(ms.coeffs)) < 1e-6
        assert abs(norm(grid512, remainder(v, basis, ms), W0) - 1.0) < 1e-4

    def test_orthogonality_invariant(self, grid512, rng):
        w = WeightParam(0.015)
        basis = modulation.Basis.solve(grid512, w.b, 2)
        for _ in range(4):
            f = spectrum.random_dirichlet(grid512, rng, modes=10)
            eps = remainder(f, basis, modulation.decompose(f, 0.0, basis))
            defect = max(abs(inner_b(grid512, eps, psi, w))
                         for psi in basis.psis.T)
            assert defect <= 1e-10 * (1.0 + norm(grid512, eps, w))

    def test_singular_gram_detected(self, grid512):
        basis = modulation.Basis.solve(grid512, 0.01, 1)
        dup = replace(
            basis,
            psis=np.column_stack([basis.psis[:, 0], basis.psis[:, 0]]),
            lams=np.array([basis.lams[0], basis.lams[0]]),
        )
        v = basis.psis[:, 0].copy()
        with pytest.raises(SingularGram):
            modulation.decompose(v, 0.0, dup)

    def test_gram_formed_once_per_basis(self, grid512, rng, monkeypatch):
        # the inline projection is the bitwise reference for the coefficients
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda a: conds.append(1) or cond(a))
        for k in (1, 2):
            basis = modulation.Basis.solve(grid512, 0.01, k)
            wv = (grid512.simpson * WeightParam(0.01).rho(grid512.y)
                  * grid512.y)
            gram = basis.psis.T @ (wv[:, None] * basis.psis)
            for _ in range(3):
                f = spectrum.random_dirichlet(grid512, rng, modes=10)
                coeffs, _ = basis.split(f)
                want = np.linalg.solve(gram, basis.psis.T @ (wv * f))
                assert coeffs.tobytes() == want.tobytes()
            # no SVD for the 1 x 1 Gram, one for the 2 x 2 one
            assert len(conds) == k - 1

    def test_overflowing_trap_variables(self, grid512):
        # e^{(lam_2 + gap_2) s} overflows a float at s = 30
        v = modulation.build_profile(grid512, 2, [-1e-3, 0.01], 0.01)
        basis = modulation.Basis.solve(grid512, 0.01, 2)
        zero = np.zeros(513)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = modulation.decompose(v, 30.0, basis)
            ms0 = modulation.decompose(zero, 30.0, basis)
        assert ms.V[0] == -math.inf
        assert ms0.coeffs[0] == 0.0 and ms0.V[0] == 0.0


class TestSelfConsistentB1:
    def test_zero_input(self, grid512):
        b, basis, solves = modulation.self_consistent_b1(grid512,
                                                         np.zeros(513))
        assert b == 0.0 and basis.b == 0.0 and solves == 1

    def test_constructed_fixed_point(self, grid512):
        target = 0.01
        basis = modulation.Basis.solve(grid512, target, 1)
        v = target * basis.psis[:, 0]
        got, basis, _ = modulation.self_consistent_b1(grid512, v)
        assert abs(got - target) < 1e-10
        assert basis.b == got

    def test_contraction_of_increments(self, grid512):
        # replicate the iteration and watch |increment| decrease
        amp = 0.03
        v = amp * bessel.eta(1, grid512)
        v[-1] = 0.0
        b = 0.0
        increments = []
        for _ in range(6):
            basis = modulation.Basis.solve(grid512, b, 1)
            w = WeightParam(b)
            psi = basis.psis[:, 0]
            b_new = (inner_b(grid512, v, psi, w)
                     / inner_b(grid512, psi, psi, w))
            increments.append(abs(b_new - b))
            b = b_new
        nontrivial = [x for x in increments if x > 1e-14]
        assert all(x2 < x1 for x1, x2 in zip(nontrivial, nontrivial[1:]))

    def test_nonconvergence_cap(self, grid512):
        v = 0.02 * bessel.eta(1, grid512)
        v[-1] = 0.0
        with pytest.raises(NonConvergence):
            modulation.self_consistent_b1(grid512, v, max_iter=1)


class TestEnergy:
    def test_zero_remainder(self, grid512):
        assert modulation.energy_of(grid512, np.zeros(513), W0) == 0.0

    def test_eigenmode_energy(self, grid1024, zeros12):
        # H_0 eta_2 = lam_2 eta_2, so E = delta^2 lam_2^2 (normalized mode)
        delta = 1e-3
        e = delta * bessel.eta(2, grid1024)
        e[-1] = 0.0
        got = modulation.energy_of(grid1024, e, W0)
        expect = delta ** 2 * zeros12[1].lam ** 2
        assert abs(got - expect) / expect < 1e-3


class TestAdiabaticSchedule:
    def test_initial_value_and_decay(self, zeros12):
        b0 = modulation.adiabatic_b(0.0, 2, 0.02)
        assert b0 == 0.02
        b1 = modulation.adiabatic_b(0.1, 2, 0.02)
        assert b1 == pytest.approx(
            0.02 * math.exp(-zeros12[1].lam * 0.1) / 1.1)

    def test_gap_exponent_in_open_interval(self, zeros12):
        for k in (2, 3, 4):
            g = modulation.gap_exponent(k)
            half_gap = 0.5 * (zeros12[k - 1].lam - zeros12[k - 2].lam)
            assert 0.0 < g < half_gap


class TestModulationResidual:
    def _riccati_states(self, dt_s, n, b0=0.01):
        params = reduced.RiccatiParams.for_mode(1, b0)
        states = []
        for i in range(n):
            s = i * dt_s
            b = reduced.riccati_exact(params, s)
            states.append(modulation.ModulationState(
                s=s, b=b, coeffs=np.array([b]), energy=0.0,
                V=np.zeros(0)))
        return states

    def test_synthetic_riccati_input(self, grid512):
        # pure ODE input at a fine cadence: residual is FD error only
        states = self._riccati_states(1e-4, 41)
        res = modulation.modulation_residual(states, 1e-4, grid512)
        assert res.shape == (41, 1)
        assert np.all(np.isnan(res[[0, -1]]))
        assert np.max(res[1:-1]) <= 1e-8

    def test_zero_history(self, grid512):
        states = [modulation.ModulationState(
            s=i * 1e-3, b=0.0, coeffs=np.zeros(1), energy=0.0,
            V=np.zeros(0))
            for i in range(5)]
        res = modulation.modulation_residual(states, 1e-3, grid512)
        assert np.max(res[1:-1]) == 0.0

    def test_insufficient_history(self, grid512):
        states = self._riccati_states(1e-4, 2)
        with pytest.raises(InsufficientHistory):
            modulation.modulation_residual(states, 1e-4, grid512)

    def test_pde_ratio_bounded(self, ctx):
        # the tracked-law residual over |b1|^{5/2} stays below a fixed
        # ceiling while b1 is resolved (the tail is FD-limited)
        track = ctx.k1_track(+1)
        b1 = track.coeff_array()[1:-1, 0]
        ratio = track.residuals[1:-1, 0] / np.abs(b1) ** 2.5
        sel = np.abs(b1) > 1e-4
        assert np.max(ratio[sel]) < 200.0

    def test_off_cadence_closing_record(self, grid512):
        # at ds = 0.2 h, s_max = 0.1 falls one step after the last record
        # at the cadence (5 steps), so the run closes with a record one step
        # later; the record before it has no centred difference at the
        # cadence
        v0 = modulation.build_profile(grid512, 1, [-0.01])
        ts, track = modulation.track_run(
            grid512, v0, 1, ds=0.2 * grid512.h, s_max=0.1)
        cadence = ts.s[1] - ts.s[0]
        assert ts.s[-1] - ts.s[-2] < 0.5 * cadence
        res = track.residuals
        assert res.shape == (len(ts.s), 1)
        assert np.all(np.isnan(res[[0, -2, -1]]))
        assert np.all(np.isfinite(res[1:-2]))


class TestBoundaryLaw:
    """The run's boundary slope a against the law a = -sqrt(2 lam_1) b_1."""

    def test_k1_defect_scaling(self, ctx, zeros12):
        ts, _ = ctx.k1_run(+1)
        track = ctx.k1_track(+1)
        worst = 0.0
        for a, st in zip(ts.a, track.states):
            b1 = st.coeffs[0]
            if abs(b1) < 1e-6:
                continue
            d = abs(a - zeros12[0].boundary_slope * b1)
            worst = max(worst, d / abs(b1) ** 1.5)
        assert worst < 1.0

    def test_k1_sign_relation(self, ctx):
        ts, _ = ctx.k1_run(+1)
        b1 = ctx.k1_track(+1).coeff_array()[:, 0]
        sel = np.abs(b1) > 1e-8
        assert np.all(np.sign(ts.a[sel]) == -np.sign(b1[sel]))


class TestTrackRun:
    def test_mode_decay_rate_k1(self, ctx, zeros12):
        track = ctx.k1_track(-1)
        s = np.array([st.s for st in track.states])
        b1 = np.abs(track.coeff_array()[:, 0])
        sel = (b1 > 1e-8) & (b1 < 1e-4)
        rate = -np.polyfit(s[sel], np.log(b1[sel]), 1)[0]
        assert abs(rate - zeros12[0].lam) / zeros12[0].lam < 0.02

    def test_mode_decay_rate_k2_trapped(self, ctx, zeros12):
        track = ctx.k2_family(+1)["result"].certificate.track
        s = np.array([st.s for st in track.states])
        b2 = np.abs(track.coeff_array()[:, 1])
        sel = (b2 > 1e-8) & (b2 < 1e-4)
        rate = -np.polyfit(s[sel], np.log(b2[sel]), 1)[0]
        assert abs(rate - zeros12[1].lam) / zeros12[1].lam < 0.02

    def test_trap_variables_stay_below_ceiling(self, ctx):
        track = ctx.k2_family(+1)["result"].certificate.track
        v2 = np.array([float(np.sum(st.V ** 2)) for st in track.states])
        assert np.max(v2) <= 1.0

    def test_energy_positive_and_finite(self, ctx):
        track = ctx.k1_track(+1)
        E = np.array([st.energy for st in track.states])
        assert np.all(np.isfinite(E))
        assert np.all(E >= 0.0)

    def test_csv_output(self, ctx, tmp_path):
        track = ctx.k1_track(+1)
        path = tmp_path / "mod.csv"
        track.to_csv(path)
        head = path.read_text().splitlines()[0]
        assert head.split(",")[:4] == ["s", "b", "b_1", "E"]


def observed_profiles(run):
    """(s, copy of v) of each record of the run that ``track_run(**run)``
    makes, from an observer of :func:`solver.run`, with the series."""
    profiles = []
    series = solver.run(run["grid"], run["v0"], run["ds"], run["s_max"],
                        record_ds=run["record_ds"],
                        observe=lambda s, v: profiles.append((s, v.copy())))
    return profiles, series


def k1_run(grid, b0=0.01, **steps):
    """track_run arguments of a k = 1 run from b_1(0) = b0."""
    return dict(grid=grid, v0=modulation.build_profile(grid, 1, [b0]), k=1,
                ds=solver.default_ds(grid, 1), **steps)


def k2_run(grid, **steps):
    """track_run arguments of a k = 2 run from (b_1, b_2)(0) = (1e-5, 0.01)."""
    return dict(grid=grid, v0=modulation.build_profile(grid, 2, [1e-5, 0.01]),
                k=2, ds=solver.default_ds(grid, 2), **steps)


class TestK1BasisReuse:
    """k = 1 tracking reuses the previous record's basis and operator; the
    reference loop solves every basis and assembles every H_b afresh."""

    @pytest.fixture(scope="class")
    def run(self, grid512):
        # run to the norm floor at a coarse record cadence: records on both
        # sides of B_FREEZE are part of the run
        return k1_run(grid512, -0.01, s_max=6.0, record_ds=1e-2)

    @pytest.fixture(scope="class")
    def profiles(self, run):
        profiles, series = observed_profiles(run)
        assert series.reached_floor
        return profiles

    @staticmethod
    def fresh_states(grid, profiles, monkeypatch):
        # every eigensolve cold: the LAPACK path, without a start basis
        cold = spectrum.eigenpairs
        monkeypatch.setattr(
            spectrum, "eigenpairs",
            lambda grid, w, count, operator=None, start=None:
                cold(grid, w, count, operator=operator))
        states, solves, b1 = [], 0, None
        for s, v in profiles:
            b1, basis, n = modulation.self_consistent_b1(grid, v, initial=b1)
            solves += n
            bare = replace(basis, operator=None)
            states.append(modulation.decompose(v, s, bare))
        monkeypatch.undo()
        return states, solves

    def test_close_to_fresh_solves(self, run, profiles, monkeypatch):
        # warm-started bases differ from cold ones at round-off: b and the
        # coefficients by <= 1.1e-15 relative; E = ||H_b eps||^2 by <= 1e-6
        # relative where it is above ~1e-21, while at s = 0, where eps is
        # round-off, E itself is ~1e-24
        series, track = modulation.track_run(**run)
        ref, ref_solves = self.fresh_states(run["grid"], profiles,
                                            monkeypatch)
        assert len(track.states) == len(ref) == len(series.s)
        for got, want in zip(track.states, ref):
            assert abs(got.b - want.b) <= 1e-14 * abs(want.b)
            assert np.allclose(got.coeffs, want.coeffs, rtol=1e-14, atol=0.0)
            assert abs(got.energy - want.energy) <= (1e-6 * want.energy
                                                     + 1e-21)
        assert track.n_basis_refreshes < ref_solves

    def test_at_most_two_cold_eigensolves(self, run, monkeypatch):
        # only the first record's first solve has no start basis; a warm
        # result that failed its checks would add a cold solve
        calls = []
        eigh = spectrum.lowest_eigh_tridiagonal

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(spectrum, "lowest_eigh_tridiagonal", counted)
        _, track = modulation.track_run(**run)
        assert len(calls) <= 2 < track.n_basis_refreshes

    def test_repeatable_bytes(self, run, tmp_path):
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            modulation.track_run(**run)[1].to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_refresh_count_is_eigensolve_count(self, run, monkeypatch):
        calls = []
        solve = spectrum.eigenpairs

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectrum, "eigenpairs", counted)
        _, track = modulation.track_run(**run)
        assert track.n_basis_refreshes == len(calls)
        assert len(calls) <= 2 * len(track.states)


class TestExactBasis:
    """Each record is decomposed on the basis solved at exactly its b."""

    @pytest.fixture(scope="class")
    def k1(self, grid512):
        return k1_run(grid512, s_max=0.1, record_ds=1e-2)

    @pytest.fixture(scope="class")
    def k2(self, grid512):
        return k2_run(grid512, s_max=0.05, record_ds=2e-3)

    @staticmethod
    def decomposed(monkeypatch, run, **kwargs):
        seen = []
        decompose = modulation.decompose

        def spy(v, s, basis):
            seen.append((s, basis))
            return decompose(v, s, basis)

        monkeypatch.setattr(modulation, "decompose", spy)
        series, track = modulation.track_run(**run, **kwargs)
        monkeypatch.undo()
        return series, track, seen

    @pytest.mark.parametrize("k", [1, 2])
    def test_basis_parameter_is_decomposed_parameter(self, k, request,
                                                     monkeypatch):
        run = request.getfixturevalue(f"k{k}")
        series, track, seen = self.decomposed(monkeypatch, run)
        assert len(seen) == len(series.s)
        bs = [basis.b for _, basis in seen]
        assert all(abs(b) >= modulation.B_FREEZE for b in bs)
        assert [st.b for st in track.states] == bs
        if k == 1:
            # the self-consistent parameter: b_1 of the decomposition
            assert all(abs(st.coeffs[0] - st.b) < 1e-11
                       for st in track.states)
        else:
            assert bs == [modulation.adiabatic_b(s, 2) for s, _ in seen]

    def test_k2_bases_are_fresh_solves(self, k2, monkeypatch):
        # the first record's basis is a cold solve, each later one the
        # solve warm-started from the previous record's basis, which stays
        # within round-off of the cold solve
        _, _, seen = self.decomposed(monkeypatch, k2)
        grid = k2["grid"]
        previous = None
        for _, basis in seen:
            fresh = modulation.Basis.solve(grid, basis.b, 2, start=previous)
            assert basis.psis.tobytes() == fresh.psis.tobytes()
            assert basis.lams.tobytes() == fresh.lams.tobytes()
            assert basis.operator is None
            cold = modulation.Basis.solve(grid, basis.b, 2)
            assert np.max(np.abs(basis.psis - cold.psis)) <= 1e-10
            assert np.all(np.abs(basis.lams - cold.lams)
                          <= 1e-14 * np.abs(cold.lams))
            previous = basis

    def test_k2_track_makes_one_cold_eigensolve(self, k2, monkeypatch):
        # only the first record's basis comes from the cold LAPACK solve
        cold = []
        solve = spectrum.lowest_eigh_tridiagonal

        def counted(*args, **kwargs):
            cold.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectrum, "lowest_eigh_tridiagonal", counted)
        series, track = modulation.track_run(**k2, basis_cache={})
        assert len(cold) == 1
        assert track.n_basis_refreshes == len(series.s) > 1

    def test_shared_cache_solves_each_b_once(self, k2, monkeypatch):
        calls = []
        solve = spectrum.eigenpairs

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectrum, "eigenpairs", counted)
        cache = {}
        _, first = modulation.track_run(**k2, basis_cache=cache)
        assert first.n_basis_refreshes == len(calls) == len(cache)
        assert len(cache) == len({st.b for st in first.states})
        del calls[:]
        _, second = modulation.track_run(**k2, basis_cache=cache)
        assert second.n_basis_refreshes == 0 and not calls
        for a, b in zip(first.states, second.states):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()


class TestStreamedTrack:
    """Decomposing each record inside the run gives the floats of the
    two-pass loop that decomposes a completed run's copied profiles."""

    @staticmethod
    def two_pass(grid, k, profiles):
        cache = {}
        states, solves = [], 0
        b, basis = None, None
        for s, v in profiles:
            if k == 1:
                b, basis, n = modulation.self_consistent_b1(
                    grid, v, initial=b, basis=basis)
                solves += n
            else:
                basis = modulation.scheduled_basis(
                    cache, grid, k, s, modulation.ADIABATIC_AMPLITUDE,
                    start=basis)
            states.append(modulation.decompose(v, s, basis))
        residuals = modulation.modulation_residual(
            states, profiles[1][0] - profiles[0][0], grid)
        return states, residuals, solves + len(cache)

    @pytest.mark.parametrize("make_run", [k1_run, k2_run])
    def test_bitwise_equal_to_two_pass(self, grid512, make_run):
        run = make_run(grid512, s_max=0.3, record_ds=1e-2)
        series, track = modulation.track_run(**run)
        profiles, again = observed_profiles(run)
        assert again.s.tobytes() == series.s.tobytes()
        states, residuals, solves = self.two_pass(grid512, run["k"],
                                                  profiles)
        assert len(track.states) == len(states) == len(series.s) > 3
        for got, want in zip(track.states, states):
            assert (got.s, got.b, got.energy) == (want.s, want.b,
                                                  want.energy)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.V.tobytes() == want.V.tobytes()
        assert track.residuals.tobytes() == residuals.tobytes()
        assert track.n_basis_refreshes == solves


class TestProfileBuilder:
    def test_profile_matches_coefficients(self, grid512):
        for k, coeffs in ((1, [0.01]), (2, [0.003, 0.01])):
            v = modulation.build_profile(grid512, k, coeffs)
            # the basis the run's first record is decomposed on
            b = 0.01 if k == 1 else modulation.adiabatic_b(0.0, 2)
            basis = modulation.Basis.solve(grid512, b, k)
            ms = modulation.decompose(v, 0.0, basis)
            assert np.allclose(ms.coeffs, coeffs, atol=1e-12)
            assert v[-1] == 0.0

    def test_scheduled_profile_reads_the_schedule_cache(self, grid512,
                                                        monkeypatch):
        # the b(0) entry of the schedule is its cold solve, so the cached
        # basis builds the same bytes as a solve of its own
        coeffs = [0.003, 0.01]
        alone = modulation.build_profile(grid512, 2, coeffs)
        cache = {}
        cached = modulation.build_profile(grid512, 2, coeffs, cache=cache)
        assert cached.tobytes() == alone.tobytes()
        assert list(cache) == [modulation.adiabatic_b(0.0, 2)]
        calls = []
        solve = spectrum.eigenpairs

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectrum, "eigenpairs", counted)
        again = modulation.build_profile(grid512, 2, [0.001, 0.01],
                                         cache=cache)
        assert not calls and again.tobytes() != cached.tobytes()

    def test_trap_evaluations_make_one_cold_eigensolve(self, grid512,
                                                       monkeypatch):
        # the profiles of every evaluation and the tracks of their runs
        # share the evaluator's schedule, whose only cold solve is b(0)
        cold = []
        solve = spectrum.lowest_eigh_tridiagonal

        def counted(*args, **kwargs):
            cold.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectrum, "lowest_eigh_tridiagonal", counted)
        ev = reduced.TrapEvaluator(2, 0.01, grid512, s_max=0.02)
        for lower in ([0.0], [1e-6], [-1e-6]):
            ev.evaluate(lower)
        assert len(cold) == 1 and ev.evaluations == 3
