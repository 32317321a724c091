"""Mode decomposition, self-consistent ground parameter, energy, residuals."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import profiles
from stefanlab import bessel, modulation, reduced, solver, spectrum
from stefanlab.errors import ConfigError, NonConvergence
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
        ms = modulation.decompose(v, 0.0, basis, basis.coefficients(v))
        assert abs(ms.coeffs[0] - 1.0) < 1e-12
        assert norm(grid512, remainder(v, basis, ms), w) < 1e-12

    def test_two_mode_combination(self, grid512):
        w = WeightParam(0.01)
        basis = modulation.Basis.solve(grid512, 0.01, 2)
        v = basis.psis @ np.array([2.0, 3.0])
        ms = modulation.decompose(v, 0.0, basis, basis.coefficients(v))
        assert np.allclose(ms.coeffs, [2.0, 3.0], atol=1e-10)
        assert norm(grid512, remainder(v, basis, ms), w) < 1e-10

    def test_orthogonal_mode_goes_to_remainder(self, grid512):
        v = bessel.eta(3, grid512)
        basis = modulation.Basis.solve(grid512, 0.0, 2)
        ms = modulation.decompose(v, 0.0, basis, basis.coefficients(v))
        assert np.max(np.abs(ms.coeffs)) < 1e-6
        assert abs(norm(grid512, remainder(v, basis, ms), W0) - 1.0) < 1e-4

    def test_orthogonality_invariant(self, grid512, rng):
        w = WeightParam(0.015)
        basis = modulation.Basis.solve(grid512, w.b, 2)
        for _ in range(4):
            f = profiles.random_dirichlet(grid512, rng, modes=10)
            eps = remainder(f, basis, modulation.decompose(
                f, 0.0, basis, basis.coefficients(f)))
            defect = max(abs(inner_b(grid512, eps, psi, w))
                         for psi in basis.psis.T)
            assert defect <= 1e-10 * (1.0 + norm(grid512, eps, w))

    def test_gram_formed_once_per_basis(self, grid512, rng):
        # the inline projection is the bitwise reference for the coefficients
        for k in (1, 2):
            basis = modulation.Basis.solve(grid512, 0.01, k)
            wv = (grid512.simpson * WeightParam(0.01).rho(grid512.y)
                  * grid512.y)
            gram = basis.psis.T @ (wv[:, None] * basis.psis)
            for _ in range(3):
                f = profiles.random_dirichlet(grid512, rng, modes=10)
                coeffs = basis.coefficients(f)
                want = np.linalg.solve(gram, basis.psis.T @ (wv * f))
                assert coeffs.tobytes() == want.tobytes()
            # the first projection formed the Gram; every later one reads it
            formed = basis.__dict__["_gram"]
            basis.coefficients(f)
            assert basis._gram is formed
            assert formed.tobytes() == gram.tobytes()

    def test_k1_division_is_the_solve(self, grid512, rng):
        # a 1 x 1 Gram is solved by division, bitwise np.linalg.solve's
        family = spectrum.basis_family(grid512, 1)
        for b in rng.uniform(-0.05, 0.05, 8):
            basis = family.at(b)
            wv = grid512.simpson * WeightParam(b).rho(grid512.y) * grid512.y
            gram = basis.psis.T @ (wv[:, None] * basis.psis)
            for _ in range(4):
                f = profiles.random_dirichlet(grid512, rng, modes=10)
                coeffs = basis.coefficients(f)
                want = np.linalg.solve(gram, basis.psis.T @ (wv * f))
                assert coeffs.tobytes() == want.tobytes()
                assert basis.coefficients(f).tobytes() == want.tobytes()

    def test_overflowing_trap_variables(self, grid512):
        # e^{(lam_2 + gap_2) s} overflows a float at s = 30
        v = modulation.build_profile(grid512, 2, [-1e-3, 0.01])
        basis = modulation.Basis.solve(grid512, 0.01, 2)
        zero = np.zeros(513)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = modulation.decompose(v, 30.0, basis, basis.coefficients(v))
            ms0 = modulation.decompose(zero, 30.0, basis,
                                       basis.coefficients(zero))
        assert ms.V[0] == -math.inf
        assert ms0.coeffs[0] == 0.0 and ms0.V[0] == 0.0


class TestSelfConsistentB1:
    def test_zero_input(self, grid512):
        basis, coeffs = modulation.self_consistent_b1(grid512, np.zeros(513))
        assert basis.b == 0.0 and coeffs[0] == 0.0

    def test_constructed_fixed_point(self, grid512):
        target = 0.01
        basis = modulation.Basis.solve(grid512, target, 1)
        v = target * basis.psis[:, 0]
        basis, coeffs = modulation.self_consistent_b1(grid512, v)
        got = basis.b
        assert abs(got - target) < 1e-10
        assert abs(coeffs[0] - got) <= 1e-12

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

    def test_fixed_point_matches_inner_b_ratio(self, grid512, monkeypatch):
        # F(b) is the basis's projection coefficient; the ratio of two
        # inner_b sums on the same bases gives the same b to round-off over
        # every record of a run to the norm floor (235 of the 409 differ,
        # by at most 5.1e-16 relative)
        monkeypatch.setattr(solver, "RECORD_DS", 1e-2)
        run = k1_run(grid512, 0.01, s_max=6.0)
        profiles, series = observed_profiles(run)
        assert series.vnorm[-1] < solver.NORM_FLOOR
        family = spectrum.basis_family(grid512, 1)
        got = want = None
        for _, v in profiles:
            basis, coeffs = modulation.self_consistent_b1(grid512, v,
                                                          initial=got)
            got = basis.b
            assert abs(coeffs[0] - got) <= min(1e-12, 1e-6 * abs(coeffs[0]))
            b = 0.0 if want is None else want
            for _ in range(50):
                psi = family.at(b).psis[:, 0]
                w = WeightParam(b)
                b_new = (inner_b(grid512, v, psi, w)
                         / inner_b(grid512, psi, psi, w))
                if abs(b_new - b) <= min(1e-12, 1e-6 * abs(b_new)):
                    break
                b = b_new
            want = b
            assert abs(got - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("k, coeffs, steps", [
        (1, [0.01], dict(s_max=6.0, cadence=1e-2)),
        # the n = 512 shoot's trapped b_1(0), as the k2_512 reference run
        (2, [-1.09975e-05, 0.01],
         dict(s_max=solver.default_s_max(2), cadence=solver.RECORD_DS)),
    ])
    def test_every_record_moves_b(self, grid512, k, coeffs, steps,
                                  monkeypatch):
        # to the norm floor b_k falls far below the absolute tol 1e-12,
        # where the stop turns relative: b stays within 1e-6 of b_k and
        # never repeats the previous record's b
        monkeypatch.setattr(solver, "RECORD_DS", steps["cadence"])
        v0 = modulation.build_profile(grid512, k, coeffs)
        series, track = modulation.track_run(
            grid512, v0, k, ds=solver.default_ds(grid512, k),
            s_max=steps["s_max"])
        assert series.vnorm[-1] < solver.NORM_FLOOR
        prev = None
        for st in track.states:
            c = st.coeffs[k - 1]
            assert abs(st.b - c) <= min(1e-12, 1e-6 * abs(c))
            assert st.b != prev
            prev = st.b

    def test_nonconvergence_cap(self, grid512, monkeypatch):
        monkeypatch.setattr(modulation, "FIXED_POINT_MAX_ITER", 1)
        v = 0.02 * bessel.eta(1, grid512)
        v[-1] = 0.0
        with pytest.raises(NonConvergence):
            modulation.self_consistent_b1(grid512, v)


class TestEnergy:
    def test_zero_remainder(self, grid512):
        op = spectrum.assemble_hb(grid512, W0)
        assert modulation.energy_of(op, np.zeros(513)) == 0.0

    def test_eigenmode_energy(self, grid1024, zeros12):
        # H_0 eta_2 = lam_2 eta_2, so E = delta^2 lam_2^2 (normalized mode)
        delta = 1e-3
        e = delta * bessel.eta(2, grid1024)
        e[-1] = 0.0
        got = modulation.energy_of(spectrum.assemble_hb(grid1024, W0), e)
        expect = delta ** 2 * zeros12[1].lam ** 2
        assert abs(got - expect) / expect < 1e-3


class TestAdiabaticSchedule:
    def test_trap_rate_gap_in_open_interval(self, zeros12):
        for k in (2, 3, 4):
            g = modulation.trap_rate(k) - zeros12[k - 1].lam
            half_gap = 0.5 * (zeros12[k - 1].lam - zeros12[k - 2].lam)
            assert 0.0 < g < half_gap


class TestModulationResidual:
    def _riccati_states(self, dt_s, n, b0=0.01):
        states = []
        for i in range(n):
            s = i * dt_s
            b = reduced.riccati_exact(1, b0, s)
            states.append(modulation.ModulationState(
                s=s, b=b, coeffs=np.array([b]), energy=0.0,
                V=np.zeros(0)))
        return states

    def test_synthetic_riccati_input(self):
        # pure ODE input at a fine cadence: residual is FD error only
        states = self._riccati_states(1e-4, 41)
        res = modulation.modulation_residual(states)
        assert res.shape == (41, 1)
        assert np.all(np.isnan(res[[0, -1]]))
        assert np.max(res[1:-1]) <= 1e-8

    def test_zero_history(self):
        states = [modulation.ModulationState(
            s=i * 1e-3, b=0.0, coeffs=np.zeros(1), energy=0.0,
            V=np.zeros(0))
            for i in range(5)]
        res = modulation.modulation_residual(states)
        assert np.max(res[1:-1]) == 0.0

    def test_insufficient_history(self):
        states = self._riccati_states(1e-4, 2)
        with pytest.raises(ConfigError, match=">= 3 states"):
            modulation.modulation_residual(states)

    def test_pde_ratio_bounded(self, ctx):
        # the tracked-law residual over |b1|^{5/2} stays below a fixed
        # ceiling while b1 is resolved (the tail is FD-limited)
        track = ctx.k1(+1).track
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
        run = ctx.k1(+1)
        worst = 0.0
        for a, st in zip(run.series.a, run.track.states):
            b1 = st.coeffs[0]
            if abs(b1) < 1e-6:
                continue
            d = abs(a - zeros12[0].boundary_slope * b1)
            worst = max(worst, d / abs(b1) ** 1.5)
        assert worst < 1.0

    def test_k1_sign_relation(self, ctx):
        ts = ctx.k1(+1).series
        b1 = ctx.k1(+1).track.coeff_array()[:, 0]
        sel = np.abs(b1) > 1e-8
        assert np.all(np.sign(ts.a[sel]) == -np.sign(b1[sel]))


class TestTrackRun:
    def test_mode_decay_rate_k1(self, ctx, zeros12):
        track = ctx.k1(-1).track
        s = np.array([st.s for st in track.states])
        b1 = np.abs(track.coeff_array()[:, 0])
        sel = (b1 > 1e-8) & (b1 < 1e-4)
        rate = -np.polyfit(s[sel], np.log(b1[sel]), 1)[0]
        assert abs(rate - zeros12[0].lam) / zeros12[0].lam < 0.02

    def test_mode_decay_rate_k2_trapped(self, ctx, zeros12):
        track = ctx.k2_family(+1)[0].certificate.track
        s = np.array([st.s for st in track.states])
        b2 = np.abs(track.coeff_array()[:, 1])
        sel = (b2 > 1e-8) & (b2 < 1e-4)
        rate = -np.polyfit(s[sel], np.log(b2[sel]), 1)[0]
        assert abs(rate - zeros12[1].lam) / zeros12[1].lam < 0.02

    def test_trap_variables_stay_below_ceiling(self, ctx):
        track = ctx.k2_family(+1)[0].certificate.track
        v2 = np.array([float(np.sum(st.V ** 2)) for st in track.states])
        assert np.max(v2) <= 1.0

    def test_energy_positive_and_finite(self, ctx):
        track = ctx.k1(+1).track
        E = np.array([st.energy for st in track.states])
        assert np.all(np.isfinite(E))
        assert np.all(E >= 0.0)

    def test_csv_output(self, ctx, tmp_path):
        track = ctx.k1(+1).track
        path = tmp_path / "mod.csv"
        track.to_csv(path)
        head = path.read_text().splitlines()[0]
        assert head.split(",")[:4] == ["s", "b", "b_1", "E"]

    def test_k2_csv_of_two_records(self, grid512, tmp_path):
        # a run to s_max = 1e-3 keeps its first record and its closing one:
        # too few for centred differences, so every residual is NaN
        run = modulation.scenario(grid512, 2, [1e-5, 0.01], s_max=1e-3)
        assert len(run.track.states) == len(run.series.s) == 2
        path = tmp_path / "modulation.csv"
        run.track.to_csv(path)
        head, *rows = path.read_text().splitlines()
        assert head.split(",")[2:] == ["b_1", "b_2", "E", "V_1",
                                       "residual_1", "residual_2"]
        assert len(rows) == 2
        assert all(row.split(",")[-2:] == ["nan", "nan"] for row in rows)
        assert np.all(np.isnan(run.track.residuals))


def observed_profiles(run):
    """(s, copy of v) of each record of the run that ``track_run(**run)``
    makes, from an observer of :func:`solver.run`, with the series."""
    profiles = []
    series = solver.run(run["grid"], run["v0"], run["ds"], run["s_max"],
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


def counted(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` from here on."""
    calls = []
    fn = getattr(module, name)

    def count(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


class ColdFamily:
    """A family whose basis at b is the cold solve there."""

    def __init__(self, grid, k):
        self.grid, self.k = grid, k

    def at(self, b):
        return modulation.Basis.solve(self.grid, b, self.k)


class TestK1BasisReuse:
    """k = 1 tracking reuses the family's node solves for every record; the
    reference loop solves every basis and assembles every H_b afresh."""

    @pytest.fixture(scope="class")
    def run(self, grid512):
        # run to the norm floor at a coarse record cadence: b_1 falls from
        # 1e-2 to ~1e-12, across the family's whole range of scales
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "RECORD_DS", 1e-2)
            yield k1_run(grid512, -0.01, s_max=6.0)

    @pytest.fixture(scope="class")
    def profiles(self, run):
        profiles, series = observed_profiles(run)
        assert series.vnorm[-1] < solver.NORM_FLOOR
        return profiles

    @staticmethod
    def fresh_states(grid, profiles, monkeypatch):
        # every basis a cold LAPACK solve at its b, and every H_b assembled
        # afresh at it: a copy of the basis carries no operator yet
        monkeypatch.setattr(spectrum, "basis_family", ColdFamily)
        states, b1 = [], None
        for s, v in profiles:
            basis, _ = modulation.self_consistent_b1(grid, v, initial=b1)
            b1 = basis.b
            bare = replace(basis)
            assert "operator" not in vars(bare)
            states.append(modulation.decompose(v, s, bare,
                                               bare.coefficients(v)))
        monkeypatch.undo()
        return states

    def test_close_to_fresh_solves(self, run, profiles, monkeypatch):
        # interpolated bases differ from cold ones at round-off: b and the
        # coefficients by <= 1.1e-15 relative; E = ||H_b eps||^2 by <= 1e-6
        # relative where it is above ~1e-21, while at s = 0, where eps is
        # round-off, E itself is ~1e-24
        series, track = modulation.track_run(**run)
        ref = self.fresh_states(run["grid"], profiles, monkeypatch)
        assert len(track.states) == len(ref) == len(series.s)
        for got, want in zip(track.states, ref):
            assert abs(got.b - want.b) <= 1e-14 * abs(want.b)
            assert np.allclose(got.coeffs, want.coeffs, rtol=1e-14, atol=0.0)
            assert abs(got.energy - want.energy) <= (1e-6 * want.energy
                                                     + 1e-21)

    def test_repeatable_bytes(self, run, tmp_path):
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            modulation.track_run(**run)[1].to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestExactBasis:
    """Each record is decomposed on the family's basis at exactly its b."""

    #: record cadence of each k's runs
    CADENCE = {1: 1e-2, 2: 2e-3}

    @pytest.fixture(scope="class")
    def k1(self, grid512):
        return k1_run(grid512, s_max=0.1)

    @pytest.fixture(scope="class")
    def k2(self, grid512):
        return k2_run(grid512, s_max=0.05)

    @classmethod
    def decomposed(cls, monkeypatch, run):
        seen = []
        decompose = modulation.decompose

        def spy(v, s, basis, *given):
            seen.append((s, basis))
            return decompose(v, s, basis, *given)

        monkeypatch.setattr(modulation, "decompose", spy)
        monkeypatch.setattr(solver, "RECORD_DS", cls.CADENCE[run["k"]])
        series, track = modulation.track_run(**run)
        monkeypatch.undo()
        return series, track, seen

    @pytest.mark.parametrize("k", [1, 2])
    def test_basis_parameter_is_decomposed_parameter(self, k, request,
                                                     monkeypatch):
        run = request.getfixturevalue(f"k{k}")
        series, track, seen = self.decomposed(monkeypatch, run)
        assert len(seen) == len(series.s)
        bs = [basis.b for _, basis in seen]
        assert [st.b for st in track.states] == bs
        # the self-consistent parameter: b_k of the decomposition
        assert all(abs(st.coeffs[k - 1] - st.b) < 1e-11
                   for st in track.states)

    def test_k2_bases_are_fresh_solves(self, k2, monkeypatch):
        # each record's basis is the family's at its b, whatever came
        # before, and within the cold solver's noise of the cold solve
        _, _, seen = self.decomposed(monkeypatch, k2)
        grid = k2["grid"]
        for _, basis in seen:
            fresh = spectrum.basis_family(grid, 2).at(basis.b)
            assert basis.psis.tobytes() == fresh.psis.tobytes()
            assert basis.lams.tobytes() == fresh.lams.tobytes()
            # its energy read H_b assembled at its own b
            op = spectrum.assemble_hb(grid, WeightParam(basis.b))
            assert basis.operator.half_flux.tobytes() == op.half_flux.tobytes()
            assert basis.operator.node_mass.tobytes() == op.node_mass.tobytes()
            cold = modulation.Basis.solve(grid, basis.b, 2)
            assert np.max(np.abs(basis.psis - cold.psis)) <= 5e-11
            assert np.all(np.abs(basis.lams - cold.lams)
                          <= 2e-15 * np.abs(cold.lams))

    @pytest.mark.parametrize("k", [1, 2])
    def test_family_nodes_are_the_only_eigensolves(self, k, request,
                                                   monkeypatch):
        # the profile and the track of the first run on a grid solve the
        # family's nodes, and a second run solves nothing
        run = request.getfixturevalue(f"k{k}")
        monkeypatch.setattr(solver, "RECORD_DS", self.CADENCE[k])
        spectrum.basis_family.cache_clear()
        calls = counted(monkeypatch, spectrum, "eigenpairs")
        modulation.build_profile(run["grid"], k, [1e-5, 0.01][-k:])
        modulation.track_run(**run)
        assert len(calls) == spectrum.FAMILY_NODES
        modulation.track_run(**run)
        assert len(calls) == spectrum.FAMILY_NODES


def test_trap_rate_read_once_per_track(grid512, monkeypatch):
    # trap_rate is memoized, so a track reads the Bessel zeros a fixed
    # number of times (the trap rate, the residuals' couplings and slopes),
    # whatever its number of records
    modulation.track_run(**k2_run(grid512, s_max=0.02))
    reads = []
    for s_max in (0.02, 0.04):
        run = k2_run(grid512, s_max=s_max)
        modulation.trap_rate.cache_clear()
        calls = counted(monkeypatch, bessel, "j0_zeros")
        series, track = modulation.track_run(**run)
        monkeypatch.undo()
        assert len(track.states) == len(series.s) > 3
        reads.append((len(calls), len(series.s)))
    (short, n_short), (long, n_long) = reads
    assert n_long > n_short > short == long


def test_k2_track_samples_no_eigenfunction(grid512, monkeypatch):
    # the residuals' couplings are closed forms in the zeros, so a tracked
    # k = 2 run samples no eta_j and no eta_j'
    def refuse(j, grid):
        raise AssertionError(f"a track sampled a Bessel mode (j = {j})")

    monkeypatch.setattr(bessel, "eta", refuse)
    monkeypatch.setattr(bessel, "eta_deriv", refuse)
    series, track = modulation.track_run(**k2_run(grid512, s_max=0.02))
    assert len(track.states) == len(series.s) > 3
    assert np.isfinite(track.residuals[1, 0])


class TestStreamedTrack:
    """Decomposing each record inside the run gives the floats of the
    two-pass loop that decomposes a completed run's copied profiles."""

    @staticmethod
    def two_pass(grid, k, profiles):
        states = []
        b = None
        for s, v in profiles:
            # the basis projects again, the reference for the fixed point's
            # coefficients that the track hands over
            basis, _ = modulation.self_consistent_b1(grid, v, initial=b, k=k)
            b = basis.b
            states.append(modulation.decompose(v, s, basis,
                                               basis.coefficients(v)))
        residuals = modulation.modulation_residual(states)
        return states, residuals

    @pytest.mark.parametrize("make_run", [k1_run, k2_run])
    def test_bitwise_equal_to_two_pass(self, grid512, make_run, monkeypatch):
        monkeypatch.setattr(solver, "RECORD_DS", 1e-2)
        run = make_run(grid512, s_max=0.3)
        series, track = modulation.track_run(**run)
        profiles, again = observed_profiles(run)
        assert again.s.tobytes() == series.s.tobytes()
        states, residuals = self.two_pass(grid512, run["k"], profiles)
        assert len(track.states) == len(states) == len(series.s) > 3
        for got, want in zip(track.states, states):
            assert (got.s, got.b, got.energy) == (want.s, want.b,
                                                  want.energy)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.V.tobytes() == want.V.tobytes()
        assert track.residuals.tobytes() == residuals.tobytes()


class TestProfileBuilder:
    def test_profile_matches_coefficients(self, grid512):
        for k, coeffs in ((1, [0.01]), (2, [0.003, 0.01])):
            v = modulation.build_profile(grid512, k, coeffs)
            # the basis the run's first record is decomposed on, at b_k(0)
            basis = modulation.Basis.solve(grid512, coeffs[-1], k)
            ms = modulation.decompose(v, 0.0, basis, basis.coefficients(v))
            assert np.allclose(ms.coeffs, coeffs, atol=1e-12)
            assert v[-1] == 0.0

    def test_profile_is_the_family_basis_at_b(self, grid512):
        # at the tracked coefficient b_k(0) = coeffs[-1], for every k
        for k, coeffs, b in ((1, [0.01], 0.01), (2, [0.003, 0.01], 0.01)):
            want = spectrum.basis_family(grid512, k).at(b).psis @ coeffs
            want[-1] = 0.0
            got = modulation.build_profile(grid512, k, coeffs)
            assert got.tobytes() == want.tobytes()

    def test_trap_evaluations_solve_only_the_family_nodes(self, grid512,
                                                          monkeypatch):
        # the profiles of every evaluation and the tracks of their runs
        # read one family, built by the first evaluation
        spectrum.basis_family.cache_clear()
        calls = counted(monkeypatch, spectrum, "eigenpairs")
        ev = reduced.TrapEvaluator(2, 0.01, grid512, s_max=0.02)
        for lower in ([0.0], [1e-6], [-1e-6]):
            ev.evaluate(lower)
        assert len(calls) == spectrum.FAMILY_NODES and ev.evaluations == 3


def test_one_source_per_spectral_quantity(grid512):
    # the mode laws read their quadratic coefficient -sigma_k sqrt(2 lam_k),
    # sigma_k = (-1)^{k+1}, off BesselZero.boundary_slope: sign flips and
    # IEEE square roots are exact, so the identity holds bitwise
    zeros = bessel.j0_zeros(12)
    for k in range(1, 13):
        assert zeros[k - 1].boundary_slope == (
            -((-1.0) ** (k + 1)) * math.sqrt(2.0 * zeros[k - 1].lam))
    lam = np.array([z.lam for z in zeros[:2]])
    _, q = reduced.mode_law_model(3, 0.7)
    sigma = (-1.0) ** np.arange(2)
    assert q.tobytes() == (sigma * (np.sqrt(2.0 * lam) / lam)
                           * (1.0 - np.exp(-lam * 0.7))).tobytes()
    # every eigenpairs basis carries the H_b it was solved from ...
    w = WeightParam(0.0137)
    op = spectrum.assemble_hb(grid512, w)
    basis = spectrum.eigenpairs(grid512, w, 2)
    for field in ("diag", "off", "node_mass", "half_flux"):
        assert (getattr(basis.operator, field).tobytes()
                == getattr(op, field).tobytes())
    # ... and a family's interpolated basis assembles H_b at its own b on
    # first read, once
    family_basis = spectrum.basis_family(grid512, 2).at(w.b)
    for field in ("diag", "off", "node_mass", "half_flux"):
        assert (getattr(family_basis.operator, field).tobytes()
                == getattr(op, field).tobytes())
    assert family_basis.operator is family_basis.operator
