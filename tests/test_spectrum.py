"""Drifted-Laplacian assembly, eigenpairs, sweeps, and gap checks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from stefanlab import bessel, spectrum
from stefanlab.weighted import RadialGrid, WeightParam, end_slope, inner_b

W0 = WeightParam(0.0)


class TestAssembly:
    def test_eigenrelation_on_eta(self, grid1024, zeros12):
        op = spectrum.assemble_hb(grid1024, W0)
        e1 = bessel.eta(1, grid1024)
        out = op.apply(e1)
        resid = out[:-1] - zeros12[0].lam * e1[:-1]
        # flux form is O(h^2) pointwise on smooth eigenfunctions
        assert np.max(np.abs(resid)) <= 50 * zeros12[0].lam * grid1024.h ** 2

    def test_constant_in_kernel_interior(self, grid512):
        op = spectrum.assemble_hb(grid512, WeightParam(0.02))
        const = np.ones(513)
        out = op.apply(np.append(const[:512], 0.0))[:512]
        # rows without the Dirichlet coupling annihilate constants exactly
        assert np.max(np.abs(out[:-1])) < 1e-10

    def test_symmetrized_form_is_exact(self, grid512):
        # off-diagonal of the similarity-transformed matrix matches the
        # flux/mass construction identically
        w = WeightParam(0.01)
        op = spectrum.assemble_hb(grid512, w)
        n, h = grid512.n, grid512.h
        m = op.node_mass
        rebuilt = -op.half_flux[: n - 1] / (h * np.sqrt(m[:-1] * m[1:]))
        assert np.max(np.abs(rebuilt - op.off)) <= 1e-14 * np.max(np.abs(op.off))
        # and the unsymmetrized couplings satisfy m_i A[i,i+1] = m_{i+1} A[i+1,i]
        sup = -op.half_flux[: n - 1] / (h * m[: n - 1])
        sub = -op.half_flux[: n - 1] / (h * m[1:n])
        asym = np.abs(m[: n - 1] * sup - m[1:n] * sub)
        assert np.max(asym / np.abs(m[: n - 1] * sup)) <= 1e-14


class TestEigenpairs:
    def test_unperturbed_ground_eigenvalue(self, grid1024, zeros12):
        basis = spectrum.eigenpairs(grid1024, W0, 1)
        assert abs(basis.lams[0] - zeros12[0].lam) <= 1e-5

    def test_drift_shifts_eigenvalue_linearly(self, grid1024, zeros12):
        lam = spectrum.eigenpairs(grid1024, WeightParam(0.01), 1).lams[0]
        assert abs(lam - (zeros12[0].lam - 0.01)) <= 1e-4

    def test_unperturbed_vectors_match_eta(self, grid1024, zeros12):
        basis = spectrum.eigenpairs(grid1024, W0, 3)
        for k, psi in enumerate(basis.psis.T, start=1):
            diff = psi - bessel.eta(k, grid1024)
            assert (math.sqrt(inner_b(grid1024, diff, diff, W0))
                    <= 200 * zeros12[k - 1].lam * grid1024.h ** 2)

    def test_normalization_sign_residual(self, grid1024):
        for b in (0.0, 0.02, -0.02):
            w = WeightParam(b)
            basis = spectrum.eigenpairs(grid1024, w, 3)
            for k, psi in enumerate(basis.psis.T, start=1):
                assert abs(math.sqrt(inner_b(grid1024, psi, psi, w))
                           - 1.0) <= 1e-12
                ek = bessel.eta(k, grid1024)
                assert inner_b(grid1024, psi, ek, w) > 0.0
                assert basis.residuals[k - 1] <= 1e-8

    def test_eta_projection_near_one(self, grid1024):
        # <psi_{b,k}, eta_k>_b = 1 + O(|b|)
        for b in (0.01, -0.02):
            w = WeightParam(b)
            for k, psi in enumerate(spectrum.eigenpairs(grid1024, w, 3).psis.T,
                                    start=1):
                ek = bessel.eta(k, grid1024)
                assert abs(inner_b(grid1024, psi, ek, w) - 1.0) <= 5 * abs(b)

    def test_ground_state_positive(self, grid1024):
        basis = spectrum.eigenpairs(grid1024, WeightParam(0.02), 1)
        assert np.all(basis.psis[:-1, 0] > 0.0)

    def test_rayleigh_minimality(self, grid1024, rng):
        w = WeightParam(0.02)
        lam1 = spectrum.eigenpairs(grid1024, w, 1).lams[0]
        for _ in range(100):
            u = spectrum.random_dirichlet(grid1024, rng)
            assert lam1 <= spectrum.rayleigh_quotient(grid1024, u, w) + 1e-9

    def test_grid_convergence_order(self):
        lams = [spectrum.eigenpairs(RadialGrid(n), W0, 2).lams[1]
                for n in (512, 1024, 2048)]
        d1, d2 = abs(lams[0] - lams[1]), abs(lams[1] - lams[2])
        order = math.log2(d1 / d2)
        assert 1.8 <= order <= 2.2

    def test_reference_samples_read_only(self, grid512):
        w = WeightParam(0.01)
        before = spectrum.eigenpairs(grid512, w, 3)
        for j in (1, 2, 3):
            ref = bessel.eta_samples(j, grid512)
            with pytest.raises(ValueError):
                ref[5] = 1.0
            with pytest.raises(ValueError):
                ref.flags.writeable = True
            view = ref[:]
            with pytest.raises(ValueError):
                view.flags.writeable = True
            with pytest.raises(ValueError):
                ref *= -1.0
        after = spectrum.eigenpairs(grid512, w, 3)
        assert before.psis.tobytes() == after.psis.tobytes()
        assert before.lams.tobytes() == after.lams.tobytes()
        assert before.residuals.tobytes() == after.residuals.tobytes()

    def test_columns_match_per_mode_post_processing(self, grid512):
        # the mode-by-mode normalization, sign fix and Rayleigh polish on
        # single profiles, as the bitwise reference for the batched rows
        w = WeightParam(-0.0093)
        op = spectrum.assemble_hb(grid512, w)
        basis = spectrum.eigenpairs(grid512, w, 4, operator=op)
        assert basis.operator is op
        assert spectrum.eigenpairs(grid512, w, 4).operator is None
        _, vecs = eigh_tridiagonal(op.diag, op.off, select="i",
                                   select_range=(0, 3))
        for j in range(4):
            psi = np.zeros(513)
            psi[:512] = vecs[:, j] / np.sqrt(op.node_mass)
            psi /= np.sqrt(max(inner_b(grid512, psi, psi, w), 0.0))
            if inner_b(grid512, psi, bessel.eta(j + 1, grid512), w) < 0.0:
                psi *= -1.0
            hpsi = op.apply(psi)
            mv = op.node_mass * psi[:512]
            lam = float(np.dot(mv, hpsi[:512]) / np.dot(mv, psi[:512]))
            resid = hpsi - lam * psi
            resid[-1] = 0.0
            assert basis.psis[:, j].tobytes() == psi.tobytes()
            assert basis.lams[j] == lam
            assert basis.boundary_slopes[j] == end_slope(psi, grid512.h)
            assert basis.residuals[j] == np.sqrt(
                max(inner_b(grid512, resid, resid, w), 0.0))
        assert basis.psis.flags.c_contiguous

    def test_preconditions(self, grid512):
        with pytest.raises(ValueError):
            spectrum.eigenpairs(grid512, W0, 13)
        with pytest.raises(ValueError):
            spectrum.eigenpairs(RadialGrid(256), W0, 1)
        start = spectrum.eigenpairs(grid512, W0, 2)
        with pytest.raises(ValueError):
            spectrum.eigenpairs(grid512, W0, 1, start=start)


def counted_eigh(monkeypatch) -> list:
    """Count the cold LAPACK solves from here on."""
    calls = []
    eigh = spectrum.lowest_eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectrum, "lowest_eigh_tridiagonal", counted)
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    @pytest.mark.parametrize("b", [0.01, -0.0093, 0.05])
    def test_matches_cold_solve(self, n, b, monkeypatch):
        # started from the basis one k = 1 record cadence (~1.2%) away;
        # measured: psi within 1.3e-11, lam within 3.1e-16 relative, the
        # residual within 3.4x the cold one (both <= 1e-8)
        grid = RadialGrid(n)
        cold = spectrum.Basis.solve(grid, b, 1)
        start = spectrum.Basis.solve(grid, 0.988 * b, 1)
        calls = counted_eigh(monkeypatch)
        warm = spectrum.Basis.solve(grid, b, 1, start=start)
        assert not calls
        assert np.max(np.abs(warm.psis - cold.psis)) <= 1e-10
        assert abs(warm.lams[0] - cold.lams[0]) <= 1e-14 * cold.lams[0]
        assert warm.residuals[0] <= 5.0 * cold.residuals[0]
        assert warm.operator is not None and warm.b == b

    def test_wrong_start_falls_back_to_cold_solve(self, grid512,
                                                  monkeypatch):
        # eta_2 as the start of pair 1 converges to pair 2
        w = WeightParam(0.01)
        cold = spectrum.eigenpairs(grid512, w, 1)
        wrong = dataclasses.replace(
            cold, psis=bessel.eta_samples(2, grid512)[:, None].copy())
        calls = counted_eigh(monkeypatch)
        got = spectrum.eigenpairs(grid512, w, 1, start=wrong)
        assert len(calls) == 1
        for field in ("psis", "lams", "boundary_slopes", "residuals"):
            assert (getattr(got, field).tobytes()
                    == getattr(cold, field).tobytes())


class TestPerturbationSweep:
    def test_slope_near_minus_one(self, grid1024):
        for k in (1, 2):
            rep = spectrum.perturbation_sweep(grid1024, k,
                                              (0.005, 0.01, 0.02))
            assert -1.1 <= rep.slope <= -0.9
            assert rep.residual_order >= 1.8
            lam0 = spectrum.eigenpairs(grid1024, W0, k).lams[k - 1]
            assert (rep.defects.tobytes()
                    == (rep.lam_values - (lam0 - rep.b_values)).tobytes())

    def test_antisymmetry_in_b(self, grid1024):
        # lam_{-b} + lam_{b} - 2 lam_0 = O(b^2)
        def lam(b, k):
            return spectrum.eigenpairs(grid1024, WeightParam(b), k).lams[k - 1]

        for k in (1, 2):
            lam0 = lam(0.0, k)
            for b in (0.01, 0.02):
                lp, lm = lam(b, k), lam(-b, k)
                assert abs(lp + lm - 2 * lam0) <= 5 * b ** 2

    def test_rejects_bad_sweeps(self, grid1024):
        with pytest.raises(ValueError):
            spectrum.perturbation_sweep(grid1024, 1, (0.01, 0.02))
        with pytest.raises(ValueError):
            spectrum.perturbation_sweep(grid1024, 1, (0.0, 0.01, 0.02))


class TestSpectralGap:
    def test_unperturbed_gap(self, grid1024, zeros12):
        val = spectrum.spectral_gap_check(grid1024, W0, 1, samples=16)
        assert val >= zeros12[1].lam - 0.1

    def test_sharpness_witness(self, grid1024, zeros12):
        e2 = bessel.eta(2, grid1024)
        q = spectrum.rayleigh_quotient(grid1024, e2, W0)
        assert abs(q - zeros12[1].lam) <= 0.05

    def test_drifted_gap_above_budget(self, grid1024, zeros12):
        val = spectrum.spectral_gap_check(grid1024, WeightParam(0.02), 2,
                                          samples=16)
        assert val >= zeros12[2].lam - 0.5

    def test_remainders_weighted_orthogonal(self, grid1024, monkeypatch):
        # the profiles whose Rayleigh quotients the check minimizes
        w = WeightParam(0.02)
        seen = []
        quotient = spectrum.rayleigh_quotient

        def spy(grid, u, weight):
            seen.append(u)
            return quotient(grid, u, weight)

        monkeypatch.setattr(spectrum, "rayleigh_quotient", spy)
        spectrum.spectral_gap_check(grid1024, w, 2, samples=8)
        basis = spectrum.eigenpairs(grid1024, w, 2)
        assert len(seen) == 8
        for u in seen:
            for psi in basis.psis.T:
                assert abs(inner_b(grid1024, u, psi, w)) <= 1e-12

    def test_seeded_determinism(self, grid512):
        a = spectrum.spectral_gap_check(grid512, WeightParam(0.01), 1,
                                        samples=4, seed=7)
        b = spectrum.spectral_gap_check(grid512, WeightParam(0.01), 1,
                                        samples=4, seed=7)
        assert a == b


def test_sweep_csv(tmp_path, grid1024):
    rep = spectrum.perturbation_sweep(grid1024, 1, (0.005, 0.01, 0.02))
    path = tmp_path / "sweep.csv"
    spectrum.sweep_to_csv(path, [rep])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,k,lambda_bk,boundary_slope,residual"
    assert len(lines) == 4
