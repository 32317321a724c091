"""Drifted-Laplacian assembly, eigenpairs, sweeps, and gap checks."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import profiles
from stefanlab import bessel, spectrum
from stefanlab.errors import ConfigError
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

    @pytest.mark.parametrize("b", [-0.0093, 0.0, 0.0137])
    def test_lazy_tridiagonal_matches_eager_formulas(self, grid512, b):
        # diag and off are formed on first read, with the floats of the
        # eager assembly
        op = spectrum.assemble_hb(grid512, WeightParam(b))
        assert "diag" not in vars(op) and "off" not in vars(op)
        n, h = grid512.n, grid512.h
        m, wf = op.node_mass, op.half_flux
        diag = np.empty(n)
        diag[0] = wf[0] / (h * m[0])
        diag[1:] = (wf[: n - 1] + wf[1:n]) / (h * m[1:])
        off = -wf[: n - 1] / (h * np.sqrt(m[: n - 1] * m[1:n]))
        assert op.diag.tobytes() == diag.tobytes()
        assert op.off.tobytes() == off.tobytes()
        assert op.diag is op.diag and op.off is op.off


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
            u = profiles.random_dirichlet(grid1024, rng)
            assert lam1 <= profiles.rayleigh_quotient(grid1024, u, w) + 1e-9

    def test_grid_convergence_order(self):
        lams = [spectrum.eigenpairs(RadialGrid(n), W0, 2).lams[1]
                for n in (512, 1024, 2048)]
        d1, d2 = abs(lams[0] - lams[1]), abs(lams[1] - lams[2])
        order = math.log2(d1 / d2)
        assert 1.8 <= order <= 2.2

    def test_columns_match_per_mode_post_processing(self, grid512):
        # the mode-by-mode normalization, sign fix and Rayleigh polish on
        # single profiles, as the bitwise reference for the batched rows
        w = WeightParam(-0.0093)
        op = spectrum.assemble_hb(grid512, w)
        basis = spectrum.eigenpairs(grid512, w, 4)
        for field in ("diag", "off", "node_mass", "half_flux"):
            assert (getattr(basis.operator, field).tobytes()
                    == getattr(op, field).tobytes())
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


FAMILY_B = [-0.199, -0.0123, 0.0, 1e-9, 0.0102, 0.0449, 0.199]


class TestBasisFamily:
    @pytest.mark.parametrize("n", [512, 1024])
    @pytest.mark.parametrize("k", [1, 2, 12])
    @pytest.mark.parametrize("b", FAMILY_B)
    def test_matches_cold_solve(self, n, k, b):
        # measured: psi within 1.1e-11, lam within 7.0e-16 relative, the
        # cold solver's own noise floor
        grid = RadialGrid(n)
        got = spectrum.basis_family(grid, k).at(b)
        cold = spectrum.Basis.solve(grid, b, k)
        # H_b is assembled at the basis's own b on first read: the one
        # the cold solve was solved from
        op = got.operator
        assert got.b == b
        assert op.half_flux.tobytes() == cold.operator.half_flux.tobytes()
        assert op.node_mass.tobytes() == cold.operator.node_mass.tobytes()
        assert got.psis.shape == cold.psis.shape and got.psis.flags.c_contiguous
        assert np.max(np.abs(got.psis - cold.psis)) <= 5e-11
        assert np.all(np.abs(got.lams - cold.lams) <= 2e-15 * cold.lams)

    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_gram_is_near_identity(self, grid512, k):
        # every basis the lab builds has a Gram conditioned near 1, so the
        # projection needs no conditioning check (measured at most 1.00012)
        family = spectrum.basis_family(grid512, k)
        for b in np.r_[np.linspace(-0.199, 0.199, 41), family.nodes]:
            assert np.linalg.cond(family.at(b)._gram) <= 1.001

    def test_origin_sign_is_the_reference_sign(self, grid512):
        # on every cold solve of the family nodes a mode positive at the
        # origin is a mode with a positive projection on its eta_j
        family = spectrum.basis_family(grid512, 12)
        etas = np.array([bessel.eta(j, grid512) for j in range(1, 13)])
        for b, psis in zip(family.nodes, family.psis):
            proj = inner_b(grid512, psis.T, etas, WeightParam(b))
            assert np.all(psis[0] > 0.0)
            assert np.all((psis[0] > 0.0) == (proj > 0.0))

    def test_node_returns_its_own_columns(self, grid512):
        family = spectrum.basis_family(grid512, 2)
        assert np.all(np.abs(family.nodes) < 0.2)
        for j in (0, 6, 12):
            b = family.nodes[j]
            got = family.at(b)
            cold = spectrum.Basis.solve(grid512, b, 2)
            assert got.psis.tobytes() == cold.psis.tobytes()
            assert got.lams.tobytes() == cold.lams.tobytes()

    @pytest.mark.parametrize("b", [0.2, -0.2, 0.25, math.inf, math.nan])
    def test_outside_the_range_is_a_config_error(self, grid512, b):
        with pytest.raises(ConfigError):
            spectrum.basis_family(grid512, 1).at(b)

    def test_same_bytes_whatever_came_before(self, grid512):
        family = spectrum.basis_family(grid512, 2)
        first = family.at(0.0123)
        for b in (0.0449, -0.19, 1e-9, family.nodes[3], 0.0123):
            family.at(b)
        again = family.at(0.0123)
        assert again.psis.tobytes() == first.psis.tobytes()
        assert again.lams.tobytes() == first.lams.tobytes()

    def test_memo_keeps_each_basis_bytes(self, grid512):
        # the family keeps the basis it built last; building another leaves
        # the bytes of the one a caller holds, and of a rebuild, unchanged
        family = spectrum.basis_family(grid512, 1)
        first = family.at(0.0071)
        psis, lams = first.psis.tobytes(), first.lams.tobytes()
        assert family.at(0.0071) is first
        second = family.at(-0.0042)
        assert second is not first
        assert (first.psis.tobytes(), first.lams.tobytes()) == (psis, lams)
        again = family.at(0.0071)
        assert (again.psis.tobytes(), again.lams.tobytes()) == (psis, lams)

    @pytest.mark.parametrize("node", [False, True])
    def test_returned_arrays_are_read_only(self, grid512, node):
        family = spectrum.basis_family(grid512, 2)
        basis = family.at(family.nodes[4] if node else 0.0123)
        for arr in (basis.psis, basis.lams, basis.residuals):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            basis.psis[:, 0] *= 2.0

    def test_sign_of_zero_is_kept(self, grid512):
        family = spectrum.basis_family(grid512, 1)
        for b in (0.0, -0.0, 0.0, -0.0):
            got = family.at(b)
            assert math.copysign(1.0, got.b) == math.copysign(1.0, b)
            assert got.b == 0.0

    def test_operator_assembled_at_most_once(self, grid512, monkeypatch):
        calls = []
        assemble = spectrum.assemble_hb
        monkeypatch.setattr(spectrum, "assemble_hb",
                            lambda *a: calls.append(a) or assemble(*a))
        family = spectrum.BasisFamily(grid512, 1)
        calls.clear()  # the node solves' own
        basis = family.at(0.0057)
        assert calls == []
        op = basis.operator
        assert family.at(0.0057).operator is op and basis.operator is op
        assert len(calls) == 1 and calls[0][1] == WeightParam(0.0057)

    def test_basis_carries_the_weight_it_was_made_at(self, grid512):
        # the operator and the quadrature weights read the basis's own w
        w = WeightParam(0.0083)
        cold = spectrum.eigenpairs(grid512, w, 1)
        family = spectrum.basis_family(grid512, 1).at(0.0083)
        assert cold.w is w and cold.operator.w is w
        assert family.w == w and family.b == 0.0083
        assert family.operator.w is family.w
        want = grid512.simpson * w.rho(grid512.y) * grid512.y
        for basis in (cold, family):
            assert basis._weights.tobytes() == want.tobytes()


class TestPerturbationSweep:
    def test_slope_near_minus_one(self, grid1024):
        for k in (1, 2):
            [rep] = spectrum.perturbation_sweep(grid1024, (k,),
                                                (0.005, 0.01, 0.02))
            assert -1.1 <= rep.slope <= -0.9
            assert rep.residual_order >= 1.8
            lam0 = spectrum.eigenpairs(grid1024, W0, k).lams[k - 1]
            assert (rep.defects.tobytes()
                    == (rep.lam_values - (lam0 - rep.b_values)).tobytes())

    def test_one_solve_per_sweep_point(self, grid1024, monkeypatch):
        # max(ks) pairs once at b = 0 and once at each b serve every k
        solve = spectrum.eigenpairs
        calls = []

        def spy(grid, w, count):
            calls.append((w.b, count))
            return solve(grid, w, count)

        monkeypatch.setattr(spectrum, "eigenpairs", spy)
        bs = (0.02, 0.005, 0.01)
        reps = spectrum.perturbation_sweep(grid1024, (1, 3, 2), bs)
        assert calls == [(0.0, 3), (0.005, 3), (0.01, 3), (0.02, 3)]
        assert [rep.k for rep in reps] == [1, 3, 2]
        monkeypatch.undo()
        for rep in reps:
            lams = [spectrum.eigenpairs(grid1024, WeightParam(b), 3)
                    .lams[rep.k - 1] for b in sorted(bs)]
            assert rep.lam_values.tolist() == lams

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
            spectrum.perturbation_sweep(grid1024, (1,), (0.01, 0.02))
        with pytest.raises(ValueError):
            spectrum.perturbation_sweep(grid1024, (1,), (0.0, 0.01, 0.02))


class TestSpectralGap:
    # the floor of the Rayleigh quotient on the complement of the first k
    # eigenfunctions is the solved lam_{k+1}(b) (Courant-Fischer)
    def test_unperturbed_gap(self, grid1024, zeros12):
        basis = spectrum.eigenpairs(grid1024, W0, 2)
        val = spectrum.spectral_gap_check(basis, 1)
        assert val == basis.lams[1]
        assert val >= zeros12[1].lam - 0.1

    def test_sharpness_witness(self, grid1024, zeros12):
        e2 = bessel.eta(2, grid1024)
        q = profiles.rayleigh_quotient(grid1024, e2, W0)
        assert abs(q - zeros12[1].lam) <= 0.05

    def test_drifted_gap_above_budget(self, grid1024, zeros12):
        basis = spectrum.eigenpairs(grid1024, WeightParam(0.02), 3)
        val = spectrum.spectral_gap_check(basis, 2)
        assert val == basis.lams[2]
        assert val >= zeros12[2].lam - 0.5


def test_sweep_csv(tmp_path, grid1024):
    [rep] = spectrum.perturbation_sweep(grid1024, (1,), (0.005, 0.01, 0.02))
    path = tmp_path / "sweep.csv"
    spectrum.sweep_to_csv(path, [rep])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,k,lambda_bk,boundary_slope,residual"
    assert len(lines) == 4
