"""Weighted geometry: grids, inner product, scaling operator."""

import math
import warnings

import numpy as np
import pytest

import profiles
from stefanlab import bessel, spectrum
from stefanlab.weighted import RadialGrid, WeightParam, deriv_values, inner_b

W0 = WeightParam(0.0)


class TestGridAndTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(7)
        with pytest.raises(ValueError):
            RadialGrid(9)

    def test_grid_equality_by_size(self):
        assert RadialGrid(64) == RadialGrid(64)
        assert RadialGrid(64) != RadialGrid(128)

    def test_weight_cap(self):
        with pytest.raises(ValueError):
            WeightParam(0.25)
        with pytest.raises(ValueError):
            WeightParam(-0.2)

    def test_weight_above_small_data_bound_is_silent(self, grid512):
        # small data is checked where it is assumed; the eigenbasis is exact
        # for every |b| < 0.2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert WeightParam(0.0500001).b == 0.0500001
            assert WeightParam(-0.1999).b == -0.1999
            assert spectrum.basis_family(grid512, 1).at(0.1).b == 0.1


class TestInnerProduct:
    def test_zero_function(self, grid512):
        z = np.zeros(513)
        assert inner_b(grid512, z, z, W0) == 0.0

    def test_eta_normalized(self, grid1024):
        e = bessel.eta(1, grid1024)
        assert abs(inner_b(grid1024, e, e, W0) - 1.0) <= 1e-8

    def test_polynomial_exact_value(self, grid512):
        # int_0^1 (1 - y^2)^2 y dy = 1/2 - 1/2 + 1/6 = 1/6 exactly
        f = 1.0 - grid512.y ** 2
        assert abs(inner_b(grid512, f, f, W0) - 1.0 / 6.0) < 1e-10

    def test_rows_match_profiles_bitwise(self, grid512, rng):
        # a stack of profiles gives, row by row, the floats of each profile
        w = WeightParam(0.03)
        f = np.array([profiles.random_dirichlet(grid512, rng)
                      for _ in range(4)])
        g = np.array([profiles.random_dirichlet(grid512, rng)
                      for _ in range(4)])
        rows = inner_b(grid512, f, g, w)
        assert rows.shape == (4,)
        for i in range(4):
            assert rows[i] == inner_b(grid512, f[i], g[i], w)

    def test_weight_consistency_b0(self, grid512, rng):
        # b = 0 equals the unweighted radial product
        vals = np.sin(2.3 * grid512.y) * (1 - grid512.y)
        vals[-1] = 0.0
        direct = float(np.sum(grid512.simpson * vals ** 2 * grid512.y))
        assert abs(inner_b(grid512, vals, vals, W0) - direct) < 1e-15


class TestScalingOperator:
    """The scaling operator y d/dy on the 4th-order derivative stencil."""

    def test_constant_maps_to_zero(self, grid512):
        out = grid512.y * deriv_values(np.ones(513), grid512.h)
        assert np.max(np.abs(out)) < 1e-12

    def test_quadratic_exact(self, grid512):
        y = grid512.y
        out = y * deriv_values(y ** 2, grid512.h)
        assert np.max(np.abs(out - 2 * y ** 2)) < 1e-10

    def test_origin_value_exact_zero(self, grid512):
        y = grid512.y
        assert (y * deriv_values(np.cos(y), grid512.h))[0] == 0.0

    def test_eta_boundary_value(self, grid1024, zeros12):
        e = bessel.eta(1, grid1024)
        val = (grid1024.y * deriv_values(e, grid1024.h))[-1]
        assert abs(val + math.sqrt(2 * zeros12[0].lam)) < 1e-6


class TestOperatorCompatibility:
    """Weighted-space invariants that lean on the assembled operator."""

    def test_discrete_self_adjointness_node_masses(self, grid512, rng):
        # exact to rounding in the operator's own mass weights
        op = spectrum.assemble_hb(grid512, WeightParam(0.03))
        m = op.node_mass
        f = profiles.random_dirichlet(grid512, rng)[:512]
        g = profiles.random_dirichlet(grid512, rng)[:512]
        left = float(np.sum(m * op.apply(np.append(f, 0.0))[:512] * g))
        right = float(np.sum(m * f * op.apply(np.append(g, 0.0))[:512]))
        scale = math.sqrt(float(np.sum(m * f * f) * np.sum(m * g * g)))
        assert abs(left - right) <= 1e-12 * max(scale, 1.0) * 100

    def test_simpson_self_adjointness_smooth(self, grid1024, rng):
        w = WeightParam(0.03)
        op = spectrum.assemble_hb(grid1024, w)
        f = profiles.random_dirichlet(grid1024, rng, modes=8)
        g = profiles.random_dirichlet(grid1024, rng, modes=8)
        defect = abs(inner_b(grid1024, op.apply(f), g, w)
                     - inner_b(grid1024, f, op.apply(g), w))
        norms = math.sqrt(inner_b(grid1024, f, f, w)
                          * inner_b(grid1024, g, g, w))
        assert defect <= 1e-8 * norms * (1.0 + np.max(np.abs(op.diag)))

    def test_spectral_gap_on_eta_complement(self, grid1024, zeros12, rng):
        # f weighted-orthogonal to eta_1..eta_k keeps Rayleigh above
        # lam_{k+1} - C|b|; the measured C is reported, sanity-capped here
        k = 2
        lam_next = zeros12[k].lam
        etas = [bessel.eta(j, grid1024)
                for j in range(1, k + 1)]
        measured_c = 0.0
        for b in (-0.05, -0.02, 0.02, 0.05):
            w = WeightParam(b)
            gram = np.array([[inner_b(grid1024, ei, ej, w) for ej in etas]
                             for ei in etas])
            worst = np.inf
            for _ in range(8):
                f = profiles.random_dirichlet(grid1024, rng)
                rhs = np.array([inner_b(grid1024, f, ej, w) for ej in etas])
                coef = np.linalg.solve(gram, rhs)
                u = f - sum(c * e for c, e in zip(coef, etas))
                u[-1] = 0.0
                worst = min(worst,
                            profiles.rayleigh_quotient(grid1024, u, w))
            if worst < lam_next:
                measured_c = max(measured_c, (lam_next - worst) / abs(b))
        assert measured_c <= lam_next  # loose sanity cap; value is reported
