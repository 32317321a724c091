"""Bessel evaluation, zeros, and the radial eigenbasis.

Oracles: mpmath's arbitrary-precision besselj for pointwise values, the
series-bisection root finder for zeros, Richardson-extrapolated central
differences for the derivative, and the boundary-derivative closed form
for the mode-coupling integrals.
"""

import csv
import math

import mpmath as mp
import numpy as np
import pytest

from stefanlab import bessel, verify
from stefanlab.weighted import RadialGrid, WeightParam, deriv_values, inner_b

W0 = WeightParam(0.0)

# frozen reference zeros (series-bisection oracle, cross-checked vs mpmath)
R1 = 2.404825557695773
R2 = 5.520078110286311
LAM1 = 5.783185962946785
LAM2 = 30.471262343662087


def mp_j0(x):
    with mp.workdps(30):
        return float(mp.besselj(0, mp.mpf(x)))


def mp_j1(x):
    with mp.workdps(30):
        return float(mp.besselj(1, mp.mpf(x)))


class TestJ0:
    def test_at_zero(self):
        assert bessel.j0(0.0) == 1.0

    @pytest.mark.parametrize("root", [R1, R2])
    def test_vanishes_at_roots(self, root):
        assert abs(bessel.j0(root)) < 1e-12

    def test_against_mpmath_grid(self):
        xs = np.linspace(0.0, 50.0, 1001)
        vals = bessel.j0(xs)
        for x, v in zip(xs, vals):
            ref = mp_j0(x)
            assert abs(v - ref) <= 1e-14
            if abs(ref) >= 1e-2:
                assert abs(v - ref) / abs(ref) <= 1e-13

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel.j0(-1.0)

    def test_scalar_and_array_forms(self):
        xs = np.array([0.5, 1.5, 7.0])
        arr = bessel.j0(xs)
        assert arr.shape == (3,)
        assert arr[1] == bessel.j0(1.5)


class TestJ0Prime:
    def test_at_zero(self):
        assert bessel.j0_prime(0.0) == 0.0

    def test_equals_minus_j1(self):
        for x in (0.3, 2.0, 5.0, 11.0, 30.0):
            assert abs(bessel.j0_prime(x) + mp_j1(x)) <= 1e-13

    def test_richardson_difference_oracle(self):
        # central differences of j0 with one Richardson step
        x = R1
        for h in (1e-4,):
            d1 = (bessel.j0(x + h) - bessel.j0(x - h)) / (2 * h)
            d2 = (bessel.j0(x + h / 2) - bessel.j0(x - h / 2)) / h
            richardson = (4 * d2 - d1) / 3
        assert abs(bessel.j0_prime(x) - richardson) < 1e-10
        assert abs(bessel.j0_prime(x) + 0.519147) < 1e-6

    def test_small_x_series(self):
        # J0'(x) = -x/2 + x^3/16 - ...
        for x in (1e-4, 1e-3):
            assert abs(bessel.j0_prime(x) + x / 2) <= x ** 3


def oracle_zero(j, width=1e-13):
    """Bisection on the power series in 30-digit arithmetic."""
    with mp.workdps(30):
        def series(x):
            q = x * x / 4
            term = mp.mpf(1)
            s = mp.mpf(1)
            m = 0
            while abs(term) > mp.mpf(1e-35) * max(1, abs(s)):
                m += 1
                term *= -q / (m * m)
                s += term
            return s

        lo = (j - mp.mpf(3) / 4) * mp.pi
        hi = (j + mp.mpf(1) / 4) * mp.pi
        flo = series(lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if flo * series(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)



def mp_criterion_oracle(j, dps=25):
    """Criterion 1's oracle as it was written in mpmath: the same series
    bisection at ``dps`` digits, cut at 10^(-dps-5), stopped at 1e-12."""
    with mp.workdps(dps):
        cutoff = mp.mpf(10) ** (-dps - 5)

        def series(x):
            q = x * x / 4
            term = mp.mpf(1)
            s = mp.mpf(1)
            m = 0
            while True:
                m += 1
                term *= -q / (m * m)
                s += term
                if abs(term) < cutoff * max(1, abs(s)):
                    return s

        lo = (j - mp.mpf(3) / 4) * mp.pi
        hi = (j + mp.mpf(1) / 4) * mp.pi
        flo = series(lo)
        while hi - lo > mp.mpf(1e-12):
            mid = (lo + hi) / 2
            fm = series(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return float((lo + hi) / 2)


def test_criterion_oracle_in_decimal_matches_mpmath():
    # criterion 1 bisects in the standard library's decimal arithmetic
    for j in range(1, 9):
        assert verify._oracle_zero_series_bisection(j) == mp_criterion_oracle(j)


class TestZeros:
    def test_first_two_match_oracle(self):
        zs = bessel.j0_zeros(2)
        assert abs(zs[0].r - R1) < 1e-12
        assert abs(zs[0].lam - LAM1) < 1e-11
        assert abs(zs[1].r - R2) < 1e-12
        assert abs(zs[1].lam - LAM2) < 1e-10
        for z in zs:
            assert abs(z.r - oracle_zero(z.index)) < 1e-12

    def test_refinement_and_gaps_to_64(self):
        zs = bessel.j0_zeros(64)
        rs = np.array([z.r for z in zs])
        lams = np.array([z.lam for z in zs])
        assert np.all(np.diff(rs) > 0)
        assert np.all(np.diff(lams) > 1.0)
        assert max(abs(bessel.j0(z.r)) for z in zs) <= 1e-12

    @pytest.mark.parametrize("count", [1, 2, 12, 33, 64])
    def test_memoized_zeros_bitwise_fresh(self, count):
        fresh = [bessel._zero.__wrapped__(j) for j in range(1, count + 1)]
        got = bessel.j0_zeros(count)
        assert [(z.index, z.r.hex(), z.lam.hex()) for z in got] == \
            [(z.index, z.r.hex(), z.lam.hex()) for z in fresh]

    def test_returned_zeros_cannot_change_the_cache(self):
        first = bessel.j0_zeros(8)
        with pytest.raises(TypeError):
            first[0] = None
        with pytest.raises(AttributeError):
            first[0].r = 1.0
        as_list = list(first)
        as_list.clear()
        assert bessel.j0_zeros(8) == first
        assert len(bessel.j0_zeros(8)) == 8

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            bessel.j0_zeros(0)
        with pytest.raises(ValueError):
            bessel.j0_zeros(65)


class TestEigenfunctions:
    def test_dirichlet_pin(self, grid1024):
        e1 = bessel.eta(1, grid1024)
        assert e1[-1] == 0.0

    def test_normalization(self, grid1024):
        e1 = bessel.eta(1, grid1024)
        assert abs(inner_b(grid1024, e1, e1, W0) - 1.0) < 1e-8

    def test_boundary_slope_analytic(self, zeros12):
        assert abs(zeros12[0].boundary_slope + math.sqrt(2 * LAM1)) < 1e-12

    def test_index_out_of_range(self, grid1024):
        # the indices j0_zeros rejects
        for j in (0, 65):
            with pytest.raises(ValueError):
                bessel.eta(j, grid1024)
            with pytest.raises(ValueError):
                bessel.eta_deriv(j, grid1024)

    def test_orthonormality_8x8(self, grid1024):
        etas = [bessel.eta(j, grid1024)
                for j in range(1, 9)]
        worst = max(
            abs(inner_b(grid1024, etas[i], etas[j], W0)
                - (1.0 if i == j else 0.0))
            for i in range(8) for j in range(8)
        )
        assert worst <= 1e-8

    def test_cached_samples_match_eta(self, grid1024):
        for j in (1, 5, 12):
            cached = bessel.eta_samples(j, grid1024)
            fresh = bessel.eta(j, grid1024)
            assert cached.tobytes() == fresh.tobytes()

    def test_sign_alternation(self, grid1024, zeros12):
        for j in range(1, 9):
            e = bessel.eta(j, grid1024)
            slope = zeros12[j - 1].boundary_slope
            assert math.copysign(1.0, slope) == (-1.0) ** j
            # the sampled profile agrees with the analytic slope near y = 1
            fd = (grid1024.y * deriv_values(e, grid1024.h))[-1]
            assert abs(fd - slope) < 1e-5

    def test_ode_residual_second_order(self, zeros12):
        # y eta'' + eta' + lam y eta = 0 pointwise to O(h^2), central stencils
        defects = []
        for n in (256, 512):
            grid = RadialGrid(n)
            h = grid.h
            v = bessel.eta(3, grid)
            y = grid.y
            d1 = (v[2:] - v[:-2]) / (2 * h)
            d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
            resid = y[1:-1] * d2 + d1 + zeros12[2].lam * y[1:-1] * v[1:-1]
            defects.append(np.max(np.abs(resid)))
        order = math.log2(defects[0] / defects[1])
        assert 1.8 <= order <= 2.2

    def test_scaling_identity_diagonal(self):
        grid = RadialGrid(2048)
        for k in range(1, 9):
            val = bessel.scaling_coefficient(k, k, grid)
            assert abs(val + 1.0) <= 1e-8

    def test_scaling_coefficient_closed_form(self, grid1024, zeros12):
        # off-diagonal oracle: <y eta_k', eta_j>_0 =
        #   (-1)^(k+j) 2 sqrt(lam_k lam_j) / (lam_k - lam_j)
        for (k, j) in [(2, 1), (3, 1), (3, 2), (5, 2)]:
            lam_k, lam_j = zeros12[k - 1].lam, zeros12[j - 1].lam
            closed = ((-1.0) ** (k + j) * 2.0 * math.sqrt(lam_k * lam_j)
                      / (lam_k - lam_j))
            quad = bessel.scaling_coefficient(k, j, grid1024)
            assert abs(quad - closed) < 1e-8


def test_zeros_csv_roundtrip(tmp_path, zeros12):
    path = tmp_path / "zeros.csv"
    bessel.zeros_to_csv(path, zeros12[:4])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "r_j", "lambda_j", "boundary_slope"]
    assert len(rows) == 5
    assert float(rows[1][1]) == zeros12[0].r
    assert float(rows[2][3]) == math.sqrt(2 * zeros12[1].lam)
