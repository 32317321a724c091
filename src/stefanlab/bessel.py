"""Bessel function J0, its zeros, and the radial Dirichlet eigenbasis.

The eigenvalue problem  -u'' - u'/y = lam u  on [0, 1] with u(1) = 0 and
u'(0) = 0 has eigenvalues lam_j = r_j^2 where r_j is the j-th positive zero
of J0, and normalized eigenfunctions

    eta_j(y) = sqrt(2) J0(y r_j) / |J0'(r_j)|,

orthonormal in the radial L2 inner product with weight y.

J0 and J1 are evaluated in two regimes with minimax rational coefficients
(Cephes Math Library, Stephen L. Moshier, public domain): a zero-factored
rational fit on [0, 5] and the Hankel trigonometric form with rational P, Q
beyond.  Peak error is a few ulp over [0, 50], comfortably inside the 1e-13
relative contract away from the zeros.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ConfigError, NonConvergence
from .weighted import RadialGrid

_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1
_THPIO4 = 2.35619449019234492885

# -- J0, interval [0, 5]: (w - r1^2)(w - r2^2) P3(w)/Q8(w), w = x^2
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_RP = np.array([
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
])
_RQ = np.array([  # monic
    1.0,
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
])
# -- J0, interval (5, inf): Hankel form with rational P, Q in (5/x)^2
_PP = np.array([
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
])
_PQ = np.array([
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
])
_QP = np.array([
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
])
_QQ = np.array([  # monic
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
])

# -- J1, interval [0, 5]: x (w - z1)(w - z2) P3(w)/Q8(w)
_Z1 = 1.46819706421238932572e1
_Z2 = 4.92184563216946036703e1
_RP1 = np.array([
    -8.99971225705559398224e8,
    4.52228297998194034323e11,
    -7.27494245221818276015e13,
    3.68295732863852883286e15,
])
_RQ1 = np.array([  # monic
    1.0,
    6.20836478118054335476e2,
    2.56987256757748830383e5,
    8.35146791431949253037e7,
    2.21511595479792499675e10,
    4.74914122079991414898e12,
    7.84369607876235854894e14,
    8.95222336184627338078e16,
    5.32278620332680085395e18,
])
_PP1 = np.array([
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
])
_PQ1 = np.array([
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
])
_QP1 = np.array([
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
])
_QQ1 = np.array([  # monic
    1.0,
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
])


def _evaluate(x, name, small, pp, pq, qp, qq, phase):
    """J0 or J1 at x >= 0: ``small`` on [0, 5], the Hankel form
    sqrt(2/(pi x)) (P cos(x - phase) - (5/x) Q sin(x - phase)) beyond, with
    P = pp/pq and Q = qp/qq rational in (5/x)^2.  A scalar input returns a
    float."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0):
        raise ConfigError(f"{name} is defined here for x >= 0")
    out = np.empty_like(xa)
    lo = xa <= 5.0
    if np.any(lo):
        out[lo] = small(xa[lo])
    hi = ~lo
    if np.any(hi):
        xl = xa[hi]
        w = 5.0 / xl
        z = w * w
        p = np.polyval(pp, z) / np.polyval(pq, z)
        q = np.polyval(qp, z) / np.polyval(qq, z)
        xn = xl - phase
        out[hi] = _SQ2OPI * (p * np.cos(xn) - w * q * np.sin(xn)) / np.sqrt(xl)
    return float(out[0]) if scalar else out


def _j0_small(x):
    z = x * x
    r = (z - _DR1) * (z - _DR2) * np.polyval(_RP, z) / np.polyval(_RQ, z)
    return np.where(x < 1.0e-5, 1.0 - 0.25 * z, r)


def _j1_small(x):
    z = x * x
    return (np.polyval(_RP1, z) / np.polyval(_RQ1, z)
            * x * (z - _Z1) * (z - _Z2))


def j0(x):
    """Bessel function of the first kind of order zero, x >= 0.

    Accepts scalars or arrays; a scalar input returns a float.
    """
    return _evaluate(x, "j0", _j0_small, _PP, _PQ, _QP, _QQ, _PIO4)


def j1(x):
    """Bessel function of the first kind of order one, x >= 0; its
    derivative J0' = -J1 serves the zeros' Newton steps and eta's slope."""
    return _evaluate(x, "j1", _j1_small, _PP1, _PQ1, _QP1, _QQ1, _THPIO4)


@dataclass(frozen=True)
class BesselZero:
    """The j-th positive zero r_j of J0 and the eigenvalue lam_j = r_j^2."""

    index: int
    r: float
    lam: float

    @property
    def boundary_slope(self) -> float:
        """Analytic slope (-1)^j sqrt(2 lam_j) of eta_j at y = 1, the one
        source of the mode laws' quadratic coefficients: mode j's own law
        is b' = -lam_j b + slope_j b^2 (see :mod:`stefanlab.reduced`)."""
        return (-1.0) ** self.index * math.sqrt(2.0 * self.lam)


def _mcmahon_guess(j: int) -> float:
    # McMahon expansion of the j-th J0 zero
    beta = (j - 0.25) * math.pi
    b8 = 8.0 * beta
    return beta + 1.0 / b8 - 124.0 / (3.0 * b8**3) + 120928.0 / (15.0 * b8**5)


@functools.lru_cache(maxsize=None)
def _zero(j: int) -> BesselZero:
    """The j-th zero, Newton-refined from its McMahon guess (memoized)."""
    x = _mcmahon_guess(j)
    for _ in range(100):
        x_new = x + j0(x) / j1(x)
        converged = abs(x_new - x) <= 1e-15 * x
        x = x_new
        if converged:
            break
    if not converged and abs(j0(x)) > 1e-12:
        raise NonConvergence(f"Newton failed for J0 zero #{j}")
    return BesselZero(index=j, r=x, lam=x * x)


def j0_zeros(count: int) -> tuple[BesselZero, ...]:
    """First ``count`` positive zeros of J0, Newton-refined from McMahon guesses.

    For every accepted j the guess lies close enough that Newton converges
    in at most 4 steps; :class:`NonConvergence` after 100 iterations would
    signal a defective j0.  Each zero is computed once per process; the
    result is an immutable tuple of frozen records.
    """
    if not 1 <= count <= 64:
        raise ConfigError("count must be in [1, 64]")
    return tuple(_zero(j) for j in range(1, count + 1))


def eta(j: int, grid: RadialGrid) -> np.ndarray:
    """Sample eta_j(y) = sqrt(2) J0(y r_j) / |J0'(r_j)| on ``grid``; the
    boundary sample is pinned to exactly 0.  Raises :class:`ConfigError`
    for j outside [1, 64], as :func:`j0_zeros` does."""
    z = j0_zeros(j)[-1]
    vals = math.sqrt(2.0) * j0(grid.y * z.r) / abs(j1(z.r))
    vals[-1] = 0.0
    return vals


@functools.lru_cache(maxsize=None)
def eta_samples(j: int, grid: RadialGrid) -> np.ndarray:
    """Samples of eta_j on ``grid`` (the floats of ``eta(j, grid)``),
    memoized per (j, grid.n).

    The array is backed by an immutable buffer, so neither it nor any view
    of it can be made writeable.
    """
    return np.frombuffer(eta(j, grid).tobytes(), dtype=float)


def eta_deriv(j: int, grid: RadialGrid) -> np.ndarray:
    """Analytic derivative of eta_j: sqrt(2) r_j J0'(y r_j) / |J0'(r_j)|
    with J0' = -J1; j in [1, 64] as for :func:`eta`."""
    z = j0_zeros(j)[-1]
    return -math.sqrt(2.0) * z.r * j1(grid.y * z.r) / abs(j1(z.r))


def scaling_coefficient(k: int, j: int, grid: RadialGrid) -> float:
    """Quadrature value of <y eta_k', eta_j>_0 (Simpson, analytic derivative).

    Equals -1 for j = k; for j != k it feeds the coupling coefficients of the
    reduced mode system.
    """
    return float(np.sum(grid.simpson * grid.y * eta_deriv(k, grid)
                        * eta(j, grid) * grid.y))


def coupling_coefficients(k: int, grid: RadialGrid) -> np.ndarray:
    """Quadrature couplings g_jk = <y eta_k', eta_j>_0 for j = 1..k-1."""
    return np.array([scaling_coefficient(k, j, grid) for j in range(1, k)])


def scaling_identity_defect(grid: RadialGrid) -> float:
    """max over k <= 8 of |<y eta_k', eta_k>_0 + 1| on ``grid``, refined to
    2048 intervals when coarser: Simpson's h^4 r_k^4 error for the k = 8
    integrand sits at ~1.3e-8 on 1024 intervals."""
    fine = grid if grid.n >= 2048 else RadialGrid(2048)
    return max(abs(scaling_coefficient(k, k, fine) + 1.0) for k in range(1, 9))


def zeros_to_csv(path, zeros: Sequence[BesselZero]):
    """Dump (j, r_j, lam_j, boundary_slope) rows for documentation tables."""
    files.write_csv(path, ["j", "r_j", "lambda_j", "boundary_slope"],
                    [[z.index, z.r, z.lam, z.boundary_slope] for z in zeros])
