"""Library argument checks raise typed errors.

Every check a library function makes on its arguments before it computes
anything raises :class:`ConfigError`, a :class:`StefanLabError` that is
also a ``ValueError``; a failed factorization of the stepper's matrix
raises :class:`NonConvergence`.  No example starts a PDE run.
"""

import numpy as np
import pytest

from stefanlab import (asymptotics, bessel, modulation, reduced, solver,
                       spectrum)
from stefanlab.errors import ConfigError, NonConvergence, StefanLabError
from stefanlab.weighted import RadialGrid, WeightParam

G512 = RadialGrid(512)
W0 = WeightParam(0.0)


def _profile(last: float) -> np.ndarray:
    v = 1.0 - G512.y ** 2
    v[-1] = last
    return v


BAD_ARGUMENTS = {
    "j0 at x < 0": lambda: bessel.j0(-1.0),
    "j0_zeros count": lambda: bessel.j0_zeros(0),
    "riccati |b0|": lambda: reduced.riccati_exact(1, 0.06, 1.0),
    "trap k": lambda: reduced.TrapEvaluator(1, 0.01, G512),
    "trap ceiling": lambda: reduced.TrapEvaluator(2, 0.01, G512,
                                                  ceiling=1e-8, tol=1e-6),
    "stepper ds": lambda: solver.Stepper(G512, 0.0),
    "stepper ds = inf": lambda: solver.Stepper(G512, np.inf),
    "run profile at y = 1": lambda: solver.run(G512, _profile(1e-300),
                                               ds=4e-4, s_max=0.01),
    "run profile shape": lambda: solver.run(G512, np.zeros(512), ds=4e-4,
                                            s_max=0.01),
    "run ds = nan": lambda: solver.run(
        G512, _profile(0.0), ds=np.nan, s_max=0.01),
    "run ds = 1e-200": lambda: solver.run(
        G512, _profile(0.0), ds=1e-200, s_max=0.01),
    "run ds = 0": lambda: solver.run(G512, _profile(0.0), ds=0.0, s_max=0.01),
    "run ds = inf": lambda: solver.run(
        G512, _profile(0.0), ds=np.inf, s_max=0.01),
    "trap ds = 0": lambda: reduced.TrapEvaluator(
        2, 0.01, G512, ds=0.0).evaluate([0.0]),
    "profile coefficient count": lambda: modulation.build_profile(
        G512, 2, [0.01]),
    "residual states": lambda: modulation.modulation_residual(
        [modulation.ModulationState(s, 0.0, np.zeros(1), 0.0, np.zeros(0))
         for s in (0.0, 1e-3)]),
    "regime b_k0 = 0": lambda: asymptotics.classify_regime(1, 0.0),
    "eigenpairs count": lambda: spectrum.eigenpairs(G512, W0, 0),
    "eigenpairs grid": lambda: spectrum.eigenpairs(RadialGrid(256), W0, 1),
    "family |b|": lambda: spectrum.basis_family(G512, 1).at(-0.2),
    "sweep b values": lambda: spectrum.perturbation_sweep(G512, (1,), [0.01]),
    "gap check k": lambda: spectrum.spectral_gap_check(
        spectrum.eigenpairs(G512, W0, 2), 2),
    "grid size": lambda: RadialGrid(7),
    "weight |b|": lambda: WeightParam(0.2),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_a_typed_value_error(call):
    with pytest.raises(ConfigError) as info:
        call()
    assert isinstance(info.value, StefanLabError)
    assert isinstance(info.value, ValueError)


def test_failed_stepper_factorization_is_nonconvergence(monkeypatch):
    def failing_dpttrf(d, e):
        return d, e, 1
    monkeypatch.setattr(solver, "dpttrf", failing_dpttrf)
    with pytest.raises(NonConvergence, match="factorization failed"):
        solver.Stepper(G512, 1e-3)
