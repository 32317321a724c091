"""The traced benchmark's targets and observers fit the package.

``bench/tracer.py`` wraps each ``(module, attribute)`` of its ``TARGETS``
when a traced sample starts, and applies its ``OBSERVERS`` to the values
some of them return; a renamed or deleted library function, or a reshaped
return value, would only show there.  The tracer module is loaded from its
file and nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from stefanlab import modulation, reduced, solver
from stefanlab.weighted import RadialGrid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, attr: str):
    mod = importlib.import_module(f"stefanlab.{modname}")
    owner_name, _, member = attr.rpartition(".")
    if not owner_name:
        return getattr(mod, member, None)
    raw = getattr(mod, owner_name).__dict__.get(member)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_targets_are_functions(tracer):
    bad = [f"{modname}.{attr}" for modname, attr, _ in tracer.TARGETS
           if not inspect.isfunction(_resolve(modname, attr))]
    assert not bad, f"not a function, method or classmethod: {bad}"


class _AffineEvaluator:
    """Exit map without a PDE: V(s_F) = J_11 (u - 3e-6), affine in the
    search's mode-law coordinate u = x / (1 + q x) with the linear law's
    slope J_11, so the search traps after one Newton step."""

    k, b_k0, grid = 2, 0.01, RadialGrid(512)
    ceiling, tol = 1.0, 1e-12
    horizon = s_max = reduced.default_shoot_horizon(2)
    slopes, q = reduced.mode_law_model(2, horizon)

    def __init__(self):
        self.evaluations = 0

    def evaluate(self, x):
        self.evaluations += 1
        x = np.asarray(x)
        v = self.slopes * (x / (1.0 + self.q * x) - 3e-6)
        return reduced.TrapEvaluation(
            exit_s=None if abs(v[0]) < 1e-3 else 0.1, horizon_V=v,
            max_v2=1.0, track=None)


def test_observers_read_real_return_values(tracer):
    grid = RadialGrid(512)
    v0 = modulation.build_profile(grid, 1, [0.01])
    series = solver.run(grid, v0, ds=solver.default_ds(grid, 1), s_max=0.01)
    trapped = reduced.TrapEvaluator(2, 0.01, grid, s_max=0.01).evaluate([0.0])
    # a ceiling below V(0) makes the run exit at its first record
    exited = reduced.TrapEvaluator(2, 0.01, grid, s_max=0.01,
                                   ceiling=1e-4).evaluate([1e-3])
    assert trapped.exit_s is None and exited.exit_s == 0.0
    result = reduced.shoot_trapped(_AffineEvaluator())
    returns = {"solver.run": [series],
               "reduced.TrapEvaluator.evaluate": [trapped, exited],
               "reduced.shoot_trapped": [result]}
    assert set(tracer.OBSERVERS) == set(returns)
    counts = {}
    for name, observe in tracer.OBSERVERS.items():
        for value in returns[name]:
            observe(counts, value)
    assert counts["solver.records"] == len(series.s)
    s_end = exited.track.states[-1].s
    assert s_end == trapped.track.states[-1].s > 0.0
    assert counts["reduced.integrated_s"] == 2 * s_end
    assert counts["reduced.after_exit_s"] == s_end
    assert counts["reduced.bisect_iters"] == result.iterations == 1
