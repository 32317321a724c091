"""The LAPACK routines bound from scipy's extension, against scipy.linalg."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from stefanlab import lapack, spectrum
from stefanlab.weighted import RadialGrid, WeightParam


@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("b", [0.0, 0.01, -0.01, 0.05])
def test_cold_solve_is_scipys_index_selected_solve(n, b):
    op = spectrum.assemble_hb(RadialGrid(n), WeightParam(b))
    for count in (1, 4, 12):
        got = lapack.lowest_eigh_tridiagonal(op.diag, op.off, count)
        _, want = scipy.linalg.eigh_tridiagonal(
            op.diag, op.off, select="i", select_range=(0, count - 1))
        assert got.shape == want.shape == (n, count)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_non_finite_matrix_is_a_value_error():
    op = spectrum.assemble_hb(RadialGrid(512), WeightParam(0.0))
    d = op.diag.copy()
    d[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        lapack.lowest_eigh_tridiagonal(d, op.off, 2)


def test_routines_are_scipys_own():
    rng = np.random.default_rng(7)
    d = 4.0 + rng.random(64)
    e = -rng.random(63)
    rhs = rng.standard_normal((64, 1))
    ldl = scipy.linalg.lapack.dpttrf(d, e)[:2]
    for name, args in (("dpttrf", (d, e)), ("dpttrs", (*ldl, rhs)),
                       ("dgtsv", (e, d, e, rhs))):
        ours, theirs = getattr(lapack, name), getattr(scipy.linalg.lapack,
                                                      name)
        assert ours is theirs
        for got, want in zip(ours(*args), theirs(*args)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_cli_process_never_imports_scipy_linalg():
    # a step of the stepper and a cold eigensolve in a fresh interpreter
    code = """
import sys
import stefanlab.cli
from stefanlab import modulation, solver, spectrum
from stefanlab.weighted import RadialGrid, WeightParam, end_slope
grid = RadialGrid(512)
v = modulation.build_profile(grid, 1, [0.01])
solver.Stepper(grid, 1e-3).advance(v, 1.0, end_slope(v, grid.h))
spectrum.eigenpairs(grid, WeightParam(0.01), 3)
print(" ".join(sorted(sys.modules)))
"""
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "stefanlab.cli" in out
    for heavy in ("scipy.linalg", "numpy.f2py", "numpy.testing"):
        assert heavy not in out
    assert not [m for m in out if m == "scipy" or m.startswith("scipy.")]
