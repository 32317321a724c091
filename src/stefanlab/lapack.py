"""The LAPACK routines of the lab, bound from scipy's own f2py extension.

``scipy/linalg/_flapack`` is loaded without running the ``scipy.linalg``
package, whose import (~0.3 s, most of it numpy submodules pulled in by
scipy's array-API layer) would outweigh every other set-up step of a CLI
process.  The extension is loaded under its own name and left out of
``sys.modules``; a later ``import scipy.linalg`` in the same process gets
the interpreter's copy of it, with the very same routine objects.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg was imported first
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # does not run scipy/__init__
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            loader = importlib.machinery.ExtensionFileLoader(name,
                                                             base + suffix)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules.pop(name, None)  # registered by single-phase init
            return module
    raise ImportError(f"scipy's LAPACK extension not found: {base}"
                      f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


_flapack = _load_flapack()
dpttrf, dpttrs, dgtsv = _flapack.dpttrf, _flapack.dpttrs, _flapack.dgtsv


def lowest_eigh_tridiagonal(d: np.ndarray, e: np.ndarray,
                            count: int) -> np.ndarray:
    """Eigenvectors, one column each in ascending order, of the ``count``
    smallest eigenvalues of the symmetric tridiagonal matrix (d, e): the
    path of ``scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(0, count - 1))``, ``dstebz`` bisection then ``dstein``,
    with its ``ValueError`` on a non-finite entry and ``LinAlgError`` when
    LAPACK fails."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    m, w, iblock, isplit, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, count,
                                                 0.0, "B")
    if info == 0:
        vecs, info = _flapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver: info {info}")
    return vecs[:, np.argsort(w[:m])]
