"""The traced benchmark's targets name functions the package still has.

``bench/tracer.py`` wraps each ``(module, attribute)`` of its ``TARGETS``
when a traced sample starts; a renamed or deleted library function would
only show there.  The tracer module is loaded from its file and nothing is
installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _resolve(modname: str, attr: str):
    mod = importlib.import_module(f"stefanlab.{modname}")
    owner_name, _, member = attr.rpartition(".")
    if not owner_name:
        return getattr(mod, member, None)
    raw = getattr(mod, owner_name).__dict__.get(member)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_targets_are_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bad = [f"{modname}.{attr}" for modname, attr, _ in tracer.TARGETS
           if not inspect.isfunction(_resolve(modname, attr))]
    assert not bad, f"not a function, method or classmethod: {bad}"
