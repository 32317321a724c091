"""Span tracing of stefanlab from outside the package, and its analysis.

``install()`` replaces the public functions listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end and the span that
was open when the call began (its parent).  Spans are kept in flat arrays in
memory and written to one ``.npz`` file by ``Tracer.dump`` when the command
ends.  A few counts are taken at the same call boundaries from the returned
values (``OBSERVERS``).

``summarise()`` runs in the benchmark process: it turns the span files of
one traced sample into per-layer metrics.  A span's self time is its
duration minus the time its child spans cover; calls are sequential in one
thread, so children never overlap.

Only functions whose calls cost well above the wrapper's ~1 us are wrapped;
``weighted`` helpers and per-node Bessel evaluations are left alone so that
the self times of their callers stay undistorted.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

# (module under stefanlab, attribute, layer).  "io" gathers the output
# writers of every module.
TARGETS = (
    ("solver", "Stepper.__init__", "solver"),
    ("solver", "Stepper.advance", "solver"),
    ("solver", "run", "solver"),
    ("modulation", "track_run", "modulation"),
    ("modulation", "decompose", "modulation"),
    ("modulation", "energy_of", "modulation"),
    ("modulation", "self_consistent_b1", "modulation"),
    ("modulation", "build_profile", "modulation"),
    ("modulation", "Basis.solve", "modulation"),
    ("spectrum", "assemble_hb", "spectrum"),
    ("spectrum", "eigenpairs", "spectrum"),
    ("spectrum", "perturbation_sweep", "spectrum"),
    ("spectrum", "spectral_gap_check", "spectrum"),
    ("bessel", "j0_zeros", "bessel"),
    ("bessel", "eta", "bessel"),
    ("bessel", "eta_deriv", "bessel"),
    ("bessel", "scaling_coefficient", "bessel"),
    ("reduced", "shoot_trapped", "reduced"),
    ("reduced", "TrapEvaluator.evaluate", "reduced"),
    ("reduced", "coupling_coefficients", "reduced"),
    ("asymptotics", "verdict", "asymptotics"),
    ("asymptotics", "fit_rate", "asymptotics"),
    ("solver", "TimeSeries.to_csv", "io"),
    ("modulation", "TrackResult.to_csv", "io"),
    ("asymptotics", "write_verdict_json", "io"),
    ("asymptotics", "decay_plot", "io"),
    ("bessel", "zeros_to_csv", "io"),
    ("spectrum", "sweep_to_csv", "io"),
    ("reduced", "ShootingResult.to_json", "io"),
    ("verify", "run_all", "verify"),
    *(("verify", f"criterion_{n}", "verify") for n in range(1, 12)),
    ("cli", "cmd_spectrum", "cli"),
    ("cli", "cmd_run", "cli"),
    ("cli", "cmd_shoot", "cli"),
    ("cli", "cmd_verify_all", "cli"),
)

LAYERS = ("solver", "modulation", "spectrum", "bessel", "reduced",
          "asymptotics", "io", "verify", "cli")


def _observe_run(counts, series):
    counts["solver.records"] = counts.get("solver.records", 0) + len(series.s)


def _observe_evaluate(counts, ev):
    # integrated s runs to the last record; after an exit it is wasted
    s_end = float(ev.track.states[-1].s)
    counts["reduced.integrated_s"] = counts.get("reduced.integrated_s", 0.0) + s_end
    if ev.exit_s is not None:
        waste = s_end - float(ev.exit_s)
        counts["reduced.after_exit_s"] = counts.get("reduced.after_exit_s", 0.0) + waste


def _observe_shoot(counts, result):
    counts["reduced.bisect_iters"] = (counts.get("reduced.bisect_iters", 0)
                                      + int(result.iterations))


OBSERVERS = {
    "solver.run": _observe_run,
    "reduced.TrapEvaluator.evaluate": _observe_evaluate,
    "reduced.shoot_trapped": _observe_shoot,
}


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._open: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        opened, name_id, parent = self._open, self.name_id, self.parent
        start, end, counts = self.start, self.end, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(opened[-1] if opened else -1)
            end.append(0.0)
            opened.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def dump(self, path):
        np.savez(path,
                 names=np.array(self.names), layers=np.array(self.layers),
                 name_id=np.asarray(self.name_id, dtype=np.intc),
                 parent=np.asarray(self.parent, dtype=np.intc),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 counts=np.array(json.dumps(self.counts)))


def install() -> Tracer:
    """Wrap every target in the imported stefanlab modules."""
    tracer = Tracer()
    for modname, attr, layer in TARGETS:
        mod = importlib.import_module(f"stefanlab.{modname}")
        name = f"{modname}.{attr}"
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                setattr(owner, member,
                        classmethod(tracer.wrap(name, layer, raw.__func__)))
            else:
                setattr(owner, member, tracer.wrap(name, layer, raw))
        else:
            setattr(mod, member, tracer.wrap(name, layer, getattr(mod, member)))
    # run_all looks criteria up in a table built at import time
    verify = importlib.import_module("stefanlab.verify")
    for n in verify.ALL_CRITERIA:
        verify.ALL_CRITERIA[n] = getattr(verify, f"criterion_{n}")
    return tracer


# --------------------------------------------------------------------------
# analysis (benchmark process)


class _Spans:
    """Spans of one process with durations, self times and ancestry."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(x) for x in z["names"]]
            self.layers = [str(x) for x in z["layers"]]
            self.name_id = z["name_id"].astype(np.int64)
            self.parent = z["parent"].astype(np.int64)
            self.dur = z["end"] - z["start"]
            self.counts = json.loads(str(z["counts"]))
        has_parent = self.parent >= 0
        cover = np.zeros(len(self.dur))
        np.add.at(cover, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - cover

    def mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name_id, ids)

    def under(self, ancestor_mask: np.ndarray) -> np.ndarray:
        """Spans with at least one ancestor selected by ``ancestor_mask``."""
        found = np.zeros(len(self.dur), dtype=bool)
        node = self.parent.copy()
        live = node >= 0
        while live.any():
            found[live] |= ancestor_mask[node[live]]
            node[live] = self.parent[node[live]]
            live = node >= 0
        return found


def summarise(paths) -> tuple[dict, dict]:
    """Per-layer metrics and a per-function table for one traced sample.

    ``paths`` are the span files of the sample's invocations.  Returns
    ``(metrics, functions)``: metrics maps a metric name to (value, unit);
    functions maps a wrapped function to its calls, inclusive and self
    seconds.  A time or mean of a layer that was never called reads 0.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    track_eigensolves = track_decompositions = 0

    groups = {
        "solver.run": ("solver.run",),
        "modulation.track": ("modulation.track_run",),
        "spectrum.gap_check": ("spectrum.spectral_gap_check",),
        "spectrum.sweep": ("spectrum.perturbation_sweep",),
        "bessel.j0_zeros": ("bessel.j0_zeros",),
        "bessel.eta": ("bessel.eta",),
        "reduced.eval": ("reduced.TrapEvaluator.evaluate",),
        "asymptotics.fit": ("asymptotics.verdict", "asymptotics.fit_rate"),
        "io.write": tuple(f"{m}.{a}" for m, a, layer in TARGETS if layer == "io"),
    }
    outer = dict.fromkeys(groups, 0.0)    # inclusive time of outermost calls

    for path in paths:
        sp = _Spans(path)
        for nid, name in enumerate(sp.names):
            sel = sp.name_id == nid
            calls[name] = calls.get(name, 0) + int(sel.sum())
            total[name] = total.get(name, 0.0) + float(sp.dur[sel].sum())
            self_s[name] = self_s.get(name, 0.0) + float(sp.self_time[sel].sum())
            layer_self[sp.layers[nid]] += float(sp.self_time[sel].sum())
        for key, names in groups.items():
            sel = sp.mask(names)
            outermost = sel & ~sp.under(sel)
            outer[key] += float(sp.dur[outermost].sum())
        in_track = sp.under(sp.mask(("modulation.track_run",)))
        track_eigensolves += int((in_track & sp.mask(("spectrum.eigenpairs",))).sum())
        track_decompositions += int((in_track & sp.mask(("modulation.decompose",))).sum())
        for key, val in sp.counts.items():
            counts[key] = counts.get(key, 0) + val

    def n(name):
        return calls.get(name, 0)

    def mean_self_us(name):
        return 1e6 * self_s.get(name, 0.0) / n(name) if n(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "solver.steps": (n("solver.Stepper.advance"), "count"),
        "solver.step_us": (mean_self_us("solver.Stepper.advance"), "us"),
        "solver.run_s": (outer["solver.run"], "s"),
        "solver.factorizations": (n("solver.Stepper.__init__"), "count"),
        "solver.records": (counts.get("solver.records", 0), "count"),
        "modulation.track_s": (outer["modulation.track"], "s"),
        "modulation.decompositions": (n("modulation.decompose"), "count"),
        "modulation.decompose_us": (mean_self_us("modulation.decompose"), "us"),
        "modulation.energy_us": (mean_self_us("modulation.energy_of"), "us"),
        "modulation.eigensolves_per_record": (
            ratio(track_eigensolves, track_decompositions), "ratio"),
        "spectrum.eigenpairs_calls": (n("spectrum.eigenpairs"), "count"),
        "spectrum.eigenpairs_us": (mean_self_us("spectrum.eigenpairs"), "us"),
        "spectrum.assemble_calls": (n("spectrum.assemble_hb"), "count"),
        "spectrum.gap_check_s": (outer["spectrum.gap_check"], "s"),
        "spectrum.sweep_s": (outer["spectrum.sweep"], "s"),
        "bessel.j0_zeros_calls": (n("bessel.j0_zeros"), "count"),
        "bessel.j0_zeros_s": (outer["bessel.j0_zeros"], "s"),
        "bessel.eta_calls": (n("bessel.eta"), "count"),
        "bessel.eta_s": (outer["bessel.eta"], "s"),
        "reduced.evals": (ratio(n("reduced.TrapEvaluator.evaluate"),
                                n("reduced.shoot_trapped")), "count"),
        "reduced.eval_s": (outer["reduced.eval"], "s"),
        "reduced.bisect_iters": (counts.get("reduced.bisect_iters", 0), "count"),
        "reduced.exit_waste_frac": (
            ratio(counts.get("reduced.after_exit_s", 0.0),
                  counts.get("reduced.integrated_s", 0.0)), "ratio"),
        "asymptotics.fit_s": (outer["asymptotics.fit"], "s"),
        "io.write_s": (outer["io.write"], "s"),
    }
    for c in (1, 2, 3, 4, 11):
        m[f"verify.c{c:02d}_s"] = (total.get(f"verify.criterion_{c}", 0.0), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (sum(calls.values()), "count")
    functions = {name: {"calls": calls[name], "total_s": total[name],
                        "self_s": self_s[name]}
                 for name in sorted(calls) if calls[name]}
    return m, functions
