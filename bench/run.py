"""stefanlab benchmark: each workload runs as fresh command-line processes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the configuration files of the workload (see
``build_workload``); the command line receives only those files.  The
samples of a run are run one after another, each invocation a fresh
interpreter (a closed loop with one client), until the next sample would
end after ``--seconds``.  Every invocation's exit code and outputs are
checked, and every sample must write byte-identical outputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the samples).  With ``--trace 1`` one
more sample runs under the tracer (``tracer.py``) and the JSON carries the
per-layer metrics instead.  Lines above it print every metric by name and
unit.  A result file with the inputs, every sample and the machine facts is
written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# a run must end within 180 s, so children still running at this point of
# the benchmark's own clock are killed and count as failed
DEADLINE = time.monotonic() + 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_FILES = ("timeseries.csv", "modulation.csv", "verdict.json")
# rounds of set-up probes per run, on top of the samples' own invocations
SETUP_PROBES = 2

WHY = {
    "ground-run": "k = 1 run at n = 1024: the k = 1 basis path of "
                  "modulation/spectrum/bessel and one trajectory; bypasses "
                  "shooting",
    "excited-shoot": "k = 2 shoot then run at n = 512: stepper throughput "
                     "and the shooting bisection; nearly bypasses the k = 1 "
                     "basis path",
    "spectral": "spectrum at n = 1024 and 2048, then verify-all --quick: "
                "Bessel, eigensolver and import cost; bypasses solver, "
                "modulation and shooting",
}


class CheckFailed(Exception):
    """An output of an invocation is wrong."""


@dataclass
class Step:
    """One command-line invocation of a sample."""

    name: str                  # subdirectory of the sample for its outputs
    config: dict               # generated configuration, key -> value
    expect_rc: int
    same_bytes: tuple          # outputs every sample must repeat exactly
    check: Callable[[Path], dict]   # raises CheckFailed; returns accuracy
    args: tuple = ()           # extra flags; "{sample}" is the sample dir


@dataclass
class Workload:
    name: str
    steps: list
    inputs: dict


@dataclass
class Invocation:
    step: str
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    failure: str | None = None
    accuracy: dict | None = None


# --------------------------------------------------------------------------
# output checks


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def check_run(out: Path) -> dict:
    verdict = _read_json(out / "verdict.json")
    if verdict.get("passed") is not True:
        raise CheckFailed("verdict.json: passed is not true")
    try:
        with open(out / "timeseries.csv", newline="") as fh:
            mass = [float(row["mass"]) for row in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"timeseries.csv: {exc}") from exc
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    return {"rate_rel_err": verdict["rate_rel_error"], "mass_drift": drift}


def check_shoot(out: Path) -> dict:
    shot = _read_json(out / "shoot_k2.json")
    if shot.get("exit_s", 0.0) is not None:
        raise CheckFailed(f"shoot_k2.json: not trapped (exit_s = {shot.get('exit_s')})")
    return {}


def check_spectrum(out: Path) -> dict:
    report = _read_json(out / "spectrum_report.json")
    failed = [name for name, ok in report["checks"].items() if ok is not True]
    if failed:
        raise CheckFailed(f"spectrum_report.json: failed checks {failed}")
    return {"ortho_defect": report["orthonormality_defect"]}


# criterion 3 is the strict expected failure documented in the README
QUICK_EXPECTED = {1: True, 2: True, 3: False, 4: True, 11: True}


def check_quick(out: Path) -> dict:
    rows = _read_json(out / "verification.json")
    got = {row["number"]: row["passed"] for row in rows}
    if got != QUICK_EXPECTED:
        raise CheckFailed(f"verification.json: criteria {got}, "
                          f"expected {QUICK_EXPECTED}")
    return {}


# --------------------------------------------------------------------------
# workloads


def build_workload(name: str, seed: int) -> Workload:
    """Inputs of a workload, drawn from the seed alone."""
    rng = random.Random(f"{name}/{seed}")
    b0 = rng.choice((-1.0, 1.0)) * round(rng.uniform(0.008, 0.012), 5)
    if name == "ground-run":
        run = {"mode": "run", "k": 1, "grid": 1024, "b0": b0}
        return Workload(name, [Step("run", run, 0, RUN_FILES, check_run)],
                        {"b0": b0})
    if name == "excited-shoot":
        base = {"k": 2, "grid": 512, "b0": b0}
        return Workload(name, [
            Step("shoot", {"mode": "shoot", **base}, 0, ("shoot_k2.json",),
                 check_shoot),
            Step("run", {"mode": "run", **base}, 0, RUN_FILES, check_run,
                 ("--shoot-file", "{sample}/shoot/shoot_k2.json")),
        ], {"b0": b0})
    if name == "spectral":
        scale = rng.uniform(0.8, 1.2)
        b_values = tuple(round(c * scale, 6) for c in (0.005, 0.01, 0.02))
        gap_seed = rng.randrange(1, 2 ** 31)
        spec = {"mode": "spectrum", "b0": b0, "b_values": b_values,
                "seed": gap_seed}
        steps = [Step(f"spectrum-{n}", {**spec, "grid": n}, 0,
                      ("spectrum_report.json",), check_spectrum)
                 for n in (1024, 2048)]
        steps.append(Step("verify-quick",
                          {"mode": "verify-all", "quick": True, "json": True},
                          2, (), check_quick))
        return Workload(name, steps,
                        {"b0": b0, "b_values": b_values, "gap_seed": gap_seed})
    raise ValueError(f"unknown workload {name!r}")


def config_text(config: dict) -> str:
    def fmt(val):
        if isinstance(val, bool):
            return "true" if val else "false"
        if isinstance(val, tuple):
            return ", ".join(repr(x) for x in val)
        return repr(val) if isinstance(val, float) else str(val)

    return "".join(f"{key} = {fmt(val)}\n" for key, val in config.items())


# --------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, env, stdout: Path, stderr: Path):
    """Run cmd to completion.

    Returns (exit code, start, end, max RSS in MB, user + system CPU s).
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(DEADLINE - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, start, end, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def launch(step: Step, cfg: Path, sample_dir: Path, env, mode: str = "run",
           inputs_dir: Path | None = None):
    """One invocation; returns the Invocation and its first and last clock.

    ``mode`` is "run", "trace" (spans written next to the outputs) or
    "probe" (stop at handler entry).  "{sample}" in the step's flags becomes
    ``inputs_dir``, by default the sample's own directory.
    """
    out = sample_dir / step.name
    out.mkdir(parents=True)
    stamp = out / "handler_entry.txt"
    flags = {"run": [], "trace": ["--spans", str(out / "spans.npz")],
             "probe": ["--probe"]}[mode]
    extra = [a.replace("{sample}", str(inputs_dir or sample_dir))
             for a in step.args]
    cmd = [sys.executable, str(HERE / "launch.py"), "--stamp", str(stamp),
           *flags, "--", "--config", str(cfg), "--out", str(out), *extra]
    rc, start, end, rss, cpu = spawn(cmd, env, out / "stdout.txt",
                                     out / "stderr.txt")
    try:
        setup = float(stamp.read_text()) - start
    except (OSError, ValueError):
        setup = None
    return Invocation(step.name, rc, end - start, setup, rss, cpu), start, end


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    invocations: list


def run_sample(wl: Workload, cfgs, sample_dir: Path, env, mode: str,
               reference: dict) -> Sample:
    """Run the steps back to back, then check them outside the timed span.

    ``reference`` maps (step, file) to the digest of the first sample.
    """
    invs, first, last = [], None, None
    for step, cfg in zip(wl.steps, cfgs):
        inv, start, end = launch(step, cfg, sample_dir, env, mode)
        first = start if first is None else first
        last = end
        invs.append(inv)
    for step, inv in zip(wl.steps, invs):
        out = sample_dir / step.name
        try:
            if inv.rc != step.expect_rc:
                raise CheckFailed(f"exit code {inv.rc}, expected {step.expect_rc}")
            if inv.setup_s is None:
                raise CheckFailed("mode handler never entered")
            inv.accuracy = step.check(out)
            for name in step.same_bytes:
                got = digest(out / name)
                want = reference.setdefault((step.name, name), got)
                if got != want:
                    raise CheckFailed(f"{name} differs from the first sample")
        except CheckFailed as exc:
            inv.failure = str(exc)
        except (LookupError, TypeError, AttributeError, ValueError,
                ArithmeticError) as exc:   # an output of the wrong shape
            inv.failure = f"malformed output: {exc!r}"
    setups = [inv.setup_s or 0.0 for inv in invs]
    return Sample(last - first, sum(setups), max(inv.rss_mb for inv in invs),
                  sum(inv.cpu_s for inv in invs), invs)


def run_probes(wl: Workload, cfgs, work: Path, env, inputs_dir: Path,
               rounds: int) -> list:
    """Invocations that stop at handler entry: more set-up samples."""
    invs = []
    for i in range(rounds):
        for step, cfg in zip(wl.steps, cfgs):
            inv, _, _ = launch(step, cfg, work / f"probe-{i}", env, "probe",
                               inputs_dir)
            if inv.rc != 0 or inv.setup_s is None:
                inv.failure = f"set-up probe: exit code {inv.rc}"
            invs.append(inv)
    return invs


def run_witness(shoot_json: Path, grid_n: int, env, work: Path) -> str | None:
    """Criterion 8's codimension-one witness; returns a failure or None."""
    cmd = [sys.executable, str(HERE / "witness.py"), str(shoot_json), str(grid_n)]
    rc, *_ = spawn(cmd, env, work / "witness.json", work / "witness.err")
    try:
        result = json.loads((work / "witness.json").read_text())
    except (OSError, ValueError):
        return f"witness exited {rc} without a result"
    if rc != 0 or not result["passed"]:
        return f"witness does not exit on both sides: {result['exit_s']}"
    return None


# --------------------------------------------------------------------------
# facts and reporting


def machine_facts(seed: int, n_samples: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "stefanlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "samples": n_samples,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "stefanlab" / "cli.py").is_file():
        print(f"no stefanlab sources under {SRC}", file=sys.stderr)
        return 2

    wl = build_workload(args.workload, args.seed)
    work = OUT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfgs = []
    for step in wl.steps:
        cfgs.append(work / f"{step.name}.cfg")
        cfgs[-1].write_text(config_text(step.config))
    env = child_env()

    # untimed warm-up: byte-compiles the package and fills the page cache
    spawn([sys.executable, str(HERE / "launch.py"), "--stamp",
           str(work / "warmup.stamp"), "--", "--config", str(cfgs[0]),
           "--dump-config"],
          env, work / "warmup.out", work / "warmup.err")

    reference: dict = {}
    samples: list[Sample] = []
    probes: list[Invocation] = []
    begin = time.monotonic()
    while True:
        samples.append(run_sample(wl, cfgs, work / f"sample-{len(samples)}",
                                  env, "run", reference))
        if not probes:
            # after the first sample, whose shoot file later steps may read
            probes = run_probes(wl, cfgs, work, env, work / "sample-0",
                                SETUP_PROBES)
        typical = statistics.median(s.wall_s for s in samples)
        if time.monotonic() - begin + typical > args.seconds:
            break

    traced = None
    if args.trace:
        traced = run_sample(wl, cfgs, work / "traced", env, "trace", reference)
    ran = samples + ([traced] if traced else [])

    if wl.name == "excited-shoot":
        # every shoot output is byte-identical, so one witness covers all
        failure = run_witness(work / "sample-0" / "shoot" / "shoot_k2.json",
                              wl.steps[0].config["grid"], env, work)
        for inv in (inv for s in ran for inv in s.invocations):
            if failure and inv.step == "shoot" and inv.failure is None:
                inv.failure = failure

    wall = statistics.median(s.wall_s for s in samples)
    setups: dict = {}
    for inv in probes + [inv for s in samples for inv in s.invocations]:
        if inv.setup_s is not None:
            setups.setdefault(inv.step, []).append(inv.setup_s)
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
    }
    invs = probes + [inv for s in ran for inv in s.invocations]
    failed = [inv for inv in invs if inv.failure]
    end_to_end["fail_rate"] = (len(failed) / len(invs), "ratio")
    accuracy = {}
    for inv in samples[0].invocations:
        for key, val in (inv.accuracy or {}).items():
            accuracy[key] = max(val, accuracy.get(key, val))
    units = {"rate_rel_err": "ratio", "mass_drift": "ratio", "ortho_defect": "abs"}
    for key, val in accuracy.items():
        end_to_end[key] = (val, units[key])

    per_layer, functions = {}, {}
    if traced:
        import tracer
        spans = [work / "traced" / step.name / "spans.npz" for step in wl.steps]
        per_layer, functions = tracer.summarise([p for p in spans if p.exists()])
        per_layer["trace.wall_s"] = (traced.wall_s, "s")
        per_layer["trace.overhead_s"] = (traced.wall_s - wall, "s")

    facts = machine_facts(args.seed, len(samples))
    print(f"workload {wl.name} (seed {args.seed}): {wl.inputs}")
    print(f"  {len(samples)} samples x {len(wl.steps)} invocations, "
          f"{facts['nproc']} CPUs, {facts['cpu_model']}")
    for name, (val, unit) in end_to_end.items():
        print(f"  {name:<16} {val:.6g} {unit}")
    print(f"  invocations: {len(invs)} attempted ({len(probes)} set-up "
          f"probes), {len(failed)} failed")
    for name, (val, unit) in per_layer.items():
        print(f"  {name:<36} {val:.6g} {unit}")
    for inv in failed:
        print(f"FAILED {inv.step}: {inv.failure}", file=sys.stderr)

    result = {
        "workload": wl.name,
        "why": WHY[wl.name],
        "inputs": wl.inputs,
        "configs": {step.name: config_text(step.config) for step in wl.steps},
        "facts": facts,
        "samples": samples,
        "setup_probes": probes,
        "traced_sample": traced,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "functions": functions,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=vars) + "\n")

    chosen = per_layer if traced else {
        k: end_to_end[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
