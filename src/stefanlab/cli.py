"""Scenario-driven command line front end.

Modes
-----
spectrum     eigenvalue table and drift-parameter sweep report
run          integrate one scenario, fit the interface asymptotics
shoot        search trapped lower-mode data for an excited regime
verify-all   run the acceptance verification suite

Flags come from :data:`stefanlab.config.SETTINGS`, take the config file's
value syntax (``--smax none``) and override the file.

Exit codes: 0 success, 1 configuration error or malformed command line,
2 verification failure, 3 dynamics guard tripped (boundary slope or radius).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from . import (asymptotics, bessel, files, modulation, reduced, spectrum,
               verify)
from .config import (SETTINGS, ScenarioConfig, load_config, parse_value,
                     serialize_config)
from .errors import (BoundaryBlowup, ConfigError, InsufficientDecay,
                     NonPositiveRadius, NoTrappedData, StefanLabError)
from .weighted import RadialGrid, WeightParam, inner_b


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stefanlab",
        description="numerical laboratory for the interior radial "
                    "moving-boundary problem",
        epilog="a setting's flag takes the config file's value syntax and "
               "overrides the file",
    )
    p.add_argument("--config", metavar="PATH", help="configuration file")
    for key, fname, flag in SETTINGS:
        if flag is None:
            continue
        # a flag hands its raw text to parse_value; a switch hands "true"
        if isinstance(getattr(ScenarioConfig, fname), bool):
            p.add_argument(flag, action="store_const", const="true",
                           dest=key, help=f"sets {key} = true")
        else:
            p.add_argument(flag, dest=key, help=f"sets {key}")
    p.add_argument("--shoot-file", metavar="PATH",
                   help="reuse trapped initials from a shoot result JSON")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective configuration and exit")
    return p


def _config_from_args(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = dataclasses.replace(cfg, **{
        fname: parse_value(getattr(args, key), fname, flag)
        for key, fname, flag in SETTINGS
        if flag is not None and getattr(args, key) is not None})
    if args.shoot_file is None:
        return cfg
    try:
        with open(args.shoot_file) as fh:
            payload = json.load(fh)
        vals = payload["found_initials"]
        if not isinstance(vals, list) or any(
                isinstance(x, bool) for x in vals):
            raise TypeError("found_initials must be a list of numbers")
        lower = tuple(float(x) for x in vals)
        shot = (payload["k"], float(payload["b_k0"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad shoot file {args.shoot_file}: {exc}") from exc
    # trapped initials belong to the (k, b_k0) they were shot for
    if shot != (cfg.k, cfg.b0):
        raise ConfigError(
            f"shoot file {args.shoot_file} is for k = {shot[0]!r}, "
            f"b_k0 = {shot[1]!r}, not k = {cfg.k}, b0 = {cfg.b0!r}")
    return dataclasses.replace(cfg, lower_modes=lower)


def _outpath(cfg: ScenarioConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_spectrum(cfg: ScenarioConfig) -> int:
    grid = RadialGrid(cfg.grid_n)
    zeros = bessel.j0_zeros(8)
    bessel.zeros_to_csv(_outpath(cfg, "eigen_table.csv"), zeros)
    basis = spectrum.eigenpairs(grid, WeightParam(cfg.b0), 8)
    files.write_csv(_outpath(cfg, "eigen_table_drift.csv"),
                    ["k", "b", "lambda_bk", "boundary_slope", "residual"],
                    [[j + 1, basis.b, basis.lams[j], basis.boundary_slopes[j],
                      basis.residuals[j]] for j in range(8)])
    reports = [spectrum.perturbation_sweep(grid, k, cfg.b_values)
               for k in (1, 2, 3)]
    spectrum.sweep_to_csv(_outpath(cfg, "perturbation_sweep.csv"), reports)

    checks = {}
    checks["zeros_refined"] = all(abs(bessel.j0(z.r)) <= 1e-12 for z in zeros)
    checks["gap_exceeds_one"] = all(
        zeros[i + 1].lam - zeros[i].lam > 1.0 for i in range(7))
    # the check measures Simpson quadrature of the analytic eta_j, whose
    # error (~ h^4 r_j^4) exceeds 1e-8 on 512 intervals
    quad = grid if grid.n >= 1024 else RadialGrid(1024)
    w0 = WeightParam(0.0)
    etas = [bessel.eta(j, quad) for j in range(1, 9)]
    ortho = max(abs(inner_b(quad, etas[i], etas[j], w0)
                    - (1.0 if i == j else 0.0))
                for i in range(8) for j in range(8))
    checks["orthonormality_1e-8"] = ortho <= 1e-8
    scaling = bessel.scaling_identity_defect(grid)
    checks["scaling_identity_1e-8"] = scaling <= 1e-8
    checks["sweep_slope_near_minus_one"] = all(
        -1.1 <= r.slope <= -0.9 for r in reports)
    checks["sweep_residual_order_1.8"] = all(
        r.residual_order >= 1.8 for r in reports)
    gap_checks = {}
    for kk in (1, 2):
        floor = spectrum.spectral_gap_check(grid, WeightParam(cfg.b0), kk,
                                            seed=cfg.seed)
        gap_checks[kk] = floor
        checks[f"gap_above_lam{kk + 1}_minus_half"] = (
            floor >= zeros[kk].lam - 0.5)
    summary = {
        "checks": checks,
        "orthonormality_defect": ortho,
        "scaling_identity_defect": scaling,
        "gap_floors": gap_checks,
        "sweeps": {r.k: {"slope": r.slope, "residual_order": r.residual_order}
                   for r in reports},
        "eigenvalues_b": {j + 1: float(lam) for j, lam in enumerate(basis.lams)},
    }
    files.write_json(_outpath(cfg, "spectrum_report.json"), summary)
    ok = all(checks.values())
    print(f"spectrum: {'all checks passed' if ok else 'CHECK FAILURES'} "
          f"(report in {cfg.out_dir})")
    if not ok:
        for name, passed in checks.items():
            if not passed:
                print(f"  failed: {name}", file=sys.stderr)
    return 0 if ok else 2


def cmd_run(cfg: ScenarioConfig) -> int:
    if cfg.k > 1 and not cfg.lower_modes:
        raise ConfigError(
            "k > 1 runs need lower_modes (run 'shoot' first or pass "
            "--lower/--shoot-file)"
        )
    run = modulation.scenario(RadialGrid(cfg.grid_n), cfg.k,
                              [*cfg.lower_modes, cfg.b0], cfg.ds, cfg.s_max)
    run.series.to_csv(_outpath(cfg, "timeseries.csv"))
    run.track.to_csv(_outpath(cfg, "modulation.csv"))
    verdict = run.verdict
    asymptotics.write_verdict_json(_outpath(cfg, "verdict.json"), verdict)
    asymptotics.decay_plot(_outpath(cfg, "decay.svg"), run.series, verdict)
    print(f"run: {verdict['regime']}, rate {verdict['rate_fitted']:.4f} vs "
          f"{verdict['rate_predicted']:.4f} "
          f"(rel {verdict['rate_rel_error']:.3%}), radius defect "
          f"{verdict['radius_defect']:.2e} -> "
          f"{'PASS' if verdict['passed'] else 'FAIL'}")
    return 0 if verdict["passed"] else 2


def cmd_shoot(cfg: ScenarioConfig) -> int:
    evaluator = reduced.TrapEvaluator(
        cfg.k, cfg.b0, RadialGrid(cfg.grid_n), ds=cfg.ds, s_max=cfg.s_max)
    result = reduced.shoot_trapped(evaluator)
    path = _outpath(cfg, f"shoot_k{cfg.k}.json")
    result.to_json(path)
    print(f"shoot: trapped initials {result.initials} "
          f"(max V^2 = {result.max_v2:.3g}) -> {path}")
    return 0


def cmd_verify_all(cfg: ScenarioConfig) -> int:
    results = verify.run_all(quick=cfg.quick)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if cfg.json_output:
        path = _outpath(cfg, "verification.json")
        files.write_json(path, [
            {**dataclasses.asdict(r), "seconds": round(r.seconds, 3)}
            for r in results])
        print(f"wrote {path}")
    return 0 if n_pass == len(results) else 2


def _drift_warning_once():
    """Show the first drift-range warning of :class:`WeightParam` and ignore
    the rest: one run takes bases at many b next to each other."""
    show = warnings.showwarning

    def show_first(message, category, *args, **kwargs):
        show(message, category, *args, **kwargs)
        if str(message).startswith("drift parameter"):
            warnings.filterwarnings("ignore", message="drift parameter")

    warnings.showwarning = show_first


def main(argv=None) -> int:
    with warnings.catch_warnings():
        _drift_warning_once()
        try:
            args = _build_parser().parse_args(argv)
            cfg = _config_from_args(args)
            if args.dump_config:
                print(serialize_config(cfg), end="")
                return 0
            handler = {
                "spectrum": cmd_spectrum,
                "run": cmd_run,
                "shoot": cmd_shoot,
                "verify-all": cmd_verify_all,
            }[cfg.mode]
            return handler(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except (BoundaryBlowup, NonPositiveRadius) as exc:
            print(f"dynamics guard: {exc}", file=sys.stderr)
            return 3
        except (NoTrappedData, InsufficientDecay) as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return 2
        except StefanLabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
