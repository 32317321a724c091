"""Exact bytes of every result-file writer, on tiny hand-built inputs.

CSV files are csv-module rows (``\\r\\n`` line ends) whose integer cells
(``k``, ``j``) are bare and whose other cells are ``repr(float(x))``;
JSON files are ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
final newline.
"""

import math
from types import SimpleNamespace

import numpy as np

from stefanlab import asymptotics, bessel, modulation, reduced, spectrum
from stefanlab.solver import TimeSeries


def read_bytes(path) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode()


def test_timeseries_csv(tmp_path):
    ts = TimeSeries(s=np.array([0.0, 0.5]), t=np.array([0.0, 0.1 + 0.2]),
                    lam=np.array([1.0, 0.975]), a=np.array([-0.25, 1e-300]),
                    mass=np.array([math.pi, math.pi]),
                    vnorm=np.array([2.0, 1 / 3]))
    ts.to_csv(tmp_path / "ts.csv")
    assert read_bytes(tmp_path / "ts.csv") == (
        "s,t,lambda,a,mass,l2b_norm\r\n"
        "0.0,0.0,1.0,-0.25,3.141592653589793,2.0\r\n"
        "0.5,0.30000000000000004,0.975,1e-300,3.141592653589793,"
        "0.3333333333333333\r\n")


def test_track_csv_k2_with_nan_and_inf(tmp_path):
    states = [
        modulation.ModulationState(s=0.0, b=0.01,
                                   coeffs=np.array([1e-3, 0.01]),
                                   energy=2.5e-9, V=np.array([1e-3])),
        modulation.ModulationState(s=0.002, b=0.0099,
                                   coeffs=np.array([-2e-4, 0.0099]),
                                   energy=0.0, V=np.array([-np.inf])),
    ]
    residuals = np.array([[np.nan, np.nan], [1.5e-7, np.inf]])
    track = modulation.TrackResult(k=2, states=states, residuals=residuals)
    track.to_csv(tmp_path / "mod.csv")
    assert read_bytes(tmp_path / "mod.csv") == (
        "s,b,b_1,b_2,E,V_1,residual_1,residual_2\r\n"
        "0.0,0.01,0.001,0.01,2.5e-09,0.001,nan,nan\r\n"
        "0.002,0.0099,-0.0002,0.0099,0.0,-inf,1.5e-07,inf\r\n")


def test_sweep_csv(tmp_path):
    rep = spectrum.PerturbationReport(
        k=2, b_values=np.array([-0.01, 0.02]),
        lam_values=np.array([30.5, 30.25]), defects=np.zeros(2),
        slope=-1.0, residual_order=2.0,
        boundary_slopes=np.array([7.75, 7.8125]),
        residuals=np.array([1e-12, 0.0]))
    spectrum.sweep_to_csv(tmp_path / "sweep.csv", [rep])
    assert read_bytes(tmp_path / "sweep.csv") == (
        "b,k,lambda_bk,boundary_slope,residual\r\n"
        "-0.01,2,30.5,7.75,1e-12\r\n"
        "0.02,2,30.25,7.8125,0.0\r\n")


def test_zeros_csv(tmp_path):
    zeros = [bessel.BesselZero(index=1, r=2.5, lam=6.25),
             bessel.BesselZero(index=2, r=5.5, lam=30.25)]
    bessel.zeros_to_csv(tmp_path / "zeros.csv", zeros)
    assert read_bytes(tmp_path / "zeros.csv") == (
        "j,r_j,lambda_j,boundary_slope\r\n"
        "1,2.5,6.25,-3.5355339059327378\r\n"
        "2,5.5,30.25,7.7781745930520225\r\n")


def test_verdict_json(tmp_path):
    verdict = {"rate_fitted": 5.75, "k": 1, "regime": "melting",
               "fit_window": [0.5, 2.0], "passed": True, "b_k0": -0.01}
    asymptotics.write_verdict_json(tmp_path / "verdict.json", verdict)
    assert read_bytes(tmp_path / "verdict.json") == (
        '{\n'
        '  "b_k0": -0.01,\n'
        '  "fit_window": [\n'
        '    0.5,\n'
        '    2.0\n'
        '  ],\n'
        '  "k": 1,\n'
        '  "passed": true,\n'
        '  "rate_fitted": 5.75,\n'
        '  "regime": "melting"\n'
        '}\n')


def test_shooting_json(tmp_path):
    evaluator = SimpleNamespace(k=2, b_k0=0.01, ceiling=0.1, tol=1e-13,
                                horizon=4.5, s_max=4.5)
    certificate = reduced.TrapEvaluation(
        exit_s=None, horizon_V=np.zeros(1), max_v2=0.5, track=None)
    res = reduced.ShootingResult(
        evaluator=evaluator, initials=(-1.25e-4,), iterations=2,
        evaluations=3, jacobian=np.array([[2.5e11]]),
        certificate=certificate)
    res.to_json(tmp_path / "shoot.json")
    written = read_bytes(tmp_path / "shoot.json")
    assert written == (
        '{\n'
        '  "b_k0": 0.01,\n'
        '  "ceiling": 0.1,\n'
        '  "evaluations": 3,\n'
        '  "exit_s": null,\n'
        '  "found_initials": [\n'
        '    -0.000125\n'
        '  ],\n'
        '  "horizon": 4.5,\n'
        '  "iterations": 2,\n'
        '  "jacobian": [\n'
        '    [\n'
        '      250000000000.0\n'
        '    ]\n'
        '  ],\n'
        '  "k": 2,\n'
        '  "max_V2": 0.5,\n'
        '  "s_max": 4.5,\n'
        '  "tol": 1e-13\n'
        '}\n')
