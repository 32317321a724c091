"""Configuration grammar, round-trip identity, CLI exit-code contract."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stefanlab
from stefanlab import cli, files, reduced, solver, spectrum, verify
from stefanlab.config import (MODES, SETTINGS, ScenarioConfig, parse_config,
                              serialize_config)
from stefanlab.errors import ConfigError, NoTrappedData
from stefanlab.weighted import RadialGrid

# derandomized and without an example database: the same examples every run,
# no files left behind
BOUNDED = settings(max_examples=200, deadline=None, derandomize=True,
                   database=None)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ScenarioConfig()

    def test_basic_keys_and_sections(self):
        text = """
        # scenario
        mode = run
        k = 3
        b0 = -0.01
        grid = 512
        lower_modes = 1e-5, -2e-5
        """
        cfg = parse_config(text)
        assert cfg.mode == "run"
        assert cfg.k == 3
        assert cfg.b0 == -0.01
        assert cfg.grid_n == 512
        assert cfg.lower_modes == (1e-5, -2e-5)

    def test_round_trip_is_identity(self):
        for cfg in (
            ScenarioConfig(),
            ScenarioConfig(mode="shoot", k=2, b0=0.02, grid_n=512,
                           ds=1e-4, s_max=0.7, quick=True,
                           lower_modes=(3e-6,), out_dir="results"),
        ):
            text = serialize_config(cfg)
            again = parse_config(text)
            assert again == cfg
            assert serialize_config(again) == text

    def test_line_numbered_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode = run\nnot a setting\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("mode = run\n\nmystery = 1\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[unterminated\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("k = 1\nk = not_a_number\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config("mode = explode")
        with pytest.raises(ConfigError):
            parse_config("mode = shoot\nk = 4")
        with pytest.raises(ConfigError):
            parse_config("b0 = 0.2")
        with pytest.raises(ConfigError):
            parse_config("grid = 511")
        with pytest.raises(ConfigError):
            parse_config("mode = spectrum\ngrid = 256")
        with pytest.raises(ConfigError):
            parse_config("k = 2\nlower_modes = 1e-5, 2e-5")

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["ds", "s_max"])
    def test_non_positive_numeric_fields_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: bad})

    def test_optional_none(self):
        cfg = parse_config("ds = none\ns_max = auto")
        assert cfg.ds is None
        assert cfg.s_max is None

    def test_overrides_revalidate(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            replace(cfg, mode="shoot", k=4)


def _small(limit):
    return st.floats(-limit, limit, allow_nan=False, allow_infinity=False)


def _positive():
    return st.floats(1e-12, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _configs(draw):
    mode = draw(st.sampled_from(MODES))
    k = draw(st.sampled_from((2, 3)) if mode == "shoot"
             else st.integers(1, 12))
    # a valid ds takes at most MAX_STEPS_PER_RECORD steps per record
    min_ds = 2.0 * solver.RECORD_DS / solver.MAX_STEPS_PER_RECORD
    return dict(
        mode=mode, k=k, b0=draw(_small(0.05)),
        grid_n=2 * draw(st.integers(256, 2048)),
        ds=draw(st.none() | st.floats(min_ds, 10.0)),
        s_max=draw(st.none() | _positive()),
        seed=draw(st.integers(0, 2 ** 63)),
        quick=draw(st.booleans()), json_output=draw(st.booleans()),
        out_dir=draw(st.text("abcXYZ019_-./", min_size=1, max_size=12)),
        b_values=tuple(draw(st.lists(
            _small(0.0499).filter(lambda b: b != 0.0), min_size=3,
            max_size=5, unique=True))),
        lower_modes=tuple(draw(st.lists(_small(0.05), min_size=k - 1,
                                        max_size=k - 1))),
    )


def _float_list(limit):
    return st.lists(st.floats(-limit, limit), max_size=4).map(
        lambda xs: ", ".join(repr(x) for x in xs))


# plausible values per key (valid and invalid ones), then arbitrary text
_SETTINGS = {
    "mode": st.sampled_from(MODES + ("explode",)),
    "k": st.integers(0, 14).map(str),
    "b0": st.floats(-0.06, 0.06).map(repr),
    "grid": st.sampled_from(("512", "1024", "511", "256", "1e3")),
    "ds": st.sampled_from(("none", "auto", "1e-4", "-1", "0")),
    "seed": st.integers(-2, 10 ** 6).map(str),
    "quick": st.sampled_from(("true", "false", "yes", "maybe")),
    "json": st.sampled_from(("true", "false", "no", "1")),
    "out": st.text("ab/_ #", max_size=6),
    "b_values": _float_list(0.06),
    "lower_modes": _float_list(0.06),
    "mystery": st.just("1"),
}
_LINES = st.one_of(
    st.sampled_from(sorted(_SETTINGS)).flatmap(
        lambda key: _SETTINGS[key].map(lambda val: f"{key} = {val}")),
    st.sampled_from(("[]", "[other]", "[open", "# comment", "", "k 1")),
    st.text(max_size=20))


class TestConfigProperties:
    @BOUNDED
    @given(_configs())
    def test_parse_serialize_parse_is_identity(self, fields):
        cfg = ScenarioConfig(**fields)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    @BOUNDED
    @given(st.lists(_LINES, max_size=6))
    def test_any_text_validates_or_raises_config_error(self, lines):
        try:
            cfg = parse_config("\n".join(lines))
        except ConfigError:
            return
        assert math.isfinite(cfg.b0) and abs(cfg.b0) <= 0.05
        assert parse_config(serialize_config(cfg)) == cfg


def _dump(capsys, argv):
    """Exit code, stdout and stderr of ``stefanlab ARGV --dump-config``."""
    code = cli.main([*argv, "--dump-config"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in err
    assert code == 0 or err.startswith("config error: ")
    return code, out, err


def _dump_file(capsys, path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))
    return _dump(capsys, ["--config", str(path)])


_FLAGS = {key: flag for key, _, flag in SETTINGS}
_SWITCHES = {key for key, fname, _ in SETTINGS
             if isinstance(getattr(ScenarioConfig, fname), bool)}


@st.composite
def _lines_and_flags(draw):
    """The same settings as file lines and as ``--flag=value`` flags: the
    values of ``_SETTINGS`` a line can hold (no '#'), b_values left out
    (it has no flag); a switch also as ``--quick false`` or, for true, as
    the bare ``--quick``."""
    keys = draw(st.lists(st.sampled_from(sorted(set(_SETTINGS)
                                                - {"b_values"})),
                         unique=True, max_size=6))
    lines, flags = [], []
    for key in keys:
        val = draw(_SETTINGS[key].filter(lambda v: "#" not in v))
        lines.append(f"{key} = {val}")
        flag = _FLAGS.get(key, "--" + key)
        if key in _SWITCHES and draw(st.booleans()):
            flags += [flag] if val == "true" else [flag, val]
        else:
            flags.append(f"{flag}={val}")
    return lines, flags


@st.composite
def _spectrum_lines_and_flags(draw):
    """``--mode spectrum --grid 512`` with the settings that have flags
    and values in ``_SETTINGS`` (b0, seed), as file lines and as flags."""
    lines = ["mode = spectrum", "grid = 512"]
    flags = ["--mode=spectrum", "--grid=512"]
    for key in draw(st.lists(st.sampled_from(("b0", "seed")), unique=True)):
        val = draw(_SETTINGS[key])
        lines.append(f"{key} = {val}")
        flags.append(f"{_FLAGS[key]}={val}")
    return lines, flags


@st.composite
def _verify_lines_and_flags(draw):
    """``--mode verify-all --quick`` with the other settings that have flags
    (out aside: the test sets it), as file lines and as flags."""
    lines = ["mode = verify-all", "quick = true"]
    flags = ["--mode=verify-all", "--quick"]
    keys = sorted(key for key in _SETTINGS if _FLAGS.get(key)
                  and key not in ("mode", "quick", "out"))
    for key in draw(st.lists(st.sampled_from(keys), unique=True,
                             max_size=4)):
        val = draw(_SETTINGS[key].filter(lambda v: "#" not in v))
        lines.append(f"{key} = {val}")
        flags.append(f"{_FLAGS[key]}={val}")
    return lines, flags


class TestFlagsAndFile:
    @settings(BOUNDED,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines_flags=_lines_and_flags())
    def test_flags_and_file_lines_agree(self, lines_flags, tmp_path,
                                        capsys):
        lines, flags = lines_flags
        from_file = _dump_file(capsys, tmp_path / "scenario.cfg", lines)
        assert _dump(capsys, flags)[:2] == from_file[:2]

    @settings(BOUNDED, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines_flags=_spectrum_lines_and_flags())
    def test_spectrum_flags_and_file_lines_agree(self, lines_flags, tmp_path,
                                                 capsys):
        lines, flags = lines_flags
        path = tmp_path / "spectrum.cfg"
        path.write_text("".join(f"{line}\n" for line in lines))
        got = []
        for name, argv in (("file", ["--config", str(path)]),
                           ("flags", flags)):
            out = tmp_path / name
            code = cli.main([*argv, "--out", str(out)])
            got.append((code, capsys.readouterr().out.replace(str(out), "")))
        assert got[0][0] in (0, 1, 2)
        assert got[0] == got[1]

    @settings(BOUNDED, max_examples=6,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines_flags=_verify_lines_and_flags())
    def test_verify_flags_and_file_lines_agree(self, lines_flags, tmp_path,
                                               capsys):
        # the same exit code and stdout, timings and out path aside
        lines, flags = lines_flags
        path = tmp_path / "verify.cfg"
        path.write_text("".join(f"{line}\n" for line in lines))
        got = []
        for name, argv in (("file", ["--config", str(path)]),
                           ("flags", flags)):
            out = tmp_path / name
            code = cli.main([*argv, "--out", str(out)])
            text = capsys.readouterr().out.replace(str(out), "")
            got.append((code, re.sub(r"\[\d+\.\d+s\]", "", text)))
        assert got[0][0] in (0, 1, 2)
        assert got[0] == got[1]

    @pytest.mark.parametrize("flags, lines, code, message", [
        (["--k", "abc"], ["k = abc"], 1,
         "config error: --k: bad number 'abc'"),
        (["--grid", "1e3"], ["grid = 1e3"], 1, "--grid: bad number '1e3'"),
        (["--mode", "bogus"], ["mode = bogus"], 1, "mode must be one of"),
        (["--nonsense", "1"], ["nonsense = 1"], 1,
         "unrecognized arguments: --nonsense 1"),
        (["--k", "2", "--lower", "x"], ["k = 2", "lower_modes = x"], 1,
         "--lower: bad list 'x'"),
        (["--smax", "none"], ["s_max = none"], 0, ""),
        (["--lower="], ["lower_modes ="], 0, ""),
        (["--k", "2", "--lower=-1.1e-05"],
         ["k = 2", "lower_modes = -1.1e-05"], 0, ""),
        # argparse takes a negative number with an exponent for a flag
        (["--k", "2", "--lower", "-1.1e-05"], None, 1,
         "--lower: expected one argument"),
    ])
    def test_flag_and_file_value(self, flags, lines, code, message, tmp_path,
                                 capsys):
        got = _dump(capsys, flags)
        assert got[0] == code
        assert message in got[2]
        if lines is not None:
            assert _dump_file(capsys, tmp_path / "scenario.cfg",
                              lines)[:2] == got[:2]

    @pytest.mark.parametrize("off", [["--quick=false", "--json=false"],
                                     ["--quick", "false", "--json", "no"]])
    def test_flag_turns_a_files_switch_off(self, off, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("quick = true\njson = true\n")
        code, out, _ = _dump(capsys, ["--config", str(path), *off])
        assert code == 0
        assert "quick = false\njson = false\n" in out
        code, out, _ = _dump(capsys, ["--config", str(path), "--quick"])
        assert "quick = true\njson = true\n" in out


# config files with a section or a setting the format does not have, and
# the error naming the line
_DROPPED_LINES = {
    "[shoot]\namplitude = 0.5\n": "line 1: expected 'key = value'",
    "[shoot]\ntol = 0.5\n": "line 1: expected 'key = value'",
    "[shoot]\n": "line 1: expected 'key = value'",
    "mode = shoot\n[shoot]\nceiling = 1.0\n":
        "line 2: expected 'key = value'",
    "record_ds = 0.002\n": "line 1: unknown key 'record_ds'",
    "k = 2\nceiling = 1.0\n": "line 2: unknown key 'ceiling'",
    "k = 2\ntol = 1e-12\n": "line 2: unknown key 'tol'",
    "mass = 1e-06\n": "line 1: unknown key 'mass'",
    "rate = 0.02\n": "line 1: unknown key 'rate'",
    "radius = 0.0001\n": "line 1: unknown key 'radius'",
}


class TestCliExitCodes:
    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = run\nwhat even is this\n")
        code = cli.main(["--config", str(bad)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_k_for_shoot(self, tmp_path):
        code = cli.main(["--mode", "shoot", "--k", "4",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_dump_config_round_trip(self, capsys):
        code = cli.main(["--mode", "run", "--k", "1", "--b0", "-0.01",
                         "--dump-config"])
        assert code == 0
        text = capsys.readouterr().out
        cfg = parse_config(text)
        assert cfg.b0 == -0.01

    def test_dump_config_is_twelve_flat_lines(self, capsys):
        assert cli.main(["--dump-config"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "mode = run", "k = 1", "b0 = 0.01", "grid = 1024", "ds = none",
            "s_max = none", "seed = 1234", "quick = false", "json = false",
            "out = out", "b_values = 0.005, 0.01, 0.02", "lower_modes = "]

    def test_run_insufficient_smax(self, tmp_path):
        code = cli.main(["--mode", "run", "--k", "1", "--b0", "-0.01",
                         "--grid", "512", "--smax", "0.1",
                         "--out", str(tmp_path)])
        assert code == 2

    def test_negative_step_is_config_error(self, tmp_path, capsys):
        code = cli.main(["--mode", "run", "--k", "1", "--ds", "-1",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, flags", [
        (None, ["--b0", "nan"]),
        (None, ["--k", "2", "--lower", "nan"]),
        (None, ["--k", "2", "--lower", "1e308"]),
        ("mode = spectrum\nb_values = 0.01, 0.02\n", []),
        (None, ["--seed", "-1"]),
        (None, ["--k", "13", "--lower", ",".join(["1e-5"] * 12)]),
        ("mode = spectrum\nb_values = 0.01, 0.01, 0.01\n", []),
        (None, ["--smax", "0.001", "--out", ""]),
        # RECORD_DS / ds overflows a float
        (None, ["--grid", "512", "--ds", "1e-320", "--smax", "0.01"]),
        # RECORD_DS / ds = 2e197 steps per record: finite, but never recorded
        (None, ["--grid", "512", "--ds", "1e-200", "--smax", "0.01"]),
        ("[shoot]\namplitude = 0.5\n", ["--mode", "shoot", "--k", "2"]),
        ("[shoot]\namplitude = 0.5\n", ["--k", "2", "--lower", "0.0001"]),
        ("[shoot]\ntol = 0.5\n",
         ["--mode", "shoot", "--k", "2", "--grid", "512", "--b0", "0.01"]),
        # each setting and section the format dropped
        ("[shoot]\n", ["--mode", "shoot", "--k", "2"]),
        ("mode = shoot\n[shoot]\nceiling = 1.0\n", ["--k", "2"]),
        ("record_ds = 0.002\n", []),
        ("k = 2\nceiling = 1.0\n", ["--mode", "shoot"]),
        ("k = 2\ntol = 1e-12\n", ["--mode", "shoot"]),
        ("mass = 1e-06\n", []),
        ("rate = 0.02\n", []),
        ("radius = 0.0001\n", []),
        (b"k = \xff\n", []),
    ])
    def test_invalid_values_are_config_errors(self, config, flags, tmp_path,
                                              capsys):
        argv = ["--out", str(tmp_path / "out")] + flags
        if config is not None:
            path = tmp_path / "scenario.cfg"
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(config)
            argv = ["--config", str(path)] + argv
        start = time.perf_counter()
        code = cli.main(argv)
        # rejected at validation, before any step or solve
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 1
        assert "config error:" in err
        if config in _DROPPED_LINES:
            assert f"config error: {_DROPPED_LINES[config]}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload", [
        '{"found_initials": 5}',
        '{"found_initials": "a"}',
        '{"found_initials": [null]}',
        '{"found_initials": ["x"]}',
        '[1, 2]',
        '{"found_initials": "0"}',
        '{"found_initials": [false]}',
    ])
    def test_malformed_shoot_file_is_config_error(self, payload, tmp_path,
                                                  capsys):
        path = tmp_path / "shoot_k2.json"
        path.write_text(payload)
        code = cli.main(["--mode", "run", "--k", "2", "--grid", "512",
                         "--shoot-file", str(path), "--dump-config"])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k, b0", [(2, -0.01), (3, 0.01)])
    def test_shoot_file_for_another_scenario(self, k, b0, tmp_path,
                                             capsys, monkeypatch):
        # trapped initials of k = 2, b0 = 0.01 fit no other (k, b0)
        path = tmp_path / "shoot_k2.json"
        path.write_text('{"k": 2, "b_k0": 0.01, "found_initials": [-6e-6]}')
        monkeypatch.setattr(cli, "cmd_run", lambda cfg: pytest.fail("ran"))
        code = cli.main(["--mode", "run", "--k", str(k), "--b0", str(b0),
                         "--grid", "512", "--shoot-file", str(path),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error:" in err
        assert f"k = 2, b_k0 = 0.01, not k = {k}, b0 = {b0}" in err
        assert not (tmp_path / "out").exists()

    def test_shoot_reads_the_mass_tolerance(self, tmp_path, capsys):
        # at ds = 0.05 the first record of the first search run drifts past
        # the fixed guard solver.MASS_TOL = 1e-6
        code = cli.main(["--mode", "shoot", "--k", "2", "--grid", "512",
                         "--b0", "0.01", "--ds", "0.05",
                         "--out", str(tmp_path)])
        assert code == 2
        assert ("mass drift 8.151e-06 > 1.000e-06 at s = 0.0500"
                in capsys.readouterr().err)

    def test_shoot_hands_the_config_to_the_evaluator(self, tmp_path,
                                                      monkeypatch):
        seen = []

        def shoot(evaluator):
            seen.append(evaluator)
            raise NoTrappedData("stub search")

        monkeypatch.setattr(reduced, "shoot_trapped", shoot)
        path = tmp_path / "shoot.cfg"
        path.write_text("mode = shoot\nk = 3\nb0 = -0.02\ngrid = 512\n"
                        "ds = 1e-4\ns_max = 0.3\n")
        code = cli.main(["--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        ev, = seen
        assert (ev.k, ev.b_k0, ev.grid.n) == (3, -0.02, 512)
        assert (ev.ds, ev.s_max) == (1e-4, 0.3)
        assert (ev.ceiling, ev.tol) == (reduced.TRAP_CEILING,
                                        reduced.SHOOT_TOL)

    def test_shoot_horizon_too_short_to_certify(self, tmp_path, capsys):
        # at s_max = 0.01 the zero datum and the first probe both trap
        code = cli.main(["--mode", "shoot", "--k", "2", "--grid", "512",
                         "--b0", "0.01", "--smax", "0.01",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "too short" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k2_run_without_lower_modes(self, tmp_path):
        code = cli.main(["--mode", "run", "--k", "2", "--b0", "0.01",
                         "--grid", "512", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("argv, under", [
        (["--mode", "spectrum", "--grid", "512"], ""),
        (["--mode", "run", "--k", "1", "--grid", "512"], "/sub"),
        (["--mode", "shoot", "--k", "2", "--grid", "512"], ""),
        (["--mode", "verify-all", "--quick", "--json"], "/sub"),
    ])
    def test_out_that_cannot_be_a_directory(self, argv, under, tmp_path,
                                            capsys, monkeypatch):
        # an --out naming a file, or a path under one, is refused before
        # any run or criterion starts
        for name in ("cmd_spectrum", "cmd_run", "cmd_shoot",
                     "cmd_verify_all"):
            monkeypatch.setattr(cli, name, lambda cfg: pytest.fail("ran"))
        path = tmp_path / "file"
        path.write_text("")
        code = cli.main([*argv, "--out", f"{path}{under}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ")
        assert "is not a directory" in err


class TestCliSpectrum:
    def test_spectrum_writes_reports(self, tmp_path):
        out = tmp_path / "spectrum_out"
        code = cli.main(["--mode", "spectrum", "--grid", "1024",
                         "--b0", "0.01", "--out", str(out)])
        assert code == 0
        table = (out / "eigen_table.csv").read_text().splitlines()
        assert table[0] == "j,r_j,lambda_j,boundary_slope"
        assert abs(float(table[1].split(",")[2]) - 5.783185962946785) < 1e-9
        drift = (out / "eigen_table_drift.csv").read_text().splitlines()
        lam_b1 = float(drift[1].split(",")[2])
        assert abs(lam_b1 - (5.783185962946785 - 0.01)) < 1e-4
        report = json.loads((out / "spectrum_report.json").read_text())
        assert all(report["checks"].values())

    def test_spectrum_coarsest_grid_passes(self, tmp_path):
        # the orthonormality check measures quadrature of the analytic
        # eigenfunctions, so it holds whatever grid the spectrum uses
        out = tmp_path / "spectrum_512"
        code = cli.main(["--mode", "spectrum", "--grid", "512",
                         "--b0", "0.01", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "spectrum_report.json").read_text())
        assert all(report["checks"].values())
        assert report["orthonormality_defect"] <= 1e-8

    def test_gap_check_fails_on_a_basis_one_mode_short(self, tmp_path,
                                                       monkeypatch, capsys):
        # the 8-pair basis at b0 loses its second pair, the first standing
        # in its place (inverse iteration converging twice to one vector):
        # its lam_2(b0) reads lam_1(b0), far under lam_2 - 0.5
        solve = spectrum.eigenpairs

        def one_mode_short(grid, w, count):
            basis = solve(grid, w, count)
            if count < 8:
                return basis
            keep = [0, 0, *range(2, count)]
            return spectrum.Basis(w=w, psis=basis.psis[:, keep],
                                  lams=basis.lams[keep],
                                  residuals=basis.residuals[keep], grid=grid)

        monkeypatch.setattr(spectrum, "eigenpairs", one_mode_short)
        out = tmp_path / "short"
        code = cli.main(["--mode", "spectrum", "--grid", "512",
                         "--b0", "0.01", "--out", str(out)])
        assert code == 2
        report = json.loads((out / "spectrum_report.json").read_text())
        assert report["checks"]["gap_above_lam2_minus_half"] is False
        assert report["gap_floors"]["1"] == report["eigenvalues_b"]["1"]
        assert "failed: gap_above_lam2_minus_half" in capsys.readouterr().err

    def test_spectrum_reports_criteria_2_and_4_at_its_inputs(self, tmp_path):
        # the report carries criteria 2 (quick) and 4 as the suite judges
        # them on the command's own grid and b values
        config = tmp_path / "spectrum.cfg"
        config.write_text("b_values = 0.004, 0.008, 0.016\n")
        out = tmp_path / "criteria"
        assert cli.main(["--config", str(config), "--mode", "spectrum",
                         "--grid", "512", "--out", str(out)]) == 0
        report = json.loads((out / "spectrum_report.json").read_text())
        b_values = (0.004, 0.008, 0.016)
        ctx = verify.VerificationContext(RadialGrid(512), b_values)
        for c in (verify.criterion_2(ctx, quick=True),
                  verify.criterion_4(ctx)):
            name = f"criterion_{c.number}"
            assert report["checks"][name] is c.passed is True
            assert report["criteria"][name] == c.details
        assert "order(512)" in report["criteria"]["criterion_2"]
        sweep_rows = (out / "perturbation_sweep.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in sweep_rows[1:4]] \
            == list(b_values)

    def test_spectrum_fails_criterion_2_on_a_low_order_sweep(
            self, tmp_path, monkeypatch, capsys):
        # a sweep whose defects grow at order 1.5 fails criterion 2 alone
        sweep = spectrum.perturbation_sweep

        def low_order(grid, ks, b_values, *solve):
            return [replace(r, residual_order=1.5)
                    for r in sweep(grid, ks, b_values, *solve)]

        monkeypatch.setattr(spectrum, "perturbation_sweep", low_order)
        out = tmp_path / "low_order"
        code = cli.main(["--mode", "spectrum", "--grid", "512",
                         "--out", str(out)])
        assert code == 2
        report = json.loads((out / "spectrum_report.json").read_text())
        assert [name for name, ok in report["checks"].items() if not ok] \
            == ["criterion_2"]
        assert "order(512)=1.50" in report["criteria"]["criterion_2"]
        assert "failed: criterion_2" in capsys.readouterr().err

    def test_spectrum_makes_five_eigensolves(self, tmp_path, monkeypatch):
        # the 8-pair solve at b0, then the sweep's solves at b = 0 and at
        # each of the three b values; the criteria solve nothing more
        solve = spectrum.eigenpairs
        calls = []

        def counted(grid, w, count):
            calls.append((w.b, count))
            return solve(grid, w, count)

        monkeypatch.setattr(spectrum, "eigenpairs", counted)
        assert cli.main(["--mode", "spectrum", "--grid", "512",
                         "--out", str(tmp_path)]) == 0
        assert calls == [(0.01, 8), (0.0, 3), (0.005, 3), (0.01, 3), (0.02, 3)]

    def test_spectrum_loads_no_random_sampler(self, tmp_path):
        # numpy < 2 loads numpy.random with numpy itself, numpy >= 2 on
        # first use; either way the spectrum run must add nothing to what
        # `import numpy` loaded
        src = str(Path(stefanlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["--mode", "spectrum", "--grid", "512", "--out", str(tmp_path)]
        script = ("import sys\n"
                  "import numpy\n"
                  "before = 'numpy.random' in sys.modules\n"
                  "from stefanlab import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "after = 'numpy.random' in sys.modules\n"
                  "print(code, after == before)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              check=False)
        assert proc.stdout.splitlines()[-1] == "0 True"

    def test_spectrum_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["--mode", "spectrum", "--grid", "1024",
                             "--out", str(out)]) == 0
        for name in ("eigen_table.csv", "perturbation_sweep.csv",
                     "spectrum_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCliRun:
    @pytest.mark.parametrize("k", [1, 2])
    def test_small_data_edge_run_prints_no_warning(self, k, tmp_path):
        # the self-consistent b = b_k of this run settles just above
        # |b| = 0.05 by round-off; the bound belongs to the config's b0,
        # so the run fails only its decay check
        src = str(Path(stefanlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        lower = ["--lower", "0"] if k == 2 else []
        proc = subprocess.run(
            [sys.executable, "-m", "stefanlab.cli", "--mode", "run", "--k",
             str(k), "--grid", "512", "--b0", "0.05", "--smax", "0.05",
             *lower, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "verification failure: boundary slope decays at rate")
        assert proc.stderr.endswith("before its exponential regime; "
                                    "extend s_max\n")
        assert proc.stderr.count("\n") == 1

    def test_family_nodes_print_no_drift_warning(self, tmp_path, capsys):
        # the nodes of a fresh basis family reach |b| = 0.1985; a run
        # warns nothing
        spectrum.basis_family.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["--mode", "run", "--k", "1", "--grid", "512",
                             "--b0", "0.01", "--smax", "0.05",
                             "--out", str(tmp_path)])
        assert code == 2  # too short to reach the decay floor
        assert caught == []
        assert "Warning" not in capsys.readouterr().err

    def test_k1_run_pass(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["--mode", "run", "--k", "1", "--b0", "-0.01",
                         "--grid", "512", "--out", str(out)])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"]
        assert verdict["regime"] == "freezing"
        assert (out / "timeseries.csv").exists()
        assert (out / "modulation.csv").exists()
        assert (out / "decay.svg").exists()

    def test_k1_melting_direction(self, tmp_path):
        out = tmp_path / "melt"
        code = cli.main(["--mode", "run", "--k", "1", "--b0", "0.01",
                         "--grid", "512", "--out", str(out)])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["regime"] == "melting"
        assert verdict["lambda_inf_measured"] > 1.0


class TestCliShootRunWorkflow:
    def test_shoot_deterministic_json(self, tmp_path):
        # short horizon keeps the repeat affordable; fixed-step arithmetic
        # and no randomness make the result byte-identical
        cfg_path = tmp_path / "shoot.cfg"
        cfg_path.write_text("mode = shoot\nk = 2\nb0 = 0.02\ngrid = 512\n"
                            "s_max = 0.6\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["--config", str(cfg_path),
                             "--out", str(out)]) == 0
            outs.append((out / "shoot_k2.json").read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["exit_s"] is None
        assert len(payload["found_initials"]) == 1

    def test_shoot_then_run_reuse_defaults(self, tmp_path):
        # the documented excited-regime workflow at default settings: the
        # default shooting horizon certifies the trapped datum deeply enough
        # for the follow-up run to reach the decay floor
        out = tmp_path / "k2"
        code = cli.main(["--mode", "shoot", "--k", "2", "--b0", "0.01",
                         "--grid", "512", "--out", str(out)])
        assert code == 0
        shoot_path = out / "shoot_k2.json"
        run_out = tmp_path / "k2_run"
        code = cli.main(["--mode", "run", "--k", "2", "--b0", "0.01",
                         "--grid", "512", "--shoot-file", str(shoot_path),
                         "--out", str(run_out)])
        assert code == 0
        verdict = json.loads((run_out / "verdict.json").read_text())
        assert verdict["passed"]
        assert verdict["regime"] == "freezing"

    def test_criteria_judge_the_shipped_run(self, ctx, tmp_path):
        # criterion 8's run is the one `--mode run --shoot-file` makes from
        # the same shot: its verdict file holds the criterion's verdict
        result, run = ctx.k2_family(+1)
        shoot_path = tmp_path / "shoot_k2.json"
        result.to_json(shoot_path)
        out = tmp_path / "k2_run"
        code = cli.main(["--mode", "run", "--k", "2", "--grid", "512",
                         "--b0", "0.01", "--shoot-file", str(shoot_path),
                         "--out", str(out)])
        assert code == 0
        files.write_json(tmp_path / "criterion.json", run.verdict)
        assert ((out / "verdict.json").read_bytes()
                == (tmp_path / "criterion.json").read_bytes())


class TestCliVerifyQuick:
    def test_quick_subset_reports_known_failure(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = cli.main(["--mode", "verify-all", "--quick", "--json",
                         "--out", str(out)])
        captured = capsys.readouterr().out
        # criterion 3 is unattainable as stated (see README); the other
        # quick-set criteria must pass
        assert code == 2
        payload = json.loads((out / "verification.json").read_text())
        by_number = {p["number"]: p["passed"] for p in payload}
        assert by_number[3] is False
        assert all(v for n, v in by_number.items() if n != 3)
        assert "criterion  3" in captured

    def test_reports_differ_only_in_seconds(self, tmp_path):
        payloads = []
        for name in ("first", "second"):
            cli.main(["--mode", "verify-all", "--quick", "--json",
                      "--out", str(tmp_path / name)])
            payload = json.loads(
                (tmp_path / name / "verification.json").read_text())
            for entry in payload:
                assert entry.pop("seconds") >= 0.0
            payloads.append(payload)
        assert payloads[0] == payloads[1]
