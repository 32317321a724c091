"""Configuration grammar, round-trip identity, CLI exit-code contract."""

import json

import pytest

from stefanlab import cli
from stefanlab.config import (ScenarioConfig, parse_config,
                              serialize_config, with_overrides)
from stefanlab.errors import ConfigError


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
        [tolerances]
        mass = 1e-5
        [shoot]
        ceiling = 2.0
        """
        cfg = parse_config(text)
        assert cfg.mode == "run"
        assert cfg.k == 3
        assert cfg.b0 == -0.01
        assert cfg.grid_n == 512
        assert cfg.lower_modes == (1e-5, -2e-5)
        assert cfg.mass_tol == 1e-5
        assert cfg.ceiling == 2.0

    def test_round_trip_is_identity(self):
        for cfg in (
            ScenarioConfig(),
            ScenarioConfig(mode="shoot", k=2, b0=0.02, grid_n=512,
                           ds=1e-4, s_max=0.7, quick=True,
                           lower_modes=(3e-6,), rate_tol=0.05,
                           out_dir="results"),
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
    @pytest.mark.parametrize("field", [
        "ds", "s_max", "record_ds", "amplitude", "ceiling", "shoot_tol",
        "mass_tol", "rate_tol", "radius_tol"])
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
            with_overrides(cfg, mode="shoot", k=4)


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

    def test_k2_run_without_lower_modes(self, tmp_path):
        code = cli.main(["--mode", "run", "--k", "2", "--b0", "0.01",
                         "--grid", "512", "--out", str(tmp_path)])
        assert code == 1


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

    def test_spectrum_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["--mode", "spectrum", "--grid", "1024",
                             "--out", str(out)]) == 0
        for name in ("eigen_table.csv", "perturbation_sweep.csv",
                     "spectrum_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCliRun:
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


class TestVerificationContext:
    def test_threaded_prebuild_builds_once(self):
        from concurrent.futures import ThreadPoolExecutor

        from stefanlab.verify import VerificationContext

        ctx = VerificationContext()
        counter = {"n": 0}

        def builder():
            counter["n"] += 1
            return object()

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: ctx._get("shared-key", builder), range(32)))
        assert counter["n"] == 1
        assert all(r is results[0] for r in results)


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
