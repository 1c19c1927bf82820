"""Tests for config handling, sweep execution and output contracts."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvqkd_calib
from cvqkd_calib import CalibrationModel, NumericalError, keyrate
from cvqkd_calib.cli import (
    CALIB_COLUMNS,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    SWEEP_COLUMNS,
    TEN_COLUMNS,
    ConfigError,
    SweepConfig,
    load_config,
    main,
    sweep_rows,
    ten_rows,
)


def base_config(**overrides) -> dict:
    cfg = {
        "models": ["conventional", "two_mode", "three_mode"],
        "regime": "asymptotic",
        "distances_km": {"start": 0.0, "stop": 20.0, "step": 10.0},
        "variances": [4.0],
        "system": {"eps_c": 0.01, "eta_d": 0.6, "v_ele": 0.01, "beta": 0.956},
        "output": {"path": "out.csv", "format": "csv"},
    }
    cfg.update(overrides)
    return cfg


FINITE_SIZE = {"block_length": 10 ** 10, "key_fraction": 0.5, "eps_pe": 1e-10,
               "eps_pa": 1e-10, "eps_smooth": 1e-10, "calib_samples_m": 5 * 10 ** 9}
CALIBRATION = {"v_tot": 2.3768, "v_ele": 0.421, "eps_pe": 1e-5, "m_grid": [10 ** 5, 10 ** 6]}


def write_config(tmp_path, cfg, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestConfigParsing:
    def test_missing_field_named_in_error(self):
        raw = base_config()
        del raw["system"]["beta"]
        with pytest.raises(ConfigError, match="system.beta"):
            SweepConfig.from_dict(raw)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            SweepConfig.from_dict(base_config(models=["four_mode"]))

    def test_bad_regime_rejected(self):
        with pytest.raises(ConfigError, match="regime"):
            SweepConfig.from_dict(base_config(regime="instantaneous"))

    def test_finite_regime_requires_finite_section(self):
        with pytest.raises(ConfigError, match="finite_size"):
            SweepConfig.from_dict(base_config(regime="finite_size"))

    def test_bad_physics_rejected(self):
        raw = base_config()
        raw["system"]["eta_d"] = 1.5
        with pytest.raises(ConfigError, match="detection efficiency"):
            SweepConfig.from_dict(raw)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="step"):
            SweepConfig.from_dict(base_config(
                distances_km={"start": 0, "stop": 10, "step": 0}))
        with pytest.raises(ConfigError, match="stop"):
            SweepConfig.from_dict(base_config(
                distances_km={"start": 10, "stop": 5, "step": 1}))

    def test_json_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"models": [,]}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path, ["system.eps_c=0.05", "variances=[20]",
                                 "distances_km.stop=10"])
        assert cfg.system["eps_c"] == 0.05
        assert cfg.variances == (20.0,)
        assert cfg.distances_km.stop == 10.0

    def test_set_requires_equals(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["system.eps_c"])


class TestSweepRows:
    def test_grid_shape_and_sorting(self):
        cfg = SweepConfig.from_dict(base_config(variances=[40.0, 4.0]))
        rows = sweep_rows(cfg)
        assert len(rows) == 3 * 2 * 3  # models x variances x distances
        keys = [(r["model"], r["V"], r["distance_km"]) for r in rows]
        assert keys == sorted(keys)

    def test_single_distance_grid(self):
        cfg = SweepConfig.from_dict(base_config(
            distances_km={"start": 25.0, "stop": 25.0, "step": 5.0},
            models=["three_mode"]))
        rows = sweep_rows(cfg)
        assert len(rows) == 1
        assert rows[0]["distance_km"] == 25.0

    def test_rate_seconds_column_requires_pulse_rate(self):
        cfg = SweepConfig.from_dict(base_config(models=["three_mode"]))
        assert all(r["rate_bits_per_s"] is None for r in sweep_rows(cfg))
        cfg2 = SweepConfig.from_dict(base_config(models=["three_mode"],
                                                 pulse_rate_hz=5e6))
        for r in sweep_rows(cfg2):
            assert r["rate_bits_per_s"] == pytest.approx(
                5e6 * r["rate_bits_per_pulse"])

    def test_clamped_column(self):
        cfg = SweepConfig.from_dict(base_config(
            models=["two_mode"], variances=[40.0],
            distances_km={"start": 80.0, "stop": 80.0, "step": 1.0}))
        (row,) = sweep_rows(cfg)
        assert row["rate_bits_per_pulse"] < 0.0
        assert row["rate_clamped"] == 0.0

    def test_miscalibration_rows(self):
        cfg = SweepConfig.from_dict(base_config(
            models=["conventional"],
            distances_km={"start": 30.0, "stop": 30.0, "step": 1.0},
            variances=[40.0],
            miscalibration_deltas=[0.0, 0.001, 0.003]))
        rows = sweep_rows(cfg)
        assert [r["delta"] for r in rows] == [0.0, 0.001, 0.003]
        rates = [r["rate_bits_per_pulse"] for r in rows]
        assert rates[0] > rates[1] > rates[2]

    def test_finite_rows_carry_penalty_and_worst_ratio(self):
        cfg = SweepConfig.from_dict(base_config(
            regime="finite_size", models=["three_mode"],
            distances_km={"start": 20.0, "stop": 20.0, "step": 1.0},
            finite_size={"block_length": 10 ** 10, "key_fraction": 0.5,
                         "eps_pe": 1e-10, "eps_pa": 1e-10, "eps_smooth": 1e-10,
                         "calib_samples_m": 10 ** 8}))
        (row,) = sweep_rows(cfg)
        assert row["delta_n"] > 0.0
        assert row["n0_worst"] != 1.0
        assert row["regime"] == "finite_size"

    @pytest.mark.parametrize("rows,delta", [(sweep_rows, "0.001"), (ten_rows, "0.0")])
    def test_row_failure_names_grid_point(self, monkeypatch, rows, delta):
        # Holevo evaluation breaks at 10 km only; the error must say where.
        healthy = keyrate.holevo_three_mode

        def failing(params, n0=1.0):
            if params.t < 0.9:
                raise NumericalError("eigenvalue solve did not converge")
            return healthy(params, n0)

        monkeypatch.setitem(keyrate._HOLEVO, CalibrationModel.ONE_TIME_THREE_MODE, failing)
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], miscalibration_deltas=[0.001],
            distances_km={"start": 0.0, "stop": 10.0, "step": 10.0}))
        with pytest.raises(RuntimeError, match=(
                rf"^model=three_mode V=4\.0 km=10\.0 delta={delta}: "
                r"NumericalError: eigenvalue solve did not converge$")):
            rows(cfg)


class TestTenRows:
    def test_ordering_and_positivity(self):
        cfg = SweepConfig.from_dict(base_config(
            distances_km={"start": 25.0, "stop": 25.0, "step": 5.0}))
        rows = ten_rows(cfg)
        ten = {r["model"]: r["ten"] for r in rows}
        assert ten["two_mode"] <= ten["three_mode"] + 1e-9
        assert ten["three_mode"] <= ten["conventional"] + 1e-9
        assert all(t > 0 for t in ten.values())

    def test_bisection_against_root_bracketing_oracle(self):
        # Independent fine scan brackets the zero of the rate in eps_c;
        # the bisected value must agree within its tolerance.
        from cvqkd_calib import (
            CalibrationModel, SnuScenario, SystemParams,
            key_rate_asymptotic, transmittance_from_km,
        )
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], variances=[4.0],
            distances_km={"start": 25.0, "stop": 25.0, "step": 5.0}))
        (row,) = ten_rows(cfg)

        def rate(eps_c):
            p = SystemParams(v=4.0, t=transmittance_from_km(25.0), eps_c=eps_c,
                             eta_d=0.6, v_ele=0.01, beta=0.956)
            scenario = SnuScenario(model=CalibrationModel.ONE_TIME_THREE_MODE)
            return key_rate_asymptotic(p, scenario).rate_bits_per_pulse

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if rate(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert row["ten"] == pytest.approx(0.5 * (lo + hi), abs=2e-4)
        assert rate(row["ten"] - 2e-4) > 0

    def test_zero_when_rate_negative_at_origin(self):
        cfg = SweepConfig.from_dict(base_config(
            models=["two_mode"], variances=[40.0],
            distances_km={"start": 150.0, "stop": 150.0, "step": 5.0}))
        (row,) = ten_rows(cfg)
        assert row["ten"] == 0.0

    def test_finite_size_tolerable_noise_curves_coincide(self):
        # Three-mode and conventional tolerable-excess-noise values stay
        # within five percent of each other at low modulation variance.
        cfg = SweepConfig.from_dict(base_config(
            models=["conventional", "three_mode"], variances=[4.0],
            regime="finite_size",
            distances_km={"start": 10.0, "stop": 90.0, "step": 40.0},
            finite_size={"block_length": 10 ** 10, "key_fraction": 0.5,
                         "eps_pe": 1e-10, "eps_pa": 1e-10, "eps_smooth": 1e-10,
                         "calib_samples_m": 5 * 10 ** 9}))
        rows = ten_rows(cfg)
        by_model = {}
        for r in rows:
            by_model.setdefault(r["model"], []).append(r["ten"])
        for t3, tc in zip(by_model["three_mode"], by_model["conventional"]):
            assert tc > 0
            assert abs(t3 - tc) / tc < 0.05


class TestOutputs:
    def test_sweep_csv_deterministic(self, tmp_path):
        cfg = base_config(output={"path": str(tmp_path / "a.csv"), "format": "csv"})
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == EXIT_OK
        first = (tmp_path / "a.csv").read_bytes()
        assert main(["sweep", "--config", path]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_csv_and_json_contain_identical_values(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "r.csv"),
                     "--format", "csv"]) == EXIT_OK
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "r.json"),
                     "--format", "json"]) == EXIT_OK
        csv_rows = read_csv(tmp_path / "r.csv")
        json_rows = json.loads((tmp_path / "r.json").read_text())
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for col in SWEEP_COLUMNS:
                jv = j[col]
                cv = c[col]
                if jv is None:
                    assert cv == ""
                elif isinstance(jv, float):
                    assert float(cv) == pytest.approx(jv, rel=1e-15)
                else:
                    assert cv == str(jv)

    def test_out_and_format_flags_apply_together(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "configured.csv"), "format": "csv"}))
        out = tmp_path / "flagged.json"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        assert not (tmp_path / "configured.csv").exists()
        rows = json.loads(out.read_text())
        assert [list(r) for r in rows] == [SWEEP_COLUMNS] * 9

    def test_sweep_header(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "s.csv"), "format": "csv"}))
        main(["sweep", "--config", path])
        with open(tmp_path / "s.csv") as f:
            header = f.readline().strip().split(",")
        assert header == SWEEP_COLUMNS

    def test_ten_output(self, tmp_path):
        path = write_config(tmp_path, base_config(
            models=["three_mode"],
            distances_km={"start": 10.0, "stop": 10.0, "step": 5.0},
            output={"path": str(tmp_path / "t.csv"), "format": "csv"}))
        assert main(["ten", "--config", path]) == EXIT_OK
        rows = read_csv(tmp_path / "t.csv")
        assert list(rows[0].keys()) == TEN_COLUMNS
        assert float(rows[0]["ten"]) > 0

    def test_calib_report(self, tmp_path):
        cfg = base_config(calibration={
            "v_tot": 2.3768, "v_ele": 0.421, "seed": 0, "eps_pe": 1e-5,
            "m_grid": [10 ** 5, 10 ** 6, 10 ** 7],
        })
        path = write_config(tmp_path, cfg)
        out = tmp_path / "c.csv"
        assert main(["calib", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert list(rows[0].keys()) == CALIB_COLUMNS
        for row in rows:
            assert float(row["dev_ote"]) < float(row["dev_tte"])

    def test_calib_requires_section(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["calib", "--config", path,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG_ERROR


class TestExitCodes:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["validate-config", "--config", path]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_validate_config_bad_field(self, tmp_path, capsys):
        raw = base_config()
        raw["system"]["eta_d"] = -1
        path = write_config(tmp_path, raw)
        assert main(["validate-config", "--config", path]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override,field", [
        ("distances_km.step=NaN", "distances_km.step"),
        ("pulse_rate_hz=NaN", "pulse_rate_hz"),
        ("pulse_rate_hz=1e999", "pulse_rate_hz"),
        ("miscalibration_deltas=[NaN]", "miscalibration_deltas[0]"),
        ("variances=[Infinity]", "variances[0]"),
        ("system.eps_c=nan", "system.eps_c"),
        ("calibration.v_tot=inf", "calibration.v_tot"),
        ("finite_size.block_length=1e999", "finite_size.block_length"),
    ])
    def test_validate_config_rejects_non_finite_numbers(self, tmp_path, capsys, override,
                                                        field):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE,
                                                  calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", override]) \
            == EXIT_CONFIG_ERROR
        assert f"{field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("m_grid", ["[1]", "[0.5]"])
    def test_validate_config_dry_runs_calibration(self, tmp_path, capsys, m_grid):
        path = write_config(tmp_path, base_config(calibration=CALIBRATION))
        assert main(["validate-config", "--config", path,
                     "--set", f"calibration.m_grid={m_grid}"]) == EXIT_CONFIG_ERROR
        assert "need at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "ten", "calib"])
    def test_no_output_path(self, tmp_path, capsys, command):
        raw = base_config(calibration=CALIBRATION)
        del raw["output"]
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
        assert "no output path" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) \
            == EXIT_CONFIG_ERROR

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "no-such-dir" / "x.csv"),
                    "format": "csv"}))
        assert main(["sweep", "--config", path]) == EXIT_RUNTIME_ERROR


def test_cli_import_does_not_load_scipy():
    # scipy costs about 0.3 s of start-up on every CLI run; tests may use it.
    src = Path(cvqkd_calib.__file__).resolve().parents[1]
    code = ("import sys, cvqkd_calib.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"
