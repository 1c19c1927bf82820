"""Tests for config handling, sweep execution and output contracts."""

import collections
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cvqkd_calib
from cvqkd_calib import (
    CalibrationModel,
    NumericalError,
    SystemParams,
    cli,
    keyrate,
    transmittance_from_km,
)
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
)
from cvqkd_calib.keyrate import TEN_TOLERANCE, _TEN_BRACKET_CAP, snu_interval
from oracles import TEN_MAX_ITER, bisect_tolerable_noise
from strategies import PROPERTY


def expand_blocks(blocks: list[dict]) -> list[dict]:
    """One dict per row: a block's lists give a value per row, and any other
    value holds for all its rows, so a block of single values is one row. A
    float64 array column counts as the list of its values as Python floats."""
    rows = []
    for block in blocks:
        block = {c: v.tolist() if isinstance(v, np.ndarray) else v for c, v in block.items()}
        lengths = {len(v) for v in block.values() if isinstance(v, list)}
        (n,) = lengths or {1}
        for i in range(n):
            rows.append({c: v[i] if isinstance(v, list) else v for c, v in block.items()})
    return rows


def sweep_rows(cfg: SweepConfig) -> list[dict]:
    return expand_blocks(cli._sweep_blocks(cfg))


def ten_rows(cfg: SweepConfig) -> list[dict]:
    return expand_blocks(cli._ten_blocks(cfg))


def patch_closed_form(monkeypatch, change) -> None:
    """Patch keyrate.closed_form_rate, which gives every asymptotic rate and
    every ten sign, to return change(params, names, rate) as its rate: names
    holds the model name of each row of rate, and params the rows' columns."""
    closed_form = keyrate.closed_form_rate

    def patched(params, model, fs=None):
        rate, chi = closed_form(params, model, fs)
        detectors = np.reshape(model, (-1, np.shape(model)[-1]))[:, :3]
        names = [next(m.value for m in CalibrationModel
                      if np.array_equal(row, keyrate.closed_form_model(params, m)[:3]))
                 for row in detectors]
        return change(params, np.broadcast_to(names, rate.shape[:1]), rate.copy()), chi

    monkeypatch.setattr(keyrate, "closed_form_rate", patched)


def rate_where(hit, value):
    """A patch_closed_form change: value at every SNU ratio of the rows where
    hit(params, names) holds."""
    def change(params, names, rate):
        rate[np.broadcast_to(hit(params, names), rate.shape[:1])] = value
        return rate
    return change


def at_t(t):
    """The rows of params at transmittance t."""
    return lambda params, names: np.asarray(params.t) == t


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
        with pytest.raises(ConfigError, match=re.escape(
                "models[0] must be one of ['conventional', 'two_mode', 'three_mode'], "
                "got 'four_mode'")):
            SweepConfig.from_dict(base_config(models=["four_mode"]))

    def test_bad_regime_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "regime must be one of ['asymptotic', 'finite_size']")):
            SweepConfig.from_dict(base_config(regime="instantaneous"))

    def test_finite_regime_requires_finite_section(self):
        with pytest.raises(ConfigError, match=re.escape(
                "finite_size section is required for the finite_size regime")):
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

    # Only the config is checked here: no test builds a grid past the cap,
    # which sweep and ten would allocate in full.
    def test_grid_of_up_to_a_million_points_is_accepted(self):
        cfg = SweepConfig.from_dict(base_config(
            distances_km={"start": 0.0, "stop": 199.9998, "step": 2e-4}))
        assert cfg.distances_km.count == 10 ** 6

    def test_grid_of_more_than_a_million_points_is_refused(self):
        with pytest.raises(ConfigError, match=re.escape(
                "distances_km has too many points: 1000001, more than 1000000")):
            SweepConfig.from_dict(base_config(
                distances_km={"start": 0.0, "stop": 200.0, "step": 2e-4}))

    def test_validate_config_refuses_a_grid_past_the_cap(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["validate-config", "--config", path, "--set", "distances_km.step=1e-9",
                     "--set", "distances_km.stop=200"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: distances_km has too many points: 200000000001, more than 1000000\n")

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

    @pytest.mark.parametrize("regime", ["asymptotic", "finite_size"])
    def test_every_model_block_holds_one_i_ab_column(self, regime):
        # The README grid's 0 km, delta 0.003 rows have (1 + delta) * t > 1,
        # where apply_miscalibration clamps t_hat to 1.
        cfg = load_config(str(GOLDEN_CONFIG), [f"regime={regime}"])
        blocks = cli._sweep_blocks(cfg)
        assert len(blocks) == 3
        assert len({id(b["i_ab"]) for b in blocks}) == 1
        for b in blocks:
            assert np.any((1.0 + b["delta"]) * b["transmittance"] > 1.0)
            params = SystemParams(v=b["V"], t=b["transmittance"], **cfg.system)
            res = keyrate.key_rate(params, CalibrationModel(b["model"]), cfg.finite_size,
                                   b["delta"])
            assert b["i_ab"].tobytes() == res.i_ab.tobytes()

    def test_i_ab_error_names_its_model_and_point(self, monkeypatch):
        # key_rate makes the I_AB column, so its errors name the first model.
        cfg = SweepConfig.from_dict(base_config(variances=[4.0, 20.0]))

        def failing(params):
            raise NumericalError("non-finite I_AB", row=4)

        monkeypatch.setattr(keyrate, "mutual_information", failing)
        with pytest.raises(RuntimeError, match=(
                r"^model=conventional V=20\.0 km=10\.0 delta=0\.0: "
                r"NumericalError: non-finite I_AB$")):
            sweep_rows(cfg)

    @pytest.mark.parametrize("blocks_of", [cli._sweep_blocks, cli._ten_blocks])
    def test_grid_columns_are_each_distance_and_its_transmittance(self, monkeypatch,
                                                                   blocks_of):
        # 0.05 + i * 0.1 is not exact in binary; each row must hold the
        # grid's own point, and the one transmittance computed for it.
        cfg = SweepConfig.from_dict(base_config(
            variances=[20.0, 4.0], miscalibration_deltas=[0.0, 0.003],
            distances_km={"start": 0.05, "stop": 1.0, "step": 0.1}))
        calls = []
        monkeypatch.setattr(cli, "transmittance_from_km",
                            lambda km: calls.append(km) or transmittance_from_km(km))
        blocks = blocks_of(cfg)
        points = cfg.distances_km.points()
        assert calls == points
        deltas = 2 if blocks_of is cli._sweep_blocks else 1
        km = [p for _ in cfg.variances for p in points for _ in range(deltas)]
        t = list(map(transmittance_from_km, km))
        for b in blocks:
            assert list(map(float.hex, b["distance_km"].tolist())) == list(map(float.hex, km))
            assert list(map(float.hex, b["transmittance"].tolist())) == list(map(float.hex, t))
            assert all(c.dtype == np.float64 for c in b.values() if isinstance(c, np.ndarray))

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

    def test_row_failure_names_grid_point(self, monkeypatch):
        # Holevo evaluation breaks at 10 km only; the error must say where.
        # Only finite-size sweep runs the eigensolver.
        healthy = keyrate.holevo_bound

        def failing(params, model, n0=1.0):
            far = np.flatnonzero(np.less(params.t, 0.9))
            if far.size:
                raise NumericalError("eigenvalue solve did not converge", row=int(far[0]))
            return healthy(params, model, n0)

        monkeypatch.setattr(keyrate, "holevo_bound", failing)
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], miscalibration_deltas=[0.001], regime="finite_size",
            finite_size=FINITE_SIZE, distances_km={"start": 0.0, "stop": 10.0, "step": 10.0}))
        with pytest.raises(RuntimeError, match=(
                r"^model=three_mode V=4\.0 km=10\.0 delta=0\.001: "
                r"NumericalError: eigenvalue solve did not converge$")):
            sweep_rows(cfg)

    @pytest.mark.parametrize("rows,delta", [(sweep_rows, "0.001"), (ten_rows, "0.0")])
    def test_non_finite_closed_form_names_grid_point(self, monkeypatch, rows, delta):
        # The closed form is not finite at 10 km only, as past its overflow.
        patch_closed_form(monkeypatch, rate_where(
            lambda params, names: np.less(params.t, 0.9), np.nan))
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], miscalibration_deltas=[0.001],
            distances_km={"start": 0.0, "stop": 10.0, "step": 10.0}))
        with pytest.raises(RuntimeError, match=(
                rf"^model=three_mode V=4\.0 km=10\.0 delta={delta}: "
                r"NumericalError: non-finite key rate at n0 = 1\.0$")):
            rows(cfg)

    def test_error_without_a_row_names_its_model_from_one_call(self, monkeypatch):
        # A batched solver failure cannot say which row broke; the block is
        # not evaluated again to find out.
        def failing(params, model, n0=1.0):
            raise NumericalError("eigenvalue solve did not converge")

        calls = []
        healthy = keyrate.key_rate

        def counted(*args, **kwargs):
            calls.append(args)
            return healthy(*args, **kwargs)

        monkeypatch.setattr(keyrate, "holevo_bound", failing)
        monkeypatch.setattr(cli, "key_rate", counted)
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], regime="finite_size", finite_size=FINITE_SIZE))
        with pytest.raises(RuntimeError, match=(
                r"^model=three_mode: NumericalError: eigenvalue solve did not converge$")):
            sweep_rows(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("rows", [sweep_rows, ten_rows])
    def test_asymptotic_rows_run_no_eigensolve(self, monkeypatch, rows):
        # Asymptotic sweep and ten take every rate from the closed form, so a
        # failing eigensolver changes nothing.
        cfg = SweepConfig.from_dict(base_config(miscalibration_deltas=[0.0, 0.001]))
        expected = rows(cfg)

        def failing(params, model, n0=1.0):
            raise NumericalError("eigenvalue solve did not converge")

        monkeypatch.setattr(keyrate, "holevo_bound", failing)
        assert rows(cfg) == expected

    def test_row_where_the_closed_form_broke_down_is_exact(self, monkeypatch):
        # At eta_d 0.9 and v_ele 0.2, conventional V = 40 at 0 km and eps_c = 0
        # is a pure state whose s^2 - 4p rounds below 0. The closed form
        # takes that pair's modulus, so the sweep writes the exact chi_BE 0
        # and the rate beta * I_AB there, with no eigensolve (which would
        # give chi_BE 4.0e-12 and the rate 2.3512166274132875).
        eigensolver, solved = keyrate.holevo_bound, []

        def holevo_spy(params, model, n0=1.0):
            solved.append((model, np.size(params.v)))
            return eigensolver(params, model, n0)

        monkeypatch.setattr(keyrate, "holevo_bound", holevo_spy)
        rows = sweep_rows(load_config(str(GOLDEN_CONFIG), [
            "system.eta_d=0.9", "system.v_ele=0.2", "system.eps_c=0"]))
        (row,) = [r for r in rows if (r["model"], r["V"], r["distance_km"], r["delta"])
                  == ("conventional", 40.0, 0.0, 0.0)]
        assert row["chi_be"] == 0.0
        assert row["rate_bits_per_pulse"] == 2.3512166274172563
        assert row["rate_bits_per_pulse"] == 0.956 * row["i_ab"]
        assert solved == []
        assert all(math.isfinite(r["rate_bits_per_pulse"]) for r in rows)

    # (grid index, lowest rate moved): the row's worst ratio, and a ratio
    # that is its worst only when the closed form's lowest rate is moved
    # there.
    @pytest.mark.parametrize("index,moved", [(None, False), (7, True)])
    @pytest.mark.parametrize("model,builder,what", [
        ("two_mode", "conventional_channel_stack", "two-mode matrix"),
        ("three_mode", "three_mode_stack", "three-mode matrix"),
        ("conventional", "conventional_channel_stack", "measured matrix"),
    ])
    def test_poisoned_element_inside_a_block_names_its_point_and_n0(
            self, monkeypatch, model, builder, what, index, moved):
        # One (model, V) block holds 4 distances x 3 deltas; poison the matrix
        # of V = 20 (the second V), 20 km, delta 0.001 at an SNU ratio that
        # key_rate evaluates for that row.
        cfg = SweepConfig.from_dict(base_config(
            models=[model], variances=[4.0, 20.0], regime="finite_size",
            finite_size=FINITE_SIZE, miscalibration_deltas=[0.0, 0.001, 0.003],
            distances_km={"start": 0.0, "stop": 30.0, "step": 10.0}))
        if moved:
            p = SystemParams(v=20.0, t=1.0, **cfg.system)
            calib = snu_interval(p, CalibrationModel(model), cfg.finite_size)
            n0 = np.linspace(calib.lower / calib.point, calib.upper / calib.point,
                             keyrate.N0_SCAN_POINTS)[index]

            def lowest_at_index(params, names, rate):
                rate[:] = 1.0
                rate[:, index] = 0.0
                return rate

            patch_closed_form(monkeypatch, lowest_at_index)
        else:
            n0, = [r["n0_worst"] for r in sweep_rows(cfg)
                   if (r["V"], r["distance_km"], r["delta"]) == (20.0, 20.0, 0.001)]
        original = getattr(keyrate, builder)
        t_hat = (1.0 + 0.001) * transmittance_from_km(20.0)
        if model == "two_mode":  # its route builds the channel state at t*eta_d*eta_e
            p = SystemParams(v=20.0, t=t_hat, **cfg.system)
            t_hat = t_hat * p.eta_d * p.eta_e

        def poisoned(params, ratios):
            out = original(params, ratios)
            rows = out.shape[:1]
            hit = ((np.broadcast_to(params.v, rows) == 20.0)
                   & (np.broadcast_to(params.t, rows) == t_hat)
                   & (np.broadcast_to(ratios, rows) == n0))
            out[hit, 2, 2] = np.nan
            return out

        monkeypatch.setattr(keyrate, builder, poisoned)
        named = re.escape(repr(float(n0)))
        with pytest.raises(RuntimeError, match=(
                rf"^model={model} V=20\.0 km=20\.0 delta=0\.001: "
                rf"NumericalError: non-finite {what} at n0 = {named}$")):
            sweep_rows(cfg)


GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"
FINITE_STEP_50 = ["--set", "regime=finite_size", "--set", "distances_km.step=50"]

# Strictly decreasing rates with their root at r, shaped by u in [0, 1].
RATE_FAMILIES = {
    "linear": lambda r, u: lambda e: 10.0 ** (6.0 * u - 3.0) * (r - e),
    "convex": lambda r, u: lambda e: math.exp(-(1.0 + 60.0 * u) * e)
    - math.exp(-(1.0 + 60.0 * u) * r),
    "concave": lambda r, u: lambda e: math.copysign(abs(r) ** (1.5 + 3.0 * u), r)
    - e ** (1.5 + 3.0 * u),
    "tanh": lambda r, u: lambda e: -math.tanh(10.0 ** (6.0 * u) * (e - r)),
}


TEN_WIDTH = 2.0 ** (math.frexp(TEN_TOLERANCE)[1] - 1)

# Magnitudes that a row's rate_at may give with the sign of rate(e), x being
# a draw from [-1, 1]: the search reads them to choose its edges, and must
# end where the signs alone put it whatever they are. Each is positive
# where rate(e) is, so the value keeps the rate's sign.
MAGNITUDES = {
    "exact": lambda rate, e, x: abs(rate(e)),
    "inf": lambda rate, e, x: math.inf,
    "inverted": lambda rate, e, x: 1.0 / abs(rate(e)) if rate(e) else math.inf,
    "noisy": lambda rate, e, x: abs(rate(e)) + abs(x * math.cos(7919.0 * e)),
    "constant": lambda rate, e, x: 1.0 + abs(x),
}


def evaluation_bound(rate) -> int:
    """The most rate evaluations the TEN search of one row makes, those of
    the bisection's own start: one at 0, one per doubling probe from 0.5
    while the rate is positive, and twice the bisection steps of the
    bracket the probes leave."""
    if rate(0.0) <= 0.0:
        return 1
    lo, hi, probes = 0.0, 0.5, 1
    while rate(hi) > 0.0:
        lo, hi, probes = hi, min(2.0 * hi, _TEN_BRACKET_CAP), probes + 1
    return 1 + probes + 2 * (int((hi - lo) / TEN_WIDTH) - 1).bit_length()


def recorded(rate, points: list):
    """rate, appending each eps_c it is evaluated at to points."""
    def wrapped(eps_c):
        points.append(eps_c)
        return rate(eps_c)
    return wrapped


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
        from cvqkd_calib import SystemParams, key_rate, transmittance_from_km
        cfg = SweepConfig.from_dict(base_config(
            models=["three_mode"], variances=[4.0],
            distances_km={"start": 25.0, "stop": 25.0, "step": 5.0}))
        (row,) = ten_rows(cfg)

        def rate(eps_c):
            p = SystemParams(v=4.0, t=transmittance_from_km(25.0), eps_c=eps_c,
                             eta_d=0.6, v_ele=0.01, beta=0.956)
            model = CalibrationModel.ONE_TIME_THREE_MODE
            return key_rate(p, model).rate_bits_per_pulse

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if rate(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert row["ten"] == pytest.approx(0.5 * (lo + hi), abs=2e-4)
        assert rate(row["ten"] - 2e-4) > 0

    def test_oracle_iteration_limit_never_binds(self):
        # The bracket ends at most at the cap, and the bisection's last cells
        # have the width of the largest power of two <= TEN_TOLERANCE.
        width = 2.0 ** (math.frexp(TEN_TOLERANCE)[1] - 1)
        assert _TEN_BRACKET_CAP * 2.0 ** -TEN_MAX_ITER < width <= TEN_TOLERANCE

    def test_zero_when_rate_negative_at_origin(self):
        cfg = SweepConfig.from_dict(base_config(
            models=["two_mode"], variances=[40.0],
            distances_km={"start": 150.0, "stop": 150.0, "step": 5.0}))
        (row,) = ten_rows(cfg)
        assert row["ten"] == 0.0

    @staticmethod
    def oracle_rows(cfg):
        """Each grid row's TEN from the scalar bisection of tests/oracles.py,
        on the rates of keyrate.key_rate, which a test may patch."""
        out = []
        for model in sorted(cfg.models, key=lambda m: m.value):
            for v in sorted(cfg.variances):
                for km in cfg.distances_km.points():
                    def rate_at(eps_c, model=model, v=v, km=km):
                        p = SystemParams(v=v, t=transmittance_from_km(km),
                                         **{**cfg.system, "eps_c": eps_c})
                        return keyrate.key_rate(p, model, cfg.finite_size).rate_bits_per_pulse

                    out.append(bisect_tolerable_noise(rate_at))
        return out

    @pytest.mark.parametrize("regime,step,seed", [("asymptotic", 25.0, 0),
                                                  ("asymptotic", 25.0, 1),
                                                  ("finite_size", 50.0, 2)])
    def test_lockstep_equals_scalar_bisection_oracle(self, regime, step, seed):
        # V = 40 turns the rate negative at eps_c = 0 from about 60 km.
        rng = np.random.default_rng(seed)
        cfg = SweepConfig.from_dict(base_config(
            regime=regime, finite_size=FINITE_SIZE,
            variances=[float(rng.uniform(3.0, 5.0)), float(rng.uniform(12.0, 20.0)), 40.0],
            distances_km={"start": float(rng.uniform(0.0, 5.0)), "stop": 200.0,
                          "step": step}))
        ten = [r["ten"] for r in ten_rows(cfg)]
        assert ten == self.oracle_rows(cfg)
        assert 0.0 in ten and max(ten) > 0.0

    def test_lockstep_equals_oracle_when_the_bracket_grows(self):
        # Real rates turn negative below eps_c = 0.5, so linear rates with
        # roots up to the cap drive the bracket doubling.
        roots = np.array([-0.1, 0.0, 0.3, 0.5, 0.7, 3.3, 100.0, 1000.0])
        got = keyrate._tolerable_noise(lambda rows, eps_c: roots[rows] - eps_c, roots.size)
        assert got.tolist() == [bisect_tolerable_noise(lambda eps_c, r=r: r - eps_c)
                                for r in roots.tolist()]

    @PROPERTY
    @given(cases=st.lists(st.tuples(
        st.sampled_from(sorted(RATE_FAMILIES)),
        st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.5, 2.0 * _TEN_BRACKET_CAP),
                  st.just(_TEN_BRACKET_CAP)),
        st.integers(0, 8), st.sampled_from([-1, 0, 1]), st.floats(0.0, 1.0),
        st.sampled_from(sorted(MAGNITUDES)), st.floats(-1.0, 1.0)),
        min_size=1, max_size=12))
    def test_lockstep_equals_bisection_on_synthetic_rates(self, cases):
        # Each row is a strictly decreasing rate. For edge > 0 its root moves
        # onto one of the last edges that a bisection of r - eps_c evaluates;
        # ulps then moves it one ulp up or down. A root of 0 (or one ulp
        # below) makes the rate at eps_c = 0 exactly 0 (or negative). The row
        # gives the search a value of its rate's sign, whose magnitude is as
        # MAGNITUDES names: the rate's own, infinite, its reciprocal, noisy or
        # a constant.
        rates, values = [], []
        for family, r, edge, ulps, shape, kind, x in cases:
            if edge and r <= _TEN_BRACKET_CAP:
                points = []
                bisect_tolerable_noise(recorded(lambda eps_c, r=r: r - eps_c, points))
                r = points[-min(edge, len(points))]
            r = float(np.nextafter(r, ulps * np.inf)) if ulps else r
            rate = RATE_FAMILIES[family](r, shape)
            ten = r if rate(_TEN_BRACKET_CAP) > 0.0 else bisect_tolerable_noise(rate)
            rates.append(rate)
            values.append(lambda e, rate=rate, kind=kind, x=x: math.copysign(
                MAGNITUDES[kind](rate, e, x), 1.0 if rate(e) > 0.0 else -1.0))
        counts = np.zeros(len(rates), dtype=int)

        def rate_at(rows, eps_c):
            np.add.at(counts, rows, 1)
            return np.array([values[i](e) for i, e in zip(rows.tolist(), eps_c.tolist())])

        capped = [i for i, rate in enumerate(rates) if rate(_TEN_BRACKET_CAP) > 0.0]
        if capped:
            with pytest.raises(NumericalError,
                               match="^rate stayed positive up to the excess-noise cap$") as err:
                keyrate._tolerable_noise(rate_at, len(rates))
            assert err.value.row in capped
            for i in capped:
                with pytest.raises(RuntimeError, match="excess-noise cap"):
                    bisect_tolerable_noise(rates[i])
            return
        got = keyrate._tolerable_noise(rate_at, len(rates)).tolist()
        for ten, rate, count in zip(got, rates, counts.tolist()):
            assert ten == bisect_tolerable_noise(rate)
            assert count <= evaluation_bound(rate)

    @staticmethod
    def counted_ten_rows(monkeypatch, overrides=()):
        """The README grid's ten rows under overrides, with the number of
        rows of each key_rate call and of each _lowest_rate call (each step
        of the search) they took."""
        rows_per_call, rows_per_step = [], []
        healthy, lowest = keyrate.key_rate, keyrate._lowest_rate

        def counted(params, model, fs=None, delta=0.0):
            res = healthy(params, model, fs, delta)
            rows_per_call.append(np.size(res.rate_bits_per_pulse))
            return res

        def counted_lowest(*args):
            value = lowest(*args)
            rows_per_step.append(len(value))
            return value

        monkeypatch.setattr(keyrate, "key_rate", counted)
        monkeypatch.setattr(keyrate, "_lowest_rate", counted_lowest)
        rows = ten_rows(load_config(str(GOLDEN_CONFIG), overrides))
        return rows, rows_per_call, rows_per_step

    def test_readme_grid_evaluation_budget(self, monkeypatch):
        # The bisection took 4317 rate evaluations in 135 key_rate calls here,
        # the edge search from 0.5 for every model 1994 in 23, the search
        # seeded with the model before 1508 in 16, and the search from cells
        # the closed form predicted 651 in 3, after 7 closed-form steps. The
        # one search over all rows takes 7 steps, each taking its values from
        # the closed form, so key_rate evaluates none.
        rows, rows_per_call, rows_per_step = self.counted_ten_rows(monkeypatch)
        assert len(rows) == 369
        assert 1 <= len(rows_per_step) <= 7
        assert rows_per_call == []

    def test_finite_size_readme_grid_evaluation_budget(self, monkeypatch):
        # The search seeded with the model before took 536 rate evaluations
        # in 16 key_rate calls here, and the search from cells the closed
        # form predicted at the SNU interval's worse end 269 in 3. The one
        # search over all rows takes 7 steps, every value of which comes from
        # the closed form.
        rows, rows_per_call, rows_per_step = self.counted_ten_rows(
            monkeypatch, ["regime=finite_size", "distances_km.step=10"])
        assert len(rows) == 189
        assert 1 <= len(rows_per_step) <= 7
        assert rows_per_call == []

    @pytest.mark.parametrize("model", ["conventional", "three_mode", "two_mode"])
    def test_a_model_alone_writes_the_column_it_writes_with_the_others(self, tmp_path,
                                                                      model):
        def ten_lines(*overrides):
            out = tmp_path / "ten.csv"
            assert main(["ten", "--config", str(GOLDEN_CONFIG), "--out", str(out),
                         *overrides]) == EXIT_OK
            return [line for line in out.read_text().splitlines()
                    if line.startswith(f"{model},")]

        alone = ten_lines("--set", f'models=["{model}"]')
        assert len(alone) == 123
        assert alone == ten_lines()

    def test_bracket_cap_names_its_grid_point(self, monkeypatch):
        # A rate that stays positive at 10 km for any excess noise.
        patch_closed_form(monkeypatch, rate_where(at_t(transmittance_from_km(10.0)), 1.0))
        cfg = SweepConfig.from_dict(base_config(
            models=["conventional", "two_mode"],
            distances_km={"start": 0.0, "stop": 20.0, "step": 10.0}))
        with pytest.raises(RuntimeError, match=(
                r"^model=conventional V=4\.0 km=10\.0 delta=0\.0: "
                r"NumericalError: rate stayed positive up to the excess-noise cap$")):
            ten_rows(cfg)

    def test_bracket_cap_of_a_seeded_model_names_its_grid_point(self, monkeypatch):
        # Only two_mode stays positive at 10 km, searched with the other
        # models' rows. Its row there evaluates 0, then probes that double
        # from 0.5 up to the cap itself.
        cfg = SweepConfig.from_dict(base_config())
        t10 = transmittance_from_km(10.0)
        probes = []

        def two_mode_positive_at_10_km(params, names, rate):
            hit = (np.asarray(params.t) == t10) & (names == "two_mode")
            probes.extend(np.asarray(params.eps_c)[hit].tolist())
            rate[hit] = 1.0
            return rate

        patch_closed_form(monkeypatch, two_mode_positive_at_10_km)
        with pytest.raises(RuntimeError, match=(
                r"^model=two_mode V=4\.0 km=10\.0 delta=0\.0: "
                r"NumericalError: rate stayed positive up to the excess-noise cap$")):
            ten_rows(cfg)
        assert probes == [0.0] + [2.0 ** k for k in range(-1, 11)]
        assert probes[-1] == _TEN_BRACKET_CAP

    def test_zero_tolerance_next_to_a_positive_one_equals_the_oracle(self, monkeypatch):
        # Conventional tolerates no excess noise at 10 km and two_mode none
        # at 20 km, where the closed form gives a positive TEN for both;
        # three_mode keeps its own TEN at both points. The oracle bisects the
        # rates of key_rate, which takes the same patched closed form.
        negative = {"conventional": transmittance_from_km(10.0),
                    "two_mode": transmittance_from_km(20.0)}
        patch_closed_form(monkeypatch, rate_where(lambda params, names: np.asarray(params.t) == [
            negative.get(name, -1.0) for name in names], -1.0))
        cfg = SweepConfig.from_dict(base_config())
        rows = ten_rows(cfg)
        ten = {(r["model"], r["distance_km"]): r["ten"] for r in rows}
        assert ten["conventional", 10.0] == ten["two_mode", 20.0] == 0.0
        assert ten["three_mode", 10.0] > 0.0 and ten["three_mode", 20.0] > 0.0
        assert [r["ten"] for r in rows] == self.oracle_rows(cfg)

    def test_a_row_of_uninformative_values_leaves_the_other_rows_predicted(self,
                                                                            monkeypatch):
        # The search takes each next edge from the magnitudes of
        # _lowest_rate's values and moves an end by their sign alone.
        # Conventional's values at 10 km are patched to +1 or -1, their signs
        # kept, so that row's magnitudes say nothing of where its root lies:
        # it takes more evaluations, but ends as it does with the true
        # values, and every other row takes the same evaluations as before.
        cfg = SweepConfig.from_dict(base_config())
        t10 = transmittance_from_km(10.0)
        lowest = keyrate._lowest_rate

        def counted_ten(uninformative):
            evaluations = collections.Counter()

            def counted(params, model, fs=None):
                value = lowest(params, model, fs)
                # The gain T / t of closed_form_model tells the models apart
                # at eta_d < 1: 1 for conventional alone.
                gain, t = model[:, 0], params.t
                evaluations.update(zip(gain.tolist(), t.tolist()))
                if uninformative:
                    value = np.where((gain == 1.0) & (t == t10),
                                     np.where(value > 0.0, 1.0, -1.0), value)
                return value

            monkeypatch.setattr(keyrate, "_lowest_rate", counted)
            return [r["ten"] for r in ten_rows(cfg)], evaluations

        ten, before = counted_ten(False)
        uninformative_ten, after = counted_ten(True)
        assert ten == uninformative_ten
        assert after.pop((1.0, t10)) > before.pop((1.0, t10))
        assert len(after) == 8 and after == before

    def test_error_in_a_later_step_names_its_row_of_the_block(self, monkeypatch):
        # Each row's first step evaluates eps_c = 0. The rate is not positive
        # at 0 km, so the steps after the first evaluate the 10 and 20 km
        # rows only; row 0 of such a step is 10 km, whose closed form is not
        # finite there.
        def change(params, names, rate):
            t, eps_c = np.broadcast_arrays(params.t, params.eps_c)
            rate[t == 1.0] = -1.0
            rate[(t == transmittance_from_km(10.0)) & (eps_c > 0.0)] = np.nan
            return rate

        patch_closed_form(monkeypatch, change)
        cfg = SweepConfig.from_dict(base_config(models=["two_mode"]))
        with pytest.raises(RuntimeError, match=(
                r"^model=two_mode V=4\.0 km=10\.0 delta=0\.0: "
                r"NumericalError: non-finite key rate at n0 = 1\.0$")):
            ten_rows(cfg)

    def test_error_among_finite_rows_names_its_row_of_the_block(self, monkeypatch):
        # As above, but the closed form fails at 20 km, row 1 of a later
        # step, after the finite 10 km row.
        def change(params, names, rate):
            t, eps_c = np.broadcast_arrays(params.t, params.eps_c)
            rate[t == 1.0] = -1.0
            rate[(t == transmittance_from_km(20.0)) & (eps_c > 0.0)] = np.nan
            return rate

        patch_closed_form(monkeypatch, change)
        cfg = SweepConfig.from_dict(base_config(models=["two_mode"]))
        with pytest.raises(RuntimeError, match=(
                r"^model=two_mode V=4\.0 km=20\.0 delta=0\.0: "
                r"NumericalError: non-finite key rate at n0 = 1\.0$")):
            ten_rows(cfg)

    @pytest.mark.parametrize("three_mode_at,named", [
        (0.0, r"model=three_mode V=4\.0 km=20\.0"),
        (0.5, r"model=two_mode V=4\.0 km=0\.0"),
    ], ids=["same step", "later step"])
    def test_error_of_several_models_names_the_first_in_step_then_model_order(
            self, monkeypatch, three_mode_at, named):
        # The closed form fails for two_mode at 0 km in the first step
        # (eps_c = 0), and for three_mode at 20 km in the same step or the
        # next one (the probe at 0.5). The earliest failing step wins, then
        # sorted model order, not grid order.
        fails = {"three_mode": (transmittance_from_km(20.0), three_mode_at),
                 "two_mode": (1.0, 0.0)}

        def change(params, names, rate):
            t, eps_c = np.broadcast_arrays(params.t, params.eps_c)
            for name, (at_t, at_eps_c) in fails.items():
                rate[(names == name) & (t == at_t) & (eps_c == at_eps_c)] = np.nan
            return rate

        patch_closed_form(monkeypatch, change)
        with pytest.raises(RuntimeError, match=(
                rf"^{named} delta=0\.0: NumericalError: non-finite key rate at n0 = 1\.0$")):
            ten_rows(SweepConfig.from_dict(base_config()))

    def test_the_row_where_the_closed_form_broke_down_takes_its_exact_rate(self, monkeypatch):
        # At eta_d 0.9 and v_ele 0.2, conventional V = 40 at 0 km and eps_c = 0
        # is a pure state whose s^2 - 4p rounds below 0. The closed form takes
        # that pair's modulus, so the search's first step there gives the
        # exact rate beta * I_AB, and no rate goes to key_rate or the
        # eigensolver. The TEN cell is the scalar bisection's on key_rate.
        lowest, healthy, eigensolver = keyrate._lowest_rate, keyrate.key_rate, keyrate.holevo_bound
        first, calls = [], []

        def lowest_spy(params, model, fs=None):
            value = lowest(params, model, fs)
            # The gain T / t of closed_form_model is 1 for conventional alone.
            hit = (model[:, 0] == 1.0) & (params.v == 40.0) & (params.t == 1.0)
            first.extend(zip(params.eps_c[hit].tolist(), value[hit].tolist()))
            return value

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("ten left the closed form")

        monkeypatch.setattr(keyrate, "_lowest_rate", lowest_spy)
        monkeypatch.setattr(keyrate, "key_rate", refused)
        monkeypatch.setattr(keyrate, "holevo_bound", refused)
        cfg = load_config(str(GOLDEN_CONFIG), [
            "system.eta_d=0.9", "system.v_ele=0.2", "system.eps_c=0.05"])
        rows = ten_rows(cfg)
        assert calls == []
        assert first[0] == (0.0, 2.3512166274172563)
        (row,) = [r for r in rows if (r["model"], r["V"], r["distance_km"])
                  == ("conventional", 40.0, 0.0)]
        monkeypatch.setattr(keyrate, "key_rate", healthy)
        monkeypatch.setattr(keyrate, "holevo_bound", eigensolver)
        oracle = bisect_tolerable_noise(lambda eps_c: healthy(
            SystemParams(v=40.0, t=1.0, **{**cfg.system, "eps_c": eps_c}),
            CalibrationModel.CONVENTIONAL_TTE).rate_bits_per_pulse)
        assert row["ten"] == oracle == 0.348236083984375

    @pytest.mark.parametrize("regime", ["asymptotic", "finite_size"])
    def test_far_rows_take_key_rates_signs(self, monkeypatch, regime):
        # From about 600 km the asymptotic rate is within float error of 0,
        # where the closed form's sign, which the search takes, is key_rate's
        # asymptotically; finite-size it may differ within the margin, which
        # no edge here reaches. So the TEN column is the one the same search
        # writes on key_rate's rates, which give it the same signs.
        cfg = load_config(str(GOLDEN_CONFIG), [
            f"regime={regime}", "distances_km.start=300", "distances_km.stop=900"])

        def key_rates(params, model, fs=None):
            value = np.full(params.v.size, np.nan)
            for m in cfg.models:
                own = np.flatnonzero(np.all(model == keyrate.closed_form_model(params, m, fs),
                                            axis=1))
                if own.size:
                    part = dataclasses.replace(params, v=params.v[own], t=params.t[own],
                                               eps_c=params.eps_c[own])
                    value[own] = keyrate.key_rate(part, m, fs).rate_bits_per_pulse
            assert not np.isnan(value).any(), "a row matched no model"
            return value

        expected = ten_rows(cfg)
        monkeypatch.setattr(keyrate, "_lowest_rate", key_rates)
        assert ten_rows(cfg) == expected

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


# Single values of every kind the writer meets, with strings that json
# escapes as non-ASCII; float text must be the repr of the very value. No
# command writes a comma, double quote or line break, so none is drawn.
WRITER_CELLS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5 * 10 ** 9, 0.1]),
    st.sampled_from(["", "two_mode", "caf\u00e9", "line\u2028separator", "50%"]),
    st.floats(),
)


@st.composite
def writer_cases(draw):
    """(blocks, columns): row dicts of single values and column blocks of
    up to 3 rows.

    A block column is a float64 array, a single value or, in a 3-row
    block, the one array of that column shared by every 3-row block that
    takes it. There are two columns or more, as in every command's output:
    csv quotes the empty field of a one-column row."""
    columns = draw(st.lists(st.text(alphabet="a\u00e9\u2028%", max_size=3),
                            min_size=2, max_size=5, unique=True))
    shared = {c: np.array(draw(st.lists(st.floats(), min_size=3, max_size=3))) for c in columns}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            blocks.append({c: draw(WRITER_CELLS) for c in columns})
            continue
        n = draw(st.integers(0, 3))
        kinds = ["array", "single"] + (["shared"] * (n == 3))
        block = {}
        for c in columns:
            kind = draw(st.sampled_from(kinds))
            block[c] = (draw(WRITER_CELLS) if kind == "single" else shared[c]
                        if kind == "shared" else
                        np.array(draw(st.lists(st.floats(), min_size=n, max_size=n))))
        blocks.append(block)
    return blocks, columns


# The floats whose text is hardest to get right, then any float.
FLOAT_CELLS = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22, 0.1, 1 / 3]),
    st.floats(),
)


@st.composite
def float_array_cases(draw):
    """(blocks, columns): column blocks of up to 3 rows whose columns are
    float64 arrays or single values, two columns or more (see
    writer_cases). In a 3-row block an array column may be the one array
    of that column shared by every 3-row block that takes it."""
    columns = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=3,
                            unique=True))
    shared = {c: np.array(draw(st.lists(FLOAT_CELLS, min_size=3, max_size=3)), dtype=np.float64)
              for c in columns}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 3))
        kinds = ["array", "single"] + (["shared"] * (n == 3))
        block = {}
        for c in columns:
            kind = draw(st.sampled_from(kinds))
            block[c] = (draw(WRITER_CELLS) if kind == "single" else shared[c]
                        if kind == "shared" else
                        np.array(draw(st.lists(FLOAT_CELLS, min_size=n, max_size=n)),
                                 dtype=np.float64))
        blocks.append(block)
    return blocks, columns


# Floats whose bit patterns differ though they compare or print alike: the
# two zeros, NaNs of either sign and of another payload; then the
# infinities and the least subnormal.
BIT_TWINS = [0.0, -0.0, math.nan, -math.nan,
             np.int64(0x7FF8000000000001).view(np.float64).item(), math.inf, -math.inf, 5e-324]


@st.composite
def shared_bits_cases(draw):
    """(blocks, columns): blocks of float64 array columns whose values all
    come from BIT_TWINS and up to 3 other floats, so that one call's
    columns and blocks share bit patterns. In a 3-row block a column may
    be the one array of that column shared by every 3-row block that
    takes it."""
    cells = st.sampled_from(BIT_TWINS + draw(st.lists(st.floats(), max_size=3)))
    columns = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                            unique=True))
    shared = {c: np.array(draw(st.lists(cells, min_size=3, max_size=3))) for c in columns}
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 3))
        blocks.append({c: shared[c] if n == 3 and draw(st.booleans()) else
                       np.array(draw(st.lists(cells, min_size=n, max_size=n)))
                       for c in columns})
    return blocks, columns


def assert_writes_what_csv_and_json_write(blocks, columns) -> None:
    """write_rows's CSV is csv.writer's text of the rows, and its JSON is
    json.dumps's, an array column counting as the list of its floats."""
    rows = [[row[c] for c in columns] for row in expand_blocks(blocks)]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([columns] + rows)
    expected_json = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, text in (("csv", expected.getvalue()), ("json", expected_json)):
            path = os.path.join(tmp, f"rows.{fmt}")
            cli.write_rows(blocks, columns, path, fmt)
            with open(path, newline="") as f:
                assert f.read() == text


class TestOutputs:
    def test_sweep_csv_deterministic(self, tmp_path):
        cfg = base_config(output={"path": str(tmp_path / "a.csv"), "format": "csv"})
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path]) == EXIT_OK
        first = (tmp_path / "a.csv").read_bytes()
        assert main(["sweep", "--config", path]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == first

    @pytest.mark.parametrize("command,columns,rows", [
        ("sweep", SWEEP_COLUMNS, 9), ("ten", TEN_COLUMNS, 9),
        ("calib", CALIB_COLUMNS, len(CALIBRATION["m_grid"]))], ids=["sweep", "ten", "calib"])
    def test_csv_and_json_contain_identical_values(self, tmp_path, command, columns, rows):
        # Both files are written from the same floats, so their text agrees exactly.
        cfg = base_config(calibration=CALIBRATION)
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "r.csv"),
                     "--format", "csv"]) == EXIT_OK
        assert main([command, "--config", path, "--out", str(tmp_path / "r.json"),
                     "--format", "json"]) == EXIT_OK
        csv_rows = read_csv(tmp_path / "r.csv")
        text = (tmp_path / "r.json").read_bytes().decode()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        json_rows = json.loads(text)
        assert len(csv_rows) == len(json_rows) == rows
        for c, j in zip(csv_rows, json_rows):
            assert list(c) == list(j) == columns
            for col in columns:
                jv = j[col]
                cv = c[col]
                if jv is None:
                    assert cv == ""
                elif isinstance(jv, float):
                    assert repr(float(cv)) == repr(jv)
                else:
                    assert cv == str(jv)

    def test_write_rows_cell_text(self, tmp_path):
        # No golden holds a NaN, an inf or a -0.0 cell.
        row = {"none": None, "neg_zero": -0.0, "nan": math.nan, "inf": math.inf,
               "int": 5 * 10 ** 9, "str": "two_mode", "tenth": 0.1, "tiny": 1e-300}
        cli.write_rows([row], list(row), str(tmp_path / "row.csv"), "csv")
        assert (tmp_path / "row.csv").read_bytes() == (
            b"none,neg_zero,nan,inf,int,str,tenth,tiny\n"
            b",-0.0,nan,inf,5000000000,two_mode,0.1,1e-300\n")
        cli.write_rows([row], list(row), str(tmp_path / "row.json"), "json")
        text = (tmp_path / "row.json").read_text()
        assert '"none": null' in text
        [back] = json.loads(text)
        assert [repr(v) for v in back.values()] == [repr(v) for v in row.values()]

    @PROPERTY
    @given(writer_cases())
    @example(([{"a": None, "b": ""}, {"a": np.array([0.1, -0.0]), "b": None}], ["a", "b"]))
    @example(([{"rate_bits_per_pulse": np.array([-0.0, math.nan]),
                "rate_clamped": np.array([0.0, math.nan])}],
              ["rate_bits_per_pulse", "rate_clamped"]))
    def test_write_rows_writes_what_csv_writes(self, case):
        blocks, columns = case
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [columns] + [[row[c] for c in columns] for row in expand_blocks(blocks)])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            cli.write_rows(blocks, columns, path, "csv")
            with open(path, newline="") as f:
                assert f.read() == expected.getvalue()

    @PROPERTY
    @given(writer_cases())
    @example(([], ["a", "b"]))
    def test_write_rows_writes_what_json_writes(self, case):
        blocks, columns = case
        expected = json.dumps([{c: row[c] for c in columns} for row in expand_blocks(blocks)],
                              indent=2) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.json")
            cli.write_rows(blocks, columns, path, "json")
            with open(path, newline="") as f:
                assert f.read() == expected

    @PROPERTY
    @given(float_array_cases())
    @example(([{"x": np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22, 0.1,
                               1 / 3])}], ["x"]))
    def test_write_rows_writes_float_arrays_as_csv_and_json_write_their_floats(self, case):
        assert_writes_what_csv_and_json_write(*case)

    @PROPERTY
    @given(shared_bits_cases())
    @example(([{"a": np.array([0.0, -0.0, 0.0]), "b": np.array([-0.0, math.nan, -math.nan])},
               {"a": np.array(BIT_TWINS), "b": np.array(BIT_TWINS[::-1])}], ["a", "b"]))
    @example(([{"a": np.array([-0.0, -0.0]), "b": np.array([0.0, 0.0])}], ["a", "b"]))
    def test_write_rows_writes_bit_patterns_shared_across_columns_and_blocks(self, case):
        # Each distinct bit pattern is formatted once per call and its text
        # gathered back to its cells; a key on the value would give 0.0 and
        # -0.0 one text.
        assert_writes_what_csv_and_json_write(*case)

    @pytest.mark.parametrize("regime", ["asymptotic", "finite_size"])
    def test_each_bit_pattern_of_the_array_cells_is_formatted_once(self, regime):
        blocks = cli._sweep_blocks(load_config(str(GOLDEN_CONFIG), [f"regime={regime}"]))
        cells = np.concatenate([b[c] for b in blocks for c in SWEEP_COLUMNS
                                if isinstance(b[c], np.ndarray)])
        calls = []
        rows = list(cli._cell_rows(blocks, SWEEP_COLUMNS, cli._csv_text,
                                   lambda x: calls.append(x) or repr(x)))
        assert len(rows) == 1107
        called = np.array(calls).view(np.int64).tolist()
        assert len(called) == len(set(called))
        assert set(called) == set(cells.view(np.int64).tolist())

    def test_write_rows_refuses_arrays_of_unequal_length(self, tmp_path):
        block = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError):
                cli.write_rows([block], ["a", "b"], str(tmp_path / f"rows.{fmt}"), fmt)

    # The writer handles float64 array columns and single values, and quotes
    # no CSV cell; a list column or a string that csv would quote fails here.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", [
        ["sweep"], ["sweep", *FINITE_STEP_50], ["ten"], ["ten", *FINITE_STEP_50], ["calib"],
    ], ids=["sweep-asymptotic", "sweep-finite_size", "ten-asymptotic", "ten-finite_size",
            "calib"])
    def test_the_commands_write_float_arrays_and_unquoted_single_values(
            self, tmp_path, monkeypatch, args, fmt):
        calls = []
        write_rows = cli.write_rows

        def spy(blocks, columns, *rest):
            calls.append((blocks, columns))
            write_rows(blocks, columns, *rest)

        monkeypatch.setattr(cli, "write_rows", spy)
        command, *sets = args
        assert main([command, "--config", str(GOLDEN_CONFIG), *sets,
                     "--out", str(tmp_path / f"out.{fmt}"), "--format", fmt]) == EXIT_OK
        [(blocks, columns)] = calls
        assert columns in (SWEEP_COLUMNS, TEN_COLUMNS, CALIB_COLUMNS) and blocks
        cells = [b[c] for b in blocks for c in columns]
        arrays = [v for v in cells if isinstance(v, np.ndarray)]
        singles = [v for v in cells if not isinstance(v, np.ndarray)]
        assert all(a.dtype == np.float64 and a.ndim == 1 for a in arrays)
        assert [v for v in singles if v is not None and type(v) not in (int, float, str)] == []
        texts = [*columns, *(m.value for m in CalibrationModel),
                 *(v for v in singles if type(v) is str)]
        assert [t for t in texts if set(t) & set(',"\r\n')] == []

    def test_out_and_format_flags_apply_together(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "configured.csv"), "format": "csv"}))
        out = tmp_path / "flagged.json"
        # --format wins over --set output.format= on either side of it.
        sets = ["--set", "output.format=csv"]
        for before, after in [([], []), (sets, []), ([], sets)]:
            out.unlink(missing_ok=True)
            assert main(["sweep", "--config", path, *before, "--out", str(out),
                         "--format", "json", *after]) == EXIT_OK
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
            "v_tot": 2.3768, "v_ele": 0.421, "eps_pe": 1e-5,
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
        ("finite_size.block_length=1" + "0" * 400, "finite_size.block_length"),
        ("system.v_rin=true", "system.v_rin"),
        ("pulse_rate_hz=true", "pulse_rate_hz"),
        ("finite_size.block_length=true", "finite_size.block_length"),
        ("variances=[true]", "variances[0]"),
    ])
    def test_validate_config_rejects_non_finite_numbers(self, tmp_path, capsys, override,
                                                        field):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE,
                                                  calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", override]) \
            == EXIT_CONFIG_ERROR
        assert f"{field} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("distances_km.start=-5", "distances_km.start must be nonnegative, got -5.0"),
        ("pulse_rate_hz=0", "pulse_rate_hz must be positive, got 0.0"),
        ("output.format=xml", "output.format must be one of ['csv', 'json'], got 'xml'"),
        ('models=["four_mode"]', "models[0] must be one of "
                                 "['conventional', 'two_mode', 'three_mode'], got 'four_mode'"),
        ('models=["two_mode", 5]', "models[1] must be one of "
                                   "['conventional', 'two_mode', 'three_mode'], got 5"),
        ("regime=x", "regime must be one of ['asymptotic', 'finite_size'], got 'x'"),
        ("finite_size.dim_hx=0", "raw-key alphabet dimension must be positive, got 0"),
        # --set creates the absent section, which then lacks its other keys.
        ("calibration.v_tot=1.0", "missing config field: calibration.v_ele"),
    ])
    def test_validate_config_names_the_bad_value(self, tmp_path, capsys, override, message):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE))
        assert main(["validate-config", "--config", path, "--set", override]) \
            == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize("override,message", [
        ("variances=[4, 4.0]", "variances[1] repeats an earlier value: 4.0"),
        ("miscalibration_deltas=[0.0, -0.0]",
         "miscalibration_deltas[1] repeats an earlier value: -0.0"),
        ("calibration.m_grid=[1e5, 100000]",
         "calibration.m_grid[1] repeats an earlier value: 100000"),
        ('models=["two_mode", "three_mode", "two_mode"]',
         "models[2] repeats an earlier value: 'two_mode'"),
    ], ids=["variances", "deltas", "m_grid", "models"])
    def test_a_repeated_list_value_is_refused(self, tmp_path, capsys, command, override,
                                              message):
        # Each repeat would write the same rows twice.
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, base_config(
            calibration=CALIBRATION, output={"path": str(out), "format": "csv"}))
        assert main([command, "--config", path, "--set", override]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_validate_config_rejects_too_few_calibration_samples(self, tmp_path, capsys):
        # Every SNU interval needs two samples, so the sweep would fail later.
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE))
        assert main(["validate-config", "--config", path, "--set", "regime=finite_size",
                     "--set", "finite_size.calib_samples_m=1"]) == EXIT_CONFIG_ERROR
        assert "calibration samples must lie in [2, N], got 1" in capsys.readouterr().err

    def test_validate_config_rejects_key_share_below_two(self, tmp_path, capsys):
        # The finite-size penalty needs n = key_fraction * N >= 2, so the sweep would fail later.
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE))
        assert main(["validate-config", "--config", path, "--set", "regime=finite_size",
                     "--set", "finite_size.block_length=3",
                     "--set", "finite_size.key_fraction=0.5",
                     "--set", "finite_size.calib_samples_m=2"]) == EXIT_CONFIG_ERROR
        assert "needs n >= 2, got 1.5" in capsys.readouterr().err

    # [0.5] is no count, so it fails before the dry run and names its field.
    # At eps_pe = 1e-5 the one-time deviation is 1 or more up to m = 39,
    # and the two-time one up to m = 79.
    @pytest.mark.parametrize("m_grid,message", [
        ("[1]", "need at least 2 samples"),
        ("[0.5]", "calibration.m_grid[0] must be an integer, got 0.5"),
        ("[2, 50]", "m = 2 is too few for eps_pe = 1e-05, so the one-time deviation"),
        ("[50]", "m = 50 is too few for eps_pe = 1e-05, so the two-time deviation"),
    ], ids=["[1]", "[0.5]", "[2, 50]", "[50]"])
    def test_validate_config_dry_runs_calibration(self, tmp_path, capsys, m_grid, message):
        path = write_config(tmp_path, base_config(calibration=CALIBRATION))
        assert main(["validate-config", "--config", path,
                     "--set", f"calibration.m_grid={m_grid}"]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field,kind", [
        ("output", "an object"),
        ("distances_km", "an object"),
        ("system", "an object"),
        ("finite_size", "an object"),
        ("calibration", "an object"),
        ("variances", "a list"),
        ("miscalibration_deltas", "a list"),
        ("calibration.m_grid", "a list"),
        ("output.path", "a string"),
    ])
    def test_validate_config_rejects_sections_and_lists_of_the_wrong_type(
            self, tmp_path, capsys, field, kind):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE,
                                                  calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", f"{field}=5"]) \
            == EXIT_CONFIG_ERROR
        assert f"{field} must be {kind}, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("key,section", [
        ("typo", "config"),
        ("distances_km.typo", "distances_km"),
        ("system.typo", "system"),
        ("finite_size.typo", "finite_size"),
        ("calibration.typo", "calibration"),
        ("output.typo", "output"),
    ])
    def test_validate_config_rejects_unknown_keys(self, tmp_path, capsys, key, section):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE,
                                                  calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", f"{key}=1"]) \
            == EXIT_CONFIG_ERROR
        assert f"unknown {section} fields: ['typo']" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["models", "variances", "miscalibration_deltas",
                                       "calibration.m_grid"])
    def test_validate_config_rejects_empty_lists(self, tmp_path, capsys, field):
        path = write_config(tmp_path, base_config(calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", f"{field}=[]"]) \
            == EXIT_CONFIG_ERROR
        assert f"{field} must be a non-empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "system.v_rin", "finite_size", "finite_size.dim_hx", "miscalibration_deltas",
        "pulse_rate_hz", "calibration", "output", "output.path", "output.format",
    ])
    def test_null_counts_as_absent(self, key):
        # The finite-size regime keeps finite_size.dim_hx in the config.
        raw = base_config(regime="asymptotic" if key == "finite_size" else "finite_size",
                          finite_size={**FINITE_SIZE, "dim_hx": 3},
                          calibration=CALIBRATION, miscalibration_deltas=[0.001],
                          pulse_rate_hz=5e6)
        raw["system"]["v_rin"] = 0.002
        *section, name = key.split(".")
        absent = json.loads(json.dumps(raw))
        del (absent[section[0]] if section else absent)[name]
        assert SweepConfig.from_dict(raw, [f"{key}=null"]) == SweepConfig.from_dict(absent)

    def test_overrides_leave_the_callers_dict_as_it_is(self):
        raw = base_config(finite_size=FINITE_SIZE)
        before = json.loads(json.dumps(raw))
        cfg = SweepConfig.from_dict(raw, ["system.eps_c=0.02", "regime=finite_size",
                                          "output.format=json", "pulse_rate_hz=5e6"])
        assert (cfg.system["eps_c"], cfg.output_format, cfg.pulse_rate_hz) == (0.02, "json", 5e6)
        assert raw == before
        assert SweepConfig.from_dict(raw).system["eps_c"] == 0.01

    def test_absent_optional_keys_take_their_defaults(self):
        raw = base_config(finite_size=FINITE_SIZE)
        del raw["output"]
        cfg = SweepConfig.from_dict(raw)
        assert (cfg.miscalibration_deltas, cfg.pulse_rate_hz, cfg.calibration,
                cfg.output_path, cfg.output_format) == ((0.0,), None, None, None, "csv")
        assert SystemParams(v=4.0, t=1.0, **cfg.system).v_rin == 0.0
        assert SweepConfig.from_dict(raw, ["regime=finite_size"]).finite_size.dim_hx == 2
        with pytest.raises(ConfigError, match="^missing config field: system.beta$"):
            SweepConfig.from_dict(raw, ["system.beta=null"])

    def test_set_on_a_config_that_is_no_object(self, tmp_path, capsys):
        path = write_config(tmp_path, [base_config()])
        assert main(["validate-config", "--config", path, "--set", "variances=[4]"]) \
            == EXIT_CONFIG_ERROR
        assert "config root must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("override,field,integral", [
        ("finite_size.block_length=9999999999.5", "finite_size.block_length",
         "finite_size.block_length=1e10"),
        ("finite_size.calib_samples_m=5.7", "finite_size.calib_samples_m",
         "finite_size.calib_samples_m=5e9"),
        ("finite_size.dim_hx=2.5", "finite_size.dim_hx", "finite_size.dim_hx=2.0"),
        ("calibration.m_grid=[100000.5]", "calibration.m_grid[0]", "calibration.m_grid=[1e5]"),
    ])
    def test_validate_config_counts_must_be_integral(self, tmp_path, capsys, override, field,
                                                     integral):
        path = write_config(tmp_path, base_config(finite_size=FINITE_SIZE,
                                                  calibration=CALIBRATION))
        assert main(["validate-config", "--config", path, "--set", override]) \
            == EXIT_CONFIG_ERROR
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert main(["validate-config", "--config", path, "--set", integral]) == EXIT_OK

    @pytest.mark.parametrize("command", ["sweep", "ten", "calib"])
    def test_no_output_path(self, tmp_path, capsys, command):
        raw = base_config(calibration=CALIBRATION)
        del raw["output"]
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG_ERROR
        assert "no output path" in capsys.readouterr().err

    # --format is checked by the key table, as output.format is, not by argparse.
    @pytest.mark.parametrize("command", ["sweep", "ten", "calib"])
    @pytest.mark.parametrize("value", ["xml", ""], ids=["xml", "empty"])
    def test_format_flag_is_refused_as_output_format_is(self, tmp_path, capsys, command,
                                                        value):
        path = write_config(tmp_path, base_config(calibration=CALIBRATION))
        out = tmp_path / "x.out"
        for flag in (["--format", value], ["--set", f"output.format={value}"]):
            assert main([command, "--config", path, "--out", str(out), *flag]) \
                == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == (
                f"config error: output.format must be one of ['csv', 'json'], got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["null", '"csv"'])
    def test_format_flag_takes_its_value_as_a_name(self, tmp_path, capsys, value):
        # Unlike --set output.format=null, which is the default csv.
        path = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.out"),
                     "--format", value]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.endswith(f"got {value!r}\n")

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) \
            == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_config_that_is_not_utf8_names_its_file(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff" + json.dumps(base_config()).encode())
        assert main([command, "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: config {path} is not UTF-8 text: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n")

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "no-such-dir" / "x.csv"),
                    "format": "csv"}))
        assert main(["sweep", "--config", path]) == EXIT_RUNTIME_ERROR

    @pytest.mark.parametrize("command", ["sweep", "ten"])
    def test_degenerate_snu_interval_fails_before_any_row(self, tmp_path, capsys, command):
        # 50 calibration samples cannot bound the SNU at eps_pe 1e-10.
        path = write_config(tmp_path, base_config(
            regime="finite_size", finite_size={**FINITE_SIZE, "calib_samples_m": 50}))
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: degenerate SNU interval: calib_samples_m = 50 is too few for "
            "eps_pe = 1e-10, so the interval's lower bound crosses zero\n")
        assert not (tmp_path / "x.csv").exists()

    # A rate of some bits per pulse times 1e308 pulses/s overflows
    # rate_bits_per_s, which no config check evaluates. The error line alone
    # reaches stderr: numpy's overflow warning on the way to it would fail
    # this case. A distance past I_AB's overflow is a config error.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,overrides,message", [
        ("sweep", ["pulse_rate_hz=1e308", "variances=[1e4]"],
         "model=conventional V=10000.0 km=0.0 delta=0.0: "
         "NumericalError: non-finite rate_bits_per_s"),
    ], ids=["sweep-rate_bits_per_s"])
    def test_non_finite_rate_is_a_runtime_error(self, tmp_path, capsys, command, overrides,
                                                message):
        out = tmp_path / "x.csv"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main([command, "--config", str(GOLDEN_CONFIG), "--out", str(out), *sets]) \
            == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == f"runtime error: {message}\n"
        assert not out.exists()

    # Configs that fail on the config alone: the overrides of base_config and
    # the message of the library check that refuses them.
    DEGENERATE = ("degenerate SNU interval: calib_samples_m = {} is too few for "
                  "eps_pe = 1e-10, so the interval's lower bound crosses zero")
    CONFIG_ONLY = {
        "m_50_all_models": (
            {"regime": "finite_size", "finite_size": {**FINITE_SIZE, "calib_samples_m": 50}},
            DEGENERATE.format(50)),
        # Only the wider two-step interval crosses zero at m = 84.
        "m_84_conventional": (
            {"regime": "finite_size", "models": ["conventional"],
             "finite_size": {**FINITE_SIZE, "calib_samples_m": 84}},
            DEGENERATE.format(84)),
        "eta_d_1_conventional": (
            {"models": ["conventional"],
             "system": {**base_config()["system"], "eta_d": 1.0}},
            "eta_d = 1 with nonzero electronic noise needs an infinite detector EPR "
            "variance; use eta_d < 1 or v_ele = 0"),
        "delta_minus_1": (
            {"miscalibration_deltas": [0.0, -1.0]},
            "miscalibration delta -1.0 leaves no signal"),
        # 10^(-0.2 km / 10) underflows to 0 from about 16180 km.
        "stop_without_transmittance": (
            {"distances_km": {"start": 0.0, "stop": 20000.0, "step": 10.0}},
            "distances_km point 20000.0 has a transmittance of 0"),
        # t = 4.9e-324 at 16170 km; a tenth of it underflows to 0.
        "delta_underflows_the_farthest_transmittance": (
            {"miscalibration_deltas": [0.0, -0.9],
             "distances_km": {"start": 16100.0, "stop": 16170.0, "step": 10.0}},
            "miscalibration delta -0.9 leaves no signal"),
        # delta / t overflows the apparent excess noise at 16100 km.
        "delta_overflows_the_farthest_excess_noise": (
            {"miscalibration_deltas": [0.0, 0.003],
             "distances_km": {"start": 16100.0, "stop": 16100.0, "step": 10.0}},
            "miscalibration delta 0.003 overflows the excess noise"),
        # 1.001 * 0.4 * t underflows to 0 at 16180 km, so the apparent excess
        # noise divides by zero.
        "delta_divides_the_farthest_excess_noise_by_zero": (
            {"miscalibration_deltas": [0.0, 0.001],
             "system": {**base_config()["system"], "eta_d": 0.4},
             "distances_km": {"start": 16160.0, "stop": 16180.0, "step": 1.0}},
            "miscalibration delta 0.001 overflows the excess noise"),
        # The point count overflows before any list of points is built.
        "point_count_overflows": (
            {"distances_km": {"start": 0.0, "stop": 1e10, "step": 1e-300}},
            "distances_km has too many points: (10000000000.0 - 0.0) / 1e-300 overflows"),
        # 1/(t eta_d eta_e) overflows in I_AB from about 15401 km.
        "stop_past_the_i_ab_overflow": (
            {"distances_km": {"start": 15500.0, "stop": 15500.0, "step": 10.0}},
            "distances_km point 15500.0 gives a non-finite I_AB"),
        # The closed-form key rate overflows from about 7696 km for two_mode
        # and 7707 km for the others; the first that overflows in sorted
        # order is named, whatever the config's order.
        "stop_past_the_closed_form_overflow": (
            {"distances_km": {"start": 7600.0, "stop": 7800.0, "step": 100.0}},
            "distances_km point 7800.0 gives a non-finite conventional key rate"),
        "stop_past_the_closed_form_overflow_models_reversed": (
            {"models": ["two_mode", "three_mode", "conventional"],
             "distances_km": {"start": 7600.0, "stop": 7800.0, "step": 100.0}},
            "distances_km point 7800.0 gives a non-finite conventional key rate"),
        "stop_past_the_two_mode_overflow": (
            {"distances_km": {"start": 7600.0, "stop": 7700.0, "step": 100.0}},
            "distances_km point 7700.0 gives a non-finite two_mode key rate"),
        # Only the grid's last point is judged, not a stop that lies past it:
        # the last point is 15000 km, below the I_AB overflow ...
        "stop_past_the_i_ab_overflow_off_grid": (
            {"distances_km": {"start": 13000.0, "stop": 15450.0, "step": 1000.0}},
            "distances_km point 15000.0 gives a non-finite conventional key rate"),
        # ... and 15200 km, though the stop's transmittance underflows to 0.
        "stop_without_transmittance_off_grid": (
            {"distances_km": {"start": 13000.0, "stop": 16200.0, "step": 1100.0}},
            "distances_km point 15200.0 gives a non-finite conventional key rate"),
        "finite_size_stop_past_the_closed_form_overflow": (
            {"regime": "finite_size", "finite_size": FINITE_SIZE,
             "distances_km": {"start": 7600.0, "stop": 7800.0, "step": 100.0}},
            "distances_km point 7800.0 gives a non-finite conventional key rate"),
        # Every delta meets every variance, whatever their order.
        "delta_overflows_the_excess_noise_of_the_first_variance": (
            {"variances": [1.7e308, 4.0], "miscalibration_deltas": [0.9],
             "distances_km": {"start": 0.0, "stop": 0.0, "step": 10.0}},
            "miscalibration delta 0.9 overflows the excess noise"),
    }

    # The error line alone reaches stderr, with no numpy warning before it,
    # and sweep and ten give it as validate-config does.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides, message", CONFIG_ONLY.values(), ids=CONFIG_ONLY)
    def test_validate_config_and_sweep_agree_on_config_only_failures(
            self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, base_config(**overrides))
        out = tmp_path / "x.csv"
        assert main(["validate-config", "--config", path]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        for command in ("sweep", "ten"):
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"regime": "finite_size", "models": ["two_mode", "three_mode"],
         "finite_size": {**FINITE_SIZE, "calib_samples_m": 84}},
        # The asymptotic regime takes no SNU interval.
        {"finite_size": {**FINITE_SIZE, "calib_samples_m": 50}},
        {"models": ["two_mode", "three_mode"],
         "system": {**base_config()["system"], "eta_d": 1.0}},
        {"models": ["conventional"],
         "system": {**base_config()["system"], "eta_d": 1.0, "v_ele": 0.0}},
        # The last point lies below the closed form's overflow, in each regime.
        # 7500 km is no point here: at V = 4 conventional's chi_BE rounds to
        # -6.2e-15 there for any eps_c, so ten's rate stays positive up to
        # the cap, a runtime error.
        {"distances_km": {"start": 7400.0, "stop": 7600.0, "step": 200.0}},
        {"regime": "finite_size", "finite_size": FINITE_SIZE,
         "distances_km": {"start": 7400.0, "stop": 7600.0, "step": 200.0}},
    ], ids=["m_84_one_time", "m_50_asymptotic", "eta_d_1_one_time", "eta_d_1_noiseless",
            "stop_below_the_closed_form_overflow", "finite_size_stop_below_the_overflow"])
    def test_validate_config_sweep_and_ten_accept_what_the_models_evaluate(
            self, tmp_path, overrides):
        raw = base_config(**overrides)
        path = write_config(tmp_path, raw)
        out = tmp_path / "x.csv"
        assert main(["validate-config", "--config", path]) == EXIT_OK
        for command in ("sweep", "ten"):
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
            assert len(read_csv(out)) == len(raw["models"]) * len(
                SweepConfig.from_dict(raw).distances_km.points())


class TestUsage:
    # Each is argparse's usage error, exit 2 with its usage line, before any config is read.
    @pytest.mark.parametrize("args", [
        ["sweep", "--out", "x.csv"],
        ["sweeps", "--config", "{config}", "--out", "x.csv"],
        ["sweep", "--config", "{config}", "--out", "x.csv", "--jobs", "2"],
        ["validate-config", "--config", "{config}", "--out", "x.csv"],
        ["validate-config", "--config", "{config}", "--format", "json"],
    ], ids=["no_config", "unknown_command", "unknown_flag", "validate_config_out",
            "validate_config_format"])
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                    args):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "configured.csv"), "format": "csv"}))
        with pytest.raises(SystemExit) as exc:
            main([a.format(config=path) for a in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cvqkd-calib ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_help_exits_0_and_describes_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for name, (help_text, _, _) in cli._COMMANDS.items():
            assert f"{name} {help_text}" in out

    def test_calls_in_one_process_do_not_leak_into_each_other(self, tmp_path):
        path = write_config(tmp_path, base_config(
            output={"path": str(tmp_path / "configured.csv"), "format": "csv"}))
        outs = [tmp_path / f"{i}.csv" for i in range(3)]
        assert main(["sweep", "--config", path, "--out", str(outs[0])]) == EXIT_OK
        assert main(["sweep", "--config", path, "--out", str(outs[1]),
                     "--set", "variances=[5.0]", "--format", "json"]) == EXIT_OK
        assert main(["sweep", "--config", path, "--out", str(outs[2])]) == EXIT_OK
        assert outs[1].read_bytes() != outs[0].read_bytes()
        assert outs[2].read_bytes() == outs[0].read_bytes()

    def test_options_may_come_before_the_command(self, tmp_path):
        path = write_config(tmp_path, base_config(calibration=CALIBRATION))
        for command in ("sweep", "ten", "calib"):
            after, before = tmp_path / f"{command}_after.json", tmp_path / f"{command}.json"
            assert main([command, "--config", path, "--out", str(after), "--set",
                         "variances=[5.0]", "--format", "json"]) == EXIT_OK
            assert main(["--config", path, "--set", "variances=[5.0]", "--out", str(before),
                         command, "--format", "json"]) == EXIT_OK
            assert before.read_bytes() == after.read_bytes()


README =Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, language: str) -> str:
    """The first fenced code block of that language after the heading in README.md."""
    text = README.read_text()
    start = text.index(heading)
    return re.search(rf"```{language}\n(.*?)```", text[start:], re.S).group(1)


def test_readme_example_config_is_valid(tmp_path):
    path = tmp_path / "readme.json"
    path.write_text(_readme_block("Example config:", "json"))
    assert main(["validate-config", "--config", str(path)]) == EXIT_OK


def test_readme_defaults_table_lists_the_optional_keys():
    text = README.read_text()
    table = text[text.index("| key | default |"):].split("\n\n")[0]
    assert re.findall(r"^\| `([\w.]+)` \|", table, re.M) == list(cli._OPTIONAL)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "examples.json").write_text(_readme_block("Example config:", "json"))
    monkeypatch.chdir(tmp_path)
    for line in _readme_block("## CLI", "sh").splitlines():
        prog, *args = shlex.split(line, comments=True)
        assert prog == "cvqkd-calib"
        assert main(args) == EXIT_OK, (line, capsys.readouterr().err)
    written = sorted(p for p in tmp_path.iterdir() if p.name != "examples.json")
    assert written
    for path in written:
        # Each file holds the format its extension names, with a command's columns.
        if path.suffix == ".json":
            headers = {tuple(row) for row in json.loads(path.read_text())}
        else:
            assert path.suffix == ".csv"
            headers = {tuple(read_csv(path)[0])}
        assert headers in [{tuple(c)} for c in (SWEEP_COLUMNS, TEN_COLUMNS, CALIB_COLUMNS)]


def test_readme_library_example_runs():
    exec(compile(_readme_block("## Library", "python"), "README.md", "exec"), {})


def test_package_exports_only_the_documented_api():
    assert sorted(cvqkd_calib.__all__) == [
        "CalibrationEstimate", "CalibrationModel", "FiniteSizeParams", "KeyRateResult",
        "NoiseGroundTruth", "NumericalError", "SystemParams", "apply_miscalibration",
        "confidence_interval", "deviation_curve", "holevo_bound", "key_rate",
        "transmittance_from_km",
    ]


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this package's source on its path."""
    src = Path(cvqkd_calib.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, **kwargs)


def test_cli_import_does_not_load_scipy():
    # scipy costs about 0.3 s of start-up on every CLI run; tests may use it.
    code = ("import sys, cvqkd_calib.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = run_python("-c", code, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("args, status", [
    (["validate-config"], EXIT_OK),
    (["validate-config", "--set", "regime=finite_size",
      "--set", "finite_size.calib_samples_m=50"], EXIT_CONFIG_ERROR),
    (["sweep", "--set", "pulse_rate_hz=1e308", "--set", "variances=[1e4]"],
     EXIT_RUNTIME_ERROR),
], ids=["ok", "config_error", "runtime_error"])
def test_process_exits_with_the_status_main_returns(tmp_path, args, status):
    # Only cli.entrypoint turns main's return value into the process status.
    # The sweep would write the config's relative output.path into tmp_path.
    out = run_python("-m", "cvqkd_calib.cli", *args, "--config", str(GOLDEN_CONFIG),
                     cwd=tmp_path)
    assert out.returncode == status
    assert len(out.stderr.splitlines()) == (0 if status == EXIT_OK else 1)
    assert list(tmp_path.iterdir()) == []
