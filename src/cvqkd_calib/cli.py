"""Command-line front end: parameter sweeps over models, distances and
regimes, tolerable-excess-noise scans, and calibration-statistics reports,
emitted as CSV or JSON.

Configs are JSON files (key-value with nested sections); any entry can be
overridden on the command line with --set dotted.key=value. Output files
are byte-deterministic for a given config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .calibration import (
    CalibrationEstimate,
    NoiseGroundTruth,
    confidence_interval_ote,
    confidence_interval_tte,
    deviation_curve,
)
from .keyrate import (
    FiniteSizeParams,
    KeyRateResult,
    Regime,
    key_rate_asymptotic,
    key_rate_finite,
)
from .models import (
    CalibrationModel,
    SnuScenario,
    SystemParams,
    transmittance_from_km,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2

SWEEP_COLUMNS = [
    "model", "regime", "V", "distance_km", "transmittance", "eps_c", "eta_d",
    "v_ele", "delta", "n0_worst", "i_ab", "chi_be", "delta_n",
    "rate_bits_per_pulse", "rate_bits_per_s", "rate_clamped",
]
TEN_COLUMNS = [
    "model", "regime", "V", "distance_km", "transmittance", "eta_d", "v_ele",
    "ten",
]
CALIB_COLUMNS = ["m", "snu_norm_ote", "snu_norm_tte", "dev_ote", "dev_tte"]

TEN_TOLERANCE = 1e-4
TEN_MAX_ITER = 60
_TEN_BRACKET_CAP = 1024.0


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 1."""


@dataclass(frozen=True)
class DistanceGrid:
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ConfigError(f"distances_km.step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ConfigError(
                f"distances_km.stop ({self.stop}) must be >= start ({self.start})"
            )
        if self.start < 0.0:
            raise ConfigError(f"distances_km.start must be nonnegative, got {self.start}")

    def points(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


@dataclass(frozen=True)
class CalibrationConfig:
    truth: NoiseGroundTruth
    eps_pe: float
    m_grid: tuple[int, ...]


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep run."""

    models: tuple[CalibrationModel, ...]
    regime: Regime
    distances_km: DistanceGrid
    variances: tuple[float, ...]
    system: dict[str, float]
    output_path: Optional[str]
    output_format: str
    finite_size: Optional[FiniteSizeParams] = None
    miscalibration_deltas: tuple[float, ...] = (0.0,)
    pulse_rate_hz: Optional[float] = None
    calibration: Optional[CalibrationConfig] = None

    @staticmethod
    def from_dict(raw: dict) -> "SweepConfig":
        return _config_from_dict(raw)


def _need(raw: dict, key: str, section: str = "", kind: Optional[type] = None) -> Any:
    where = f"{section}.{key}" if section else key
    if key not in raw:
        raise ConfigError(f"missing config field: {where}")
    return raw[key] if kind is None else _finite(raw[key], where, kind)


def _finite(value: Any, field: str, kind: type = float) -> Any:
    """kind(value), or a ConfigError naming the field if that is no finite number;
    checked after conversion, as --set passes non-JSON such as nan on as a string."""
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except (OverflowError, TypeError, ValueError):
        pass
    raise ConfigError(f"{field} must be a finite number, got {value!r}")


def _config_from_dict(raw: dict) -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        model_names = _need(raw, "models")
        if not isinstance(model_names, list) or not model_names:
            raise ConfigError("models must be a non-empty list")
        try:
            models = tuple(CalibrationModel(m) for m in model_names)
        except ValueError as exc:
            valid = ", ".join(m.value for m in CalibrationModel)
            raise ConfigError(f"unknown model in {model_names}; valid: {valid}") from exc
        try:
            regime = Regime(_need(raw, "regime"))
        except ValueError as exc:
            raise ConfigError(
                f"regime must be one of {[r.value for r in Regime]}"
            ) from exc
        d = _need(raw, "distances_km")
        grid = DistanceGrid(
            start=_need(d, "start", "distances_km", float),
            stop=_need(d, "stop", "distances_km", float),
            step=_need(d, "step", "distances_km", float),
        )
        variances = tuple(_finite(v, f"variances[{i}]")
                          for i, v in enumerate(_need(raw, "variances")))
        if not variances:
            raise ConfigError("variances must be a non-empty list")
        system_raw = dict(_need(raw, "system"))
        allowed = {"eps_c", "eta_d", "v_ele", "beta", "v_rin"}
        unknown = set(system_raw) - allowed
        if unknown:
            raise ConfigError(f"unknown system fields: {sorted(unknown)}")
        system = {k: _finite(v, f"system.{k}") for k, v in system_raw.items()}
        for req in ("eps_c", "eta_d", "v_ele", "beta"):
            if req not in system:
                raise ConfigError(f"missing config field: system.{req}")
        fs = None
        if raw.get("finite_size") is not None:
            f = raw["finite_size"]
            fs = FiniteSizeParams(
                block_length=_need(f, "block_length", "finite_size", int),
                key_fraction=_need(f, "key_fraction", "finite_size", float),
                eps_pe=_need(f, "eps_pe", "finite_size", float),
                eps_pa=_need(f, "eps_pa", "finite_size", float),
                eps_smooth=_need(f, "eps_smooth", "finite_size", float),
                calib_samples_m=_need(f, "calib_samples_m", "finite_size", int),
                dim_hx=_finite(f.get("dim_hx", 2), "finite_size.dim_hx", int),
            )
        if regime is Regime.FINITE_SIZE and fs is None:
            raise ConfigError("finite_size section is required for the finite_size regime")
        deltas = tuple(_finite(x, f"miscalibration_deltas[{i}]")
                       for i, x in enumerate(raw.get("miscalibration_deltas", [0.0])))
        if not deltas:
            deltas = (0.0,)
        for delta in deltas:
            if 1.0 + delta <= 0.0:
                raise ConfigError(f"miscalibration delta {delta} leaves no signal")
        pulse = raw.get("pulse_rate_hz")
        if pulse is not None:
            pulse = _finite(pulse, "pulse_rate_hz")
            if pulse <= 0.0:
                raise ConfigError(f"pulse_rate_hz must be positive, got {pulse}")
        calib = None
        if raw.get("calibration") is not None:
            c = raw["calibration"]
            calib = CalibrationConfig(
                truth=NoiseGroundTruth(v_tot=_need(c, "v_tot", "calibration", float),
                                       v_ele=_need(c, "v_ele", "calibration", float)),
                eps_pe=_need(c, "eps_pe", "calibration", float),
                m_grid=tuple(_finite(m, f"calibration.m_grid[{i}]", int)
                             for i, m in enumerate(_need(c, "m_grid", "calibration"))),
            )
        output = raw.get("output", {})
        out_path = output.get("path")
        out_format = output.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {out_format}")
        cfg = SweepConfig(
            models=models,
            regime=regime,
            distances_km=grid,
            variances=variances,
            system=system,
            output_path=out_path,
            output_format=out_format,
            finite_size=fs,
            miscalibration_deltas=deltas,
            pulse_rate_hz=pulse,
            calibration=calib,
        )
        # Dry run: build what the commands build, so bad values fail before any row.
        for v in variances:
            SystemParams(v=v, t=1.0, **system)
        if calib is not None:
            calibration_rows(cfg)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str, overrides: Sequence[str] = ()) -> SweepConfig:
    """Read a JSON config file and apply --set overrides."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    for item in overrides:
        _apply_override(raw, item)
    return SweepConfig.from_dict(raw)


def _apply_override(raw: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, _, value = item.partition("=")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = parsed


# ---------------------------------------------------------------------------
# row evaluation

def _calibration_estimate(config: SweepConfig,
                          model: CalibrationModel) -> Optional[CalibrationEstimate]:
    """SNU confidence interval for the finite-size scan, in true-SNU units;
    None in the asymptotic regime, which assumes a perfectly known SNU.

    The one-time unit is the full LO-on variance 1 + v_ele + v_rin; the
    two-time unit subtracts a separately measured v_ele (the LO-off
    measurement sees no RIN), so its interval carries both fluctuations.
    """
    if config.regime is Regime.ASYMPTOTIC:
        return None
    system, fs = config.system, config.finite_size
    v_ele = system["v_ele"]
    v_tot = 1.0 + v_ele + system.get("v_rin", 0.0)
    if model is CalibrationModel.CONVENTIONAL_TTE:
        return confidence_interval_tte(v_tot, v_ele, fs.calib_samples_m,
                                       fs.calib_samples_m, fs.eps_pe)
    return confidence_interval_ote(v_tot, fs.calib_samples_m, fs.eps_pe)


def _rate(config: SweepConfig, params: SystemParams, scenario: SnuScenario,
          calib: Optional[CalibrationEstimate]) -> KeyRateResult:
    """Key rate in the config's regime, given _calibration_estimate's interval."""
    if calib is None:
        return key_rate_asymptotic(params, scenario)
    return key_rate_finite(params, scenario, config.finite_size, calib)


def _row_failure(exc: Exception, model: CalibrationModel, v: float, dist: float,
                 delta: float) -> RuntimeError:
    """The error of one grid point, re-raised with the point named."""
    return RuntimeError(
        f"model={model.value} V={v!r} km={dist!r} delta={delta!r}: "
        f"{type(exc).__name__}: {exc}"
    )


def _sweep_row(config: SweepConfig, model: CalibrationModel, v: float, dist: float,
               delta: float) -> dict:
    system = config.system
    try:
        params = SystemParams(v=v, t=transmittance_from_km(dist), **system)
        res = _rate(config, params, SnuScenario(model=model, calib_error=delta),
                    _calibration_estimate(config, model))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        raise _row_failure(exc, model, v, dist, delta) from exc
    rate = res.rate_bits_per_pulse
    pulse_rate = config.pulse_rate_hz
    return {
        "model": model.value,
        "regime": config.regime.value,
        "V": v,
        "distance_km": dist,
        "transmittance": params.t,
        "eps_c": system["eps_c"],
        "eta_d": system["eta_d"],
        "v_ele": system["v_ele"],
        "delta": delta,
        "n0_worst": res.worst_n0,
        "i_ab": res.i_ab,
        "chi_be": res.chi_be,
        "delta_n": res.delta_n,
        "rate_bits_per_pulse": rate,
        "rate_bits_per_s": None if pulse_rate is None else rate * pulse_rate,
        "rate_clamped": max(rate, 0.0),
    }


def _ten_row(config: SweepConfig, model: CalibrationModel, v: float, dist: float) -> dict:
    system = config.system
    try:
        t = transmittance_from_km(dist)
        scenario = SnuScenario(model=model)
        calib = _calibration_estimate(config, model)

        def rate_at(eps_c: float) -> float:
            params = SystemParams(v=v, t=t, **{**system, "eps_c": eps_c})
            return _rate(config, params, scenario, calib).rate_bits_per_pulse

        ten = _bisect_tolerable_noise(rate_at)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        raise _row_failure(exc, model, v, dist, 0.0) from exc
    return {
        "model": model.value,
        "regime": config.regime.value,
        "V": v,
        "distance_km": dist,
        "transmittance": t,
        "eta_d": system["eta_d"],
        "v_ele": system["v_ele"],
        "ten": ten,
    }


def _bisect_tolerable_noise(rate_at) -> float:
    """Largest excess noise with positive rate, to TEN_TOLERANCE, by bisection."""
    if rate_at(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while rate_at(hi) > 0.0:
        hi *= 2.0
        if hi > _TEN_BRACKET_CAP:
            raise RuntimeError("rate stayed positive up to the excess-noise cap")
    for _ in range(TEN_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= TEN_TOLERANCE:
            break
    return 0.5 * (lo + hi)


def _grid(config: SweepConfig) -> list[tuple[CalibrationModel, float, float]]:
    """Every (model, V, distance) point, sorted in that order."""
    return [(model, v, dist)
            for model in sorted(config.models, key=lambda m: m.value)
            for v in sorted(config.variances)
            for dist in config.distances_km.points()]


def sweep_rows(config: SweepConfig) -> list[dict]:
    """Key-rate rows for every _grid point and sorted delta, in that order."""
    return [_sweep_row(config, model, v, dist, delta)
            for model, v, dist in _grid(config)
            for delta in sorted(config.miscalibration_deltas)]


def ten_rows(config: SweepConfig) -> list[dict]:
    """Tolerable-excess-noise rows for every _grid point."""
    return [_ten_row(config, model, v, dist) for model, v, dist in _grid(config)]


def calibration_rows(config: SweepConfig) -> list[dict]:
    if config.calibration is None:
        raise ConfigError("calibration section is required for the calib command")
    c = config.calibration
    return deviation_curve(c.truth, c.m_grid, c.eps_pe)


# ---------------------------------------------------------------------------
# output

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(rows: list[dict], columns: list[str], path: str, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
    elif fmt == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt}")


# ---------------------------------------------------------------------------
# entry point

# command -> (help text, row builder, output columns); validate-config builds none.
_COMMANDS = {
    "sweep": ("Key rate vs distance for the configured models.", sweep_rows, SWEEP_COLUMNS),
    "ten": ("Tolerable excess noise vs distance (bisection on eps_c).", ten_rows,
            TEN_COLUMNS),
    "calib": ("Calibration deviation curves vs block length.", calibration_rows,
              CALIB_COLUMNS),
    "validate-config": ("Parse and validate a config, then exit.", None, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkd-calib",
        description="Key-rate sweeps and calibration statistics for CV-QKD "
                    "shot-noise-unit calibration models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, build_rows, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry (dotted keys)")
        if build_rows is not None:
            p.add_argument("--out", help="output file path (overrides output.path)")
            p.add_argument("--format", choices=["csv", "json"],
                           help="output format (overrides output.format)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _, build_rows, columns = _COMMANDS[args.command]
    try:
        config = load_config(args.config, args.overrides)
        if build_rows is None:
            print("configuration valid")
            return EXIT_OK
        path = config.output_path if args.out is None else args.out
        if path is None:
            raise ConfigError("no output path: set output.path in the config or pass --out")
        fmt = config.output_format if args.format is None else args.format
        write_rows(build_rows(config), columns, path, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (OSError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    print(f"wrote {path}")
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
