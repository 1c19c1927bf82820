"""Command-line front end: parameter sweeps over models, distances and
regimes, tolerable-excess-noise scans, and calibration-statistics reports,
emitted as CSV or JSON.

Configs are JSON files (key-value with nested sections); any entry can be
overridden on the command line with --set dotted.key=value. Output files
are byte-deterministic for a given config.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .calibration import NoiseGroundTruth, deviation_curve
from .gaussian import NumericalError
from .keyrate import (FiniteSizeParams, KeyRateResult, closed_form_model, closed_form_rate,
                      key_rate, mutual_information, tolerable_excess_noise)
from .models import (CalibrationModel, SystemParams, apply_miscalibration,
                     detector_epr_variance, transmittance_from_km)

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


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 1."""


# The config value types that _typed passes through as given, with their JSON names.
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}

# Every config key by section, "config" being the root, with the kind _typed
# checks: a tuple holds the allowed values, [kind] is a non-empty list of
# distinct values of that kind, and a dict is the section of that name.
_KEYS = {
    "config": {"models": [tuple(m.value for m in CalibrationModel)],
               "regime": ("asymptotic", "finite_size"), "distances_km": dict,
               "variances": [float], "system": dict, "finite_size": dict,
               "miscalibration_deltas": [float], "pulse_rate_hz": float,
               "calibration": dict, "output": dict},
    "distances_km": {"start": float, "stop": float, "step": float},
    "system": {"eps_c": float, "eta_d": float, "v_ele": float, "beta": float,
               "v_rin": float},
    "finite_size": {"block_length": int, "key_fraction": float, "eps_pe": float,
                    "eps_pa": float, "eps_smooth": float, "calib_samples_m": int,
                    "dim_hx": int},
    "calibration": {"v_tot": float, "v_ele": float, "eps_pe": float, "m_grid": [int]},
    "output": {"path": str, "format": ("csv", "json")},
}

# The most points a distance grid may have; sweep and ten build them all.
_MAX_POINTS = 10 ** 6

# The optional keys, with the value an absent or null one takes. None leaves
# the key out, so a dataclass default applies or the reader finds it unset.
_OPTIONAL = {
    "system.v_rin": None, "finite_size": None, "finite_size.dim_hx": None,
    "miscalibration_deltas": [0.0], "pulse_rate_hz": None, "calibration": None,
    "output": {}, "output.path": None, "output.format": "csv",
}


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
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigError(f"distances_km has too many points: ({self.stop} - {self.start})"
                              f" / {self.step} overflows")
        if self.count > _MAX_POINTS:
            raise ConfigError(f"distances_km has too many points: {self.count}, more than"
                              f" {_MAX_POINTS}")

    @property
    def count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def points(self, first: int = 0) -> list[float]:
        return [self.start + i * self.step for i in range(self.count)[first:]]


@dataclass(frozen=True)
class CalibrationConfig(NoiseGroundTruth):
    """The true noise variances of the calib report, with its failure
    probability and block lengths."""

    eps_pe: float
    m_grid: tuple[int, ...]


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep run.

    models are sorted by value, the order of every command's rows and
    errors. finite_size is None exactly in the asymptotic regime, even
    when the config carries a (validated) finite_size section.
    """

    models: tuple[CalibrationModel, ...]
    distances_km: DistanceGrid
    variances: tuple[float, ...]
    system: dict[str, float]
    output_path: Optional[str]
    output_format: str
    finite_size: Optional[FiniteSizeParams]
    miscalibration_deltas: tuple[float, ...]
    pulse_rate_hz: Optional[float]
    calibration: Optional[CalibrationConfig]

    @classmethod
    def from_dict(cls, raw: dict, overrides: Sequence[str] = ()) -> "SweepConfig":
        """The config in raw, after the --set overrides are applied to a copy
        of it; raw itself is left as it is."""
        _typed(raw, "config root", dict)
        raw = copy.deepcopy(raw)
        for item in overrides:
            _apply_override(raw, item)
        try:
            top = _section(raw, "config")
            fs = FiniteSizeParams(**top["finite_size"]) if "finite_size" in top else None
            if top["regime"] == "finite_size" and fs is None:
                raise ConfigError("finite_size section is required for the finite_size regime")
            pulse = top.get("pulse_rate_hz")
            if pulse is not None and pulse <= 0.0:
                raise ConfigError(f"pulse_rate_hz must be positive, got {pulse}")
            cfg = cls(
                models=tuple(sorted(map(CalibrationModel, top["models"]),
                                    key=lambda m: m.value)),
                distances_km=DistanceGrid(**top["distances_km"]),
                variances=top["variances"],
                system=top["system"],
                output_path=top["output"].get("path"),
                output_format=top["output"]["format"],
                finite_size=fs if top["regime"] == "finite_size" else None,
                miscalibration_deltas=top["miscalibration_deltas"],
                pulse_rate_hz=pulse,
                calibration=(CalibrationConfig(**top["calibration"])
                             if "calibration" in top else None),
            )
            # Dry run: the library's checks that depend on the config alone, before any
            # row, at the grid's last point, its smallest transmittance. Each variance
            # is built alone to name a bad one, and each delta applied alone. Then
            # every (model, delta, variance), as one row in that order, gives I_AB and
            # the model's closed-form key rate, which overflows far enough out.
            (km,) = cfg.distances_km.points(-1)
            t = transmittance_from_km(km)
            if t == 0.0:
                raise ConfigError(f"distances_km point {km} has a transmittance of 0")
            for v in cfg.variances:
                SystemParams(v=v, t=t, **cfg.system)
            params = SystemParams(v=np.array(cfg.variances), t=t, **cfg.system)
            k = len(cfg.models)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                eff = [apply_miscalibration(params, d) for d in cfg.miscalibration_deltas]
                eff = replace(params, **{f: np.tile(np.concatenate([
                    np.broadcast_to(getattr(e, f), params.v.shape) for e in eff]), k)
                    for f in ("v", "t", "eps_c")})
                if not np.isfinite(mutual_information(eff)).all():
                    raise ConfigError(f"distances_km point {km} gives a non-finite I_AB")
            if CalibrationModel.CONVENTIONAL_TTE in cfg.models:
                detector_epr_variance(params)
            cf = [closed_form_model(params, m, cfg.finite_size) for m in cfg.models]
            rate, _ = closed_form_rate(eff, np.repeat(cf, eff.v.size // k, axis=0),
                                       cfg.finite_size)
            finite = np.isfinite(rate).all(axis=1)
            if not finite.all():
                model = cfg.models[int(np.argmin(finite)) * k // finite.size]
                raise ConfigError(
                    f"distances_km point {km} gives a non-finite {model.value} key rate")
            if cfg.calibration is not None:
                calibration_rows(cfg)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cfg


def _typed(value: Any, field: str, kind: type | tuple | list) -> Any:
    """value checked as a kind of _JSON_TYPES, float, int, a tuple of
    allowed values or [kind], or a ConfigError naming the field.

    An object, list or string is returned as given, and so is one of a
    tuple's values. [kind] is a non-empty list, returned as a tuple of its
    elements, each checked as kind and named field[i]; no two may be
    equal, as they would give the same rows. A float is any finite number;
    an int is a finite integral one, so 5e9 counts 5000000000 samples but
    5.7 is an error. A JSON boolean is not a number, though Python counts
    it as an int. Numbers are checked after conversion, as --set passes
    non-JSON such as nan on as a string.
    """
    if isinstance(kind, list):
        items = _typed(value, field, list)
        if not items:
            raise ConfigError(f"{field} must be a non-empty list")
        values = tuple(_typed(x, f"{field}[{i}]", kind[0]) for i, x in enumerate(items))
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ConfigError(f"{field}[{i}] repeats an earlier value: {x!r}")
        return values
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(f"{field} must be one of {list(kind)}, got {value!r}")
    if kind in _JSON_TYPES:
        if isinstance(value, kind):
            return value
        raise ConfigError(f"{field} must be {_JSON_TYPES[kind]}, got {value!r}")
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (OverflowError, TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


def _section(raw: dict, section: str) -> dict:
    """The keys of one config section, each typed as _KEYS lists it.

    A dict value is walked as the section of its key. An absent or null
    key takes its _OPTIONAL value, and is left out where that is None; a
    key that is not optional must be given, and one _KEYS does not list
    is an error.
    """
    unknown = sorted(set(raw) - set(_KEYS[section]))
    if unknown:
        raise ConfigError(f"unknown {section} fields: {unknown}")
    out = {}
    for key, kind in _KEYS[section].items():
        field = key if section == "config" else f"{section}.{key}"
        value = raw.get(key)
        if value is None:
            if field not in _OPTIONAL:
                raise ConfigError(f"missing config field: {field}")
            value = _OPTIONAL[field]
            if value is None:
                continue
        value = _typed(value, field, kind)
        out[key] = _section(value, key) if kind is dict else value
    return out


def load_config(path: str, overrides: Sequence[str] = ()) -> SweepConfig:
    """Read a JSON config file and apply --set overrides."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    return SweepConfig.from_dict(raw, overrides)


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

def _sweep_block(config: SweepConfig, res: KeyRateResult, shared: dict) -> dict:
    """The key-rate columns of one model's rows from its key_rate result
    res. I_AB does not depend on the model, so the first block's I_AB
    column goes into shared and every later block takes that one."""
    rate = res.rate_bits_per_pulse
    per_s = None if config.pulse_rate_hz is None else rate * config.pulse_rate_hz
    if per_s is not None and not np.isfinite(per_s).all():
        raise NumericalError("non-finite rate_bits_per_s", row=int(np.argmin(np.isfinite(per_s))))
    return {
        "eps_c": config.system["eps_c"],
        "n0_worst": res.worst_n0,
        "i_ab": shared.setdefault("i_ab", res.i_ab),
        "chi_be": res.chi_be,
        "delta_n": res.delta_n,
        "rate_bits_per_pulse": rate,
        "rate_bits_per_s": per_s,
        # max(rate, 0.0) per row: a NaN or -0.0 rate is kept as it is.
        "rate_clamped": np.where(rate < 0.0, 0.0, rate),
    }


def _grid_blocks(config: SweepConfig, blocks_at, deltas: Sequence[float]) -> list[dict]:
    """The grid's points, every (V, distance, delta) in that order, V
    sorted, as one block of columns for each model in turn: the shared
    columns, and those that block(model) gives for one model's points,
    block being what blocks_at(params, delta) returns for the SystemParams
    and delta column of every point.

    A column is a float64 array of one value per point, or one value for
    all of them; the V, distance_km, transmittance and delta arrays are
    shared by every block. Each distance's transmittance is computed once
    and gathered to its points. An error of block(model), or of blocks_at
    naming its model as exc.model, is raised again naming that model and,
    where the error carries the index of its failing row, that row's
    point."""
    points = config.distances_km.points()
    v, i, delta = (c.ravel() for c in np.meshgrid(
        sorted(config.variances), np.arange(len(points)), deltas, indexing="ij"))
    km = np.array(points)[i]
    t = np.array([transmittance_from_km(d) for d in points])[i]
    system = config.system
    params = SystemParams(v=v, t=t, **system)
    shared = {
        "regime": "asymptotic" if config.finite_size is None else "finite_size",
        "V": v, "distance_km": km, "transmittance": t, "delta": delta,
        "eta_d": system["eta_d"], "v_ele": system["v_ele"],
    }
    blocks, model = [], None
    try:
        block = blocks_at(params, delta)
        for model in config.models:
            blocks.append({"model": model.value, **shared, **block(model)})
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        model = getattr(exc, "model", model)
        if model is None:
            raise
        row = getattr(exc, "row", None)
        point = ("" if row is None else
                 f" V={v[row].item()!r} km={km[row].item()!r} delta={delta[row].item()!r}")
        raise RuntimeError(f"model={model.value}{point}: {type(exc).__name__}: {exc}") from exc
    return blocks


def _sweep_blocks(config: SweepConfig) -> list[dict]:
    def blocks_at(params: SystemParams, delta: np.ndarray):
        shared: dict = {}
        return lambda model: _sweep_block(
            config, key_rate(params, model, config.finite_size, delta), shared)

    return _grid_blocks(config, blocks_at, sorted(config.miscalibration_deltas))


def _ten_blocks(config: SweepConfig) -> list[dict]:
    def blocks_at(params: SystemParams, delta: np.ndarray):
        ten = tolerable_excess_noise(params, config.models, config.finite_size)
        return lambda model: {"ten": ten[model]}

    return _grid_blocks(config, blocks_at, [0.0])


def calibration_rows(config: SweepConfig) -> list[dict]:
    if config.calibration is None:
        raise ConfigError("calibration section is required for the calib command")
    c = config.calibration
    return deviation_curve(c, c.m_grid, c.eps_pe)


# ---------------------------------------------------------------------------
# output

def _csv_text(value: Any) -> str:
    """A single value's CSV cell: empty for None, else its str, a float's
    being its repr. No command writes a comma, quote or line break, so
    no cell is quoted."""
    return "" if value is None else str(value)


def _cell_rows(blocks: list[dict], columns: list[str], text, float_text) -> Iterator[tuple]:
    """The blocks' rows, yielded one at a time, as tuples of the text of
    each cell in the order of columns, built column by column: text(value)
    for a single value, formatted once for its block, and float_text(x)
    for a value x of a float64 array. float_text is called once per call
    for each distinct bit pattern among all the arrays' values, and its
    text gathered back to every cell that holds it: 0.0 and -0.0 differ in
    their bits, so each keeps its own text, and NaNs of any sign or
    payload print alike."""
    texts: dict[int, list] = {}  # id of an array column -> its cells' text
    arrays = {id(a): a for block in blocks for a in map(block.__getitem__, columns)
              if isinstance(a, np.ndarray)}
    if arrays:
        bits, inverse = np.unique(np.concatenate([*arrays.values()]).view(np.int64),
                                  return_inverse=True)
        unique = np.array([*map(float_text, bits.view(np.float64).tolist())], dtype=object)
        ends = np.cumsum([a.size for a in arrays.values()]).tolist()
        for key, start, end in zip(arrays, [0, *ends], ends):
            texts[key] = unique[inverse[start:end]].tolist()
        # The generator keeps its locals until its last row; these are done with.
        del bits, inverse, unique
    for block in blocks:
        # A block's arrays give its row count; one of single values is one row.
        n = next((len(c) for c in block.values() if isinstance(c, np.ndarray)), 1)
        yield from zip(*[texts[id(v)] if isinstance(v, np.ndarray) else [text(v)] * n
                         for v in map(block.__getitem__, columns)], strict=True)


def write_rows(blocks: list[dict], columns: list[str], path: str, fmt: str) -> None:
    """Write the rows of blocks as CSV or JSON, in the order of columns.

    A block is a dict of columns, each a float64 array of one value per
    row or a single None, int, float or str for all its rows, so a row
    dict is a one-row block. An array value's CSV cell is its float's
    repr (see _cell_rows), a single value's is _csv_text's, and lines end
    in a line feed; the JSON is json.dumps(rows, indent=2), a list of
    objects."""
    if fmt == "csv":
        lines = [",".join(columns),
                 *map(",".join, _cell_rows(blocks, columns, _csv_text, float.__repr__))]
        text = "\n".join(lines) + "\n"
    else:
        rows = _cell_rows(blocks, columns, lambda value: value, float)
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    with open(path, "w", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# entry point

# command -> (help text, block builder, output columns); validate-config builds none.
# A row dict is a one-row block. The names are the parser's command choices, and the
# help texts its list of commands.
_COMMANDS = {
    "sweep": ("Key rate vs distance for the configured models.", _sweep_blocks,
              SWEEP_COLUMNS),
    "ten": ("Tolerable excess noise vs distance: the eps_c a 1e-4 bisection finds, "
            "from fewer rate evaluations.", _ten_blocks, TEN_COLUMNS),
    "calib": ("Calibration deviation curves vs block length.", calibration_rows,
              CALIB_COLUMNS),
    "validate-config": ("Parse and validate a config, then exit.", None, None),
}


def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every command: a command name from _COMMANDS and
    the flags, in either order. Its help lists each command's help text
    after the flags. main refuses --out and --format for validate-config."""
    parser = argparse.ArgumentParser(
        prog="cvqkd-calib",
        description="Key-rate sweeps and calibration statistics for CV-QKD\n"
                    "shot-noise-unit calibration models.",
        epilog="commands:\n" + "\n".join(f"  {name:<17}{help_text}"
                                         for name, (help_text, _, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry (dotted keys)")
    parser.add_argument("--out", help="output file path (overrides output.path)")
    parser.add_argument("--format", help="output format (overrides output.format)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _, build_blocks, columns = _COMMANDS[args.command]
    if build_blocks is None and (args.out is not None or args.format is not None):
        parser.error(f"{args.command} writes no output, so it takes no --out or --format")
    # --format f is a last --set output.format="f", so it wins over the others.
    overrides = args.overrides + ([] if args.format is None
                                  else [f"output.format={json.dumps(args.format)}"])
    try:
        config = load_config(args.config, overrides)
        if build_blocks is None:
            print("configuration valid")
            return EXIT_OK
        path = config.output_path if args.out is None else args.out
        if path is None:
            raise ConfigError("no output path: set output.path in the config or pass --out")
        # key_rate refuses every non-finite matrix, spectrum and rate it
        # evaluates with its grid point named; numpy's warnings would
        # repeat that error without the point.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            write_rows(build_blocks(config), columns, path, config.output_format)
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
