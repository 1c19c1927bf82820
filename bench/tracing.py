"""In-memory span tracer for the package's public functions.

The tracer wraps each target function and rebinds the wrapper wherever
the package binds the original: module attributes (`keyrate` imports
`symplectic_eigenvalues` by name), module-level dict values (the Holevo
dispatch table) and, for `Class.method` targets, the class attribute.
A target that no longer exists is listed in `missing` and skipped.

Every wrapped call records a span [name, start, end, parent index].
Spans stay in memory until the caller aggregates or writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict

# (module, attribute) -> layer group. The group names are the prefixes of
# the per-layer metrics listed in BENCHMARK.json. Within `cli`, spans on
# `main` and the two timed stages suffice: every other CLI function's
# time lands in the self time of `main`.
TARGETS = {
    ("cli", "main"): "cli",
    ("cli", "load_config"): "cli.load_config",
    ("cli", "write_rows"): "cli.write_rows",
    ("keyrate", "key_rate_asymptotic"): "keyrate.rate",
    ("keyrate", "key_rate_finite"): "keyrate.rate",
    ("keyrate", "holevo_two_mode"): "keyrate.holevo",
    ("keyrate", "holevo_three_mode"): "keyrate.holevo",
    ("keyrate", "holevo_conventional"): "keyrate.holevo",
    ("models", "build_two_mode"): "models.build",
    ("models", "build_three_mode"): "models.build",
    ("models", "build_conventional"): "models.build",
    ("models", "conventional_channel_matrix"): "models.build",
    ("models", "apply_miscalibration"): "models.build",
    ("gaussian", "symplectic_eigenvalues"): "gaussian.eig",
    ("gaussian", "condition_on_homodyne"): "gaussian.cond",
    ("gaussian", "entropy_g"): "gaussian.entropy",
    ("gaussian", "apply_beamsplitter"): "gaussian.ops",
    ("gaussian", "attach_vacuum"): "gaussian.ops",
    ("gaussian", "keep_modes"): "gaussian.ops",
    ("gaussian", "CovarianceMatrix.__post_init__"): "gaussian.cm_validate",
    ("calibration", "confidence_interval_ote"): "calibration.ci",
    ("calibration", "confidence_interval_tte"): "calibration.ci",
}

# Metrics derived from the spans of one CLI call: name -> unit.
SPAN_METRICS = {
    "gaussian.eig_calls": "count",
    "gaussian.eig_self_s": "s",
    "gaussian.cond_calls": "count",
    "gaussian.cond_self_s": "s",
    "gaussian.entropy_calls": "count",
    "gaussian.entropy_self_s": "s",
    "gaussian.ops_calls": "count",
    "gaussian.ops_self_s": "s",
    "gaussian.cm_validations": "count",
    "gaussian.cm_validations_per_holevo": "count/holevo",
    "gaussian.cm_validate_self_s": "s",
    "models.build_calls": "count",
    "models.build_self_s": "s",
    "keyrate.holevo_calls": "count",
    "keyrate.holevo_per_rate": "count/rate",
    "keyrate.holevo_self_s": "s",
    "keyrate.rate_calls": "count",
    "keyrate.rate_calls_per_row": "count/row",
    "keyrate.rate_self_s": "s",
    "calibration.ci_calls": "count",
    "calibration.ci_self_s": "s",
    "cli.load_config_s": "s",
    "cli.write_rows_s": "s",
    "cli.self_s": "s",
}

# Span metrics that must repeat exactly between calls and runs.
COUNT_METRICS = tuple(n for n, u in SPAN_METRICS.items() if u.startswith("count"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), math.nan, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict, targets=TARGETS) -> None:
        """Wrap every (module, attribute) target found in `modules`.

        `modules` maps short module names to module objects; all of them
        are searched for bindings of each target.
        """
        for module_name, attr in targets:
            name = f"{module_name}.{attr}"
            owner = modules.get(module_name)
            *path, last = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except AttributeError:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original)
            if path:
                self._set(owner, last, traced)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._restore.append((value.__setitem__, k, v))
                                value[k] = traced

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((functools.partial(setattr, owner), key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            put, key, original = self._restore.pop()
            put(key, original)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def span_metrics(spans: list[list], rows: int) -> tuple[dict, list[float]]:
    """Per-layer metrics of one CLI call, and the rate-call durations in s."""
    group_of = {f"{m}.{a}": g for (m, a), g in TARGETS.items()}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    rate_durations = []
    for span, own in zip(spans, self_times(spans)):
        group = group_of[span[0]]
        layer = group.split(".")[0] if group.startswith("cli") else group
        calls[group] += 1
        self_s[layer] += own
        inclusive[group] += span[2] - span[1]
        if group == "keyrate.rate":
            rate_durations.append(span[2] - span[1])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for group in ("gaussian.eig", "gaussian.cond", "gaussian.entropy", "gaussian.ops",
                  "models.build", "keyrate.holevo", "keyrate.rate", "calibration.ci"):
        m[f"{group}_calls"] = calls[group]
        m[f"{group}_self_s"] = self_s[group]
    m["gaussian.cm_validations"] = calls["gaussian.cm_validate"]
    m["gaussian.cm_validations_per_holevo"] = ratio(calls["gaussian.cm_validate"],
                                                    calls["keyrate.holevo"])
    m["gaussian.cm_validate_self_s"] = self_s["gaussian.cm_validate"]
    m["keyrate.holevo_per_rate"] = ratio(calls["keyrate.holevo"], calls["keyrate.rate"])
    m["keyrate.rate_calls_per_row"] = ratio(calls["keyrate.rate"], rows)
    m["cli.load_config_s"] = inclusive["cli.load_config"]
    m["cli.write_rows_s"] = inclusive["cli.write_rows"]
    m["cli.self_s"] = self_s["cli"]
    return {k: m[k] for k in SPAN_METRICS}, rate_durations


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median_of_calls(per_call: list[dict]) -> dict:
    """Counts from the first call, times as the median over calls."""
    out = {}
    for name in per_call[0]:
        if name in COUNT_METRICS:
            out[name] = per_call[0][name]
        else:
            out[name] = statistics.median(c[name] for c in per_call)
    return out
