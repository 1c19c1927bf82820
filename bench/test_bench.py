"""Self-tests of the benchmark's tracer, comparator and metric list.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import types
from pathlib import Path

import pytest

import refcheck
import run
import tracing

SWEEP_REF = {"model": "two_mode", "V": "4.0", "distance_km": "25.0", "delta": "0.001",
             "rate_bits_per_pulse": "0.25", "i_ab": "1.5", "chi_be": "1.184"}


def sweep_row(**changes) -> dict:
    row = dict(SWEEP_REF, transmittance="0.3", n0_worst="1.0", delta_n="0.0")
    row.update({k: repr(v) for k, v in changes.items()})
    return row


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0],
             ["late", 9.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nested_spans_and_self_times():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    spans = tracer.take()
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0 and spans[0][3] == -1
    assert tracing.self_times(spans) == [2.0, 1.0]
    assert tracer.spans == []


@pytest.mark.parametrize("column", refcheck.SWEEP_COMPARED)
def test_comparator_rejects_two_ppb_relative(column):
    ref = float(SWEEP_REF[column])
    scale = max(ref, 1.184) if column == "rate_bits_per_pulse" else ref
    off = sweep_row(**{column: ref - 2e-9 * scale})
    near = sweep_row(**{column: ref - 0.5e-9 * scale})
    assert refcheck.compare_sweep(off, SWEEP_REF, finite_size=False) is not None
    assert refcheck.compare_sweep(near, SWEEP_REF, finite_size=False) is None


def test_comparator_rejects_finite_size_rate_above_reference():
    above = sweep_row(rate_bits_per_pulse=0.25 + 1e-10)
    assert refcheck.compare_sweep(above, SWEEP_REF, finite_size=False) is None
    reason = refcheck.compare_sweep(above, SWEEP_REF, finite_size=True)
    assert reason is not None and "worst case" in reason
    below = sweep_row(rate_bits_per_pulse=0.25 - 1e-10)
    assert refcheck.compare_sweep(below, SWEEP_REF, finite_size=True) is None


def test_comparator_ten_tolerance():
    ref = {"ten": "0.1"}
    assert refcheck.compare_ten({"ten": "0.10019"}, ref) is None
    assert refcheck.compare_ten({"ten": "0.10021"}, ref) is not None


def test_check_rows_names_first_failing_grid_point():
    second = dict(SWEEP_REF, distance_km="30.0")
    rows = [sweep_row(chi_be=math.nan)]
    failed, first = refcheck.check_rows("sweep", False, rows, [SWEEP_REF, second])
    assert failed == 2
    assert first.startswith("model=two_mode V=4.0 km=25.0 delta=0.001")
    failed, first = refcheck.check_rows("sweep", False, [sweep_row(), sweep_row()],
                                        [SWEEP_REF, second])
    assert failed == 2 and "km=30.0" in first


def _fake_package():
    gaussian = types.ModuleType("gaussian")
    keyrate = types.ModuleType("keyrate")

    def eig(x):
        return x + 1

    def holevo(x):
        return keyrate.eig(x) * 2

    gaussian.eig = eig
    keyrate.eig = eig
    keyrate.holevo = holevo
    keyrate.DISPATCH = {"two_mode": holevo}
    return {"gaussian": gaussian, "keyrate": keyrate}


def test_missing_traced_name_is_marked_not_raised():
    modules = _fake_package()
    tracer = tracing.Tracer()
    tracer.install(modules, [("gaussian", "eig"), ("gaussian", "gone"),
                             ("nomodule", "f"), ("gaussian", "Cls.method")])
    assert tracer.missing == ["gaussian.gone", "nomodule.f", "gaussian.Cls.method"]
    assert modules["keyrate"].eig(1) == 2
    assert [s[0] for s in tracer.take()] == ["gaussian.eig"]
    tracer.uninstall()


def test_tracer_patches_every_binding_and_restores():
    modules = _fake_package()
    original = modules["keyrate"].holevo
    tracer = tracing.Tracer()
    tracer.install(modules, [("keyrate", "holevo"), ("gaussian", "eig")])
    assert modules["keyrate"].DISPATCH["two_mode"](1) == 4
    assert [s[0] for s in tracer.take()] == ["keyrate.holevo", "gaussian.eig"]
    tracer.uninstall()
    assert modules["keyrate"].holevo is original
    assert modules["keyrate"].DISPATCH["two_mode"] is original
    modules["keyrate"].DISPATCH["two_mode"](1)
    assert tracer.take() == []


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
