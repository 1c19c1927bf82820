"""The benchmark's correctness gate on every variant of its three workloads.

A benchmark run checks only the variant its seed selects. Here every
variant of the `asym_sweep` and `fs_sweep` workloads runs through
`cli.main` and each output row is held to its stored reference by
`bench/refcheck.py`, including the one-sided test that a finite-size rate
never lies above its reference: a worst case over the SNU interval that
was missed shows as a higher rate. The asymptotic references were written
by the eigensolver route and asymptotic rates come from the closed form,
so there the gate also holds the two routes to each other.
Every variant of `ten_asym` is held tighter than the benchmark's gate:
each `ten` cell must read exactly as in the stored reference, which the
scalar bisection wrote.
"""

import json
import sys
from pathlib import Path

import pytest

from cvqkd_calib import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import refcheck  # noqa: E402
import workloads  # noqa: E402

ASYM_SWEEP = workloads.WORKLOADS["asym_sweep"]
FS_SWEEP = workloads.WORKLOADS["fs_sweep"]
TEN_ASYM = workloads.WORKLOADS["ten_asym"]


def run_workload(tmp_path, workload, seed) -> list[dict]:
    """The output rows of one CLI call of the workload's seed variant."""
    out = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload, seed, str(out))))
    assert cli.main(workloads.cli_argv(workload, str(config), str(out))) == cli.EXIT_OK
    return refcheck.read_rows(str(out))


@pytest.mark.parametrize("seed", range(workloads.N_VARIANTS))
def test_asym_sweep_rows_pass_the_gate(tmp_path, seed):
    rows = run_workload(tmp_path, ASYM_SWEEP, seed)
    refs = workloads.load_refs(ASYM_SWEEP, seed)
    assert len(rows) == len(refs) == ASYM_SWEEP.rows
    failed, first = refcheck.check_rows(ASYM_SWEEP.command, False, rows, refs)
    assert failed == 0, first


@pytest.mark.parametrize("seed", range(workloads.N_VARIANTS))
def test_fs_sweep_rows_pass_the_gate(tmp_path, seed):
    rows = run_workload(tmp_path, FS_SWEEP, seed)
    refs = workloads.load_refs(FS_SWEEP, seed)
    assert len(rows) == len(refs) == FS_SWEEP.rows
    failed, first = refcheck.check_rows(FS_SWEEP.command, True, rows, refs)
    assert failed == 0, first


@pytest.mark.parametrize("seed", range(workloads.N_VARIANTS))
def test_ten_asym_cells_equal_their_references(tmp_path, seed):
    rows = run_workload(tmp_path, TEN_ASYM, seed)
    refs = workloads.load_refs(TEN_ASYM, seed)
    assert len(rows) == len(refs) == TEN_ASYM.rows
    columns = ("model", "V", "distance_km", "ten")
    assert [[r[c] for c in columns] for r in rows] == [[r[c] for c in columns] for r in refs]
