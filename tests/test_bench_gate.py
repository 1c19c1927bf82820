"""The benchmark's correctness gate on every variant of the finite-size sweep.

A benchmark run checks only the variant its seed selects. Here every
variant of the `fs_sweep` workload runs through `cli.main` and each output
row is held to its stored reference by `bench/refcheck.py`, including the
one-sided test that a finite-size rate never lies above its reference: a
worst case over the SNU interval that was missed shows as a higher rate.
"""

import json
import sys
from pathlib import Path

import pytest

from cvqkd_calib import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import refcheck  # noqa: E402
import workloads  # noqa: E402

FS_SWEEP = workloads.WORKLOADS["fs_sweep"]


@pytest.mark.parametrize("seed", range(workloads.N_VARIANTS))
def test_fs_sweep_rows_pass_the_gate(tmp_path, seed):
    out = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(FS_SWEEP, seed, str(out))))
    assert cli.main(workloads.cli_argv(FS_SWEEP, str(config), str(out))) == cli.EXIT_OK
    rows = refcheck.read_rows(str(out))
    refs = workloads.load_refs(FS_SWEEP, seed)
    assert len(rows) == len(refs) == FS_SWEEP.rows
    failed, first = refcheck.check_rows(FS_SWEEP.command, True, rows, refs)
    assert failed == 0, first
