"""Byte-identity of the CLI outputs on the README example grid.

tests/golden/ holds gzipped outputs written from tests/golden/config.json
(the README example config). Each test regenerates one output through
cli.main and compares bytes, so any change to a printed digit fails here.
The sweep goldens hold under numpy 2.4.6 with its AVX-512 dispatch: every
entropy takes numpy's log2, whose AVX2 path differs in the last bits.
A change that moves outputs on purpose regenerates the files with the
commands below and says why:

    cvqkd-calib <command> --config tests/golden/config.json [--set ...] --out <name>.csv
    gzip -n -9 <name>.csv
"""

import csv
import gzip
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from cvqkd_calib.cli import EXIT_OK, SWEEP_COLUMNS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parents[1] / "src"

FINITE_STEP_50 = ["--set", "regime=finite_size", "--set", "distances_km.step=50"]

CASES = {
    "sweep_asymptotic": ["sweep"],
    "sweep_finite_size_step50": ["sweep", *FINITE_STEP_50],
    "ten_asymptotic": ["ten"],
    "ten_finite_size_step50": ["ten", *FINITE_STEP_50],
    "calib": ["calib"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(tmp_path, capsys, name):
    command, *overrides = CASES[name]
    out = tmp_path / f"{name}.csv"
    argv = [command, "--config", str(GOLDEN / "config.json"), *overrides, "--out", str(out)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    expect = gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes())
    got = out.read_bytes()
    if got != expect:
        got_lines, expect_lines = got.splitlines(), expect.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got_lines, expect_lines)) if a != b),
                     min(len(got_lines), len(expect_lines)))
        pair = [lines[first] if first < len(lines) else b"<end>"
                for lines in (got_lines, expect_lines)]
        pytest.fail(f"{name}: {len(got_lines)} lines against {len(expect_lines)}; "
                    f"line {first + 1} reads {pair[0]!r}, expected {pair[1]!r}")


def test_json_sweep_holds_the_asymptotic_sweep_golden_values(tmp_path, capsys):
    # No golden holds JSON: the JSON sweep must give, row for row, the
    # floats of the CSV golden, bit for bit, and its model and regime text.
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(GOLDEN / "config.json"), "--format", "json",
            "--out", str(out)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    got = json.loads(out.read_text())
    text = gzip.decompress((GOLDEN / "sweep_asymptotic.csv.gz").read_bytes()).decode()
    expect = list(csv.DictReader(io.StringIO(text)))
    assert len(got) == len(expect) == 1107
    for row, golden in zip(got, expect):
        assert list(row) == list(golden) == SWEEP_COLUMNS
        assert [row[c] for c in ("model", "regime")] == [golden[c] for c in ("model", "regime")]
        assert ([float.hex(row[c]) for c in SWEEP_COLUMNS[2:]]
                == [float.hex(float(golden[c])) for c in SWEEP_COLUMNS[2:]])


def run_in_subprocess(tmp_path, name, **env) -> bytes:
    """The output of one golden case from the CLI in a fresh interpreter
    under the given environment variables, which numpy and OpenBLAS read
    only at import."""
    command, *overrides = CASES[name]
    out = tmp_path / f"{name}.csv"
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "cvqkd_calib.cli", command, "--config",
                    str(GOLDEN / "config.json"), *overrides, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    return out.read_bytes()


X86_64 = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                            reason="OPENBLAS_CORETYPE names x86-64 kernels")


@X86_64
@pytest.mark.parametrize("name", ["ten_asymptotic", "ten_finite_size_step50", "calib"])
def test_output_does_not_depend_on_the_blas_kernel(tmp_path, name):
    # The eigensolver's last digits follow OpenBLAS's kernel, so the
    # finite-size sweep golden, the only one that runs it on this grid,
    # moves under another kernel; and numpy's log2
    # differs between its AVX-512 and AVX2 paths, so both sweep goldens move
    # under another SIMD level. On this grid every TEN edge takes its sign
    # from the closed form, which runs no eigensolve, and calib runs none
    # either, so these match under the oldest x86-64 kernel with numpy's
    # AVX-512 targets disabled too, as on a CPU without AVX-512. A numpy
    # built without OpenBLAS ignores the first variable, and one that lacks
    # these targets the second.
    got = run_in_subprocess(tmp_path, name, OPENBLAS_CORETYPE="Prescott",
                            NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert got == gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes())


@X86_64
@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_asymptotic_sweep_does_not_depend_on_the_blas_kernel(tmp_path, kernel):
    # On this grid every asymptotic rate comes from the closed form, which
    # runs no eigensolve. numpy's SIMD level is left as it is: its log2
    # still moves this golden between the AVX-512 and AVX2 paths.
    got = run_in_subprocess(tmp_path, "sweep_asymptotic", OPENBLAS_CORETYPE=kernel)
    assert got == gzip.decompress((GOLDEN / "sweep_asymptotic.csv.gz").read_bytes())
