"""Regenerate the reference outputs in refs/ from the package in ../src.

    python3 bench/make_refs.py

The stored references were produced by the seed code (commit a413b29)
and define correct output for every later commit: run this only when
the workload grids change, and only on code whose outputs are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile

import refcheck
import run
import workloads

SWEEP_REF_COLUMNS = ["model", "V", "distance_km", "delta", *refcheck.SWEEP_COMPARED]
TEN_REF_COLUMNS = ["model", "V", "distance_km", "ten"]


def main() -> int:
    run.pin_blas_threads()
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refs-", dir=run.WORK)
    try:
        for workload in workloads.WORKLOADS.values():
            columns = SWEEP_REF_COLUMNS if workload.command == "sweep" else TEN_REF_COLUMNS
            by_variant = {}
            for variant in range(workloads.N_VARIANTS):
                config_path, out_path = f"{workdir}/config.json", f"{workdir}/out.csv"
                with open(config_path, "w") as f:
                    json.dump(workloads.make_config(workload, variant, out_path), f)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(workloads.cli_argv(workload, config_path, out_path))
                if code != 0:
                    print(f"{workload.name} variant {variant}: exit {code}", file=sys.stderr)
                    return 1
                by_variant[variant] = refcheck.read_rows(out_path)
                if len(by_variant[variant]) != workload.rows:
                    print(f"{workload.name} variant {variant}: "
                          f"{len(by_variant[variant])} rows, expected {workload.rows}",
                          file=sys.stderr)
                    return 1
            workloads.write_refs(workload, by_variant, columns)
            print(f"{workload.name}: {workloads.N_VARIANTS} variants x {workload.rows} rows")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
