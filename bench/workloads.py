"""Benchmark workloads: CLI configs generated from a workload seed.

Every workload runs one CLI command over a (model, V, distance, delta)
grid shaped like the README example. The seed picks one of N_VARIANTS
grids: variant 0 is the README grid itself, the others draw the three
source variances and a distance offset from fixed ranges. The row count
of a workload never depends on the seed. Reference outputs for every
variant are stored in refs/, so any seed can be checked.
"""

from __future__ import annotations

import csv
import gzip
import io
import random
from dataclasses import dataclass
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

N_VARIANTS = 8
DEFAULT_SEED = 0

# Variant 0 is the README example grid.
README_VARIANCES = (4.0, 20.0, 40.0)

# One range per V slot. In the low and middle ranges every `ten` row has
# a positive rate at zero excess noise, so it always costs 15 rate
# evaluations. In the high range the rate turns negative from about
# 60 km (one evaluation per row). The ranges are narrow so that this
# share, and with it the work per row, changes by under 1% between seeds.
V_RANGES = ((3.0, 5.0), (12.0, 20.0), (38.0, 42.0))
OFFSET_RANGE_KM = (0.0, 5.0)

MODELS = ("conventional", "two_mode", "three_mode")
SYSTEM = {"eps_c": 0.01, "eta_d": 0.6, "v_ele": 0.01, "beta": 0.956}
FINITE_SIZE = {
    "block_length": 1e10, "key_fraction": 0.5,
    "eps_pe": 1e-10, "eps_pa": 1e-10, "eps_smooth": 1e-10,
    "calib_samples_m": 5e9, "dim_hx": 2,
}
PULSE_RATE_HZ = 5e6
SWEEP_DELTAS = (0.0, 0.001, 0.003)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    regime: str
    n_distances: int
    step_km: float
    deltas: tuple[float, ...]
    why: str

    @property
    def rows(self) -> int:
        per_delta = len(self.deltas) if self.command == "sweep" else 1
        return len(MODELS) * len(README_VARIANCES) * self.n_distances * per_delta


WORKLOADS = {
    w.name: w for w in (
        Workload("asym_sweep", "sweep", "asymptotic", 41, 5.0, SWEEP_DELTAS,
                 "one Holevo bound per row, so per-call overhead (validation, "
                 "model build, CSV write) carries the cost"),
        Workload("fs_sweep", "sweep", "finite_size", 5, 50.0, SWEEP_DELTAS,
                 "21 Holevo bounds per row from the n0 worst-case scan; "
                 "spectra and conditioning dominate"),
        Workload("ten_asym", "ten", "asymptotic", 41, 5.0, (0.0,),
                 "sequential root-find, about 11.7 dependent rate "
                 "evaluations per row; batching across the grid cannot help"),
    )
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def grid_of(seed: int) -> tuple[tuple[float, ...], float]:
    """(variances, distance offset in km) of the seed's variant."""
    variant = variant_of(seed)
    if variant == 0:
        return README_VARIANCES, 0.0
    rng = random.Random(variant)
    variances = tuple(round(rng.uniform(lo, hi), 2) for lo, hi in V_RANGES)
    offset = round(rng.uniform(*OFFSET_RANGE_KM), 2)
    return variances, offset


def make_config(workload: Workload, seed: int, out_path: str) -> dict:
    variances, offset = grid_of(seed)
    return {
        "models": list(MODELS),
        "regime": workload.regime,
        "distances_km": {
            "start": offset,
            "stop": offset + workload.step_km * (workload.n_distances - 1),
            "step": workload.step_km,
        },
        "variances": list(variances),
        "system": dict(SYSTEM),
        "miscalibration_deltas": list(workload.deltas),
        "pulse_rate_hz": PULSE_RATE_HZ,
        "finite_size": dict(FINITE_SIZE),
        "output": {"path": out_path, "format": "csv"},
    }


def cli_argv(workload: Workload, config_path: str, out_path: str) -> list[str]:
    return [workload.command, "--config", config_path, "--out", out_path]


def ref_path(workload: Workload) -> Path:
    return REFS_DIR / f"{workload.name}.csv.gz"


def load_refs(workload: Workload, seed: int) -> list[dict]:
    """Reference rows of the seed's variant, in grid order."""
    variant = str(variant_of(seed))
    with gzip.open(ref_path(workload), "rt", newline="") as f:
        return [row for row in csv.DictReader(f) if row["variant"] == variant]


def write_refs(workload: Workload, rows_by_variant: dict[int, list[dict]],
               columns: list[str]) -> None:
    """Store reference rows; mtime 0 keeps the gzip bytes reproducible."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", *columns])
    for variant in sorted(rows_by_variant):
        for row in rows_by_variant[variant]:
            writer.writerow([variant, *(row[c] for c in columns)])
    REFS_DIR.mkdir(exist_ok=True)
    with open(ref_path(workload), "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as f:
            f.write(buf.getvalue().encode())
