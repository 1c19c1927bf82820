"""Correctness gate: compare CLI output rows with stored reference rows.

A row fails when it is missing, is not finite, or leaves its tolerance:

* rate_bits_per_pulse, i_ab and chi_be within RTOL relative. A rate is a
  difference beta*I_AB - chi_BE, so its scale is max(|rate|, |chi_be|):
  near the zero crossing a plain relative test would fail on roundoff.
* a finite-size rate never above its reference by more than roundoff
  (EXCEED_RTOL on the same scale): a key rate is a security bound, so a
  worst-case scan that misses the minimum is wrong however close it is.
* ten within TEN_ATOL absolute, twice the CLI's documented 1e-4
  bisection tolerance, so any root-finder meeting that tolerance passes.
"""

from __future__ import annotations

import csv
import math
from typing import Optional

RTOL = 1e-9
EXCEED_RTOL = 1e-12
TEN_ATOL = 2e-4

SWEEP_COMPARED = ("rate_bits_per_pulse", "i_ab", "chi_be")
SWEEP_FINITE = ("transmittance", "n0_worst", "i_ab", "chi_be", "delta_n",
                "rate_bits_per_pulse")


def row_key(command: str, row: dict) -> tuple:
    key = (row["model"], float(row["V"]), float(row["distance_km"]))
    return key + (float(row["delta"]),) if command == "sweep" else key


def describe(command: str, key: tuple) -> str:
    delta = key[3] if command == "sweep" else "-"
    return f"model={key[0]} V={key[1]!r} km={key[2]!r} delta={delta}"


def _floats(row: dict, columns) -> dict:
    """Parse the columns as floats; raises ValueError if any is not finite."""
    out = {}
    for c in columns:
        value = float(row[c])
        if not math.isfinite(value):
            raise ValueError(f"{c} is not finite ({row[c]!r})")
        out[c] = value
    return out


def compare_sweep(row: dict, ref: dict, finite_size: bool) -> Optional[str]:
    """Reason the sweep row fails against its reference, or None."""
    try:
        got = _floats(row, SWEEP_FINITE)
    except (KeyError, ValueError) as exc:
        return f"unreadable row: {exc}"
    want = {c: float(ref[c]) for c in SWEEP_COMPARED}
    rate_scale = max(abs(want["rate_bits_per_pulse"]), abs(want["chi_be"]))
    rate, ref_rate = got["rate_bits_per_pulse"], want["rate_bits_per_pulse"]
    if finite_size and rate > ref_rate + EXCEED_RTOL * rate_scale:
        return (f"finite-size rate {rate!r} above reference {ref_rate!r}: "
                f"the worst case was missed")
    for c in SWEEP_COMPARED:
        scale = rate_scale if c == "rate_bits_per_pulse" else abs(want[c])
        if abs(got[c] - want[c]) > RTOL * scale:
            return f"{c} {got[c]!r} vs reference {want[c]!r} (beyond {RTOL:g} relative)"
    return None


def compare_ten(row: dict, ref: dict) -> Optional[str]:
    try:
        got = _floats(row, ("ten",))["ten"]
    except (KeyError, ValueError) as exc:
        return f"unreadable row: {exc}"
    want = float(ref["ten"])
    if abs(got - want) > TEN_ATOL:
        return f"ten {got!r} vs reference {want!r} (beyond {TEN_ATOL:g} absolute)"
    return None


def check_rows(command: str, finite_size: bool, rows: list[dict],
               refs: list[dict]) -> tuple[int, Optional[str]]:
    """(failed rows, message naming the first failing grid point).

    Every reference row not matched by a passing output row fails; an
    output row with no reference, or a repeated one, fails one more row.
    """
    expected = {row_key(command, r): r for r in refs}
    seen: dict[tuple, Optional[str]] = {}
    extra = 0
    first_extra = None
    for row in rows:
        try:
            key = row_key(command, row)
        except (KeyError, ValueError):
            key = None
        if key is None or key not in expected or key in seen:
            extra += 1
            first_extra = first_extra or f"unexpected or repeated row {dict(row)}"
            continue
        ref = expected[key]
        seen[key] = (compare_sweep(row, ref, finite_size) if command == "sweep"
                     else compare_ten(row, ref))
    failed = 0
    first = None
    for key in expected:
        reason = seen[key] if key in seen else "missing from the output"
        if reason is not None:
            failed += 1
            first = first or f"{describe(command, key)}: {reason}"
    failed = min(failed + extra, len(expected))
    return failed, first or first_extra


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
