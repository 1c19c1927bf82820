"""Reference kernel that measures the machine's current speed.

On a shared virtual machine the same CLI call can take twice as long in
one minute as in the next, with no steal or system time to show for it.
A fixed kernel of the same kind of work (Python objects, float math and
small dense numpy solves), timed right before and after each measured
call, slows down with it. Dividing a measured time by (kernel time) /
REFERENCE_S states it at a fixed nominal machine speed.
The kernel never touches the package, so no change to the package can
change it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# Nominal kernel time that normalized figures are scaled to.
REFERENCE_S = 0.010

_ITERATIONS = 300


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError("negative")


def kernel() -> float:
    """Run the reference work once; return its wall time in seconds."""
    import numpy as np  # here, so that the launcher can pin BLAS threads first

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        m = np.full((6, 6), 0.1) + np.eye(6) * (2.0 + i * 1e-3)
        acc += float(np.abs(np.linalg.eigvals(m)).max())
        p = _Point(a=float(i), b=math.sqrt(i + 1.0))
        acc += math.log2(p.b + 1.0) * p.a
        acc += len(repr(acc))
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel lost its result")
    return time.perf_counter() - t0


def slowdown(before_s: float, after_s: float) -> float:
    """Machine slowdown from the kernel times taken around a measurement.

    Divide the measured time, or multiply the measured rate, by it to
    state the figure at nominal speed.
    """
    return 0.5 * (before_s + after_s) / REFERENCE_S
