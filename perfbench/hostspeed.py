"""How fast the host runs right now, from a fixed reference task.

On a shared VM the same code runs up to 1.5-2x slower for seconds or
minutes at a time, whatever the program does: other tenants load the
host.  The benchmark times a fixed task (:func:`probe`: a pure-Python
loop and a small NumPy loop, the two kinds of work the program does)
right before and after each measured piece of work, and scales that
work's times by ``REFERENCE_S / probe time``.  End-to-end figures are
therefore seconds on a host where the probe takes ``REFERENCE_S``.
Raw times are printed alongside them.

The probe is benchmark code and touches nothing of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe time end-to-end figures are scaled to: about its median
#: on a shared 2-vCPU Xeon VM at 2.1 GHz.
REFERENCE_S = 0.02


def probe() -> float:
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    values = np.arange(256.0)
    for _ in range(2_000):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def factor(*probes: float) -> float:
    """Scale for work timed between ``probes`` (slow host: below 1)."""
    return REFERENCE_S / statistics.mean(probes)
