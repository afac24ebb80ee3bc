"""Reference-speed timing: wall time scaled by fixed calibration work.

On the shared 2-vCPU virtual machine this benchmark was tuned on, each
virtual CPU's speed drifts with its neighbours' load, independently of the
other CPU and within a second: the same deterministic cold checks ran up to
40% apart from one minute to the next, and a fixed pure-Python loop drifted
alike.  So every run also times :func:`calibration_kernel` -- fixed
interpretive work (dict, list, set and str churn, builtins only, nothing
from the library) -- between its measurements, on the CPUs the measured
work runs on, and reports times in *reference seconds*::

    reference = wall * REFERENCE_KERNEL_SECONDS / mean(nearby kernel wall times)

that is, the time the work would have taken on a machine where the kernel
takes exactly ``REFERENCE_KERNEL_SECONDS``.  A change to the library moves
the measured time but not the kernel; a slower CPU moves both.

Interpreter start-up does not follow that kernel, so the cold workloads'
set-up is scaled the same way by :func:`start_kernel`, a fresh interpreter
importing a fixed set of modules.  Raw wall times are printed alongside and
kept as per-layer metrics.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: The kernel's wall time on the reference machine, so that reference
#: seconds read close to wall seconds on a 2-core 2.1 GHz Xeon VM.
REFERENCE_KERNEL_SECONDS = 0.0015

#: Kernel samples on each side of a measurement that scale it: a latency is
#: scaled by the mean of the ``2 * WINDOW + 1`` samples around it.
WINDOW = 8

#: The start-up kernel's time on the reference machine (see :func:`start_kernel`).
REFERENCE_START_SECONDS = 0.15

#: Units of the timed end-to-end metrics; the per-layer ``wall.<name>``
#: metrics repeat them in wall seconds.
UNITS = {"setup_s": "s", "checks_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_tail_ms": "ms"}

#: A fresh interpreter importing stdlib modules and numpy, nothing from the
#: library, and printing how long the imports took.
_START_PROBE = (
    "import time; begin = time.perf_counter(); "
    "import asyncio, decimal, email.parser, http.client, json, numpy; "
    "print(time.perf_counter() - begin)"
)


def calibration_kernel() -> float:
    """Run the fixed calibration work once; returns its wall time in seconds."""
    begin = time.perf_counter()
    table: dict[int, list[int]] = {}
    for i in range(6000):
        table.setdefault(i * 7919 % 251, []).append(i)
    seen: set[int] = set()
    for key in sorted(table):
        row = table[key]
        seen.update(row[::2])
        row.sort(reverse=True)
    sum(len(str(x)) for x in seen)
    return time.perf_counter() - begin


def start_kernel() -> float:
    """Import time of a fresh interpreter loading a fixed set of modules, in seconds.

    Importing is process start-up, file reads and unmarshalling, whose
    speed does not follow :func:`calibration_kernel`; the library's import
    time follows this probe to within 5%, so cold set-up is scaled by it.
    """
    done = subprocess.run(
        [sys.executable, "-c", _START_PROBE], check=True, capture_output=True, text=True
    )
    return float(done.stdout)


def scaled_setups(setups: list[float], starts: list[float]) -> list[float]:
    """Set-up wall times in reference seconds.

    ``starts`` holds one :func:`start_kernel` time before the first set-up
    and one after each, so each set-up is scaled by the two around it.
    """
    return [
        setup * REFERENCE_START_SECONDS * 2 / (before + after)
        for setup, before, after in zip(setups, starts, starts[1:])
    ]


class SpeedGauge:
    """Kernel samples taken through one phase of a run, and the scales they give.

    With ``spread=True`` each sample runs the kernel once on every CPU this
    process may use and records their mean: for work that runs in several
    processes at once (the serving cluster).  Otherwise the kernel runs
    where this process runs: for work done in this process.
    """

    def __init__(self, spread: bool = False) -> None:
        self.samples: list[float] = []
        self._cpus = sorted(os.sched_getaffinity(0)) if spread else []

    def sample(self) -> int:
        """Take one sample; returns its index, to scale the measurement that follows."""
        if not self._cpus:
            self.samples.append(calibration_kernel())
            return len(self.samples) - 1
        times = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_kernel())
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.samples.append(statistics.fmean(times))
        return len(self.samples) - 1

    @property
    def kernel_seconds(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self, index: int) -> float:
        """Reference seconds per wall second around sample ``index``."""
        nearby = self.samples[max(0, index - WINDOW) : index + WINDOW + 1]
        return REFERENCE_KERNEL_SECONDS / statistics.fmean(nearby)
