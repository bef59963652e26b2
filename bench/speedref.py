"""A machine-speed reference for scaling host times.

On a shared machine the host runs the same code 10-100% slower for
seconds to minutes at a time when neighbours load it.  The slowdown
changes within a run, and it is not preemption: the process's CPU time
grows with its wall time.  How much a piece of code slows depends on
what it does, and how that varies with the neighbours' load: over
several minutes of ops timed next to candidate kernels, a plain
arithmetic loop slowed less than the replay workloads at some times and
more at others, and a loop that allocates and sorts small records
slowed more than any workload.  Of the kernels tried, the geometric
mean of those two tracked the four workloads best, so that is the
reference: two short kernels, both the benchmark's own code, so a
change to the program never moves them.

The harness samples the reference before the first op, after every
``SEGMENT_S`` of op time and after the last op, and divides each op's
time by the slowdown around it: the mean of the two samples that
bracket its segment.  A slowdown that comes and goes within a run is
thus scaled where it happened.  Set-up is scaled the same way, with
the import of the program and each set-up step in place of the ops.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List, Sequence

# The kernels' sizes.  NOMINAL_S is each kernel's time on a quiet
# 2-vCPU sandbox (Python 3.11), the 2nd percentile of 2,000 samples
# taken over ten minutes; it fixes the scale of every scaled host time:
# change a size and its nominal must be measured again.
SPIN_STEPS = 50_000
RECORDS = 3_000
NOMINAL_S = {"spin": 0.00300, "alloc": 0.00365}
SEGMENT_S = 0.2   # op time between two samples


def _spin() -> int:
    total = 0
    for i in range(SPIN_STEPS):
        total += i * i
    return total


def _alloc() -> float:
    """Build, sort and drain small records; all garbage on return."""
    rng = random.Random(2)
    records = [{"t": rng.random(), "id": i, "span": [i * 0.5, i * 0.25]}
               for i in range(RECORDS)]
    records.sort(key=lambda record: record["t"])
    heap: List = []
    total = 0.0
    for record in records:
        heapq.heappush(heap, (record["t"], record["id"]))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        total += sum(record["span"])
    return total


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def kernel_slowdown() -> float:
    """One reading: the geometric mean of the two kernels' times over
    their nominal, > 1 when slow.  The collector is paused meanwhile,
    so the records (freed by reference counting) neither trigger the
    program's collections nor bring them forward."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        spin = _timed(_spin) / NOMINAL_S["spin"]
        alloc = _timed(_alloc) / NOMINAL_S["alloc"]
    finally:
        if enabled:
            gc.enable()
    return (spin * alloc) ** 0.5


class SpeedReference:
    """Slowdown samples, each marked with the number of ops timed
    before it."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.marks: List[int] = []

    def sample(self, ops_done: int) -> None:
        self.samples.append(kernel_slowdown())
        self.marks.append(ops_done)

    def scale(self, times: Sequence[float]) -> List[float]:
        """Each op time over the mean of the samples bracketing it;
        needs a sample before the first op and one after the last."""
        scaled = list(times)
        for k in range(len(self.marks) - 1):
            slowdown = (self.samples[k] + self.samples[k + 1]) / 2
            for i in range(self.marks[k], self.marks[k + 1]):
                scaled[i] = times[i] / slowdown
        return scaled
