"""An in-order GPU stream.

Kernels enqueue in FIFO order and execute back-to-back on the device.
Enqueueing a kernel returns its end time and schedules nothing: a host
that must wait for the kernel waits ``end - now`` itself, and one that
does not costs the event queue nothing.  The stream records each
execution in the trace with actor ``"gpu"`` so GPU utilization (Fig. 6(b))
is the merged EXEC busy time over the run span.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.obs.spans import NULL_RECORDER
from repro.sim.core import Environment, Event
from repro.sim.faults import FaultInjector
from repro.sim.trace import Phase, TraceRecorder

__all__ = ["Stream"]


class Stream:
    """A single in-order execution queue on one GPU."""

    def __init__(self, env: Environment, trace: Optional[TraceRecorder] = None,
                 name: str = "stream0",
                 faults: Optional[FaultInjector] = None,
                 spans=NULL_RECORDER) -> None:
        self.env = env
        self.trace = trace
        self.name = name
        self.faults = faults
        self.spans = spans if spans is not None else NULL_RECORDER
        self._available_at = 0.0
        self._kernels_executed = 0

    @property
    def available_at(self) -> float:
        """Simulated time at which the stream drains (last kernel ends)."""
        return self._available_at

    @property
    def kernels_executed(self) -> int:
        """Number of kernels enqueued so far."""
        return self._kernels_executed

    def enqueue(self, duration: float, label: str = "kernel", **meta) -> float:
        """Enqueue a kernel taking ``duration`` seconds of GPU time.

        Returns the simulated time at which the kernel completes.  Kernels
        start no earlier than now and no earlier than the previous kernel's
        completion (in-order stream semantics).
        """
        if not 0.0 <= duration < math.inf:
            raise ValueError(
                f"kernel duration must be finite and >= 0, got {duration!r}")
        start = max(self.env.now, self._available_at)
        if self.faults is not None:
            # Injected device-side stall (``stream.enqueue``): the kernel
            # sits in the queue before executing, visibly in the trace.
            stall = self.faults.exec_stall()
            if stall > 0:
                if self.trace is not None:
                    self.trace.record(start, start + stall, "gpu",
                                      Phase.FAULT, f"{label}/exec-stall")
                self.faults.counters.exec_stalls += 1
                start += stall
        end = start + duration
        self._available_at = end
        self._kernels_executed += 1
        if self.trace is not None and duration > 0:
            self.trace.record(start, end, "gpu", Phase.EXEC, label, **meta)
        else:
            # No EXEC record, so any causal links staged for this kernel
            # must not leak onto the next one.
            self.spans.drop_staged()
        return end

    def synchronize(self) -> Event:
        """Event that triggers once all enqueued kernels have completed."""
        remaining = max(0.0, self._available_at - self.env.now)
        return self.env.timeout(remaining)
