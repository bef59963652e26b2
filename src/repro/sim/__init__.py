"""Discrete-event simulation substrate.

A small, deterministic, SimPy-like kernel used by every other subsystem in
the reproduction: the HIP runtime, the GPU stream, PASK's host threads and
the serving harness all run as generator-based processes over one shared
simulated clock.

The design intentionally mirrors the concurrency primitives the paper's
implementation uses: host threads become :class:`~repro.sim.core.Process`
objects, and the single-producer-single-consumer channels coordinating the
parse/load/issue threads (Sec. III-D) become :class:`~repro.sim.channel.Channel`,
unbounded because the parser runs ahead of the loader by design.
"""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.faults import (
    FaultCounters,
    FaultError,
    FaultInjector,
    FaultPlan,
    InstanceCrash,
    LaunchFault,
    LoadFault,
)
from repro.sim.trace import Phase, TraceRecord, TraceRecorder, merge_intervals

__all__ = [
    "AllOf",
    "Channel",
    "ChannelClosed",
    "Environment",
    "Event",
    "FaultCounters",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "InstanceCrash",
    "LaunchFault",
    "LoadFault",
    "Phase",
    "Process",
    "SimulationError",
    "Timeout",
    "TraceRecord",
    "TraceRecorder",
    "merge_intervals",
]
