"""HIP-like host runtime with lazy code-object loading.

The runtime owns the set of loaded modules (the "managed host memory" of
Sec. II-A).  Its API is generator-based: callers drive it with
``yield from`` inside a simulation process, and all costs are billed to
the calling process on the simulated clock.

Two behaviours from the paper are reproduced exactly:

- **Lazy loading**: :meth:`HipRuntime.launch_kernel` loads an absent code
  object on demand, blocking the calling (launching) thread -- the
  reactive behaviour that produces cold-start stalls.
- **Load coalescing**: if a second thread requests a module already being
  loaded (PASK's loading thread racing the issuing thread), it waits on
  the in-flight load instead of duplicating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.gpu.codeobject import CodeObjectFile
from repro.gpu.device import DeviceSpec
from repro.gpu.loader import (checkpoint_time, load_time, restore_time,
                              symbol_resolve_time)
from repro.gpu.stream import Stream
from repro.obs.spans import NULL_RECORDER
from repro.sim.core import Environment, Event
from repro.sim.faults import (CheckpointFault, FaultInjector, FaultPlan,
                              LaunchFault, LoadFault, RestoreFault)
from repro.sim.trace import Phase, TraceRecorder

__all__ = ["HipModule", "HipRuntime", "KernelNotLoadedError",
           "RuntimeSnapshot"]


class KernelNotLoadedError(Exception):
    """Raised when launching with ``lazy=False`` and the module is absent."""


@dataclass(frozen=True)
class RuntimeSnapshot:
    """Immutable warm-state checkpoint of a runtime's loaded modules.

    Captures, per module, the code object and the set of symbols already
    resolved -- enough to re-materialize the managed host memory without
    replaying the per-module load + relocation + resolve sequence
    (GPUReplay-style record/replay of the registry).  ``corrupt`` marks a
    checkpoint whose write was silently damaged by an injected
    ``checkpoint.write`` fault; the damage surfaces only when the
    snapshot is restored.
    """

    device_name: str
    taken_at: float
    entries: Tuple[Tuple[CodeObjectFile, FrozenSet[str]], ...]
    corrupt: bool = False

    @property
    def size_bytes(self) -> int:
        """Total bytes of code objects captured in this snapshot."""
        return sum(co.size_bytes for co, _ in self.entries)

    @property
    def names(self) -> FrozenSet[str]:
        """Names of the code objects captured in this snapshot."""
        return frozenset(co.name for co, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class HipModule:
    """A loaded code object plus its resolved symbols."""

    code_object: CodeObjectFile
    loaded_at: float
    resolved_symbols: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        """The loaded code object's name."""
        return self.code_object.name


class HipRuntime:
    """Simulated HIP host runtime bound to one device and one stream."""

    def __init__(self, env: Environment, device: DeviceSpec,
                 faults: Optional[object] = None,
                 spans=None, metrics=None) -> None:
        self.env = env
        self.device = device
        self.trace = TraceRecorder()
        # ``faults`` may be a FaultPlan (a fresh per-run injector is
        # derived) or an already-bound FaultInjector (shared cursor).
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults
        # Telemetry (repro.obs) is opt-in: without an explicit recorder
        # the shared no-op singleton is held and every span call is a
        # free no-op; with one, every trace record mirrors into a span
        # stamped on the simulation clock.
        if spans is not None:
            self.spans = spans
            spans.bind(self.trace, clock=lambda: self.env.now)
        else:
            self.spans = NULL_RECORDER
        self.metrics = metrics
        if metrics is not None:
            self._m_loads = metrics.counter(
                "runtime_loads_total", "Code-object loads completed")
            self._m_load_bytes = metrics.counter(
                "runtime_load_bytes_total", "Bytes of code objects loaded")
            self._m_evictions = metrics.counter(
                "runtime_evictions_total", "Modules dropped by evict_all")
        self.stream = Stream(env, self.trace, faults=self.faults,
                             spans=self.spans)
        self._modules: Dict[str, HipModule] = {}
        self._pending: Dict[str, Event] = {}
        self.load_count = 0
        # Warm-restore accounting: modules that became resident via
        # RuntimeSnapshot.restore() rather than a full load.
        self.restored_names: Set[str] = set()
        self.restored_bytes = 0
        # Model weights still to copy to device memory: set by a server
        # that uploads weights, cleared by the upload, so later requests
        # on this runtime (a session) find them resident.
        self.pending_weight_bytes = 0

    # ------------------------------------------------------------------
    # Module management
    # ------------------------------------------------------------------
    def is_loaded(self, code_object_name: str) -> bool:
        """Whether a code object is resident in managed host memory."""
        return code_object_name in self._modules

    def is_loading(self, code_object_name: str) -> bool:
        """Whether a load for this code object is currently in flight."""
        return code_object_name in self._pending

    @property
    def loaded_modules(self) -> Dict[str, HipModule]:
        """Mapping of loaded code-object name -> module (read-only view)."""
        return dict(self._modules)

    @property
    def loaded_bytes(self) -> int:
        """Total bytes of loaded code objects."""
        return sum(m.code_object.size_bytes for m in self._modules.values())

    def module_load(self, code_object: CodeObjectFile, actor: str = "host",
                    reactive: bool = False):
        """``hipModuleLoad``: load an ELF image (generator, yields events).

        Returns the :class:`HipModule`.  Re-loading a resident module is
        free; a load already in flight is awaited rather than duplicated.
        ``reactive=True`` marks a lazy launch-path load, which pays the
        device's reactive-load penalty.
        """
        name = code_object.name
        if name in self._modules:
            return self._modules[name]
        if name in self._pending:
            yield self._pending[name]
            return self._modules[name]
        done = self.env.event()
        self._pending[name] = done
        duration = load_time(code_object, self.device, reactive=reactive)
        try:
            attempt = 1
            while self.faults is not None and self.faults.load_fails():
                # Injected transient load failure: bill the partial
                # progress, then either back off and retry or give up.
                counters = self.faults.counters
                counters.load_faults += 1
                fault_start = self.env.now
                progress = duration * self.faults.plan.load_failure_progress
                if progress > 0:
                    yield self.env.timeout(progress)
                self.trace.record(fault_start, self.env.now, actor,
                                  Phase.FAULT, f"{name}/load-fault",
                                  attempt=attempt)
                if attempt >= self.faults.plan.max_load_attempts:
                    error = LoadFault(
                        f"load of {name!r} failed after {attempt} attempts")
                    done.fail(error)
                    raise error
                backoff = self.faults.load_backoff(attempt)
                retry_start = self.env.now
                if backoff > 0:
                    yield self.env.timeout(backoff)
                self.trace.record(retry_start, self.env.now, actor,
                                  Phase.RETRY, f"{name}/load-retry",
                                  attempt=attempt)
                counters.load_retries += 1
                attempt += 1
            start = self.env.now
            yield self.env.timeout(duration)
        finally:
            del self._pending[name]
        module = HipModule(code_object, loaded_at=self.env.now)
        self._modules[name] = module
        self.load_count += 1
        self.trace.record(start, self.env.now, actor, Phase.LOAD,
                          name, size=code_object.size_bytes)
        if self.metrics is not None:
            mode = "reactive" if reactive else "proactive"
            self._m_loads.inc(mode=mode, device=self.device.name)
            self._m_load_bytes.inc(code_object.size_bytes, mode=mode,
                                   device=self.device.name)
        done.succeed(module)
        return module

    def get_function(self, module: HipModule, symbol_name: str,
                     actor: str = "host"):
        """``hipModuleGetFunction``: resolve a kernel symbol (generator).

        The lookup cost is billed once per (module, symbol).
        """
        if not module.code_object.has_symbol(symbol_name):
            raise KeyError(
                f"module {module.name!r} exports no symbol {symbol_name!r}")
        if symbol_name in module.resolved_symbols:
            return symbol_name
        start = self.env.now
        yield self.env.timeout(symbol_resolve_time(self.device))
        module.resolved_symbols.add(symbol_name)
        self.trace.record(start, self.env.now, actor, Phase.LOAD,
                          f"{module.name}:{symbol_name}")
        return symbol_name

    def preload(self, code_objects: Iterable[CodeObjectFile]) -> None:
        """Mark code objects resident at zero cost (hot start / Ideal).

        Symbols are marked resolved as well, matching a model that already
        ran at least one full iteration.
        """
        for code_object in code_objects:
            module = HipModule(code_object, loaded_at=self.env.now)
            module.resolved_symbols = {s.name for s in code_object.symbols}
            self._modules[code_object.name] = module

    def evict_all(self) -> None:
        """Drop all loaded modules (a fresh process / cold instance)."""
        if self._pending:
            raise RuntimeError("cannot evict while loads are in flight")
        if self.metrics is not None and self._modules:
            self._m_evictions.inc(len(self._modules),
                                  device=self.device.name)
        self._modules.clear()
        self.restored_names.clear()

    # ------------------------------------------------------------------
    # Warm-state checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self, actor: str = "host"):
        """Write a warm-state checkpoint of the loaded modules (generator).

        Bills a sequential streaming write of the already-relocated
        images (:func:`repro.gpu.loader.checkpoint_time`) and returns an
        immutable :class:`RuntimeSnapshot`.  An injected
        ``checkpoint.write`` fault corrupts the checkpoint *silently*:
        the snapshot is still returned and the damage only surfaces at
        restore time.
        """
        if self._pending:
            raise RuntimeError("cannot snapshot while loads are in flight")
        entries = tuple(
            (module.code_object, frozenset(module.resolved_symbols))
            for module in self._modules.values())
        total = sum(co.size_bytes for co, _ in entries)
        duration = checkpoint_time(total, self.device)
        start = self.env.now
        yield self.env.timeout(duration)
        corrupt = False
        if self.faults is not None and self.faults.checkpoint_corrupts():
            corrupt = True
            self.faults.counters.checkpoint_corruptions += 1
        self.trace.record(start, self.env.now, actor, Phase.CHECKPOINT,
                          "snapshot", size=total, modules=len(entries))
        return RuntimeSnapshot(device_name=self.device.name,
                               taken_at=self.env.now,
                               entries=entries, corrupt=corrupt)

    def restore(self, snapshot: RuntimeSnapshot, actor: str = "host"):
        """Restore a warm-state checkpoint (generator).

        Only the *delta* is billed: modules already resident cost
        nothing, missing ones are read back as one sequential image
        (:func:`repro.gpu.loader.restore_time`) and marked resident with
        their recorded resolved symbols -- no per-module load or resolve
        is replayed, and ``load_count`` does not move.  Raises
        :class:`CheckpointFault` when the snapshot was corrupted on
        write, :class:`RestoreFault` on an injected ``restore.load``
        failure; in both cases the caller must fall back to a cold path.
        """
        if snapshot.device_name != self.device.name:
            raise ValueError(
                f"snapshot taken on device {snapshot.device_name!r} cannot "
                f"be restored on {self.device.name!r}")
        if self._pending:
            raise RuntimeError("cannot restore while loads are in flight")
        missing = [(co, symbols) for co, symbols in snapshot.entries
                   if co.name not in self._modules]
        missing_bytes = sum(co.size_bytes for co, _ in missing)
        duration = restore_time(missing_bytes, self.device)
        start = self.env.now
        yield self.env.timeout(duration)
        if snapshot.corrupt:
            if self.faults is not None:
                self.faults.counters.restore_failures += 1
            self.trace.record(start, self.env.now, actor, Phase.FAULT,
                              "restore/corrupt", size=missing_bytes)
            raise CheckpointFault(
                "checkpoint failed checksum on restore (corrupted on write)")
        if self.faults is not None and self.faults.restore_fails():
            self.faults.counters.restore_failures += 1
            self.trace.record(start, self.env.now, actor, Phase.FAULT,
                              "restore/fault", size=missing_bytes)
            raise RestoreFault("warm-state restore failed")
        for code_object, symbols in missing:
            module = HipModule(code_object, loaded_at=self.env.now)
            module.resolved_symbols = set(symbols)
            self._modules[code_object.name] = module
            self.restored_names.add(code_object.name)
        self.restored_bytes += missing_bytes
        if self.faults is not None:
            self.faults.counters.warm_restores += 1
        self.trace.record(start, self.env.now, actor, Phase.RESTORE,
                          "restore", size=missing_bytes,
                          modules=len(missing))
        if self.metrics is not None:
            self.metrics.counter(
                "runtime_restored_bytes_total",
                "Bytes re-materialized from warm-state checkpoints",
            ).inc(missing_bytes, device=self.device.name)
        return len(missing)

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch_kernel(self, code_object: CodeObjectFile, symbol_name: str,
                      duration: float, actor: str = "host",
                      label: str = "", lazy: bool = True, **meta):
        """Launch one kernel (generator); returns its end time.

        With ``lazy=True`` (default runtime behaviour) an absent code
        object is loaded on demand, stalling the calling thread -- this is
        the reactive path responsible for cold-start latency.  With
        ``lazy=False`` the module must already be resident
        (:class:`KernelNotLoadedError` otherwise), which is how PASK's
        issuing thread asserts that loading already happened.
        """
        name = code_object.name
        if name not in self._modules:
            if not lazy and name not in self._pending:
                raise KernelNotLoadedError(
                    f"code object {name!r} not loaded and lazy loading disabled")
            yield from self.module_load(code_object, actor=actor,
                                        reactive=True)
        module = self._modules[name]
        if symbol_name not in module.resolved_symbols:
            yield from self.get_function(module, symbol_name, actor=actor)
        label = label or symbol_name
        attempt = 1
        while self.faults is not None and self.faults.launch_fails():
            # Injected transient launch error: the failed driver call
            # still costs a launch round-trip before the host re-issues.
            counters = self.faults.counters
            counters.launch_faults += 1
            fault_start = self.env.now
            yield self.env.timeout(self.device.kernel_launch_overhead_s)
            self.trace.record(fault_start, self.env.now, actor, Phase.FAULT,
                              f"{label}/launch-fault", attempt=attempt)
            if attempt >= self.faults.plan.max_launch_attempts:
                raise LaunchFault(
                    f"launch of {symbol_name!r} failed after "
                    f"{attempt} attempts")
            counters.launch_retries += 1
            attempt += 1
        start = self.env.now
        yield self.env.timeout(self.device.kernel_launch_overhead_s)
        self.trace.record(start, self.env.now, actor, Phase.ISSUE, label)
        # Causality: the EXEC span about to be recorded waited on this
        # code object's LOAD span, the symbol resolve, and the CHECK
        # span of its instruction (if any).  No-op when telemetry is off.
        self.spans.stage_exec_links(name, label, f"{name}:{symbol_name}")
        return self.stream.enqueue(duration, label, **meta)

    def synchronize(self):
        """Device synchronize (generator): wait for the stream to drain."""
        start = self.env.now
        yield self.stream.synchronize()
        if self.env.now > start:
            self.trace.record(start, self.env.now, "host", Phase.OTHER, "sync")
