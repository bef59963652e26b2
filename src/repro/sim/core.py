"""Deterministic discrete-event simulation kernel.

The kernel follows the classic event-queue design: an
:class:`Environment` owns a priority queue of scheduled events; processes
are Python generators that yield events and are resumed when those events
trigger.  Ties in time are broken by a monotonically increasing sequence
number, so runs are fully deterministic.

Most events have one waiter and are the next event due when they are
yielded: a lone process's timeout chain.  A process then resumes in
place: it pops that event itself and goes on, without a round trip
through the dispatch loop.  It pops exactly what the loop would have,
every event still takes its sequence number, and :meth:`Environment.step`
never takes the shortcut, so a loop of ``step()`` calls is the
reference every form of :meth:`Environment.run` is checked against.

Only the features needed by the reproduction are implemented, which keeps
the kernel small enough to test exhaustively:

- :class:`Event` with ``succeed``/``fail``,
- :class:`Timeout`,
- :class:`Process` (a generator; also an event that triggers on return),
- the :class:`AllOf` combinator.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import (Any, Callable, Deque, Generator, Iterable, List, Optional,
                    Tuple)

__all__ = [
    "SimulationError",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
]


_INF = math.inf
_new_timeout = object.__new__
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for illegal uses of the simulation kernel."""


class Event:
    """A condition that may trigger at some simulated time.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` has been
    called (directly or by the environment) and *processed* once its
    callbacks have run.  Processes wait on events by ``yield``-ing them.

    The class hierarchy is slotted: simulations create one event per
    scheduled activity, so per-instance ``__dict__`` allocation is pure
    overhead on the hot path.  Subclasses defined outside this module
    simply fall back to having a ``__dict__`` again.
    """

    __slots__ = ("env", "callbacks", "_single_callback", "_value",
                 "_exception", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Lazily allocated: most events in a run (timeouts on the hot
        # path, bootstrap triggers) accrue at most one waiter, so the
        # list only materializes on the second callback.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._single_callback: Optional[Callable[["Event"], None]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value (or exception) and is scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event triggered successfully (no exception)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises the failure exception if it failed."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception propagated to waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Already processed: run the callback immediately so late
            # waiters still observe the value.
            callback(self)
        elif self._single_callback is None and self.callbacks is None:
            self._single_callback = callback
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    @property
    def _has_waiters(self) -> bool:
        """Whether any callback is registered (pre-processing)."""
        return self._single_callback is not None or bool(self.callbacks)

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"


# The stop event of an environment whose dispatch loop is not running.
_IDLE = object.__new__(Event)
_IDLE._processed = True


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    :meth:`Environment.timeout` builds the same event in one call; this
    constructor is the readable form of it.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that triggers when it returns."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: start the generator at the current time.
        bootstrap = Event(env)
        bootstrap._triggered = True
        env._schedule(bootstrap)
        bootstrap._add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        # Resume in place: when the event the generator yields is the
        # one the dispatch loop would pop next, pop it here and go on,
        # instead of returning to the loop only to be called back.  That
        # holds only while the loop has nothing left to do for the event
        # that called us -- no other waiter on it -- and has not reached
        # its stop event; a processed stop (_IDLE) turns the shortcut off.
        stop = env._stop if event.callbacks is None else _IDLE
        immediate = env._immediate
        queue = env._queue
        horizon = env._horizon
        while True:
            exc = event._exception
            try:
                if exc is not None:
                    event = generator.throw(exc)
                else:
                    event = generator.send(event._value)
            except StopIteration as stop_iteration:
                self._value = stop_iteration.value
                self._triggered = True
                env._schedule(self)
                return
            except BaseException as failure:  # propagate to waiters
                self._exception = failure
                self._triggered = True
                env._schedule(self)
                if not self._has_waiters:
                    raise
                return
            if not isinstance(event, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {event!r}, expected an Event")
            if event._processed:
                # A late waiter sees the value at once.
                continue
            if (not stop._processed and event._single_callback is None
                    and event.callbacks is None):
                # Is it the head of the merge, exactly as _dispatch
                # picks it?  An untriggered event is in neither queue.
                if immediate:
                    if queue and queue[0] < immediate[0]:
                        if queue[0][2] is event:
                            _heappop(queue)
                            event._processed = True
                            continue
                    elif immediate[0][2] is event:
                        immediate.popleft()
                        event._processed = True
                        continue
                elif (queue and queue[0][2] is event
                      and queue[0][0] <= horizon):
                    env._now = _heappop(queue)[0]
                    event._processed = True
                    continue
            event._add_callback(self._resume)
            return

    def __repr__(self) -> str:
        state = "finished" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"


class AllOf(Event):
    """Triggers once every constituent event has triggered successfully."""

    __slots__ = ("_pending", "_results", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._pending = list(events)
        self._results: List[Any] = [None] * len(self._pending)
        self._remaining = len(self._pending)
        if self._remaining == 0:
            self.succeed([])
            return
        for index, event in enumerate(self._pending):
            event._add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_done(event: Event) -> None:
            if self._triggered:
                return
            if event._exception is not None:
                self.fail(event._exception)
                return
            self._results[index] = event._value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._results))
        return on_done


class Environment:
    """The simulation environment: clock plus event queue.

    Scheduling is split between two structures sharing one sequence
    counter: a heap for delayed events and a FIFO deque for immediate
    (zero-delay) ones.  Immediate scheduling dominates the hot path —
    every ``succeed``, process bootstrap and process
    termination schedules at the current instant — and the deque makes
    those O(1) instead of paying the heap's O(log n) push *and* pop.
    Because simulated time never decreases, the deque is always sorted
    by ``(time, sequence)``, so comparing the two heads reproduces the
    exact global ordering the single heap had: ties in time still break
    by sequence number, and determinism is preserved bit-for-bit (the
    property tests pin this).

    While :meth:`_dispatch` runs, the environment holds its stop event
    and horizon, so a process can tell whether the loop would pop the
    event it just yielded next, and pop it in place
    (:meth:`Process._resume`).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._immediate: Deque[Tuple[float, int, Event]] = deque()
        self._sequence = 0
        # What the running dispatch loop stops at; a processed event
        # while none runs, so no process resumes in place then.
        self._stop: Event = _IDLE
        self._horizon = _INF

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the sequence counter).

        A cheap volume metric for throughput reporting: every timeout,
        succeed, bootstrap and termination increments it exactly once.
        """
        return self._sequence

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == 0.0:
            self._immediate.append((self._now, sequence, event))
        else:
            _heappush(self._queue, (self._now + delay, sequence, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event triggering ``delay`` time units from now.

        Builds and queues the :class:`Timeout` in this one call: the
        hot path of every simulation, so it skips the constructor chain.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = None
        event._single_callback = None
        event._value = value
        event._exception = None
        event._triggered = True
        event._processed = False
        event.delay = delay
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == 0.0:
            self._immediate.append((self._now, sequence, event))
        else:
            _heappush(self._queue, (self._now + delay, sequence, event))
        return event

    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Start ``generator`` as a process; returns the process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all ``events`` have succeeded."""
        return AllOf(self, events)

    def _dispatch(self, stop: Event, horizon: float) -> None:
        """Pop and dispatch events in ``(time, sequence)`` order until
        ``stop`` is processed, the next event lies beyond ``horizon`` or
        the queue drains -- the one loop behind :meth:`step` and every
        form of :meth:`run`.

        Every entry on the immediate deque is at the current time: the
        clock only advances on a heap pop, and a heap entry is popped
        ahead of a non-empty deque only when it is no later than the
        deque's head.  So only a heap pop moves the clock, and only it
        can cross ``horizon``.
        """
        immediate = self._immediate
        queue = self._queue
        popleft = immediate.popleft
        outer = self._stop, self._horizon
        self._stop = stop
        self._horizon = horizon
        try:
            while not stop._processed:
                if immediate:
                    # Unique sequence numbers mean the tuple comparison
                    # never reaches the (incomparable) Event element.
                    if queue and queue[0] < immediate[0]:
                        event = _heappop(queue)[2]
                    else:
                        event = popleft()[2]
                elif queue:
                    if queue[0][0] > horizon:
                        return
                    self._now, _, event = _heappop(queue)
                else:
                    return
                event._processed = True
                single = event._single_callback
                if single is not None:
                    event._single_callback = None
                    # The other waiters stay attached until they have
                    # run: a process resumes in place only while none
                    # is left (see Process._resume).
                    single(event)
                    callbacks = event.callbacks
                    if callbacks is not None:
                        for callback in callbacks:
                            callback(event)
                        event.callbacks = None
        finally:
            self._stop, self._horizon = outer

    def step(self) -> None:
        """Process the next scheduled event."""
        immediate = self._immediate
        queue = self._queue
        if immediate:
            head = queue[0] if queue and queue[0] < immediate[0] \
                else immediate[0]
        elif queue:
            head = queue[0]
        else:
            raise SimulationError("no more events scheduled")
        self._dispatch(head[2], _INF)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time) or an :class:`Event` (run until it
        is processed, returning its value).
        """
        if isinstance(until, Event):
            self._dispatch(until, _INF)
            if not until._processed:
                raise SimulationError(
                    "simulation ran out of events before the awaited "
                    f"event triggered: {until!r}")
            return until.value
        # A fresh event is never processed: only the horizon or an empty
        # queue ends the loop.
        if until is None:
            self._dispatch(Event(self), _INF)
            return None
        horizon = float(until)
        if not self._now <= horizon < _INF:
            if horizon < self._now:
                raise SimulationError("cannot run into the past")
            raise SimulationError(f"horizon must be finite, got {until!r}")
        self._dispatch(Event(self), horizon)
        self._now = horizon
        return None

    def __repr__(self) -> str:
        queued = len(self._queue) + len(self._immediate)
        return f"<Environment t={self._now:g} queued={queued}>"
