"""Single-producer-single-consumer channels.

The paper's implementation coordinates the parse/load/issue host threads
with SPSC channels (Sec. III-D); this module provides the simulated
equivalent.  Channels are unbounded: the parser runs ahead of the
loader by design (the milestone depends on it), so no producer ever
waits on a slot.  ``put`` and ``get`` return events to be yielded from
a process.  A channel can be *closed* by the producer; pending and
subsequent ``get`` calls then resolve to :data:`ChannelClosed`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Channel", "ChannelClosed"]


class _ChannelClosedType:
    """Sentinel delivered to getters of a closed, drained channel."""

    _instance: Optional["_ChannelClosedType"] = None

    def __new__(cls) -> "_ChannelClosedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ChannelClosed"


ChannelClosed = _ChannelClosedType()


class Channel:
    """Unbounded FIFO channel."""

    def __init__(self, env: Environment, name: str = "channel") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event has already triggered.

        The event still takes its sequence number, as every event does,
        so the kernel's tie-breaks stay those of a yielded put.
        """
        if self._closed:
            raise SimulationError(f"put() on closed channel {self.name!r}")
        event = self.env.event()
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        event.succeed()
        return event

    def get(self) -> Event:
        """Dequeue an item; the returned event triggers with the item.

        On a closed and drained channel the event triggers with
        :data:`ChannelClosed` instead.
        """
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.succeed(ChannelClosed)
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        """Mark the channel closed; wakes getters once items drain.

        A pending ``get`` receives :data:`ChannelClosed` (after any
        buffered items), so closing never leaves a consumer parked
        forever -- the property a crashed or stalled peer thread relies
        on to unwind cleanly.
        """
        if self._closed:
            return
        self._closed = True
        if not self._items:
            while self._getters:
                self._getters.popleft().succeed(ChannelClosed)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<Channel {self.name} {state} items={len(self._items)} "
                f"getters={len(self._getters)}>")
