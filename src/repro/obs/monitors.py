"""Streaming SLO monitors: sliding-window burn-rate alerting.

A declared :class:`SLOPolicy` names the targets a replay is held to —
availability, tail latency, cold-serve rate — and a
:class:`SLOMonitorSet` evaluates them *during* the replay over a
sliding time window, emitting deterministic :class:`Alert` events when
a monitor starts or stops burning.  Everything here is dependency-free
and pure-deterministic: the same observation stream always produces the
same alerts, so sharded replays that feed the monitors in global
arrival order reproduce the serial alert stream byte for byte (pinned
by ``tests/test_fleet_obs.py``).

Monitors follow the burn-rate alerting model: the availability monitor
fires when the windowed error rate consumes the error budget
``(1 - target)`` faster than ``burn_threshold`` times the sustainable
rate; the p99 and cold-rate monitors fire on direct threshold crossings
of their windowed statistic.  Each monitor is a two-state machine
(quiet -> firing -> resolved) so alert streams stay sparse under
sustained degradation.

Observations never touch simulation state — attaching monitors to a
replay leaves every latency, counter and trace byte-identical
(the same no-perturbation contract as the rest of :mod:`repro.obs`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["SLOPolicy", "Alert", "SLOMonitorSet", "validate_monitors",
           "emit_alert_spans"]


@dataclass(frozen=True)
class SLOPolicy:
    """A declared service-level objective for a replay.

    ``availability_target`` is always monitored; ``p99_target_s`` and
    ``cold_rate_target`` add their monitors when set.  ``window_s`` is
    the sliding evaluation window (simulated seconds) and
    ``burn_threshold`` the burn-rate multiple at which the availability
    monitor fires (1.0 = burning budget exactly at the sustainable
    rate).
    """

    availability_target: float = 0.999
    p99_target_s: Optional[float] = None
    cold_rate_target: Optional[float] = None
    window_s: float = 5.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if (self.p99_target_s is not None
                and not 0 < self.p99_target_s < math.inf):
            raise ValueError("p99_target_s must be positive and finite")
        if (self.cold_rate_target is not None
                and not 0.0 <= self.cold_rate_target < 1.0):
            raise ValueError("cold_rate_target must be in [0, 1)")
        if not 0 < self.window_s < math.inf:
            raise ValueError("window_s must be positive and finite")
        if not 0 < self.burn_threshold < math.inf:
            raise ValueError("burn_threshold must be positive and finite")


@dataclass(frozen=True)
class Alert:
    """One monitor transition: it started (``firing``) or stopped
    (``resolved``) violating its objective at simulated time ``t``."""

    monitor: str               # "availability" | "p99" | "cold-rate"
    state: str                 # "firing" | "resolved"
    t: float
    value: float               # the windowed statistic at transition
    threshold: float           # what it was compared against


class _Monitor:
    """Shared two-state (quiet/firing) sliding-window machine."""

    __slots__ = ("name", "threshold", "window_s", "firing", "alerts",
                 "worst")

    def __init__(self, name: str, threshold: float,
                 window_s: float) -> None:
        self.name = name
        self.threshold = threshold
        self.window_s = window_s
        self.firing = False
        self.alerts = 0          # firing transitions (not resolutions)
        self.worst = 0.0

    def _transition(self, t: float, value: float, violating: bool,
                    out: List[Alert]) -> None:
        if value > self.worst:
            self.worst = value
        if violating and not self.firing:
            self.firing = True
            self.alerts += 1
            out.append(Alert(self.name, "firing", t, value,
                             self.threshold))
        elif not violating and self.firing:
            self.firing = False
            out.append(Alert(self.name, "resolved", t, value,
                             self.threshold))


class _AvailabilityMonitor(_Monitor):
    """Error-budget burn rate over the window.

    ``burn = windowed_error_rate / (1 - target)`` — a burn of 1.0 means
    the budget is being spent exactly as fast as the SLO allows over a
    full compliance period; the monitor fires at ``burn_threshold``.
    """

    __slots__ = ("budget", "_events", "_errors")

    def __init__(self, target: float, burn_threshold: float,
                 window_s: float) -> None:
        super().__init__("availability", burn_threshold, window_s)
        self.budget = 1.0 - target
        self._events: deque = deque()   # (t, ok)
        self._errors = 0

    def observe(self, t: float, ok: bool, out: List[Alert]) -> None:
        events = self._events
        events.append((t, ok))
        if not ok:
            self._errors += 1
        horizon = t - self.window_s
        while events and events[0][0] < horizon:
            _, was_ok = events.popleft()
            if not was_ok:
                self._errors -= 1
        error_rate = self._errors / len(events)
        burn = error_rate / self.budget
        self._transition(t, burn, burn > self.threshold, out)


class _P99Monitor(_Monitor):
    """Windowed nearest-rank p99 latency vs a latency target."""

    __slots__ = ("_events", "_sorted")

    def __init__(self, target_s: float, window_s: float) -> None:
        super().__init__("p99", target_s, window_s)
        self._events: deque = deque()   # (t, latency)
        self._sorted: List[float] = []  # same latencies, kept ordered

    def observe(self, t: float, latency: float,
                out: List[Alert]) -> None:
        events = self._events
        events.append((t, latency))
        insort(self._sorted, latency)
        horizon = t - self.window_s
        while events and events[0][0] < horizon:
            _, old = events.popleft()
            del self._sorted[bisect_left(self._sorted, old)]
        n = len(self._sorted)
        # Nearest-rank percentile, same convention as serving.metrics.
        rank = max(0, -(-99 * n // 100) - 1)
        p99 = self._sorted[rank]
        self._transition(t, p99, p99 > self.threshold, out)


class _ColdRateMonitor(_Monitor):
    """Fraction of completed serves in the window that paid a cold
    start (restores — the mitigation — do not count)."""

    __slots__ = ("_events", "_cold")

    def __init__(self, target: float, window_s: float) -> None:
        super().__init__("cold-rate", target, window_s)
        self._events: deque = deque()   # (t, cold)
        self._cold = 0

    def observe(self, t: float, cold: bool, out: List[Alert]) -> None:
        events = self._events
        events.append((t, cold))
        if cold:
            self._cold += 1
        horizon = t - self.window_s
        while events and events[0][0] < horizon:
            _, was_cold = events.popleft()
            if was_cold:
                self._cold -= 1
        rate = self._cold / len(events)
        self._transition(t, rate, rate > self.threshold, out)


class SLOMonitorSet:
    """The monitors a replay evaluates, built from one policy.

    The replay loop calls :meth:`observe_completed` /
    :meth:`observe_failed` once per finished request, in arrival order;
    each call returns the alerts that observation triggered (usually
    an empty list).  Sheds are intentionally not observed — availability
    here follows the repo-wide shed-adjusted contract
    (``completed / (completed + failed)``).
    """

    def __init__(self, policy: SLOPolicy) -> None:
        self.policy = policy
        self.alerts: List[Alert] = []
        self.observed = 0
        self._availability = _AvailabilityMonitor(
            policy.availability_target, policy.burn_threshold,
            policy.window_s)
        self._p99 = (_P99Monitor(policy.p99_target_s, policy.window_s)
                     if policy.p99_target_s is not None else None)
        self._cold = (_ColdRateMonitor(policy.cold_rate_target,
                                       policy.window_s)
                      if policy.cold_rate_target is not None else None)

    def _monitors(self) -> List[_Monitor]:
        out: List[_Monitor] = [self._availability]
        if self._p99 is not None:
            out.append(self._p99)
        if self._cold is not None:
            out.append(self._cold)
        return out

    def observe_completed(self, t: float, latency: float,
                          cold: bool) -> List[Alert]:
        """One request completed at arrival time ``t``."""
        self.observed += 1
        fresh: List[Alert] = []
        self._availability.observe(t, True, fresh)
        if self._p99 is not None:
            self._p99.observe(t, latency, fresh)
        if self._cold is not None:
            self._cold.observe(t, cold, fresh)
        self.alerts.extend(fresh)
        return fresh

    def observe_failed(self, t: float) -> List[Alert]:
        """One request explicitly failed at arrival time ``t``."""
        self.observed += 1
        fresh: List[Alert] = []
        self._availability.observe(t, False, fresh)
        self.alerts.extend(fresh)
        return fresh

    def summary(self) -> Dict[str, Any]:
        """JSON-safe digest: per-monitor verdicts plus the full alert
        stream (``FleetStats.monitors`` and the fleet payload's
        ``monitors`` key)."""
        monitors: Dict[str, Any] = {}
        for monitor in self._monitors():
            monitors[monitor.name] = {
                "threshold": monitor.threshold,
                "worst": monitor.worst,
                "fired": monitor.alerts,
                "firing": monitor.firing,
            }
        return {
            "window_s": self.policy.window_s,
            "observed": self.observed,
            "monitors": monitors,
            "alerts": [{"monitor": a.monitor, "state": a.state,
                        "t": a.t, "value": a.value,
                        "threshold": a.threshold}
                       for a in self.alerts],
        }


def emit_alert_spans(spans, alerts: List[Alert]) -> None:
    """Mirror alerts into zero-duration ``alert``-category spans.

    One shared emitter keeps the span arguments identical wherever the
    monitors run (serial fleet loop, cluster stepping loop, sharded
    merge replay) — that is what makes the sharded span stream
    byte-identical to serial.
    """
    for alert in alerts:
        spans.event(f"slo:{alert.monitor}", alert.t, actor="slo",
                    category="alert", state=alert.state,
                    value=alert.value, threshold=alert.threshold)


_MONITOR_NAMES = ("availability", "p99", "cold-rate")
_ALERT_STATES = ("firing", "resolved")


def validate_monitors(payload: Any) -> List[str]:
    """Structural validation of one :meth:`SLOMonitorSet.summary` dump
    (``FleetStats.monitors``)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["monitors summary must be an object"]
    window = payload.get("window_s")
    if not isinstance(window, (int, float)) or window <= 0:
        errors.append("window_s must be a positive number")
    observed = payload.get("observed")
    if not isinstance(observed, int) or observed < 0:
        errors.append("observed must be a non-negative integer")
    monitors = payload.get("monitors")
    if not isinstance(monitors, dict) or "availability" not in monitors:
        errors.append("monitors must be an object with at least "
                      "'availability'")
        monitors = {}
    for name, entry in monitors.items():
        where = f"monitor {name!r}"
        if name not in _MONITOR_NAMES:
            errors.append(f"{where}: unknown monitor")
            continue
        if not isinstance(entry, dict):
            errors.append(f"{where}: entry must be an object")
            continue
        for field in ("threshold", "worst"):
            if not isinstance(entry.get(field), (int, float)):
                errors.append(f"{where}: {field} must be a number")
        if not isinstance(entry.get("fired"), int) or entry["fired"] < 0:
            errors.append(f"{where}: fired must be a non-negative "
                          "integer")
        if not isinstance(entry.get("firing"), bool):
            errors.append(f"{where}: firing must be a boolean")
    alerts = payload.get("alerts")
    if not isinstance(alerts, list):
        return errors + ["alerts must be a list"]
    last_t = None
    for i, alert in enumerate(alerts):
        where = f"alert[{i}]"
        if not isinstance(alert, dict):
            errors.append(f"{where}: must be an object")
            continue
        if alert.get("monitor") not in _MONITOR_NAMES:
            errors.append(f"{where}: unknown monitor "
                          f"{alert.get('monitor')!r}")
        if alert.get("state") not in _ALERT_STATES:
            errors.append(f"{where}: unknown state {alert.get('state')!r}")
        t = alert.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            errors.append(f"{where}: t must be a non-negative number")
        elif last_t is not None and t < last_t:
            errors.append(f"{where}: alerts must be time-ordered")
        else:
            last_t = t
    return errors
