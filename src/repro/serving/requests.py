"""Request traces: deterministic workload generation.

The paper motivates PASK with spot serving, serverless scaling and edge
computing, and cites cloud traces with several seconds between requests
landing on the same instance (Sec. VI).  This module generates
reproducible arrival traces for the cluster simulator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["RequestTrace", "poisson_trace", "burst_trace", "periodic_trace",
           "diurnal_trace", "bursty_trace"]


@dataclass(frozen=True)
class RequestTrace:
    """A sequence of request arrival times for one model."""

    model: str
    arrivals: Tuple[float, ...]
    batch: int = 1

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise ValueError("a trace needs at least one request")
        if not all(map(math.isfinite, self.arrivals)):
            raise ValueError("non-finite arrival time")
        if any(t < 0 for t in self.arrivals):
            raise ValueError("negative arrival time")
        if list(self.arrivals) != sorted(self.arrivals):
            raise ValueError("arrivals must be sorted")
        if self.batch <= 0:
            raise ValueError("batch must be positive")

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """Time of the last arrival."""
        return self.arrivals[-1]

    @property
    def mean_interarrival(self) -> float:
        """Average gap between consecutive requests."""
        if len(self.arrivals) < 2:
            return 0.0
        gaps = [b - a for a, b in zip(self.arrivals, self.arrivals[1:])]
        return sum(gaps) / len(gaps)


def poisson_trace(model: str, rate_hz: float, duration_s: float,
                  seed: int = 0, batch: int = 1) -> RequestTrace:
    """Poisson arrivals at ``rate_hz`` for ``duration_s`` (deterministic
    per seed; always contains at least the t=0 request)."""
    if not (0 < rate_hz < math.inf and 0 < duration_s < math.inf):
        raise ValueError("rate and duration must be positive and finite")
    rng = random.Random(seed)
    arrivals: List[float] = [0.0]
    t = 0.0
    while True:
        t += -math.log(1.0 - rng.random()) / rate_hz
        if t > duration_s:
            break
        arrivals.append(t)
    return RequestTrace(model, tuple(arrivals), batch)


def burst_trace(model: str, burst_size: int, spacing_s: float = 0.0,
                batch: int = 1) -> RequestTrace:
    """A spike: ``burst_size`` requests arriving ~simultaneously."""
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if not 0 <= spacing_s < math.inf:
        raise ValueError("spacing must be non-negative and finite")
    arrivals = tuple(i * spacing_s for i in range(burst_size))
    return RequestTrace(model, arrivals, batch)


def periodic_trace(model: str, period_s: float, count: int,
                   batch: int = 1) -> RequestTrace:
    """Evenly spaced requests (an edge-device sensor loop)."""
    if not 0 < period_s < math.inf or count <= 0:
        raise ValueError("period and count must be positive and finite")
    arrivals = tuple(i * period_s for i in range(count))
    return RequestTrace(model, arrivals, batch)


def _thinned_trace(model: str, rate_at, peak_hz: float, duration_s: float,
                   seed: int, batch: int) -> RequestTrace:
    """Nonhomogeneous Poisson arrivals by thinning: candidates at the
    peak rate, accepted with probability ``rate_at(t) / peak_hz``.

    Deterministic per seed; always contains at least the t=0 request,
    matching :func:`poisson_trace`."""
    rng = random.Random(seed)
    arrivals: List[float] = [0.0]
    t = 0.0
    while True:
        t += -math.log(1.0 - rng.random()) / peak_hz
        if t > duration_s:
            break
        if rng.random() < rate_at(t) / peak_hz:
            arrivals.append(t)
    return RequestTrace(model, tuple(arrivals), batch)


def diurnal_trace(model: str, base_rate_hz: float, peak_rate_hz: float,
                  period_s: float, duration_s: float,
                  seed: int = 0, batch: int = 1) -> RequestTrace:
    """Diurnal arrivals: a sinusoidal rate cycling between ``base`` (the
    trough, at t=0) and ``peak`` once per ``period_s``.

    The fleet layer's canonical day/night workload: autoscalers that
    scale to zero in the trough and must re-warm for the peak see
    exactly the cold-start exposure the paper's serverless scenario
    describes.  Deterministic per seed.
    """
    if not 0 < base_rate_hz <= peak_rate_hz < math.inf:
        raise ValueError("need 0 < base_rate_hz <= peak_rate_hz < inf")
    if not (0 < period_s < math.inf and 0 < duration_s < math.inf):
        raise ValueError("period and duration must be positive and finite")

    def rate_at(t: float) -> float:
        phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period_s))
        return base_rate_hz + (peak_rate_hz - base_rate_hz) * phase

    return _thinned_trace(model, rate_at, peak_rate_hz, duration_s,
                          seed, batch)


def bursty_trace(model: str, base_rate_hz: float, burst_rate_hz: float,
                 burst_every_s: float, burst_duration_s: float,
                 duration_s: float, seed: int = 0,
                 batch: int = 1) -> RequestTrace:
    """On/off modulated Poisson arrivals (a two-state MMPP with a
    deterministic phase schedule): every ``burst_every_s`` the rate
    jumps from ``base`` to ``burst`` for ``burst_duration_s``.

    Bursts starting from an idle (scaled-down) pool are the adversarial
    input for autoscaling hysteresis.  Deterministic per seed.
    """
    if not 0 < base_rate_hz <= burst_rate_hz < math.inf:
        raise ValueError("need 0 < base_rate_hz <= burst_rate_hz < inf")
    if not (0 < burst_every_s < math.inf and 0 < duration_s < math.inf):
        raise ValueError("burst period and duration must be positive and "
                         "finite")
    if not 0 <= burst_duration_s <= burst_every_s:
        raise ValueError("burst_duration_s must fit inside burst_every_s")

    def rate_at(t: float) -> float:
        in_burst = (t % burst_every_s) < burst_duration_s
        return burst_rate_hz if in_burst else base_rate_hz

    return _thinned_trace(model, rate_at, burst_rate_hz, duration_s,
                          seed, batch)
