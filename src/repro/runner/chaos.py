"""The resilience policies of the ``chaos`` scenario's resilient legs.

:mod:`repro.runner.scenarios` runs the scenario; the policies live here
so replays elsewhere can reuse the exact policy behind the checked-in
``benchmarks/chaos_resilience_report.json``.
"""

from repro.serving.resilience import ResiliencePolicy

__all__ = ["CRASH_POLICY", "OVERLOAD_POLICY"]

# The resilient leg of the crash-heavy scenario: frequent checkpoints
# (the trace is seconds long) with the breaker off — crashes in this
# scenario strike uniformly at random, so excluding a crashed instance
# only concentrates load on the survivors; the breaker pays off against
# *crash-looping* instances (see the unit tests), not uniform churn.
CRASH_POLICY = ResiliencePolicy(checkpoint_interval_s=0.25,
                                breaker_threshold=None)

# The resilient leg of the overload scenario: admission control only —
# checkpoints and the breaker stay off so the comparison isolates the
# shedding/degradation mechanisms.
OVERLOAD_POLICY = ResiliencePolicy(
    checkpoint_interval_s=None, breaker_threshold=None,
    max_queue_depth=64, shed_wait_s=0.02, degrade_wait_s=0.01)
