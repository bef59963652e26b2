"""Unit tests for the discrete-event simulation kernel."""

import math

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = {}

    def proc():
        yield env.timeout(2.5)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 2.5
    assert env.now == 2.5


def test_timeout_carries_value():
    env = Environment()
    seen = {}

    def proc():
        value = yield env.timeout(1.0, value="payload")
        seen["value"] = value

    env.process(proc())
    env.run()
    assert seen["value"] == "payload"


def test_negative_delay_rejected():
    # NaN would corrupt the heap order and inf would run the clock to inf.
    env = Environment()
    for delay in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            env.timeout(delay)
        with pytest.raises(SimulationError):
            Timeout(env, delay)
    assert env.events_scheduled == 0
    assert env.now == 0.0


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            order.append((name, env.now))

    env.process(proc("a", 1.0))
    env.process(proc("b", 1.5))
    env.run()
    # At t=3.0 both fire; b's timeout was scheduled earlier (t=1.5 vs t=2.0)
    # so FIFO tie-breaking runs b first.
    assert order == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                     ("a", 3.0), ("b", 4.5)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = {}

    def waiter():
        value = yield gate
        seen["value"] = value
        seen["time"] = env.now

    def opener():
        yield env.timeout(4.0)
        gate.succeed(42)

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen == {"value": 42, "time": 4.0}


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = {}

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught["exc"] = str(exc)

    env.process(waiter())
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught["exc"] == "boom"


def test_yield_already_triggered_event():
    env = Environment()
    event = env.event()
    event.succeed("early")
    seen = {}

    def proc():
        value = yield event
        seen["value"] = value

    env.process(proc())
    env.run()
    assert seen["value"] == "early"


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return "result"

    process = env.process(proc())
    assert env.run(until=process) == "result"


def test_process_waits_on_other_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2.0)
        return "child-done"

    def parent():
        result = yield env.process(child())
        log.append((result, env.now))

    env.process(parent())
    env.run()
    assert log == [("child-done", 2.0)]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_event_never_triggering_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        env.run(until=event)


def test_run_until_horizon_processes_events_at_the_horizon():
    # A timeout landing exactly on the horizon must fire, including any
    # zero-delay follow-ups it schedules onto the immediate deque at
    # that same instant.
    env = Environment()
    log = []

    def proc():
        yield env.timeout(2.0)
        log.append(("timeout", env.now))
        yield env.timeout(0.0)  # immediate event at exactly the horizon
        log.append(("immediate", env.now))

    env.process(proc())
    env.run(until=2.0)
    assert log == [("timeout", 2.0), ("immediate", 2.0)]
    assert env.now == 2.0


def test_run_until_horizon_leaves_later_immediates_queued():
    # An immediate scheduled at t=2 by a timeout *beyond* the horizon
    # must not run; one scheduled exactly at the horizon must.
    env = Environment()
    log = []

    def early():
        yield env.timeout(1.0)
        yield env.timeout(0.0)
        log.append(("early", env.now))

    def late():
        yield env.timeout(1.5)
        log.append(("late", env.now))

    env.process(early())
    env.process(late())
    env.run(until=1.0)
    assert log == [("early", 1.0)]
    assert env.now == 1.0
    env.run()  # draining the rest picks the late event back up
    assert log == [("early", 1.0), ("late", 1.5)]


def test_run_until_horizon_takes_a_timeout_landing_on_it():
    # The second timeout is the next event due and lands exactly on the
    # horizon: the process resumes from it before run() returns.
    env = Environment()
    seen = []

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    assert seen == [1.0, 2.0]
    assert env.now == 2.0
    env.run()
    assert seen == [1.0, 2.0, 3.0]


def test_run_until_horizon_leaves_a_timeout_just_past_it_queued():
    env = Environment()
    seen = []
    past = math.nextafter(2.0, math.inf)

    def proc():
        yield env.timeout(1.0)
        seen.append(env.now)
        yield env.timeout(past - env.now)
        seen.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    assert seen == [1.0]
    assert env.now == 2.0
    scheduled = env.events_scheduled
    env.run(until=past)
    assert seen == [1.0, past]
    # Bootstrap, two timeouts; the process ends at the last horizon.
    assert env.events_scheduled == scheduled + 1 == 4


def test_run_resumes_a_lone_process_in_place(monkeypatch):
    # A chain of timeouts nobody else waits on is resumed in one call
    # under run(), and once per event under step(), with the same
    # outcome and the same events scheduled.
    from repro.sim.core import Process

    calls = []
    resume = Process._resume

    def counting(process, event):
        calls.append(event)
        return resume(process, event)

    monkeypatch.setattr(Process, "_resume", counting)
    outcomes = []
    for stepping in (False, True):
        env = Environment()
        del calls[:]

        def chain():
            for delay in (0.0, 1.0, 0.0, 2.5):
                yield env.timeout(delay)
            return env.now

        process = env.process(chain())
        if stepping:
            while not process.processed:
                env.step()
        else:
            env.run(until=process)
        outcomes.append((process.value, env.events_scheduled, len(calls)))
    assert outcomes == [(3.5, 6, 1), (3.5, 6, 5)]


def test_run_into_the_past_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=4.0)


def test_step_dispatches_exactly_one_event():
    # At t=1 a heap entry (b) precedes an immediate one (c) scheduled
    # later at the same instant: each step() takes only the next one.
    env = Environment()
    log = []
    a = env.timeout(1.0)
    b = env.timeout(1.0)
    c = env.event()
    a._add_callback(lambda event: (log.append("a"), c.succeed()))
    b._add_callback(lambda event: log.append("b"))
    c._add_callback(lambda event: log.append("c"))
    for expected in (["a"], ["a", "b"], ["a", "b", "c"]):
        env.step()
        assert log == expected
    with pytest.raises(SimulationError):
        env.step()


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_run_until_non_finite_horizon_rejected(horizon):
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=horizon)
    assert env.now == 0.0


def test_events_scheduled_counts_every_schedule():
    env = Environment()
    assert env.events_scheduled == 0

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run()
    # Bootstrap + timeout + process termination = 3 scheduled events.
    assert env.events_scheduled == 3


def test_all_of_collects_values_in_order():
    env = Environment()
    results = {}

    def proc():
        values = yield env.all_of([env.timeout(3.0, "slow"),
                                   env.timeout(1.0, "fast")])
        results["values"] = values
        results["time"] = env.now

    env.process(proc())
    env.run()
    assert results == {"values": ["slow", "fast"], "time": 3.0}


def test_all_of_empty_triggers_immediately():
    env = Environment()
    combined = AllOf(env, [])
    assert combined.triggered
    assert combined.value == []


def test_process_exception_propagates_to_waiting_parent():
    env = Environment()
    caught = {}

    def child():
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught["exc"] = str(exc)

    env.process(parent())
    env.run()
    assert caught["exc"] == "child failed"


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_tie_breaking_is_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("first", "second", "third"):
        env.process(proc(name))
    env.run()
    assert order == ["first", "second", "third"]


# ---------------------------------------------------------------------------
# Property tests: the optimized kernel (immediate-event deque, lazy
# callback storage, __slots__) must preserve the exact (time, sequence)
# global event ordering of the original single-heap implementation.
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_delays = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=30)


def _firing_order(delays):
    """Schedule one timeout per delay and record the firing order."""
    env = Environment()
    order = []

    def proc(index, delay):
        yield env.timeout(delay)
        order.append((index, env.now))

    for index, delay in enumerate(delays):
        env.process(proc(index, delay))
    env.run()
    return order


@settings(max_examples=200, deadline=None)
@given(_delays)
def test_same_schedule_is_deterministic(delays):
    """Two identical schedules produce identical event orderings."""
    assert _firing_order(delays) == _firing_order(list(delays))


@settings(max_examples=200, deadline=None)
@given(_delays)
def test_global_order_is_time_then_sequence(delays):
    """Events fire sorted by (time, scheduling sequence).

    This pins the zero-delay fast path: immediate events routed through
    the deque must interleave with heap events in exactly the order a
    single priority queue would produce.
    """
    order = _firing_order(delays)
    # Every process does one env.process (seq 2i) then one timeout
    # (seq 2i+1 at creation time 0), so timeout seq order == index order.
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [index for index, _ in order] == expected
    for index, fired_at in order:
        assert fired_at == delays[index]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.floats(min_value=0.0, max_value=5.0,
                 allow_nan=False, allow_infinity=False))
def test_equal_delay_ties_break_fifo(count, delay):
    """N timeouts with the same delay fire in scheduling order."""
    order = _firing_order([delay] * count)
    assert [index for index, _ in order] == list(range(count))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=10))
def test_all_of_preserves_input_order(delays):
    """AllOf yields values in input order and fires at the max delay."""
    env = Environment()
    seen = {}

    def proc():
        values = yield env.all_of(
            [env.timeout(d, value=i) for i, d in enumerate(delays)])
        seen["values"] = values
        seen["time"] = env.now

    env.process(proc())
    env.run()
    assert seen["values"] == list(range(len(delays)))
    assert seen["time"] == max(delays)


@settings(max_examples=50, deadline=None)
@given(_delays)
def test_zero_delay_chain_runs_within_one_instant(delays):
    """A chain of zero timeouts scheduled among real ones never
    advances the clock and still respects FIFO with heap events."""
    env = Environment()
    order = []

    def zero_chain(name, hops):
        for _ in range(hops):
            yield env.timeout(0.0)
        order.append((name, env.now))

    def sleeper(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(zero_chain("chain", min(len(delays), 5)))
    for index, delay in enumerate(delays):
        env.process(sleeper(index, delay))
    env.run()
    chain_pos = [i for i, (name, _) in enumerate(order)
                 if name == "chain"][0]
    assert order[chain_pos][1] == 0.0
    # Everything that fired before the chain also fired at t=0.
    for _, fired_at in order[:chain_pos]:
        assert fired_at == 0.0


# ---------------------------------------------------------------------------
# Property test: every form of ``run`` dispatches exactly what a loop of
# ``step()`` calls does -- the same callbacks at the same instants, in the
# same order, from the same number of scheduled events.
# ---------------------------------------------------------------------------

_instants = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.5])
# ``run`` resumes a process in place when the event it yields is the
# next one due, and ``step`` never does: the actions below cover each
# guard of that shortcut -- a second waiter ("shared"), a failed event
# ("fail") and an event already processed when yielded ("again").
_actions = st.one_of(
    st.tuples(st.just("timeout"), _instants),
    st.tuples(st.just("event"), _instants),
    st.tuples(st.just("all_of"), st.lists(_instants, min_size=1, max_size=3)),
    st.tuples(st.just("shared"), _instants),
    st.tuples(st.just("fail"), _instants),
    st.tuples(st.just("again"), _instants),
)
_scripts = st.lists(st.lists(_actions, max_size=6), min_size=1, max_size=4)


def _start(env, scripts, log):
    """One process per script; every callback logs ``(now, label)``."""

    def triggered_at(delay, name, step, trigger):
        """A bare event, triggered from a timeout's callback."""
        event = env.event()

        def fire(_timeout):
            log.append((env.now, f"{name}.{step}:trigger"))
            trigger(event)
        env.timeout(delay)._add_callback(fire)
        return event

    def watcher(name, step, event):
        value = yield event
        log.append((env.now, f"{name}.{step}:watched {value!r}"))
        yield env.timeout(0.0)
        log.append((env.now, f"{name}.{step}:watcher done"))

    def wait(name, step, action, arg):
        if action in ("timeout", "again"):
            return env.timeout(arg, value=step)
        if action == "event":
            return triggered_at(arg, name, step,
                                lambda event: event.succeed(step))
        if action == "shared":
            # This process waits first, a watcher second.
            event = triggered_at(arg, name, step,
                                 lambda event: event.succeed(step))
            env.process(watcher(name, step, event))
            return event
        if action == "fail":
            error = ValueError(f"{name}.{step}")
            if arg == 0.0:
                # Failed before it is yielded: at the head of the queue
                # when nothing else is due now.
                return env.event().fail(error)
            return triggered_at(arg, name, step,
                                lambda event: event.fail(error))
        return env.all_of([env.timeout(delay, value=i)
                           for i, delay in enumerate(arg)])

    def body(name, script):
        for step, (action, arg) in enumerate(script):
            event = wait(name, step, action, arg)
            try:
                value = yield event
                if action == "again":
                    # Processed by now: the process resumes at once.
                    value = (value, (yield event))
            except ValueError as error:
                value = f"failed {error}"
            log.append((env.now, f"{name}.{step}:{value!r}"))
        return name

    return [env.process(body(name, script), name=f"p{name}")
            for name, script in enumerate(scripts)]


def _next_time(env):
    heads = [entries[0][0] for entries in (env._immediate, env._queue)
             if entries]
    return min(heads) if heads else None


@settings(max_examples=200, deadline=None)
@given(_scripts, st.sampled_from(["drain", "horizon", "event"]),
       st.sampled_from([0.0, 0.5, 1.0, 1.2, 2.5, 4.0]))
def test_every_run_form_dispatches_what_step_does(scripts, form, horizon):
    runs = []
    for stepping in (False, True):
        env = Environment()
        log = []
        processes = _start(env, scripts, log)
        if form == "drain":
            if stepping:
                while _next_time(env) is not None:
                    env.step()
            else:
                env.run()
        elif form == "horizon":
            if stepping:
                upcoming = _next_time(env)
                while upcoming is not None and upcoming <= horizon:
                    env.step()
                    upcoming = _next_time(env)
            else:
                env.run(until=horizon)
                assert env.now == horizon
        else:
            awaited = processes[-1]
            if stepping:
                while not awaited.processed:
                    env.step()
            else:
                assert env.run(until=awaited) == len(processes) - 1
        midway = (list(log), env.events_scheduled)
        env.run()   # whatever the form left queued
        # Only run(until=horizon) moves the clock past the last event.
        clock = None if form == "horizon" else env.now
        runs.append((midway, log, env.events_scheduled, clock))
    assert runs[0] == runs[1]
