"""Unit tests for SPSC channels."""

import pytest

from repro.sim import Channel, ChannelClosed, Environment, SimulationError


def test_put_then_get_fifo():
    env = Environment()
    channel = Channel(env)
    received = []

    def producer():
        for item in (1, 2, 3):
            yield channel.put(item)

    def consumer():
        for _ in range(3):
            item = yield channel.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [1, 2, 3]


def test_get_blocks_until_put():
    env = Environment()
    channel = Channel(env)
    log = []

    def consumer():
        item = yield channel.get()
        log.append((item, env.now))

    def producer():
        yield env.timeout(5.0)
        yield channel.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [("late", 5.0)]


def test_close_wakes_blocked_getter_with_sentinel():
    env = Environment()
    channel = Channel(env)
    seen = []

    def consumer():
        item = yield channel.get()
        seen.append(item)

    def closer():
        yield env.timeout(1.0)
        channel.close()

    env.process(consumer())
    env.process(closer())
    env.run()
    assert seen == [ChannelClosed]


def test_close_drains_remaining_items_first():
    env = Environment()
    channel = Channel(env)
    seen = []

    def producer():
        yield channel.put(1)
        yield channel.put(2)
        channel.close()

    def consumer():
        while True:
            item = yield channel.get()
            if item is ChannelClosed:
                break
            seen.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert seen == [1, 2]


def test_put_on_closed_channel_rejected():
    env = Environment()
    channel = Channel(env)
    channel.close()
    with pytest.raises(SimulationError):
        channel.put(1)


def test_get_on_closed_empty_channel_returns_sentinel_immediately():
    env = Environment()
    channel = Channel(env)
    channel.close()
    event = channel.get()
    assert event.triggered
    assert event.value is ChannelClosed


def test_len_reflects_buffered_items():
    env = Environment()
    channel = Channel(env)
    channel.put("x")
    channel.put("y")
    assert len(channel) == 2
    channel.get()
    assert len(channel) == 1


def test_handoff_to_waiting_getter_skips_buffer():
    env = Environment()
    channel = Channel(env)
    log = []

    def consumer():
        item = yield channel.get()
        log.append(item)

    def producer():
        yield env.timeout(1.0)
        yield channel.put("direct")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == ["direct"]
    assert len(channel) == 0


def test_pipeline_of_two_channels():
    """Parse -> load -> issue style pipeline preserves order end-to-end."""
    env = Environment()
    stage1 = Channel(env, name="parse->load")
    stage2 = Channel(env, name="load->issue")
    out = []

    def parser():
        for i in range(5):
            yield env.timeout(0.1)
            yield stage1.put(i)
        stage1.close()

    def loader():
        while True:
            item = yield stage1.get()
            if item is ChannelClosed:
                stage2.close()
                return
            yield env.timeout(0.5)
            yield stage2.put(item)

    def issuer():
        while True:
            item = yield stage2.get()
            if item is ChannelClosed:
                return
            out.append((item, round(env.now, 6)))

    env.process(parser())
    env.process(loader())
    env.process(issuer())
    env.run()
    assert [item for item, _ in out] == [0, 1, 2, 3, 4]
    # Loading (0.5) dominates parsing (0.1): items leave every 0.5s.
    assert out[-1][1] == pytest.approx(0.1 + 5 * 0.5)


# ----------------------------------------------------------------------
# Regression: close() with parked processes (fault-injection hang)
# ----------------------------------------------------------------------
# A crashed peer closing a channel must never leave a process parked
# forever -- the exact hang a stalled-loader fault would trigger.

def test_close_during_pending_get_delivers_sentinel_not_hang():
    env = Environment()
    channel = Channel(env)
    seen = []

    def consumer():
        while True:
            item = yield channel.get()
            if item is ChannelClosed:
                seen.append("closed")
                return
            seen.append(item)

    def dying_producer():
        yield channel.put(1)
        yield env.timeout(0.5)
        channel.close()  # crash mid-stream with the consumer blocked

    env.process(consumer())
    env.process(dying_producer())
    env.run()
    assert seen == [1, "closed"]


def test_stalled_pipeline_unwinds_cleanly_on_close():
    # Three-stage pipeline shaped like parse -> load -> issue.  The
    # middle stage crashes and closes its outbox: the issuer drains what
    # was sent and unparks on the ChannelClosed sentinel, and the
    # parser, whose puts never block, runs to the end.  No process is
    # left waiting.
    env = Environment()
    upstream = Channel(env)
    downstream = Channel(env)
    events = []

    def parser():
        for i in range(10):
            yield upstream.put(i)
        upstream.close()
        events.append("parser-done")

    def crashing_loader():
        item = yield upstream.get()
        yield downstream.put(item)
        yield env.timeout(1.0)
        # Simulated crash: close the outbox on the way out.
        downstream.close()

    def issuer():
        while True:
            item = yield downstream.get()
            if item is ChannelClosed:
                events.append("issuer-stopped")
                return
            events.append(("issued", item))

    processes = [env.process(parser()), env.process(crashing_loader()),
                 env.process(issuer())]
    env.run()
    assert events == [("issued", 0), "parser-done", "issuer-stopped"]
    assert all(process.triggered for process in processes)
    assert len(upstream) == 9
