"""Extension: trace/metric scaling from 10^3 to 10^6 simulated requests.

Sweeps cluster replays across three orders of magnitude of request count
and pins the two properties the streaming trace layer exists for:

- with ``retention="aggregate"`` the retained record count stays bounded
  by the ring while the aggregates keep counting everything, and
- repeated metric queries cost the same no matter how many records were
  ever ingested (sub-linear — in practice O(1) — query cost).

The emitted table feeds the BENCH report narrative so the next PR has a
wall-clock trajectory to compare against.  CI runs the same measurement
at reduced size through ``repro profile --budget
benchmarks/perf_budget.json`` (layers ``cluster-ff`` and
``cluster-stepping``).
"""

import time

from conftest import emit

from repro.core.schemes import Scheme
from repro.report import format_table
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.sim.trace import Phase

RATE_HZ = 200.0
RING = 1024
SIZES = (1_000, 10_000, 100_000, 1_000_000)
FULL_PATH_CAP = 100_000  # the unbounded path gets slow beyond this
QUERY_REPEATS = 50


def _replay(server, trace, retention, fast_forward):
    config = ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                           keep_alive_s=0.5, trace_retention=retention,
                           trace_ring=RING, fast_forward=fast_forward)
    simulator = ClusterSimulator(server, config)
    began = time.perf_counter()
    stats = simulator.run(trace)
    wall = time.perf_counter() - began
    return stats, wall


def _queries(recorder):
    recorder.busy_time(Phase.EXEC)
    recorder.total()
    recorder.utilization("cluster")
    recorder.span()


def _query_cost(recorder):
    """Amortized steady-state cost of the metric queries a report issues.

    The first call after ingestion pays one O(merged segments) union sum
    per bucket; every repeat is an O(1) cache hit — which is exactly the
    access pattern of a report rendering several figures from one trace.
    """
    _queries(recorder)  # warm every per-bucket cache once
    began = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        _queries(recorder)
    return (time.perf_counter() - began) / QUERY_REPEATS


def _metrics(recorder):
    return (recorder.total(), recorder.busy_time(), recorder.span(),
            recorder.busy_time(Phase.EXEC), recorder.utilization("cluster"),
            recorder.record_count)


def test_ext_trace_scaling(benchmark, suite):
    server = suite.server()
    traces = {n: poisson_trace("res", RATE_HZ, n / RATE_HZ, seed=1)
              for n in SIZES}

    def sweep():
        rows = {}
        for n, trace in traces.items():
            stats, wall = _replay(server, trace, "aggregate", True)
            rows[n] = {
                "requests": stats.requests,
                "wall_s": wall,
                "query_s": _query_cost(stats.trace),
                "records": stats.trace.record_count,
                "retained": stats.trace.retained_records,
                "ff_fraction": stats.fast_forwarded / stats.requests,
                "stats": stats,
            }
            if n <= FULL_PATH_CAP:
                full_stats, full_wall = _replay(server, trace, "full", False)
                rows[n]["full_wall_s"] = full_wall
                rows[n]["full"] = full_stats
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for n in SIZES:
        row = rows[n]
        table.append([
            row["requests"], f"{row['wall_s']:.3f}",
            (f"{row['full_wall_s']:.3f}" if "full_wall_s" in row else "-"),
            f"{row['query_s'] * 1e6:.1f}", row["records"], row["retained"],
            f"{row['ff_fraction']:.3f}",
        ])
    emit(format_table(
        ["requests", "agg+ff s", "full s", "query us", "records",
         "retained", "ff frac"],
        table, title="Trace scaling: streaming aggregation + fast-forward"))

    smallest, largest = rows[SIZES[0]], rows[SIZES[-1]]

    # Retention stays bounded while the aggregates keep counting.
    for n in SIZES:
        if rows[n]["records"] > RING:
            assert rows[n]["retained"] <= RING
        assert rows[n]["records"] >= rows[n]["requests"]

    # Metric queries must not scale with ingested records: across a
    # 1000x size increase, amortized query cost may grow far less than
    # linearly (the 0.1 factor leaves two orders of magnitude of margin
    # for timer noise on a ~microsecond measurement).
    size_ratio = largest["requests"] / smallest["requests"]
    query_ratio = largest["query_s"] / max(smallest["query_s"], 1e-9)
    assert query_ratio < 0.1 * size_ratio, (
        f"metric query cost grew {query_ratio:.0f}x over a "
        f"{size_ratio:.0f}x size increase")

    # The steady-state fast path must carry a dense trace.
    assert largest["ff_fraction"] > 0.9

    # Aggregate-retention metrics are byte-identical to the full path.
    for n in SIZES:
        if "full" not in rows[n]:
            continue
        stats, full = rows[n]["stats"], rows[n]["full"]
        assert stats.latencies == full.latencies
        assert _metrics(stats.trace) == _metrics(full.trace)
