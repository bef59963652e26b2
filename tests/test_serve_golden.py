"""Golden regression for every :class:`InferenceServer` entry point.

Each case serves ``res`` on MI100 with spans, metrics and a seeded
fault plan that fails some of the requests, and pins:

- the blake2b of the sorted-key ``result_to_payload`` JSON of every
  result it returns;
- the metadata key order of every result (sorted-key JSON hides it);
- the number of spans and the blake2b of the span list;
- the blake2b of the sorted-key metrics JSON;
- for ``capture_snapshot``, the blake2b of the snapshot.

The cases cover ``serve_cold`` under all six schemes, ``serve_hot``,
``capture_snapshot``, ``serve_restored`` (healthy, after a failed
restore and from a corrupted checkpoint) and ``serve_session``
(interval preload on and off, and a plan that ends the session early).

Regenerate after an intended behaviour change with
``PYTHONPATH=src python tests/test_serve_golden.py``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.schemes import Scheme
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.runner import result_to_payload
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

_SERVER = InferenceServer("MI100")
_MODEL = "res"


def _plan(seed, **overrides):
    """Transient load and launch failures that exhaust their retries on
    some requests, plus execution stalls."""
    return FaultPlan(seed=seed, load_failure_rate=0.2, max_load_attempts=2,
                     launch_failure_rate=0.05, max_launch_attempts=2,
                     exec_stall_rate=0.05, exec_stall_s=2e-4, **overrides)


def _digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _snapshot_digest(snapshot):
    if snapshot is None:
        return None
    return _digest(repr((snapshot.device_name, snapshot.taken_at,
                         [(co.name, sorted(symbols))
                          for co, symbols in snapshot.entries],
                         snapshot.corrupt)))


def _snapshot(seed, **overrides):
    """A checkpoint captured without telemetry, for the restore cases."""
    _, snapshot = _SERVER.capture_snapshot(
        _MODEL, Scheme.PASK, faults=_plan(seed, **overrides))
    assert snapshot is not None
    return snapshot


def _serve(kind, seed, scheme=None, **options):
    spans, metrics = SpanRecorder(), MetricsRegistry()
    telemetry = dict(spans=spans, metrics=metrics)
    snapshot = None
    if kind == "cold":
        results = [_SERVER.serve_cold(_MODEL, scheme, faults=_plan(seed),
                                      **telemetry)]
    elif kind == "hot":
        results = [_SERVER.serve_hot(_MODEL, faults=_plan(seed), **telemetry)]
    elif kind == "capture":
        result, snapshot = _SERVER.capture_snapshot(
            _MODEL, Scheme.PASK, faults=_plan(seed, **options), **telemetry)
        results = [result]
    elif kind == "restore":
        source = options.pop("source")
        results = [_SERVER.serve_restored(
            _MODEL, _snapshot(*source[:1], **source[1]), Scheme.PASK,
            faults=_plan(seed, **options), **telemetry)]
    else:
        results = _SERVER.serve_session(_MODEL, Scheme.PASK, n_requests=4,
                                        faults=_plan(seed), **options,
                                        **telemetry)
    return {
        "payloads": [_digest(json.dumps(result_to_payload(r), sort_keys=True))
                     for r in results],
        "failed": [r.failed for r in results],
        "metadata_keys": [list(r.metadata) for r in results],
        "spans": len(spans.spans),
        "span_digest": _digest(repr([dataclasses.astuple(span)
                                     for span in spans.spans])),
        "metrics": _digest(json.dumps(metrics.to_json(), sort_keys=True)),
        "snapshot": _snapshot_digest(snapshot),
    }


# name -> (kind, fault seed, scheme, extra options).
_CASES = {
    **{f"cold-{scheme.label}": ("cold", 1, scheme, {}) for scheme in Scheme},
    "hot": ("hot", 1, None, {}),
    "hot-failed": ("hot", 2, None, {}),
    "capture": ("capture", 1, None, {}),
    "capture-failed": ("capture", 2, None, {}),
    "capture-corrupt": ("capture", 1, None,
                        {"checkpoint_corruption_rate": 1.0}),
    "restore": ("restore", 1, None, {"source": (0, {})}),
    "restore-failed": ("restore", 1, None,
                       {"source": (0, {}), "restore_failure_rate": 1.0}),
    "restore-corrupt": ("restore", 1, None,
                        {"source": (0, {"checkpoint_corruption_rate": 1.0})}),
    "session-preload": ("session", 0, None, {"interval_preload": True}),
    "session-no-preload": ("session", 0, None, {"interval_preload": False}),
    "session-ends-early": ("session", 4, None, {}),
}


def _run(name):
    kind, seed, scheme, options = _CASES[name]
    return _serve(kind, seed, scheme, **dict(options))


_GOLDEN = {
    'capture': dict(
        payloads=['0f32bf722b0e37fbf57c10f8df1e4040'],
        failed=[False],
        metadata_keys=[['device', 'instructions', 'checkpoint_s']],
        spans=459,
        span_digest='3cc28c48a79553abb5f58a36bd30f0b5',
        metrics='9afff09c2ee021ab1d054d182be16025',
        snapshot='40eb98d2c599b05f8c3c31240da06308'),
    'capture-corrupt': dict(
        payloads=['cae91bc4215e59f365c045de74ba5615'],
        failed=[False],
        metadata_keys=[['device', 'instructions', 'checkpoint_s']],
        spans=459,
        span_digest='3cc28c48a79553abb5f58a36bd30f0b5',
        metrics='1d79d22ce7926dc4820f1b7d2b0711e0',
        snapshot='b41249423c2941e56ac63279a364a0a5'),
    'capture-failed': dict(
        payloads=['65c50ebf268a6ad45d87d80ac4b96a91'],
        failed=[True],
        metadata_keys=[['device', 'instructions', 'error']],
        spans=408,
        span_digest='013e91bb56796dc4db4614fcc08f6097',
        metrics='dfef3e3865bf6511c35bd0e514cbd590',
        snapshot=None),
    'cold-Baseline': dict(
        payloads=['b53b4fbb551dbb0ae7d50a057d7b9ba5'],
        failed=[True],
        metadata_keys=[['device', 'instructions', 'error']],
        spans=88,
        span_digest='d0e1b57ae593a1974f94eaf4334fbb2f',
        metrics='581d47aa7658741e904b8e458bb93ba8',
        snapshot=None),
    'cold-Ideal': dict(
        payloads=['312856198bbac82b076327d05f23a743'],
        failed=[False],
        metadata_keys=[['device', 'instructions']],
        spans=244,
        span_digest='fbdbde5e219535c8ded2cf17e108ba5d',
        metrics='02e6809e917b970d65bc9c81a897aa52',
        snapshot=None),
    'cold-NNV12': dict(
        payloads=['b48575b67ab94eec61118e6646efc81f'],
        failed=[True],
        metadata_keys=[['device', 'instructions', 'error']],
        spans=88,
        span_digest='4e95db2502e82c0afbea673cdce33e59',
        metrics='8cc35545bf145b9596f30b61db173529',
        snapshot=None),
    'cold-PaSK': dict(
        payloads=['7a7d06d6465164b0138441d7c98232e0'],
        failed=[False],
        metadata_keys=[['device', 'instructions']],
        spans=458,
        span_digest='84b079a4e97e8babeea0506e018d8e08',
        metrics='9afff09c2ee021ab1d054d182be16025',
        snapshot=None),
    'cold-PaSK-I': dict(
        payloads=['4b1abb71ebd0a20b29619258731d664c'],
        failed=[False],
        metadata_keys=[['device', 'instructions']],
        spans=378,
        span_digest='d99e6625983c4a2e1f0648b930c7eaec',
        metrics='fc2c85a30c760d2107259353943a8d61',
        snapshot=None),
    'cold-PaSK-R': dict(
        payloads=['f9337dc970c175f8e28f3e65b102986c'],
        failed=[True],
        metadata_keys=[['device', 'instructions', 'error']],
        spans=90,
        span_digest='2fbcff18b4f6463fbc37672b64d2c34e',
        metrics='581d47aa7658741e904b8e458bb93ba8',
        snapshot=None),
    'hot': dict(
        payloads=['53a08e39dc3dcac42562aac802e70c4a'],
        failed=[False],
        metadata_keys=[['device', 'instructions']],
        spans=170,
        span_digest='54b2e3a759b9f43c6393b181dd9d9663',
        metrics='02e6809e917b970d65bc9c81a897aa52',
        snapshot=None),
    'hot-failed': dict(
        payloads=['f63fca90be2007ed3928f08641f02a06'],
        failed=[True],
        metadata_keys=[['device', 'instructions', 'error']],
        spans=154,
        span_digest='1d2e6cba61ccdf3bd5bd50ae673e69c1',
        metrics='6c9884ef0a51fc40be7e563146d6841c',
        snapshot=None),
    'restore': dict(
        payloads=['343b143ab5a5618095e7ff6981f94402'],
        failed=[False],
        metadata_keys=[['device',
                        'instructions',
                        'restored_modules',
                        'restored_bytes',
                        'restored_hits']],
        spans=349,
        span_digest='f6c4e968da3d447ec5c129a4cc39bc48',
        metrics='e5d959e69c11dbfce095687be1707e88',
        snapshot=None),
    'restore-corrupt': dict(
        payloads=['1ecea70379321f213d26d8b8ee319b31'],
        failed=[False],
        metadata_keys=[['device',
                        'instructions',
                        'restore_failed',
                        'restored_hits']],
        spans=459,
        span_digest='6e2df3d8163df70584317d281bb2ecb7',
        metrics='9afff09c2ee021ab1d054d182be16025',
        snapshot=None),
    'restore-failed': dict(
        payloads=['130f73df664fa5e000b8e14d1625b22b'],
        failed=[False],
        metadata_keys=[['device',
                        'instructions',
                        'restore_failed',
                        'restored_hits']],
        spans=459,
        span_digest='2188512df8e71f145e5457c575e06aba',
        metrics='4cc38b06bbbdd4f54db39528ace75a72',
        snapshot=None),
    'session-ends-early': dict(
        payloads=['d82beebc57ab65a20a183183f25d242d',
                  '0414b66a5df47fae0875f8f5225cd9c8'],
        failed=[False, True],
        metadata_keys=[['request', 'device', 'interval_loads',
                        'interval_loaded_bytes'],
                       ['request', 'device', 'interval_loads',
                        'interval_loaded_bytes', 'error']],
        spans=513,
        span_digest='6666a49b43276b3657b49d6f8df4ffac',
        metrics='1146720c2e43497ac09d0768e98bea66',
        snapshot=None),
    'session-no-preload': dict(
        payloads=['bfac4045189de8137fd890a6622bd16e',
                  'a007387934883b875dacfa2c338bd7a3',
                  '4e0a80df1737005422358e57bff7896a',
                  '426ecb6d5a2ec28a921a2fde56fb323c'],
        failed=[False, False, False, False],
        metadata_keys=[['request', 'device', 'interval_loads',
                        'interval_loaded_bytes']] * 4,
        spans=1467,
        span_digest='e9f80fb4b8e951310d13b956cb71bb07',
        metrics='728b38cca6cbcc2855668d769262f906',
        snapshot=None),
    'session-preload': dict(
        payloads=['311ccc5eae7ab5ea38600b436b59d27a',
                  'c3c7aa171a34d28fbb1e378aa5bf26c6',
                  '3d2c73722a234184059ac8333329763d',
                  'a77848a474666d89890ae0adb62fc74b'],
        failed=[False, False, False, False],
        metadata_keys=[['request', 'device', 'interval_loads',
                        'interval_loaded_bytes']] * 4,
        spans=1401,
        span_digest='129d49f9b51446c11b5290b33f571b8e',
        metrics='86305a51af2d58546e491d0104d90141',
        snapshot=None),
}


class TestServeGolden:
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_entry_point_pinned(self, name):
        assert _run(name) == _GOLDEN[name]

    def test_cases_cover_both_outcomes(self):
        failed = [flag for golden in _GOLDEN.values()
                  for flag in golden["failed"]]
        assert any(failed) and not all(failed)
        restore_keys = _GOLDEN["restore-failed"]["metadata_keys"][0]
        assert "restore_failed" in restore_keys
        assert "restore_failed" in \
            _GOLDEN["restore-corrupt"]["metadata_keys"][0]
        assert "restore_failed" not in _GOLDEN["restore"]["metadata_keys"][0]
        assert len(_GOLDEN["session-ends-early"]["failed"]) < 4
        assert _GOLDEN["session-ends-early"]["failed"][-1]


if __name__ == "__main__":
    print("_GOLDEN = {")
    for case in sorted(_CASES):
        print(f"    {case!r}: {_run(case)!r},")
    print("}")
