"""The paper's claims, as one table.

Each :class:`Claim` row names a claim, the figure that makes it, the
value the paper reports, a measurement over an :class:`ExperimentSuite`
and the predicate the measured value must satisfy.  ``repro validate``
prints every row with its reproduced value, the paper-shape tests run
one test per row, and ``scripts/generate_experiments_md.py`` lists the
rows under each figure of EXPERIMENTS.md.

The figure rows read the suite's memo of cold and hot serves, so a
prewarmed suite checks them without simulating anything.  The
extension rows (Sec. VI, the design ablations, the cost-model
sensitivity, serving tail latency and weight upload) run their own
small simulations on the process's shared server.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.middleware import PaskConfig, PaskMiddleware
from repro.core.schemes import Scheme
from repro.engine import lower
from repro.engine.program import Program
from repro.gpu import HipRuntime, get_device
from repro.graph import GraphBuilder
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.experiments import CONV_MODELS, DEFAULT_BATCHES, \
    ExperimentSuite, TRANSFORMER_MODELS
from repro.serving.metrics import mean
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer
from repro.sim import Environment
from repro.tensors import DataType

__all__ = ["Claim", "CLAIMS", "validate", "format_value"]


@dataclass(frozen=True)
class Claim:
    """One claim of the paper and how the reproduction checks it."""

    name: str            # the claim id
    figure: str          # where the paper makes the claim
    paper: str           # what the paper reports
    description: str     # the band or ordering the reproduction must hold
    measure: Callable[[ExperimentSuite], Any]
    holds: Callable[[Any], bool]

    def evaluate(self, suite: ExperimentSuite) -> Tuple[Any, bool]:
        """``(measured value, whether the claim holds)`` on ``suite``."""
        value = self.measure(suite)
        return value, bool(self.holds(value))


def format_value(value: Any) -> str:
    """A measured value as one line: dicts as ``key value`` pairs,
    tuples joined by ``/``, floats to three significant digits."""
    if isinstance(value, dict):
        return ", ".join(f"{key} {format_value(item)}"
                         for key, item in value.items())
    if isinstance(value, tuple):
        return "/".join(format_value(item) for item in value)
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


# ----------------------------------------------------------------------
# Figure measurements (read the suite's memo)
# ----------------------------------------------------------------------

def _averages(figure: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {key: row["average"] for key, row in figure.items()}


def _worst_fraction_sum(figure: Dict[str, Dict[str, float]]) -> float:
    """The largest distance of a row's fractions from summing to one."""
    return max(abs(sum(row.values()) - 1.0) for row in figure.values())


def _table2(suite: ExperimentSuite) -> Dict[str, Tuple[float, ...]]:
    """Average speedup per scheme at each of ``DEFAULT_BATCHES``."""
    return {scheme: tuple(per_batch[b] for b in DEFAULT_BATCHES)
            for scheme, per_batch in suite.table2(DEFAULT_BATCHES).items()}


def _fig6a_transformers(suite: ExperimentSuite) -> Dict[str, float]:
    pask = suite.fig6a()["PaSK"]
    return {"best transformer": max(pask[m] for m in TRANSFORMER_MODELS),
            "conv average": mean(pask[m] for m in CONV_MODELS)}


def _fig7_loading(suite: ExperimentSuite) -> Dict[str, float]:
    fig7 = suite.fig7()
    return {"transformers": mean(fig7[m]["solution_loading"]
                                 for m in TRANSFORMER_MODELS),
            "conv": mean(fig7[m]["solution_loading"] for m in CONV_MODELS)}


def _fig9_lookups(suite: ExperimentSuite) -> Dict[str, float]:
    average = suite.fig9()["average"]
    return {"categorical": average["lookups_categorical"],
            "naive": average["lookups_naive"]}


def _ordered(*keys: str) -> Callable[[Dict[str, float]], bool]:
    """Holds when the values at ``keys`` strictly decrease."""
    return lambda values: all(values[a] > values[b]
                              for a, b in zip(keys, keys[1:]))


# ----------------------------------------------------------------------
# Extension measurements (run their own simulations)
# ----------------------------------------------------------------------

_ABLATION_MODELS = ("vgg", "res", "reg", "eff", "ssd", "unet")


def _run_pask(server: InferenceServer, programs: Sequence[Program],
              config: PaskConfig) -> List[Tuple[float, Dict[str, Any]]]:
    """Run ``programs`` back to back on one fresh runtime, each through
    its own :class:`PaskMiddleware` sharing the first one's cache;
    ``[(simulated seconds, middleware stats)]`` per program."""
    env = Environment()
    runtime = HipRuntime(env, server.device)
    outcomes: List[Tuple[float, Dict[str, Any]]] = []

    def driver():
        cache = None
        for program in programs:
            middleware = PaskMiddleware(env, runtime, server.library,
                                        server.blas, config, cache=cache)
            cache = middleware.cache
            start = env.now
            stats = yield from middleware.execute(program)
            outcomes.append((env.now - start, stats))

    env.run(until=env.process(driver()))
    return outcomes


def _pask_cold(suite: ExperimentSuite, model: str,
               config: PaskConfig) -> Tuple[float, Dict[str, Any]]:
    server = suite.server()
    return _run_pask(server, [server._lowered(model, Scheme.PASK, 1)],
                     config)[0]


def _mru_ordering(suite: ExperimentSuite) -> Dict[str, float]:
    return {label: mean(_pask_cold(suite, m, PaskConfig(cache_mru=mru))[1]
                        ["cache_stats"].lookups_per_query
                        for m in _ABLATION_MODELS)
            for label, mru in (("MRU", True), ("FIFO", False))}


def _milestone_gate(suite: ExperimentSuite) -> Dict[str, float]:
    reuse_gain, eager_seconds = [], []
    for model in _ABLATION_MODELS:
        _, gated = _pask_cold(suite, model, PaskConfig())
        seconds, eager = _pask_cold(
            suite, model, PaskConfig(reuse_before_milestone=True))
        reuse_gain.append(eager["reused_layers"] - gated["reused_layers"])
        eager_seconds.append(seconds)
    return {"least extra reuse": min(reuse_gain),
            "shortest eager s": min(eager_seconds)}


def _blas_managed(suite: ExperimentSuite) -> Dict[str, Tuple[float, float]]:
    out = {}
    for model in TRANSFORMER_MODELS:
        base = suite.cold(model, Scheme.BASELINE).total_time
        stock = suite.cold(model, Scheme.PASK).total_time
        managed, _ = _pask_cold(suite, model, PaskConfig(manage_blas=True))
        out[model] = (base / stock, base / managed)
    return out


def _interval_preload(suite: ExperimentSuite) -> Dict[str, Any]:
    runs = {label: suite.server().serve_session(
                "res", Scheme.PASK, n_requests=3, interval_s=0.05,
                interval_preload=preload)
            for label, preload in (("preload", True),
                                   ("no preload", False))}
    out: Dict[str, Any] = {f"{label} s": tuple(r.total_time for r in rs)
                           for label, rs in runs.items()}
    out["last preload loads"] = runs["preload"][-1].loads
    return out


def _interval_preload_holds(v: Dict[str, Any]) -> bool:
    with_preload, without = v["preload s"], v["no preload s"]
    # Request 0 precedes any interval; later ones only gain from it.
    return (with_preload[0] == without[0]
            and all(a <= b for a, b in zip(with_preload[1:], without[1:]))
            and v["last preload loads"] == 0)


def _fp_cnn(name: str, dtype: DataType):
    # Every convolution uses a different kernel configuration, so fp16
    # binaries cannot be reused across layers -- only the precision
    # fallback onto the warm fp32 binaries can avoid the loads.
    layers = [(32, 3, 1, 1), (32, 5, 1, 2), (64, 1, 1, 0), (64, 3, 2, 1),
              (128, 5, 2, 2)]
    builder = GraphBuilder(name, dtype=dtype)
    x = builder.input("x", (1, 16, 64, 64))
    for i, (channels, kernel, stride, pad) in enumerate(layers):
        x = builder.conv(x, channels, kernel, stride=stride, pad=pad,
                         name=f"c{i}")
        x = builder.relu(x, name=f"r{i}")
    builder.output(x)
    return builder.finish()


def _precision_fallback(suite: ExperimentSuite) -> Dict[str, float]:
    # An fp16 model cold-starts on a runtime and cache warm with fp32.
    server = suite.server()
    out = {}
    for label, fallback in (("off", False), ("on", True)):
        programs = [lower(_fp_cnn("warm32", DataType.FP32), server.library),
                    lower(_fp_cnn("cold16", DataType.FP16), server.library)]
        _, (seconds, stats) = _run_pask(
            server, programs, PaskConfig(precision_fallback=fallback))
        out[f"fp16 s {label}"] = seconds
        out[f"reused {label}"] = stats["reused_layers"]
    return out


def _serving_tail(suite: ExperimentSuite) -> Dict[str, Tuple[float, float]]:
    trace = poisson_trace("reg", rate_hz=25.0, duration_s=4.0, seed=11)
    out = {}
    for scheme in (Scheme.BASELINE, Scheme.PASK, Scheme.IDEAL):
        config = ClusterConfig(scheme=scheme, max_instances=4,
                               keep_alive_s=0.4)
        stats = ClusterSimulator(suite.server(), config).run(trace)
        out[scheme.label] = (stats.percentile(0.99), stats.mean_latency)
    return out


def _serving_tail_holds(v: Dict[str, Tuple[float, float]]) -> bool:
    (base_p99, base_mean), (pask_p99, pask_mean) = v["Baseline"], v["PaSK"]
    return (pask_p99 < base_p99 and pask_mean < base_mean
            and v["Ideal"][0] <= pask_p99)


def _weight_upload(suite: ExperimentSuite
                   ) -> Dict[str, Tuple[float, float, float]]:
    uploading = InferenceServer(suite.device, upload_weights=True)
    out = {}
    for model in ("vgg", "res", "eff"):  # vgg carries ~500 MB of weights
        base = suite.cold(model, Scheme.BASELINE).total_time
        pask = suite.cold(model, Scheme.PASK).total_time
        base_up = uploading.serve_cold(model, Scheme.BASELINE).total_time
        pask_up = uploading.serve_cold(model, Scheme.PASK).total_time
        out[model] = (base_up - base, pask_up - pask, base_up / pask_up)
    return out


def _reactive_penalty(suite: ExperimentSuite
                      ) -> Dict[float, Tuple[float, float, float]]:
    """Average NNV12/PaSK/Ideal speedup on four conv models per value of
    the device's reactive load penalty."""
    out = {}
    for penalty in (1.0, 1.5, 2.3, 3.0):
        server = InferenceServer(dataclasses.replace(
            get_device(suite.device), reactive_load_penalty=penalty))
        models = ("vgg", "res", "eff", "ssd")
        base = {m: server.serve_cold(m, Scheme.BASELINE).total_time
                for m in models}
        out[penalty] = tuple(
            mean(base[m] / server.serve_cold(m, scheme).total_time
                 for m in models)
            for scheme in (Scheme.NNV12, Scheme.PASK, Scheme.IDEAL))
    return out


def _reactive_penalty_holds(v: Dict[float, Tuple[float, float, float]]
                            ) -> bool:
    # Larger penalties widen PASK's lead: it avoids reactive loads.
    return (all(ideal > pask > 1.0 and pask > nnv12 * 0.95
                for nnv12, pask, ideal in v.values())
            and v[3.0][1] > v[1.0][1])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_FIG1A = "MI100 23.7x, A100 19.5x, 6900XT 31.3x"
_FIG6A = "NNV12 3.04x, PaSK 5.62x, Ideal 7.75x"
_FIG6B = "NNV12 8.2%, PaSK 25.9%, Ideal 68.5%"
_TABLE2 = "NNV12 3.04->1.74x, PaSK 5.62->3.10x, Ideal 7.75->6.41x"
_SEC6 = "qualitative (Sec. VI)"

CLAIMS: List[Claim] = [
    Claim("fig1a-slowdowns-in-band", "Fig. 1(a)", _FIG1A,
          "average cold/hot slowdown per device within 15-45x",
          lambda s: _averages(s.fig1a()),
          lambda v: all(15 <= x <= 45 for x in v.values())),
    Claim("fig1a-device-ordering", "Fig. 1(a)", _FIG1A,
          "6900XT > MI100 > A100 average slowdown",
          lambda s: _averages(s.fig1a()),
          _ordered("6900XT", "MI100", "A100")),
    Claim("fig1a-every-model-slows-down-substantially", "Fig. 1(a)", "—",
          "smallest MI100 per-model slowdown above 3x",
          lambda s: min(v for m, v in s.fig1a()["MI100"].items()
                        if m != "average"),
          lambda v: v > 3),
    Claim("fig1b-loading", "Fig. 1(b)", "code loading 65.8%",
          "baseline code-loading share above 0.55",
          lambda s: s.fig1b()["average"]["code_loading"],
          lambda v: v > 0.55),
    Claim("fig1b-gpu-execution-minor", "Fig. 1(b)", "GPU execution 8.4%",
          "baseline GPU-execution share below 0.15",
          lambda s: s.fig1b()["average"]["gpu_execution"],
          lambda v: v < 0.15),
    Claim("fig1b-fractions-sum-to-one", "Fig. 1(b)", "—",
          "every model's phase fractions sum to 1 within 1e-6",
          lambda s: _worst_fraction_sum(s.fig1b()),
          lambda v: v <= 1e-6),
    Claim("fig6a-ordering", "Fig. 6(a)", _FIG6A,
          "Ideal > PaSK > NNV12 > 1 average speedup",
          lambda s: _averages(s.fig6a()),
          lambda v: _ordered("Ideal", "PaSK", "NNV12")(v) and v["NNV12"] > 1),
    Claim("fig6a-pask-band", "Fig. 6(a)", "PaSK 5.62x",
          "PaSK average speedup within 3-7x",
          lambda s: s.fig6a()["PaSK"]["average"],
          lambda v: 3.0 <= v <= 7.0),
    Claim("fig6a-nnv12-average-band", "Fig. 6(a)", "NNV12 3.04x",
          "NNV12 average speedup within 2-4x",
          lambda s: s.fig6a()["NNV12"]["average"],
          lambda v: 2.0 <= v <= 4.0),
    Claim("fig6a-ideal-average-band", "Fig. 6(a)", "Ideal 7.75x",
          "Ideal average speedup within 6-11x",
          lambda s: s.fig6a()["Ideal"]["average"],
          lambda v: 6.0 <= v <= 11.0),
    Claim("fig6a-layer-trend", "Fig. 6(a)", "—",
          "eff, reg, ssd and unet each gain more than alex under PaSK",
          lambda s: {m: v for m, v in s.fig6a()["PaSK"].items()
                     if m in ("alex", "eff", "reg", "ssd", "unet")},
          lambda v: all(v[m] > v["alex"] for m in v if m != "alex")),
    Claim("fig6a-transformers", "Fig. 6(a)", "—",
          "best transformer PaSK speedup below the conv-model average",
          _fig6a_transformers,
          lambda v: v["best transformer"] < v["conv average"]),
    Claim("fig6b-utilization", "Fig. 6(b)", _FIG6B,
          "Ideal > PaSK > NNV12 average GPU utilization",
          lambda s: _averages(s.fig6b()), _ordered("Ideal", "PaSK", "NNV12")),
    Claim("fig6b-nnv12-utilization-low", "Fig. 6(b)", "NNV12 8.2%",
          "NNV12 average utilization below 0.25",
          lambda s: s.fig6b()["NNV12"]["average"], lambda v: v < 0.25),
    Claim("fig6b-ideal-utilization-substantial", "Fig. 6(b)", "Ideal 68.5%",
          "Ideal average utilization above 0.20",
          lambda s: s.fig6b()["Ideal"]["average"], lambda v: v > 0.20),
    Claim("table2-monotone", "Table II", _TABLE2,
          "every scheme's speedup decreases over batch 1/4/16/64/128",
          _table2,
          lambda v: all(list(row) == sorted(row, reverse=True)
                        for row in v.values())),
    Claim("table2-ordering-holds-at-every-batch", "Table II", _TABLE2,
          "Ideal > PaSK > NNV12 > 1 at every batch 1/4/16/64/128",
          _table2,
          lambda v: all(ideal > pask > nnv12 > 1.0 for nnv12, pask, ideal
                        in zip(v["NNV12"], v["PaSK"], v["Ideal"]))),
    Claim("fig7-overhead", "Fig. 7", "PASK overhead 1.3%",
          "average PASK runtime overhead below 0.06",
          lambda s: s.fig7()["average"]["pask_overhead"],
          lambda v: v < 0.06),
    Claim("fig7-loading-share-reduced-but-present", "Fig. 7",
          "solution loading 11.2%",
          "average loading share within 0.30-0.85 (PaSK stays load-bound, "
          "see EXPERIMENTS.md)",
          lambda s: s.fig7()["average"]["solution_loading"],
          lambda v: 0.30 < v < 0.85),
    Claim("fig7-transformer-loading-share-larger", "Fig. 7",
          "transformers load longer",
          "mean transformer loading share above the conv models'",
          _fig7_loading,
          lambda v: v["transformers"] > v["conv"]),
    Claim("fig7-fractions-sum-to-one", "Fig. 7", "—",
          "every model's breakdown fractions sum to 1 within 1e-6",
          lambda s: _worst_fraction_sum(s.fig7()),
          lambda v: v <= 1e-6),
    Claim("fig8-ablation", "Fig. 8", "both variants below PaSK",
          "largest PaSK-I/PaSK-R performance normalized to PaSK <= 1",
          lambda s: max(v for rows in s.fig8().values()
                        for v in rows.values()),
          lambda v: v <= 1.0 + 1e-9),
    Claim("fig8-variants-meaningfully-slower-on-average", "Fig. 8", "—",
          "PaSK-I and PaSK-R averages below 0.85",
          lambda s: _averages(s.fig8()),
          lambda v: v["PaSK-I"] < 0.85 and v["PaSK-R"] < 0.85),
    Claim("fig8-transformers-show-nuances-only", "Fig. 8",
          "transformers show only nuances",
          "smallest transformer PaSK-I normalized performance above 0.95",
          lambda s: min(s.fig8()["PaSK-I"][m] for m in TRANSFORMER_MODELS),
          lambda v: v > 0.95),
    Claim("fig9-cache", "Fig. 9(a)", "hit rate 69.7%",
          "average hit rate within 0.50-0.95",
          lambda s: s.fig9()["average"]["hit_rate"],
          lambda v: 0.50 <= v <= 0.95),
    Claim("fig9-categorical-fewer-lookups-than-naive", "Fig. 9(b)",
          "1.22 vs 1.89 lookups/query",
          "categorical cache needs fewer lookups/query than naive",
          _fig9_lookups, lambda v: v["categorical"] < v["naive"]),
    Claim("fig9-lookups-magnitude", "Fig. 9(b)",
          "1.22 vs 1.89 lookups/query",
          "categorical within 0.3-2.5, naive within 0.8-5.0 lookups/query",
          _fig9_lookups,
          lambda v: (0.3 <= v["categorical"] <= 2.5
                     and 0.8 <= v["naive"] <= 5.0)),
    Claim("fig9-deeper-models-hit-more-than-alexnet", "Fig. 9(a)", "—",
          "eff and reg hit rates above alex's",
          lambda s: {m: row["hit_rate"] for m, row in s.fig9().items()
                     if m in ("alex", "eff", "reg")},
          lambda v: v["eff"] > v["alex"] and v["reg"] > v["alex"]),
    Claim("ext-blas-managed-transformers", "Sec. VI", _SEC6,
          "PaSK managing hipBLAS beats stock PaSK's speedup by 1.3x on "
          "every transformer (PaSK/PaSK+BLAS)",
          _blas_managed,
          lambda v: all(managed > stock * 1.3
                        for stock, managed in v.values())),
    Claim("ext-interval-preloading", "Sec. VI", _SEC6,
          "preloading between 3 res requests: first request unchanged, "
          "later ones no slower, the last loads nothing",
          _interval_preload, _interval_preload_holds),
    Claim("ext-precision-fallback", "Sec. VI", _SEC6,
          "fp16 on warm fp32 kernels: fallback reuses more layers and "
          "cold-starts faster",
          _precision_fallback,
          lambda v: (v["reused on"] > v["reused off"]
                     and v["fp16 s on"] < v["fp16 s off"])),
    Claim("ext-mru-ordering", "ablation", "—",
          "MRU cache ordering needs no more lookups/query than FIFO "
          "(6 conv models)",
          _mru_ordering, lambda v: v["MRU"] <= v["FIFO"] + 1e-9),
    Claim("ext-milestone-gate", "ablation", "—",
          "reuse from the first layer reuses at least gated-2 layers and "
          "completes every model",
          _milestone_gate,
          lambda v: v["least extra reuse"] >= -2
          and v["shortest eager s"] > 0),
    Claim("ext-reactive-penalty", "sensitivity", "—",
          "at reactive load penalty 1.0/1.5/2.3/3.0: Ideal > PaSK > 1, "
          "PaSK > 0.95 NNV12, PaSK grows 1.0->3.0 (NNV12/PaSK/Ideal)",
          _reactive_penalty, _reactive_penalty_holds),
    Claim("ext-serving-tail", "serving", "—",
          "bursty reg trace: PaSK p99 and mean below Baseline, Ideal p99 "
          "<= PaSK (p99 s/mean s)",
          _serving_tail, _serving_tail_holds),
    Claim("ext-weight-upload", "serving", "—",
          "with weight upload PaSK adds less than Baseline and still "
          "beats it 1.5x (Baseline +s/PaSK +s/speedup)",
          _weight_upload,
          lambda v: all(pask_added < base_added and speedup > 1.5
                        for base_added, pask_added, speedup in v.values())),
]


def validate(suite: ExperimentSuite) -> List[Tuple[Claim, bool]]:
    """Check every claim; returns ``[(claim, passed)]``."""
    return [(claim, claim.evaluate(suite)[1]) for claim in CLAIMS]
