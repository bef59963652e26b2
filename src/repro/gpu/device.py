"""GPU device specifications and cost-model constants.

Three devices from Fig. 1(a) are modelled.  The compute-side numbers
(CUs, TFLOPs, memory bandwidth) are the public datasheet values; the
code-loading constants are calibrated so that the cold/hot ratios land in
the paper's observed bands (MI100 ~24x, A100 ~20x, RX 6900XT ~31x):
data-center parts have faster NVMe/driver paths than the consumer card,
and the CDNA/ROCm loader is slightly slower than CUDA's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List

__all__ = ["DeviceSpec", "MI100", "A100", "RX6900XT", "get_device", "list_devices"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU plus its host-runtime cost constants."""

    name: str
    vendor: str
    compute_units: int
    clock_ghz: float
    fp32_tflops: float
    mem_bandwidth_gbps: float
    # Host-side runtime costs.
    kernel_launch_overhead_s: float   # per kernel launch (driver dispatch)
    code_load_base_s: float           # fixed cost per hipModuleLoad
    code_io_bandwidth_mbps: float     # ELF read + relocation throughput
    symbol_resolve_s: float           # per hipModuleGetFunction
    mem_protect_s: float              # set memory permissions per module
    # Lazy (launch-path) loads are slower than dedicated streaming loads:
    # the runtime synchronizes the stream, re-acquires driver locks per
    # module, and cold-misses the file cache because requests are
    # scattered across the run.  A dedicated loader thread streams
    # modules back-to-back and amortizes all of that.
    reactive_load_penalty: float = 2.3

    def __post_init__(self) -> None:
        # Every cost constant, the reactive penalty included, must be
        # positive and finite; NaN fails the comparison too.
        for spec in fields(self):
            if spec.name in ("name", "vendor"):
                continue
            value = getattr(self, spec.name)
            if not 0 < value < math.inf:
                raise ValueError(f"device {self.name!r}: {spec.name} must "
                                 f"be positive and finite, got {value!r}")

    @property
    def fp32_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s."""
        return self.fp32_tflops * 1e12

    @property
    def mem_bandwidth(self) -> float:
        """Memory bandwidth in bytes/s."""
        return self.mem_bandwidth_gbps * 1e9

    @property
    def code_io_bandwidth(self) -> float:
        """Code-object loading throughput in bytes/s."""
        return self.code_io_bandwidth_mbps * 1e6


MI100 = DeviceSpec(
    name="MI100", vendor="AMD",
    compute_units=120, clock_ghz=1.502,
    fp32_tflops=23.1, mem_bandwidth_gbps=1228.8,
    kernel_launch_overhead_s=12e-6,
    code_load_base_s=0.35e-3,
    code_io_bandwidth_mbps=150.0,
    symbol_resolve_s=0.10e-3,
    mem_protect_s=0.12e-3,
)

A100 = DeviceSpec(
    name="A100", vendor="NVIDIA",
    compute_units=108, clock_ghz=1.410,
    fp32_tflops=19.5, mem_bandwidth_gbps=1555.0,
    kernel_launch_overhead_s=10e-6,
    code_load_base_s=0.30e-3,
    code_io_bandwidth_mbps=190.0,
    symbol_resolve_s=0.08e-3,
    mem_protect_s=0.10e-3,
)

RX6900XT = DeviceSpec(
    name="6900XT", vendor="AMD",
    compute_units=80, clock_ghz=2.250,
    fp32_tflops=23.0, mem_bandwidth_gbps=512.0,
    kernel_launch_overhead_s=15e-6,
    code_load_base_s=0.45e-3,
    code_io_bandwidth_mbps=105.0,
    symbol_resolve_s=0.13e-3,
    mem_protect_s=0.16e-3,
)

_REGISTRY: Dict[str, DeviceSpec] = {d.name: d for d in (MI100, A100, RX6900XT)}


def get_device(name: str) -> DeviceSpec:
    """Look up a device spec by name (``MI100``, ``A100``, ``6900XT``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown device {name!r}; known devices: {known}") from None


def list_devices() -> List[str]:
    """Names of all modelled devices."""
    return sorted(_REGISTRY)
