"""Problem descriptors: what one DNN layer asks the primitive library.

A problem captures "input problem (image and filter sizes, number of
filters, data types etc.)" (Sec. II-A).  Problems are frozen and hashable:
the find-db and the solution caches key on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple, Union

from repro.checks import check_count, check_one_of
from repro.tensors import DataType, Layout

__all__ = [
    "HashOnce",
    "hash_once",
    "PrimitiveKind",
    "ConvProblem",
    "PoolProblem",
    "ActivationProblem",
    "GemmProblem",
    "Problem",
]


class HashOnce:
    """Base of a slotted frozen dataclass decorated with
    :func:`hash_once`: holds the slot its hash is kept in."""

    __slots__ = ("_hash",)


def hash_once(cls):
    """Class decorator over a slotted frozen dataclass deriving from
    :class:`HashOnce`: hash its fields once per instance and keep the
    result.

    The generated ``__hash__`` rebuilds and rehashes the field tuple on
    every dict lookup, enums included, whose ``__hash__`` runs in
    Python.  The kept value hashes enum names, so it differs between
    processes; a slotted dataclass pickles and copies its fields only,
    so the value never leaves the process that computed it.
    """
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


_INT = {int}


def _dims_ok(positive: Tuple, nonnegative: Tuple = ()) -> bool:
    """Whether every dimension is a plain ``int``, ``positive`` ones at
    least 1 and ``nonnegative`` ones at least 0: one pass over each
    whole tuple, since a grid compile builds thousands of problems.
    NaN, fractions and ``True`` are not ``int``s."""
    return (set(map(type, positive)).union(map(type, nonnegative)) <= _INT
            and min(positive) > 0 and min(nonnegative, default=0) >= 0)


def _check_dims(problem: object, positive: Tuple[str, ...],
                nonnegative: Tuple[str, ...] = ()) -> None:
    """``check_count`` each named dimension field of ``problem`` (each
    item of a tuple field), so a problem :func:`_dims_ok` turned down
    fails with an error naming the field."""
    for names, minimum in ((positive, 1), (nonnegative, 0)):
        for name in names:
            value = getattr(problem, name)
            if isinstance(value, tuple):
                for index, item in enumerate(value):
                    check_count(f"{name}[{index}]", item, minimum)
            else:
                check_count(name, value, minimum)


class PrimitiveKind(enum.Enum):
    """Which primitive routine a problem belongs to."""

    CONVOLUTION = "convolution"
    POOLING = "pooling"
    ACTIVATION = "activation"
    GEMM = "gemm"   # served by the BLAS library, not MIOpen


@hash_once
@dataclass(frozen=True, slots=True)
class ConvProblem(HashOnce):
    """A 2-D forward convolution problem."""

    batch: int
    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel: Tuple[int, int]          # (R, S)
    stride: Tuple[int, int] = (1, 1)
    pad: Tuple[int, int] = (0, 0)
    dilation: Tuple[int, int] = (1, 1)
    group: int = 1
    dtype: DataType = DataType.FP32
    layout: Layout = Layout.NCHW

    def __post_init__(self) -> None:
        positives = (self.batch, self.in_channels, self.height, self.width,
                     self.out_channels, *self.kernel, *self.stride,
                     *self.dilation, self.group)
        if not _dims_ok(positives, self.pad):
            _check_dims(self, ("batch", "in_channels", "height", "width",
                               "out_channels", "kernel", "stride",
                               "dilation", "group"), ("pad",))
        if self.in_channels % self.group or self.out_channels % self.group:
            raise ValueError(
                f"channels {self.in_channels}->{self.out_channels} not "
                f"divisible by group {self.group}")

    @property
    def kind(self) -> PrimitiveKind:
        """This is a convolution problem."""
        return PrimitiveKind.CONVOLUTION

    @property
    def out_spatial(self) -> Tuple[int, int]:
        """Output (Ho, Wo)."""
        r, s = self.kernel
        out_h = ((self.height + 2 * self.pad[0]
                  - self.dilation[0] * (r - 1) - 1) // self.stride[0] + 1)
        out_w = ((self.width + 2 * self.pad[1]
                  - self.dilation[1] * (s - 1) - 1) // self.stride[1] + 1)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"output spatial collapsed for {self}")
        return out_h, out_w

    @property
    def is_depthwise(self) -> bool:
        """Whether this is a depthwise convolution (group == channels)."""
        return self.group == self.in_channels == self.out_channels

    @property
    def flops(self) -> float:
        """Multiply-accumulate FLOPs of the direct algorithm."""
        ho, wo = self.out_spatial
        r, s = self.kernel
        return (2.0 * self.batch * self.out_channels * ho * wo
                * (self.in_channels // self.group) * r * s)

    @property
    def bytes_moved(self) -> int:
        """Input + filter + output bytes (one pass each)."""
        ho, wo = self.out_spatial
        r, s = self.kernel
        elems = (self.batch * self.in_channels * self.height * self.width
                 + self.out_channels * (self.in_channels // self.group) * r * s
                 + self.batch * self.out_channels * ho * wo)
        return elems * self.dtype.size_bytes


@hash_once
@dataclass(frozen=True, slots=True)
class PoolProblem(HashOnce):
    """A 2-D pooling problem (max or average, including global)."""

    batch: int
    channels: int
    height: int
    width: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    pad: Tuple[int, int] = (0, 0)
    mode: str = "max"                # "max" | "avg"
    dtype: DataType = DataType.FP32
    layout: Layout = Layout.NCHW

    def __post_init__(self) -> None:
        check_one_of("pooling mode", self.mode, ("max", "avg"))
        if not _dims_ok((self.batch, self.channels, self.height, self.width,
                         *self.kernel, *self.stride), self.pad):
            _check_dims(self, ("batch", "channels", "height", "width",
                               "kernel", "stride"), ("pad",))

    @property
    def kind(self) -> PrimitiveKind:
        """This is a pooling problem."""
        return PrimitiveKind.POOLING

    @property
    def is_global(self) -> bool:
        """Whether the window covers the whole spatial extent."""
        return self.kernel == (self.height, self.width)

    @property
    def out_spatial(self) -> Tuple[int, int]:
        """Output (Ho, Wo)."""
        out_h = (self.height + 2 * self.pad[0] - self.kernel[0]) // self.stride[0] + 1
        out_w = (self.width + 2 * self.pad[1] - self.kernel[1]) // self.stride[1] + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"output spatial collapsed for {self}")
        return out_h, out_w

    @property
    def flops(self) -> float:
        """Comparisons/additions performed by the pooling window."""
        ho, wo = self.out_spatial
        return float(self.batch * self.channels * ho * wo
                     * self.kernel[0] * self.kernel[1])

    @property
    def bytes_moved(self) -> int:
        """Input + output bytes (one pass each)."""
        ho, wo = self.out_spatial
        elems = self.batch * self.channels * (self.height * self.width + ho * wo)
        return elems * self.dtype.size_bytes


@hash_once
@dataclass(frozen=True, slots=True)
class ActivationProblem(HashOnce):
    """An elementwise activation problem over a flattened extent."""

    numel: int
    activation: str                  # "relu", "sigmoid", "silu", ...
    dtype: DataType = DataType.FP32
    layout: Layout = Layout.NCHW

    def __post_init__(self) -> None:
        if not _dims_ok((self.numel,)):
            _check_dims(self, ("numel",))
        if not self.activation:
            raise ValueError("activation kind required")

    @property
    def kind(self) -> PrimitiveKind:
        """This is an activation problem."""
        return PrimitiveKind.ACTIVATION

    @property
    def flops(self) -> float:
        """Elementwise operation count (per-function factor x extent)."""
        cost = {"relu": 1.0, "leakyrelu": 2.0, "clip": 2.0, "sigmoid": 4.0,
                "tanh": 4.0, "elu": 4.0, "hardswish": 4.0, "silu": 5.0,
                "gelu": 8.0}
        return cost.get(self.activation, 4.0) * self.numel

    @property
    def bytes_moved(self) -> int:
        """Read + write of the full extent."""
        return 2 * self.numel * self.dtype.size_bytes


@hash_once
@dataclass(frozen=True, slots=True)
class GemmProblem(HashOnce):
    """A (batched) matrix-multiply problem served by the BLAS library."""

    m: int
    n: int
    k: int
    batch: int = 1
    dtype: DataType = DataType.FP32
    layout: Layout = Layout.NCHW

    def __post_init__(self) -> None:
        if not _dims_ok((self.m, self.n, self.k, self.batch)):
            _check_dims(self, ("m", "n", "k", "batch"))

    @property
    def kind(self) -> PrimitiveKind:
        """This is a GEMM problem (served by the BLAS library)."""
        return PrimitiveKind.GEMM

    @property
    def flops(self) -> float:
        """Multiply-accumulate FLOPs (2 m n k per batch)."""
        return 2.0 * self.batch * self.m * self.n * self.k

    @property
    def bytes_moved(self) -> int:
        """A + B + C matrix bytes (one pass each)."""
        elems = self.batch * (self.m * self.k + self.k * self.n + self.m * self.n)
        return elems * self.dtype.size_bytes


Problem = Union[ConvProblem, PoolProblem, ActivationProblem, GemmProblem]
