"""Unit tests for primitive problem descriptors."""

import copy
import math
import pickle

import pytest

from repro.primitive import (
    ActivationProblem,
    ConvProblem,
    GemmProblem,
    PoolProblem,
    PrimitiveKind,
)
from repro.primitive.solvers import all_miopen_solutions
from repro.tensors import DataType, Layout


class TestConvProblem:
    def test_out_spatial(self):
        p = ConvProblem(1, 3, 224, 224, 64, (7, 7), (2, 2), (3, 3))
        assert p.out_spatial == (112, 112)

    def test_out_spatial_unit(self):
        p = ConvProblem(1, 16, 32, 32, 32, (3, 3), pad=(1, 1))
        assert p.out_spatial == (32, 32)

    def test_flops(self):
        p = ConvProblem(1, 16, 32, 32, 64, (3, 3), pad=(1, 1))
        assert p.flops == pytest.approx(2 * 64 * 32 * 32 * 16 * 9)

    def test_grouped_flops(self):
        dense = ConvProblem(1, 32, 8, 8, 32, (3, 3), pad=(1, 1))
        dw = ConvProblem(1, 32, 8, 8, 32, (3, 3), pad=(1, 1), group=32)
        assert dense.flops == pytest.approx(32 * dw.flops)

    def test_depthwise_and_pointwise_flags(self):
        dw = ConvProblem(1, 32, 8, 8, 32, (3, 3), pad=(1, 1), group=32)
        pw = ConvProblem(1, 32, 8, 8, 64, (1, 1))
        assert dw.is_depthwise and not pw.is_depthwise
        # Pointwise is a solver constraint: the 1x1 GEMM serves pw only.
        gemm1x1 = next(s for s in all_miopen_solutions()
                       if s.name == "ConvGemmFwd1x1")
        assert gemm1x1.is_applicable(pw) and not gemm1x1.is_applicable(dw)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvProblem(0, 3, 32, 32, 8, (3, 3))
        with pytest.raises(ValueError):
            ConvProblem(1, 3, 32, 32, 8, (3, 3), pad=(-1, 0))
        with pytest.raises(ValueError):
            ConvProblem(1, 3, 32, 32, 8, (3, 3), group=2)

    def test_collapsed_output_raises_on_access(self):
        p = ConvProblem(1, 3, 2, 2, 8, (5, 5))
        with pytest.raises(ValueError):
            _ = p.out_spatial

    def test_hashable(self):
        a = ConvProblem(1, 3, 32, 32, 8, (3, 3))
        b = ConvProblem(1, 3, 32, 32, 8, (3, 3))
        assert a == b and hash(a) == hash(b)

    def test_kind(self):
        p = ConvProblem(1, 3, 32, 32, 8, (3, 3))
        assert p.kind is PrimitiveKind.CONVOLUTION


class TestPoolProblem:
    def test_out_spatial_and_flops(self):
        p = PoolProblem(1, 64, 112, 112, (2, 2), (2, 2))
        assert p.out_spatial == (56, 56)
        assert p.flops == pytest.approx(64 * 56 * 56 * 4)

    def test_global_flag(self):
        p = PoolProblem(1, 512, 7, 7, (7, 7), (1, 1), mode="avg")
        assert p.is_global

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PoolProblem(1, 8, 8, 8, (2, 2), (2, 2), mode="median")


class TestActivationProblem:
    def test_flops_scale_by_kind(self):
        relu = ActivationProblem(1000, "relu")
        gelu = ActivationProblem(1000, "gelu")
        assert gelu.flops > relu.flops

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivationProblem(0, "relu")
        with pytest.raises(ValueError):
            ActivationProblem(10, "")


class TestGemmProblem:
    def test_flops(self):
        p = GemmProblem(128, 256, 512)
        assert p.flops == pytest.approx(2 * 128 * 256 * 512)

    def test_batched_flops(self):
        p = GemmProblem(64, 64, 64, batch=12)
        assert p.flops == pytest.approx(12 * 2 * 64 ** 3)

    def test_bytes_moved(self):
        p = GemmProblem(2, 3, 4, dtype=DataType.FP32)
        assert p.bytes_moved == (2 * 4 + 4 * 3 + 2 * 3) * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmProblem(0, 1, 1)


# A dimension must be a plain int: NaN compares false against 0, a
# fraction is not a count, and True is an int only to Python.
_BAD_DIMS = [
    ("gemm-nan-m", lambda: GemmProblem(m=math.nan, n=True, k=2.5, batch=1),
     r"^m must be an integer >= 1, got nan$"),
    ("gemm-true-n", lambda: GemmProblem(m=2, n=True, k=2.5), r"^n must"),
    ("gemm-fraction-k", lambda: GemmProblem(m=2, n=3, k=2.5), r"^k must"),
    ("conv-nan-height",
     lambda: ConvProblem(1, 3, math.nan, 32, 8, (3, 3)), r"^height must"),
    ("conv-fraction-kernel",
     lambda: ConvProblem(1, 3, 32, 32, 8, (3, 1.5)), r"^kernel\[1\] must"),
    ("conv-true-group",
     lambda: ConvProblem(1, 3, 32, 32, 3, (3, 3), group=True),
     r"^group must"),
    ("conv-fraction-pad",
     lambda: ConvProblem(1, 3, 32, 32, 8, (3, 3), pad=(0.5, 0)),
     r"^pad\[0\] must be an integer >= 0"),
    ("pool-nan-channels",
     lambda: PoolProblem(1, math.nan, 8, 8, (2, 2), (2, 2)),
     r"^channels must"),
    ("pool-true-stride",
     lambda: PoolProblem(1, 8, 8, 8, (2, 2), (True, 2)), r"^stride\[0\] must"),
    ("pool-negative-pad",
     lambda: PoolProblem(1, 8, 8, 8, (2, 2), (2, 2), pad=(0, -1)),
     r"^pad\[1\] must be an integer >= 0"),
    ("activation-fraction-numel",
     lambda: ActivationProblem(2.5, "relu"), r"^numel must"),
    ("activation-true-numel",
     lambda: ActivationProblem(True, "relu"), r"^numel must"),
    ("activation-nan-numel",
     lambda: ActivationProblem(math.nan, "relu"), r"^numel must"),
    # A window field is a pair: the output shape and FLOPs unpack it.
    ("conv-single-kernel",
     lambda: ConvProblem(1, 3, 8, 8, 8, (3,)),
     r"^kernel must be a pair of integers, got \(3,\)$"),
    ("conv-int-stride",
     lambda: ConvProblem(1, 3, 8, 8, 8, (3, 3), stride=2),
     r"^stride must be a pair"),
    ("conv-single-pad",
     lambda: ConvProblem(1, 3, 8, 8, 8, (3, 3), pad=(1,)),
     r"^pad must be a pair"),
    ("conv-triple-dilation",
     lambda: ConvProblem(1, 3, 8, 8, 8, (3, 3), dilation=(1, 1, 1)),
     r"^dilation must be a pair"),
    ("pool-int-kernel",
     lambda: PoolProblem(1, 8, 8, 8, 2, (2, 2)), r"^kernel must be a pair"),
    ("pool-single-stride",
     lambda: PoolProblem(1, 8, 8, 8, (2, 2), (2,)), r"^stride must be a pair"),
    ("pool-triple-pad",
     lambda: PoolProblem(1, 8, 8, 8, (2, 2), (2, 2), pad=(0, 0, 0)),
     r"^pad must be a pair"),
]


@pytest.mark.parametrize("build,message", [case[1:] for case in _BAD_DIMS],
                         ids=[case[0] for case in _BAD_DIMS])
def test_rejects_a_dimension_that_is_not_a_count(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("value", [
    ConvProblem(1, 64, 56, 56, 64, (3, 3), pad=(1, 1), layout=Layout.NHWC),
    PoolProblem(1, 64, 56, 56, (3, 3), (2, 2)),
    ActivationProblem(4096, "relu", DataType.FP16),
    GemmProblem(128, 768, 768, batch=4),
    all_miopen_solutions()[0],
], ids=lambda value: type(value).__name__)
def test_kept_hash_stays_out_of_pickles_and_copies(value):
    """The hash is kept on the instance after its first use, but it
    hashes enum names, which differ between processes: a pickle or a
    copy must not carry it."""
    first = hash(value)
    assert hash(value) == first
    assert value._hash == first
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert not hasattr(clone, "_hash")
        assert clone == value
        assert hash(clone) == first
    assert "_hash" not in repr(value)
