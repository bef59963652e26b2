"""Unit tests for solutions: ladders, signatures, tuning compatibility."""

import math

import pytest

from repro.primitive import (
    ActivationProblem,
    ConvProblem,
    PoolProblem,
    PrimitiveKind,
    Solution,
    SolutionPattern,
)
from repro.primitive.solution import Constraint
from repro.primitive.solvers import all_miopen_solutions
from repro.primitive.solvers.winograd import build_solutions as winograd
from repro.primitive.solvers.direct import build_solutions as direct
from repro.primitive.solvers.gemm import build_solutions as gemm_solvers
from repro.tensors import DataType, Layout


def by_name(name):
    for s in all_miopen_solutions():
        if s.name == name:
            return s
    raise KeyError(name)


CONV_3X3 = ConvProblem(1, 64, 56, 56, 64, (3, 3), pad=(1, 1))
CONV_5X5 = ConvProblem(1, 48, 28, 28, 64, (5, 5), pad=(2, 2))
CONV_7X7_S2 = ConvProblem(1, 3, 224, 224, 64, (7, 7), (2, 2), (3, 3))
CONV_1X1 = ConvProblem(1, 256, 14, 14, 512, (1, 1))
CONV_DW = ConvProblem(1, 96, 28, 28, 96, (3, 3), pad=(1, 1), group=96)
CONV_DILATED = ConvProblem(1, 64, 28, 28, 64, (3, 3), pad=(2, 2),
                           dilation=(2, 2))


class TestRegistry:
    def test_unique_names(self):
        names = [s.name for s in all_miopen_solutions()]
        assert len(names) == len(set(names))

    def test_every_conv_has_a_fallback(self):
        problems = [CONV_3X3, CONV_5X5, CONV_7X7_S2, CONV_1X1, CONV_DW,
                    CONV_DILATED]
        for p in problems:
            applicable = [s for s in all_miopen_solutions()
                          if s.is_applicable(p)]
            assert applicable, f"no solution for {p}"
            assert any(s.specialization == 0 for s in applicable)

    def test_patterns_present(self):
        patterns = {s.pattern for s in all_miopen_solutions()}
        assert {SolutionPattern.WINOGRAD, SolutionPattern.GEMM,
                SolutionPattern.DIRECT, SolutionPattern.IMPLICIT_GEMM,
                SolutionPattern.POOLING,
                SolutionPattern.ACTIVATION} <= patterns


class TestWinogradLadder:
    def test_generic_accepts_any_small_unit_stride(self):
        naive = by_name("ConvWinogradNaiveFwd")
        assert naive.is_applicable(CONV_3X3)
        assert naive.is_applicable(CONV_5X5)
        assert not naive.is_applicable(CONV_7X7_S2)  # strided
        assert not naive.is_applicable(CONV_DILATED)
        assert not naive.is_applicable(CONV_DW)      # grouped

    def test_exact_tip_requires_filter_match(self):
        tip33 = by_name("ConvBinWinogradFwd<3,3>")
        tip55 = by_name("ConvBinWinogradFwd<5,5>")
        assert tip33.is_applicable(CONV_3X3)
        assert not tip33.is_applicable(CONV_5X5)
        assert tip55.is_applicable(CONV_5X5)
        assert not tip55.is_applicable(CONV_3X3)

    def test_ladder_applicability_is_nested(self):
        """Specialized applicable => generic applicable (Fig. 4)."""
        naive = by_name("ConvWinogradNaiveFwd")
        rxs = by_name("ConvBinWinogradRxSFwd")
        tip = by_name("ConvBinWinogradFwd<3,3>")
        for p in [CONV_3X3, CONV_5X5, CONV_7X7_S2, CONV_1X1, CONV_DW]:
            if tip.is_applicable(p):
                assert rxs.is_applicable(p)
            if rxs.is_applicable(p):
                assert naive.is_applicable(p)

    def test_ladder_efficiency_increases(self):
        effs = {s.specialization: s.base_efficiency for s in winograd()
                if "3,3" in s.name or s.specialization < 2}
        assert effs[0] < effs[1] < effs[2]


class TestDirectLadder:
    def test_depthwise_served_only_by_direct(self):
        applicable = [s for s in all_miopen_solutions()
                      if s.is_applicable(CONV_DW)]
        names = {s.name for s in applicable}
        assert "ConvDirectFwdDepthwise" in names
        assert "ConvDirectNaiveFwd" in names
        assert all(s.pattern in (SolutionPattern.DIRECT, SolutionPattern.GEMM)
                   for s in applicable)

    def test_stem_conv_tip(self):
        tip = by_name("ConvDirectFwd7x7s2")
        assert tip.is_applicable(CONV_7X7_S2)
        assert not tip.is_applicable(CONV_3X3)

    def test_naive_accepts_everything(self):
        naive = by_name("ConvDirectNaiveFwd")
        for p in [CONV_3X3, CONV_5X5, CONV_7X7_S2, CONV_1X1, CONV_DW,
                  CONV_DILATED]:
            assert naive.is_applicable(p)


class TestSignatures:
    def test_generic_signature_is_constant(self):
        naive = by_name("ConvDirectNaiveFwd")
        assert naive.signature(CONV_3X3) == naive.signature(CONV_1X1) == "generic"

    def test_generic_shares_one_code_object(self):
        naive = by_name("ConvDirectNaiveFwd")
        assert (naive.code_object_for(CONV_3X3).name
                == naive.code_object_for(CONV_1X1).name)

    def test_specialized_buckets_by_kernel_config(self):
        rxs = by_name("ConvBinWinogradRxSFwd")
        other_3x3 = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        assert rxs.signature(CONV_3X3) == rxs.signature(other_3x3)
        assert rxs.signature(CONV_3X3) != rxs.signature(CONV_5X5)

    def test_highly_specialized_signature_is_exact(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        other_3x3 = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        assert tip.signature(CONV_3X3) != tip.signature(other_3x3)

    def test_distinct_problems_distinct_tip_binaries(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        other_3x3 = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        assert (tip.code_object_for(CONV_3X3).name
                != tip.code_object_for(other_3x3).name)

    def test_code_object_size_deterministic(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        a = tip.code_object_for(CONV_3X3)
        b = tip.code_object_for(CONV_3X3)
        assert a.size_bytes == b.size_bytes
        assert a.name == b.name


class TestTuningCompatibility:
    def test_tip_binary_reusable_across_shapes_same_config(self):
        """The core reuse fact: a 3x3 tip binary runs other 3x3 problems."""
        tip = by_name("ConvBinWinogradFwd<3,3>")
        other_3x3 = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        assert tip.tuning_compatible(CONV_3X3, other_3x3)

    def test_tip_binary_not_reusable_across_kernel_configs(self):
        tip33 = by_name("ConvBinWinogradFwd<3,3>")
        assert not tip33.tuning_compatible(CONV_3X3, CONV_5X5)

    def test_incompatible_if_target_inapplicable(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        assert not tip.tuning_compatible(CONV_3X3, CONV_DW)

    def test_generic_binary_runs_anything_applicable(self):
        naive = by_name("ConvDirectNaiveFwd")
        assert naive.tuning_compatible(CONV_3X3, CONV_DILATED)

    def test_off_tune_efficiency_derated(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        other_3x3 = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        on_tune = tip.efficiency(CONV_3X3, CONV_3X3)
        off_tune = tip.efficiency(CONV_3X3, other_3x3)
        assert off_tune < on_tune
        assert off_tune == pytest.approx(on_tune * 0.6)

    def test_generic_never_derated(self):
        naive = by_name("ConvDirectNaiveFwd")
        assert naive.efficiency(CONV_3X3, CONV_1X1) == naive.base_efficiency


class TestLayoutTransforms:
    def test_nhwc_solution_needs_casts_on_nchw_problem(self):
        xdlops = by_name("ConvImplicitGemmXdlopsFwd")
        assert xdlops.needs_layout_transform(CONV_3X3)
        casts = xdlops.transform_code_objects(CONV_3X3)
        assert len(casts) == 2

    def test_cast_binaries_are_per_bucket(self):
        xdlops = by_name("ConvImplicitGemmXdlopsFwd")
        same_bucket = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        other_bucket = ConvProblem(1, 64, 56, 56, 128, (3, 3), (2, 2), (1, 1))
        a = {c.name for c in xdlops.transform_code_objects(CONV_3X3)}
        b = {c.name for c in xdlops.transform_code_objects(same_bucket)}
        c = {c.name for c in xdlops.transform_code_objects(other_bucket)}
        assert a == b          # same kernel config shares cast binaries
        assert a.isdisjoint(c)  # different config loads its own

    def test_native_solution_needs_no_casts(self):
        naive = by_name("ConvDirectNaiveFwd")
        assert not naive.needs_layout_transform(CONV_3X3)
        assert naive.transform_code_objects(CONV_3X3) == ()


class TestCheckCost:
    def test_more_constraints_cost_more(self):
        naive = by_name("ConvDirectNaiveFwd")
        tip = by_name("ConvBinWinogradFwd<3,3>")
        assert tip.check_cost_s > naive.check_cost_s

    def test_check_cost_magnitude(self):
        for s in all_miopen_solutions():
            assert 4e-6 < s.check_cost_s < 100e-6


class TestValidation:
    def test_bad_specialization_rejected(self):
        with pytest.raises(ValueError):
            Solution("x", SolutionPattern.DIRECT, PrimitiveKind.CONVOLUTION,
                     specialization=5, base_efficiency=0.5)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            Solution("x", SolutionPattern.DIRECT, PrimitiveKind.CONVOLUTION,
                     specialization=0, base_efficiency=1.5)

    @pytest.mark.parametrize("bad", (math.nan, 1.5, True, 0),
                             ids=("nan", "fractional", "bool", "zero"))
    def test_bad_kernels_per_launch_rejected(self, bad):
        # NaN, 1.5 and True used to pass the old ``< 1`` test.
        with pytest.raises(ValueError, match="kernels_per_launch"):
            Solution("x", SolutionPattern.DIRECT, PrimitiveKind.CONVOLUTION,
                     specialization=0, base_efficiency=0.5,
                     kernels_per_launch=bad)

    def test_wrong_kind_never_applicable(self):
        naive = by_name("ConvDirectNaiveFwd")
        pool = PoolProblem(1, 8, 8, 8, (2, 2), (2, 2))
        assert not naive.is_applicable(pool)

    def test_unsupported_dtype_rejected(self):
        tip = by_name("ConvBinWinogradFwd<3,3>")
        fp16 = ConvProblem(1, 64, 56, 56, 64, (3, 3), pad=(1, 1),
                           dtype=DataType.FP16)
        assert not tip.is_applicable(fp16)


class TestActivationPooling:
    def test_activation_ladder(self):
        relu = ActivationProblem(1000, "relu")
        gelu = ActivationProblem(1000, "gelu")
        generic = by_name("ActivFwdGeneric")
        relu_tip = by_name("ActivFwdRelu")
        packed = by_name("ActivFwdReluPacked4")
        assert generic.is_applicable(relu) and generic.is_applicable(gelu)
        assert relu_tip.is_applicable(relu)
        assert not relu_tip.is_applicable(gelu)
        assert packed.is_applicable(relu)
        assert not packed.is_applicable(ActivationProblem(1001, "relu"))

    def test_pooling_ladder(self):
        p22 = PoolProblem(1, 64, 56, 56, (2, 2), (2, 2))
        pglobal = PoolProblem(1, 512, 7, 7, (7, 7), (1, 1), mode="avg")
        assert by_name("PoolingFwd2x2s2").is_applicable(p22)
        assert not by_name("PoolingFwd2x2s2").is_applicable(pglobal)
        assert by_name("PoolingFwdGlobal").is_applicable(pglobal)
        assert by_name("PoolingNaiveFwd").is_applicable(p22)
        assert by_name("PoolingNaiveFwd").is_applicable(pglobal)
