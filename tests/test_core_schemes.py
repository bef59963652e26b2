"""Integration tests for the six serving schemes on real zoo models."""

import pytest

from repro.core.schemes import Scheme, program_code_objects
from repro.engine.instruction import InstrKind
from repro.engine.program import Program
from repro.models import list_models
from repro.serving.experiments import ExperimentSuite
from repro.sim.trace import Phase

SUITE = ExperimentSuite("MI100")


def cold(model, scheme, batch=1):
    return SUITE.cold(model, scheme, batch)


class TestSchemeBasics:
    def test_labels(self):
        assert Scheme.PASK.label == "PaSK"
        assert Scheme.PASK_I.label == "PaSK-I"
        assert Scheme.BASELINE.label == "Baseline"

    def test_nnv12_lowering_policy(self):
        options = Scheme.NNV12.lowering_options(batch=4)
        assert options.native_layout_only
        assert options.consolidate_buckets
        assert options.batch == 4
        default = Scheme.BASELINE.lowering_options()
        assert not default.native_layout_only

    def test_unknown_scheme_rejected(self):
        from repro.core.schemes import build_executor
        with pytest.raises(ValueError):
            build_executor("not-a-scheme")


class TestProgramCodeObjects:
    def test_covers_all_instruction_kinds(self):
        server = SUITE.server()
        program = server._lowered("res", Scheme.BASELINE, 1)
        code_objects = program_code_objects(program, server.library,
                                            server.blas)
        names = {co.name for co in code_objects}
        assert any(name.startswith("mgx_jit_") for name in names)
        assert any(name.startswith("Blas") for name in names)
        assert len(names) == len(code_objects)  # deduplicated

    @pytest.mark.parametrize("scheme", [Scheme.BASELINE, Scheme.NNV12],
                             ids=["default", "native"])
    @pytest.mark.parametrize("model", list_models())
    def test_matches_per_instruction_walk(self, model, scheme):
        """The preload set equals a walk that derives every engine
        instruction's bundle afresh: same names, order and sizes."""
        server = SUITE.server()
        program = server._lowered(model, scheme, 1)
        expected, seen = [], set()
        for instr in program.instructions:
            if instr.kind is InstrKind.MIOPEN_PRIMITIVE:
                solution = server.library.solution_by_name(
                    instr.solution_name)
                touched = ((solution.code_object_for(instr.problem),)
                           + solution.transform_code_objects(instr.problem))
            elif instr.kind is InstrKind.ENGINE_KERNEL:
                touched = (Program.engine_bundle.func(program),)
            elif instr.kind is InstrKind.BLAS_GEMM:
                touched = (server.blas.find_best(instr.problem)
                           .code_object_for(instr.problem),)
            else:
                touched = ()
            for co in touched:
                if co.name not in seen:
                    seen.add(co.name)
                    expected.append((co.name, co.size_bytes))
        actual = program_code_objects(program, server.library, server.blas)
        assert [(co.name, co.size_bytes) for co in actual] == expected


class TestSchemeOrdering:
    """The headline qualitative result: Ideal > PaSK > NNV12 > Baseline."""

    @pytest.mark.parametrize("model", ["vgg", "res", "reg", "eff", "ssd",
                                       "unet", "fcn"])
    def test_scheme_ordering_conv_models(self, model):
        base = cold(model, Scheme.BASELINE).total_time
        nnv12 = cold(model, Scheme.NNV12).total_time
        pask = cold(model, Scheme.PASK).total_time
        ideal = cold(model, Scheme.IDEAL).total_time
        assert ideal < pask < nnv12 < base

    @pytest.mark.parametrize("model", ["vit", "swin", "swin2"])
    def test_transformers_still_ordered(self, model):
        base = cold(model, Scheme.BASELINE).total_time
        pask = cold(model, Scheme.PASK).total_time
        ideal = cold(model, Scheme.IDEAL).total_time
        assert ideal < pask <= base

    @pytest.mark.parametrize("model", ["vgg", "res", "eff", "ssd"])
    def test_ablations_between_pask_and_baseline(self, model):
        base = cold(model, Scheme.BASELINE).total_time
        pask = cold(model, Scheme.PASK).total_time
        pask_i = cold(model, Scheme.PASK_I).total_time
        pask_r = cold(model, Scheme.PASK_R).total_time
        assert pask <= pask_i < base
        assert pask <= pask_r < base


class TestBaseline:
    def test_loads_all_distinct_code_objects(self):
        result = cold("res", Scheme.BASELINE)
        assert result.loads > 10
        assert result.trace.busy_time(phase=Phase.LOAD) > 0

    def test_loading_dominates_cold_start(self):
        result = cold("res", Scheme.BASELINE)
        assert result.phase_fraction(Phase.LOAD) > 0.55

    def test_gpu_mostly_idle(self):
        result = cold("res", Scheme.BASELINE)
        assert result.gpu_utilization < 0.15


class TestIdeal:
    def test_no_loads_at_all(self):
        result = cold("res", Scheme.IDEAL)
        assert result.loads == 0
        assert result.trace.busy_time(phase=Phase.LOAD) == 0.0

    def test_highest_utilization(self):
        assert (cold("res", Scheme.IDEAL).gpu_utilization
                > cold("res", Scheme.PASK).gpu_utilization
                > cold("res", Scheme.BASELINE).gpu_utilization)


class TestNNV12:
    def test_no_layout_casts_loaded(self):
        result = cold("res", Scheme.NNV12)
        load_labels = [r.label for r in result.trace.filtered(phase=Phase.LOAD)]
        assert not any(label.startswith("cast_") for label in load_labels)

    def test_fewer_loads_than_baseline(self):
        assert cold("res", Scheme.NNV12).loads < cold("res", Scheme.BASELINE).loads


class TestPask:
    def test_milestone_reached_and_reuses(self):
        result = cold("res", Scheme.PASK)
        assert result.milestone is not None
        assert result.reused_layers > 0
        assert result.skipped_loads > 0
        assert result.cache_stats.hits == result.reused_layers

    def test_fewer_loads_than_baseline(self):
        assert cold("res", Scheme.PASK).loads < cold("res", Scheme.BASELINE).loads

    def test_overhead_is_small(self):
        result = cold("res", Scheme.PASK)
        breakdown = result.breakdown()
        assert breakdown["pask_overhead"] < 0.08

    def test_pask_i_never_reuses(self):
        result = cold("res", Scheme.PASK_I)
        assert result.reused_layers == 0
        assert result.cache_stats.queries == 0

    def test_pask_r_uses_naive_cache(self):
        pask = cold("eff", Scheme.PASK)
        pask_r = cold("eff", Scheme.PASK_R)
        assert pask_r.reused_layers > 0
        assert (pask_r.cache_stats.lookups_per_query
                > pask.cache_stats.lookups_per_query)

    def test_transformer_has_no_reuse_opportunities(self):
        result = cold("vit", Scheme.PASK)
        assert result.cache_stats.queries == 0


class TestBatchScaling:
    def test_speedup_decreases_with_batch(self):
        small = SUITE.speedup("res", Scheme.PASK, batch=1)
        large = SUITE.speedup("res", Scheme.PASK, batch=64)
        assert large < small

    def test_batch_increases_total_time(self):
        assert (cold("res", Scheme.IDEAL, batch=64).total_time
                > cold("res", Scheme.IDEAL, batch=1).total_time)


class TestDeterminism:
    def test_same_run_twice_identical(self):
        server = SUITE.server()
        a = server.serve_cold("vgg", Scheme.PASK)
        b = server.serve_cold("vgg", Scheme.PASK)
        assert a.total_time == b.total_time
        assert a.loads == b.loads
        assert a.milestone == b.milestone
