"""Unit tests for lowering, programs and the registry."""

import pytest

from repro.engine import (
    InstrKind,
    LoweringOptions,
    ModelRegistry,
    lower,
)
from repro.gpu import MI100
from repro.graph import GraphBuilder
from repro.primitive import ConvProblem, MIOpenLibrary


@pytest.fixture(scope="module")
def library():
    return MIOpenLibrary(MI100)


def small_cnn():
    b = GraphBuilder("small_cnn")
    x = b.input("x", (1, 3, 32, 32))
    y = b.conv(x, 16, 3, pad=1, name="c1")
    y = b.relu(y, name="r1")
    y = b.maxpool(y, 2, name="p1")
    y = b.conv(y, 32, 3, pad=1, name="c2")
    y = b.batchnorm(y, name="bn2")
    y = b.relu(y, name="r2")
    y = b.global_avgpool(y, name="gap")
    y = b.flatten(y, name="fl")
    y = b.gemm(y, out_features=10, name="fc")
    y = b.softmax(y, name="sm")
    b.output(y)
    return b.finish()


def transformer_block():
    b = GraphBuilder("tiny_vit")
    x = b.input("x", (1, 3, 224, 224))
    y = b.conv(x, 192, 16, stride=16, name="patch_embed")
    y = b.reshape(y, (1, 192, 196), name="rs1")
    y = b.transpose(y, (0, 2, 1), name="tp1")
    y = b.layernorm(y, name="ln1")
    qk = b.matmul(y, b.transpose(y, (0, 2, 1), name="tp2"), name="attn_qk")
    attn = b.softmax(qk, name="attn_sm")
    y = b.matmul(attn, y, name="attn_v")
    y = b.gelu(y, name="mlp_gelu")
    b.output(y)
    return b.finish()


class TestLowering:
    def test_convs_become_miopen_instructions(self, library):
        program = lower(small_cnn(), library)
        prims = program.primitive_instructions
        assert all(i.solution_name for i in prims)
        conv_instrs = [i for i in prims
                       if isinstance(i.problem, ConvProblem)]
        assert len(conv_instrs) == 2

    def test_fusion_removes_standalone_relus(self, library):
        program = lower(small_cnn(), library)
        names = [i.name for i in program.instructions]
        assert "r1" not in names   # fused into c1
        assert "r2" not in names   # fused into c2 (with bn2)
        assert "bn2" not in names

    def test_gemm_becomes_blas(self, library):
        program = lower(small_cnn(), library)
        blas = program.of_kind(InstrKind.BLAS_GEMM)
        assert [i.name for i in blas] == ["fc"]
        assert blas[0].problem.n == 10

    def test_softmax_becomes_engine_kernel(self, library):
        program = lower(small_cnn(), library)
        engine = program.of_kind(InstrKind.ENGINE_KERNEL)
        assert any(i.engine_kernel.op == "Softmax" for i in engine)

    def test_flatten_is_noop(self, library):
        program = lower(small_cnn(), library)
        noops = program.of_kind(InstrKind.NOOP)
        assert any(i.name == "fl" for i in noops)

    def test_batch_scales_problems(self, library):
        p1 = lower(small_cnn(), library, LoweringOptions(batch=1))
        p8 = lower(small_cnn(), library, LoweringOptions(batch=8))
        conv1 = p1.primitive_instructions[0].problem
        conv8 = p8.primitive_instructions[0].problem
        assert conv8.batch == 8 * conv1.batch
        gemm1 = p1.of_kind(InstrKind.BLAS_GEMM)[0].problem
        gemm8 = p8.of_kind(InstrKind.BLAS_GEMM)[0].problem
        assert gemm8.m == 8 * gemm1.m

    def test_native_layout_only_changes_solutions(self, library):
        default = lower(small_cnn(), library)
        native = lower(small_cnn(), library,
                       LoweringOptions(native_layout_only=True))
        for instr in native.primitive_instructions:
            solution = library.solution_by_name(instr.solution_name)
            assert not solution.needs_layout_transform(instr.problem)
        # The default policy picks at least one cast-needing solution here.
        assert any(
            library.solution_by_name(i.solution_name)
            .needs_layout_transform(i.problem)
            for i in default.primitive_instructions)

    def test_transformer_lowering(self, library):
        program = lower(transformer_block(), library)
        stats = program.stats()
        assert stats["per_kind"]["miopen"] == 1          # patch embed conv
        assert stats["per_kind"]["blas"] == 2            # two matmuls
        assert stats["distinct_conv_problems"] == 1
        gelu = [i for i in program.of_kind(InstrKind.ENGINE_KERNEL)
                if i.engine_kernel.op == "Gelu"]
        assert gelu, "Gelu must lower to an engine kernel, not MIOpen"

    def test_matmul_batch_dims(self, library):
        program = lower(transformer_block(), library)
        matmuls = [i.problem for i in program.of_kind(InstrKind.BLAS_GEMM)]
        assert all(p.batch == 1 for p in matmuls)
        assert {p.m for p in matmuls} == {196}

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            LoweringOptions(batch=0)


class TestProgram:
    def test_index_consistency_enforced(self, library):
        program = lower(small_cnn(), library)
        from repro.engine import Program
        with pytest.raises(ValueError):
            Program("bad", tuple(reversed(program.instructions)))

    def test_stats(self, library):
        program = lower(small_cnn(), library)
        stats = program.stats()
        assert stats["instructions"] == len(program)
        assert sum(stats["per_kind"].values()) == len(program)

    def test_total_parse_cost_positive(self, library):
        program = lower(small_cnn(), library)
        assert sum(i.parse_cost_s for i in program) > 0


class TestRegistry:
    def test_compile_register_load(self, library):
        registry = ModelRegistry(library)
        key = registry.compile_and_register(small_cnn())
        assert key == "small_cnn"
        assert key in registry
        program = registry.load(key)
        assert program.name == "small_cnn"

    def test_load_unknown_raises_with_known_keys(self, library):
        registry = ModelRegistry(library)
        registry.compile_and_register(small_cnn())
        with pytest.raises(KeyError, match="small_cnn"):
            registry.load("missing")

    def test_register_prelowered(self, library):
        registry = ModelRegistry(library)
        program = lower(small_cnn(), library, LoweringOptions(batch=16))
        registry.register(program, key="small_cnn@16")
        assert registry.load("small_cnn@16").batch == 16
        assert registry.keys() == ["small_cnn@16"]
