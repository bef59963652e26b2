"""Property-based tests (hypothesis) on core data structures & invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.cache import CategoricalSolutionCache, LoadedInstance, \
    NaiveSolutionCache
from repro.gpu import MI100, load_time, CodeObjectFile
from repro.primitive import ConvProblem, kernel_time
from repro.primitive.solution import _bucket_signature, _exact_signature
from repro.primitive.solvers import all_miopen_solutions
from repro.sim import Environment, merge_intervals
from repro.sim.trace import subtract_intervals
from repro.tensors import DataType, TensorDesc

_SOLUTIONS = all_miopen_solutions()
_CONV_SOLUTIONS = [s for s in _SOLUTIONS if s.kind.value == "convolution"]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

conv_problems = st.builds(
    ConvProblem,
    batch=st.sampled_from([1, 2, 4, 16]),
    in_channels=st.sampled_from([3, 8, 16, 32, 64, 96, 128, 256]),
    height=st.sampled_from([7, 14, 28, 56, 112, 224]),
    width=st.sampled_from([7, 14, 28, 56, 112, 224]),
    out_channels=st.sampled_from([8, 16, 32, 64, 128, 512]),
    kernel=st.sampled_from([(1, 1), (3, 3), (5, 5), (7, 7)]),
    stride=st.sampled_from([(1, 1), (2, 2)]),
    pad=st.sampled_from([(0, 0), (1, 1), (2, 2), (3, 3)]),
)

intervals = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False),
              st.floats(0, 100, allow_nan=False)).map(
        lambda p: (min(p), max(p))),
    max_size=20)


# ----------------------------------------------------------------------
# Interval math
# ----------------------------------------------------------------------

@given(intervals)
def test_merge_intervals_disjoint_and_sorted(items):
    merged = merge_intervals(items)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
        assert s1 <= e1 and s2 <= e2


@given(intervals)
def test_merge_preserves_total_coverage(items):
    merged = merge_intervals(items)
    # Total measure never exceeds the sum and never misses any point:
    total = sum(e - s for s, e in merged)
    raw = sum(e - s for s, e in items)
    assert total <= raw + 1e-9


@given(intervals, intervals)
def test_subtract_plus_intersection_equals_base(base, remove):
    merged_base = merge_intervals(base)
    merged_remove = merge_intervals(remove)
    difference = subtract_intervals(merged_base, merged_remove)
    # difference is inside base and disjoint from every remove interval
    # of positive measure (zero-length removes carve nothing out, so the
    # difference may legitimately cover such points).
    for s, e in difference:
        assert any(bs - 1e-9 <= s and e <= be + 1e-9
                   for bs, be in merged_base)
        for rs, re_ in merged_remove:
            if re_ <= rs:
                continue
            assert e <= rs + 1e-9 or s >= re_ - 1e-9
    # measure(diff) == measure(base) - measure(base ∩ remove)
    base_measure = sum(e - s for s, e in merged_base)
    diff_measure = sum(e - s for s, e in difference)
    assert diff_measure <= base_measure + 1e-9


# ----------------------------------------------------------------------
# Simulation clock
# ----------------------------------------------------------------------

@given(st.lists(st.floats(0.001, 10, allow_nan=False), min_size=1,
                max_size=20))
def test_clock_monotonic_under_arbitrary_timeouts(delays):
    env = Environment()
    seen = []

    def proc():
        for delay in delays:
            yield env.timeout(delay)
            seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == sorted(seen)
    assert math.isclose(seen[-1], sum(delays), rel_tol=1e-9)


# ----------------------------------------------------------------------
# Solutions
# ----------------------------------------------------------------------

@given(conv_problems)
@settings(max_examples=60)
def test_some_solution_always_applicable(problem):
    """The registry guarantees a universal fallback for every conv."""
    assert any(s.is_applicable(problem) for s in _CONV_SOLUTIONS)


@given(conv_problems)
@settings(max_examples=60)
def test_tuning_compatible_implies_applicable(problem):
    for solution in _CONV_SOLUTIONS:
        if not solution.is_applicable(problem):
            continue
        other = problem.with_batch(problem.batch + 1)
        if solution.tuning_compatible(problem, other):
            assert solution.is_applicable(other)


@given(conv_problems)
@settings(max_examples=60)
def test_bucket_signature_coarser_than_exact(problem):
    """Two problems with equal exact signatures share the bucket too."""
    same = ConvProblem(problem.batch, problem.in_channels, problem.height,
                       problem.width, problem.out_channels, problem.kernel,
                       problem.stride, problem.pad, problem.dilation,
                       problem.group, problem.dtype, problem.layout)
    assert _exact_signature(problem) == _exact_signature(same)
    assert _bucket_signature(problem) == _bucket_signature(same)
    assert _bucket_signature(problem) in _exact_signature(problem)


@given(conv_problems)
@settings(max_examples=60)
def test_efficiency_never_exceeds_base(problem):
    other = problem.with_batch(problem.batch + 3)
    for solution in _CONV_SOLUTIONS:
        assert solution.efficiency(problem, other) <= solution.base_efficiency + 1e-12


@given(conv_problems)
@settings(max_examples=60)
def test_code_object_deterministic_and_positive(problem):
    for solution in _CONV_SOLUTIONS:
        a = solution.code_object_for(problem)
        b = solution.code_object_for(problem)
        assert a.name == b.name
        assert a.size_bytes == b.size_bytes > 0


@given(conv_problems, st.sampled_from([1, 2, 4, 8, 16, 64]))
@settings(max_examples=60)
def test_flops_scale_linearly_with_batch(problem, factor):
    scaled = problem.with_batch(problem.batch * factor)
    assert math.isclose(scaled.flops, problem.flops * factor, rel_tol=1e-9)


# ----------------------------------------------------------------------
# Perf & loading models
# ----------------------------------------------------------------------

@given(st.floats(1e3, 1e13), st.floats(1.0, 1e9),
       st.floats(0.01, 1.0))
def test_kernel_time_positive_and_monotone_in_efficiency(flops, bytes_moved,
                                                         efficiency):
    fast = kernel_time(flops, bytes_moved, efficiency, MI100)
    slow = kernel_time(flops, bytes_moved, efficiency / 2, MI100)
    assert 0 < fast <= slow


@given(st.integers(1_000, 10_000_000))
def test_load_time_monotone_in_size(size):
    small = CodeObjectFile.single_kernel("a", size)
    large = CodeObjectFile.single_kernel("b", size * 2)
    assert load_time(small, MI100) < load_time(large, MI100)
    assert load_time(small, MI100, reactive=True) > load_time(small, MI100)


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(_CONV_SOLUTIONS), conv_problems),
                max_size=12),
       conv_problems)
@settings(max_examples=60)
def test_cache_hit_is_always_servable(entries, query):
    cache = CategoricalSolutionCache()
    for solution, problem in entries:
        if solution.is_applicable(problem):
            cache.insert(LoadedInstance(solution, problem))
    desired = _CONV_SOLUTIONS[0]
    result = cache.get_sub_solution(desired, query)
    if result.hit:
        assert result.instance.can_serve(query)
        assert result.instance.solution.pattern is desired.pattern


@given(st.lists(st.tuples(st.sampled_from(_CONV_SOLUTIONS), conv_problems),
                max_size=12),
       conv_problems)
@settings(max_examples=60)
def test_categorical_never_more_lookups_than_pattern_list(entries, query):
    cache = CategoricalSolutionCache()
    for solution, problem in entries:
        if solution.is_applicable(problem):
            cache.insert(LoadedInstance(solution, problem))
    desired = _CONV_SOLUTIONS[-1]
    before = len(cache.entries(desired.pattern))
    result = cache.get_sub_solution(desired, query)
    assert result.lookups <= before


@given(st.lists(st.tuples(st.sampled_from(_CONV_SOLUTIONS), conv_problems),
                max_size=12),
       conv_problems)
@settings(max_examples=60)
def test_naive_finds_whenever_categorical_same_pattern_finds(entries, query):
    """The naive cache sees a superset of candidates, so a categorical
    hit implies a naive hit on identical contents."""
    categorical = CategoricalSolutionCache()
    naive = NaiveSolutionCache()
    for solution, problem in entries:
        if solution.is_applicable(problem):
            instance = LoadedInstance(solution, problem)
            categorical.insert(instance)
            naive.insert(instance)
    desired = _CONV_SOLUTIONS[0]
    c = categorical.get_sub_solution(desired, query)
    n = naive.get_sub_solution(desired, query)
    if c.hit:
        assert n.hit


# ----------------------------------------------------------------------
# Tensor descriptors
# ----------------------------------------------------------------------

@given(st.lists(st.integers(1, 64), min_size=1, max_size=5),
       st.sampled_from(list(DataType)))
def test_tensor_numel_and_bytes_consistent(dims, dtype):
    t = TensorDesc(tuple(dims), dtype)
    expected = 1
    for d in dims:
        expected *= d
    assert t.numel == expected
    assert t.size_bytes == expected * dtype.size_bytes
