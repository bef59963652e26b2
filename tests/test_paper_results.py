"""Paper-shape regression tests: one test per row of the paper-claims
table, :data:`repro.serving.validation.CLAIMS`.

Claim ``fig6a-nnv12-average-band`` runs as
``TestFig6a::test_nnv12_average_band``: the id's first word names the
class, the rest names the test.  The claims named after ``repro
validate``'s original criteria keep the test names they had before the
table (``_TEST_NAMES``).
"""

from repro.serving.experiments import ExperimentSuite
from repro.serving.validation import CLAIMS, format_value

SUITE = ExperimentSuite("MI100")

_TEST_NAMES = {
    "fig1b-loading": "test_code_loading_dominates",
    "fig6a-ordering": "test_scheme_ordering_on_average",
    "fig6a-pask-band": "test_pask_average_band",
    "fig6a-layer-trend": "test_more_primitive_layers_more_speedup",
    "fig6a-transformers": "test_transformers_gain_least",
    "fig6b-utilization": "test_utilization_ordering",
    "table2-monotone": "test_speedups_decrease_with_batch",
    "fig7-overhead": "test_pask_overhead_small",
    "fig8-ablation": "test_variants_never_beat_full_pask",
    "fig9-cache": "test_hit_rate_band",
}


def _test(claim):
    def test(self):
        value, passed = claim.evaluate(SUITE)
        assert passed, (f"{claim.name}: {claim.description}; "
                        f"reproduced {format_value(value)}")
    return test


def _test_classes():
    classes = {}
    for claim in CLAIMS:
        group, _, rest = claim.name.partition("-")
        name = f"Test{group.capitalize()}"
        test_class = classes.setdefault(name, type(name, (), {}))
        setattr(test_class, _TEST_NAMES.get(
            claim.name, "test_" + rest.replace("-", "_")), _test(claim))
    return classes


globals().update(_test_classes())
