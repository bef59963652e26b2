"""Regenerate EXPERIMENTS.md from a full experiment run.

Usage:  python scripts/generate_experiments_md.py > EXPERIMENTS.md

Each section prints the reproduced figure or table, then the rows of
the paper-claims table (``repro.serving.validation.CLAIMS``) that
check it, with the paper's value next to the reproduced one.
"""

import io
import sys

from repro.report import format_table
from repro.serving.experiments import DEFAULT_BATCHES, ExperimentSuite
from repro.serving.validation import CLAIMS, format_value


def _section(w, suite, group, title, table=None, note=None):
    """One section: the table, the claims whose id starts with
    ``group``, and an optional note."""
    w(f"## {title}\n\n")
    if table is not None:
        w(f"```\n{table}\n```\n\n")
    w("| claim | check | paper | reproduced | |\n|---|---|---|---|---|\n")
    for claim in CLAIMS:
        if claim.name.split("-")[0] == group:
            value, passed = claim.evaluate(suite)
            w(f"| `{claim.name}` | {claim.description} | {claim.paper} | "
              f"{format_value(value)} | {'PASS' if passed else 'FAIL'} |\n")
    if note is not None:
        w(f"\n{note}\n")
    w("\n")


def _per_model(figure, models, precision=2):
    """``figure[column][model]`` with one row per model."""
    rows = [[m] + [figure[c][m] for c in figure] for m in models]
    return format_table(["model"] + list(figure), rows, precision=precision)


def _per_row(figure, precision):
    """``figure[row][column]`` as printed."""
    columns = list(next(iter(figure.values())))
    rows = [[m] + [figure[m][c] for c in columns] for m in figure]
    return format_table(["model"] + columns, rows, precision=precision)


def main(out=sys.stdout):
    suite = ExperimentSuite("MI100")
    w = out.write
    models = suite.models + ["average"]

    w("# EXPERIMENTS — paper vs. reproduction\n\n")
    w("All measurements below come from the deterministic simulation\n"
      "(`python scripts/generate_experiments_md.py`); the paper's numbers\n"
      "were measured on real MI100/A100/6900XT hardware.  Per DESIGN.md the\n"
      "goal is matching *shape* (orderings, trends, crossovers), not\n"
      "absolute values.  Each claim row below is one row of\n"
      "`repro.serving.validation.CLAIMS`, the table `python -m repro\n"
      "validate` and `tests/test_paper_results.py` check.\n\n")

    _section(w, suite, "fig1a", "Fig. 1(a) — cold/hot slowdown per device",
             _per_model(suite.fig1a(), models, precision=1))
    _section(w, suite, "fig1b", "Fig. 1(b) — baseline cold-start breakdown",
             _per_row(suite.fig1b(), precision=3))
    _section(
        w, suite, "fig6a", "Fig. 6(a) — end-to-end cold-start speedups",
        _per_model(suite.fig6a(), models),
        "Known deviation: our PaSK average sits below the paper's 5.62x "
        "because (a) the strict reading of Sec. VI leaves BLAS completely "
        "unmanaged, capping the transformer rows near 1.1-1.4x, and (b) the "
        "simulated PaSK remains loader-bound on shallow models "
        "(alex/vgg/res) where first-of-bucket misses cannot be amortized. "
        "The `ext-blas-managed-transformers` claim shows the transformer "
        "rows improving substantially once PASK manages BLAS, as the paper "
        "predicts.")
    _section(w, suite, "fig6b", "Fig. 6(b) — GPU utilization during cold "
             "start", _per_model(suite.fig6b(), models, precision=3))
    table2 = suite.table2(batches=DEFAULT_BATCHES)
    _section(w, suite, "table2",
             "Table II — speedup vs inference batch size",
             format_table(["scheme"] + [str(b) for b in DEFAULT_BATCHES],
                          [[s] + [table2[s][b] for b in DEFAULT_BATCHES]
                           for s in table2]))
    _section(w, suite, "fig7", "Fig. 7 — PaSK cold-start breakdown",
             _per_row(suite.fig7(), precision=3),
             "Known deviation: our loading share stays larger than 11.2% "
             "because the simulated PaSK remains load-bound (see Fig. 6(a) "
             "note).")
    _section(w, suite, "fig8", "Fig. 8 — ablation: variants normalized to "
             "PaSK", _per_model(suite.fig8(), models),
             "PaSK-R's deficit is largest on lookup-heavy models.")
    _section(w, suite, "fig9", "Fig. 9 — cache hit rate and lookups per "
             "query", _per_row(suite.fig9(), precision=2),
             "Transformers are omitted (one primitive operator), as in the "
             "paper.")
    _section(w, suite, "ext", "Extensions — Sec. VI, design ablations, "
             "sensitivity and serving")


if __name__ == "__main__":
    buffer = io.StringIO()
    main(buffer)
    sys.stdout.write(buffer.getvalue())
