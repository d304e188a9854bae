"""Workloads, the figure-regeneration harness, and the identity gates.

* :mod:`repro.bench.generator` — parameterized synthetic applications,
* :mod:`repro.bench.corpus` — the 21-entry scaled corpus (Figure 3 names),
* :mod:`repro.bench.harness` — regenerates Figures 3-6, the Section 6.2
  scaling observation, the design ablations, the 1-CFA baseline and the
  precision ladder,
* :mod:`repro.bench.report` — the paper's claims, checked on counts,
  nodes, tuples and percentages,
* :mod:`repro.bench.differential`, :mod:`repro.bench.plan_bench`,
  :mod:`repro.bench.chaos_bench` — the cross-backend fingerprint,
  executed-op and availability gates.

Nothing here reads a wall clock to judge speed: timing is
``perfbench/run.py``'s job alone.

CLI::

    python -m repro.bench.harness all --small
    python -m repro.bench.harness report --small
"""

from .generator import WorkloadParams, generate_program
from .corpus import CORPUS, CorpusEntry, corpus_entry, corpus_names, corpus_program
from .harness import (
    BenchmarkRun,
    ablation_table,
    fig3_table,
    fig4_table,
    fig5_table,
    fig6_table,
    kcfa_table,
    precision_table,
    run_benchmark,
    run_corpus,
    scaling_table,
)

__all__ = [
    "CORPUS",
    "BenchmarkRun",
    "CorpusEntry",
    "WorkloadParams",
    "ablation_table",
    "corpus_entry",
    "corpus_names",
    "corpus_program",
    "fig3_table",
    "fig4_table",
    "fig5_table",
    "fig6_table",
    "generate_program",
    "kcfa_table",
    "precision_table",
    "run_benchmark",
    "run_corpus",
    "scaling_table",
]
