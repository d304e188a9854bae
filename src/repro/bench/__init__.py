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

The names below are imported lazily (PEP 562): ``python -m
repro.bench.harness`` imports this package first, and an eager import of
``.harness`` here would load that module a second time, as ``__main__``.
"""

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

_LAZY = {
    "CORPUS": "corpus",
    "CorpusEntry": "corpus",
    "corpus_entry": "corpus",
    "corpus_names": "corpus",
    "corpus_program": "corpus",
    "WorkloadParams": "generator",
    "generate_program": "generator",
    "BenchmarkRun": "harness",
    "ablation_table": "harness",
    "fig3_table": "harness",
    "fig4_table": "harness",
    "fig5_table": "harness",
    "fig6_table": "harness",
    "kcfa_table": "harness",
    "precision_table": "harness",
    "run_benchmark": "harness",
    "run_corpus": "harness",
    "scaling_table": "harness",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
