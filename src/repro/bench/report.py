"""Combined markdown report over the regenerated figures.

Collects the ``results/*.txt`` tables produced by the harness (or
regenerates them) into one document with the qualitative checks the
benchmarks assert, suitable for dropping into an issue or a paper-repro
registry entry.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .corpus import corpus_entry
from .harness import (
    BenchmarkRun,
    fig3_table,
    fig4_table,
    fig5_table,
    fig6_table,
)

__all__ = ["ReportCheck", "qualitative_checks", "build_report"]


@dataclass(frozen=True)
class ReportCheck:
    """One qualitative claim from the paper, checked against a run."""

    claim: str
    passed: bool
    detail: str = ""


def _seconds(run: BenchmarkRun, *algs: int) -> str:
    return ", ".join(f"A{a} {getattr(run, f'alg{a}')[0]:.2f}s" for a in algs)


def qualitative_checks(runs: Sequence[BenchmarkRun]) -> List[ReportCheck]:
    """Evaluate the paper's headline claims on a set of benchmark runs."""
    checks: List[ReportCheck] = []

    paths = [r.paths for r in runs]
    methods = [r.stats["methods"] for r in runs]
    checks.append(
        ReportCheck(
            claim="Reduced call paths grow exponentially past 10^6",
            passed=max(paths) > 10**6,
            detail=f"max paths {max(paths):.3g} over {max(methods)} methods",
        )
    )

    # Cost is judged on peak BDD nodes (Figure 4's memory column), which
    # is deterministic for a backend; the seconds, timed in separate
    # solves, are reported alongside but decide nothing.
    cs_most_expensive = all(
        r.alg5[1] >= max(r.alg1[1], r.alg2[1], r.alg7[1]) for r in runs
    )
    checks.append(
        ReportCheck(
            claim="Context-sensitive pointer analysis dominates cost",
            passed=cs_most_expensive,
            detail="; ".join(
                f"{r.name}: peak nodes A5 {r.alg5[1]} vs max(A1, A2, A7) "
                f"{max(r.alg1[1], r.alg2[1], r.alg7[1])} "
                f"({_seconds(r, 1, 2, 5, 7)})"
                for r in runs
            ),
        )
    )

    type_cheaper = all(r.alg6[1] <= r.alg5[1] for r in runs)
    checks.append(
        ReportCheck(
            claim="Context-sensitive type analysis cheaper than pointers",
            passed=type_cheaper,
            detail="; ".join(
                f"{r.name}: peak nodes A6 {r.alg6[1]} vs A5 {r.alg5[1]} "
                f"({_seconds(r, 5, 6)})"
                for r in runs
            ),
        )
    )

    singles_ok = True
    for r in runs:
        entry = corpus_entry(r.name)
        if entry.params.threads == 0 and r.escape_summary["escaped"] != 1:
            singles_ok = False
    checks.append(
        ReportCheck(
            claim="Single-threaded programs: exactly one escaped object",
            passed=singles_ok,
        )
    )

    precision_ok = all(
        r.refinement["ci_nofilter"][0]
        >= r.refinement["ci_filter"][0]
        >= r.refinement["cs_pointer_proj"][0]
        >= r.refinement["cs_pointer_full"][0]
        for r in runs
    )
    checks.append(
        ReportCheck(
            claim="Precision lattice: no-filter >= filter >= projected >= full",
            passed=precision_ok,
        )
    )

    headline = all(r.refinement["cs_pointer_full"][0] <= 1.0 for r in runs)
    checks.append(
        ReportCheck(
            claim="Full CS pointer analysis: multi-typed variables <= 1%",
            passed=headline,
        )
    )
    return checks


def build_report(
    runs: Sequence[BenchmarkRun],
    extra_sections: Optional[Dict[str, str]] = None,
) -> str:
    """One markdown document: tables, then the claim checklist."""
    lines: List[str] = [
        "# Reproduction report — Whaley & Lam, PLDI 2004",
        "",
        f"Corpus entries measured: {', '.join(r.name for r in runs)}",
        "",
    ]
    for title, fn in (
        ("Figure 3 — benchmark vitals", fig3_table),
        ("Figure 4 — analysis time and memory", fig4_table),
        ("Figure 5 — escape analysis", fig5_table),
        ("Figure 6 — type refinement precision", fig6_table),
    ):
        text, _ = fn(runs)
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(text)
        lines.append("```")
        lines.append("")
    for title, body in (extra_sections or {}).items():
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(body.rstrip())
        lines.append("```")
        lines.append("")
    lines.append("## Claim checklist")
    lines.append("")
    for check in qualitative_checks(runs):
        mark = "x" if check.passed else " "
        suffix = f" — {check.detail}" if check.detail else ""
        lines.append(f"- [{mark}] {check.claim}{suffix}")
    lines.append("")
    return "\n".join(lines)
