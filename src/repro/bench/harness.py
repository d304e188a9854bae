"""The benchmark harness: regenerates every table and figure of the paper.

* :func:`fig3_table` — benchmark vitals (classes, methods, statements,
  vars, allocs, context-sensitive paths),
* :func:`fig4_table` — analysis times and peak BDD memory for Algorithms
  1, 2, 3 (with iteration counts), 5, 6 and 7,
* :func:`fig5_table` — escape analysis results,
* :func:`fig6_table` — type refinement precision under six variants,
* :func:`scaling_table` — context-sensitive analysis time versus number
  of reduced call paths (the O(log^2 n) observation of Section 6.2),
* :func:`ablation_table` — the design-choice ablations called out in
  DESIGN.md (semi-naive evaluation, variable order, type filtering,
  contiguous context numbering).

Each function returns ``(text, rows)``; the CLI (``python -m
repro.bench.harness <figure>``) prints the text and writes it under
``results/``.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    ContextInsensitiveAnalysis,
    ContextSensitiveAnalysis,
    ContextSensitiveTypeAnalysis,
    ThreadEscapeAnalysis,
)
from ..analysis.queries import refinement_stats
from ..callgraph import cha_call_graph, number_call_graph
from ..ir.facts import extract_facts
from ..runtime import ReproError, ResourceBudget
from .corpus import CORPUS, corpus_entry, corpus_names
from .generator import WorkloadParams, generate_program

__all__ = [
    "BenchmarkRun",
    "run_benchmark",
    "run_corpus",
    "run_corpus_supervised",
    "fig3_table",
    "fig4_table",
    "fig5_table",
    "fig6_table",
    "scaling_table",
    "ablation_table",
    "main",
]


def _mb(nodes: int) -> float:
    return nodes * 16 / 1e6


@dataclass
class BenchmarkRun:
    """Everything the figures need for one corpus entry, computed once."""

    name: str
    stats: Dict[str, int]
    num_vars: int
    paths: int
    # (seconds, peak nodes) per analysis, plus discovery iterations.
    alg1: Tuple[float, int]
    alg2: Tuple[float, int]
    alg3: Tuple[float, int]
    alg3_iterations: int
    alg5: Tuple[float, int]
    alg6: Tuple[float, int]
    alg7: Tuple[float, int]
    escape_summary: Dict[str, int]
    refinement: Dict[str, Tuple[float, float]]  # variant -> (multi%, refinable%)
    degraded: List[str] = field(default_factory=list)
    backend: str = ""  # BddKernel backend that produced these numbers

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (tuples become lists) — the worker protocol and
        ``BENCH_*.json`` artifacts use this."""
        return {
            "name": self.name,
            "stats": dict(self.stats),
            "num_vars": self.num_vars,
            "paths": self.paths,
            "alg1": list(self.alg1),
            "alg2": list(self.alg2),
            "alg3": list(self.alg3),
            "alg3_iterations": self.alg3_iterations,
            "alg5": list(self.alg5),
            "alg6": list(self.alg6),
            "alg7": list(self.alg7),
            "escape_summary": dict(self.escape_summary),
            "refinement": {k: list(v) for k, v in self.refinement.items()},
            "degraded": list(self.degraded),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchmarkRun":
        return cls(
            name=data["name"],
            stats=dict(data["stats"]),
            num_vars=int(data["num_vars"]),
            paths=int(data["paths"]),
            alg1=tuple(data["alg1"]),
            alg2=tuple(data["alg2"]),
            alg3=tuple(data["alg3"]),
            alg3_iterations=int(data["alg3_iterations"]),
            alg5=tuple(data["alg5"]),
            alg6=tuple(data["alg6"]),
            alg7=tuple(data["alg7"]),
            escape_summary=dict(data["escape_summary"]),
            refinement={k: tuple(v) for k, v in data["refinement"].items()},
            degraded=list(data.get("degraded", ())),
            backend=str(data.get("backend", "")),
        )


def run_benchmark(
    name: str,
    timeout: Optional[float] = None,
    node_budget: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> BenchmarkRun:
    """Run every analysis of Figure 4 on one corpus entry.

    Each analysis result (and its BDD arena) is reduced to scalars and
    dropped before the next analysis starts — seven live solvers at once
    would multiply the peak memory for no benefit.

    ``timeout``/``node_budget`` bound each analysis individually (each
    gets a fresh :class:`ResourceBudget`).  A budgeted context-sensitive
    analysis that cannot finish degrades instead of raising; the names of
    degraded analyses are recorded in ``BenchmarkRun.degraded``.  Budget
    faults from the context-insensitive analyses propagate as
    :class:`ReproError` for the caller to handle.
    """

    def budget() -> Optional[ResourceBudget]:
        if timeout is None and node_budget is None:
            return None
        return ResourceBudget(timeout=timeout, node_budget=node_budget)

    from ..bdd import resolve_backend_name

    backend = resolve_backend_name(backend)
    entry = corpus_entry(name)
    program = entry.build()
    facts = extract_facts(program)
    cha = cha_call_graph(facts)
    refinement: Dict[str, Tuple[float, float]] = {}
    degraded: List[str] = []

    alg1 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=False, discover_call_graph=False,
        call_graph=cha, budget=budget(), backend=backend,
    ).run()
    alg1_stats = (alg1.seconds, alg1.peak_nodes)
    del alg1

    alg2 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=True, discover_call_graph=False,
        call_graph=cha, budget=budget(), backend=backend,
    ).run()
    alg2_stats = (alg2.seconds, alg2.peak_nodes)
    del alg2, cha

    alg3_nofilter = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=False, discover_call_graph=True,
        query_fragments=["query_refinement_ci"], budget=budget(),
        backend=backend,
    ).run()
    refinement["ci_nofilter"] = refinement_stats(alg3_nofilter, "ci").as_row()
    del alg3_nofilter

    alg3 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=True, discover_call_graph=True,
        query_fragments=["query_refinement_ci"], budget=budget(),
        backend=backend,
    ).run()
    refinement["ci_filter"] = refinement_stats(alg3, "ci").as_row()
    alg3_stats = (alg3.seconds, alg3.peak_nodes)
    alg3_iterations = alg3.iterations
    graph = alg3.discovered_call_graph
    del alg3

    def fell_back_to_ci(result) -> bool:
        report = result.degradation
        return report is not None and report.final_mode == "context_insensitive"

    alg5 = ContextSensitiveAnalysis(
        facts=facts, call_graph=graph,
        query_fragments=["query_refinement_cs_pointer"],
        budget=budget(), checkpoint_dir=checkpoint_dir, backend=backend,
    ).run()
    if alg5.degraded:
        degraded.append(f"alg5:{alg5.degradation.final_mode}")
    if fell_back_to_ci(alg5):
        # The fallback result has no context dimension, so its precision
        # is by definition the context-insensitive row.
        refinement["cs_pointer_proj"] = refinement["ci_filter"]
        refinement["cs_pointer_full"] = refinement["ci_filter"]
        paths = number_call_graph(
            graph, entries=facts.entry_method_ids()
        ).max_paths()
    else:
        refinement["cs_pointer_proj"] = refinement_stats(alg5, "projected").as_row()
        refinement["cs_pointer_full"] = refinement_stats(alg5, "full").as_row()
        paths = alg5.max_paths()
    alg5_stats = (alg5.seconds, alg5.peak_nodes)
    del alg5

    alg6 = ContextSensitiveTypeAnalysis(
        facts=facts, call_graph=graph,
        query_fragments=["query_refinement_cs_type"],
        budget=budget(), checkpoint_dir=checkpoint_dir, backend=backend,
    ).run()
    if alg6.degraded:
        degraded.append(f"alg6:{alg6.degradation.final_mode}")
    if fell_back_to_ci(alg6):
        refinement["cs_type_proj"] = refinement["ci_filter"]
        refinement["cs_type_full"] = refinement["ci_filter"]
    else:
        refinement["cs_type_proj"] = refinement_stats(alg6, "projected").as_row()
        refinement["cs_type_full"] = refinement_stats(alg6, "full").as_row()
    alg6_stats = (alg6.seconds, alg6.peak_nodes)
    del alg6

    alg7 = ThreadEscapeAnalysis(
        facts=facts, call_graph=graph, budget=budget(), backend=backend
    ).run()
    alg7_stats = (alg7.seconds, alg7.peak_nodes)
    escape_summary = alg7.summary()
    del alg7

    return BenchmarkRun(
        name=name,
        stats=program.stats(),
        num_vars=len(facts.maps["V"]),
        paths=paths,
        alg1=alg1_stats,
        alg2=alg2_stats,
        alg3=alg3_stats,
        alg3_iterations=alg3_iterations,
        alg5=alg5_stats,
        alg6=alg6_stats,
        alg7=alg7_stats,
        escape_summary=escape_summary,
        refinement=refinement,
        degraded=degraded,
        backend=backend,
    )


def run_corpus(
    small: bool = False,
    verbose: bool = True,
    timeout: Optional[float] = None,
    node_budget: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> List[BenchmarkRun]:
    """Benchmark the whole corpus; a budget-exhausted entry is skipped
    (with a note) instead of aborting the remaining entries."""
    runs = []
    for name in names if names is not None else corpus_names(small=small):
        start = time.monotonic()
        try:
            run = run_benchmark(
                name,
                timeout=timeout,
                node_budget=node_budget,
                checkpoint_dir=checkpoint_dir,
                backend=backend,
            )
        except ReproError as err:
            if verbose:
                print(
                    f"  [{name}: skipped, budget exhausted: {err}]", flush=True
                )
            continue
        runs.append(run)
        if verbose:
            note = f" degraded {','.join(run.degraded)}" if run.degraded else ""
            print(
                f"  [{name}: {time.monotonic() - start:.1f}s{note}]",
                flush=True,
            )
    return runs


def run_corpus_supervised(
    names: Optional[Sequence[str]] = None,
    small: bool = False,
    verbose: bool = True,
    timeout: Optional[float] = None,
    node_budget: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    jobs: int = 2,
    retries: int = 1,
    memory_limit_mb: Optional[int] = None,
    deadline: Optional[float] = None,
    entry_env: Optional[Dict[str, Dict[str, str]]] = None,
    backend: Optional[str] = None,
) -> Tuple[List[BenchmarkRun], List[Dict[str, Any]]]:
    """Benchmark the corpus with per-entry process isolation.

    Each entry runs in its own supervised worker process
    (:mod:`repro.runtime.supervisor`): a crash, hang, or OOM in one entry
    is classified and recorded while the others complete.  ``timeout`` and
    ``node_budget`` are the *cooperative* per-analysis budgets (as in
    :func:`run_corpus`); ``deadline`` and ``memory_limit_mb`` are the
    *hard* per-entry limits (SIGKILL escalation and ``RLIMIT_AS``).

    Returns ``(runs, records)``: the completed :class:`BenchmarkRun` list
    plus one record per entry with the supervision outcome and the
    isolation overhead — supervised wall-clock minus the child's own
    solve time, i.e. what fork + import + JSON serialization cost.

    ``entry_env`` maps an entry name to extra environment variables for
    *that entry's* workers — the seam fault-injection tests use to poison
    a single entry (``{"jetty": {"REPRO_FAULT": "abort@solver.stratum"}}``)
    and assert the others still complete.
    """
    from ..runtime.errors import WorkerCrashed
    from ..runtime.supervisor import Supervisor, SupervisorConfig
    from ..runtime.worker import WorkerPool

    if names is None:
        names = corpus_names(small=small)
    job_list = []
    for name in names:
        job = {
            "kind": "bench",
            "name": name,
            "timeout": timeout,
            "node_budget": node_budget,
            "checkpoint_dir": checkpoint_dir,
            "backend": backend,
        }
        if entry_env and name in entry_env:
            job["env"] = dict(entry_env[name])
        job_list.append(job)
    supervisor = Supervisor(
        SupervisorConfig(
            timeout=deadline,
            memory_limit_mb=memory_limit_mb,
            retries=retries,
        )
    )
    results = WorkerPool(supervisor, jobs=jobs).run(job_list)

    runs: List[BenchmarkRun] = []
    records: List[Dict[str, Any]] = []
    for name, outcome in zip(names, results):
        if isinstance(outcome, WorkerCrashed):
            records.append(
                {
                    "name": name,
                    "ok": False,
                    "classification": outcome.classification,
                    "attempts": outcome.attempts,
                }
            )
            if verbose:
                print(
                    f"  [{name}: crashed ({outcome.classification}), "
                    f"{len(outcome.attempts)} attempt(s)]",
                    flush=True,
                )
            continue
        value = outcome.value
        solve_seconds = float(value.pop("solve_seconds", 0.0))
        run = BenchmarkRun.from_dict(value)
        runs.append(run)
        records.append(
            {
                "name": name,
                "ok": True,
                "degraded": run.degraded,
                "retries": outcome.retries,
                "wall_seconds": outcome.wall_seconds,
                "solve_seconds": solve_seconds,
                "isolation_overhead_s": max(
                    0.0, outcome.wall_seconds - solve_seconds
                ),
                "attempts": [a.to_dict() for a in outcome.attempts],
            }
        )
        if verbose:
            rec = records[-1]
            note = f" degraded {','.join(run.degraded)}" if run.degraded else ""
            print(
                f"  [{name}: {rec['wall_seconds']:.1f}s "
                f"(isolation overhead {rec['isolation_overhead_s']:.2f}s)"
                f"{note}]",
                flush=True,
            )
    return runs, records


def _sci(n: int) -> str:
    if n < 1000:
        return str(n)
    exponent = int(math.floor(math.log10(n)))
    mantissa = n / 10 ** exponent
    return f"{mantissa:.0f}e{exponent}"


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------


def fig3_table(runs: Sequence[BenchmarkRun]) -> Tuple[str, List[dict]]:
    header = (
        f"{'Name':<12}{'Classes':>8}{'Methods':>8}{'Stmts':>7}"
        f"{'Vars':>7}{'Allocs':>7}{'C.S. Paths':>12}"
    )
    lines = [
        "Figure 3: benchmark vitals (scaled corpus; 'Stmts' stands in for",
        "the paper's bytecode counts)",
        header,
        "-" * len(header),
    ]
    rows = []
    for run in runs:
        s = run.stats
        lines.append(
            f"{run.name:<12}{s['classes']:>8}{s['methods']:>8}"
            f"{s['statements']:>7}{run.num_vars:>7}{s['allocs']:>7}"
            f"{_sci(run.paths):>12}"
        )
        rows.append(
            {
                "name": run.name,
                "classes": s["classes"],
                "methods": s["methods"],
                "statements": s["statements"],
                "vars": run.num_vars,
                "allocs": s["allocs"],
                "paths": run.paths,
            }
        )
    return "\n".join(lines), rows


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------


def fig4_table(runs: Sequence[BenchmarkRun]) -> Tuple[str, List[dict]]:
    header = (
        f"{'Name':<12}"
        f"{'A1 s':>7}{'MB':>6}"
        f"{'A2 s':>7}{'MB':>6}"
        f"{'A3 s':>7}{'MB':>6}{'it':>4}"
        f"{'A5 s':>8}{'MB':>7}"
        f"{'A6 s':>7}{'MB':>6}"
        f"{'A7 s':>7}{'MB':>6}"
    )
    lines = [
        "Figure 4: analysis times (seconds) and peak BDD memory (MB at",
        "16 B/node).  A1/A2: context-insensitive without/with type",
        "filtering; A3: on-the-fly call graph (+ fixpoint iterations);",
        "A5: context-sensitive pointers; A6: context-sensitive types;",
        "A7: thread-sensitive pointers.",
        header,
        "-" * len(header),
    ]
    rows = []
    for r in runs:
        lines.append(
            f"{r.name:<12}"
            f"{r.alg1[0]:>7.2f}{_mb(r.alg1[1]):>6.1f}"
            f"{r.alg2[0]:>7.2f}{_mb(r.alg2[1]):>6.1f}"
            f"{r.alg3[0]:>7.2f}{_mb(r.alg3[1]):>6.1f}{r.alg3_iterations:>4}"
            f"{r.alg5[0]:>8.2f}{_mb(r.alg5[1]):>7.1f}"
            f"{r.alg6[0]:>7.2f}{_mb(r.alg6[1]):>6.1f}"
            f"{r.alg7[0]:>7.2f}{_mb(r.alg7[1]):>6.1f}"
        )
        rows.append(
            {
                "name": r.name,
                "alg1": r.alg1,
                "alg2": r.alg2,
                "alg3": r.alg3,
                "alg3_iterations": r.alg3_iterations,
                "alg5": r.alg5,
                "alg6": r.alg6,
                "alg7": r.alg7,
            }
        )
    return "\n".join(lines), rows


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------


def fig5_table(runs: Sequence[BenchmarkRun]) -> Tuple[str, List[dict]]:
    header = (
        f"{'Name':<12}{'captured':>10}{'escaped':>9}"
        f"{'~needed':>9}{'needed':>8}"
    )
    lines = [
        "Figure 5: escape analysis — captured/escaped allocation sites and",
        "unneeded/needed synchronization operations",
        header,
        "-" * len(header),
    ]
    rows = []
    for r in runs:
        s = r.escape_summary
        lines.append(
            f"{r.name:<12}{s['captured']:>10}{s['escaped']:>9}"
            f"{s['sync_unneeded']:>9}{s['sync_needed']:>8}"
        )
        rows.append({"name": r.name, **s})
    return "\n".join(lines), rows


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------

_FIG6_VARIANTS = [
    ("ci_nofilter", "CI no filter"),
    ("ci_filter", "CI filter"),
    ("cs_pointer_proj", "proj CS ptr"),
    ("cs_type_proj", "proj CS type"),
    ("cs_pointer_full", "full CS ptr"),
    ("cs_type_full", "full CS type"),
]


def fig6_table(runs: Sequence[BenchmarkRun]) -> Tuple[str, List[dict]]:
    header = f"{'Name':<12}" + "".join(
        f"{label:>14}" for _, label in _FIG6_VARIANTS
    )
    sub = f"{'':<12}" + "".join(f"{'multi refine':>14}" for _ in _FIG6_VARIANTS)
    lines = [
        "Figure 6: type refinement precision (percent of variables that",
        "are multi-typed / refinable) under six analysis variants",
        header,
        sub,
        "-" * len(header),
    ]
    rows = []
    for r in runs:
        cells = []
        for key, _ in _FIG6_VARIANTS:
            multi, refine = r.refinement[key]
            cells.append(f"{multi:>6.1f} {refine:>6.1f}")
        lines.append(f"{r.name:<12}" + " ".join(cells))
        rows.append({"name": r.name, **r.refinement})
    return "\n".join(lines), rows


# ----------------------------------------------------------------------
# Section 6.2 scaling claim
# ----------------------------------------------------------------------


def scaling_table(
    layer_counts: Sequence[int] = (8, 14, 20, 26, 32, 38, 44),
) -> Tuple[str, List[dict]]:
    """Context-sensitive analysis time vs number of call paths.

    The paper observes the time "scales approximately with O(lg^2 n) where
    n is the number of paths in the call graph"."""
    header = f"{'layers':>7}{'methods':>9}{'paths':>10}{'lg n':>7}{'CS s':>8}{'s/lg^2':>9}"
    lines = [
        "Section 6.2: context-sensitive analysis time vs call paths",
        header,
        "-" * len(header),
    ]
    rows = []
    for layers in layer_counts:
        params = WorkloadParams(
            seed=7, layers=layers, width=2, fanout=2, shared_chain=2, threads=1
        )
        program = generate_program(params)
        facts = extract_facts(program)
        ci = ContextInsensitiveAnalysis(facts=facts).run()
        cs = ContextSensitiveAnalysis(
            facts=facts, call_graph=ci.discovered_call_graph
        ).run()
        paths = cs.max_paths()
        lg = math.log2(max(paths, 2))
        per = cs.seconds / (lg * lg)
        lines.append(
            f"{layers:>7}{program.stats()['methods']:>9}{_sci(paths):>10}"
            f"{lg:>7.1f}{cs.seconds:>8.2f}{per:>9.4f}"
        )
        rows.append(
            {
                "layers": layers,
                "paths": paths,
                "lg": lg,
                "seconds": cs.seconds,
                "seconds_per_lg2": per,
            }
        )
    return "\n".join(lines), rows


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


def ablation_table(name: str = "jboss") -> Tuple[str, List[dict]]:
    """DESIGN.md section 6: the design-choice ablations."""
    entry = corpus_entry(name)
    program = entry.build()
    facts = extract_facts(program)
    rows = []
    lines = [f"Ablations on corpus entry '{name}':"]

    # 1. Semi-naive vs naive evaluation (Section 2.4.1).
    fast = ContextInsensitiveAnalysis(facts=facts).run()
    slow = ContextInsensitiveAnalysis(facts=facts, naive=True).run()
    lines.append(
        f"  incrementalization: semi-naive {fast.seconds:.2f}s "
        f"({fast.solver.stats.rule_applications} rule applications) vs "
        f"naive {slow.seconds:.2f}s ({slow.solver.stats.rule_applications})"
    )
    rows.append(
        {
            "ablation": "seminaive",
            "fast_s": fast.seconds,
            "naive_s": slow.seconds,
            "fast_apps": fast.solver.stats.rule_applications,
            "naive_apps": slow.solver.stats.rule_applications,
        }
    )

    # 2. Variable order: context bits deepest (default) vs first.
    graph = fast.discovered_call_graph
    good = ContextSensitiveAnalysis(facts=facts, call_graph=graph).run()
    bad = ContextSensitiveAnalysis(
        facts=facts, call_graph=graph, order_spec="C_V_H_F_T_I_M_Z"
    ).run()
    lines.append(
        f"  variable order:     contexts-last {good.seconds:.2f}s "
        f"({_mb(good.peak_nodes):.1f} MB) vs contexts-first "
        f"{bad.seconds:.2f}s ({_mb(bad.peak_nodes):.1f} MB)"
    )
    rows.append(
        {
            "ablation": "order",
            "good_s": good.seconds,
            "bad_s": bad.seconds,
            "good_nodes": good.peak_nodes,
            "bad_nodes": bad.peak_nodes,
        }
    )

    # 3. Type filtering: time and precision (Section 2.3 / Figure 4).
    cha = cha_call_graph(facts)
    unfiltered = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=False, discover_call_graph=False,
        call_graph=cha,
    ).run()
    filtered = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=True, discover_call_graph=False,
        call_graph=cha,
    ).run()
    lines.append(
        f"  type filtering:     off {unfiltered.seconds:.2f}s "
        f"({unfiltered.relation('vP').count()} vP tuples) vs on "
        f"{filtered.seconds:.2f}s ({filtered.relation('vP').count()} tuples)"
    )
    rows.append(
        {
            "ablation": "typefilter",
            "off_s": unfiltered.seconds,
            "on_s": filtered.seconds,
            "off_tuples": unfiltered.relation("vP").count(),
            "on_tuples": filtered.relation("vP").count(),
        }
    )

    # 4. Plan optimizer: executed BDD operations with the pass pipeline
    # on vs off (the bddbddb-style query-plan optimization).
    opt = ContextInsensitiveAnalysis(facts=facts, optimize=True).run()
    unopt = ContextInsensitiveAnalysis(facts=facts, optimize=False).run()
    opt_ops = opt.solver.stats.plan_ops
    unopt_ops = unopt.solver.stats.plan_ops
    lines.append(
        f"  plan optimizer:     on {opt.seconds:.2f}s "
        f"({opt_ops.get('replace', 0)} replace / "
        f"{sum(opt_ops.values())} ops) vs off {unopt.seconds:.2f}s "
        f"({unopt_ops.get('replace', 0)} replace / "
        f"{sum(unopt_ops.values())} ops)"
    )
    rows.append(
        {
            "ablation": "planopt",
            "on_s": opt.seconds,
            "off_s": unopt.seconds,
            "on_replace": opt_ops.get("replace", 0),
            "off_replace": unopt_ops.get("replace", 0),
            "on_ops": sum(opt_ops.values()),
            "off_ops": sum(unopt_ops.values()),
        }
    )

    # 5. Contiguous vs randomized context numbering (Section 4.1).  The
    # randomized IEC can only be built tuple-by-tuple, so this ablation
    # runs on the smallest entry — which is exactly the point: random
    # numbering does not scale past toy context counts.
    small = corpus_entry("freetts").build()
    small_facts = extract_facts(small)
    ci = ContextInsensitiveAnalysis(facts=small_facts).run()
    graph = ci.discovered_call_graph
    contiguous = ContextSensitiveAnalysis(facts=small_facts, call_graph=graph).run()
    shuffled = _run_with_shuffled_numbering(small_facts, graph)
    lines.append(
        f"  context numbering:  contiguous {contiguous.seconds:.2f}s "
        f"({_mb(contiguous.peak_nodes):.1f} MB) vs randomized "
        f"{shuffled[0]:.2f}s ({_mb(shuffled[1]):.1f} MB)  [entry 'freetts']"
    )
    rows.append(
        {
            "ablation": "numbering",
            "contiguous_s": contiguous.seconds,
            "contiguous_nodes": contiguous.peak_nodes,
            "shuffled_s": shuffled[0],
            "shuffled_nodes": shuffled[1],
        }
    )
    return "\n".join(lines), rows


def _run_with_shuffled_numbering(facts, graph) -> Tuple[float, int]:
    """Algorithm 5 with per-method context numbers randomly permuted —
    destroying the contiguity Algorithm 4 provides while preserving the
    clone structure.  The IEC BDD is built tuple-by-tuple."""
    from ..analysis.base import load_datalog_source, make_solver
    from ..analysis.context_sensitive import ContextSensitiveAnalysis

    entry_m = facts.method_id(facts.program.entry.qualified)
    numbering = number_call_graph(graph, entries=[entry_m])
    c_size = numbering.context_domain_size()
    if c_size > 100_000:
        raise ValueError(
            "randomized numbering requires explicit tuple enumeration; "
            f"refusing {c_size} contexts (use a smaller corpus entry)"
        )
    rng = random.Random(42)
    perms: Dict[int, List[int]] = {}

    def perm(method: int) -> List[int]:
        p = perms.get(method)
        if p is None:
            k = numbering.num_contexts(method)
            p = [0] + rng.sample(range(1, c_size), k)
            perms[method] = p
        return p

    start = time.monotonic()
    source = load_datalog_source("algorithm5")
    solver = make_solver(facts, source, size_overrides={"C": c_size})
    tuples = []
    for rng_edge in numbering.ranges:
        caller_perm = perm(rng_edge.caller)
        callee_perm = perm(rng_edge.callee)
        for x in range(rng_edge.lo, rng_edge.hi + 1):
            if rng_edge.collapse_to is not None:
                y = rng_edge.collapse_to
            else:
                y = x + rng_edge.delta
            tuples.append(
                (caller_perm[x], rng_edge.site, callee_perm[y], rng_edge.callee)
            )
    for method, sites in facts.alloc_sites.items():
        method_perm = perm(method)
        for h in sites:
            for c in range(1, numbering.num_contexts(method) + 1):
                tuples.append((method_perm[c], h, method_perm[c], method))
    for c in range(c_size):
        tuples.append((c, facts.global_site, c, entry_m))
    solver.add_tuples("IEC", tuples)
    mc_tuples = []
    for method in numbering.counts:
        method_perm = perm(method)
        for c in range(1, numbering.num_contexts(method) + 1):
            mc_tuples.append((method_perm[c], method))
    solver.add_tuples("MC", mc_tuples)
    solver.solve()
    return (time.monotonic() - start, solver.manager.peak_nodes)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figure",
        choices=[
            "fig3", "fig4", "fig5", "fig6", "scaling", "ablation", "all",
            "report",
        ],
    )
    parser.add_argument("--small", action="store_true", help="fast subset")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock budget per analysis run",
    )
    parser.add_argument(
        "--node-budget", type=int, metavar="N",
        help="live BDD node budget per analysis run",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="directory for mid-solve checkpoints of budgeted runs",
    )
    parser.add_argument(
        "--isolate", action="store_true",
        help="run each corpus entry in a supervised worker process "
        "(crashes are classified and skipped, not fatal)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="parallel workers in --isolate mode (default 2)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per crashed entry in --isolate mode (default 1)",
    )
    parser.add_argument(
        "--memory-limit", type=int, metavar="MB",
        help="hard RLIMIT_AS cap per worker in --isolate mode",
    )
    parser.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="hard per-entry wall clock in --isolate mode "
        "(SIGTERM then SIGKILL)",
    )
    parser.add_argument(
        "--entries", metavar="NAME,NAME",
        help="run only these corpus entries (comma-separated)",
    )
    parser.add_argument(
        "--backend", metavar="NAME",
        help="BDD kernel backend (default: $REPRO_BDD_BACKEND or "
        "'packed'); see repro.bdd.api.available_backends",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    figures = (
        ["fig3", "fig4", "fig5", "fig6", "scaling", "ablation"]
        if args.figure == "all"
        else [args.figure]
    )
    entries = None
    if args.entries:
        entries = [n.strip() for n in args.entries.split(",") if n.strip()]
    runs = None
    crashed = False
    if args.figure == "report" or any(
        f in figures for f in ("fig3", "fig4", "fig5", "fig6")
    ):
        print("Running corpus ...", flush=True)
        if args.isolate:
            runs, records = run_corpus_supervised(
                names=entries,
                small=args.small,
                timeout=args.timeout,
                node_budget=args.node_budget,
                checkpoint_dir=args.checkpoint_dir,
                jobs=args.jobs,
                retries=args.retries,
                memory_limit_mb=args.memory_limit,
                deadline=args.deadline,
                backend=args.backend,
            )
            crashed = any(not r["ok"] for r in records)
            bench_json = out / "BENCH_supervised.json"
            bench_json.write_text(
                json.dumps(
                    {
                        "entries": records,
                        "runs": [r.to_dict() for r in runs],
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            print(f"wrote {bench_json}", flush=True)
        else:
            runs = run_corpus(
                small=args.small,
                timeout=args.timeout,
                node_budget=args.node_budget,
                checkpoint_dir=args.checkpoint_dir,
                names=entries,
                backend=args.backend,
            )
        if not runs:
            print("no corpus entry finished within the budget")
            return 70 if crashed else 75
    if args.figure == "report":
        from .report import build_report

        extra = {}
        scaling_text, _ = scaling_table()
        extra["Section 6.2 — scaling"] = scaling_text
        ablation_text, _ = ablation_table()
        extra["Ablations"] = ablation_text
        text = build_report(runs, extra_sections=extra)
        print(text)
        (out / "report.md").write_text(text)
        return 70 if crashed else 0
    for figure in figures:
        if figure == "scaling":
            text, _ = scaling_table()
        elif figure == "ablation":
            text, _ = ablation_table()
        else:
            text, _ = {
                "fig3": fig3_table,
                "fig4": fig4_table,
                "fig5": fig5_table,
                "fig6": fig6_table,
            }[figure](runs)
        print()
        print(text)
        (out / f"{figure}.txt").write_text(text + "\n")
    return 70 if crashed else 0


if __name__ == "__main__":
    raise SystemExit(main())
