"""Cloning-based context-sensitive points-to analysis (Algorithms 4 + 5).

The driver:

1. obtains a call graph (by default the one discovered by Algorithm 3,
   as Section 4.2 prescribes: "a pre-computed call graph created, for
   example, by using a context-insensitive points-to analysis"),
2. numbers all reduced call paths with Algorithm 4
   (:mod:`repro.callgraph.numbering`) — exact big-integer counts,
3. sizes the ``C`` domain to the clone count, builds the ``IEC`` (and
   ``MC``) BDDs from contiguous-range and add-constant primitives,
4. runs the Algorithm 5 Datalog program.

The result exposes the context-sensitive ``vPC`` plus its projection to a
context-insensitive view (Figure 6's "projected" columns).
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..callgraph import (
    CallGraph,
    ContextNumbering,
    cha_call_graph,
    number_call_graph,
    number_call_graph_1cfa,
)
from ..ir.facts import Facts, extract_facts
from ..ir.program import Program
from ..runtime import (
    Attempt,
    DegradationReport,
    NodeBudgetExceeded,
    ReproError,
    ResourceBudget,
    load_checkpoint,
    save_checkpoint,
)
from .base import (
    AnalysisError,
    AnalysisResult,
    load_datalog_source,
    make_solver,
    outcome_of,
)
from .context_insensitive import ContextInsensitiveAnalysis

__all__ = ["ContextSensitiveAnalysis", "ContextSensitiveResult"]


@dataclass
class ContextSensitiveResult(AnalysisResult):
    """Result of Algorithm 5: ``vPC``, ``hP``, and the numbering."""

    numbering: Optional[ContextNumbering] = None
    call_graph: Optional[CallGraph] = None

    def _points_to_tuples(self):
        # Project the context away for the name-level helpers.
        projected = self.solver.relation("vPC").project("variable", "heap")
        return projected.tuples()

    @property
    def vPC(self):
        return self.solver.relation("vPC")

    @property
    def hP(self):
        return self.solver.relation("hP")

    def num_contexts(self, method: str) -> int:
        return self.numbering.num_contexts(self.facts.method_id(method))

    def max_paths(self) -> int:
        return self.numbering.max_paths()

    def points_to_in_context(self, method: str, var: str, context: int) -> Set[str]:
        v = self.facts.var_id(method, var)
        heaps = self.facts.maps["H"]
        sel = self.vPC.select(context=context, variable=v)
        return {heaps[h] for (h,) in sel.tuples()}

    def contexts_of_fact(self, method: str, var: str, heap_name: str) -> Set[int]:
        """Contexts under which ``var`` may point to the named heap object."""
        v = self.facts.var_id(method, var)
        h = self.facts.id_of("H", heap_name)
        sel = self.vPC.select(variable=v, heap=h)
        return {c for (c,) in sel.tuples()}


class ContextSensitiveAnalysis:
    """Driver for Algorithms 4 + 5 (and, via subclassing, 6)."""

    algorithm = "algorithm5"

    def __init__(
        self,
        program: Optional[Program] = None,
        facts: Optional[Facts] = None,
        call_graph: Optional[CallGraph] = None,
        use_cha_graph: bool = False,
        context_cap: Optional[int] = None,
        context_policy: str = "paths",
        order_spec: Optional[str] = None,
        naive: bool = False,
        query_fragments: Sequence[str] = (),
        extra_text: str = "",
        budget: Optional[ResourceBudget] = None,
        checkpoint_dir: Optional[str] = None,
        degrade: bool = True,
        truncate_cap: int = 64,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
        trace_ops: bool = False,
    ) -> None:
        if facts is None:
            if program is None:
                raise AnalysisError("provide a Program or extracted Facts")
            facts = extract_facts(program)
        if context_policy not in ("paths", "1cfa"):
            raise AnalysisError(
                f"context_policy must be 'paths' or '1cfa', got {context_policy!r}"
            )
        self.facts = facts
        self.call_graph = call_graph
        self.use_cha_graph = use_cha_graph
        self.context_cap = context_cap
        self.context_policy = context_policy
        self.order_spec = order_spec
        self.naive = naive
        self.query_fragments = tuple(query_fragments)
        self.extra_text = extra_text
        self.budget = budget
        self.checkpoint_dir = checkpoint_dir
        self.degrade = degrade
        self.truncate_cap = truncate_cap
        self.backend = backend
        self.optimize = optimize
        self.trace_ops = trace_ops

    # ------------------------------------------------------------------

    def _obtain_call_graph(self) -> CallGraph:
        if self.call_graph is not None:
            return self.call_graph
        if self.use_cha_graph:
            return cha_call_graph(self.facts)
        ci = ContextInsensitiveAnalysis(
            facts=self.facts,
            type_filtering=True,
            discover_call_graph=True,
            backend=self.backend,
            optimize=self.optimize,
        ).run()
        return ci.discovered_call_graph

    def _number(self, graph: CallGraph, cap: Optional[int] = None) -> ContextNumbering:
        entries = self.facts.entry_method_ids()
        if cap is None and self.context_policy == "1cfa":
            return number_call_graph_1cfa(graph, entries=entries)
        use_cap = cap if cap is not None else self.context_cap
        return number_call_graph(graph, entries=entries, cap=use_cap)

    def _build_solver(
        self,
        numbering: ContextNumbering,
        graph: CallGraph,
        order_spec: Optional[str],
        budget: Optional[ResourceBudget] = None,
        install: bool = True,
    ):
        source = load_datalog_source(self.algorithm, self.query_fragments)
        solver = make_solver(
            self.facts,
            source,
            size_overrides={"C": numbering.context_domain_size()},
            order_spec=order_spec,
            naive=self.naive,
            extra_text=self.extra_text,
            budget=budget,
            backend=self.backend,
            optimize=self.optimize,
            trace_ops=self.trace_ops,
        )
        if install:
            self._install_numbering(solver, numbering, graph)
        return solver

    def run(self) -> AnalysisResult:
        """Run the analysis; with a budget attached, run *governed*.

        An ungoverned run (no budget) behaves exactly as before: any
        blowup runs to completion or the process dies with it.  A
        governed run never escapes with a raw resource fault while a
        cheaper sound configuration remains: it walks the degradation
        ladder (full → checkpoint-resume → k-truncated contexts →
        context-insensitive) and flags the result ``degraded=True`` with
        a :class:`DegradationReport` when the first rung did not produce
        the answer.  With ``degrade=False`` the budget is enforced but
        faults propagate to the caller after the first attempt.
        """
        if self.budget is None or not self.degrade:
            return self._run_once()
        return self._run_governed()

    def _run_once(self) -> ContextSensitiveResult:
        start = time.monotonic()
        graph = self._obtain_call_graph()
        numbering = self._number(graph)
        solver = self._build_solver(
            numbering, graph, self.order_spec, budget=self.budget
        )
        solver.solve()
        seconds = time.monotonic() - start
        return self._wrap_result(solver, numbering, graph, seconds)

    def run_rung(self, mode: str = "full") -> AnalysisResult:
        """Run exactly *one* ladder rung — the unit a process supervisor
        retries and steps down.

        Unlike :meth:`_run_governed`, which walks the whole ladder inside
        one process, ``run_rung`` runs the named mode and lets faults
        propagate: the supervisor (another process) owns the retry and
        step-down policy.  Two supervisor-facing behaviors:

        * with ``checkpoint_dir`` set, a ``full`` rung resumes from an
          existing checkpoint and, on *any* exception, checkpoints the
          strata completed so far before re-raising — so a retried
          attempt does not redo finished work;
        * the result's ``resumed`` attribute reports whether a checkpoint
          was consumed.
        """
        start = time.monotonic()
        if mode == "context_insensitive":
            result = ContextInsensitiveAnalysis(
                facts=self.facts,
                type_filtering=True,
                discover_call_graph=True,
                budget=self.budget,
                backend=self.backend,
                optimize=self.optimize,
            ).run()
            result.degraded = True
            result.resumed = False
            result.seconds = time.monotonic() - start
            return result

        graph = self._obtain_call_graph()
        if mode == "truncated":
            numbering = self._number(graph, cap=self.truncate_cap)
        elif mode == "full":
            numbering = self._number(graph)
        else:
            raise AnalysisError(
                f"run_rung mode must be one of 'full', 'truncated', "
                f"'context_insensitive', got {mode!r}"
            )

        ckpt_path = None
        resume_meta = None
        if mode == "full" and self.checkpoint_dir is not None:
            ckpt_path = pathlib.Path(self.checkpoint_dir) / "context_sensitive.ckpt"
            if not ckpt_path.exists():
                ckpt_path.parent.mkdir(parents=True, exist_ok=True)

        solver = self._build_solver(
            numbering, graph, self.order_spec, budget=self.budget,
            install=not (ckpt_path is not None and ckpt_path.exists()),
        )
        if ckpt_path is not None and ckpt_path.exists():
            resume_meta = load_checkpoint(solver, ckpt_path)
        try:
            if resume_meta is not None:
                solver.solve(start_stratum=resume_meta.next_stratum)
            else:
                solver.solve()
        except BaseException:
            # Checkpoint whatever is at fixpoint so the *next* attempt
            # (ours or a fresh process) starts from here, then let the
            # fault travel to the supervisor.
            if ckpt_path is not None:
                try:
                    save_checkpoint(
                        solver, ckpt_path,
                        next_stratum=solver.last_completed_stratum + 1,
                        extra_meta={"reason": "interrupted"},
                    )
                except Exception:
                    pass  # the original fault matters more
            raise
        result = self._wrap_result(
            solver, numbering, graph, time.monotonic() - start,
            degraded=(mode != "full"),
        )
        result.resumed = resume_meta is not None
        if ckpt_path is not None and ckpt_path.exists():
            ckpt_path.unlink()  # consumed: a later run must start fresh
        return result

    def _run_governed(self) -> AnalysisResult:
        budget = self.budget.start()
        report = DegradationReport()
        start = time.monotonic()

        # Obtain the call graph.  When we discover it ourselves the
        # context-insensitive baseline comes for free and doubles as the
        # ladder's last rung.
        ci_result = None
        discovery_s = 0.0
        graph = self.call_graph
        if graph is None:
            if self.use_cha_graph:
                graph = cha_call_graph(self.facts)
            else:
                t0 = time.monotonic()
                ci_result = ContextInsensitiveAnalysis(
                    facts=self.facts,
                    type_filtering=True,
                    discover_call_graph=True,
                    budget=budget.share_deadline(),
                    backend=self.backend,
                    optimize=self.optimize,
                ).run()
                discovery_s = time.monotonic() - t0
                graph = ci_result.discovered_call_graph

        ckpt_dir = self.checkpoint_dir
        tmp_holder = None
        if ckpt_dir is None:
            tmp_holder = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            ckpt_dir = tmp_holder.name
        try:
            full_budget = budget.share_deadline(
                node_budget=budget.node_budget,
                max_iterations=budget.max_iterations,
            )

            # Rung 1: the requested analysis.  Each rung's clock covers
            # its numbering, build and checkpoint work, not only its solve.
            t0 = time.monotonic()
            numbering = self._number(graph)
            solver = self._build_solver(
                numbering, graph, self.order_spec, budget=full_budget
            )
            try:
                solver.solve()
                report.record(
                    Attempt("full", "ok", time.monotonic() - t0,
                            solver.manager.peak_nodes)
                )
                report.final_mode = "full"
                return self._wrap_result(
                    solver, numbering, graph, time.monotonic() - start,
                    degraded=False, report=report,
                )
            except ReproError as err:
                report.record(
                    Attempt("full", outcome_of(err), time.monotonic() - t0,
                            solver.manager.peak_nodes, detail=str(err))
                )
                first_err = err

            # Rung 2: resume from a checkpoint in a fresh arena.  Only
            # worth it after a node blowup: an arena that holds just the
            # checkpointed relations saves nodes, not time.
            if isinstance(first_err, NodeBudgetExceeded) and not budget.expired():
                t0 = time.monotonic()
                path = pathlib.Path(ckpt_dir) / "context_sensitive.ckpt"
                resume_from = max(first_err.completed_strata or 0, 0)
                save_checkpoint(
                    solver, path, next_stratum=resume_from,
                    extra_meta={"reason": outcome_of(first_err)},
                )
                del solver
                retry = self._build_solver(
                    numbering, graph, self.order_spec,
                    budget=budget.share_deadline(
                        node_budget=budget.node_budget,
                        max_iterations=budget.max_iterations,
                    ),
                    install=False,
                )
                meta = load_checkpoint(retry, path)
                detail = f"stratum={meta.next_stratum}"
                try:
                    retry.solve(start_stratum=meta.next_stratum)
                    report.record(
                        Attempt("resume", "ok", time.monotonic() - t0,
                                retry.manager.peak_nodes, detail=detail)
                    )
                    report.degraded = True
                    report.final_mode = "resume"
                    return self._wrap_result(
                        retry, numbering, graph, time.monotonic() - start,
                        degraded=True, report=report,
                    )
                except ReproError as err:
                    report.record(
                        Attempt("resume", outcome_of(err),
                                time.monotonic() - t0,
                                retry.manager.peak_nodes,
                                detail=f"{detail}: {err}")
                    )
                    del retry

            # Rung 3: k-truncated context numbering.
            if not budget.expired():
                t0 = time.monotonic()
                trunc = self._number(graph, cap=self.truncate_cap)
                tsolver = self._build_solver(
                    trunc, graph, self.order_spec,
                    budget=budget.share_deadline(
                        node_budget=budget.node_budget,
                        max_iterations=budget.max_iterations,
                    ),
                )
                try:
                    tsolver.solve()
                    report.record(
                        Attempt("truncated", "ok", time.monotonic() - t0,
                                tsolver.manager.peak_nodes,
                                detail=f"cap={self.truncate_cap}")
                    )
                    report.degraded = True
                    report.final_mode = "truncated"
                    return self._wrap_result(
                        tsolver, trunc, graph, time.monotonic() - start,
                        degraded=True, report=report,
                    )
                except ReproError as err:
                    report.record(
                        Attempt("truncated", outcome_of(err),
                                time.monotonic() - t0,
                                tsolver.manager.peak_nodes, detail=str(err))
                    )
                    del tsolver

            # Rung 4: the context-insensitive answer — sound by
            # construction, and already computed when we discovered the
            # call graph ourselves.  Runs deadline-only: a node budget
            # that defeated every context-sensitive rung must not also
            # starve the fallback.  A discovery result is this rung's
            # answer, so its clock starts when the discovery did.
            t0 = time.monotonic() - discovery_s
            try:
                if ci_result is None:
                    ci_result = ContextInsensitiveAnalysis(
                        facts=self.facts,
                        type_filtering=True,
                        discover_call_graph=True,
                        budget=budget.share_deadline(),
                        backend=self.backend,
                        optimize=self.optimize,
                    ).run()
            except ReproError as err:
                report.record(
                    Attempt("context_insensitive", outcome_of(err),
                            time.monotonic() - t0, 0, detail=str(err))
                )
                err.degradation = report
                raise
            report.record(
                Attempt("context_insensitive", "ok",
                        time.monotonic() - t0, ci_result.peak_nodes)
            )
            report.degraded = True
            report.final_mode = "context_insensitive"
            ci_result.degraded = True
            ci_result.degradation = report
            ci_result.seconds = time.monotonic() - start
            return ci_result
        finally:
            if tmp_holder is not None:
                tmp_holder.cleanup()

    def _install_numbering(
        self, solver, numbering: ContextNumbering, graph: CallGraph
    ) -> None:
        facts = self.facts
        iec = solver.relation("IEC")
        c0 = iec.attribute("caller").phys
        i0 = iec.attribute("invoke").phys
        c1 = iec.attribute("callee").phys
        m0 = iec.attribute("tgt").phys
        entry = facts.method_id(facts.program.entry.qualified)
        node = numbering.build_iec(
            solver.manager,
            c0,
            i0,
            c1,
            m0,
            alloc_sites=facts.alloc_sites,
            global_site=facts.global_site,
            global_method=entry,
        )
        solver.set_node("IEC", node)
        mc = solver.relation("MC")
        mc_node = numbering.build_mc(
            solver.manager,
            mc.attribute("context").phys,
            mc.attribute("method").phys,
        )
        solver.set_node("MC", mc_node)

    def _wrap_result(
        self, solver, numbering, graph, seconds, degraded=False, report=None
    ):
        return ContextSensitiveResult(
            facts=self.facts,
            solver=solver,
            seconds=seconds,
            numbering=numbering,
            call_graph=graph,
            degraded=degraded,
            degradation=report,
        )
