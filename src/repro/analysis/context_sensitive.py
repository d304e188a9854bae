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

import contextlib
import functools
import hashlib
import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from ..callgraph import (
    CallGraph,
    ContextNumbering,
    number_call_graph,
    number_call_graph_1cfa,
)
from ..ir.facts import Facts, extract_facts, facts_digest
from ..ir.program import Program
from ..runtime import (
    Attempt,
    CheckpointError,
    DegradationReport,
    NodeBudgetExceeded,
    ReproError,
    ResourceBudget,
    load_checkpoint_lines,
    read_checkpoint,
    save_checkpoint,
)
from ..runtime.degrade import LADDER, RUNGS
from .base import (
    AnalysisError,
    AnalysisResult,
    load_datalog_source,
    make_solver,
    outcome_of,
)
from .context_insensitive import ContextInsensitiveAnalysis

__all__ = [
    "ContextSensitiveAnalysis", "ContextSensitiveResult", "install_numbering",
]

CHECKPOINT_NAME = "context_sensitive.ckpt"


def install_numbering(solver, numbering: ContextNumbering, facts: Facts) -> None:
    """Encode a context numbering into an Algorithm 5 solver's ``IEC``
    and ``MC`` relations (Section 4.1)."""
    iec = solver.relation("IEC")
    solver.set_node("IEC", numbering.build_iec(
        solver.manager,
        iec.attribute("caller").phys,
        iec.attribute("invoke").phys,
        iec.attribute("callee").phys,
        iec.attribute("tgt").phys,
        alloc_sites=facts.alloc_sites,
        global_site=facts.global_site,
        global_method=facts.method_id(facts.entry),
    ))
    mc = solver.relation("MC")
    solver.set_node("MC", numbering.build_mc(
        solver.manager,
        mc.attribute("context").phys,
        mc.attribute("method").phys,
    ))


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
    result_class = ContextSensitiveResult

    def __init__(
        self,
        program: Optional[Program] = None,
        facts: Optional[Facts] = None,
        call_graph: Optional[CallGraph] = None,
        context_policy: str = "paths",
        order_spec: Optional[str] = None,
        query_fragments: Sequence[str] = (),
        budget: Optional[ResourceBudget] = None,
        checkpoint_dir: Optional[str] = None,
        degrade: bool = True,
        truncate_cap: int = 64,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
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
        self.context_policy = context_policy
        self.order_spec = order_spec
        self.query_fragments = tuple(query_fragments)
        self.budget = budget
        self.checkpoint_dir = checkpoint_dir
        self.degrade = degrade
        self.truncate_cap = truncate_cap
        self.backend = backend
        self.optimize = optimize

    # ------------------------------------------------------------------

    def _context_insensitive(self, budget: Optional[ResourceBudget]):
        return ContextInsensitiveAnalysis(
            facts=self.facts,
            type_filtering=True,
            discover_call_graph=True,
            budget=budget,
            backend=self.backend,
            optimize=self.optimize,
        ).run()

    def _obtain_call_graph(self) -> CallGraph:
        """The given call graph, or Algorithm 3's, discovered under this
        analysis's deadline (which starts here)."""
        if self.call_graph is not None:
            return self.call_graph
        budget = None if self.budget is None else self.budget.share_deadline()
        return self._context_insensitive(budget).discovered_call_graph

    def _number(self, graph: CallGraph, cap: Optional[int] = None) -> ContextNumbering:
        entries = self.facts.entry_ids
        if cap is None and self.context_policy == "1cfa":
            return number_call_graph_1cfa(graph, entries=entries)
        return number_call_graph(graph, entries=entries, cap=cap)

    def _source(self) -> str:
        return load_datalog_source(self.algorithm, self.query_fragments)

    def _build_solver(
        self,
        numbering: ContextNumbering,
        budget: Optional[ResourceBudget],
        resume: bool = False,
    ):
        # A resumed solver gets every relation from its checkpoint, so
        # neither the facts nor the numbering are encoded first.
        solver = make_solver(
            self.facts,
            self._source(),
            size_overrides={"C": numbering.context_domain_size()},
            order_spec=self.order_spec,
            budget=budget,
            backend=self.backend,
            optimize=self.optimize,
            load_facts=not resume,
        )
        if not resume:
            install_numbering(solver, numbering, self.facts)
        return solver

    @functools.cached_property
    def _facts_digest(self) -> str:
        return facts_digest(self.facts)

    def _checkpoint_identity(self, numbering: ContextNumbering) -> Dict[str, str]:
        """What a checkpoint must have been taken from to be resumed:
        these facts, and this Datalog program over this numbering."""
        program = "\n".join((
            self._source(),
            repr(numbering.ranges),
            repr(sorted(numbering.counts.items())),
        ))
        return {
            "facts_digest": self._facts_digest,
            "program_digest": hashlib.sha256(program.encode()).hexdigest(),
        }

    def run(self) -> AnalysisResult:
        """Run the analysis; with a budget attached, run *governed*.

        An ungoverned run (no budget) runs the ``full`` rung once: any
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
            return self._single("full", late_save=False)
        return self._run_ladder()

    def run_rung(self, mode: str = "full") -> AnalysisResult:
        """Run exactly *one* ladder rung and let its faults propagate.

        This is the unit a process supervisor retries and steps down
        (the supervisor, another process, owns that policy).  With
        ``checkpoint_dir`` set, a ``full`` rung resumes from the
        checkpoint there when it was taken from this program, and on any
        fault, even after its deadline, checkpoints the strata completed
        so far, so a retried attempt does not redo finished work.  The
        result's ``resumed`` attribute reports whether a checkpoint was
        consumed.
        """
        if mode not in RUNGS:
            raise AnalysisError(
                f"run_rung mode must be one of {', '.join(map(repr, RUNGS))}, "
                f"got {mode!r}"
            )
        return self._single(mode, late_save=True)

    def _single(self, mode: str, late_save: bool) -> AnalysisResult:
        """One rung under this analysis's own budget and checkpoint
        directory, timed from before the call graph is obtained."""
        start = time.monotonic()
        graph = None if mode == "context_insensitive" else self._obtain_call_graph()
        result = self._rung(
            mode, self.budget, graph, self.checkpoint_dir, late_save
        )
        result.seconds = time.monotonic() - start
        return result

    def _rung(
        self,
        mode: str,
        budget: Optional[ResourceBudget],
        graph: Optional[CallGraph] = None,
        checkpoint_dir: Optional[str] = None,
        late_save: bool = False,
    ) -> AnalysisResult:
        """Run one rung; the result's ``seconds`` time this call.

        ``context_insensitive`` runs Algorithm 3.  ``full`` and
        ``truncated`` number ``graph`` (``truncated`` merges the contexts
        of each method beyond ``truncate_cap``), then build, install and
        solve the cloned program.  Given a ``checkpoint_dir``, a ``full``
        rung first resumes from the checkpoint there (and deletes it once
        solved), and on a fault saves the strata that reached fixpoint
        there before re-raising; it saves after its deadline has expired
        only with ``late_save``.  A user's ``checkpoint_dir`` may hold
        another program's checkpoint, so there the rung resumes only from
        one taken from these facts, this program and this numbering; the
        ladder's temporary directory holds this run's alone.
        """
        start = time.monotonic()
        if mode == "context_insensitive":
            result = self._context_insensitive(budget)
            result.degraded = True
            result.seconds = time.monotonic() - start
            return result
        numbering = self._number(
            graph, cap=self.truncate_cap if mode == "truncated" else None
        )
        checkpoint = saved = None
        identity: Dict[str, str] = {}
        if mode == "full" and checkpoint_dir is not None:
            checkpoint = pathlib.Path(checkpoint_dir) / CHECKPOINT_NAME
            if self.checkpoint_dir is not None:
                identity = self._checkpoint_identity(numbering)
            try:
                saved = read_checkpoint(checkpoint)
            except ReproError:
                pass  # an unreadable file names no program
            if saved is not None and any(
                saved[0].get(key) != value for key, value in identity.items()
            ):
                saved = None
        resume = saved is not None
        solver = self._build_solver(numbering, budget, resume=resume)
        start_stratum = 0
        if resume:
            try:
                start_stratum = load_checkpoint_lines(
                    solver, saved[1], str(checkpoint)
                ).next_stratum
            except CheckpointError:
                # A corrupt digest or payload names no program either:
                # solve fresh, and leave the file for a fault to replace.
                resume = False
                solver = self._build_solver(numbering, budget)
            del saved
        try:
            solver.solve(start_stratum=start_stratum)
        except BaseException:
            if checkpoint is not None and (
                late_save or budget is None or not budget.expired()
            ):
                try:
                    save_checkpoint(
                        solver, checkpoint,
                        next_stratum=solver.last_completed_stratum + 1,
                        extra_meta=identity,
                    )
                except Exception:
                    pass  # the original fault matters more
            raise
        if resume:
            # Consumed: a later run must start fresh.
            checkpoint.unlink(missing_ok=True)
        return self.result_class(
            facts=self.facts,
            solver=solver,
            seconds=time.monotonic() - start,
            degraded=mode != "full",
            resumed=resume,
            numbering=numbering,
            call_graph=graph,
        )

    def _run_ladder(self) -> AnalysisResult:
        """Walk :data:`LADDER` until a rung answers.

        Every rung races the one deadline fixed here.  ``resume`` is the
        ``full`` rung again, which loads the checkpoint the failed
        ``full`` attempt left; it runs only after a node blowup, since a
        fresh arena that holds just the checkpointed relations saves
        nodes, not time.  Once the deadline has expired the middle rungs
        are skipped.  The context-insensitive rung runs under the
        deadline alone: a node budget that defeated every cloned rung
        must not also starve the sound fallback.  When the call graph is
        discovered here, the discovery's answer is that rung's, and its
        attempt is timed from when the discovery started.
        """
        budget = self.budget.start()
        report = DegradationReport()
        start = time.monotonic()
        discovered = None
        if self.call_graph is None:
            discovered = self._rung("context_insensitive", budget.share_deadline())
            graph = discovered.discovered_call_graph
        else:
            graph = self.call_graph
        if self.checkpoint_dir is None:
            holder = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        else:
            holder = contextlib.nullcontext(self.checkpoint_dir)
        with holder as ckpt_dir:
            err: Optional[ReproError] = None
            for mode in LADDER:
                if mode == "resume" and not isinstance(err, NodeBudgetExceeded):
                    continue
                if mode in ("resume", "truncated") and budget.expired():
                    continue
                t0 = time.monotonic()
                try:
                    if mode != "context_insensitive":
                        result = self._rung(
                            "full" if mode == "resume" else mode,
                            budget, graph, ckpt_dir,
                        )
                    elif discovered is not None:
                        result, t0 = discovered, t0 - discovered.seconds
                    else:
                        result = self._rung(mode, budget.share_deadline())
                except ReproError as failure:
                    err = failure
                    peak = err.stats.peak_nodes if err.stats is not None else 0
                    report.record(Attempt(
                        mode, outcome_of(err), time.monotonic() - t0, peak,
                        detail=str(err),
                    ))
                    continue
                report.record(Attempt(
                    mode, "ok", time.monotonic() - t0, result.peak_nodes,
                    detail=f"cap={self.truncate_cap}" if mode == "truncated" else "",
                ))
                report.degraded = result.degraded = mode != "full"
                report.final_mode = mode
                result.degradation = report
                result.seconds = time.monotonic() - start
                return result
        err.degradation = report
        raise err
