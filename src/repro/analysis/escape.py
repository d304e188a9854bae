"""Thread escape analysis (Algorithm 7, Section 5.6).

Thread contexts: context 0 is the shared/global context, context 1 the
main thread, and every thread allocation site gets **two** contexts — "to
distinguish between thread instances created at the same site, we create
two thread contexts to represent two separate thread instances.  If an
object created by one instance is not accessed by its clone, then it is
not accessed by any other instances created by the same call site."

The driver computes, from the (discovered) call graph:

* per-thread reachability — methods transitively invoked from a context's
  ``run()`` method, *not* descending through further ``start -> run``
  dispatch edges (those belong to the spawned thread),
* ``HT(c, h)`` — non-thread allocation sites each context may execute,
* ``vP0T`` — creator and ``this`` bindings for thread objects, and the
  global object visible from every context under the single context 0,
* ``assign`` — call-graph parameter/return bindings minus the
  ``start -> run`` receiver binding (covered by ``vP0T``), plus residual
  locals,

then runs the Algorithm 7 Datalog program, whose output includes the
``escaped`` / ``captured`` / ``neededSyncs`` queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..callgraph import CallGraph, cha_call_graph
from ..ir.facts import Facts, extract_facts
from ..ir.program import Program
from .base import AnalysisError, AnalysisResult, load_datalog_source, make_solver
from .context_insensitive import (
    ContextInsensitiveAnalysis,
    assign_edges_from_call_graph,
)

__all__ = [
    "ThreadEscapeAnalysis",
    "EscapeResult",
    "EscapeInputs",
    "thread_alloc_sites",
    "build_escape_inputs",
]

GLOBAL_CONTEXT = 0
MAIN_CONTEXT = 1


def thread_alloc_sites(facts: Facts) -> List[Tuple[int, int]]:
    """(heap id, run-method id) for every thread allocation site.

    Needs the type hierarchy, so it only works on full extracted
    :class:`Facts`; program-free fact sets (``repro.incremental``) store
    the result instead and bypass this via the ``thread_sites`` override.
    """
    hierarchy = facts.hierarchy
    type_names = facts.maps["T"]
    out = []
    for h, t in facts.relations["hT"]:
        cls = type_names[t]
        if cls == "Object" or not hierarchy.is_thread_type(cls):
            continue
        run = hierarchy.resolve(cls, "run")
        if run is None:
            continue
        out.append((h, facts.method_id(run.qualified)))
    return sorted(out)


@dataclass
class EscapeInputs:
    """The driver-computed input relations of the Algorithm 7 solver.

    Everything the Datalog program needs beyond the raw fact tables:
    the thread-context assignment, the sized ``C`` domain, and the
    ``assign`` / ``HT`` / ``vP0T`` / ``vP0`` tuple sets.  The incremental
    driver recomputes these from edited facts and diffs them against a
    checkpointed solver's inputs.
    """

    contexts: Dict[int, Tuple[int, int]]
    c_size: int
    assign: List[Tuple[int, int]]
    ht: List[Tuple[int, int]]
    vp0t: List[Tuple[int, int, int, int]]
    vp0: List[Tuple[int, int]]


def _reachable_without_spawn(
    graph: CallGraph, roots: Sequence[int], start_sites: Set[int]
) -> Set[int]:
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        for edge in graph.successors(m):
            if edge.site in start_sites:
                continue  # crossing into another thread
            stack.append(edge.callee)
    return seen


def build_escape_inputs(
    facts: Facts,
    graph: CallGraph,
    thread_sites: Sequence[Tuple[int, int]],
) -> EscapeInputs:
    """Compute the Algorithm 7 inputs from facts + call graph.

    Pure bookkeeping over the fact tables and the graph — no hierarchy
    access, so it accepts both full :class:`Facts` and the program-free
    fact sets of :mod:`repro.incremental`.
    """
    start_name = (
        facts.id_of("N", "start") if "start" in facts.maps["N"] else None
    )
    start_sites = {i for _, i, n in facts.relations["mI"] if n == start_name}

    # Context assignment: two contexts per thread allocation site.
    contexts: Dict[int, Tuple[int, int]] = {}
    next_ctx = 2
    for h, _run in thread_sites:
        contexts[h] = (next_ctx, next_ctx + 1)
        next_ctx += 2
    c_size = max(next_ctx, 2)

    # Per-context reachable methods (main thread also runs the class
    # initializers).
    reach: Dict[int, Set[int]] = {
        MAIN_CONTEXT: _reachable_without_spawn(
            graph, facts.entry_method_ids(), start_sites
        )
    }
    for h, run in thread_sites:
        methods = _reachable_without_spawn(graph, [run], start_sites)
        for ctx in contexts[h]:
            reach[ctx] = methods

    # HT: non-thread allocation sites each context may execute.
    thread_heap_ids = {h for h, _ in thread_sites}
    ht: Set[Tuple[int, int]] = set()
    for ctx, methods in reach.items():
        for m in methods:
            for h in facts.alloc_sites.get(m, ()):
                if h not in thread_heap_ids:
                    ht.add((ctx, h))

    # vP0T: thread-object bindings and the global object.
    creator_var: Dict[int, int] = {}
    for v, h in facts.relations["vP0"]:
        if h in thread_heap_ids:
            creator_var[h] = v
    vp0t: Set[Tuple[int, int, int, int]] = set()
    for h, run in thread_sites:
        owner = facts.site_method.get(h)
        creator_ctxs = [c for c, methods in reach.items() if owner in methods]
        dst = creator_var.get(h)
        for ct in contexts[h]:
            if dst is not None:
                for cc in creator_ctxs:
                    vp0t.add((cc, dst, ct, h))
            # The run() clone's `this` points to its own thread object.
            for m, z, v in facts.relations["formal"]:
                if m == run and z == 0:
                    vp0t.add((ct, v, ct, h))
    global_v = facts.id_of("V", "<global>")
    global_h = facts.id_of("H", "<global>")
    for ctx in range(c_size):
        vp0t.add((ctx, global_v, GLOBAL_CONTEXT, global_h))

    # assign: call-graph bindings minus start->run receivers.
    assign = list(
        assign_edges_from_call_graph(facts, graph, skip_thread_start=True)
    )
    assign.extend(facts.relations["assign0"])

    # Exclude the global's own vP0 tuple: it is modeled through vP0T
    # with the shared context.
    vp0 = [
        (v, h)
        for v, h in facts.relations["vP0"]
        if (v, h) != (global_v, global_h)
    ]
    return EscapeInputs(
        contexts=contexts,
        c_size=c_size,
        assign=sorted(set(assign)),
        ht=sorted(ht),
        vp0t=sorted(vp0t),
        vp0=sorted(vp0),
    )


@dataclass
class EscapeResult(AnalysisResult):
    """Result of Algorithm 7 plus the escape queries."""

    thread_contexts: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def vPT(self):
        return self.solver.relation("vPT")

    def _points_to_tuples(self):
        return self.vPT.project("variable", "heap").tuples()

    def escaped_heaps(self) -> Set[int]:
        rel = self.solver.relation("escaped").project("heap")
        return {h for (h,) in rel.tuples()}

    def captured_heaps(self) -> Set[int]:
        rel = self.solver.relation("captured").project("heap")
        return {h for (h,) in rel.tuples()} - self.escaped_heaps()

    def needed_sync_vars(self) -> Set[int]:
        rel = self.solver.relation("neededSyncs").project("var")
        return {v for (v,) in rel.tuples()}

    def unneeded_sync_vars(self) -> Set[int]:
        all_syncs = {v for (v,) in self.facts.relations["sync"]}
        return all_syncs - self.needed_sync_vars()

    def needed_syncs_by_context(self) -> Dict[int, Set[int]]:
        """Per-thread-context needed synchronizations.

        "Notice that neededSyncs is context-sensitive.  Thus, we can
        distinguish when a synchronization is necessary only for certain
        threads, and generate specialized versions of methods for those
        threads."
        """
        out: Dict[int, Set[int]] = {}
        for c, v in self.solver.relation("neededSyncs").tuples():
            out.setdefault(c, set()).add(v)
        return out

    def sync_specialization(self) -> Dict[str, Dict[int, bool]]:
        """For every sync'd variable: context -> is the sync needed there?

        A variable needed in some contexts but not others is a candidate
        for thread-specialized method versions.
        """
        needed = self.needed_syncs_by_context()
        all_contexts = set(range(max(self.thread_contexts_count(), 2)))
        out: Dict[str, Dict[int, bool]] = {}
        for (v,) in self.facts.relations["sync"]:
            name = self.facts.maps["V"][v]
            out[name] = {
                c: v in needed.get(c, set()) for c in sorted(all_contexts)
            }
        return out

    def thread_contexts_count(self) -> int:
        highest = max(
            (c2 for _, (c1, c2) in self.thread_contexts.items()), default=1
        )
        return highest + 1

    def summary(self) -> Dict[str, int]:
        """The four columns of Figure 5."""
        return {
            "captured": len(self.captured_heaps()),
            "escaped": len(self.escaped_heaps()),
            "sync_unneeded": len(self.unneeded_sync_vars()),
            "sync_needed": len(self.needed_sync_vars()),
        }

    def is_captured(self, heap_name: str) -> bool:
        h = self.facts.id_of("H", heap_name)
        return h in self.captured_heaps()


class ThreadEscapeAnalysis:
    """Driver for Algorithm 7."""

    def __init__(
        self,
        program: Optional[Program] = None,
        facts: Optional[Facts] = None,
        call_graph: Optional[CallGraph] = None,
        use_cha_graph: bool = False,
        order_spec: Optional[str] = None,
        budget=None,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
        trace_ops: bool = False,
        thread_sites: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        if facts is None:
            if program is None:
                raise AnalysisError("provide a Program or extracted Facts")
            facts = extract_facts(program)
        self.facts = facts
        self.thread_sites = thread_sites
        self.call_graph = call_graph
        self.use_cha_graph = use_cha_graph
        self.order_spec = order_spec
        self.budget = budget
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

    def _thread_alloc_sites(self) -> List[Tuple[int, int]]:
        if self.thread_sites is not None:
            return sorted(tuple(site) for site in self.thread_sites)
        return thread_alloc_sites(self.facts)

    def run(self) -> EscapeResult:
        start_time = time.monotonic()
        facts = self.facts
        graph = self._obtain_call_graph()
        inputs = build_escape_inputs(facts, graph, self._thread_alloc_sites())

        source = load_datalog_source("algorithm7")
        solver = make_solver(
            facts,
            source,
            size_overrides={"C": inputs.c_size},
            order_spec=self.order_spec,
            budget=self.budget,
            backend=self.backend,
            optimize=self.optimize,
            trace_ops=self.trace_ops,
        )
        solver.add_tuples("assign", inputs.assign)
        solver.add_tuples("HT", inputs.ht)
        solver.add_tuples("vP0T", inputs.vp0t)
        solver.relation("vP0").set_tuples(inputs.vp0)
        solver.solve()
        seconds = time.monotonic() - start_time
        return EscapeResult(
            facts=facts,
            solver=solver,
            seconds=seconds,
            thread_contexts=inputs.contexts,
        )
