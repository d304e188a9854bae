"""Context-insensitive points-to analyses: Algorithms 1, 2 and 3.

* :class:`ContextInsensitiveAnalysis` with ``discover_call_graph=False``
  runs Algorithm 1 (``type_filtering=False``) or Algorithm 2 over a
  precomputed CHA call graph — the ``assign`` relation is derived from the
  graph's parameter/return bindings exactly as Section 2.2 describes.
* With ``discover_call_graph=True`` it runs Algorithm 3: the assign
  relation becomes a computed relation fed by the discovered ``IE`` edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..callgraph import CallGraph, cha_call_graph, call_graph_from_ie
from ..ir.facts import Facts, extract_facts
from ..ir.program import Program
from .base import AnalysisError, AnalysisResult, load_datalog_source, make_solver

__all__ = [
    "ContextInsensitiveAnalysis",
    "ContextInsensitiveResult",
    "assign_edges_from_call_graph",
]


def assign_edges_from_call_graph(
    facts: Facts, graph: CallGraph, skip_thread_start: bool = False
) -> List[Tuple[int, int]]:
    """Parameter- and return-passing assignments induced by a call graph.

    ``assign(v1, v2)`` for each formal ``v1`` of a callee bound to actual
    ``v2`` at an edge's site, and for each caller result variable bound to
    a callee return variable.  ``skip_thread_start`` omits the receiver
    binding of ``start -> run`` dispatch edges (the thread-escape driver
    models those through ``vP0T`` instead).
    """
    formals: Dict[int, List[Tuple[int, int]]] = {}
    for m, z, v in facts.relations["formal"]:
        formals.setdefault(m, []).append((z, v))
    actuals: Dict[int, Dict[int, int]] = {}
    for i, z, v in facts.relations["actual"]:
        actuals.setdefault(i, {})[z] = v
    irets: Dict[int, List[int]] = {}
    for i, v in facts.relations["Iret"]:
        irets.setdefault(i, []).append(v)
    mrets: Dict[int, List[int]] = {}
    for m, v in facts.relations["Mret"]:
        mrets.setdefault(m, []).append(v)
    mthrs: Dict[int, int] = {m: v for m, v in facts.relations["Mthr"]}
    run_targets: Set[Tuple[int, int]] = set()
    if skip_thread_start:
        start_name = None
        if "start" in facts.maps["N"]:
            start_name = facts.id_of("N", "start")
        start_sites = {
            i for _, i, n in facts.relations["mI"] if n == start_name
        }
        run_targets = {(e.site, e.callee) for e in graph.edges if e.site in start_sites}

    edges: Set[Tuple[int, int]] = set()
    for edge in graph.edges:
        site_actuals = actuals.get(edge.site, {})
        is_start_edge = (edge.site, edge.callee) in run_targets
        for z, formal_v in formals.get(edge.callee, ()):
            if is_start_edge and z == 0:
                continue
            actual_v = site_actuals.get(z)
            if actual_v is not None:
                edges.add((formal_v, actual_v))
        for dst in irets.get(edge.site, ()):
            for src in mrets.get(edge.callee, ()):
                edges.add((dst, src))
        # Exceptions: the callee's thrown channel drains into the caller's.
        caller_thr = mthrs.get(edge.caller)
        callee_thr = mthrs.get(edge.callee)
        if caller_thr is not None and callee_thr is not None:
            edges.add((caller_thr, callee_thr))
    return sorted(edges)


@dataclass
class ContextInsensitiveResult(AnalysisResult):
    """Result of Algorithms 1/2/3: ``vP``, ``hP`` and (for 3) ``IE``."""

    discovered_call_graph: Optional[CallGraph] = None

    def _points_to_tuples(self):
        return self.solver.relation("vP").tuples()

    @property
    def vP(self):
        return self.solver.relation("vP")

    @property
    def hP(self):
        return self.solver.relation("hP")

    def call_targets(self, method: str, index: int = 0) -> Set[str]:
        """Resolved targets of the ``index``-th invocation in ``method``."""
        if self.discovered_call_graph is None:
            raise AnalysisError("call graph discovery was not enabled")
        m_id = self.facts.method_id(method)
        sites = sorted(
            i
            for i, m in self.facts.site_method.items()
            if m == m_id and i >= len(self.facts.maps["H"])
        )
        site = sites[index]
        return {
            self.facts.maps["M"][t]
            for t in self.discovered_call_graph.call_targets(site)
        }


class ContextInsensitiveAnalysis:
    """Driver for Algorithms 1, 2 (precomputed CHA graph) and 3."""

    def __init__(
        self,
        program: Optional[Program] = None,
        facts: Optional[Facts] = None,
        type_filtering: bool = True,
        discover_call_graph: bool = True,
        call_graph: Optional[CallGraph] = None,
        order_spec: Optional[str] = None,
        seminaive: bool = False,
        query_fragments: Sequence[str] = (),
        budget=None,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
        disabled_passes: Optional[Sequence[str]] = None,
    ) -> None:
        if facts is None:
            if program is None:
                raise AnalysisError("provide a Program or extracted Facts")
            facts = extract_facts(program)
        self.facts = facts
        self.type_filtering = type_filtering
        self.discover_call_graph = discover_call_graph
        self.call_graph = call_graph
        self.order_spec = order_spec
        self.seminaive = seminaive
        self.query_fragments = tuple(query_fragments)
        self.budget = budget
        self.backend = backend
        self.optimize = optimize
        self.disabled_passes = disabled_passes

    def algorithm_name(self) -> str:
        if self.discover_call_graph:
            return "algorithm3" if self.type_filtering else "algorithm3_nofilter"
        return "algorithm2" if self.type_filtering else "algorithm1"

    def run(self) -> ContextInsensitiveResult:
        start = time.monotonic()
        source = load_datalog_source(self.algorithm_name(), self.query_fragments)
        solver = make_solver(
            self.facts,
            source,
            order_spec=self.order_spec,
            seminaive=self.seminaive,
            budget=self.budget,
            backend=self.backend,
            optimize=self.optimize,
            disabled_passes=self.disabled_passes,
        )
        discovered = None
        if self.discover_call_graph:
            solver.solve()
            discovered = call_graph_from_ie(
                self.facts, solver.relation("IE").tuples()
            )
        else:
            graph = self.call_graph or cha_call_graph(self.facts)
            assign = list(assign_edges_from_call_graph(self.facts, graph))
            assign.extend(self.facts.relations["assign0"])
            solver.add_tuples("assign", assign)
            solver.solve()
        seconds = time.monotonic() - start
        return ContextInsensitiveResult(
            facts=self.facts,
            solver=solver,
            seconds=seconds,
            discovered_call_graph=discovered,
        )
