"""Algorithm 4: numbering reduced call paths with contiguous ranges.

"A method with n clones will be given numbers 1..n.  Nodes with no
predecessors are given a singleton context numbered 1. ... For each node n
in the reduced graph in topological order: set the count of contexts
created, c, to 0; for each incoming edge whose predecessor p has k
contexts, create k clones of node n, add tuple (i, p, i+c, n) to IEC for
1 <= i <= k, c = c + k."

The context counts are *exact big integers* (the paper's benchmarks reach
5x10^23 reduced call paths; Python integers represent them natively).  The
symbolic ``IEC`` relation is assembled per edge from the two O(bits)
primitives of Section 4.1: contiguous ranges and add-a-constant relations.
Counts beyond an optional cap are merged into a single overflow context,
mirroring the paper's "contexts numbered beyond 2^63 were merged into a
single context".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..bdd import BddKernel, Domain, FALSE
from ..bdd.domain import offset_relation
from ..datalog.relation import Attribute, Relation
from .graph import CallGraph, Edge

__all__ = [
    "EdgeRange",
    "ContextNumbering",
    "number_call_graph",
    "number_call_graph_1cfa",
]


@dataclass(frozen=True)
class EdgeRange:
    """Caller contexts ``[lo..hi]`` map to callee contexts ``+delta``.

    ``collapse_to`` marks saturated ranges: every caller context in
    ``[lo..hi]`` maps to the single merged overflow context instead.
    """

    site: int
    caller: int
    callee: int
    lo: int
    hi: int
    delta: int = 0
    collapse_to: Optional[int] = None


@dataclass
class ContextNumbering:
    """The result of Algorithm 4 on one call graph."""

    graph: CallGraph
    entries: Tuple[int, ...]
    counts: Dict[int, int] = field(default_factory=dict)        # capped
    exact_counts: Dict[int, int] = field(default_factory=dict)  # big ints
    ranges: List[EdgeRange] = field(default_factory=list)
    cap: Optional[int] = None

    # ------------------------------------------------------------------

    def num_contexts(self, method: int) -> int:
        return self.counts.get(method, 1)

    def max_paths(self) -> int:
        """The paper's "C.S. Paths" statistic: the largest clone count."""
        return max(self.exact_counts.values(), default=1)

    def context_domain_size(self) -> int:
        """Required size of the C domain (context 0 stays unused)."""
        return max(self.counts.values(), default=1) + 1

    # ------------------------------------------------------------------
    # Symbolic construction (Section 4.1)
    # ------------------------------------------------------------------

    def build_iec(
        self,
        manager: BddKernel,
        c_caller: Domain,
        i_dom: Domain,
        c_callee: Domain,
        m_dom: Domain,
        alloc_sites: Optional[Dict[int, List[int]]] = None,
        global_site: Optional[int] = None,
        global_method: Optional[int] = None,
    ) -> int:
        """Assemble the ``IEC(c, i, cm, m)`` BDD.

        Besides the numbered invocation edges this includes, when given:

        * identity tuples ``IEC(c, h, c, m)`` for each allocation site ``h``
          of method ``m`` — rule (14) reads an allocation's context through
          ``IEC(c, h, _, _)`` because H is a subset of I,
        * a full-range identity row for the global pseudo-site, making the
          global object visible in every context.
        """
        node = FALSE
        for rng in self.ranges:
            if rng.collapse_to is not None:
                pair = manager.and_(
                    c_caller.range_bdd(rng.lo, rng.hi),
                    c_callee.eq_const(rng.collapse_to),
                )
            else:
                pair = offset_relation(c_caller, c_callee, rng.delta, rng.lo, rng.hi)
            row = manager.and_(pair, i_dom.eq_const(rng.site))
            row = manager.and_(row, m_dom.eq_const(rng.callee))
            node = manager.or_(node, row)
        if alloc_sites:
            site_set = Relation(
                manager, "sites", [Attribute("site", "I", i_dom)]
            )
            for method, sites in alloc_sites.items():
                if not sites:
                    continue
                k = self.num_contexts(method)
                ident = offset_relation(c_caller, c_callee, 0, 1, k)
                ident = manager.and_(ident, m_dom.eq_const(method))
                sites_node = site_set.tuples_node((h,) for h in sites)
                node = manager.or_(node, manager.and_(ident, sites_node))
        if global_site is not None:
            hi = c_caller.size - 1
            ident = offset_relation(c_caller, c_callee, 0, 0, hi)
            ident = manager.and_(ident, i_dom.eq_const(global_site))
            if global_method is not None:
                ident = manager.and_(ident, m_dom.eq_const(global_method))
            node = manager.or_(node, ident)
        return node

    def build_mc(self, manager: BddKernel, c_dom: Domain, m_dom: Domain) -> int:
        """``MC(c, m)``: method ``m`` executes in contexts ``1..counts[m]``.

        Used to context-qualify the residual local assignments (the paper
        folds these into its input generation)."""
        node = FALSE
        for method, k in self.counts.items():
            row = manager.and_(c_dom.range_bdd(1, k), m_dom.eq_const(method))
            node = manager.or_(node, row)
        return node


def number_call_graph_1cfa(
    graph: CallGraph, entries: Iterable[int]
) -> ContextNumbering:
    """The 1-CFA baseline (Shivers): one context per *last call site*.

    The paper contrasts its full-call-path cloning with k-CFA, which
    "remembers only the last k call sites".  For k = 1 each method gets
    one clone per incoming invocation edge, and *every* caller context of
    an edge maps onto that single clone — a collapse, in the vocabulary of
    :class:`EdgeRange`.  This baseline is polynomial but much less
    precise; the benchmarks compare it against Algorithm 4's numbering.
    """
    entries = tuple(entries)
    numbering = ContextNumbering(graph=graph, entries=entries, cap=None)
    # Context slots per method: 1..indegree (or the singleton 1).
    slot_of: Dict[int, int] = {}
    for m in sorted(graph.methods):
        preds = graph.predecessors(m)
        count = max(len(preds), 1)
        numbering.counts[m] = count
        numbering.exact_counts[m] = count
        for slot, edge in enumerate(preds, start=1):
            slot_of[id(edge)] = slot
    for m in sorted(graph.methods):
        for edge in graph.predecessors(m):
            numbering.ranges.append(
                EdgeRange(
                    edge.site,
                    edge.caller,
                    edge.callee,
                    lo=1,
                    hi=numbering.counts[edge.caller],
                    collapse_to=slot_of[id(edge)],
                )
            )
    return numbering


def number_call_graph(
    graph: CallGraph,
    entries: Iterable[int],
    cap: Optional[int] = None,
) -> ContextNumbering:
    """Run Algorithm 4 over ``graph``.

    ``entries`` are the program entry methods (they keep a singleton
    context even if called recursively); ``cap`` bounds the number of
    contexts per method, merging the overflow into one context.
    """
    entries = tuple(entries)
    numbering = ContextNumbering(graph=graph, entries=entries, cap=cap)
    comp_of, components = graph.condensation()

    comp_exact: List[int] = [0] * len(components)
    comp_capped: List[int] = [0] * len(components)

    for idx, component in enumerate(components):
        members = set(component)
        exact = 0
        capped = 0
        incoming: List[Edge] = []
        for m in component:
            for edge in graph.predecessors(m):
                if edge.caller not in members:
                    incoming.append(edge)
        if not incoming:
            exact = capped = 1
        for edge in incoming:
            k_exact = comp_exact[comp_of[edge.caller]]
            k = comp_capped[comp_of[edge.caller]]
            exact += k_exact
            if cap is not None and capped >= cap:
                # Entire edge collapses into the overflow context.
                numbering.ranges.append(
                    EdgeRange(
                        edge.site, edge.caller, edge.callee,
                        lo=1, hi=k, collapse_to=cap,
                    )
                )
                continue
            if cap is not None and capped + k > cap:
                fit = cap - capped
                if fit > 0:
                    numbering.ranges.append(
                        EdgeRange(
                            edge.site, edge.caller, edge.callee,
                            lo=1, hi=fit, delta=capped,
                        )
                    )
                numbering.ranges.append(
                    EdgeRange(
                        edge.site, edge.caller, edge.callee,
                        lo=fit + 1, hi=k, collapse_to=cap,
                    )
                )
                capped = cap
                continue
            numbering.ranges.append(
                EdgeRange(
                    edge.site, edge.caller, edge.callee,
                    lo=1, hi=k, delta=capped,
                )
            )
            capped += k
        comp_exact[idx] = max(exact, 1)
        comp_capped[idx] = max(capped, 1)
        for m in component:
            numbering.exact_counts[m] = comp_exact[idx]
            numbering.counts[m] = comp_capped[idx]
        # Intra-component (recursive) edges: the i-th clone calls the
        # i-th clone.
        for m in component:
            for edge in graph.successors(m):
                if edge.callee in members:
                    numbering.ranges.append(
                        EdgeRange(
                            edge.site, edge.caller, edge.callee,
                            lo=1, hi=comp_capped[idx], delta=0,
                        )
                    )
    return numbering
