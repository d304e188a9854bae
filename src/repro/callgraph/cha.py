"""Class-hierarchy-analysis call graphs (Dean et al., used as the paper's
baseline and as the conservative graph for context numbering).

"The call graph generated using class hierarchy analysis can have many
spurious call targets" (Section 3) — Figure 4 quantifies how much the
on-the-fly discovery of Algorithm 3 shrinks it.  This module builds the
CHA graph directly from extracted facts; graphs from points-to-discovered
``IE`` tuples are built with :meth:`CallGraph.from_edges`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir.facts import Facts
from .graph import CallGraph

__all__ = ["cha_call_graph", "call_graph_from_ie"]


def cha_call_graph(facts: Facts, reachable_only: bool = True) -> CallGraph:
    """Build the CHA call graph from extracted facts.

    Virtual sites bind to every ``cha`` target whose receiver type is
    assignable to the receiver's declared type; static sites use ``IE0``.
    When ``reachable_only`` is set the graph is restricted to methods
    reachable from the program entry (the paper counts "only the reachable
    parts of the program and the class library").
    """
    graph = CallGraph()
    for m in range(len(facts.maps["M"])):
        graph.add_method(m)

    # Receiver declared types.
    var_type: Dict[int, int] = {v: t for v, t in facts.relations["vT"]}
    # Subtypes: aT(sup, sub) -> sub assignable to sup.
    subtypes: Dict[int, Set[int]] = {}
    for sup, sub in facts.relations["aT"]:
        subtypes.setdefault(sup, set()).add(sub)
    # Dispatch: (type, name) -> targets.
    dispatch: Dict[Tuple[int, int], Set[int]] = {}
    for t, n, m in facts.relations["cha"]:
        dispatch.setdefault((t, n), set()).add(m)
    receivers: Dict[int, int] = {
        i: v for i, z, v in facts.relations["actual"] if z == 0
    }
    null_name = facts.id_of("N", "<none>")

    for caller, site, name in facts.relations["mI"]:
        if name == null_name:
            continue  # handled through IE0
        recv = receivers.get(site)
        if recv is None:
            continue
        declared = var_type.get(recv)
        if declared is None:
            continue
        for t in subtypes.get(declared, {declared}):
            for target in dispatch.get((t, name), ()):
                graph.add_edge(site, caller, target)
    for site, target in facts.relations["IE0"]:
        graph.add_edge(site, facts.site_method[site], target)

    if not reachable_only:
        return graph
    keep = graph.reachable_from(facts.entry_ids)
    pruned = CallGraph(keep)
    for edge in graph.edges:
        if edge.caller in keep and edge.callee in keep:
            pruned.add_edge(edge.site, edge.caller, edge.callee)
    return pruned


def call_graph_from_ie(
    facts: Facts, ie_tuples, reachable_only: bool = True
) -> CallGraph:
    """Build a call graph from discovered invocation edges ``IE(i, m)``."""
    graph = CallGraph()
    for m in range(len(facts.maps["M"])):
        graph.add_method(m)
    for site, callee in ie_tuples:
        caller = facts.site_method.get(site)
        if caller is None:
            continue  # allocation pseudo-sites carry no call edge
        graph.add_edge(site, caller, callee)
    if not reachable_only:
        return graph
    keep = graph.reachable_from(facts.entry_ids)
    pruned = CallGraph(keep)
    for edge in graph.edges:
        if edge.caller in keep and edge.callee in keep:
            pruned.add_edge(edge.site, edge.caller, edge.callee)
    return pruned
