"""The Section 5 queries: memory-leak debugging, JCE security audit,
type refinement, and mod-ref analysis.

Each query is a few Datalog rules appended to the analysis program —
"using the same declarative programming interface, we can conveniently
query the results and extract exactly the information we are interested
in."  Queries with program-specific constants (an allocation site, a
method name) generate their rule text at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.facts import Facts
from .base import AnalysisError
from .context_insensitive import ContextInsensitiveAnalysis
from .context_sensitive import ContextSensitiveAnalysis, ContextSensitiveResult
from .type_analysis import ContextSensitiveTypeAnalysis

__all__ = [
    "RefinementStats",
    "refinement_stats",
    "memory_leak_query",
    "security_vulnerability_query",
    "LeakReport",
    "VulnReport",
    "mod_ref",
    "CastReport",
    "cast_safety",
    "DevirtReport",
    "devirtualization",
]


# ----------------------------------------------------------------------
# Type refinement (Sections 5.3 and 6.3, Figure 6)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementStats:
    """One Figure 6 cell pair: % multi-typed and % refinable variables."""

    multi: float
    refinable: float
    num_vars: int

    def as_row(self) -> Tuple[float, float]:
        return (self.multi, self.refinable)


def _percentages(facts: Facts, multi_vars: Set[int], refinable_vars: Set[int]) -> RefinementStats:
    total = len(facts.maps["V"])
    return RefinementStats(
        multi=100.0 * len(multi_vars) / total,
        refinable=100.0 * len(refinable_vars) / total,
        num_vars=total,
    )


def refinement_stats(result, variant: str = "auto") -> RefinementStats:
    """Compute refinement precision from a result whose solver ran with a
    refinement query fragment.

    ``variant`` selects the relations: ``"ci"`` (multiType/refinable),
    ``"projected"`` (multiTypeP/refinableP) or ``"full"``
    (multiTypeC/refinableC).  ``"auto"`` picks ``"ci"`` when present.
    """
    solver = result.solver
    if variant == "auto":
        variant = "ci" if "multiType" in solver.relations else "projected"
    suffix = {"ci": "", "projected": "P", "full": "C"}[variant]
    multi = {v for (v,) in solver.relation(f"multiType{suffix}").tuples()}
    refinable = {
        v for v, _ in solver.relation(f"refinable{suffix}").tuples()
    }
    return _percentages(result.facts, multi, refinable)


# ----------------------------------------------------------------------
# Memory leak debugging (Section 5.1)
# ----------------------------------------------------------------------


@dataclass
class LeakReport:
    """Who may hold the leaked object, and who stored the pointers."""

    heap_name: str
    holders: List[Tuple[str, str]]          # (holding heap object, field)
    writers: List[Tuple[int, str, str, str]]  # (context, var, field, var)


def memory_leak_query(
    result: ContextSensitiveResult, heap_name: str
) -> LeakReport:
    """The Section 5.1 queries, evaluated against a solved Algorithm 5.

    ``whoPointsTo(h, f) :- hP(h, f, "<site>").`` finds objects/fields that
    may point to the leaked object; ``whoDunnit(c, v1, f, v2)`` finds the
    store instructions (and their contexts) creating those references.
    """
    facts = result.facts
    h_leak = facts.id_of("H", heap_name)
    heaps = facts.maps["H"]
    fields = facts.maps["F"]
    variables = facts.maps["V"]

    holders = []
    for h1, f, h2 in result.solver.relation("hP").tuples():
        if h2 == h_leak:
            holders.append((heaps[h1], fields[f]))

    # whoDunnit: store(v1, f, v2), vPC(c, v2, "<site>").
    writers = []
    pointing = result.solver.relation("vPC").select(heap=h_leak)
    pointing_pairs = set(pointing.tuples())  # (context, variable)
    by_var: Dict[int, Set[int]] = {}
    for c, v in pointing_pairs:
        by_var.setdefault(v, set()).add(c)
    for v1, f, v2 in facts.relations["store"]:
        for c in by_var.get(v2, ()):
            writers.append((c, variables[v1], fields[f], variables[v2]))
    return LeakReport(heap_name=heap_name, holders=sorted(set(holders)), writers=sorted(set(writers)))


# ----------------------------------------------------------------------
# Security vulnerability (Section 5.2)
# ----------------------------------------------------------------------


@dataclass
class VulnReport:
    """Invocations of PBEKeySpec.init whose key derives from a String."""

    vulnerable_sites: List[Tuple[int, str]]  # (context, invocation site name)

    def __bool__(self) -> bool:
        return bool(self.vulnerable_sites)


def security_vulnerability_query(
    result: ContextSensitiveResult,
    ie_tuples: Sequence[Tuple[int, int]],
    sink_method: str = "PBEKeySpec.init",
    source_class: str = "String",
) -> VulnReport:
    """The Section 5.2 audit over a solved Algorithm 5.

    ``fromString(h)`` holds for objects returned by any method of
    ``source_class``; an invocation of ``sink_method`` is flagged when its
    first argument may point to such an object.  ``ie_tuples`` supplies the
    resolved invocation edges (from Algorithm 3 or CHA).
    """
    facts = result.facts
    # fromString(h) :- cha("String", _, m), Mret(m, v), vPC(_, v, h).
    t_string = facts.id_of("T", source_class)
    string_methods = {
        m for t, _n, m in facts.relations["cha"] if t == t_string
    }
    # Include statics declared on the source class.
    for m_id, name in enumerate(facts.maps["M"]):
        if name.startswith(source_class + "."):
            string_methods.add(m_id)
    ret_vars = {
        v for m, v in facts.relations["Mret"] if m in string_methods
    }
    from_string: Set[int] = set()
    vpc = result.solver.relation("vPC").project("variable", "heap")
    var_heaps: Dict[int, Set[int]] = {}
    for v, h in vpc.tuples():
        var_heaps.setdefault(v, set()).add(h)
    for v in ret_vars:
        from_string |= var_heaps.get(v, set())

    # vuln(c, i) :- IE(i, "PBEKeySpec.init"), actual(i, 1, v),
    #               vPC(c, v, h), fromString(h).
    try:
        m_sink = facts.method_id(sink_method)
    except Exception:
        return VulnReport(vulnerable_sites=[])
    sink_sites = {i for i, m in ie_tuples if m == m_sink}
    first_args = {
        i: v for i, z, v in facts.relations["actual"] if z == 1 and i in sink_sites
    }
    sites = facts.maps["I"]
    found = []
    vpc_full = result.solver.relation("vPC")
    for i, v in first_args.items():
        heaps = var_heaps.get(v, set())
        if heaps & from_string:
            contexts = {
                c
                for c, vv, h in vpc_full.tuples()
                if vv == v and h in (heaps & from_string)
            }
            for c in contexts:
                found.append((c, sites[i]))
    return VulnReport(vulnerable_sites=sorted(found))


# ----------------------------------------------------------------------
# Mod-ref (Section 5.4)
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Cast safety ("reduce overheads in cast operations", Section 5.3)
# ----------------------------------------------------------------------


@dataclass
class CastReport:
    """Downcast checkability: which casts can never fail at runtime."""

    safe: List[str]      # variable names whose cast always succeeds
    failing: List[str]   # variable names whose cast may fail
    evidence: Dict[str, List[str]]  # failing var -> offending heap names

    @property
    def safe_ratio(self) -> float:
        total = len(self.safe) + len(self.failing)
        return len(self.safe) / total if total else 1.0


def cast_safety(result) -> CastReport:
    """Classify every cast using a points-to result.

    Requires a context-insensitive analysis run with
    ``query_fragments=["query_casts"]``.
    """
    solver = result.solver
    if "safeCast" not in solver.relations:
        raise AnalysisError(
            "run ContextInsensitiveAnalysis(query_fragments=['query_casts'])"
        )
    facts = result.facts
    variables, heaps = facts.maps["V"], facts.maps["H"]
    safe = sorted(variables[v] for (v,) in solver.relation("safeCast").tuples())
    failing_ids = {v for (v,) in solver.relation("failingCast").tuples()}
    failing = sorted(variables[v] for v in failing_ids)
    evidence: Dict[str, List[str]] = {}
    for v, h in solver.relation("badCast").tuples():
        evidence.setdefault(variables[v], []).append(heaps[h])
    return CastReport(safe=safe, failing=failing, evidence=evidence)


# ----------------------------------------------------------------------
# Devirtualization ("resolve virtual method calls", Section 5.3)
# ----------------------------------------------------------------------


@dataclass
class DevirtReport:
    """Virtual call sites by resolution status."""

    mono: List[str]   # single points-to target: statically bindable
    poly: List[str]   # multiple targets remain
    dead: List[str]   # unreachable virtual sites (no target)
    dead_methods: List[str]

    @property
    def devirt_ratio(self) -> float:
        total = len(self.mono) + len(self.poly)
        return len(self.mono) / total if total else 1.0


def devirtualization(result) -> DevirtReport:
    """Classify virtual invocation sites using discovered call edges.

    Requires Algorithm 3 run with ``query_fragments=["query_devirt"]``.
    """
    solver = result.solver
    if "monoCall" not in solver.relations:
        raise AnalysisError(
            "run ContextInsensitiveAnalysis(query_fragments=['query_devirt'])"
        )
    facts = result.facts
    sites, methods = facts.maps["I"], facts.maps["M"]
    entry = facts.entry
    return DevirtReport(
        mono=sorted(sites[i] for (i,) in solver.relation("monoCall").tuples()),
        poly=sorted(sites[i] for (i,) in solver.relation("polyCall").tuples()),
        dead=sorted(sites[i] for (i,) in solver.relation("deadCall").tuples()),
        dead_methods=sorted(
            methods[m]
            for (m,) in solver.relation("deadMethod").tuples()
            if methods[m] != entry  # the entry point is live by definition
        ),
    )


def mod_ref(
    result: ContextSensitiveResult, method: str, context: Optional[int] = None
) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str]]]:
    """(mod, ref) sets of ``method``: (heap object, field) pairs it may
    modify / reference, optionally restricted to one calling context.

    Requires Algorithm 5 to have been run with the ``query_modref``
    fragment.
    """
    solver = result.solver
    if "mod" not in solver.relations:
        raise AnalysisError(
            "run ContextSensitiveAnalysis(query_fragments=['query_modref'])"
        )
    facts = result.facts
    m_id = facts.method_id(method)
    heaps, fields = facts.maps["H"], facts.maps["F"]

    def collect(rel_name: str) -> Set[Tuple[str, str]]:
        out = set()
        for c, m, h, f in solver.relation(rel_name).tuples():
            if m != m_id:
                continue
            if context is not None and c != context:
                continue
            out.add((heaps[h], fields[f]))
        return out

    return collect("mod"), collect("ref")
