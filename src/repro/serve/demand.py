"""Goal-directed demand evaluation: answer what the ``.ptdb`` cannot.

A compiled database is a snapshot — it answers points-to and mod-ref
queries by cheap BDD restriction, but only for what was materialized at
compile time.  Two kinds of misses used to be terminal:

* a points-to/alias query for a variable outside the database's
  **budget class** (``repro compile-db --budget-class`` stores vP/vPC
  restricted to the variables of matching methods), and
* a mod-ref query against a database compiled with ``--no-modref``.

The :class:`DemandEvaluator` closes both by running a *goal-directed*
subset of the paper's Algorithm 5 (+ mod-ref fragment) rules: the
program is magic-sets rewritten (:mod:`repro.datalog.magic`) for the
four goal shapes the serve engine needs, the database's fact set
(``db.facts``) supplies the inputs without any source program, the
saved ``IE`` tuples re-derive the context numbering (identical to the
compile-time numbering — same Algorithm 4, same inputs; checked against
``meta["paths"]``), and each query seeds the goal's magic relation with
its constants before :meth:`~repro.datalog.solver.Solver.solve_demand`
pushes exactly the new deltas.

The evaluator owns one long-lived solver.  Derived sub-relations stay
materialized in it between queries, so repeated or overlapping demand
queries reuse earlier work — and because the engine (and therefore the
evaluator) is rebuilt per serve epoch, a hot swap invalidates the whole
demand cache atomically.  The solver collects its node arena and caps
its operation cache at limits measured on demand traffic; a collection
keeps every relation, so the reuse survives it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.base import load_datalog_source
from ..analysis.context_sensitive import install_numbering
from ..callgraph import call_graph_from_ie, number_call_graph
from ..datalog import Solver, apply_domain_sizes, parse_program
from ..datalog.ast import Atom, ProgramAST, RelationDecl, Rule, Variable
from ..datalog.magic import magic_rewrite
from ..datalog.relation import Relation
from ..runtime import ResourceBudget

__all__ = ["DemandEvaluator", "DemandUnavailable"]


class DemandUnavailable(Exception):
    """This database cannot support demand evaluation (typed reason)."""


# Goal shapes the serve engine asks for, as (predicate, adornment):
#   vP^bf   — context-insensitive points-to for one variable (also
#             aliases: two seeds, intersect the answers),
#   vPC^bbf — points-to of one variable in one context,
#   mod/ref^fbff — mod-ref for one method (any context; a context
#             constraint is applied at answer extraction).
_GOALS: Tuple[Tuple[str, str], ...] = (
    ("vP", "bf"),
    ("vPC", "bbf"),
    ("mod", "fbff"),
    ("ref", "fbff"),
)


# Memory limits of the demand solver, chosen from a sweep over perfbench
# ``demand`` (gc_threshold 100k-4M x cache_limit 100k-2M; the curve is
# in CHANGES.md).  Uncapped, one demand epoch reaches about 280k nodes
# and 900k op-cache entries, of which about 22k nodes are live after a
# collection, and peaks near 180 MB RSS.  These limits hold it near
# 80 MB at the same median latency and about 5% more tail latency; a
# 100k cache cap saved another 12 MB but cost up to 13% tail latency.
_GC_THRESHOLD = 150_000
_CACHE_LIMIT = 250_000


def _logical_order(spec: str) -> str:
    """The logical form of a recorded physical order spec, ``"V0xV1_H0"``
    -> ``"V_H"``.  The magic program can resolve fewer instances of a
    domain than the compiled program did; the solver expands the logical
    form to the instances it has, so the compile-time order carries over
    without naming instances this program lacks."""
    seen: Set[str] = set()
    groups = []
    for group in spec.split("_"):
        names = []
        for member in group.split("x"):
            name = member.rstrip("0123456789")
            if name and name not in seen:
                seen.add(name)
                names.append(name)
        if names:
            groups.append("x".join(names))
    return "_".join(groups)


class DemandEvaluator:
    """One goal-directed solver per loaded database (per serve epoch)."""

    def __init__(
        self,
        db,
        *,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
    ) -> None:
        meta = db.meta
        facts = db.facts
        ie = sorted(tuple(t) for t in db.tuples.get("IE", ()))
        self.db = db
        self.facts = facts
        # Re-derive the compile-time context numbering from the saved
        # call graph (Algorithm 4 is deterministic in its inputs).
        graph = call_graph_from_ie(facts, ie)
        numbering = number_call_graph(graph, entries=facts.entry_ids)
        recorded_paths = meta.get("paths")
        if recorded_paths is not None and numbering.max_paths() != recorded_paths:
            raise DemandUnavailable(
                f"context numbering mismatch: database records "
                f"{recorded_paths} paths, rebuilt numbering has "
                f"{numbering.max_paths()} — the database was compiled "
                f"with a non-default context policy"
            )
        source = load_datalog_source("algorithm5", ["query_modref"])
        base = parse_program(source)
        sizes = {
            dom: facts.sizes[dom]
            for dom in base.domains
            if dom in facts.sizes
        }
        sizes["C"] = numbering.context_domain_size()
        apply_domain_sizes(base, sizes)
        self._add_vp_projection(base)
        rewritten = magic_rewrite(base, _GOALS)
        self._goals = rewritten.goals
        name_maps = {
            dom: facts.maps[dom]
            for dom in base.domains
            if dom in facts.maps
        }
        solver = Solver(
            rewritten.program,
            order_spec=_logical_order(
                meta.get("config", {}).get("order_spec") or ""
            ),
            name_maps=name_maps,
            backend=backend,
            optimize=optimize,
            gc_threshold=_GC_THRESHOLD,
            cache_limit=_CACHE_LIMIT,
        )
        for decl in rewritten.program.relations.values():
            if decl.is_input and decl.name in facts.relations:
                solver.add_tuples(decl.name, facts.relations[decl.name])
        install_numbering(solver, numbering, facts)
        self.solver = solver
        # Magic tuples already pushed to fixpoint, per goal relation.
        self._seeded: Dict[str, Set[tuple]] = {}
        self.solves = 0
        self.solve_seconds = 0.0

    @staticmethod
    def _add_vp_projection(program: ProgramAST) -> None:
        """Declare ``vP`` and its context projection of ``vPC``.

        The exhaustive compile materializes vP at packaging time; the
        demand program derives it with an ordinary rule so the magic
        rewrite can drive the vPC computation from a vP goal.
        """
        vpc = program.relations["vPC"]
        program.relations["vP"] = RelationDecl(
            name="vP",
            attributes=tuple(
                a for a in vpc.attributes if a.name in ("variable", "heap")
            ),
            is_output=True,
        )
        c, v, h = (Variable("c"), Variable("v"), Variable("h"))
        program.rules.append(
            Rule(
                head=Atom(relation="vP", terms=(v, h)),
                body=(Atom(relation="vPC", terms=(c, v, h)),),
            )
        )

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------

    def _solve(
        self,
        seeds: Dict[Tuple[str, str], Sequence[tuple]],
        budget: Optional[ResourceBudget],
    ) -> None:
        """Push new goal seeds to fixpoint (no-op when all seen)."""
        magic_seeds: Dict[str, List[tuple]] = {}
        for goal, tuples in seeds.items():
            info = self._goals[goal]
            seen = self._seeded.setdefault(info.magic, set())
            fresh = [t for t in tuples if t not in seen]
            if fresh:
                magic_seeds.setdefault(info.magic, []).extend(fresh)
        if not magic_seeds and self.solver.at_fixpoint:
            return
        start = time.monotonic()
        try:
            self.solver.solve_demand(magic_seeds, budget=budget)
        finally:
            self.solves += 1
            self.solve_seconds += time.monotonic() - start
        # Only mark seeds consumed after the fixpoint completed — a
        # budget fault must not strand a half-pushed goal as "done".
        for name, tuples in magic_seeds.items():
            self._seeded[name].update(tuples)

    def _answer(self, goal: Tuple[str, str]) -> Relation:
        return self.solver.relation(self._goals[goal].answer)

    # ------------------------------------------------------------------
    # Query entry points (ordinals in, selected Relations out)
    # ------------------------------------------------------------------

    def points_to(
        self,
        variable: int,
        context: Optional[int] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> Relation:
        """Heaps of one variable: a ``(heap,)`` relation."""
        if context is None:
            self._solve({("vP", "bf"): [(variable,)]}, budget)
            return self._answer(("vP", "bf")).select(variable=variable)
        self._solve({("vPC", "bbf"): [(context, variable)]}, budget)
        return self._answer(("vPC", "bbf")).select(
            context=context, variable=variable
        )

    def alias_heaps(
        self,
        var1: int,
        var2: int,
        budget: Optional[ResourceBudget] = None,
    ) -> Tuple[Relation, Relation]:
        """The two ``(heap,)`` relations of an alias query (intersect)."""
        self._solve({("vP", "bf"): [(var1,), (var2,)]}, budget)
        answer = self._answer(("vP", "bf"))
        return answer.select(variable=var1), answer.select(variable=var2)

    def mod_ref(
        self,
        method: int,
        context: Optional[int] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> Tuple[Relation, Relation]:
        """``(heap, field)`` relations a method may modify / reference."""
        self._solve(
            {("mod", "fbff"): [(method,)], ("ref", "fbff"): [(method,)]},
            budget,
        )
        constants: Dict[str, int] = {"m": method}
        if context is not None:
            constants["c"] = context
        mod = self._answer(("mod", "fbff")).select(**constants)
        ref = self._answer(("ref", "fbff")).select(**constants)
        if context is None:
            mod = mod.project("heap", "field")
            ref = ref.project("heap", "field")
        return mod, ref

    def stats(self) -> Dict[str, Any]:
        m = self.solver.manager
        return {
            "solves": self.solves,
            "solve_seconds": round(self.solve_seconds, 6),
            "seeded": {
                name: len(seen) for name, seen in sorted(self._seeded.items())
            },
            # The epoch's memory: arena size and high-water mark,
            # collections, and op-cache entries and clears.
            "nodes": m.node_count(),
            "peak_nodes": m.peak_nodes,
            "gc_count": m.gc_count,
            "cache_entries": m.cache_entries(),
            "cache_clears": m.cache_clears,
        }
