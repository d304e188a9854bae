"""BDD-based Datalog solver (the bddbddb engine, Section 2.4).

The solver owns the BDD manager, the pool of physical finite domains, and
one :class:`~repro.datalog.relation.Relation` per declared predicate.  It
evaluates the program stratum by stratum.  Rules whose body does not
mention the stratum's predicates are applied exactly once ("rule
application order" optimization).  A recursive stratum solved from its
current state iterates its whole-rule plans (*naive* evaluation): each
iteration re-joins the same full relations, so the BDD operation cache
returns every sub-join that did not change.  Seeded deltas — the added
tuples of an edit, a demand call's new seeds — run *incrementalized*
(semi-naive) iteration, where each rule has one plan per choice of
"delta atom" and only tuples new since the previous iteration flow
through the rule bodies.  A fresh stratum still growing after
``_NAIVE_ITERATIONS`` naive iterations continues the same way, seeded
with the tuples its last naive iteration added.  A ``seminaive=True``
switch runs fresh strata semi-naively throughout, seeded with the full
relations, for the ablation benchmark and the oracle.

One stratum loop (:meth:`Solver._fixpoint`) serves three entry points.
:meth:`Solver.solve` runs every stratum from its current state;
:meth:`Solver.solve_incremental` skips, continues semi-naively or
recomputes each stratum after an input edit; :meth:`Solver.solve_demand`
adds magic seeds and pushes them the same way, resuming at the first
stratum a previous call left unfinished.  The fault contract follows:
after an exception, ``last_completed_stratum`` names the last stratum
that completed.  The next :meth:`Solver.solve` finishes a grow-only
incremental call (no removals, no negation over a changed relation),
and the next demand call finishes a demand call; an edit with removals
that faults cannot be resumed, so its caller rebuilds the solver.

Since the plan-IR refactor the solver is an *executor*: rules are lowered
to the register op programs of :mod:`repro.datalog.plan`, the optimizer
passes of :mod:`repro.datalog.passes` rewrite them (attribute assignment,
loop-invariant hoisting into stratum preamble slots), and
:meth:`Solver._apply_plan` interprets the result op by op, updating
one :class:`RuleProfile` record per executed plan, which every counter,
``--profile`` and ``--explain-plan`` read.  The plans of a program are
built once per process and shared by all its solvers
(:func:`~repro.datalog.passes.build_plans`); the solver keeps its own
state — records, hoisted-slot values — beside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..bdd import (
    BDDError,
    Domain,
    FALSE,
    TRUE,
    bits_for,
    create_kernel,
    resolve_backend_name,
)
from ..bdd.domain import equality_relation
from ..bdd.ordering import assign_levels
from ..runtime import faults
from ..runtime.budget import ResourceBudget, Watchdog
from ..runtime.errors import IterationLimitExceeded, ReproError
from .ast import DatalogError, NamedConst, NumberConst, ProgramAST, Term
from .compiler import PhysRef
from .passes import PassOptions, build_plans
from .plan import HoistedSlot, Op, RulePlan, format_unit
from .relation import Attribute, Relation, bdd_size
from .stratify import Stratum

__all__ = ["RuleProfile", "Solver", "SolveStats"]

_MAX_ITERATIONS = 100_000

# A fresh stratum runs at most this many naive iterations before the
# semi-naive loop takes over.  Short fixpoints gain from the op cache
# reusing unchanged sub-joins (every stratum of a perfbench compile
# program converges within 8); a long tail adds a few tuples per
# iteration, and re-joining the full relations for them costs more
# kernel work and leaves more dead nodes than joining the deltas (pmd's
# Algorithm 3 runs 80 iterations: +2.3% kernel ops and +36% peak nodes
# when it stays naive throughout).
_NAIVE_ITERATIONS = 8


@dataclass
class RuleProfile:
    """The execution record of one plan, a (rule, variant) pair
    (``--profile``).  ``kernel_ops`` is the kernel ``op_count`` spent in
    the plan's applications, hoisted slots they evaluate included;
    ``counts`` are executions per op.  Under ``trace_ops`` only,
    ``op_seconds`` and ``op_nodes`` hold per-op seconds and peak nodes."""

    rule: str
    variant: str
    plan: RulePlan = field(repr=False, compare=False)
    applications: int = 0
    tuples_produced: int = 0  # number of applications yielding new tuples
    seconds: float = 0.0
    kernel_ops: int = 0
    counts: List[int] = field(default_factory=list)
    op_seconds: Optional[List[float]] = None
    op_nodes: Optional[List[int]] = None


@dataclass
class SolveStats:
    """Counters the benchmark harness reports (Figure 4 columns)."""

    seconds: float = 0.0
    iterations: int = 0
    peak_nodes: int = 0
    cache_clears: int = 0  # how often the op-cache cap cleared the caches
    # The execution records by id of the plan, and how often each slot
    # of ``hoisted`` re-evaluated: the totals below are summed from them.
    records: Dict[int, RuleProfile] = field(default_factory=dict, repr=False)
    slot_runs: Dict[int, int] = field(default_factory=dict, repr=False)
    hoisted: Dict[int, HoistedSlot] = field(default_factory=dict, repr=False)

    @property
    def rule_applications(self) -> int:
        return sum(r.applications for r in self.records.values())

    @property
    def plan_ops(self) -> Dict[str, int]:
        """Executed plan operations by op kind ("replace", "rel_prod",
        ...): the observable the plan optimizer exists to shrink.  Ops
        inside hoisted preamble slots count only when the slot actually
        re-evaluates, so a hoisting win shows up here directly."""
        tallies: Dict[str, int] = {}
        for record in self.records.values():
            for op, count in zip(record.plan.ops, record.counts):
                if count:
                    tallies[op.kind] = tallies.get(op.kind, 0) + count
        for slot_id, runs in self.slot_runs.items():
            for op in self.hoisted[slot_id].ops:
                tallies[op.kind] = tallies.get(op.kind, 0) + runs
        return tallies

    @property
    def peak_bytes(self) -> int:
        """Memory proxy: 16 bytes per BDD node (var + low + high + hash)."""
        return self.peak_nodes * 16


class Solver:
    """Evaluate a parsed Datalog program over BDD relations."""

    def __init__(
        self,
        program: ProgramAST,
        order_spec: Optional[str] = None,
        name_maps: Optional[Dict[str, Sequence[str]]] = None,
        seminaive: bool = False,
        gc_threshold: int = 4_000_000,
        cache_limit: int = 2_000_000,
        budget: Optional[ResourceBudget] = None,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
        disabled_passes: Optional[Sequence[str]] = None,
        trace_ops: bool = False,
    ) -> None:
        self.program = program
        self.seminaive = seminaive
        self.budget = budget
        # Resolve the kernel backend once (explicit argument beats the
        # REPRO_BDD_BACKEND environment variable beats the default) so the
        # choice is recorded even if the environment later changes.
        self.backend = resolve_backend_name(backend)
        self.gc_threshold = gc_threshold
        self.trace_ops = trace_ops
        self.pass_options = PassOptions.resolve(optimize, disabled_passes)
        self.name_maps: Dict[str, List[str]] = {
            k: list(v) for k, v in (name_maps or {}).items()
        }
        self._reverse_maps: Dict[str, Dict[str, int]] = {
            dom: {name: i for i, name in enumerate(names)}
            for dom, names in self.name_maps.items()
        }
        # The optimized plans, the instance pool (how many physical
        # instances each logical domain needs) and the strata, shared by
        # every solver of this program.  Strata and plans refer to the
        # unit's own rule objects, equal to ``program.rules``; every
        # rule-identity index below is built over those.
        self.plan_unit, self._strata = build_plans(program, self.pass_options)
        self._plans = self.plan_unit.plans
        self._instances = self.plan_unit.instances
        rules = self.plan_unit.program.rules
        # Build the physical domain pool under the requested variable order.
        domain_bits: Dict[str, int] = {}
        for logical, count in self._instances.items():
            size = program.domains[logical].size
            for i in range(count):
                domain_bits[f"{logical}{i}"] = bits_for(size)
        self.order_spec = (
            self._expand_order_spec(order_spec)
            if order_spec
            else self.default_order_spec()
        )
        levels = assign_levels(self.order_spec, domain_bits)
        total_bits = sum(domain_bits.values())
        self.manager = create_kernel(
            num_vars=total_bits, cache_limit=cache_limit, backend=self.backend
        )
        self._pool: Dict[PhysRef, Domain] = {}
        for logical, count in self._instances.items():
            size = program.domains[logical].size
            for i in range(count):
                name = f"{logical}{i}"
                self._pool[(logical, i)] = Domain(
                    self.manager, name, size, levels[name]
                )
        # One runtime relation per declaration.
        self.relations: Dict[str, Relation] = {}
        for decl in program.relations.values():
            attrs = []
            for attr, inst in zip(decl.attributes, decl.resolved_instances()):
                attrs.append(
                    Attribute(attr.name, attr.domain, self._pool[(attr.domain, inst)])
                )
            self.relations[decl.name] = Relation(self.manager, decl.name, attrs)
        # Hoisted-slot value cache: slot id -> (relation version, node).
        self._hoist_cache: Dict[int, Tuple[int, int]] = {}
        self.stats = SolveStats(hoisted=self.plan_unit.hoisted)
        self._rule_index = {id(rule): i for i, rule in enumerate(rules)}
        self._watchdog: Optional[Watchdog] = None
        # Nodes held outside the relations that a stratum update must
        # keep alive (and remapped) across garbage collections.
        self._gc_protect: Optional[List[int]] = None
        # Progress: index of the last stratum that reached fixpoint, and
        # the one executing when a fault fired.
        self.last_completed_stratum = -1
        self._current_stratum: Optional[Stratum] = None

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _expand_order_spec(self, spec: str) -> str:
        """Expand logical domain names in an order spec to their physical
        instances: ``"C_V0xV1"`` becomes ``"C0xC1_V0xV1"`` when C has two
        instances.  Physical names pass through unchanged.  Domains the
        spec does not mention are appended at the end (each logical
        domain's instances interleaved), so partial specs stay valid when
        a program grows new domains."""
        groups_out = []
        mentioned = set()
        for group in spec.split("_"):
            members = []
            for member in group.split("x"):
                if member in self.program.domains:
                    count = self._instances.get(member, 0)
                    expanded = [f"{member}{i}" for i in range(count)]
                    members.extend(expanded)
                    mentioned.update(expanded)
                else:
                    members.append(member)
                    mentioned.add(member)
            if members:
                groups_out.append("x".join(members))
        for logical in self.program.domains:
            count = self._instances.get(logical, 0)
            missing = [
                f"{logical}{i}"
                for i in range(count)
                if f"{logical}{i}" not in mentioned
            ]
            if missing:
                groups_out.append("x".join(missing))
        return "_".join(groups_out)

    def default_order_spec(self) -> str:
        """Interleave all instances of each logical domain, groups in
        declaration order — the shape bddbddb's order search converges to
        for these programs (related attributes adjacent)."""
        groups = []
        for logical in self.program.domains:
            count = self._instances.get(logical, 0)
            if count == 0:
                continue
            groups.append("x".join(f"{logical}{i}" for i in range(count)))
        return "_".join(groups)

    def relation(self, name: str) -> Relation:
        rel = self.relations.get(name)
        if rel is None:
            raise DatalogError(f"unknown relation {name}")
        return rel

    def add_tuples(self, name: str, tuples: Iterable[Sequence[int]]) -> None:
        rel = self.relation(name)
        rel.set_node(self.manager.or_(rel.node, rel.tuples_node(tuples)))

    def set_node(self, name: str, node: int) -> None:
        """Install a pre-built BDD (e.g. the IEC relation of Algorithm 4)."""
        self.relation(name).set_node(node)

    def named_tuples(self, name: str):
        """Iterate tuples with ordinals translated through the name maps."""
        rel = self.relation(name)
        maps = [self.name_maps.get(a.logical) for a in rel.attributes]
        for values in rel.tuples():
            yield tuple(
                m[v] if m is not None and v < len(m) else v
                for m, v in zip(maps, values)
            )

    def resolve_const(self, logical: str, term: Term) -> int:
        if isinstance(term, NumberConst):
            value = term.value
        elif isinstance(term, NamedConst):
            table = self._reverse_maps.get(logical)
            if table is None or term.name not in table:
                raise DatalogError(
                    f'named constant "{term.name}" not found in domain {logical}'
                )
            value = table[term.name]
        else:
            raise DatalogError(f"not a constant term: {term}")
        size = self.program.domains[logical].size
        if not 0 <= value < size:
            raise DatalogError(
                f"constant {value} out of range for domain {logical} (size {size})"
            )
        return value

    # ------------------------------------------------------------------
    # Evaluation: one stratum loop, three entry points
    # ------------------------------------------------------------------

    def solve(self, start_stratum: int = 0) -> SolveStats:
        """Run the program to fixpoint; returns evaluation statistics.

        ``start_stratum`` skips strata that are already at fixpoint — used
        when resuming from a checkpoint (the interrupted stratum runs
        again from its checkpointed state, which is sound because
        relations only grow toward the fixpoint).

        When a :class:`ResourceBudget` is attached, budget faults surface
        as :class:`ReproError` subclasses carrying the partial statistics
        and the stratum that was executing.
        """
        return self._fixpoint({}, (), start_stratum)

    def solve_incremental(
        self, added: Dict[str, int], dirty: Iterable[str] = ()
    ) -> SolveStats:
        """Re-solve after an *input edit*, reusing the previous fixpoint.

        Preconditions: every relation currently holds its value at the
        previous fixpoint, except the edited inputs, which already hold
        their **new** values.  ``added[name]`` is the BDD of tuples newly
        added to input ``name``; names in ``dirty`` are inputs that may
        have *lost* tuples.  Each stratum is skipped, continued
        semi-naively or recomputed (see :meth:`_fixpoint`).
        """
        return self._fixpoint(added, dirty, len(self._strata))

    def solve_demand(
        self,
        seeds: Dict[str, Iterable[Sequence[int]]],
        budget: Optional[ResourceBudget] = None,
    ) -> SolveStats:
        """Goal-directed (re-)solve for a magic-rewritten program.

        ``seeds`` maps magic input relations (see
        :mod:`repro.datalog.magic`) to the query-constant tuples that
        should be added to them.  The first call runs a full — but
        goal-restricted — solve; later calls push only the *new* seed
        tuples through the delta rule variants, so previously derived
        sub-relations are reused verbatim: the solver itself is the warm
        cache.

        ``budget`` temporarily overrides the solver budget for this call
        (the per-query :class:`ResourceBudget` of the serve engine).  Any
        exception leaves the solver resumable: relations hold a monotone
        partial state, and the next call pushes its new seeds through the
        strata up to :attr:`last_completed_stratum` and runs every later
        stratum from its current state.
        """
        m = self.manager
        added: Dict[str, int] = {}
        for name, tuples in seeds.items():
            rel = self.relation(name)
            delta = m.diff(rel.tuples_node(tuples), rel.node)
            if delta == FALSE:
                continue
            rel.set_node(m.or_(rel.node, delta))
            added[name] = delta
        previous_budget = self.budget
        if budget is not None:
            self.budget = budget
        try:
            return self._fixpoint(added, (), self.last_completed_stratum + 1)
        finally:
            self.budget = previous_budget

    @property
    def at_fixpoint(self) -> bool:
        """Whether every stratum completed in the last solve call."""
        return self.last_completed_stratum + 1 >= len(self._strata)

    def _fixpoint(
        self, added: Dict[str, int], dirty: Iterable[str], resume: int
    ) -> SolveStats:
        """The stratum loop behind every entry point.

        Strata before ``resume`` hold their fixpoint for the relation
        state before the call, edited inputs aside (``added``: BDDs of
        new tuples; ``dirty``: relations that may have lost tuples).
        Each is

        * skipped when none of its rules reads a changed relation;
        * continued semi-naively from the pending deltas when its changed
          dependencies all grew and are read through positive atoms —
          sound and complete because the old fixpoint is a model of the
          old inputs, so every new derivation involves an added tuple;
        * cleared and recomputed from the settled lower strata when it
          reads a shrunk relation or negates a changed one.

        ``resume`` and every later stratum run from their current state,
        which needs no change tracking: nothing after them reads it.

        ``last_completed_stratum`` advances as strata finish, so after any
        exception it names the last stratum that completed.
        """
        start = time.monotonic()
        pending: Dict[str, int] = {
            name: node for name, node in added.items() if node != FALSE
        }
        shrunk: Set[str] = set(dirty)
        self.last_completed_stratum = -1
        if self.budget is not None:
            self._watchdog = Watchdog(self.budget, self.manager)
            self.manager.set_watchdog(
                self._watchdog.check, stride=self._watchdog.stride
            )
        try:
            for index, stratum in enumerate(self._strata):
                if index >= resume:
                    action: Optional[str] = "run"
                else:
                    action = self._stratum_action(stratum, pending, shrunk)
                if action is not None:
                    self._current_stratum = stratum
                    if faults.armed:
                        faults.fire("solver.stratum")
                    if action == "run":
                        self._run_stratum(stratum)
                    else:
                        self._update_stratum(stratum, action, pending, shrunk)
                self.last_completed_stratum = index
        except ReproError as err:
            if err.stats is None:
                err.stats = self.stats
            if err.completed_strata is None:
                err.completed_strata = self.last_completed_stratum + 1
            if err.stratum is None and self._current_stratum is not None:
                err.stratum = sorted(self._current_stratum.predicates)
            raise
        finally:
            self.manager.clear_watchdog()
            self._watchdog = None
            self._current_stratum = None
            self.stats.seconds += time.monotonic() - start
            self._record_manager_stats()
        return self.stats

    @staticmethod
    def _stratum_action(
        stratum: Stratum, pending: Dict[str, int], shrunk: Set[str]
    ) -> Optional[str]:
        """``None`` (skip), ``"push"`` or ``"recompute"`` for a stratum at
        fixpoint, given the relations that grew and shrank below it.  An
        externally grown stratum predicate (an input with rules — magic
        programs seed their recursive magic relations this way) restarts
        the stratum's own semi-naive loop from that delta."""
        if not stratum.rules:
            return None
        push = any(p in pending for p in stratum.predicates)
        for rule in stratum.rules:
            for atom in rule.positive_atoms:
                if atom.relation in stratum.predicates:
                    continue
                if atom.relation in shrunk:
                    return "recompute"
                push = push or atom.relation in pending
            for atom in rule.negative_atoms:
                if atom.relation in pending or atom.relation in shrunk:
                    return "recompute"
        return "push" if push else None

    def _update_stratum(
        self,
        stratum: Stratum,
        action: str,
        pending: Dict[str, int],
        shrunk: Set[str],
    ) -> None:
        """Push the pending deltas through a stratum at fixpoint, or
        recompute it, then record which of its relations grew (their new
        tuples join ``pending``) and which shrank (into ``shrunk``)."""
        m = self.manager
        preds = list(stratum.predicates)
        names = list(pending)
        # The pending deltas and the old values must stay alive (and be
        # remapped) across any garbage collection the fixpoint runs.
        guard = [pending[n] for n in names]
        guard += [self.relations[p].node for p in preds]
        self._gc_protect = guard
        try:
            if action == "recompute":
                for pred in preds:
                    self.relations[pred].clear()
                self._run_stratum(stratum)
            else:
                self._push_deltas(stratum, pending)
        finally:
            self._gc_protect = None
        pending.update(zip(names, guard))
        before = dict(zip(preds, guard[len(names):]))
        for pred in preds:
            node = self.relations[pred].node
            grown = m.diff(node, before[pred])
            if grown != FALSE:
                pending[pred] = m.or_(pending.get(pred, FALSE), grown)
            if m.diff(before[pred], node) != FALSE:
                shrunk.add(pred)

    def _run_stratum(self, stratum: Stratum) -> None:
        """Evaluate one stratum from its current relation state: naively,
        or under ``seminaive`` with the full relations as first deltas."""
        recursive = set(map(id, stratum.recursive_rules))
        # Rules with no recursive dependency run exactly once.
        for rule in stratum.rules:
            if id(rule) not in recursive:
                plan = self._plans[(self._rule_index[id(rule)], None)]
                self._apply_plan(plan, None)
        if not stratum.recursive_rules:
            return
        if self.seminaive:
            self._solve_stratum_seminaive(
                stratum,
                {p: self.relations[p].node for p in stratum.predicates},
            )
        else:
            self._solve_stratum_naive(stratum)

    def _push_deltas(self, stratum: Stratum, pending: Dict[str, int]) -> None:
        """Seed a stratum's semi-naive loop from external deltas.

        Every rule variant whose delta atom is a changed *non-stratum*
        relation runs once against the pending deltas (other atoms load
        full relations, which already include the new tuples, so mixed
        old x new combinations are covered across variants).  The merged
        contributions become the initial deltas of the ordinary
        semi-naive loop.
        """
        m = self.manager
        init: Dict[str, int] = {p: FALSE for p in stratum.predicates}
        for rule in stratum.rules:
            ridx = self._rule_index[id(rule)]
            for atom_pos, atom in enumerate(rule.positive_atoms):
                name = atom.relation
                if name in stratum.predicates or name not in pending:
                    continue
                plan = self._plans[(ridx, atom_pos)]
                result = self._apply_plan(plan, pending, defer=True)
                head = plan.head_relation
                init[head] = m.or_(init[head], result)
        deltas: Dict[str, int] = {}
        progressed = False
        for pred in stratum.predicates:
            rel = self.relations[pred]
            delta = m.diff(init[pred], rel.node)
            if delta != FALSE:
                rel.set_node(m.or_(rel.node, delta))
                progressed = True
            # Externally added tuples of a stratum-internal predicate
            # (already stored in the relation by the caller) must still
            # seed the loop — diff against the stored value misses them.
            internal = pending.get(pred)
            if internal is not None and internal != FALSE:
                delta = m.or_(delta, internal)
                progressed = True
            deltas[pred] = delta
        if progressed and stratum.recursive_rules:
            self._solve_stratum_seminaive(stratum, deltas)

    def _record_manager_stats(self) -> None:
        m = self.manager
        self.stats.peak_nodes = m.peak_nodes
        m.peak_cache_entries = max(m.peak_cache_entries, m.cache_entries())
        self.stats.cache_clears = m.cache_clears

    def _iteration_limit(self) -> int:
        if self.budget is not None and self.budget.max_iterations is not None:
            return self.budget.max_iterations
        return _MAX_ITERATIONS

    def _iteration_limit_error(self, stratum: Stratum, limit: int) -> IterationLimitExceeded:
        rules = [str(rule) for rule in stratum.recursive_rules]
        return IterationLimitExceeded(
            f"stratum {sorted(stratum.predicates)} did not converge within "
            f"{limit} iterations (rules: {'; '.join(rules)})",
            iterations=limit,
            rules=rules,
            stratum=sorted(stratum.predicates),
        )

    def _solve_stratum_seminaive(
        self, stratum: Stratum, seeds: Dict[str, int], done: int = 0
    ) -> None:
        """Iterate the delta variants from ``seeds``, the tuples of each
        stratum predicate not yet pushed through its rules; ``done``
        iterations of this stratum already count against the limit."""
        m = self.manager
        deltas = {p: seeds.get(p, FALSE) for p in stratum.predicates}
        limit = self._iteration_limit()
        for iteration in range(done, limit):
            self._begin_iteration()
            contributions: Dict[str, int] = {p: FALSE for p in stratum.predicates}
            for rule in stratum.recursive_rules:
                ridx = self._rule_index[id(rule)]
                for atom_pos, atom in enumerate(rule.positive_atoms):
                    if atom.relation not in stratum.predicates:
                        continue
                    if deltas.get(atom.relation, FALSE) == FALSE:
                        continue  # nothing new flows through this variant
                    plan = self._plans[(ridx, atom_pos)]
                    result = self._apply_plan(plan, deltas, defer=True)
                    head = plan.head_relation
                    contributions[head] = m.or_(contributions[head], result)
            progressed = False
            for pred in stratum.predicates:
                rel = self.relations[pred]
                delta = m.diff(contributions[pred], rel.node)
                deltas[pred] = delta
                if delta != FALSE:
                    rel.set_node(m.or_(rel.node, delta))
                    progressed = True
            if not progressed:
                return
            self._end_iteration(deltas)
        raise self._iteration_limit_error(stratum, limit)

    def _solve_stratum_naive(self, stratum: Stratum) -> None:
        """Iterate the whole-rule plans until no rule adds a tuple, for at
        most ``_NAIVE_ITERATIONS``; a stratum still growing then goes on
        semi-naively from the tuples its last iteration added.  Each
        application merges into its head at once, so later rules of the
        same iteration already read the new tuples."""
        m = self.manager
        plans = [
            self._plans[(self._rule_index[id(rule)], None)]
            for rule in stratum.recursive_rules
        ]
        naive = min(self._iteration_limit(), _NAIVE_ITERATIONS)
        before: Dict[str, int] = {}
        for iteration in range(naive):
            if iteration:
                # No node outside the relations is live between iterations.
                self._end_iteration()
            self._begin_iteration()
            before = {p: self.relations[p].node for p in stratum.predicates}
            progressed = False
            for plan in plans:
                if self._apply_plan(plan, None) != FALSE:
                    progressed = True
            if not progressed:
                return
        # Every derivation from the tuples in ``before`` is made, so only
        # the last iteration's additions must still meet every rule.
        seeds = {p: m.diff(self.relations[p].node, node)
                 for p, node in before.items()}
        self._end_iteration(seeds)
        self._solve_stratum_seminaive(stratum, seeds, naive)

    def _begin_iteration(self) -> None:
        """Count one fixpoint iteration and give faults and the watchdog
        their per-iteration chance to fire (both loops)."""
        self.stats.iterations += 1
        if faults.armed:
            faults.fire("solver.stratum")
        if self._watchdog is not None:
            self._watchdog.check()

    def _end_iteration(self, deltas: Optional[Dict[str, int]] = None) -> None:
        """Between iterations, collect at ``gc_threshold`` (keeping and
        remapping ``deltas`` in place), else trim the op caches to their
        cap.  Caches dominate memory on long fixpoints; a trim that clears
        one costs later iterations the memoization they would have
        reused."""
        if self.manager.node_count() < self.gc_threshold:
            self.manager.trim_caches()
        elif deltas:
            roots = list(deltas.values())
            self._maybe_gc(extra_roots=roots)
            deltas.update(zip(list(deltas), roots))
        else:
            self._maybe_gc()

    # ------------------------------------------------------------------
    # Plan execution (the IR interpreter)
    # ------------------------------------------------------------------

    def _eval_op(
        self,
        op: Op,
        regs: List[int],
        deltas: Optional[Dict[str, int]],
    ) -> int:
        """Evaluate one non-terminator op against the register file."""
        m = self.manager
        kind = op.kind
        if kind == "load":
            if op.use_delta:
                if deltas is None:
                    raise DatalogError(
                        f"delta load of {op.relation} executed without deltas"
                    )
                return deltas.get(op.relation, FALSE)
            return self.relations[op.relation].node
        if kind == "load_hoisted":
            return self._hoisted_node(op.slot)
        if kind == "top":
            return TRUE
        if kind == "const":
            value = self.resolve_const(op.phys[0], op.term)
            return self._pool[op.phys].eq_const(value)
        if kind == "equal":
            return equality_relation(self._pool[op.a], self._pool[op.b])
        if kind == "universe":
            return self._pool[op.phys].full_bdd()
        if kind == "and":
            return m.and_(regs[op.lhs], regs[op.rhs])
        if kind == "diff":
            return m.diff(regs[op.lhs], regs[op.rhs])
        if kind == "exist":
            return m.exist(regs[op.src], m.varset(self._levels(op.refs)))
        if kind == "replace":
            return m.replace(regs[op.src], self._rename_id(dict(op.mapping)))
        if kind == "rel_prod":
            return m.rel_prod(
                regs[op.lhs], regs[op.rhs], m.varset(self._levels(op.refs))
            )
        raise DatalogError(f"executor: unknown op kind {kind!r}")

    def _hoisted_node(self, slot_id: int) -> int:
        """Evaluate a stratum-preamble slot, cached on relation version.
        The relation is loop-invariant within its stratum, so the cache
        hits on every iteration after the first."""
        slot = self.plan_unit.hoisted[slot_id]
        rel = self.relations[slot.relation]
        hit = self._hoist_cache.get(slot_id)
        if hit is not None and hit[0] == rel.version:
            return hit[1]
        regs = [FALSE] * len(slot.ops)
        for op in slot.ops:
            regs[op.out] = self._eval_op(op, regs, None)
        runs = self.stats.slot_runs
        runs[slot_id] = runs.get(slot_id, 0) + 1
        node = regs[slot.ops[-1].out]
        self._hoist_cache[slot_id] = (rel.version, node)
        return node

    def _apply_plan(
        self,
        plan: RulePlan,
        deltas: Optional[Dict[str, int]],
        defer: bool = False,
    ) -> int:
        """Execute one compiled rule variant's op program.

        A ``FALSE`` value on the accumulator spine short-circuits the rest
        of the plan (the body cannot produce tuples).  When ``defer`` is
        set, the resulting head tuples are returned without being merged
        into the head relation (the semi-naive loop batches contributions
        per iteration); otherwise the head relation is updated and the
        delta returned.
        """
        if self._watchdog is not None:
            self._watchdog.check()
        record = self.stats.records.get(id(plan))
        if record is None:
            n = len(plan.ops)
            record = self.stats.records[id(plan)] = RuleProfile(
                str(plan.rule), plan.variant, plan, counts=[0] * n
            )
            if self.trace_ops:
                record.op_seconds, record.op_nodes = [0.0] * n, [0] * n
        record.applications += 1
        m = self.manager
        kernel_ops = m.op_count
        apply_start = time.monotonic()
        ops = plan.ops
        regs = [FALSE] * len(ops)
        counts = record.counts
        op_seconds = record.op_seconds
        current = FALSE
        for i, op in enumerate(ops):
            if op.kind == "copy_into":
                current = regs[op.src]
                counts[i] += 1
                break
            if op_seconds is None:
                node = self._eval_op(op, regs, deltas)
            else:
                t0 = time.monotonic()
                node = self._eval_op(op, regs, deltas)
                op_seconds[i] += time.monotonic() - t0
                size = bdd_size(m, node)
                if size > record.op_nodes[i]:
                    record.op_nodes[i] = size
            regs[op.out] = node
            counts[i] += 1
            if op.spine and node == FALSE:
                current = FALSE
                break
        record.seconds += time.monotonic() - apply_start
        record.kernel_ops += m.op_count - kernel_ops
        if defer:
            if current != FALSE:
                record.tuples_produced += 1
            return current
        delta = self.relations[plan.head_relation].union_node(current)
        if delta != FALSE:
            record.tuples_produced += 1
        return delta

    def _levels(self, refs: Iterable[PhysRef]) -> List[int]:
        out: List[int] = []
        for ref in refs:
            out.extend(self._pool[ref].levels)
        return out

    def _rename_id(self, mapping: Dict[PhysRef, PhysRef]) -> int:
        level_map: Dict[int, int] = {}
        for src, dst in mapping.items():
            src_dom, dst_dom = self._pool[src], self._pool[dst]
            if dst_dom.bits < src_dom.bits:
                raise BDDError(
                    f"rename {src} -> {dst} narrows {src_dom.bits} bits to "
                    f"{dst_dom.bits}"
                )
            for i in range(src_dom.bits):
                s = src_dom.levels[src_dom.bits - 1 - i]
                d = dst_dom.levels[dst_dom.bits - 1 - i]
                if s != d:
                    level_map[s] = d
        return self.manager.replace_map(level_map)

    # ------------------------------------------------------------------
    # Introspection (--profile, --explain-plan)
    # ------------------------------------------------------------------

    def rule_profile(self) -> List[RuleProfile]:
        """One record per executed plan, most kernel ops first (ties in
        first-execution order)."""
        return sorted(
            self.stats.records.values(),
            key=lambda r: r.kernel_ops,
            reverse=True,
        )

    def explain_plans(self, executed_only: bool = False) -> str:
        """Render the (optimized) plans for ``repro datalog --explain-plan``;
        ``executed_only`` shows, of each recursive rule, the plans this
        solver ran.  Run :meth:`solve` with ``trace_ops=True`` first to
        get the cost annotations (execution counts, seconds, peak result
        nodes)."""
        traces = {
            plan_id: list(zip(r.counts, r.op_seconds, r.op_nodes))
            for plan_id, r in self.stats.records.items()
            if r.op_seconds is not None
        }
        return format_unit(
            self.plan_unit,
            self._strata,
            executed=set(self.stats.records) if executed_only else None,
            traces=traces,
        )

    def plan_op_counts(self) -> Dict[str, int]:
        """Static per-kind op counts over all compiled plans and slots
        (the compile-time view; ``stats.plan_ops`` is the executed view)."""
        counts: Dict[str, int] = {}
        for plan in self._plans.values():
            for op in plan.ops:
                counts[op.kind] = counts.get(op.kind, 0) + 1
        for slot in self.plan_unit.hoisted.values():
            for op in slot.ops:
                counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _maybe_gc(self, extra_roots: Optional[List[int]] = None) -> None:
        if self.manager.node_count() < self.gc_threshold:
            return
        roots = [rel.node for rel in self.relations.values()]
        cached = list(self._hoist_cache.items())
        roots.extend(node for _, (_, node) in cached)
        if extra_roots:
            roots.extend(extra_roots)
        if self._gc_protect:
            roots.extend(self._gc_protect)
        mapping = self.manager.collect_garbage(roots)
        for rel in self.relations.values():
            rel.remap(mapping)
        self._hoist_cache = {
            key: (version, mapping[node]) for key, (version, node) in cached
        }
        if extra_roots:
            extra_roots[:] = [mapping[n] for n in extra_roots]
        if self._gc_protect:
            self._gc_protect[:] = [mapping[n] for n in self._gc_protect]
