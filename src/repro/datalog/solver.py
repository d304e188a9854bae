"""Semi-naive BDD-based Datalog solver (the bddbddb engine, Section 2.4).

The solver owns the BDD manager, the pool of physical finite domains, and
one :class:`~repro.datalog.relation.Relation` per declared predicate.  It
evaluates the program stratum by stratum; within a recursive stratum it
runs *incrementalized* (semi-naive) fixpoint iteration: each rule is
compiled into one plan per choice of "delta atom", and only tuples that are
new since the previous iteration flow through the rule bodies.  Rules whose
body does not mention the stratum's predicates are applied exactly once
("rule application order" optimization).  A ``naive=True`` switch disables
incrementalization for the ablation benchmark.

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
loop-invariant hoisting into stratum preamble slots, superop fusion), and
:meth:`Solver._apply_plan` interprets the result op by op, tallying
executed operations per kind into ``SolveStats.plan_ops`` and — under
``trace_ops=True`` — recording per-op timing and result sizes for
``repro datalog --explain-plan``.  The plans of a program are built once
per process and shared by all its solvers
(:func:`~repro.datalog.passes.build_plans`); the solver keeps its own
state — traces, hoisted-slot values, profiles — beside them.
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
from .plan import Op, RulePlan, format_unit
from .relation import Attribute, Relation, bdd_size
from .stratify import Stratum

__all__ = ["RuleProfile", "Solver", "SolveStats"]

_MAX_ITERATIONS = 100_000


@dataclass
class RuleProfile:
    """Per-rule evaluation profile (``--profile``)."""

    rule: str
    applications: int = 0
    seconds: float = 0.0
    tuples_produced: int = 0  # number of applications yielding new tuples


@dataclass
class SolveStats:
    """Counters the benchmark harness reports (Figure 4 columns)."""

    seconds: float = 0.0
    iterations: int = 0
    rule_applications: int = 0
    peak_nodes: int = 0
    strata: int = 0
    # Operation-cache pressure: the high-water entry count across the
    # manager's caches and how often the cap cleared them.  Cached entries
    # also count toward the node budget (see Watchdog.check).
    peak_cache_entries: int = 0
    cache_clears: int = 0
    # Which BddKernel backend produced these numbers (provenance for the
    # benchmark tables and the differential harness).
    backend: str = ""
    # Executed plan operations by op kind ("replace", "rel_prod", ...):
    # the observable the plan optimizer exists to shrink.  Ops inside
    # hoisted preamble slots count only when the slot actually
    # re-evaluates, so a hoisting win shows up here directly.
    plan_ops: Dict[str, int] = field(default_factory=dict)

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
        naive: bool = False,
        gc_threshold: int = 4_000_000,
        cache_limit: int = 2_000_000,
        budget: Optional[ResourceBudget] = None,
        backend: Optional[str] = None,
        optimize: Optional[bool] = None,
        disabled_passes: Optional[Sequence[str]] = None,
        trace_ops: bool = False,
    ) -> None:
        self.program = program
        self.naive = naive
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
        self._stratum_index = {id(s): i for i, s in enumerate(self._strata)}
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
        # Per-op execution traces under trace_ops, by id of the plan:
        # [count, seconds, peak result nodes] per op.
        self._traces: Dict[int, List[List[float]]] = {}
        self.stats = SolveStats()
        self._profiles: Dict[int, RuleProfile] = {
            i: RuleProfile(rule=str(rule)) for i, rule in enumerate(rules)
        }
        self._rule_index = {id(rule): i for i, rule in enumerate(rules)}
        self._rule_of_plan: Dict[int, int] = {}
        for (rule_idx, _variant), plan in self._plans.items():
            self._rule_of_plan[id(plan)] = rule_idx
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
        when resuming from a checkpoint (semi-naive evaluation restarts
        the interrupted stratum with full deltas, which is sound because
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
        self.stats.strata = len(self._strata)
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
        """Evaluate one stratum from its current relation state."""
        recursive = set(map(id, stratum.recursive_rules))
        # Rules with no recursive dependency run exactly once.
        for rule in stratum.rules:
            if id(rule) not in recursive:
                plan = self._plans[(self._rule_index[id(rule)], None)]
                self._apply_plan(plan, None)
        if stratum.recursive_rules:
            if self.naive:
                self._solve_stratum_naive(stratum)
            else:
                self._solve_stratum_seminaive(stratum)

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
            if self.naive:
                self._solve_stratum_naive(stratum)
            else:
                self._solve_stratum_seminaive(stratum, seed_deltas=deltas)

    def _record_manager_stats(self) -> None:
        m = self.manager
        self.stats.peak_nodes = m.peak_nodes
        entries = m.cache_entries()
        if entries > m.peak_cache_entries:
            m.peak_cache_entries = entries
        self.stats.peak_cache_entries = m.peak_cache_entries
        self.stats.cache_clears = m.cache_clears
        self.stats.backend = m.backend_name

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
        self, stratum: Stratum, seed_deltas: Optional[Dict[str, int]] = None
    ) -> None:
        m = self.manager
        deltas: Dict[str, int] = {}
        for pred in stratum.predicates:
            # A fresh solve starts with full relations as deltas; an
            # incremental continuation (solve_incremental) seeds only the
            # genuinely new tuples.
            if seed_deltas is not None:
                deltas[pred] = seed_deltas.get(pred, FALSE)
            else:
                deltas[pred] = self.relations[pred].node
        limit = self._iteration_limit()
        s_idx = self._stratum_index.get(id(stratum))
        shared_slots = (
            self.plan_unit.stratum_shared.get(s_idx, []) if s_idx is not None else []
        )
        for iteration in range(limit):
            self.stats.iterations += 1
            if faults.armed:
                faults.fire("solver.stratum")
            if self._watchdog is not None:
                self._watchdog.check()
            # One pass over the stratum's shared operands: every plan in
            # this iteration reads these slots instead of re-resolving its
            # delta/recursive-relation loads.
            shared: Optional[Dict[int, int]] = None
            if shared_slots:
                shared = {}
                for slot in shared_slots:
                    if slot.use_delta:
                        shared[slot.slot] = deltas.get(slot.relation, FALSE)
                    else:
                        shared[slot.slot] = self.relations[slot.relation].node
            contributions: Dict[str, int] = {p: FALSE for p in stratum.predicates}
            for rule in stratum.recursive_rules:
                ridx = self._rule_index[id(rule)]
                for atom_pos, atom in enumerate(rule.positive_atoms):
                    if atom.relation not in stratum.predicates:
                        continue
                    if deltas.get(atom.relation, FALSE) == FALSE:
                        continue  # nothing new flows through this variant
                    plan = self._plans[(ridx, atom_pos)]
                    result = self._apply_plan(plan, deltas, defer=True, shared=shared)
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
            if self.manager.node_count() >= self.gc_threshold:
                preds = list(deltas)
                roots = [deltas[p] for p in preds]
                self._maybe_gc(extra_roots=roots)
                deltas = dict(zip(preds, roots))
            else:
                # Operation caches dominate memory on long fixpoints; the
                # lost memoization is recomputed cheaply against the
                # (small) deltas of later iterations.
                self.manager.trim_caches()
        raise self._iteration_limit_error(stratum, limit)

    def _solve_stratum_naive(self, stratum: Stratum) -> None:
        """Reference evaluation without incrementalization (ablation)."""
        limit = self._iteration_limit()
        for iteration in range(limit):
            self.stats.iterations += 1
            if self._watchdog is not None:
                self._watchdog.check()
            progressed = False
            for rule in stratum.recursive_rules:
                plan = self._plans[(self._rule_index[id(rule)], None)]
                delta = self._apply_plan(plan, None)
                if delta != FALSE:
                    progressed = True
            if not progressed:
                return
        raise self._iteration_limit_error(stratum, limit)

    # ------------------------------------------------------------------
    # Plan execution (the IR interpreter)
    # ------------------------------------------------------------------

    def _eval_op(
        self,
        op: Op,
        regs: List[int],
        deltas: Optional[Dict[str, int]],
        shared: Optional[Dict[int, int]] = None,
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
        if kind == "shared_load":
            # Inside the semi-naive loop the stratum operand table holds
            # the slot; on other paths the op self-evaluates.
            if shared is not None:
                node = shared.get(op.slot)
                if node is not None:
                    return node
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
        if kind == "rel_prod_replace":
            return m.rel_prod_replace(
                regs[op.lhs],
                regs[op.rhs],
                m.varset(self._levels(op.refs)),
                self._rename_id(dict(op.mapping)),
            )
        if kind == "and_exist":
            # exist(and(a, b), vs) is exactly rel_prod — one kernel call.
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
        tallies = self.stats.plan_ops
        for op in slot.ops:
            regs[op.out] = self._eval_op(op, regs, None)
            tallies[op.kind] = tallies.get(op.kind, 0) + 1
        node = regs[slot.ops[-1].out]
        self._hoist_cache[slot_id] = (rel.version, node)
        return node

    def _apply_plan(
        self,
        plan: RulePlan,
        deltas: Optional[Dict[str, int]],
        defer: bool = False,
        shared: Optional[Dict[int, int]] = None,
    ) -> int:
        """Execute one compiled rule variant's op program.

        A ``FALSE`` value on the accumulator spine short-circuits the rest
        of the plan (the body cannot produce tuples).  When ``defer`` is
        set, the resulting head tuples are returned without being merged
        into the head relation (the semi-naive loop batches contributions
        per iteration); otherwise the head relation is updated and the
        delta returned.
        """
        self.stats.rule_applications += 1
        if self._watchdog is not None:
            self._watchdog.check()
        profile = self._profiles[self._rule_of_plan[id(plan)]]
        profile.applications += 1
        apply_start = time.monotonic()
        ops = plan.ops
        regs = [FALSE] * len(ops)
        tallies = self.stats.plan_ops
        traces = None
        if self.trace_ops:
            traces = self._traces.get(id(plan))
            if traces is None:
                traces = self._traces[id(plan)] = [[0, 0.0, 0] for _ in ops]
        current = FALSE
        for i, op in enumerate(ops):
            if op.kind == "copy_into":
                current = regs[op.src]
                tallies["copy_into"] = tallies.get("copy_into", 0) + 1
                if traces is not None:
                    traces[i][0] += 1
                break
            t0 = time.monotonic() if traces is not None else 0.0
            node = self._eval_op(op, regs, deltas, shared)
            regs[op.out] = node
            tallies[op.kind] = tallies.get(op.kind, 0) + 1
            if traces is not None:
                tr = traces[i]
                tr[0] += 1
                tr[1] += time.monotonic() - t0
                tr[2] = max(tr[2], bdd_size(self.manager, node))
            if op.spine and node == FALSE:
                current = FALSE
                break
        profile.seconds += time.monotonic() - apply_start
        if defer:
            if current != FALSE:
                profile.tuples_produced += 1
            return current
        delta = self.relations[plan.head_relation].union_node(current)
        if delta != FALSE:
            profile.tuples_produced += 1
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
        """Per-rule evaluation profile, most expensive first."""
        return sorted(
            self._profiles.values(), key=lambda p: p.seconds, reverse=True
        )

    def explain_plans(self, executed_only: bool = False) -> str:
        """Render the (optimized) plans for ``repro datalog --explain-plan``.
        Run :meth:`solve` with ``trace_ops=True`` first to get the
        cost annotations (execution counts, seconds, peak result nodes)."""
        return format_unit(
            self.plan_unit,
            self._strata,
            executed_only=executed_only,
            traces=self._traces,
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
