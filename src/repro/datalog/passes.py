"""The plan optimizer: bddbddb's query optimizations as IR passes.

The greedy lowering in :mod:`repro.datalog.compiler` is locally sensible
but globally naive: it places each variable on the first collision-free
physical domain it sees, so a recursive rule routinely pays two or three
BDD ``replace`` operations *per fixpoint iteration* that a better global
placement avoids entirely (the paper's §4 "attribute assignment").  This
module rewrites the lowered :class:`~repro.datalog.plan.RulePlan` ops:

``assign-domains``
    Conflict-graph coloring of each rule variant's variables onto the
    existing physical-domain pool, weighted by how often each atom's
    preparation actually executes (delta and stratum-recursive atoms run
    every iteration; loop-invariant atoms are cached).  The rule is
    re-lowered with the coloring as assignment hints and the candidate
    plan replaces the greedy one only if it executes strictly fewer
    weighted ``Replace`` ops — and only if it stays inside the pool the
    greedy compilation sized (the optimizer must never change the BDD
    variable order, so solved relations stay bit-identical).

``hoist``
    Move loop-invariant atom-preparation chains into stratum preamble
    slots evaluated at most once per relation version, sharing
    structurally identical slots across plans (the delta variants of a
    rule usually prepare the same invariant atoms).

``fuse``
    Merge adjacent op pairs into fused superops (``Replace`` consuming a
    single-use ``RelProd`` becomes :class:`RelProdReplace`; ``Exist``
    consuming a single-use ``And`` becomes :class:`AndExist`) so one
    kernel call does what two did, and group the operand loads the
    independent recursive plans of a stratum re-issue every fixpoint
    iteration into shared per-stratum slots (:class:`SharedLoad`).

Pass selection: ``PassOptions.resolve`` honours the ``REPRO_PLAN_OPT``
environment variable (off/0/false disables the whole pipeline),
overridden by the explicit ``optimize=`` solver argument.  The solver's
``disabled_passes=`` argument switches single passes off for ablations.

Plans are built once per program per process, as bddbddb translates a
program once.  :func:`build_plans` lowers, stratifies and optimizes a
program and memoizes the :class:`~repro.datalog.plan.PlanUnit` (plans,
instance pool, hoisted and shared slots) with the strata, so every
solver of one program — each compile phase, each edit, each demand
epoch — shares them.  The key is the domain names in declaration order,
the relation declarations, the rules in order (the AST dataclasses are
frozen and hash structurally) and the resolved :class:`PassOptions`, so
a change of ``optimize``/``disabled_passes`` or of ``REPRO_PLAN_OPT``
builds anew.  Domain sizes are not in the key: lowering, the passes,
validation and stratification never read a size (constants are
resolved against the solver's pool when a plan executes), so one
program sized for different fact sets has one set of plans.  The memo
builds each unit from its key alone, with no domain declarations, so a
pass that did read a domain would fail instead of sharing one solver's
sizes with another.  Shared plans are read-only: per-solver state —
execution traces and hoisted-slot values — lives on the solver.  The
memo keeps the :data:`PLAN_MEMO_SIZE` most recently used programs.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .ast import Atom, DatalogError, ProgramAST, RelationDecl, Rule, Variable
from .compiler import (
    _Allocator,
    _atom_schema,
    _last_use_positions,
    _order_positive_atoms,
    compile_rule,
    lower_program,
)
from .plan import (
    And,
    AndExist,
    CopyInto,
    Diff,
    Exist,
    HoistedSlot,
    Load,
    LoadHoisted,
    Op,
    PhysRef,
    PlanUnit,
    Replace,
    RelProd,
    RelProdReplace,
    RulePlan,
    SharedLoad,
    SharedSlot,
    validate_plan,
)
from .stratify import Stratum, stratify

__all__ = [
    "PASS_NAMES",
    "PLAN_MEMO_SIZE",
    "PassOptions",
    "build_plans",
    "run_pipeline",
    "replace_cost",
]

PASS_NAMES: Tuple[str, ...] = ("assign-domains", "hoist", "fuse")

#: Environment switch (exported by the CLI so supervised workers and
#: subprocesses inherit the choice).
OPT_ENV_VAR = "REPRO_PLAN_OPT"

#: Relative execution frequency of a loop-invariant (hoistable) atom
#: preparation versus one that runs every fixpoint iteration.
_INVARIANT_WEIGHT = 0.05


@dataclass(frozen=True)
class PassOptions:
    """Which passes run.  Immutable; build via :meth:`resolve`."""

    enabled: bool = True
    disabled: FrozenSet[str] = frozenset()

    @staticmethod
    def resolve(
        optimize: Optional[bool] = None,
        disabled_passes: Optional[Sequence[str]] = None,
    ) -> "PassOptions":
        if optimize is None:
            raw = os.environ.get(OPT_ENV_VAR, "on").strip().lower()
            optimize = raw not in ("off", "0", "false", "no", "none")
        disabled_passes = disabled_passes or ()
        unknown = set(disabled_passes) - set(PASS_NAMES)
        if unknown:
            raise DatalogError(
                f"unknown optimizer pass(es) {sorted(unknown)}; "
                f"known passes: {', '.join(PASS_NAMES)}"
            )
        return PassOptions(bool(optimize), frozenset(disabled_passes))

    def runs(self, name: str) -> bool:
        return self.enabled and name not in self.disabled


# ----------------------------------------------------------------------
# Shared rewriting machinery
# ----------------------------------------------------------------------


def _remap_inputs(op: Op, f) -> None:
    if isinstance(op, (And, Diff, RelProd, RelProdReplace, AndExist)):
        op.lhs = f(op.lhs)
        op.rhs = f(op.rhs)
    elif isinstance(op, (Exist, Replace, CopyInto)):
        op.src = f(op.src)


def _renumber_ops(ops: List[Op]) -> None:
    """Renumber so ``op.out == index`` again (the executor invariant)."""
    reg_map: Dict[int, int] = {}
    for idx, op in enumerate(ops):
        _remap_inputs(op, lambda r: reg_map[r])
        reg_map[op.out] = idx
        op.out = idx


# ----------------------------------------------------------------------
# assign-domains: conflict-graph coloring of variables onto the pool
# ----------------------------------------------------------------------


def replace_cost(plan: RulePlan, stratum_preds: Set[str]) -> float:
    """Weighted count of the plan's ``Replace`` ops: renames in
    loop-invariant preparation chains are nearly free (cached after the
    hoist pass), everything else runs every iteration."""
    cost = 0.0
    for op in plan.ops:
        if isinstance(op, Replace):
            weight = 1.0
            if op.origin is not None:
                relation, use_delta, _pos = op.origin
                if not use_delta and relation not in stratum_preds:
                    weight = _INVARIANT_WEIGHT
            cost += weight
    return cost


def _color_rule(
    program: ProgramAST,
    rule: Rule,
    delta_index: Optional[int],
    stratum_preds: Set[str],
    instances: Dict[str, int],
) -> Dict[str, PhysRef]:
    """Color the rule variant's variables onto physical domains.

    Two variables of the same logical domain *conflict* when their live
    ranges overlap (closed intervals over the execution sequence — a
    variable introduced exactly where another dies still conflicts,
    because the join sees both).  Each variable's candidate colors are
    the physical attributes it occurs at (body atoms and head), weighted
    by the execution frequency of the occurrence's atom; a satisfied
    candidate means that occurrence needs no rename.  Greedy assignment
    in descending weight order; infeasible variables are left uncolored
    (the lowering's greedy fallback handles them).
    """
    ordered = _order_positive_atoms(rule, delta_index)
    tail = list(rule.comparisons) + list(rule.negative_atoms)
    last_use = _last_use_positions(program, rule, ordered, tail)
    base = len(ordered)

    occ: Dict[str, Dict[PhysRef, float]] = {}
    first: Dict[str, int] = {}

    def note(var: str, phys: PhysRef, weight: float, pos: int) -> None:
        weights = occ.setdefault(var, {})
        weights[phys] = weights.get(phys, 0.0) + weight
        if var not in first or pos < first[var]:
            first[var] = pos

    for pos, (atom_idx, atom) in enumerate(ordered):
        use_delta = delta_index is not None and atom_idx == delta_index
        invariant = (not use_delta) and atom.relation not in stratum_preds
        weight = _INVARIANT_WEIGHT if invariant else 1.0
        seen: Set[str] = set()
        for term, _logical, phys in _atom_schema(program, atom):
            if isinstance(term, Variable) and term.name not in seen:
                seen.add(term.name)
                note(term.name, phys, weight, pos)
    for i, item in enumerate(tail):
        pos = base + i
        if isinstance(item, Atom):
            invariant = item.relation not in stratum_preds
            weight = _INVARIANT_WEIGHT if invariant else 1.0
            seen = set()
            for term, _logical, phys in _atom_schema(program, item):
                if isinstance(term, Variable) and term.name not in seen:
                    seen.add(term.name)
                    note(term.name, phys, weight, pos)
        else:
            for var in item.variables():
                occ.setdefault(var, {})
                first.setdefault(var, pos)
    # Head occurrences: a variable already sitting on its head attribute
    # needs no final rename.  Unsafe (universe-bound) variables become
    # live where the universe binding happens.
    seen = set()
    for term, _logical, phys in _atom_schema(program, rule.head):
        if isinstance(term, Variable) and term.name not in seen:
            seen.add(term.name)
            note(term.name, phys, 1.0, first.get(term.name, base))

    interval = {
        var: (first.get(var, base), last_use.get(var, base))
        for var in occ
    }

    def conflicts(a: str, b: str) -> bool:
        lo_a, hi_a = interval[a]
        lo_b, hi_b = interval[b]
        return not (hi_a < lo_b or hi_b < lo_a)

    order = sorted(
        occ, key=lambda v: (-sum(occ[v].values()), v)
    )
    assigned: Dict[str, PhysRef] = {}
    for var in order:
        candidates = sorted(
            occ[var].items(), key=lambda kv: (-kv[1], kv[0])
        )
        for phys, _weight in candidates:
            logical, idx = phys
            if idx >= instances.get(logical, 0):
                continue  # outside the pool the greedy compilation sized
            taken = any(
                assigned.get(other) == phys and conflicts(var, other)
                for other in assigned
            )
            if not taken:
                assigned[var] = phys
                break
    return assigned


def _pass_assign_domains(
    unit: PlanUnit, rule_preds: Dict[int, Set[str]]
) -> int:
    """Re-lower every plan under its coloring; keep strict improvements.

    Returns the number of plans replaced.
    """
    program = unit.program
    improved = 0
    base_water: Dict[str, int] = {}
    for decl in program.relations.values():
        for attr, inst in zip(decl.attributes, decl.resolved_instances()):
            if inst + 1 > base_water.get(attr.domain, 0):
                base_water[attr.domain] = inst + 1
    for key, plan in list(unit.plans.items()):
        rule_idx, variant = key
        rule = program.rules[rule_idx]
        preds = rule_preds.get(id(rule), set())
        if replace_cost(plan, preds) <= 0:
            continue  # already rename-free; no candidate can beat it
        assignment = _color_rule(program, rule, variant, preds, unit.instances)
        if not assignment:
            continue
        # A coloring that agrees with every binding the greedy lowering
        # already chose would re-lower to the identical plan; hints for
        # variables the lowering never bound are never consulted.
        targets = plan.var_targets
        if all(targets.get(v, p) == p for v, p in assignment.items()):
            continue
        local = _Allocator()
        local.high_water = dict(base_water)
        try:
            candidate = compile_rule(program, rule, variant, local, assignment)
        except DatalogError:
            continue
        # The pool is sized from the greedy compilation; a candidate that
        # needs a new instance would change BDD levels — reject it.
        if any(
            idx >= unit.instances.get(logical, 0)
            for logical, idx in candidate.phys_refs()
        ):
            continue
        if replace_cost(candidate, preds) < replace_cost(plan, preds) - 1e-9:
            try:
                validate_plan(program, candidate)
            except DatalogError:
                continue
            candidate.source = "optimized"
            unit.plans[key] = candidate
            improved += 1
    return improved


# ----------------------------------------------------------------------
# hoist: loop-invariant preparation chains -> preamble slots
# ----------------------------------------------------------------------


def _block_key(block: List[Op]) -> Tuple:
    index = {op.out: k for k, op in enumerate(block)}
    return tuple(
        (op.kind, op.schema, op.args_key(), tuple(index[r] for r in op.inputs()))
        for op in block
    )


def _block_closed(block: List[Op]) -> bool:
    outs = {op.out for op in block}
    first = block[0]
    if first.inputs():
        return False
    return all(set(op.inputs()) <= outs for op in block[1:])


def _pass_hoist(
    unit: PlanUnit,
    strata: Sequence[Stratum],
    rule_stratum: Dict[int, int],
) -> None:
    slot_by_key: Dict[Tuple, int] = {}
    stratum_slots: Dict[int, Set[int]] = {}
    for key, plan in unit.plans.items():
        rule_idx, variant = key
        rule = unit.program.rules[rule_idx]
        s_idx = rule_stratum.get(id(rule))
        if s_idx is None:
            continue
        stratum = strata[s_idx]
        if id(rule) not in set(map(id, stratum.recursive_rules)):
            continue  # only loops benefit from hoisting
        new_ops: List[Op] = []
        changed = False
        i = 0
        while i < len(plan.ops):
            op = plan.ops[i]
            origin = op.origin
            hoistable = (
                origin is not None
                and not origin[1]  # not the delta atom
                and origin[0] not in stratum.predicates  # loop-invariant
            )
            if not hoistable:
                new_ops.append(op)
                i += 1
                continue
            j = i
            block: List[Op] = []
            while j < len(plan.ops) and plan.ops[j].origin == origin:
                block.append(plan.ops[j])
                j += 1
            # A bare Load is already just a node read — nothing to hoist.
            if len(block) < 2 or not _block_closed(block):
                new_ops.extend(block)
                i = j
                continue
            slot_key = (origin[0],) + _block_key(block)
            # Capture the plan-level result register/spine before the block
            # ops are renumbered into slot-local registers.
            result_reg = block[-1].out
            result_spine = block[-1].spine
            slot_id = slot_by_key.get(slot_key)
            if slot_id is None:
                slot_id = len(unit.hoisted)
                slot_by_key[slot_key] = slot_id
                local_index = {op_.out: k for k, op_ in enumerate(block)}
                for k, op_ in enumerate(block):
                    _remap_inputs(op_, lambda r: local_index[r])
                    op_.out = k
                    op_.spine = False
                unit.hoisted[slot_id] = HoistedSlot(
                    slot=slot_id,
                    relation=origin[0],
                    ops=block,
                    key=slot_key,
                )
            slot_last = unit.hoisted[slot_id].ops[-1]
            load = LoadHoisted(result_reg, slot_last.schema, slot_id)
            load.spine = result_spine
            load.origin = origin
            unit.hoisted[slot_id].shared_by.append(
                f"{plan.head_relation}#{rule_idx}/{variant}"
            )
            new_ops.append(load)
            stratum_slots.setdefault(s_idx, set()).add(slot_id)
            changed = True
            i = j
        if changed:
            _renumber_ops(new_ops)
            plan.ops = new_ops
    unit.stratum_slots = {
        s_idx: sorted(slots) for s_idx, slots in stratum_slots.items()
    }


# ----------------------------------------------------------------------
# fuse: superop fusion + stratum shared-operand grouping
# ----------------------------------------------------------------------


def _fuse_ops(ops: List[Op]) -> List[Op]:
    """Merge ``Replace(RelProd(...))`` and ``Exist(And(...))`` pairs where
    the rename/projection is the producer's only reader."""
    while True:
        by_out = {op.out: op for op in ops}
        uses: Dict[int, int] = {}
        for op in ops:
            for r in op.inputs():
                uses[r] = uses.get(r, 0) + 1
        merged = False
        for i, op in enumerate(ops):
            fused: Optional[Op] = None
            src: Optional[Op] = None
            if isinstance(op, Replace):
                src = by_out[op.src]
                if isinstance(src, RelProd) and uses.get(src.out, 0) == 1:
                    fused = RelProdReplace(
                        op.out, op.schema, src.lhs, src.rhs, src.refs, op.mapping
                    )
            elif isinstance(op, Exist):
                src = by_out[op.src]
                if isinstance(src, And) and uses.get(src.out, 0) == 1:
                    fused = AndExist(
                        op.out, op.schema, src.lhs, src.rhs, op.refs
                    )
            if fused is not None:
                fused.spine = op.spine or src.spine
                fused.origin = op.origin
                out = [o for o in ops[:i] if o.out != src.out]
                out.append(fused)
                out.extend(ops[i + 1:])
                _renumber_ops(out)
                ops = out
                merged = True
                break
        if not merged:
            return ops


def _pass_fuse(
    unit: PlanUnit,
    strata: Sequence[Stratum],
    rule_stratum: Dict[int, int],
) -> None:
    """Fuse adjacent superop pairs in every plan and hoisted slot, then
    group the loads the independent recursive plans of a stratum re-issue
    every fixpoint iteration into per-stratum shared-operand slots."""
    for plan in unit.plans.values():
        plan.ops = _fuse_ops(plan.ops)
    for slot in unit.hoisted.values():
        slot.ops = _fuse_ops(slot.ops)

    # Group per-iteration operand loads.  Only the delta variants whose
    # delta atom is a stratum predicate run inside the fixpoint loop;
    # other variants keep plain loads (SharedLoad self-evaluates anyway).
    rule_index = {id(rule): i for i, rule in enumerate(unit.program.rules)}
    in_loop: Dict[int, List[Tuple[str, RulePlan]]] = {}
    for key, plan in unit.plans.items():
        rule_idx, variant = key
        if variant is None:
            continue
        rule = unit.program.rules[rule_idx]
        s_idx = rule_stratum.get(id(rule))
        if s_idx is None:
            continue
        stratum = strata[s_idx]
        atom = rule.positive_atoms[variant]
        if atom.relation not in stratum.predicates:
            continue
        label = f"{plan.head_relation}#{rule_index[id(rule)]}/{variant}"
        in_loop.setdefault(s_idx, []).append((label, plan))

    stratum_shared: Dict[int, List[SharedSlot]] = {}
    slot_counter = 0
    for s_idx in sorted(in_loop):
        plans = in_loop[s_idx]
        counts: Dict[Tuple[str, bool], int] = {}
        for _label, plan in plans:
            seen: Set[Tuple[str, bool]] = set()
            for op in plan.ops:
                if isinstance(op, Load):
                    k = (op.relation, op.use_delta)
                    if k not in seen:
                        seen.add(k)
                        counts[k] = counts.get(k, 0) + 1
        slots: Dict[Tuple[str, bool], SharedSlot] = {}
        for label, plan in plans:
            for i, op in enumerate(plan.ops):
                if not isinstance(op, Load):
                    continue
                k = (op.relation, op.use_delta)
                if counts.get(k, 0) < 2:
                    continue
                slot = slots.get(k)
                if slot is None:
                    slot = SharedSlot(
                        slot_counter, op.relation, op.use_delta, op.schema
                    )
                    slot_counter += 1
                    slots[k] = slot
                load = SharedLoad(
                    op.out, op.schema, slot.slot, op.relation, op.use_delta
                )
                load.spine = op.spine
                load.origin = op.origin
                plan.ops[i] = load
                if label not in slot.shared_by:
                    slot.shared_by.append(label)
        if slots:
            stratum_shared[s_idx] = sorted(
                slots.values(), key=lambda s: s.slot
            )
    unit.stratum_shared = stratum_shared


# ----------------------------------------------------------------------
# Pipeline driver
# ----------------------------------------------------------------------


def run_pipeline(
    unit: PlanUnit,
    strata: Sequence[Stratum],
    options: PassOptions,
) -> PlanUnit:
    """Run the enabled passes over ``unit`` in place; returns it.

    Every plan is re-validated afterwards: an optimizer bug must surface
    as a loud :class:`DatalogError` at solver construction, never as a
    silently wrong fixpoint.
    """
    if not options.enabled:
        unit.applied_passes = []
        return unit
    rule_preds: Dict[int, Set[str]] = {}
    rule_stratum: Dict[int, int] = {}
    for s_idx, stratum in enumerate(strata):
        for rule in stratum.rules:
            rule_preds[id(rule)] = stratum.predicates
            rule_stratum[id(rule)] = s_idx
    applied: List[str] = []
    if options.runs("assign-domains"):
        _pass_assign_domains(unit, rule_preds)
        applied.append("assign-domains")
    if options.runs("hoist"):
        _pass_hoist(unit, strata, rule_stratum)
        applied.append("hoist")
    if options.runs("fuse"):
        _pass_fuse(unit, strata, rule_stratum)
        applied.append("fuse")
    all_shared = {
        slot.slot: slot
        for slots in unit.stratum_shared.values()
        for slot in slots
    }
    for plan in unit.plans.values():
        validate_plan(unit.program, plan, unit.hoisted, all_shared)
    unit.applied_passes = applied
    return unit


#: Programs whose plans :func:`build_plans` keeps.  A process builds
#: solvers for a handful of programs (three per compile, the query
#: variants, the demand program), so this holds all of them at once.
PLAN_MEMO_SIZE = 16


def build_plans(
    program: ProgramAST, options: PassOptions
) -> Tuple[PlanUnit, List[Stratum]]:
    """The optimized plan unit and the strata of ``program``, built once
    per process (see the module docstring).  Every caller of one program
    shares the result: it must not be changed.

    ``build_plans.cache_info()`` counts memo hits and misses, and
    ``build_plans.cache_clear()`` empties the memo.
    """
    return _build_plans(
        tuple(program.domains),
        tuple(program.relations.values()),
        tuple(program.rules),
        options,
    )


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _build_plans(
    domain_names: Tuple[str, ...],
    relations: Tuple[RelationDecl, ...],
    rules: Tuple[Rule, ...],
    options: PassOptions,
) -> Tuple[PlanUnit, List[Stratum]]:
    # The domain names are only part of the key: the unit's program
    # declares no domains, since nothing below reads one.
    program = ProgramAST(
        relations={decl.name: decl for decl in relations}, rules=list(rules)
    )
    plans, instances = lower_program(program)
    strata = stratify(program)
    unit = PlanUnit(program=program, plans=plans, instances=instances)
    run_pipeline(unit, strata, options)
    return unit, strata


build_plans.cache_info = _build_plans.cache_info
build_plans.cache_clear = _build_plans.cache_clear
