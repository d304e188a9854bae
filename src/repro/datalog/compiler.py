"""Lowering of Datalog rules into relational-algebra op plans.

This is the front half of the bddbddb compiler (Section 2.4.1): each rule
is lowered — once per semi-naive variant — into a straight-line
:class:`~repro.datalog.plan.RulePlan` of typed ops:

* ``Load`` a body atom's BDD (full relation or its delta),
* ``And`` constant filters and repeated-variable equalities onto it,
  ``Exist`` away don't-cares and dead-on-arrival variables,
* ``Replace`` attributes so shared variables meet in the same physical
  domain ("attributes naming": the compiler simulates the binding
  evolution and inserts the cheapest renames),
* ``RelProd`` into the accumulator, projecting join variables that are
  dead afterwards in the same fused operation,
* ``Diff``/``And`` built-in comparisons and negated atoms,
* ``Exist``/``Replace`` into the head schema and ``CopyInto`` the head.

The lowering here is *local and greedy*; the optimizer passes
(:mod:`repro.datalog.passes`) improve on it by re-lowering rules with a
globally-colored variable→physical-domain ``assignment`` (accepted via
the hint parameter of :func:`compile_rule`) and by rewriting the emitted
op list directly.

The compiler works against *physical domain references* ``(logical,
index)`` so plans can be constructed before BDD levels exist; the solver
materializes them against its domain pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from .ast import (
    Atom,
    Comparison,
    DatalogError,
    DontCare,
    NamedConst,
    NumberConst,
    ProgramAST,
    Rule,
    Term,
    Variable,
)
from .plan import (
    And,
    Const,
    CopyInto,
    Diff,
    Equal,
    Exist,
    Load,
    Op,
    PhysRef,
    Replace,
    RelProd,
    RulePlan,
    Top,
    Universe,
    ordered_schema,
)

__all__ = [
    "PhysRef",
    "RulePlan",
    "compile_rule",
    "instance_requirements",
    "lower_program",
]


class _Allocator:
    """Hands out physical-domain instances, avoiding a live set."""

    def __init__(self) -> None:
        self.high_water: Dict[str, int] = {}

    def fresh(self, logical: str, avoid: Set[PhysRef]) -> PhysRef:
        i = 0
        while (logical, i) in avoid:
            i += 1
        self.high_water[logical] = max(self.high_water.get(logical, 0), i + 1)
        return (logical, i)

    def note(self, phys: PhysRef) -> None:
        logical, idx = phys
        self.high_water[logical] = max(self.high_water.get(logical, 0), idx + 1)


def _atom_schema(program: ProgramAST, atom: Atom) -> List[Tuple[Term, str, PhysRef]]:
    """Per-position (term, logical domain, declared physical ref)."""
    decl = program.relations[atom.relation]
    instances = decl.resolved_instances()
    out = []
    for term, attr, inst in zip(atom.terms, decl.attributes, instances):
        out.append((term, attr.domain, (attr.domain, inst)))
    return out


def _order_positive_atoms(
    rule: Rule, delta_index: Optional[int]
) -> List[Tuple[int, Atom]]:
    """Join-order heuristic: start from the delta atom (its tuples are the
    new work), then greedily pick atoms sharing the most variables with the
    already-bound set, breaking ties toward lower arity."""
    atoms = list(enumerate(rule.positive_atoms))
    if not atoms:
        return []
    ordered: List[Tuple[int, Atom]] = []
    remaining = dict(atoms)
    if delta_index is not None:
        ordered.append((delta_index, remaining.pop(delta_index)))
    else:
        first_idx = atoms[0][0]
        ordered.append((first_idx, remaining.pop(first_idx)))
    bound: Set[str] = set(ordered[0][1].variables())
    while remaining:
        best = None
        best_key = None
        for idx, atom in remaining.items():
            shared = len(set(atom.variables()) & bound)
            key = (-shared, len(atom.terms), idx)
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        atom = remaining.pop(best)
        ordered.append((best, atom))
        bound.update(atom.variables())
    return ordered


def _last_use_positions(
    program: ProgramAST,
    rule: Rule,
    ordered_atoms: List[Tuple[int, Atom]],
    tail_items: List[Union[Comparison, Atom]],
) -> Dict[str, int]:
    """Position (in the execution sequence) after which each variable dies.

    Positions: 0..len(ordered_atoms)-1 for positive atoms, then
    len(ordered_atoms)+i for tail items (comparisons, negations).  Head
    variables never die (position = +inf sentinel).
    """
    last: Dict[str, int] = {}
    for pos, (_, atom) in enumerate(ordered_atoms):
        for v in atom.variables():
            last[v] = pos
    base = len(ordered_atoms)
    for i, item in enumerate(tail_items):
        vs = item.variables() if isinstance(item, (Atom, Comparison)) else []
        for v in vs:
            last[v] = base + i
    for v in rule.head.variables():
        last[v] = 1 << 30
    return last


def _choose_targets(
    rule: Rule,
    atom: Atom,
    atom_vars: Dict[str, PhysRef],
    binding: Dict[str, PhysRef],
    in_use: Set[PhysRef],
    allocator: _Allocator,
    atom_physes: Set[PhysRef],
    assignment: Optional[Dict[str, PhysRef]],
) -> Tuple[Dict[PhysRef, PhysRef], Dict[str, PhysRef]]:
    """Pick the rename target for each of the atom's variables.

    Bound variables move onto the current binding's physical domain; new
    variables prefer the optimizer's ``assignment`` hint, then their own
    attribute, then a diverted fresh instance.  If an assignment hint
    produces a rename-target collision with an attribute that stays in
    place, the whole atom falls back to the greedy choice (the optimizer
    then simply gets no improvement here).
    """
    attempts = (assignment, None) if assignment else (None,)
    for pref_map in attempts:
        rename: Dict[PhysRef, PhysRef] = {}
        new_vars: Dict[str, PhysRef] = {}
        targets_taken: Set[PhysRef] = set(in_use)
        for var, phys in atom_vars.items():
            if var in binding:
                target = binding[var]
            else:
                logical = phys[0]
                pref = pref_map.get(var) if pref_map else None
                if (
                    pref is not None
                    and pref[0] == logical
                    and pref not in targets_taken
                ):
                    target = pref
                    allocator.note(pref)
                elif phys not in targets_taken:
                    target = phys
                else:
                    # Divert to a fresh instance; it must not collide with
                    # the current relation, other targets, or any attribute
                    # of this atom that stays in place.
                    target = allocator.fresh(logical, targets_taken | atom_physes)
                new_vars[var] = target
            if target != phys:
                rename[phys] = target
            targets_taken.add(target)
        # A rename target must never collide with an attribute of the atom
        # that stays in place (collisions inside the simultaneous rename
        # itself are fine because replace applies the whole map at once).
        stay = {p for v, p in atom_vars.items() if p not in rename}
        collision = next((d for d in rename.values() if d in stay), None)
        if collision is None:
            return rename, new_vars
    raise DatalogError(
        f"rule {rule}: rename collision on {collision} in atom "
        f"{atom.relation} — add explicit physical instances"
    )


def compile_rule(
    program: ProgramAST,
    rule: Rule,
    delta_index: Optional[int],
    allocator: Optional[_Allocator] = None,
    assignment: Optional[Dict[str, PhysRef]] = None,
) -> RulePlan:
    """Lower one rule variant into a :class:`RulePlan` op program.

    ``delta_index`` selects which positive atom is read from the delta
    relation (semi-naive evaluation); ``None`` reads all atoms in full.
    ``assignment`` optionally maps variable names to preferred physical
    domains (the optimizer's conflict-graph coloring); the lowering uses
    a hint only where it is collision-free, so any assignment yields a
    correct plan.
    """
    allocator = allocator or _Allocator()
    plan = RulePlan(
        rule=rule, head_relation=rule.head.relation, delta_index=delta_index
    )
    ops = plan.ops

    def emit(cls, schema, *args, spine=False, origin=None) -> Op:
        op = cls(len(ops), ordered_schema(schema), *args)
        op.spine = spine
        op.origin = origin
        ops.append(op)
        return op

    ordered = _order_positive_atoms(rule, delta_index)
    # Tail: comparisons first (cheap filters), then negations.
    tail: List[Union[Comparison, Atom]] = list(rule.comparisons) + list(
        rule.negative_atoms
    )
    last_use = _last_use_positions(program, rule, ordered, tail)

    binding: Dict[str, PhysRef] = {}
    in_use: Set[PhysRef] = set()

    def release(var: str) -> None:
        phys = binding.pop(var)
        in_use.discard(phys)

    acc: Optional[Op] = None
    acc_schema: Set[PhysRef] = set()

    def prep_chain(
        atom: Atom,
        const_filters,
        dup_eqs,
        project,
        rename,
        use_delta: bool,
        origin,
    ) -> Tuple[Op, Set[PhysRef]]:
        """Emit the load/filter/project/rename chain for one body atom."""
        cur: Set[PhysRef] = {p for _, _, p in _atom_schema(program, atom)}
        node = emit(Load, cur, atom.relation, use_delta, origin=origin)
        for phys, term in const_filters:
            probe = emit(Const, (phys,), phys, term, origin=origin)
            node = emit(And, cur, node.out, probe.out, False, origin=origin)
        for keep, dup in dup_eqs:
            probe = emit(Equal, (keep, dup), keep, dup, origin=origin)
            node = emit(And, cur, node.out, probe.out, False, origin=origin)
        if project:
            cur -= set(project)
            node = emit(
                Exist, cur, node.out, tuple(sorted(project)), origin=origin
            )
        if rename:
            cur = {rename.get(p, p) for p in cur}
            node = emit(
                Replace,
                cur,
                node.out,
                tuple(sorted(rename.items())),
                origin=origin,
            )
        return node, cur

    # ------------------------------------------------------------------
    # Positive atoms
    # ------------------------------------------------------------------
    for pos, (atom_idx, atom) in enumerate(ordered):
        schema = _atom_schema(program, atom)
        for _, _, phys_ref in schema:
            allocator.note(phys_ref)
        use_delta = delta_index is not None and atom_idx == delta_index
        origin = (atom.relation, use_delta, pos)
        # Pass 1: constants, don't-cares, duplicates.
        const_filters: List[Tuple[PhysRef, Term]] = []
        dup_eqs: List[Tuple[PhysRef, PhysRef]] = []
        project: List[PhysRef] = []
        atom_vars: Dict[str, PhysRef] = {}
        for term, logical, phys in schema:
            if isinstance(term, (NumberConst, NamedConst)):
                const_filters.append((phys, term))
                project.append(phys)
            elif isinstance(term, DontCare):
                project.append(phys)
            elif isinstance(term, Variable):
                if term.name in atom_vars:
                    dup_eqs.append((atom_vars[term.name], phys))
                    project.append(phys)
                else:
                    atom_vars[term.name] = phys
        # Dead-on-arrival: variables that appear only inside this atom.
        for var in list(atom_vars):
            if last_use[var] <= pos and var not in binding:
                project.append(atom_vars.pop(var))
        # Pass 2: renames.
        atom_physes = {p for _, _, p in schema}
        rename, new_vars = _choose_targets(
            rule, atom, atom_vars, binding, in_use, allocator, atom_physes,
            assignment,
        )
        node, cur = prep_chain(
            atom, const_filters, dup_eqs, project, rename, use_delta, origin
        )
        # Join, projecting variables that die at this step.
        join_project: List[PhysRef] = []
        for var in list(binding):
            if last_use[var] <= pos:
                join_project.append(binding[var])
                release(var)
        for var, target in new_vars.items():
            binding[var] = target
            in_use.add(target)
            plan.var_targets[var] = target
        if acc is None:
            node.spine = True
            acc, acc_schema = node, cur
        else:
            acc_schema = (acc_schema | cur) - set(join_project)
            acc = emit(
                RelProd,
                acc_schema,
                acc.out,
                node.out,
                tuple(sorted(join_project)),
                spine=True,
            )

    # ------------------------------------------------------------------
    # Unsafe variables: bind to the domain universe before tail items.
    # ------------------------------------------------------------------
    var_domains = program.variable_domains(rule)
    needed: List[str] = []
    for item in tail:
        needed.extend(item.variables())
    needed.extend(rule.head.variables())
    for var in needed:
        if var not in binding:
            logical = var_domains.get(var)
            if logical is None:
                raise DatalogError(f"rule {rule}: cannot infer domain of {var}")
            phys: Optional[PhysRef] = None
            if assignment:
                pref = assignment.get(var)
                if pref is not None and pref[0] == logical and pref not in in_use:
                    phys = pref
                    allocator.note(pref)
            if phys is None:
                phys = allocator.fresh(logical, in_use)
            binding[var] = phys
            in_use.add(phys)
            plan.var_targets[var] = phys
            universe = emit(Universe, (phys,), phys)
            if acc is None:
                universe.spine = True
                acc, acc_schema = universe, {phys}
            else:
                acc_schema = acc_schema | {phys}
                acc = emit(
                    And, acc_schema, acc.out, universe.out, True, spine=True
                )

    # ------------------------------------------------------------------
    # Comparisons, then negated atoms.
    # ------------------------------------------------------------------
    base = len(ordered)
    for i, item in enumerate(tail):
        item_pos = base + i
        if isinstance(item, Comparison):
            left, right = item.left, item.right
            if not isinstance(left, Variable):
                left, right = right, left
                # op is symmetric for = and !=
            if not isinstance(left, Variable):
                raise DatalogError(f"rule {rule}: comparison between two constants")
            left_phys = binding[left.name]
            if isinstance(right, Variable):
                right_phys = binding[right.name]
                probe = emit(
                    Equal, (left_phys, right_phys), left_phys, right_phys
                )
            else:
                probe = emit(Const, (left_phys,), left_phys, right)
            if item.op == "=":
                acc = emit(
                    And,
                    acc_schema | set(probe.schema),
                    acc.out,
                    probe.out,
                    False,
                    spine=True,
                )
            else:
                acc = emit(Diff, acc_schema, acc.out, probe.out, spine=True)
        else:  # negated atom
            schema = _atom_schema(program, item)
            for _, _, phys_ref in schema:
                allocator.note(phys_ref)
            origin = (item.relation, False, item_pos)
            const_filters = []
            dup_eqs = []
            project = []
            atom_vars = {}
            for term, logical, phys in schema:
                if isinstance(term, (NumberConst, NamedConst)):
                    const_filters.append((phys, term))
                    project.append(phys)
                elif isinstance(term, DontCare):
                    project.append(phys)
                else:
                    if term.name in atom_vars:
                        dup_eqs.append((atom_vars[term.name], phys))
                        project.append(phys)
                    else:
                        atom_vars[term.name] = phys
            rename = {}
            for var, phys in atom_vars.items():
                if var not in binding:
                    raise DatalogError(
                        f"rule {rule}: negated variable {var} is unbound"
                    )
                if binding[var] != phys:
                    rename[phys] = binding[var]
            node, _cur = prep_chain(
                item, const_filters, dup_eqs, project, rename, False, origin
            )
            acc = emit(Diff, acc_schema, acc.out, node.out, spine=True)
        # Project variables that die at this tail item.
        project_after: List[PhysRef] = []
        for var in item.variables():
            if last_use[var] <= item_pos and var in binding:
                project_after.append(binding[var])
                release(var)
        if project_after:
            acc_schema -= set(project_after)
            acc = emit(
                Exist,
                acc_schema,
                acc.out,
                tuple(sorted(project_after)),
                spine=True,
            )

    # ------------------------------------------------------------------
    # Final projection and rename into the head schema.
    # ------------------------------------------------------------------
    head_schema = _atom_schema(program, rule.head)
    head_consts: List[Tuple[PhysRef, Term]] = []
    head_equalities: List[Tuple[PhysRef, PhysRef]] = []
    head_vars_first: Dict[str, PhysRef] = {}
    for term, logical, phys in head_schema:
        allocator.note(phys)
        if isinstance(term, (NumberConst, NamedConst)):
            head_consts.append((phys, term))
        elif isinstance(term, Variable):
            if term.name in head_vars_first:
                head_equalities.append((head_vars_first[term.name], phys))
            else:
                head_vars_first[term.name] = phys
    if acc is None:  # body-less rule (facts in rule form)
        acc = emit(Top, (), spine=True)
        acc_schema = set()
    final_project: List[PhysRef] = []
    for var in list(binding):
        if var not in head_vars_first:
            final_project.append(binding[var])
            release(var)
    if final_project:
        acc_schema -= set(final_project)
        acc = emit(
            Exist,
            acc_schema,
            acc.out,
            tuple(sorted(final_project)),
            spine=True,
        )
    final_rename: Dict[PhysRef, PhysRef] = {}
    for var, target in head_vars_first.items():
        src = binding[var]
        if src != target:
            final_rename[src] = target
    if final_rename:
        acc_schema = {final_rename.get(p, p) for p in acc_schema}
        acc = emit(
            Replace,
            acc_schema,
            acc.out,
            tuple(sorted(final_rename.items())),
            spine=True,
        )
    for phys, term in head_consts:
        probe = emit(Const, (phys,), phys, term)
        acc_schema = acc_schema | {phys}
        acc = emit(And, acc_schema, acc.out, probe.out, True, spine=True)
    for keep, dup in head_equalities:
        probe = emit(Equal, (keep, dup), keep, dup)
        acc_schema = acc_schema | {dup}
        acc = emit(And, acc_schema, acc.out, probe.out, True, spine=True)
    emit(CopyInto, acc_schema, acc.out, rule.head.relation)
    return plan


def lower_program(
    program: ProgramAST,
) -> Tuple[Dict[Tuple[int, Optional[int]], RulePlan], Dict[str, int]]:
    """Greedily lower every rule variant against one shared allocator.

    Returns the plans keyed by ``(rule position, delta variant)`` —
    ``None`` for the all-full variant, else the positive-atom index read
    as delta — and the allocator's high-water marks: the number of
    physical instances each logical domain needs, declared relation
    schemas included.  The solver sizes its domain pool from these marks
    — always from the *greedy* lowering, so the optimizer can never
    change the pool (and therefore never the BDD variable order or any
    serialized fingerprint).
    """
    allocator = _Allocator()
    for decl in program.relations.values():
        for attr, inst in zip(decl.attributes, decl.resolved_instances()):
            allocator.note((attr.domain, inst))
    plans: Dict[Tuple[int, Optional[int]], RulePlan] = {}
    for rule_idx, rule in enumerate(program.rules):
        variants: List[Optional[int]] = [None]
        variants.extend(range(len(rule.positive_atoms)))
        for variant in variants:
            plans[(rule_idx, variant)] = compile_rule(
                program, rule, variant, allocator
            )
    return plans, dict(allocator.high_water)


def instance_requirements(program: ProgramAST) -> Dict[str, int]:
    """Number of physical instances needed per logical domain (the pool
    sizing half of :func:`lower_program`)."""
    return lower_program(program)[1]
