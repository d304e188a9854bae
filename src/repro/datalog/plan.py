"""The typed relational-algebra plan IR between the compiler and the solver.

bddbddb is a *compiler*: a rule is lowered into a short straight-line
program of BDD relational operations, and the interesting optimizations
(attribute assignment, loop-invariant hoisting) are
rewrites over that program — not heuristics buried inside an interpreter.
This module is the IR those rewrites operate on:

* each :class:`Op` is one relational operation (``Load``, ``And``,
  ``Exist``, ``Replace``, ``RelProd``, ``Diff``, ``CopyInto``, ...) in a
  single-assignment register language — ``op.out`` is the register the
  op defines, and operand fields hold register numbers of earlier ops;
* every op carries its **attribute schema**: the tuple of physical
  domain references ``(logical, instance)`` its value ranges over;
* :class:`RulePlan` is one compiled (rule, variant) pair, the variant
  being the whole rule (``full``) or one semi-naive delta atom;
* :class:`PlanUnit` is a whole program's worth of plans plus the shared
  state the optimizer introduces (hoisted loop-invariant slots, pass
  provenance);
* :func:`validate_plan` checks the structural invariants the executor
  relies on (registers defined before use, schemas consistent, every
  filter applied to attributes the intermediate actually has);
* :func:`format_plan` renders a plan for ``repro datalog --explain-plan``.

The executor lives in :mod:`repro.datalog.solver`; the passes live in
:mod:`repro.datalog.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .ast import DatalogError, ProgramAST, Rule, Term

__all__ = [
    "PhysRef",
    "Op",
    "Load",
    "LoadHoisted",
    "Top",
    "Const",
    "Equal",
    "Universe",
    "And",
    "Diff",
    "Exist",
    "Replace",
    "RelProd",
    "CopyInto",
    "RulePlan",
    "HoistedSlot",
    "PlanUnit",
    "ordered_schema",
    "phys_str",
    "validate_plan",
    "format_plan",
    "format_unit",
]

# A physical domain reference: (logical domain name, instance index).
PhysRef = Tuple[str, int]


def ordered_schema(refs: Iterable[PhysRef]) -> Tuple[PhysRef, ...]:
    """Canonical (sorted, deduplicated) schema tuple."""
    return tuple(sorted(set(refs)))


def phys_str(ref: PhysRef) -> str:
    return f"{ref[0]}{ref[1]}"


@dataclass
class Op:
    """One relational operation in single-assignment register form.

    ``out`` is the register this op defines; ``schema`` the physical
    attributes of its value.  Two non-field annotations ride along:

    ``spine``
        True for ops on the accumulator spine — the chain whose value is
        the rule's running intermediate.  The executor short-circuits the
        whole plan to ``FALSE`` the moment a spine value is ``FALSE``
        (the IR form of the old interpreter's ``break``).
    ``origin``
        ``(relation, use_delta, position)`` for ops belonging to one body
        atom's preparation chain (load/filter/project/rename), ``None``
        for spine ops.  The hoisting pass uses this to find the
        loop-invariant chains; the assignment pass uses it to weight
        ``Replace`` ops by how often they actually execute.
    """

    out: int
    schema: Tuple[PhysRef, ...]

    kind: ClassVar[str] = "?"

    def __post_init__(self) -> None:
        self.spine: bool = False
        self.origin: Optional[Tuple[str, bool, int]] = None

    def inputs(self) -> Tuple[int, ...]:
        """Registers this op reads."""
        return ()

    def args_key(self) -> Tuple[Any, ...]:
        """Non-register arguments (for structural slot-sharing keys)."""
        return ()


@dataclass
class Load(Op):
    """Load a relation's BDD — the full relation, or its current delta."""

    relation: str
    use_delta: bool

    kind: ClassVar[str] = "load"

    def args_key(self) -> Tuple[Any, ...]:
        return (self.relation, self.use_delta)


@dataclass
class LoadHoisted(Op):
    """Read a stratum-preamble slot (a hoisted loop-invariant chain)."""

    slot: int

    kind: ClassVar[str] = "load_hoisted"

    def args_key(self) -> Tuple[Any, ...]:
        return (self.slot,)


@dataclass
class Top(Op):
    """The TRUE relation over the empty schema (body-less rules)."""

    kind: ClassVar[str] = "top"


@dataclass
class Const(Op):
    """The single-attribute relation ``{ phys = term }``."""

    phys: PhysRef
    term: Term

    kind: ClassVar[str] = "const"

    def args_key(self) -> Tuple[Any, ...]:
        return (self.phys, repr(self.term))


@dataclass
class Equal(Op):
    """The two-attribute identity relation ``{ a = b }``."""

    a: PhysRef
    b: PhysRef

    kind: ClassVar[str] = "equal"

    def args_key(self) -> Tuple[Any, ...]:
        return (self.a, self.b)


@dataclass
class Universe(Op):
    """The full domain of one physical attribute (unsafe variables)."""

    phys: PhysRef

    kind: ClassVar[str] = "universe"

    def args_key(self) -> Tuple[Any, ...]:
        return (self.phys,)


@dataclass
class And(Op):
    """Conjunction.  ``extends=False`` means ``rhs`` only filters
    attributes ``lhs`` already has (constant filters, duplicate-variable
    equalities, comparisons); ``extends=True`` means ``rhs`` introduces
    new attributes (universe bindings, head constants/equalities)."""

    lhs: int
    rhs: int
    extends: bool

    kind: ClassVar[str] = "and"

    def inputs(self) -> Tuple[int, ...]:
        return (self.lhs, self.rhs)

    def args_key(self) -> Tuple[Any, ...]:
        return (self.extends,)


@dataclass
class Diff(Op):
    """Relational difference (negated atoms, ``!=`` comparisons)."""

    lhs: int
    rhs: int

    kind: ClassVar[str] = "diff"

    def inputs(self) -> Tuple[int, ...]:
        return (self.lhs, self.rhs)


@dataclass
class Exist(Op):
    """Existentially project the given attributes away."""

    src: int
    refs: Tuple[PhysRef, ...]

    kind: ClassVar[str] = "exist"

    def inputs(self) -> Tuple[int, ...]:
        return (self.src,)

    def args_key(self) -> Tuple[Any, ...]:
        return (self.refs,)


@dataclass
class Replace(Op):
    """Simultaneous attribute rename ``src phys -> dst phys`` — the BDD
    ``replace`` whose count the optimizer exists to minimize."""

    src: int
    mapping: Tuple[Tuple[PhysRef, PhysRef], ...]

    kind: ClassVar[str] = "replace"

    def inputs(self) -> Tuple[int, ...]:
        return (self.src,)

    def args_key(self) -> Tuple[Any, ...]:
        return (self.mapping,)


@dataclass
class RelProd(Op):
    """Join two intermediates, projecting ``refs`` in the same pass
    (the fused and-exist at the heart of rule application)."""

    lhs: int
    rhs: int
    refs: Tuple[PhysRef, ...]

    kind: ClassVar[str] = "rel_prod"

    def inputs(self) -> Tuple[int, ...]:
        return (self.lhs, self.rhs)

    def args_key(self) -> Tuple[Any, ...]:
        return (self.refs,)


@dataclass
class CopyInto(Op):
    """Terminator: merge the finished head tuples into ``relation``."""

    src: int
    relation: str

    kind: ClassVar[str] = "copy_into"

    def inputs(self) -> Tuple[int, ...]:
        return (self.src,)

    def args_key(self) -> Tuple[Any, ...]:
        return (self.relation,)


@dataclass
class RulePlan:
    """A compiled (rule, variant) pair as a linear op program.

    The last op is always the :class:`CopyInto` terminator.  ``source``
    records provenance: ``"greedy"`` for the compiler's local heuristics,
    ``"optimized"`` once the assignment pass replaced the plan with a
    cheaper re-lowering.
    """

    rule: Rule
    head_relation: str
    delta_index: Optional[int]  # positive-atom index evaluated as delta
    ops: List[Op] = field(default_factory=list)
    source: str = "greedy"

    def __post_init__(self) -> None:
        # Physical domain each variable was bound to during lowering.
        # The assign-domains pass compares its coloring against this to
        # skip re-lowering plans the greedy choice already matches.
        self.var_targets: Dict[str, PhysRef] = {}

    @property
    def variant(self) -> str:
        """``"full"`` for the whole rule, ``"delta=atomN"`` for the
        variant reading positive atom N as a delta."""
        if self.delta_index is None:
            return "full"
        return f"delta=atom{self.delta_index}"

    def phys_refs(self) -> Set[PhysRef]:
        """All physical domains this plan touches (for pool sizing)."""
        refs: Set[PhysRef] = set()
        for op in self.ops:
            refs.update(op.schema)
            if isinstance(op, (Const, Universe)):
                refs.add(op.phys)
            elif isinstance(op, Equal):
                refs.update((op.a, op.b))
            elif isinstance(op, Exist):
                refs.update(op.refs)
            elif isinstance(op, RelProd):
                refs.update(op.refs)
            elif isinstance(op, Replace):
                for s, d in op.mapping:
                    refs.update((s, d))
        return refs


@dataclass
class HoistedSlot:
    """One stratum-preamble slot: a loop-invariant atom-preparation chain
    hoisted out of the fixpoint loop.  ``ops`` are renumbered to local
    registers ``0..len(ops)-1``; the last op's value is the slot value.
    The executor caches it keyed on ``relation``'s version."""

    slot: int
    relation: str
    ops: List[Op]
    key: Tuple[Any, ...] = ()
    #: plan labels sharing this slot (provenance for --explain-plan).
    shared_by: List[str] = field(default_factory=list)


@dataclass
class PlanUnit:
    """Everything the executor needs: plans and hoisted slots.

    One unit serves every solver of its program (see
    :func:`~repro.datalog.passes.build_plans`), so it holds no solver
    state.  ``program`` carries the relations and rules the plans were
    built from and declares no domains: no plan depends on a size.
    """

    program: ProgramAST
    plans: Dict[Tuple[int, Optional[int]], RulePlan]
    instances: Dict[str, int]
    hoisted: Dict[int, HoistedSlot] = field(default_factory=dict)
    #: stratum index -> slot ids its plans reference (preamble listing).
    stratum_slots: Dict[int, List[int]] = field(default_factory=dict)
    applied_passes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _schema_set(op: Op) -> Set[PhysRef]:
    return set(op.schema)


def validate_plan(
    program: ProgramAST,
    plan: RulePlan,
    hoisted: Optional[Dict[int, HoistedSlot]] = None,
) -> None:
    """Check the structural invariants of a lowered (or rewritten) plan.

    Raises :class:`DatalogError` on violation.  Checks, per op kind:

    * every operand register is defined by an earlier op (SSA order);
    * ``And(extends=False)`` only filters attributes the left operand
      already has — i.e. every variable is *bound before use*;
    * ``Exist``/``RelProd`` only project attributes present in their
      inputs; ``Replace`` maps are injective and collision-free;
    * ``Diff`` subtracts a relation whose schema is contained in the
      minuend's (negation/comparison over bound attributes only);
    * the ``CopyInto`` terminator's schema is exactly the head
      relation's declared physical schema.
    """
    defined: Dict[int, Op] = {}
    for op in plan.ops:
        for reg in op.inputs():
            if reg not in defined:
                raise DatalogError(
                    f"plan {plan.rule}: op r{op.out} ({op.kind}) reads "
                    f"undefined register r{reg}"
                )
        if op.out in defined:
            raise DatalogError(
                f"plan {plan.rule}: register r{op.out} defined twice"
            )
        schema = _schema_set(op)
        if isinstance(op, Load):
            decl = program.relations.get(op.relation)
            if decl is None:
                raise DatalogError(f"plan {plan.rule}: unknown relation {op.relation}")
        elif isinstance(op, LoadHoisted):
            if hoisted is None or op.slot not in hoisted:
                raise DatalogError(
                    f"plan {plan.rule}: load of unknown hoisted slot {op.slot}"
                )
            slot_schema = set(hoisted[op.slot].ops[-1].schema)
            if slot_schema != schema:
                raise DatalogError(
                    f"plan {plan.rule}: slot {op.slot} schema {slot_schema} "
                    f"!= op schema {schema}"
                )
        elif isinstance(op, And):
            lhs, rhs = defined[op.lhs], defined[op.rhs]
            union = _schema_set(lhs) | _schema_set(rhs)
            if schema != union:
                raise DatalogError(
                    f"plan {plan.rule}: And r{op.out} schema {schema} != "
                    f"union {union}"
                )
            if not op.extends and not _schema_set(rhs) <= _schema_set(lhs):
                raise DatalogError(
                    f"plan {plan.rule}: filtering And r{op.out} uses unbound "
                    f"attributes {_schema_set(rhs) - _schema_set(lhs)}"
                )
        elif isinstance(op, Diff):
            lhs, rhs = defined[op.lhs], defined[op.rhs]
            if schema != _schema_set(lhs):
                raise DatalogError(
                    f"plan {plan.rule}: Diff r{op.out} schema mismatch"
                )
            if not _schema_set(rhs) <= _schema_set(lhs):
                raise DatalogError(
                    f"plan {plan.rule}: Diff r{op.out} subtrahend uses unbound "
                    f"attributes {_schema_set(rhs) - _schema_set(lhs)}"
                )
        elif isinstance(op, Exist):
            src = _schema_set(defined[op.src])
            refs = set(op.refs)
            if not refs <= src:
                raise DatalogError(
                    f"plan {plan.rule}: Exist r{op.out} projects attributes "
                    f"{refs - src} not in its input"
                )
            if schema != src - refs:
                raise DatalogError(
                    f"plan {plan.rule}: Exist r{op.out} schema mismatch"
                )
        elif isinstance(op, Replace):
            src = _schema_set(defined[op.src])
            sources = [s for s, _ in op.mapping]
            targets = [d for _, d in op.mapping]
            if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
                raise DatalogError(
                    f"plan {plan.rule}: Replace r{op.out} map not injective"
                )
            if not set(sources) <= src:
                raise DatalogError(
                    f"plan {plan.rule}: Replace r{op.out} renames attributes "
                    f"{set(sources) - src} not in its input"
                )
            stay = src - set(sources)
            clash = stay & set(targets)
            if clash:
                raise DatalogError(
                    f"plan {plan.rule}: Replace r{op.out} targets collide "
                    f"with in-place attributes {clash}"
                )
            for s, d in op.mapping:
                if s[0] != d[0]:
                    raise DatalogError(
                        f"plan {plan.rule}: Replace r{op.out} maps across "
                        f"logical domains {s} -> {d}"
                    )
            if schema != stay | set(targets):
                raise DatalogError(
                    f"plan {plan.rule}: Replace r{op.out} schema mismatch"
                )
        elif isinstance(op, RelProd):
            lhs = _schema_set(defined[op.lhs])
            rhs = _schema_set(defined[op.rhs])
            refs = set(op.refs)
            if not refs <= (lhs | rhs):
                raise DatalogError(
                    f"plan {plan.rule}: RelProd r{op.out} projects "
                    f"attributes {refs - (lhs | rhs)} not in its inputs"
                )
            if schema != (lhs | rhs) - refs:
                raise DatalogError(
                    f"plan {plan.rule}: RelProd r{op.out} schema mismatch"
                )
        elif isinstance(op, CopyInto):
            decl = program.relations.get(op.relation)
            if decl is None:
                raise DatalogError(f"plan {plan.rule}: unknown head {op.relation}")
            head_schema = {
                (attr.domain, inst)
                for attr, inst in zip(decl.attributes, decl.resolved_instances())
            }
            if schema != head_schema:
                raise DatalogError(
                    f"plan {plan.rule}: CopyInto schema {schema} != declared "
                    f"head schema {head_schema}"
                )
        defined[op.out] = op
    if not plan.ops or not isinstance(plan.ops[-1], CopyInto):
        raise DatalogError(f"plan {plan.rule}: missing CopyInto terminator")


# ----------------------------------------------------------------------
# Rendering (--explain-plan)
# ----------------------------------------------------------------------


def _refs_str(refs: Iterable[PhysRef]) -> str:
    return ",".join(phys_str(r) for r in sorted(refs))


def format_op(op: Op) -> str:
    if isinstance(op, Load):
        what = f"delta({op.relation})" if op.use_delta else op.relation
        body = f"Load {what}"
    elif isinstance(op, LoadHoisted):
        body = f"LoadHoisted slot#{op.slot}"
    elif isinstance(op, Top):
        body = "Top"
    elif isinstance(op, Const):
        body = f"Const {phys_str(op.phys)}={op.term}"
    elif isinstance(op, Equal):
        body = f"Equal {phys_str(op.a)}={phys_str(op.b)}"
    elif isinstance(op, Universe):
        body = f"Universe {phys_str(op.phys)}"
    elif isinstance(op, And):
        mode = "extend" if op.extends else "filter"
        body = f"And r{op.lhs}, r{op.rhs} ({mode})"
    elif isinstance(op, Diff):
        body = f"Diff r{op.lhs}, r{op.rhs}"
    elif isinstance(op, Exist):
        body = f"Exist r{op.src} drop [{_refs_str(op.refs)}]"
    elif isinstance(op, Replace):
        moves = " ".join(
            f"{phys_str(s)}->{phys_str(d)}" for s, d in op.mapping
        )
        body = f"Replace r{op.src} {{{moves}}}"
    elif isinstance(op, RelProd):
        body = f"RelProd r{op.lhs}, r{op.rhs} over [{_refs_str(op.refs)}]"
    elif isinstance(op, CopyInto):
        body = f"CopyInto {op.relation} <- r{op.src}"
    else:  # pragma: no cover - future op kinds
        body = op.kind
    return f"r{op.out} = {body}"


def _trace_note(trace: Optional[Sequence[float]]) -> str:
    if not trace or not trace[0]:
        return ""
    count, seconds, nodes = trace
    return f"   [x{int(count)}  {seconds:.3f}s  {int(nodes)} nodes]"


def format_plan(
    plan: RulePlan,
    indent: str = "  ",
    traces: Optional[Sequence[Sequence[float]]] = None,
) -> List[str]:
    """Render one plan; ``traces`` are a solver's per-op execution
    traces for it (``(count, seconds, peak result nodes)`` per op)."""
    lines = [f"plan [{plan.variant}, {plan.source}] {plan.rule}"]
    widest = max((len(format_op(op)) for op in plan.ops), default=0)
    for i, op in enumerate(plan.ops):
        text = format_op(op)
        trace = traces[i] if traces else None
        note = _trace_note(trace)
        schema = f"{{{_refs_str(op.schema)}}}"
        lines.append(f"{indent}{text.ljust(widest)}  :: {schema}{note}")
    return lines


def format_unit(
    unit: PlanUnit,
    strata,
    executed: Optional[Set[int]] = None,
    traces: Optional[Dict[int, Sequence[Sequence[float]]]] = None,
) -> str:
    """Render a whole unit: per-stratum preamble slots, then plans.

    ``executed`` (ids of plans a solver ran) limits recursive rules to
    those plans — without it every compiled variant is shown.
    ``traces`` maps ``id(plan)`` to a solver's execution traces for that
    plan.
    """
    traces = traces or {}
    rule_index = {id(rule): i for i, rule in enumerate(unit.program.rules)}
    lines: List[str] = []
    if unit.applied_passes:
        lines.append(f"optimizer passes: {', '.join(unit.applied_passes)}")
    else:
        lines.append("optimizer passes: (none — unoptimized plans)")
    for s_idx, stratum in enumerate(strata):
        if not stratum.rules:
            continue
        preds = ",".join(sorted(stratum.predicates))
        lines.append(f"stratum {s_idx} [{preds}]")
        for slot_id in unit.stratum_slots.get(s_idx, ()):
            slot = unit.hoisted[slot_id]
            lines.append(
                f"  slot#{slot.slot}: loop-invariant {slot.relation} "
                f"(shared by {len(slot.shared_by)} plan(s))"
            )
            for op in slot.ops:
                lines.append(f"    {format_op(op)}")
        recursive = set(map(id, stratum.recursive_rules))
        for rule in stratum.rules:
            ridx = rule_index[id(rule)]
            n_pos = len(rule.positive_atoms)
            if id(rule) not in recursive:
                variants: List[Optional[int]] = [None]
            else:
                variants = [None] + list(range(n_pos))
            for variant in variants:
                plan = unit.plans.get((ridx, variant))
                if plan is None:
                    continue
                if executed is not None and id(rule) in recursive and (
                    id(plan) not in executed
                ):
                    continue
                for line in format_plan(plan, traces=traces.get(id(plan))):
                    lines.append("  " + line)
    return "\n".join(lines)
