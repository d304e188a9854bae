"""Magic-sets rewriting: goal-directed variants of a Datalog program.

Given a query atom with a bound/free *adornment* (``"bf"`` = first
attribute bound to query constants, second free), the classical
magic-sets transformation derives a program whose fixpoint contains
exactly the goal-relevant portion of the original relations:

* for every reachable ``(predicate, adornment)`` pair, an **adorned
  relation** ``pred$bf`` (full arity — the adornment restricts which
  tuples get derived, not the schema), and
* a **magic relation** ``m$pred$bf`` over the bound attributes only,
  holding the set of "asked-about" bindings, seeded from the query
  constants and grown by **magic rules** that propagate bindings
  sideways through rule bodies (textual left-to-right SIP).

Each original rule becomes an adorned variant guarded by the head's
magic relation; each IDB body atom both consumes its adorned version
and contributes a magic rule that seeds it from the atoms to its left.
The rewritten :class:`~repro.datalog.ast.ProgramAST` flows through the
ordinary compile path — plan IR, pass pipeline, ``validate_plan`` — so
domain assignment, hoisting and fusion apply to demand programs unchanged.

Stratified negation is handled soundly by *not* adorning through
negation: a negated IDB atom keeps its original predicate, whose full
(unadorned) rules — and those of its transitive IDB dependencies — are
included verbatim.  Adorned predicates therefore never appear under
negation and the magic program is stratified whenever the source
program is (checked by running :func:`~repro.datalog.stratify.stratify`
on the result).

Adornment explosion is bounded: at most ``max_adornments`` bound
variants per predicate; further requests are *widened* onto an existing
variant whose bound set is a subset of the requested one (sound — the
adorned relation keeps full arity, so a coarser magic set derives a
superset), falling back to the fully-free original when no subset
variant exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .ast import (
    Atom,
    Comparison,
    DatalogError,
    ProgramAST,
    RelationDecl,
    Rule,
    Term,
    Variable,
)
from .stratify import stratify

__all__ = ["GoalInfo", "MagicProgram", "adorned_name", "magic_name", "magic_rewrite"]


def adorned_name(predicate: str, adornment: str) -> str:
    return f"{predicate}${adornment}"


def magic_name(predicate: str, adornment: str) -> str:
    return f"m${predicate}${adornment}"


def _bound_positions(adornment: str) -> Tuple[int, ...]:
    return tuple(i for i, ch in enumerate(adornment) if ch == "b")


@dataclass(frozen=True)
class GoalInfo:
    """How to seed and read one rewritten goal.

    ``answer`` is the relation holding the goal's tuples (full arity).
    ``magic`` is the seedable input relation over ``bound`` attribute
    positions — ``None`` when the goal widened to the fully-free
    original (then the answer is simply computed in full).
    """

    predicate: str
    adornment: str
    answer: str
    magic: Optional[str]
    bound: Tuple[int, ...]


@dataclass
class MagicProgram:
    """Result of :func:`magic_rewrite`."""

    program: ProgramAST
    goals: Dict[Tuple[str, str], GoalInfo] = field(default_factory=dict)

    def goal(self, predicate: str, adornment: str) -> GoalInfo:
        return self.goals[(predicate, adornment)]


class _Rewriter:
    def __init__(self, program: ProgramAST, max_adornments: int) -> None:
        self.src = program
        self.max_adornments = max_adornments
        self.rules_of: Dict[str, List[Rule]] = {}
        for rule in program.rules:
            self.rules_of.setdefault(rule.head.relation, []).append(rule)
        self.idb: Set[str] = set(self.rules_of)
        self.out_rules: List[Rule] = []
        self.out_decls: Dict[str, RelationDecl] = {}
        self.seen_rules: Set[str] = set()
        # predicate -> bound adornments already materialized (not all-free)
        self.adornments: Dict[str, List[str]] = {}
        self.done: Set[Tuple[str, str]] = set()
        self.queue: List[Tuple[str, str]] = []
        # EDB declarations are carried over verbatim.
        for name, decl in program.relations.items():
            if name not in self.idb:
                self.out_decls[name] = decl

    # ---------------------------------------------------------- requests

    def request(self, predicate: str, adornment: str) -> GoalInfo:
        """Ensure a variant of ``predicate`` answering ``adornment``
        exists (enqueueing its rewrite) and describe it."""
        decl = self.src.relations.get(predicate)
        if decl is None:
            raise DatalogError(f"magic rewrite: unknown relation {predicate}")
        if len(adornment) != decl.arity or any(c not in "bf" for c in adornment):
            raise DatalogError(
                f"magic rewrite: bad adornment {adornment!r} for "
                f"{predicate}/{decl.arity}"
            )
        if predicate not in self.idb:
            # EDB relations are already fully available.
            return GoalInfo(predicate, adornment, predicate, None, ())
        all_free = "f" * decl.arity
        if adornment == all_free:
            return self._request_variant(predicate, all_free)
        existing = self.adornments.setdefault(predicate, [])
        if adornment not in existing and len(existing) >= self.max_adornments:
            # Widen onto the largest materialized subset-bound variant.
            want = set(_bound_positions(adornment))
            best: Optional[str] = None
            for cand in existing:
                have = set(_bound_positions(cand))
                if have <= want and (
                    best is None or len(have) > len(_bound_positions(best))
                ):
                    best = cand
            if best is None:
                return self._request_variant(predicate, all_free)
            adornment = best
        return self._request_variant(predicate, adornment)

    def _request_variant(self, predicate: str, adornment: str) -> GoalInfo:
        decl = self.src.relations[predicate]
        all_free = adornment == "f" * decl.arity
        if all_free:
            info = GoalInfo(predicate, adornment, predicate, None, ())
        else:
            existing = self.adornments.setdefault(predicate, [])
            if adornment not in existing:
                existing.append(adornment)
            bound = _bound_positions(adornment)
            info = GoalInfo(
                predicate,
                adornment,
                adorned_name(predicate, adornment),
                magic_name(predicate, adornment),
                bound,
            )
            if info.answer not in self.out_decls:
                self.out_decls[info.answer] = RelationDecl(
                    name=info.answer,
                    attributes=decl.attributes,
                    is_output=True,
                )
                # Magic relations are inputs: the driver seeds them with
                # query constants; magic rules grow them recursively.
                self.out_decls[info.magic] = RelationDecl(
                    name=info.magic,
                    attributes=tuple(decl.attributes[i] for i in bound),
                    is_input=True,
                )
        if (predicate, adornment) not in self.done:
            self.done.add((predicate, adornment))
            self.queue.append((predicate, adornment))
        return info

    # ---------------------------------------------------------- rewrite

    def _emit(self, rule: Rule) -> None:
        key = str(rule)
        if key not in self.seen_rules:
            self.seen_rules.add(key)
            self.out_rules.append(rule)

    def _process_all_free(self, predicate: str) -> None:
        """Include ``predicate``'s original rules verbatim; everything it
        depends on (positively or under negation) is computed in full."""
        self.out_decls.setdefault(predicate, self.src.relations[predicate])
        for rule in self.rules_of.get(predicate, ()):  # inputs may lack rules
            for item in rule.body:
                if isinstance(item, Atom) and item.relation in self.idb:
                    arity = self.src.relations[item.relation].arity
                    self.request(item.relation, "f" * arity)
            self._emit(rule)

    def _process_adorned(self, predicate: str, adornment: str) -> None:
        decl = self.src.relations[predicate]
        bound = _bound_positions(adornment)
        head_name = adorned_name(predicate, adornment)
        m_name = magic_name(predicate, adornment)
        for rule in self.rules_of.get(predicate, ()):
            magic_guard = Atom(
                relation=m_name,
                terms=tuple(rule.head.terms[i] for i in bound),
            )
            bound_vars: Set[str] = {
                t.name
                for i, t in enumerate(rule.head.terms)
                if i in bound and isinstance(t, Variable)
            }
            prefix: List[Union[Atom, Comparison]] = [magic_guard]
            new_body: List[Union[Atom, Comparison]] = [magic_guard]
            for item in rule.body:
                if isinstance(item, Comparison):
                    new_body.append(item)
                    continue
                if item.negated:
                    # Never adorn through negation: the negated predicate
                    # is computed in full, exactly as in the source.
                    if item.relation in self.idb:
                        arity = self.src.relations[item.relation].arity
                        self.request(item.relation, "f" * arity)
                    new_body.append(item)
                    continue
                if item.relation in self.idb:
                    atom_ad = "".join(
                        "b"
                        if not isinstance(t, Variable) or t.name in bound_vars
                        else "f"
                        for t in item.terms
                    )
                    # DontCare terms are free, not bound constants.
                    atom_ad = "".join(
                        "f" if _is_dontcare(t) else ch
                        for t, ch in zip(item.terms, atom_ad)
                    )
                    info = self.request(item.relation, atom_ad)
                    used = Atom(relation=info.answer, terms=item.terms)
                    if info.magic is not None:
                        self._emit(
                            Rule(
                                head=Atom(
                                    relation=info.magic,
                                    terms=tuple(item.terms[i] for i in info.bound),
                                ),
                                body=tuple(prefix),
                                line=rule.line,
                            )
                        )
                else:
                    used = item
                new_body.append(used)
                prefix.append(used)
                bound_vars.update(used.variables())
            self._emit(
                Rule(
                    head=Atom(relation=head_name, terms=rule.head.terms),
                    body=tuple(new_body),
                    line=rule.line,
                )
            )

    def run(self, goals: Sequence[Tuple[str, str]]) -> MagicProgram:
        infos: Dict[Tuple[str, str], GoalInfo] = {}
        for predicate, adornment in goals:
            info = self.request(predicate, adornment)
            if info.predicate not in self.idb:
                raise DatalogError(
                    f"magic rewrite: goal {predicate} is an input relation"
                )
            infos[(predicate, adornment)] = info
        while self.queue:
            predicate, adornment = self.queue.pop()
            if adornment == "f" * self.src.relations[predicate].arity:
                self._process_all_free(predicate)
            else:
                self._process_adorned(predicate, adornment)
        program = ProgramAST(
            domains=dict(self.src.domains),
            relations=self.out_decls,
            rules=self.out_rules,
        )
        program.validate()
        stratify(program)  # raises if the rewrite broke stratification
        return MagicProgram(program=program, goals=infos)


def _is_dontcare(term: Term) -> bool:
    from .ast import DontCare

    return isinstance(term, DontCare)


def magic_rewrite(
    program: ProgramAST,
    goals: Sequence[Tuple[str, str]],
    *,
    max_adornments: int = 4,
) -> MagicProgram:
    """Rewrite ``program`` for the given ``(predicate, adornment)`` goals.

    Returns a :class:`MagicProgram` whose ``program`` computes, for each
    goal, an answer relation restricted to the bindings present in the
    goal's (seedable, input-declared) magic relation.  Soundness and
    completeness w.r.t. the original fixpoint restricted to the asked
    bindings is the classical magic-sets theorem; the differential tests
    in ``tests/datalog/test_magic.py`` enforce it per-query.
    """
    return _Rewriter(program, max_adornments).run(goals)
