"""Random-program oracle for every way the solver reaches a fixpoint.

A Hypothesis generator builds small stratified programs — two to four
levels of derived predicates, negation of lower levels only, constants,
don't-cares, ``=`` and ``!=`` comparisons, arity 1–3, mutual recursion
within a level, one or two domains of at most 8 elements — together with
random facts, fact edits and demand goals.  An explicit-set evaluator
computes each program's model, and every driver × backend × optimizer
combination must reproduce it:

* :meth:`Solver.solve` from empty derived relations;
* :meth:`Solver.solve_incremental` after random additions and removals
  (the model of the edited facts is what a fresh solve computes);
* :meth:`Solver.solve_demand` over the magic-rewritten program: every
  answer equals the full model projected onto the goal's bindings;
* fault recovery: an injected ``exception@solver.stratum#k``, a
  :class:`NodeBudgetExceeded` from a small ``node_budget``, or a
  :class:`SolverTimeout` at the k-th watchdog check, in the middle of a
  demand call or of a grow-only incremental call, after which the next
  demand call with the same seeds, or the next :meth:`Solver.solve`,
  reaches the model.  A node budget that small also drops the watchdog
  stride, so the packed backend's compiled recursions are rebuilt
  mid-sequence.  The timeout's clock steps once per reading, so no test
  waits on wall-clock time;
* checkpoint resume: the same faults in the middle of a full solve,
  whose checkpoint a fresh solver under either backend loads and
  resumes with ``solve(start_stratum)``;
* shared plans: the same program text with every domain grown builds
  from the plan memo and still reaches its own, larger model.

Half the cases collect garbage on every iteration, naive or
semi-naive, so every node the drivers hold across a stratum must
survive a collection.  Half cap the operation cache at a few entries,
so the kernel clears it in the middle of operations and the solver
clears it between iterations of either loop.  Fresh strata start naive
unless a driver asks for ``seminaive``; pushed deltas run semi-naive
under both.  Two thirds of the cases end the naive phase after one or
two iterations, so a fresh stratum still growing hands its last naive
iteration's tuples to the semi-naive loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE
from repro.datalog import Solver, parse_program
from repro.datalog.magic import magic_rewrite
from repro.datalog import solver as solver_module
from repro.datalog.passes import build_plans
from repro.runtime import (
    NodeBudgetExceeded,
    ResourceBudget,
    SolverTimeout,
    budget as budget_module,
    faults,
)
from repro.runtime.checkpoint import checkpoint_lines, load_checkpoint_lines

# ----------------------------------------------------------------------
# Programs: generator-side representation, rendered to source text
# ----------------------------------------------------------------------

# A term is ("v", name), ("c", value) or ("_",); variable names start
# with their domain's lower-cased letter.
Term = Tuple
Atom = Tuple[str, Tuple[Term, ...]]


@dataclass
class Rule:
    head: Atom
    positive: List[Atom]
    negative: List[Atom] = field(default_factory=list)
    # (op, lhs, rhs) with op "=" or "!=".
    comparisons: List[Tuple[str, Term, Term]] = field(default_factory=list)


@dataclass
class Program:
    domains: Dict[str, int]
    schema: Dict[str, Tuple[str, ...]]  # relation -> attribute domains
    inputs: List[str]
    levels: List[List[str]]  # derived predicates, lowest level first
    rules: List[Rule]

    def text(self) -> str:
        lines = [".domains"]
        lines += [f"{d} {size}" for d, size in self.domains.items()]
        lines.append(".relations")
        for name, doms in self.schema.items():
            attrs = ", ".join(f"x{i} : {d}" for i, d in enumerate(doms))
            kind = "input" if name in self.inputs else "output"
            lines.append(f"{name} ({attrs}) {kind}")
        lines.append(".rules")
        lines += [_render(rule) for rule in self.rules]
        return "\n".join(lines) + "\n"


def _term(t: Term) -> str:
    return {"v": lambda: t[1], "c": lambda: str(t[1]), "_": lambda: "_"}[t[0]]()


def _atom(atom: Atom, negated: bool = False) -> str:
    terms = ", ".join(_term(t) for t in atom[1])
    return f"{'!' if negated else ''}{atom[0]}({terms})"


def _render(rule: Rule) -> str:
    body = [_atom(a) for a in rule.positive]
    body += [_atom(a, True) for a in rule.negative]
    body += [f"{_term(x)} {op} {_term(y)}" for op, x, y in rule.comparisons]
    return f"{_atom(rule.head)} :- {', '.join(body)}."


@st.composite
def programs(draw) -> Program:
    domains = {"A": draw(st.integers(2, 8))}
    if draw(st.booleans()):
        domains["B"] = draw(st.integers(2, 8))
    names = list(domains)

    def signature():
        arity = draw(st.integers(1, 3))
        return tuple(draw(st.sampled_from(names)) for _ in range(arity))

    schema: Dict[str, Tuple[str, ...]] = {}
    inputs = [f"e{i}" for i in range(draw(st.integers(1, 3)))]
    for name in inputs:
        schema[name] = signature()
    levels: List[List[str]] = []
    for level in range(draw(st.integers(2, 4))):
        preds = [f"p{level}{i}" for i in range(draw(st.integers(1, 2)))]
        for name in preds:
            schema[name] = signature()
        levels.append(preds)

    rules: List[Rule] = []
    for level, preds in enumerate(levels):
        lower = inputs + [p for lv in levels[:level] for p in lv]
        for head in preds:
            for k in range(draw(st.integers(2, 3))):
                rules.append(_draw_rule(draw, domains, schema, head,
                                        lower, lower + preds, base=k == 0))
    return Program(domains, schema, inputs, levels, rules)


def _draw_rule(draw, domains, schema, head, negatable, readable, base) -> Rule:
    bound: Dict[str, List[str]] = {d: [] for d in domains}
    fresh = itertools.count()

    def new_var(dom: str) -> Term:
        return ("v", f"{dom.lower()}{next(fresh)}")

    def atom_terms(rel: str, binding: bool) -> Tuple[Term, ...]:
        # Mostly joins on variables of earlier atoms and fresh variables;
        # sometimes a constant, a don't-care or a repeat within the atom.
        joins = {d: list(vs) for d, vs in bound.items()}
        terms = []
        for dom in schema[rel]:
            choice = draw(st.integers(0, 8))
            if choice <= 2 and joins[dom]:
                terms.append(("v", draw(st.sampled_from(joins[dom]))))
            elif choice == 8 and bound[dom]:
                terms.append(("v", draw(st.sampled_from(bound[dom]))))
            elif choice <= 5 or choice == 8:
                var = new_var(dom)
                if binding:  # otherwise it ranges over the domain
                    bound[dom].append(var[1])
                terms.append(var)
            elif choice == 6:
                terms.append(("c", draw(st.integers(0, domains[dom] - 1))))
            else:
                terms.append(("_",))
        return tuple(terms)

    # A base rule reads lower levels only, so no level is empty for want
    # of one; the others start from their own level, so they recurse.
    first = negatable if base else [p for p in readable if p not in negatable]
    positive = []
    for k in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(readable if k else first))
        positive.append((rel, atom_terms(rel, True)))
    negative = []
    if draw(st.integers(0, 2)) == 2:
        rel = draw(st.sampled_from(negatable))
        negative.append((rel, atom_terms(rel, False)))
    comparisons = []
    if draw(st.integers(0, 3)) == 3:
        dom = draw(st.sampled_from(list(domains)))
        if bound[dom]:
            op = draw(st.sampled_from(["=", "!="]))
            lhs = ("v", draw(st.sampled_from(bound[dom])))
            if draw(st.booleans()):
                rhs = ("v", draw(st.sampled_from(bound[dom])))
            else:
                rhs = ("c", draw(st.integers(0, domains[dom] - 1)))
            comparisons.append((op, lhs, rhs))
    head_terms = []
    for dom in schema[head]:
        choice = draw(st.integers(0, 5))
        if choice <= 3 and bound[dom]:
            head_terms.append(("v", draw(st.sampled_from(bound[dom]))))
        elif choice == 5:
            head_terms.append(new_var(dom))
        else:
            head_terms.append(("c", draw(st.integers(0, domains[dom] - 1))))
    return Rule((head, tuple(head_terms)), positive, negative, comparisons)


def tuples_of(draw, program: Program, rel: str, min_size: int,
              max_size: int) -> Set[tuple]:
    doms = program.schema[rel]
    elems = st.tuples(*(st.integers(0, program.domains[d] - 1) for d in doms))
    return set(draw(st.lists(elems, min_size=min_size, max_size=max_size)))


NAIVE_ITERATIONS = solver_module._NAIVE_ITERATIONS


@dataclass
class Case:
    program: Program
    facts: Dict[str, Set[tuple]]
    # Each edit: (additions, removals) per input relation.
    edits: List[Tuple[Dict[str, Set[tuple]], Dict[str, Set[tuple]]]]
    # Each goal: (predicate, adornment, full-arity binding).
    goals: List[Tuple[str, str, tuple]]
    # The fault a resumption property injects: ("exception", k) raises
    # at the k-th stratum; ("budget", n) runs the call under a node
    # budget of n; ("timeout", k) expires its deadline at the k-th
    # watchdog check.
    fault: Tuple[str, int]
    # Collect garbage on every fixpoint iteration (gc_threshold=1).
    collect: bool = False
    # A tiny operation-cache cap (None: the solver's default).
    cache_limit: Optional[int] = None
    # Naive iterations a fresh stratum runs before it goes semi-naive.
    naive_iterations: int = NAIVE_ITERATIONS


@st.composite
def cases(draw) -> Case:
    program = draw(programs())
    facts = {rel: tuples_of(draw, program, rel, 3, 16)
             for rel in program.inputs}
    edits = []
    current = {rel: set(ts) for rel, ts in facts.items()}
    for _ in range(draw(st.integers(1, 3))):
        adds, removes = {}, {}
        for rel in program.inputs:
            adds[rel] = tuples_of(draw, program, rel, 0, 3) - current[rel]
            if current[rel] and draw(st.booleans()):
                pool = sorted(current[rel])
                removes[rel] = set(draw(st.lists(st.sampled_from(pool),
                                                 max_size=2)))
            else:
                removes[rel] = set()
            current[rel] = (current[rel] - removes[rel]) | adds[rel]
        edits.append((adds, removes))
    derived = [p for level in program.levels for p in level]
    goals = []
    for _ in range(draw(st.integers(1, 3))):
        pred = draw(st.sampled_from(derived))
        doms = program.schema[pred]
        adornment = "".join(draw(st.sampled_from("bf")) for _ in doms)
        binding = tuple(
            draw(st.integers(0, program.domains[d] - 1)) for d in doms
        )
        goals.append((pred, adornment, binding))
    fault = draw(st.one_of(
        st.tuples(st.just("exception"), st.integers(1, 8)),
        st.tuples(st.just("budget"), st.integers(1, 400)),
        st.tuples(st.just("timeout"), st.integers(1, 20)),
    ))
    cache_limit = draw(st.one_of(st.none(), st.integers(0, 16)))
    return Case(program, facts, edits, goals, fault, draw(st.booleans()),
                cache_limit, draw(st.sampled_from((1, 2, NAIVE_ITERATIONS))))


# ----------------------------------------------------------------------
# The explicit-set evaluator
# ----------------------------------------------------------------------


def model(program: Program, facts) -> Dict[str, Set[tuple]]:
    """Level-by-level naive fixpoint over Python sets."""
    db = {rel: set(facts.get(rel, ())) for rel in program.inputs}
    for preds in program.levels:
        for pred in preds:
            db[pred] = set()
        level_rules = [r for r in program.rules if r.head[0] in preds]
        changed = True
        while changed:
            changed = False
            for rule in level_rules:
                for row in _derive(program, rule, db):
                    if row not in db[rule.head[0]]:
                        db[rule.head[0]].add(row)
                        changed = True
    return db


def _match(terms, row, env) -> Optional[dict]:
    env = dict(env)
    for term, value in zip(terms, row):
        if term[0] == "c" and term[1] != value:
            return None
        if term[0] == "v":
            if env.setdefault(term[1], value) != value:
                return None
    return env


def _vars(terms) -> Set[str]:
    return {t[1] for t in terms if t[0] == "v"}


def _derive(program: Program, rule: Rule, db) -> Set[tuple]:
    """Head tuples of one rule.  A variable no positive atom binds ranges
    over its domain; the generator gives each such variable to one
    literal only, the head or the negated atom."""
    keep = _vars(rule.head[1]).union(
        *(_vars(terms) for _, terms in rule.negative),
        *(_vars((x, y)) for _, x, y in rule.comparisons),
    )
    # Join the positive atoms, keeping only variables used later.
    envs = {()}
    for i, (rel, terms) in enumerate(rule.positive):
        used = keep.union(*(_vars(t) for _, t in rule.positive[i + 1:]))
        envs = {
            tuple(sorted((v, x) for v, x in e2.items() if v in used))
            for env in envs for row in db[rel]
            if (e2 := _match(terms, row, dict(env))) is not None
        }
    var_doms = {}
    for rel, terms in [rule.head] + rule.negative:
        for term, dom in zip(terms, program.schema[rel]):
            if term[0] == "v":
                var_doms.setdefault(term[1], dom)
    out = set()
    for env in map(dict, envs):
        val = lambda t: env[t[1]] if t[0] == "v" else t[1]  # noqa: E731
        if any((val(x) == val(y)) != (op == "=")
               for op, x, y in rule.comparisons):
            continue
        if any(_covers(program, atom, env, db, var_doms)
               for atom in rule.negative):
            continue
        free = [v for v in _vars(rule.head[1]) if v not in env]
        for values in itertools.product(
            *(range(program.domains[var_doms[v]]) for v in free)
        ):
            env.update(zip(free, values))
            out.add(tuple(val(t) for t in rule.head[1]))
    return out


def _covers(program: Program, atom: Atom, env, db, var_doms) -> bool:
    """Whether a negated atom blocks ``env``: its rows cover every value
    of the atom's unbound variables (the solver projects them away)."""
    rel, terms = atom
    free = sorted(v for v in _vars(terms) if v not in env)
    seen = {
        tuple(m[v] for v in free)
        for row in db[rel] if (m := _match(terms, row, env)) is not None
    }
    need = 1
    for v in free:
        need *= program.domains[var_doms[v]]
    return len(seen) == need


# ----------------------------------------------------------------------
# Solver plumbing
# ----------------------------------------------------------------------

DRIVERS = [
    pytest.param(seminaive, backend, optimize,
                 id=f"{'seminaive' if seminaive else 'naive'}-{backend}-"
                    f"{'opt' if optimize else 'noopt'}")
    for seminaive in (False, True)
    for backend in ("reference", "packed")
    for optimize in (True, False)
]
ORACLE = settings(max_examples=20, deadline=None)


@pytest.fixture(autouse=True, scope="module")
def _restore_naive_iterations():
    yield
    solver_module._NAIVE_ITERATIONS = NAIVE_ITERATIONS


def make_solver(ast, seminaive, backend, optimize, case: Case) -> Solver:
    # Read at solve time; every case sets it before its solver runs.
    solver_module._NAIVE_ITERATIONS = case.naive_iterations
    limits = {"gc_threshold": 1} if case.collect else {}
    if case.cache_limit is not None:
        limits["cache_limit"] = case.cache_limit
    solver = Solver(ast, seminaive=seminaive, backend=backend,
                    optimize=optimize,
                    **limits)
    if case.cache_limit is not None:
        # Service the kernel on every fresh node, so its cache cap runs
        # mid-operation even on programs this small.
        solver.manager.set_watchdog(lambda: None, stride=1)
    for rel, tuples in case.facts.items():
        solver.add_tuples(rel, sorted(tuples))
    return solver


def assert_matches(solver: Solver, program: Program, want) -> None:
    for rel in program.schema:
        got = set(solver.relation(rel).tuples())
        assert got == want[rel], f"{rel}\n{program.text()}"


def apply_edit(solver: Solver, adds, removes):
    """Patch the solver's inputs to the edited facts; returns the
    ``(added, dirty)`` arguments of :meth:`Solver.solve_incremental`."""
    m = solver.manager
    added, dirty = {}, set()
    for rel_name in adds:
        rel = solver.relation(rel_name)
        if removes[rel_name]:
            gone = rel.tuples_node(removes[rel_name])
            rel.set_node(m.diff(rel.node, gone))
            dirty.add(rel_name)
        if adds[rel_name]:
            new = rel.tuples_node(adds[rel_name])
            delta = m.diff(new, rel.node)
            if delta != FALSE:
                rel.set_node(m.or_(rel.node, delta))
                added[rel_name] = delta
    return added, dirty


def edited(facts, adds, removes):
    return {rel: (facts[rel] - removes.get(rel, set())) | adds.get(rel, set())
            for rel in facts}


def monotone_inputs(program: Program) -> List[str]:
    """Inputs no negated atom depends on: adding to them only grows
    every derived relation, so the edit is grow-only end to end."""
    negated = {rel for rule in program.rules for rel, _ in rule.negative}
    out = []
    for name in program.inputs:
        reach, grew = {name}, True
        while grew:
            grew = False
            for rule in program.rules:
                if rule.head[0] not in reach and any(
                    rel in reach for rel, _ in rule.positive + rule.negative
                ):
                    reach.add(rule.head[0])
                    grew = True
        if not reach & negated:
            out.append(name)
    return out


class Demand:
    """A magic-rewritten solver answering the case's goals in order."""

    def __init__(self, case: Case, seminaive, backend, optimize):
        self.program = case.program
        pairs = sorted({(pred, ad) for pred, ad, _ in case.goals})
        self.magic = magic_rewrite(parse_program(case.program.text()), pairs)
        self.solver = make_solver(self.magic.program, seminaive, backend,
                                  optimize, case)
        self.want = model(case.program, case.facts)

    def seeds(self, goal):
        pred, adornment, binding = goal
        info = self.magic.goal(pred, adornment)
        if info.magic is None:
            return {}
        return {info.magic: [tuple(binding[i] for i in info.bound)]}

    def check(self, goal) -> None:
        pred, adornment, binding = goal
        bound = [i for i, ch in enumerate(adornment) if ch == "b"]

        def on_goal(rows):
            return {t for t in rows if all(t[i] == binding[i] for i in bound)}

        info = self.magic.goal(pred, adornment)
        got = on_goal(self.solver.relation(info.answer).tuples())
        assert got == on_goal(self.want[pred]), (
            f"goal {pred}^{adornment}{binding}\n{self.program.text()}"
        )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases())
@ORACLE
def test_full_solve_matches_model(seminaive, backend, optimize, case):
    program = case.program
    solver = make_solver(parse_program(program.text()), seminaive, backend,
                         optimize, case)
    solver.solve()
    assert_matches(solver, program, model(program, case.facts))


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases())
@ORACLE
def test_incremental_matches_fresh_solve(seminaive, backend, optimize, case):
    program = case.program
    facts = case.facts
    solver = make_solver(parse_program(program.text()), seminaive, backend,
                         optimize, case)
    solver.solve()
    for adds, removes in case.edits:
        added, dirty = apply_edit(solver, adds, removes)
        solver.solve_incremental(added, dirty)
        facts = edited(facts, adds, removes)
        assert_matches(solver, program, model(program, facts))


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases())
@ORACLE
def test_demand_matches_full_solve_on_goal(seminaive, backend, optimize, case):
    demand = Demand(case, seminaive, backend, optimize)
    for i, goal in enumerate(case.goals):
        demand.solver.solve_demand(demand.seeds(goal))
        for earlier in case.goals[: i + 1]:
            demand.check(earlier)


class _SteppingClock:
    """Stands in for the budget module's ``time``: every reading of the
    clock advances it by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def _fault_then(call, fault: Tuple[str, int]) -> None:
    """Run ``call(budget)`` under the case's fault; it may fail."""
    kind, n = fault
    if kind == "budget":
        try:
            call(ResourceBudget(node_budget=n))
        except NodeBudgetExceeded:
            pass
        return
    if kind == "timeout":
        # The budget's first reading fixes the deadline at 1 + n - 0.5;
        # the k-th watchdog check reads 1 + k, so the n-th one expires it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(budget_module, "time", _SteppingClock())
            try:
                call(ResourceBudget(timeout=n - 0.5))
            except SolverTimeout:
                pass
        return
    faults.arm(f"exception@solver.stratum#{n}")
    try:
        call(None)
    except faults.FaultError:
        pass
    finally:
        faults.disarm()


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases(), faulted=st.integers(0, 2))
@ORACLE
def test_demand_resumes_after_fault(seminaive, backend, optimize, case, faulted):
    demand = Demand(case, seminaive, backend, optimize)
    for i, goal in enumerate(case.goals):
        seeds = demand.seeds(goal)
        if i == faulted:
            _fault_then(
                lambda budget: demand.solver.solve_demand(seeds, budget),
                case.fault,
            )
        demand.solver.solve_demand(seeds)
        for earlier in case.goals[: i + 1]:
            demand.check(earlier)


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases())
@ORACLE
def test_solve_resumes_after_grow_only_incremental_fault(
    seminaive, backend, optimize, case
):
    program = case.program
    solver = make_solver(parse_program(program.text()), seminaive, backend,
                         optimize, case)
    solver.solve()
    grow = set(monotone_inputs(program))
    adds = {rel: ts for rel, ts in case.edits[0][0].items() if rel in grow}
    removes = {rel: set() for rel in adds}
    added, dirty = apply_edit(solver, adds, removes)
    assert not dirty

    def grow(budget):
        solver.budget = budget
        try:
            solver.solve_incremental(added)
        finally:
            solver.budget = None

    _fault_then(grow, case.fault)
    solver.solve()
    want = model(program, edited(case.facts, adds, {}))
    assert_matches(solver, program, want)


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
@given(case=cases(), resume_backend=st.sampled_from(["reference", "packed"]))
@ORACLE
def test_checkpoint_resume_matches_model(
    seminaive, backend, optimize, case, resume_backend
):
    """Interrupt a full solve, checkpoint what it reached, and resume in
    a fresh solver (under either backend) from the first stratum that
    had not completed."""
    program = case.program
    ast = parse_program(program.text())
    solver = make_solver(ast, seminaive, backend, optimize, case)

    def interrupted(budget):
        solver.budget = budget
        try:
            solver.solve()
        finally:
            solver.budget = None

    _fault_then(interrupted, case.fault)
    lines, _ = checkpoint_lines(
        solver, next_stratum=solver.last_completed_stratum + 1
    )
    fresh = make_solver(ast, seminaive, resume_backend, optimize,
                        replace(case, facts={}))
    meta = load_checkpoint_lines(fresh, lines, "oracle")
    fresh.solve(start_stratum=meta.next_stratum)
    assert_matches(fresh, program, model(program, case.facts))


@pytest.mark.parametrize("optimize", [True, False])
@given(case=cases(), grow=st.integers(1, 8))
@ORACLE
def test_resized_program_reuses_plans(optimize, case, grow):
    # Domain sizes are not part of the plan memo's key: the grown
    # program hits the entry the original built, and each solver still
    # reaches the model of its own sizes (unbound head variables and
    # negated atoms range over the whole domain).
    program = case.program
    grown = replace(
        program, domains={d: n + grow for d, n in program.domains.items()}
    )
    first = make_solver(parse_program(program.text()), False, "packed",
                        optimize, case)
    hits = build_plans.cache_info().hits
    second = make_solver(parse_program(grown.text()), False, "packed",
                         optimize, case)
    assert build_plans.cache_info().hits == hits + 1
    assert second.plan_unit is first.plan_unit
    for solver, sized in ((first, program), (second, grown)):
        solver.solve()
        assert_matches(solver, sized, model(sized, case.facts))


# ----------------------------------------------------------------------
# Shrunk counterexamples
# ----------------------------------------------------------------------


def _copy_rule(head: str, body: str) -> Rule:
    return Rule((head, (("v", "a0"),)), [(body, (("v", "a0"),))])


@pytest.mark.parametrize("seminaive,backend,optimize", DRIVERS)
def test_demand_fault_on_second_seed(seminaive, backend, optimize):
    # A fault on the first stratum of the second goal's push used to
    # leave the solver marked solved; the retry then found no new seed
    # and answered from the half-pushed state (nothing for goal (1,)).
    program = Program(
        domains={"A": 2},
        schema={"e0": ("A",), "p00": ("A",), "p10": ("A",)},
        inputs=["e0"],
        levels=[["p00"], ["p10"]],
        rules=[_copy_rule("p00", "e0"), _copy_rule("p00", "p00"),
               _copy_rule("p10", "e0"), _copy_rule("p10", "p10")],
    )
    case = Case(program, {"e0": {(0,), (1,)}}, [],
                [("p00", "b", (0,)), ("p00", "b", (1,))], ("exception", 1))
    demand = Demand(case, seminaive, backend, optimize)
    first, second = case.goals
    demand.solver.solve_demand(demand.seeds(first))
    faults.arm("exception@solver.stratum#1")
    try:
        with pytest.raises(faults.FaultError):
            demand.solver.solve_demand(demand.seeds(second))
    finally:
        faults.disarm()
    demand.solver.solve_demand(demand.seeds(second))
    demand.check(first)
    demand.check(second)
