"""Property-based tests for the plan IR and the optimizer pass pipeline.

Three invariants, over randomized rule shapes and fact sets:

1. lowering is *well-formed*: every register is defined before use and
   every schema obligation holds (``validate_plan`` passes) for every
   (rule, delta-variant) plan, optimized or not;
2. the compiler's liveness helper never frees a head variable;
3. the optimizer is *semantics-free*: optimized and unoptimized solves,
   and optimized solves with any one pass disabled, produce
   bit-identical relation BDDs on both kernel backends.
"""

import hashlib

from hypothesis import assume, given, settings, strategies as st

from repro.bdd.serialize import dump_bdd_lines
from repro.datalog import DatalogError, Solver, parse_program, validate_plan
from repro.datalog.compiler import (
    _last_use_positions,
    _order_positive_atoms,
)
from repro.datalog.passes import PASS_NAMES

HEADER = """
.domains
N 16
.relations
e (a : N0, b : N1) input
t (a : N0, b : N1, c : N2) input
p (a : N0, b : N1) output
.rules
"""

ARITIES = {"e": 2, "t": 3, "p": 2}
VARS = ("x", "y", "z", "w")


@st.composite
def rules_strategy(draw):
    """1-3 well-formed rules with head ``p`` and random positive bodies."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        n_atoms = draw(st.integers(1, 3))
        body = []
        bound = []
        for _ in range(n_atoms):
            rel = draw(st.sampled_from(sorted(ARITIES)))
            terms = [
                draw(st.sampled_from(VARS)) for _ in range(ARITIES[rel])
            ]
            bound.extend(terms)
            body.append(f"{rel}({', '.join(terms)})")
        head_vars = (
            draw(st.sampled_from(bound)),
            draw(st.sampled_from(bound)),
        )
        rules.append(f"p({head_vars[0]}, {head_vars[1]}) :- {', '.join(body)}.")
    return "\n".join(rules)


edges_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=0, max_size=30,
)
triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)
    ),
    min_size=0, max_size=20,
)


def _parse(rules_text):
    try:
        return parse_program(HEADER + rules_text)
    except DatalogError:
        assume(False)


@given(rules_strategy())
@settings(max_examples=80, deadline=None)
def test_lowered_plans_validate(rules_text):
    """Every compiled plan — greedy and optimized — passes validation:
    in particular every register (and so every variable binding) is
    defined before it is used."""
    prog = _parse(rules_text)
    for optimize in (False, True):
        solver = Solver(prog, optimize=optimize)
        for plan in solver.plan_unit.plans.values():
            validate_plan(prog, plan, hoisted=solver.plan_unit.hoisted)


@given(rules_strategy())
@settings(max_examples=80, deadline=None)
def test_last_use_never_frees_head_variable(rules_text):
    prog = _parse(rules_text)
    sentinel = 1 << 30
    for rule in prog.rules:
        variants = [None] + list(range(len(rule.positive_atoms)))
        for delta in variants:
            ordered = _order_positive_atoms(rule, delta)
            last = _last_use_positions(prog, rule, ordered, [])
            for var in rule.head.variables():
                assert last[var] == sentinel, (
                    f"head variable {var!r} freed at {last[var]}"
                )


def _solve_digests(
    prog_text, rules_text, edges, triples, backend, optimize, disabled=None
):
    solver = Solver(
        parse_program(prog_text + rules_text),
        backend=backend,
        optimize=optimize,
        disabled_passes=[disabled] if disabled else None,
    )
    solver.add_tuples("e", edges)
    solver.add_tuples("t", triples)
    solver.solve()
    out = {}
    for name in ("p",):
        lines, _ = dump_bdd_lines(
            solver.manager, [solver.relation(name).node]
        )
        out[name] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


@given(
    rules_strategy(),
    edges_strategy,
    triples_strategy,
    st.sampled_from((None,) + PASS_NAMES),
)
@settings(max_examples=25, deadline=None)
def test_optimizer_is_semantics_free(rules_text, edges, triples, disabled):
    """Optimized and unoptimized plans, and optimized plans with one pass
    (or none) disabled, produce bit-identical relation BDDs under both
    kernel backends (same levels, same structure)."""
    _parse(rules_text)  # assume() away unparseable draws
    for backend in ("reference", "packed"):
        opt = _solve_digests(
            HEADER, rules_text, edges, triples, backend, True
        )
        noopt = _solve_digests(
            HEADER, rules_text, edges, triples, backend, False
        )
        ablated = _solve_digests(
            HEADER, rules_text, edges, triples, backend, True, disabled
        )
        assert opt == noopt == ablated
