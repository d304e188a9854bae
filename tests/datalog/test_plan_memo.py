"""The per-process plan memo (:func:`repro.datalog.passes.build_plans`).

A solver built from memoized plans must be indistinguishable from one
built from scratch: same rendered plans, same static op counts, same
answers under its own domain sizes, and no execution state leaking
between solvers that share plans.
"""

import pytest

from repro.analysis.base import _DATALOG_DIR, load_datalog_source
from repro.datalog import Solver, apply_domain_sizes, parse_program
from repro.datalog.magic import magic_rewrite
from repro.datalog.passes import OPT_ENV_VAR, build_plans
from repro.serve.demand import _GOALS, DemandEvaluator

#: Each query fragment and the program it extends.
FRAGMENT_HOSTS = {
    "query_casts": "algorithm3",
    "query_devirt": "algorithm3",
    "query_refinement_ci": "algorithm3",
    "query_modref": "algorithm5",
    "query_refinement_cs_pointer": "algorithm5",
    "query_refinement_cs_type": "algorithm6",
}


def _shipped():
    names = sorted(p.stem for p in _DATALOG_DIR.glob("*.dl"))
    fragments = [n for n in names if n.startswith("query_")]
    assert sorted(FRAGMENT_HOSTS) == fragments, "register each fragment's host"
    out = {n: (n, ()) for n in names if n not in fragments}
    for fragment, host in FRAGMENT_HOSTS.items():
        out[f"{host}+{fragment}"] = (host, (fragment,))
    return out


SHIPPED = _shipped()


def shipped_program(label, size):
    if label == "demand":
        # The program DemandEvaluator builds: Algorithm 5 with mod-ref,
        # the vP projection, magic-rewritten for the serve goals.
        base = parse_program(load_datalog_source("algorithm5", ["query_modref"]))
        DemandEvaluator._add_vp_projection(base)
        program = magic_rewrite(base, _GOALS).program
    else:
        name, fragments = SHIPPED[label]
        program = parse_program(load_datalog_source(name, fragments))
    apply_domain_sizes(program, {d: size for d in program.domains})
    return program


@pytest.mark.parametrize("label", sorted(SHIPPED) + ["demand"])
def test_memo_hit_equals_fresh_build(label):
    build_plans.cache_clear()
    first = Solver(shipped_program(label, 8), optimize=True)
    hits = build_plans.cache_info().hits
    # Another parse of the same text, sized differently: a hit.
    second = Solver(shipped_program(label, 32), optimize=True)
    assert build_plans.cache_info().hits == hits + 1
    assert second.plan_unit is first.plan_unit
    build_plans.cache_clear()
    fresh = Solver(shipped_program(label, 8), optimize=True)
    assert fresh.plan_unit is not first.plan_unit
    for solver in (second, fresh):
        assert solver.explain_plans() == first.explain_plans()
        assert solver.plan_op_counts() == first.plan_op_counts()


SIZED = """
.domains
N {size}
.relations
e (a : N0, b : N1) input
reach (a : N0, b : N1) output
unreached (a : N0, b : N1) output
fromthree (b : N0) output
.rules
reach(x, y) :- e(x, y).
reach(x, z) :- reach(x, y), e(y, z).
unreached(x, y) :- !reach(x, y).
fromthree(y) :- reach(3, y).
"""


def test_shared_plans_solve_each_solver_at_its_own_sizes():
    edges = [(0, 1), (1, 2), (3, 0)]
    reach = {(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)}
    solvers = {}
    for size in (4, 8):
        solver = Solver(parse_program(SIZED.format(size=size)), optimize=True)
        solver.add_tuples("e", edges)
        solver.solve()
        solvers[size] = solver
    assert solvers[4].plan_unit is solvers[8].plan_unit
    for size, solver in solvers.items():
        every = {(x, y) for x in range(size) for y in range(size)}
        assert set(solver.relation("reach").tuples()) == reach
        assert set(solver.relation("unreached").tuples()) == every - reach
        assert set(solver.relation("fromthree").tuples()) == {(0,), (1,), (2,)}


def test_traces_stay_on_the_traced_solver():
    program = SIZED.format(size=8)
    traced = Solver(parse_program(program), optimize=True, trace_ops=True)
    plain = Solver(parse_program(program), optimize=True)
    assert traced.plan_unit is plain.plan_unit
    for solver in (traced, plain):
        solver.add_tuples("e", [(0, 1), (1, 2)])
        solver.solve()
    assert "[x" in traced.explain_plans()
    assert "[x" not in plain.explain_plans()
    later = Solver(parse_program(program), optimize=True, trace_ops=True)
    assert "[x" not in later.explain_plans()


def test_pass_options_are_part_of_the_key(monkeypatch):
    program = parse_program(SIZED.format(size=8))
    build_plans.cache_clear()
    units = [
        Solver(program, optimize=True).plan_unit,
        Solver(program, optimize=False).plan_unit,
        Solver(program, optimize=True, disabled_passes=["hoist"]).plan_unit,
    ]
    monkeypatch.setenv(OPT_ENV_VAR, "off")
    units.append(Solver(program).plan_unit)
    info = build_plans.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    assert units[3] is units[1]
    assert len({id(u) for u in units[:3]}) == 3
    assert units[1].applied_passes == []
    assert units[2].applied_passes == ["assign-domains"]
