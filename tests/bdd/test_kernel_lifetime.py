"""A BDD kernel is freed when its last reference goes.

Nothing in the pipeline may form a reference cycle through a kernel:
a cycle keeps the node arrays, the unique table and the operation
caches alive until CPython's next cyclic collection, and the packed
backend allocates too few containers for that collection to come soon.
Every test here runs with the cyclic collector disabled, so a kernel
that is only reachable through a cycle stays alive and fails the test.

The packed backend's compiled closures (``_hot``) are kept across
watchdog changes and rebuilt only when the watchdog stride changes.
"""

import gc
import io
import weakref

import pytest

from repro.bdd import create_kernel
from repro.datalog import Solver, parse_program
from repro.datalog.magic import magic_rewrite
from repro.ir import parse_program as parse_mini_java
from repro.runtime import ResourceBudget
from repro.serve import (
    PointsToDatabase,
    PointsToServer,
    compile_database,
    compile_database_with_state,
)

BACKENDS = ["reference", "packed"]

SOURCE = """
class Helper {
    field f : Object;
    method keep(x : Object) {
        this.f = x;
    }
}
class Main {
    static method main() {
        a = new Object;
        b = a;
        h = new Helper;
        h.keep(a);
    }
}
"""

TC = """
.domains
N 32
.relations
edge (src : N0, dst : N1) input
path (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""

EDGES = [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (13, 10)]


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def program():
    return parse_mini_java(SOURCE, include_library=False)


def _assert_dead(refs):
    alive = [name for name, ref in refs.items() if ref() is not None]
    assert not alive, f"kernels still alive: {alive}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_cold_paths_leave_no_cycle(backend):
    m = create_kernel(num_vars=6, backend=backend)
    u = m.or_(m.cube([(0, True), (2, False)]), m.cube([(1, True), (4, True)]))
    m.rel_prod(u, m.var_bdd(3), m.varset([1]))
    m.replace(u, m.replace_map({4: 5}))
    m.sat_count(u, range(6))
    list(m.iter_assignments(u, range(6)))
    m.restrict(u, {0: True})
    ref = weakref.ref(m)
    del m
    _assert_dead({"kernel": ref})


@pytest.mark.parametrize("backend", BACKENDS)
def test_compile_frees_every_solver_kernel(program, backend):
    db, state = compile_database_with_state(program, backend=backend)
    refs = {
        "ci": weakref.ref(state.ci_solver.manager),
        "cs": weakref.ref(state.cs_solver.manager),
        "escape": weakref.ref(state.escape_solver.manager),
        "db": weakref.ref(db.manager),
    }
    del db, state
    _assert_dead(refs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reload_frees_the_old_epoch(program, backend, tmp_path):
    path = str(tmp_path / "served.ptdb")
    compile_database(
        program, source_path="served.mj", backend=backend, budget_class="Helper.*"
    ).save(path)
    server = PointsToServer(PointsToDatabase.load(path, backend=backend),
                            log=io.StringIO())
    engine = server._state.engine
    result = engine.query("points-to", {"variable": "Main.main:a"})
    assert result["demand"] is True
    refs = {
        "db": weakref.ref(engine.db.manager),
        "demand": weakref.ref(engine._demand_eval.solver.manager),
    }
    del engine, result
    server.reload(path=path)
    _assert_dead(refs)


def _demand_solver():
    mp = magic_rewrite(parse_program(TC), [("path", "bf")])
    solver = Solver(mp.program, backend="packed")
    solver.add_tuples("edge", EDGES)
    return solver, mp.goal("path", "bf")


def test_closures_survive_unbudgeted_demand_calls():
    solver, info = _demand_solver()
    solver.solve_demand({info.magic: [(0,)]})
    hot = dict(solver.manager._hot)
    assert hot
    solver.solve_demand({info.magic: [(10,)]})
    assert all(solver.manager._hot.get(key) is fn for key, fn in hot.items())


def test_closures_rebuilt_when_budget_shrinks_stride():
    solver, info = _demand_solver()
    solver.solve_demand({info.magic: [(0,)]})
    hot = dict(solver.manager._hot)
    # A node budget under 8 * 2048 scales the watchdog stride down.
    solver.solve_demand({info.magic: [(10,)]}, budget=ResourceBudget(node_budget=8000))
    assert solver.manager._watchdog_stride == 1000
    rebuilt = solver.manager._hot
    assert rebuilt
    assert not any(rebuilt.get(key) is fn for key, fn in hot.items())
    answer = solver.relation(info.answer)
    assert set(answer.select(src=10).tuples()) == {(11,), (12,), (13,), (10,)}
