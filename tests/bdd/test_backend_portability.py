"""Backend provenance is provenance only: artifacts cross backends.

Checkpoints and ``.ptdb`` databases record which kernel wrote them, but
their payload is the canonical serialization, so any backend must resume
or load what any other wrote — including a backend that is no longer
registered.
"""

import pytest

from repro.bdd import api, get_backend_class, register_backend
from repro.bdd.serialize import dump_bdd_lines
from repro.datalog import Solver, parse_program
from repro.ir import parse_program as parse_java
from repro.runtime import (
    IterationLimitExceeded,
    ResourceBudget,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve import PointsToDatabase, compile_database

DATALOG = """
.domains
N 32
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
same (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
same(x, y) :- path(x, y), path(y, x).
"""

EDGES = [(i, i + 1) for i in range(12)] + [(12, 0)]

JAVA = """
class Helper {
    field f : Object;
    method keep(x : Object) { this.f = x; }
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


def _solver(backend, budget=None):
    solver = Solver(parse_program(DATALOG), backend=backend, budget=budget)
    solver.add_tuples("edge", EDGES)
    return solver


def _canonical(solver) -> str:
    names = sorted(solver.relations)
    lines, _ = dump_bdd_lines(
        solver.manager, [solver.relations[n].node for n in names]
    )
    return "\n".join(lines)


@pytest.mark.parametrize(
    "writer, reader", [("packed", "reference"), ("reference", "packed")]
)
def test_checkpoint_resumes_under_the_other_backend(writer, reader, tmp_path):
    fresh = _solver(reader)
    fresh.solve()
    want = _canonical(fresh)

    interrupted = _solver(writer, budget=ResourceBudget(max_iterations=3))
    with pytest.raises(IterationLimitExceeded) as exc:
        interrupted.solve()
    path = tmp_path / "mid.ckpt"
    save_checkpoint(interrupted, path, next_stratum=exc.value.completed_strata)

    resumed = _solver(reader)
    meta = load_checkpoint(resumed, path)
    assert meta.meta["backend"] == writer
    assert resumed.manager.backend_name == reader
    resumed.solve(start_stratum=meta.next_stratum)
    assert _canonical(resumed) == want


class _ArenaStampedKernel(get_backend_class("packed")):
    """A kernel that stamps its artifacts with a backend name this
    package no longer ships."""

    backend_name = "arena"


@pytest.fixture()
def arena_registered(monkeypatch):
    monkeypatch.setattr(api, "_REGISTRY", dict(api._REGISTRY))
    register_backend("arena", _ArenaStampedKernel)


def test_ptdb_from_a_retired_backend_loads_under_the_default(
    arena_registered, monkeypatch, tmp_path
):
    program = parse_java(JAVA, include_library=False)
    stamped = compile_database(program, backend="arena")
    assert stamped.meta["backend"] == "arena"
    path = tmp_path / "arena.ptdb"
    stamped.save(path)
    baseline = compile_database(program, backend="reference")

    monkeypatch.undo()  # the name is gone again, as in a fresh install
    monkeypatch.delenv(api.BACKEND_ENV_VAR, raising=False)
    assert "arena" not in api.available_backends()
    loaded = PointsToDatabase.load(path)
    assert loaded.manager.backend_name == api.DEFAULT_BACKEND
    assert loaded.meta["backend"] == "arena"
    assert loaded.db_id == stamped.db_id == baseline.db_id
    for name, rel in baseline.relations.items():
        assert set(loaded.relation(name).tuples()) == set(rel.tuples())


def test_only_the_two_backends_ship():
    assert api.available_backends() == ["packed", "reference"]
