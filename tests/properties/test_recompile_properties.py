"""Every path to a database gives the same database.

Small generated programs, optionally compiled to a budget-class database,
take two drawn one-tuple ``vP0`` additions that keep the call graph (a
new allocation of a type that already reaches the variable, as in the
benchmark's edit loop).  Four paths to the doubly edited facts must give
one ``db_id``:

* a fresh compile of the edited facts;
* a warm recompile of both additions from the base's fixpoint bundle;
* a cold recompile of both additions (no bundle);
* two chained warm recompiles, one addition each.

Within one process all of them build their solvers from the same
memoized plans, so this is also the end-to-end fence of the plan memo.

The fact set a recompile starts from is rebuilt from the database's
meta; it must equal the one extracted from source, field for field, and
compile to the same database.  A loaded database holds that fact set,
every name the serve engine accepts resolves through it, and a database
without it is refused at load and at reload.
"""

import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generator import WorkloadParams, generate_program
from repro.incremental import (
    FactDiff,
    FactSet,
    bundle_path_for,
    recompile_database,
    write_fixpoint_bundle,
)
from repro.ir.facts import Facts, extract_facts
from repro.runtime import InvalidInputError
from repro.serve import (
    PointsToClient,
    PointsToDatabase,
    PointsToServer,
    QueryEngine,
    ServerError,
    compile_database,
    compile_database_with_state,
)

PROGRAMS = [
    WorkloadParams(seed=1, layers=3, use_library=False),
    WorkloadParams(seed=2, layers=3, threads=2, shared_chain=1,
                   use_library=False),
]
BUDGET_CLASSES = [None, "Layers.*"]


@lru_cache(maxsize=None)
def _base(index, budget_class):
    """(database, its fixpoint state, its facts, call-graph-keeping
    vP0 additions), compiled once per session."""
    db, state = compile_database_with_state(
        generate_program(PROGRAMS[index]), budget_class=budget_class
    )
    facts = FactSet.from_db_meta(db.meta)
    heap_type = dict(facts.relations["hT"])
    vp0 = set(facts.relations["vP0"])
    reached = {}
    for v, h in state.ci_solver.relation("vP").tuples():
        reached.setdefault(v, set()).add(h)
    edits = sorted(
        (v, h)
        for v, heaps in reached.items()
        for h, t in heap_type.items()
        if t in {heap_type.get(x) for x in heaps}
        and h not in heaps and (v, h) not in vp0
    )
    return db, state, facts, edits


@given(
    index=st.integers(0, len(PROGRAMS) - 1),
    budget_class=st.sampled_from(BUDGET_CLASSES),
    picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
@settings(max_examples=8, deadline=None)
def test_every_path_gives_one_db_id(index, budget_class, picks):
    db, state, facts, edits = _base(index, budget_class)
    first, second = (edits[p % len(edits)] for p in picks)
    both = FactDiff(added={"vP0": [first, second]})
    edited, _ = facts.apply_diff(both.resolve(facts))
    fresh = compile_database(facts=edited, budget_class=budget_class)
    with tempfile.TemporaryDirectory() as tmp:
        warm_path = Path(tmp) / "warm.ptdb"
        db.save(warm_path)
        write_fixpoint_bundle(bundle_path_for(warm_path), db, state)
        cold_path = Path(tmp) / "cold.ptdb"
        db.save(cold_path)
        warm = recompile_database(str(warm_path), both)
        cold = recompile_database(str(cold_path), both)
        hop = recompile_database(
            str(warm_path), FactDiff(added={"vP0": [first]})
        )
        hop_bundle = Path(tmp) / "hop.fix"
        write_fixpoint_bundle(hop_bundle, hop.db, hop.state)
        chained = recompile_database(
            hop.db, FactDiff(added={"vP0": [second]}),
            fixpoint_path=hop_bundle,
        )
    assert warm.modes["cs"] == "delta" and cold.modes["cs"] == "cold"
    assert hop.modes["cs"] == "delta"
    assert warm.db_id == cold.db_id == chained.db_id == fresh.db_id


@given(
    seed=st.integers(0, 10**4),
    threads=st.integers(0, 2),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    budget_class=st.sampled_from(BUDGET_CLASSES),
)
@settings(max_examples=6, deadline=None)
def test_source_and_meta_give_one_fact_set(seed, threads, flags, budget_class):
    exceptions, statics, clinit = flags
    program = generate_program(WorkloadParams(
        seed=seed, layers=3, threads=threads, use_library=False,
        use_exceptions=exceptions, use_statics=statics, use_clinit=clinit,
    ))
    db = compile_database(program, budget_class=budget_class)
    rebuilt = Facts.from_db_meta(db.meta)
    assert FactSet is Facts
    assert rebuilt == extract_facts(program)
    assert compile_database(
        facts=rebuilt, budget_class=budget_class
    ).db_id == db.db_id


@given(
    seed=st.integers(0, 10**4),
    threads=st.integers(0, 2),
    budget_class=st.sampled_from(BUDGET_CLASSES),
)
@settings(max_examples=4, deadline=None)
def test_loaded_database_holds_its_facts(seed, threads, budget_class):
    program = generate_program(WorkloadParams(
        seed=seed, layers=3, threads=threads, use_library=False,
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.ptdb"
        compile_database(program, budget_class=budget_class).save(path)
        db = PointsToDatabase.load(path)
        facts = extract_facts(program)
        assert db.facts == facts

        engine = QueryEngine(db)
        for domain, names in db.maps.items():
            for ordinal, name in enumerate(names):
                assert db.id_of(domain, name) == ordinal
                if domain in "VMH":
                    assert engine._resolve(domain, name) == ordinal
        for spec, ordinal in db.var_reps.items():
            assert facts.var_reps[spec] == ordinal
            assert db.var_id(spec) == ordinal
            assert engine._resolve("V", spec) == ordinal

        # A database from a tool older than the embedded fact set.
        lines = path.read_text().splitlines()
        meta = json.loads(lines[1][len("meta "):])
        del meta["facts"]
        lines[1] = "meta " + json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        )
        legacy = Path(tmp) / "legacy.ptdb"
        legacy.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="older tool"):
            PointsToDatabase.load(legacy)

        server = PointsToServer(db, port=0, log=io.StringIO())
        server.start()
        try:
            with PointsToClient(*server.address) as client:
                before = client.health()
                with pytest.raises(ServerError) as exc:
                    client.reload(path=str(legacy))
                assert exc.value.code == "reload-failed"
                assert "older tool" in str(exc.value)
                after = client.health()
                assert (after["epoch"], after["db_id"]) == (
                    before["epoch"], db.db_id
                )
                spec = sorted(db.var_reps)[0]
                assert client.query("callers", {"method": db.maps["M"][0]})
                assert client.query("points-to", {"variable": spec})
        finally:
            server.shutdown(drain_timeout=2.0)
