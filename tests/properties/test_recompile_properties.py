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
"""

import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.bench.generator import WorkloadParams, generate_program
from repro.incremental import (
    FactDiff,
    FactSet,
    bundle_path_for,
    recompile_database,
    write_fixpoint_bundle,
)
from repro.serve import compile_database, compile_database_with_state

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
