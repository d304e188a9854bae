"""The differential gate on corpus programs: an incremental recompile of a
synthetic fact edit must be fingerprint-identical (``db_id``) to a
from-scratch compile of the edited facts, with the context-insensitive
phase warm-started from the fixpoint bundle.

Runs on the default backend; CI runs the suite once per backend.
"""

import pytest

from repro.bench.corpus import corpus_program
from repro.incremental import (
    FactDiff,
    FactSet,
    recompile_database,
    write_fixpoint_bundle,
)
from repro.ir.facts import extract_facts
from repro.serve import compile_database, compile_database_with_state


def synth_edit(fs: FactSet, size: int) -> FactDiff:
    """A deterministic ``size``-tuple diff against fact set ``fs``.

    Additions are new ``vP0`` pairs — existing points-to variables
    crossed with existing allocation sites, skipping pairs already
    present — and removals are evenly spaced existing ``store`` tuples.
    A 1-tuple edit is a pure addition: one new allocation statement.
    """
    n_remove = 0 if size == 1 else size // 2
    vp0 = set(fs.relations["vP0"])
    heaps = sorted({h for _, h in vp0})
    added = [
        (v, h)
        for v in sorted({v for v, _ in vp0})
        for h in heaps
        if (v, h) not in vp0
    ][: size - n_remove]
    stores = sorted(fs.relations["store"])
    removed = stores[:: max(1, len(stores) // max(n_remove, 1))][:n_remove]
    assert len(added) + len(removed) == size
    return FactDiff(
        added={"vP0": added},
        removed={"store": [tuple(t) for t in removed]},
        name=f"<synthetic edit, {size} tuples>",
    )


@pytest.fixture(scope="module", params=["freetts", "jetty"])
def corpus_baseline(request, tmp_path_factory):
    facts = extract_facts(corpus_program(request.param))
    db, state = compile_database_with_state(facts=facts)
    bundle = tmp_path_factory.mktemp("fix") / f"{request.param}.ptdb.fix"
    write_fixpoint_bundle(bundle, db, state)
    return db, bundle, FactSet.from_db_meta(db.meta, f"{request.param}.ptdb")


@pytest.mark.parametrize("size", [1, 10])
def test_synthetic_edit_matches_fresh_compile(corpus_baseline, size):
    db, bundle, fs = corpus_baseline
    diff = synth_edit(fs, size)
    res = recompile_database(db, diff, fixpoint_path=bundle)
    edited, _ = fs.apply_diff(diff.resolve(fs))
    assert res.db.db_id == compile_database(facts=edited).db_id
    assert res.modes["ci"] == "delta"
