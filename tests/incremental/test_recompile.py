"""The differential gate: incremental recompiles must be
fingerprint-identical (``db_id``) to from-scratch solves of the same
edited facts — across additions, removals, call-graph edits, and both
kernel backends — plus the no-op, cold-fallback, and provenance paths.
"""

import pytest

from repro.incremental import (
    BaselineMismatchError,
    FactDiff,
    FactDiffError,
    FixpointError,
    FactSet,
    bundle_path_for,
    load_fixpoint_bundle,
    recompile_database,
    write_fixpoint_bundle,
)
from repro.serve import compile_database


def _fresh_id(factset, diff):
    """db_id of a from-scratch compile of the edited fact set."""
    new_fs, _ = factset.apply_diff(FactDiff.parse(diff).resolve(factset))
    return compile_database(facts=new_fs).db_id


def _new_vp0_pair(factset):
    vp0 = set(factset.relations["vP0"])
    return next(
        (v, h)
        for v, _ in sorted(vp0)
        for h in sorted({h for _, h in vp0})
        if (v, h) not in vp0
    )


class TestDifferentialGate:
    def test_vp0_addition_matches_fresh(self, baseline_db, bundle_path, factset):
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=bundle_path
        )
        assert res.modes == {"ci": "delta", "cs": "delta", "escape": "delta"}
        assert res.db_id == _fresh_id(factset, doc)
        assert res.changed() is True

    def test_store_removal_matches_fresh(self, baseline_db, bundle_path, factset):
        victim = sorted(factset.relations["store"])[0]
        doc = {"remove": {"store": [list(victim)]}}
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=bundle_path
        )
        assert res.db_id == _fresh_id(factset, doc)

    def test_mixed_edit_matches_fresh(self, baseline_db, bundle_path, factset):
        doc = {
            "add": {"vP0": [list(_new_vp0_pair(factset))]},
            "remove": {"store": [list(sorted(factset.relations["store"])[0])]},
        }
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=bundle_path
        )
        assert res.db_id == _fresh_id(factset, doc)

    def test_ie0_edit_recomputes_contexts_and_matches(
        self, baseline_db, bundle_path, factset
    ):
        # Add a direct call edge: Helper.drop becomes a target of the
        # invocation that called Helper.keep.  The call graph changes,
        # so path numbering and the context domain are rebuilt.
        site = next(
            i
            for i, name in enumerate(factset.maps["I"])
            if "keep" in name
        )
        target = factset.method_id("Helper.drop")
        doc = {"add": {"IE0": [[site, target]]}}
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=bundle_path
        )
        assert res.modes["cs"] == "recomputed"
        assert res.db_id == _fresh_id(factset, doc)

    def test_both_backends_agree(self, baseline_db, bundle_path, factset):
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        ids = {
            be: recompile_database(
                baseline_db,
                FactDiff.parse(doc),
                fixpoint_path=bundle_path,
                backend=be,
            ).db_id
            for be in ("reference", "packed")
        }
        assert len(set(ids.values())) == 1
        assert ids["packed"] == _fresh_id(factset, doc)


class TestNoOp:
    def test_empty_diff_returns_same_db_id(self, baseline_db, bundle_path):
        res = recompile_database(
            baseline_db, FactDiff.parse({}), fixpoint_path=bundle_path
        )
        assert res.db_id == baseline_db.db_id
        assert res.modes == {"ci": "noop", "cs": "noop", "escape": "noop"}
        assert res.changed() is False

    def test_idempotent_readd_is_a_noop(self, baseline_db, bundle_path, factset):
        present = sorted(factset.relations["vP0"])[0]
        res = recompile_database(
            baseline_db,
            FactDiff.parse({"add": {"vP0": [list(present)]}}),
            fixpoint_path=bundle_path,
        )
        assert res.db_id == baseline_db.db_id
        assert res.modes["ci"] == "noop"


class TestValidation:
    def test_baseline_mismatch_is_typed(self, baseline_db, bundle_path):
        diff = FactDiff.parse({"baseline": {"db_id": "0" * 16}})
        with pytest.raises(BaselineMismatchError):
            recompile_database(baseline_db, diff, fixpoint_path=bundle_path)

    def test_matching_baseline_is_accepted(self, baseline_db, bundle_path):
        diff = FactDiff.parse({"baseline": {"db_id": baseline_db.db_id}})
        res = recompile_database(baseline_db, diff, fixpoint_path=bundle_path)
        assert res.db_id == baseline_db.db_id

    def test_unknown_name_surfaces_as_fact_diff_error(
        self, baseline_db, bundle_path
    ):
        diff = FactDiff.parse({"add": {"vP0": [["Main.main:ghost", 0]]}})
        with pytest.raises(FactDiffError, match="no variable"):
            recompile_database(baseline_db, diff, fixpoint_path=bundle_path)


class TestColdFallback:
    def test_missing_default_bundle_falls_back_cold(
        self, baseline_db, factset, tmp_path
    ):
        # Database saved without a sibling .fix: recompile still works,
        # just from scratch.
        path = tmp_path / "nofix.ptdb"
        baseline_db.save(path)
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        res = recompile_database(str(path), FactDiff.parse(doc))
        assert res.modes == {"ci": "cold", "cs": "cold", "escape": "cold"}
        assert res.db_id == _fresh_id(factset, doc)

    def test_explicit_missing_bundle_path_raises(self, baseline_db, tmp_path):
        diff = FactDiff.parse({"add": {"vP0": [[0, 0]]}})
        with pytest.raises(FileNotFoundError):
            recompile_database(
                baseline_db, diff, fixpoint_path=tmp_path / "absent.fix"
            )

    def test_stale_bundle_for_other_db_falls_back_cold(
        self, baseline_db, bundle_path, factset, tmp_path
    ):
        # A bundle whose db_id does not match the database is ignored.
        text = bundle_path.read_text().replace(
            baseline_db.db_id, "f" * len(baseline_db.db_id)
        )
        stale = tmp_path / "stale.fix"
        stale.write_text(text)
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=stale
        )
        assert res.modes["ci"] == "cold"
        assert res.db_id == _fresh_id(factset, doc)


class TestFixpointBundle:
    def test_roundtrip(self, baseline_db, bundle_path):
        bundle = load_fixpoint_bundle(bundle_path)
        assert bundle.db_id == baseline_db.db_id
        assert sorted(bundle.sections) == ["ci", "cs", "escape"]
        for name in bundle.sections:
            assert bundle.section(name)

    def test_corrupt_magic_is_typed(self, bundle_path, tmp_path):
        bad = tmp_path / "bad.fix"
        bad.write_text("not a bundle\n")
        with pytest.raises(FixpointError, match="not a repro-fixpoint"):
            load_fixpoint_bundle(bad)

    def test_truncated_section_is_typed(self, bundle_path, tmp_path):
        lines = bundle_path.read_text().splitlines()
        bad = tmp_path / "short.fix"
        bad.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(FixpointError):
            load_fixpoint_bundle(bad)

    def test_bundle_path_for(self):
        assert str(bundle_path_for("/x/app.ptdb")).endswith("app.ptdb.fix")


class TestProvenance:
    def test_provenance_chains_parent_and_diff(
        self, baseline_db, bundle_path, factset, tmp_path
    ):
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        diff = FactDiff.parse(doc)
        res = recompile_database(baseline_db, diff, fixpoint_path=bundle_path)
        prov = res.db.meta["provenance"]
        assert prov["parent_db_id"] == baseline_db.db_id
        assert prov["diff_sha256"] == diff.sha256()
        assert prov["edit"]["added"] == {"vP0": 1}
        assert res.parent_db_id == baseline_db.db_id
        # Provenance is volatile meta: a saved+reloaded incremental
        # database keeps its identity AND its history.
        path = tmp_path / "child.ptdb"
        res.db.save(path)
        from repro.serve import PointsToDatabase

        loaded = PointsToDatabase.load(path)
        assert loaded.db_id == res.db_id
        assert loaded.meta["provenance"]["parent_db_id"] == baseline_db.db_id

    def test_provenance_does_not_perturb_db_id(
        self, baseline_db, bundle_path, factset
    ):
        # The whole point of the differential gate: history in, id same.
        doc = {"add": {"vP0": [list(_new_vp0_pair(factset))]}}
        res = recompile_database(
            baseline_db, FactDiff.parse(doc), fixpoint_path=bundle_path
        )
        assert "provenance" in res.db.meta
        assert res.db_id == _fresh_id(factset, doc)

    def test_chained_recompiles(self, baseline_db, bundle_path, factset, tmp_path):
        # Two hops: baseline -> +tuple -> -tuple; the second hop's
        # parent is the first hop's id, and a fresh compile of the
        # doubly-edited facts agrees.
        pair = _new_vp0_pair(factset)
        first = recompile_database(
            baseline_db,
            FactDiff.parse({"add": {"vP0": [list(pair)]}}),
            fixpoint_path=bundle_path,
        )
        mid_fix = tmp_path / "mid.fix"
        write_fixpoint_bundle(mid_fix, first.db, first.state)
        mid_fs = FactSet.from_db_meta(first.db.meta)
        victim = sorted(mid_fs.relations["store"])[0]
        second = recompile_database(
            first.db,
            FactDiff.parse({"remove": {"store": [list(victim)]}}),
            fixpoint_path=mid_fix,
        )
        assert second.parent_db_id == first.db_id
        new_fs, _ = mid_fs.apply_diff(
            FactDiff.parse({"remove": {"store": [list(victim)]}}).resolve(mid_fs)
        )
        assert second.db_id == compile_database(facts=new_fs).db_id


# The CI serve-smoke program: a budget-class database restricted to
# Helper's methods, edited outside the class.
BUDGET_SOURCE = """
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
BUDGET_EDIT = {"add": {"vP0": [["Main.main:b", "Main.main@2:new Helper"]]}}


class TestBudgetClassRecompile:
    def test_warm_cold_and_fresh_agree(self, tmp_path):
        from repro.ir import parse_program
        from repro.serve import compile_database_with_state

        program = parse_program(BUDGET_SOURCE, include_library=False)
        db, state = compile_database_with_state(
            program, budget_class="Helper.*"
        )
        warm_path = tmp_path / "warm.ptdb"
        db.save(warm_path)
        write_fixpoint_bundle(bundle_path_for(warm_path), db, state)
        cold_path = tmp_path / "cold.ptdb"
        db.save(cold_path)

        diff = FactDiff.parse(BUDGET_EDIT)
        warm = recompile_database(str(warm_path), diff)
        cold = recompile_database(str(cold_path), diff)
        assert warm.modes["cs"] == "delta"
        assert cold.modes["cs"] == "cold"
        factset = FactSet.from_db_meta(db.meta, "budget.ptdb")
        new_facts, _ = factset.apply_diff(diff.resolve(factset))
        fresh = compile_database(facts=new_facts, budget_class="Helper.*")

        assert cold.db.budget_class == "Helper.*"
        assert warm.db_id == cold.db_id == fresh.db_id
        vpc = [
            set(result.relation("vPC").tuples())
            for result in (warm.db, cold.db, fresh)
        ]
        assert vpc[0] == vpc[1] == vpc[2]
