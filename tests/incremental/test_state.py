"""FactSet: rebuild from database meta and edit semantics."""

import pytest

from repro.incremental import FactDiff, FactDiffError, FactSet
from repro.ir.facts import extract_facts


class TestFromDbMeta:
    def test_roundtrips_the_extracted_facts(self, program, factset):
        facts = extract_facts(program)
        for rel, rows in facts.relations.items():
            assert sorted(map(tuple, rows)) == sorted(
                map(tuple, factset.relations[rel])
            ), rel
        for dom, names in facts.maps.items():
            assert list(names) == list(factset.maps[dom]), dom
        assert factset.sizes == dict(facts.sizes, Z=facts.max_arity)
        assert factset.global_site == facts.global_site
        assert factset.entry_ids == facts.entry_ids
        assert factset.entry == "Main.main"

    def test_var_id_resolves_through_representatives(self, program, factset):
        facts = extract_facts(program)
        # 'b = a' is copy-factored: both names resolve to one ordinal.
        assert factset.var_id("Main.main", "a") == facts.var_id(
            "Main.main", "a"
        )
        assert factset.var_id("Main.main", "b") == factset.var_id(
            "Main.main", "a"
        )

    def test_unknown_variable_is_typed(self, factset):
        from repro.runtime import InvalidInputError

        with pytest.raises(InvalidInputError):
            factset.var_id("Main.main", "ghost")

    def test_older_database_without_facts_meta(self, baseline_db):
        meta = dict(baseline_db.meta)
        meta.pop("facts")
        with pytest.raises(FactDiffError, match="older tool"):
            FactSet.from_db_meta(meta, "legacy.ptdb")


class TestApplyDiff:
    def _resolved(self, factset, doc):
        return FactDiff.parse(doc).resolve(factset)

    def test_add_produces_new_factset(self, factset):
        vp0 = set(factset.relations["vP0"])
        new_pair = next(
            (v, h)
            for v, _ in sorted(vp0)
            for h in sorted({h for _, h in vp0})
            if (v, h) not in vp0
        )
        diff = self._resolved(factset, {"add": {"vP0": [list(new_pair)]}})
        new_fs, applied = factset.apply_diff(diff)
        assert new_pair in set(new_fs.relations["vP0"])
        assert new_pair not in set(factset.relations["vP0"])  # no mutation
        assert applied.added("vP0") == [new_pair]
        assert applied.is_empty() is False

    def test_idempotent_readd_is_dropped(self, factset):
        present = sorted(factset.relations["vP0"])[0]
        diff = self._resolved(factset, {"add": {"vP0": [list(present)]}})
        new_fs, applied = factset.apply_diff(diff)
        assert applied.is_empty() is True
        assert sorted(new_fs.relations["vP0"]) == sorted(
            factset.relations["vP0"]
        )

    def test_remove_existing_tuple(self, factset):
        victim = sorted(factset.relations["store"])[0]
        diff = self._resolved(factset, {"remove": {"store": [list(victim)]}})
        new_fs, applied = factset.apply_diff(diff)
        assert victim not in set(new_fs.relations["store"])
        assert applied.removed("store") == [victim]

    def test_remove_of_absent_tuple_is_an_error(self, factset):
        vp0 = set(factset.relations["vP0"])
        absent = next(
            (v, h)
            for v, _ in sorted(vp0)
            for h in sorted({h for _, h in vp0})
            if (v, h) not in vp0
        )
        diff = self._resolved(factset, {"remove": {"vP0": [list(absent)]}})
        with pytest.raises(FactDiffError, match="cannot remove"):
            factset.apply_diff(diff)
