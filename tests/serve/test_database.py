"""The ``.ptdb`` artifact: round-trip fidelity, corruption and version
rejection, and the loaded-vs-fresh differential over corpus entries."""

import json
import pathlib

import pytest

from repro.bench.corpus import corpus_entry
from repro.runtime import InvalidInputError
from repro.serve import PointsToDatabase, QueryEngine, compile_database
from repro.serve.database import FORMAT_VERSION, facts_digest


class TestRoundTrip:
    def test_db_id_stable_across_save_load(self, compiled_db, loaded_db):
        assert loaded_db.db_id == compiled_db.db_id

    def test_bdd_relations_survive(self, compiled_db, loaded_db):
        assert set(loaded_db.relations) == set(compiled_db.relations)
        for name, rel in compiled_db.relations.items():
            assert set(loaded_db.relation(name).tuples()) == set(rel.tuples())

    def test_side_tables_survive(self, compiled_db, loaded_db):
        assert loaded_db.maps == compiled_db.maps
        assert loaded_db.tuples == compiled_db.tuples
        assert loaded_db.escape == compiled_db.escape
        assert loaded_db.site_method == compiled_db.site_method
        assert loaded_db.var_reps == compiled_db.var_reps

    def test_provenance_is_stamped(self, loaded_db):
        meta = loaded_db.meta
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["tool"]["name"] == "repro"
        assert meta["program"]["path"] == "serve-test.mj"
        assert len(meta["program"]["facts_sha256"]) == 64
        assert meta["stats"]["iterations"] > 0
        assert meta["config"]["modref"] is True

    def test_save_is_atomic(self, compiled_db, tmp_path):
        compiled_db.save(tmp_path / "x.ptdb")
        assert [p.name for p in tmp_path.iterdir()] == ["x.ptdb"]

    def test_compile_dumps_the_payload_once(self, program, tmp_path, monkeypatch):
        """The dump package_database takes for the db_id is what save()
        writes; a save after the relations or the arena moved dumps again."""
        from repro.bdd import FALSE
        from repro.serve import database

        dumps = []
        dump = database.dump_bdd_lines

        def counting(*args, **kwargs):
            dumps.append(args)
            return dump(*args, **kwargs)

        monkeypatch.setattr(database, "dump_bdd_lines", counting)
        db = compile_database(program, source_path="serve-test.mj")
        db.save(tmp_path / "once.ptdb")
        assert len(dumps) == 1
        assert PointsToDatabase.load(tmp_path / "once.ptdb").db_id == db.db_id

        # Garbage collection renumbers handles: the next save re-dumps,
        # and the bytes still describe the same relations.
        rels = list(db.relations.values())
        mapping = db.manager.collect_garbage([r.node for r in rels])
        for rel in rels:
            rel.set_node(mapping[rel.node])
        db.save(tmp_path / "after-gc.ptdb")
        assert len(dumps) == 2
        assert (tmp_path / "after-gc.ptdb").read_text().split("\n")[2:] == (
            (tmp_path / "once.ptdb").read_text().split("\n")[2:]
        )

        # A relation the database shares with its solver moves on.
        db.relations["vP"].set_node(FALSE)
        db.save(tmp_path / "edited.ptdb")
        assert len(dumps) == 3
        edited = PointsToDatabase.load(tmp_path / "edited.ptdb")
        assert not list(edited.relation("vP").tuples())

    def test_facts_digest_is_deterministic(self, program):
        from repro.ir.facts import extract_facts

        assert facts_digest(extract_facts(program)) == facts_digest(
            extract_facts(program)
        )


def _lines(db_path):
    return pathlib.Path(db_path).read_text().splitlines()


def _write(tmp_path, lines):
    out = tmp_path / "tampered.ptdb"
    out.write_text("\n".join(lines) + "\n")
    return out


def _tamper_meta(db_path, tmp_path, **updates):
    lines = _lines(db_path)
    meta = json.loads(lines[1][len("meta "):])
    for key, value in updates.items():
        if isinstance(value, dict) and isinstance(meta.get(key), dict):
            meta[key] = dict(meta[key], **value)
        else:
            meta[key] = value
    lines[1] = "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return _write(tmp_path, lines)


class TestRejection:
    def test_not_a_ptdb_file(self, tmp_path):
        bad = tmp_path / "bad.ptdb"
        bad.write_text("definitely not a database\n")
        with pytest.raises(InvalidInputError, match="not a repro-ptdb"):
            PointsToDatabase.load(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PointsToDatabase.load(tmp_path / "absent.ptdb")

    def test_truncated_payload(self, db_path, tmp_path):
        lines = _lines(db_path)
        with pytest.raises(InvalidInputError, match="truncated"):
            PointsToDatabase.load(_write(tmp_path, lines[:-3]))

    def test_corrupt_payload_fails_checksum(self, db_path, tmp_path):
        lines = _lines(db_path)
        lines[-1] = lines[-1] + " 0"
        with pytest.raises(InvalidInputError, match="checksum mismatch"):
            PointsToDatabase.load(_write(tmp_path, lines))

    def test_future_format_version_rejected(self, db_path, tmp_path):
        bad = _tamper_meta(db_path, tmp_path, format_version=FORMAT_VERSION + 1)
        with pytest.raises(InvalidInputError, match="format_version"):
            PointsToDatabase.load(bad)

    def test_tool_major_version_mismatch_rejected(self, db_path, tmp_path):
        bad = _tamper_meta(db_path, tmp_path, tool={"version": "99.0.0"})
        with pytest.raises(InvalidInputError, match="99.0.0"):
            PointsToDatabase.load(bad)

    def test_tool_minor_version_drift_accepted(self, db_path, tmp_path):
        meta = json.loads(_lines(db_path)[1][len("meta "):])
        major = meta["tool"]["version"].split(".")[0]
        ok = _tamper_meta(
            db_path, tmp_path, tool={"version": f"{major}.999.0"}
        )
        assert PointsToDatabase.load(ok).db_id

    def test_database_without_facts_refused(self, db_path, tmp_path):
        lines = _lines(db_path)
        meta = json.loads(lines[1][len("meta "):])
        del meta["facts"]
        lines[1] = "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
        with pytest.raises(InvalidInputError, match="older tool"):
            PointsToDatabase.load(_write(tmp_path, lines))

    def test_malformed_fact_set_refused(self, db_path, tmp_path):
        bad = _tamper_meta(db_path, tmp_path, site_method={"0": "x"})
        with pytest.raises(InvalidInputError, match="malformed fact set"):
            PointsToDatabase.load(bad)

    def test_missing_relation_schema(self, db_path, tmp_path):
        bad = _tamper_meta(db_path, tmp_path, relations="oops")
        with pytest.raises(InvalidInputError, match="relations"):
            PointsToDatabase.load(bad)


def _sample_queries(db, per_kind=6):
    """A few queries of *every* kind, drawn from the db's own maps."""
    variables = sorted(db.var_reps)[:per_kind]
    methods = db.maps["M"][:per_kind]
    heaps = db.maps["H"][:per_kind]
    queries = [("points-to", {"variable": v}) for v in variables]
    queries += [
        ("aliases", {"variable1": a, "variable2": b})
        for a, b in zip(variables, variables[1:])
    ]
    queries += [("mod-ref", {"method": m}) for m in methods]
    queries += [("callers", {"method": m}) for m in methods]
    queries += [("escape", {"heap": h}) for h in heaps]
    return queries


class TestDifferential:
    """A loaded ``.ptdb`` must answer exactly like the fresh in-process
    solve it was compiled from, for every query kind."""

    @pytest.mark.parametrize("name", ["freetts", "jetty", "nfcchat"])
    def test_loaded_matches_fresh_solve(self, name, tmp_path):
        fresh_db = compile_database(corpus_entry(name).build())
        path = tmp_path / f"{name}.ptdb"
        fresh_db.save(path)
        loaded_db = PointsToDatabase.load(path)
        assert loaded_db.db_id == fresh_db.db_id

        fresh = QueryEngine(fresh_db)
        loaded = QueryEngine(loaded_db)
        queries = _sample_queries(loaded_db)
        assert len({kind for kind, _ in queries}) == 5
        for kind, args in queries:
            assert loaded.query(kind, args) == fresh.query(kind, args), (
                f"{name}: {kind} {args} diverged between loaded and fresh"
            )
