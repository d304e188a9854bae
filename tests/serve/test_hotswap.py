"""Hot-swap database reloads: epoch publication, validation, rollback.

The tentpole guarantees under test:

* a ``reload`` swaps in the candidate atomically — after the ack, every
  *new* request answers from the new database (no stale epoch answers),
* a candidate that fails validation (corrupt file, wrong ``expect_db_id``,
  injected fault) is discarded and the old epoch keeps serving,
* per-epoch caches cannot leak answers across the swap (each epoch
  gets a fresh engine LRU),
* 100 swaps under concurrent query load lose no connections and produce
  only correct answers.
"""

import json
import shutil
import socket
import threading
import time

import pytest

from repro.runtime import faults
from repro.serve import PointsToClient, PointsToServer, ServerError
from repro.serve.engine import QueryError

QUERY = {"verb": "query", "kind": "points-to", "args": {"variable": "Main.main:a"}}


@pytest.fixture()
def server(loaded_db):
    srv = PointsToServer(loaded_db, port=0)
    srv.start()
    yield srv
    srv.shutdown(drain_timeout=2.0)


def _count(client):
    return client.query("points-to", {"variable": "Main.main:a"})["count"]


class TestReloadVerb:
    def test_swap_changes_epoch_and_answers(self, server, db_path, db_path_v2):
        with PointsToClient(*server.address) as client:
            assert _count(client) == 1
            before = client.health()
            result = client.reload(path=db_path_v2)
            assert result["reloaded"] is True
            assert result["epoch"] == before["epoch"] + 1
            assert result["db_id"] != result["previous_db_id"]
            # Same connection, next request: already the new database.
            assert _count(client) == 2
            after = client.health()
            assert after["epoch"] == result["epoch"]
            assert after["db_id"] == result["db_id"]
            assert after["reloads"] == {"ok": 1, "failed": 0}

    def test_default_path_reloads_in_place(self, server, db_path, db_path_v2, tmp_path):
        # The common ops flow: the artifact is rebuilt at the same path,
        # then a bare reload picks it up.
        spare = tmp_path / "rebuilt.ptdb"
        shutil.copyfile(db_path, spare)
        with PointsToClient(*server.address) as client:
            client.reload(path=str(spare))
            assert _count(client) == 1
            shutil.copyfile(db_path_v2, spare)
            result = client.reload()  # no path: reload whence loaded
            assert result["path"] == str(spare)
            assert _count(client) == 2

    def test_expect_db_id_pin_mismatch_keeps_old(self, server, db_path_v2):
        with PointsToClient(*server.address) as client:
            old = client.health()
            with pytest.raises(ServerError) as exc:
                client.reload(path=db_path_v2, expect_db_id="0" * 16)
            assert exc.value.code == "reload-failed"
            now = client.health()
            assert now["epoch"] == old["epoch"]
            assert now["db_id"] == old["db_id"]
            assert now["reloads"]["failed"] == 1
            assert _count(client) == 1  # still the old database

    def test_corrupt_candidate_keeps_old(self, server, db_path, tmp_path):
        bad = tmp_path / "corrupt.ptdb"
        data = bytearray(open(db_path, "rb").read())
        data[len(data) // 2] ^= 0xFF  # flip a payload bit: checksum fails
        bad.write_bytes(bytes(data))
        with PointsToClient(*server.address) as client:
            old_id = client.health()["db_id"]
            with pytest.raises(ServerError) as exc:
                client.reload(path=str(bad))
            assert exc.value.code == "reload-failed"
            assert client.health()["db_id"] == old_id
            assert _count(client) == 1

    def test_missing_candidate_keeps_old(self, server):
        with PointsToClient(*server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.reload(path="/nonexistent/no.ptdb")
            assert exc.value.code == "reload-failed"
            assert client.ping()

    def test_swap_fault_keeps_old(self, server, db_path_v2):
        # The serve.swap seam fires after validation but before
        # publication — the worst possible instant.  The old epoch must
        # survive it.
        faults.arm("exception@serve.swap")
        try:
            with PointsToClient(*server.address) as client:
                old = client.health()
                with pytest.raises(ServerError) as exc:
                    client.reload(path=db_path_v2)
                assert exc.value.code == "reload-failed"
                assert client.health()["epoch"] == old["epoch"]
                assert _count(client) == 1
        finally:
            faults.disarm()

    def test_db_load_fault_keeps_old(self, server, db_path_v2):
        faults.arm("exception@serve.db_load")
        try:
            with PointsToClient(*server.address) as client:
                with pytest.raises(ServerError) as exc:
                    client.reload(path=db_path_v2)
                assert exc.value.code == "reload-failed"
                assert _count(client) == 1
        finally:
            faults.disarm()

    def test_reload_invalidates_wire_and_engine_caches(
        self, server, db_path, db_path_v2
    ):
        with PointsToClient(*server.address) as client:
            assert _count(client) == 1
            assert _count(client) == 1  # second hit: result-cached
            old_engine = server.engine
            client.reload(path=db_path_v2)
            assert server.engine is not old_engine
            assert server.engine.stats()["cache_entries"] == 0
            assert _count(client) == 2


class TestSighupPath:
    def test_hup_flag_triggers_reload_in_serve_loop(
        self, loaded_db, db_path, db_path_v2, tmp_path
    ):
        # Drive the serve_forever loop (where SIGHUP lands) in a thread;
        # the handler only sets the flag the loop consumes, so setting
        # the flag directly exercises everything but the signal itself.
        spare = tmp_path / "live.ptdb"
        shutil.copyfile(db_path, spare)
        from repro.serve import PointsToDatabase

        srv = PointsToServer(PointsToDatabase.load(str(spare)), port=0)
        srv.start()
        loop = threading.Thread(target=srv.serve_forever, daemon=True)
        loop.start()
        try:
            shutil.copyfile(db_path_v2, spare)
            srv._hup.set()
            deadline = time.monotonic() + 5.0
            while srv.epoch == 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.epoch == 2
            with PointsToClient(*srv.address) as client:
                assert _count(client) == 2
        finally:
            srv.shutdown(drain_timeout=2.0)
            loop.join(timeout=5.0)


class TestSwapStorm:
    def test_100_swaps_under_concurrent_load(self, server, db_path, db_path_v2):
        """The acceptance drill: 100 hot swaps while clients hammer the
        server.  Zero dropped connections, zero untyped errors, and
        after every reload ack a fresh connection sees the new epoch's
        answer."""
        expected = {  # db path -> correct points-to count for Main.main:a
            db_path: 1,
            db_path_v2: 2,
        }
        stop = threading.Event()
        failures = []
        answers = []

        def worker():
            try:
                with PointsToClient(*server.address) as client:
                    while not stop.is_set():
                        result = client.query(
                            "points-to", {"variable": "Main.main:a"}
                        )
                        count = result["count"]
                        if count not in (1, 2):
                            failures.append(f"impossible count {count}")
                            return
                        answers.append(count)
            except ServerError as err:
                failures.append(f"typed server error: {err}")
            except Exception as err:  # noqa: BLE001 - the test's whole point
                failures.append(f"{type(err).__name__}: {err}")

        workers = [threading.Thread(target=worker) for _ in range(4)]
        for t in workers:
            t.start()
        try:
            with PointsToClient(*server.address) as admin:
                for i in range(100):
                    target = db_path_v2 if i % 2 == 0 else db_path
                    ack = admin.reload(path=target)
                    assert ack["epoch"] == i + 2
                    # Post-ack, a *fresh* connection must answer from the
                    # new database — the no-stale-answers guarantee.
                    with PointsToClient(*server.address) as probe:
                        count = probe.query(
                            "points-to", {"variable": "Main.main:a"}
                        )["count"]
                        assert count == expected[target], (
                            f"stale answer after swap {i}: got {count}, "
                            f"expected {expected[target]}"
                        )
        finally:
            stop.set()
            for t in workers:
                t.join(timeout=10.0)
        assert not failures, failures
        assert len(answers) > 0
        assert server.epoch == 101
        assert server.metrics.reloads_ok == 100
        assert server.metrics.reloads_failed == 0


class TestReloadApi:
    def test_reload_without_source_path_fails_typed(self, program):
        # A database compiled in-process (never saved) has no file to
        # reload from.  (The shared compiled_db fixture won't do: saving
        # it for the db_path fixture *sets* its path.)
        from repro.serve import compile_database

        db = compile_database(program, source_path="in-process.mj")
        srv = PointsToServer(db, port=0)
        with pytest.raises(QueryError) as exc:
            srv.reload()
        assert exc.value.code == "reload-failed"
        assert srv.metrics.reloads_failed == 1

    def test_concurrent_reloads_serialize(self, server, db_path, db_path_v2):
        errors = []

        def swap(path):
            try:
                server.reload(path=path)
            except QueryError as err:
                errors.append(err)

        threads = [
            threading.Thread(target=swap, args=(p,))
            for p in (db_path_v2, db_path, db_path_v2, db_path)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        # Four successful reloads, serialized: epochs 2..5, no gaps.
        assert server.epoch == 5
        assert server.metrics.reloads_ok == 4
