"""Wire-protocol fault matrix and concurrency behavior of the server.

Every test runs a real in-process :class:`PointsToServer` on an
ephemeral port and talks to it over real sockets — the assertions cover
the acceptance matrix: malformed JSON, oversized requests, unknown
verbs, mid-request disconnects, budget-blowing queries, connection
limits, and concurrent clients hammering one cached query.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro.serve import (
    MAX_BATCH,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    PointsToClient,
    PointsToServer,
    ServerError,
)


@pytest.fixture()
def server(loaded_db):
    srv = PointsToServer(loaded_db, port=0, log=io.StringIO())
    srv.start()
    yield srv
    srv.shutdown(drain_timeout=3.0)


@pytest.fixture()
def client(server):
    with PointsToClient(*server.address) as c:
        yield c


def _raw(server, payload: bytes, count: int = 1):
    """Send raw bytes on a fresh connection, read ``count`` responses."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(count)]


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestHappyPath:
    def test_hello(self, server, client):
        hello = client.hello()
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["db"]["db_id"] == server.db.db_id

    def test_ping(self, client):
        assert client.ping() is True

    def test_query_roundtrip(self, client):
        result = client.query("points-to", {"variable": "Main.main:a"})
        assert result["count"] >= 1

    def test_batch_mixed(self, client):
        responses = client.batch(
            [
                {"kind": "points-to", "args": {"variable": "Main.main:a"}},
                {"kind": "points-to", "args": {"variable": "No.such:var"}},
                {"kind": "escape", "args": {"heap": "<global>"}},
            ]
        )
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert responses[1]["error"]["code"] == "not-found"
        assert responses[2]["ok"] is True

    def test_stats_verb(self, client):
        client.query("points-to", {"variable": "Main.main:a"})
        stats = client.stats()
        assert stats["requests_total"] >= 1
        assert "points-to" in stats["queries"]
        assert stats["engine"]["db_id"]


class TestFaultMatrix:
    def test_malformed_json(self, server):
        (resp,) = _raw(server, b'{"verb": nope}\n')
        assert resp["ok"] is False
        assert resp["error"]["code"] == "parse-error"

    def test_non_object_request(self, server):
        (resp,) = _raw(server, b'"just a string"\n')
        assert resp["error"]["code"] == "invalid-request"

    def test_non_string_verb(self, server):
        (resp,) = _raw(server, b'{"verb": 7}\n')
        assert resp["error"]["code"] == "invalid-request"

    def test_unknown_verb(self, server):
        (resp,) = _raw(server, b'{"verb": "frobnicate"}\n')
        assert resp["error"]["code"] == "unknown-verb"

    def test_unknown_query_kind(self, client):
        with pytest.raises(ServerError) as exc:
            client.query("dominators", {})
        assert exc.value.code == "unknown-query"

    def test_oversized_request_then_recovery(self, server):
        huge = b'{"verb": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        ping = b'{"id": 2, "verb": "ping"}\n'
        big, pong = _raw(server, huge + ping, count=2)
        assert big["error"]["code"] == "too-large"
        assert pong["ok"] is True

    def test_oversized_batch(self, server):
        subs = ",".join('{"verb":"query","kind":"x"}' for _ in range(MAX_BATCH + 1))
        (resp,) = _raw(
            server, b'{"verb":"batch","requests":[' + subs.encode() + b"]}\n"
        )
        assert resp["error"]["code"] == "too-large"

    def test_mid_request_disconnect_survived(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b'{"verb": "pi')  # no newline — partial request
        sock.close()
        # The handler must drop the partial line and exit; the server
        # keeps answering new connections.
        assert _wait(lambda: not server.handler_threads())
        (resp,) = _raw(server, b'{"verb": "ping"}\n')
        assert resp["ok"] is True

    def test_budget_exceeded_keeps_connection_open(self, client):
        with pytest.raises(ServerError) as exc:
            client.query(
                "points-to", {"variable": "Main.main:a"},
                timeout_s=0.0, no_cache=True,
            )
        assert exc.value.code == "budget-exceeded"
        assert client.ping() is True

    def test_boolean_timeout_rejected(self, server):
        (resp,) = _raw(
            server,
            b'{"verb": "query", "kind": "points-to", '
            b'"args": {"variable": "Main.main:a"}, "timeout_s": true}\n',
        )
        assert resp["error"]["code"] == "invalid-request"

    def test_malformed_batch_entries_answer_in_place(self, client):
        responses = client.batch(
            [
                {"kind": "points-to", "args": {"variable": "Main.main:a"}},
                {"kind": "points-to", "args": ["Main.main:a"]},
                {"kind": "points-to", "args": {"variable": "Main.main:b"},
                 "timeout_s": "soon", "no_cache": True},
                {"kind": "points-to", "args": {"variable": "Main.main:a"},
                 "timeout_s": True},
                {"kind": 7},
                {"kind": "escape", "args": {"heap": "<global>"}},
            ]
        )
        codes = [r["ok"] or r["error"]["code"] for r in responses]
        assert codes == [
            True, "invalid-request", "invalid-request", "invalid-request",
            "invalid-request", True,
        ]
        assert responses[0]["result"]["count"] >= 1

    def test_blank_lines_ignored(self, server):
        (resp,) = _raw(server, b'\n\n{"verb": "ping"}\n')
        assert resp["ok"] is True


class TestLimits:
    def test_max_requests_per_connection_recycles(self, loaded_db):
        srv = PointsToServer(
            loaded_db, port=0, max_requests_per_connection=2, log=io.StringIO()
        )
        srv.start()
        try:
            with socket.create_connection(srv.address, timeout=5) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"verb": "ping"}\n' * 3)
                assert json.loads(reader.readline())["ok"] is True
                assert json.loads(reader.readline())["ok"] is True
                assert reader.readline() == b""  # recycled after 2
        finally:
            srv.shutdown(drain_timeout=3.0)

    def test_max_connections_refused(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0, max_connections=1, log=io.StringIO())
        srv.start()
        try:
            with PointsToClient(*srv.address) as first:
                assert first.ping() is True
                with socket.create_connection(srv.address, timeout=5) as second:
                    refusal = json.loads(second.makefile("rb").readline())
                assert refusal["error"]["code"] == "shutting-down"
                assert first.ping() is True  # the survivor is unaffected
        finally:
            srv.shutdown(drain_timeout=3.0)

    def test_idle_timeout_closes_connection(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0, idle_timeout=0.2, log=io.StringIO())
        srv.start()
        try:
            with socket.create_connection(srv.address, timeout=5) as sock:
                reader = sock.makefile("rb")
                time.sleep(0.6)
                assert reader.readline() == b""
        finally:
            srv.shutdown(drain_timeout=3.0)


class TestConcurrency:
    def test_concurrent_clients_one_compute(self, loaded_db, monkeypatch):
        """N clients hammer the same query: one evaluator run, the rest
        are (engine or wire) cache hits."""
        srv = PointsToServer(loaded_db, port=0, log=io.StringIO())
        original = srv.engine._eval_points_to

        def slow(args, budget):
            time.sleep(0.3)
            return original(args, budget)

        monkeypatch.setattr(srv.engine, "_eval_points_to", slow)
        srv.start()
        clients = 8
        results, errors = [], []

        def worker():
            try:
                with PointsToClient(*srv.address) as c:
                    results.append(
                        c.query("points-to", {"variable": "Main.main:a"})
                    )
            except Exception as err:  # noqa: BLE001 - collected for assert
                errors.append(err)

        try:
            threads = [threading.Thread(target=worker) for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
            assert not errors
            assert len(results) == clients
            assert all(r == results[0] for r in results)
            snap = srv.metrics.snapshot()["queries"]["points-to"]
            assert snap["computes"] == 1
            assert snap["cache_hits"] == clients - 1
            assert snap["requests"] == clients
        finally:
            srv.shutdown(drain_timeout=3.0)


class TestShutdown:
    def test_shutdown_verb_stops_server(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0, log=io.StringIO())
        srv.start()
        with PointsToClient(*srv.address) as c:
            assert c.shutdown()["stopping"] is True
        assert _wait(lambda: not srv._accept_thread.is_alive())
        srv.shutdown(drain_timeout=3.0)  # idempotent
        assert _wait(lambda: not srv.handler_threads())

    def test_no_leaked_threads_after_shutdown(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0, log=io.StringIO())
        srv.start()
        with PointsToClient(*srv.address) as c:
            c.ping()
        srv.shutdown(drain_timeout=3.0)
        assert _wait(
            lambda: not any(
                t.name.startswith("serve-") for t in threading.enumerate()
            )
        )

    def test_metrics_dumped_on_shutdown(self, loaded_db):
        log = io.StringIO()
        srv = PointsToServer(loaded_db, port=0, log=log)
        srv.start()
        with PointsToClient(*srv.address) as c:
            c.query("points-to", {"variable": "Main.main:a"})
        srv.shutdown(drain_timeout=3.0)
        text = log.getvalue()
        assert "final metrics" in text
        assert "points-to" in text
