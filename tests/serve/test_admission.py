"""Admission control and deadline propagation.

Overload must be *shed*, not queued into collapse: a bounded pending
limit, per-kind caps, a ``retry_after_ms`` hint that scales with
pressure, and client deadlines enforced at dispatch (work whose
deadline passed in the queue never touches a BDD) and mid-query
(through the engine's budget watchdog).
"""

import threading
import time

import pytest

from repro.runtime.errors import SolverTimeout
from repro.serve import PointsToClient, PointsToServer, ServerError


def _slow_evaluator(delay, release=None):
    """An evaluator that holds its admission slot for ``delay`` seconds
    (optionally until ``release`` is set), then checks its budget the
    way real evaluators do in the decode loop."""

    def evaluate(args, budget):
        if release is not None:
            release.wait(delay)
        else:
            time.sleep(delay)
        if budget is not None and budget.expired():
            raise SolverTimeout("deadline passed during evaluation")
        return {"ok": True, "slow": True}

    return evaluate


@pytest.fixture()
def make_server(loaded_db):
    servers = []

    def build(**kwargs):
        srv = PointsToServer(loaded_db, port=0, **kwargs)
        servers.append(srv)
        return srv

    yield build
    for srv in servers:
        srv.shutdown(drain_timeout=2.0)


def _fire_slow(server, release, monkeypatch):
    """Occupy one admission slot with a slow no-cache query."""
    monkeypatch.setattr(
        server.engine, "_eval_points_to", _slow_evaluator(10.0, release)
    )

    def run():
        with PointsToClient(*server.address) as client:
            try:
                client.query(
                    "points-to", {"variable": "Main.main:a"}, no_cache=True
                )
            except (ServerError, ConnectionError):
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while server.admission.pending == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.admission.pending == 1
    return thread


class TestOverload:
    def test_pending_limit_rejects_typed(self, make_server, monkeypatch):
        server = make_server(max_pending=1, retry_after_ms=150)
        server.start()
        release = threading.Event()
        _fire_slow(server, release, monkeypatch)
        try:
            with PointsToClient(*server.address) as client:
                with pytest.raises(ServerError) as exc:
                    client.query("points-to", {"variable": "Main.main:b"})
                assert exc.value.code == "overloaded"
                hint = exc.value.details["retry_after_ms"]
                # Base 150, scaled by (1 + pending/max_pending) = 2x.
                assert 150 <= hint <= 300
                # The health probe still answers under full overload.
                health = client.health()
                assert health["status"] == "ok"
                assert health["pending"] == 1
                # And ping/hello/stats are exempt from admission too.
                assert client.ping()
                assert client.stats()["admission"]["overloaded"] == 1
        finally:
            release.set()

    def test_per_kind_cap(self, make_server, monkeypatch):
        server = make_server(
            max_pending=64, kind_limits={"points-to": 1}, retry_after_ms=100
        )
        server.start()
        release = threading.Event()
        _fire_slow(server, release, monkeypatch)
        try:
            with PointsToClient(*server.address) as client:
                # Same kind: capped.
                with pytest.raises(ServerError) as exc:
                    client.query("points-to", {"variable": "Main.main:b"})
                assert exc.value.code == "overloaded"
                assert "points-to" in exc.value.message
                # A different kind still gets through.
                result = client.query("escape", {"heap": "Main.main@0:new Object"})
                assert result["verdict"] in ("escaped", "captured", "untracked")
        finally:
            release.set()

    def test_slots_release_after_completion(self, make_server):
        server = make_server(max_pending=1)
        server.start()
        with PointsToClient(*server.address) as client:
            for _ in range(5):
                client.query(
                    "points-to", {"variable": "Main.main:a"}, no_cache=True
                )
            assert server.admission.pending == 0

    def test_overload_counted_separately_from_errors(self, make_server, monkeypatch):
        server = make_server(max_pending=1)
        server.start()
        release = threading.Event()
        _fire_slow(server, release, monkeypatch)
        try:
            with PointsToClient(*server.address) as client:
                with pytest.raises(ServerError):
                    client.query("points-to", {"variable": "Main.main:b"})
                snap = client.stats()
                assert snap["admission"]["overloaded"] == 1
                assert "overloaded" not in snap["protocol_errors"]
        finally:
            release.set()


class TestDeadlines:
    def test_deadline_already_past_at_dispatch(self, make_server):
        server = make_server()
        server.start()
        with PointsToClient(*server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.query(
                    "points-to", {"variable": "Main.main:a"}, deadline_ms=0
                )
            assert exc.value.code == "deadline-exceeded"
            assert server.metrics.deadline_rejections == 1

    def test_deadline_enforced_mid_query(self, make_server, monkeypatch):
        server = make_server()
        server.start()
        monkeypatch.setattr(server.engine, "_eval_points_to", _slow_evaluator(0.25))
        with PointsToClient(*server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.query(
                    "points-to",
                    {"variable": "Main.main:a"},
                    deadline_ms=50,
                    no_cache=True,
                )
            assert exc.value.code == "deadline-exceeded"

    def test_generous_deadline_answers(self, make_server):
        server = make_server()
        server.start()
        with PointsToClient(*server.address) as client:
            result = client.query(
                "points-to", {"variable": "Main.main:a"}, deadline_ms=30_000
            )
            assert result["count"] == 1

    def test_deadline_vs_timeout_binding_constraint(self, make_server, monkeypatch):
        # A tight server timeout with a loose client deadline must still
        # report budget-exceeded (the timeout bound), not
        # deadline-exceeded — and vice versa.
        server = make_server()
        server.start()
        monkeypatch.setattr(server.engine, "_eval_points_to", _slow_evaluator(0.25))
        with PointsToClient(*server.address) as client:
            with pytest.raises(ServerError) as exc:
                client.query(
                    "points-to",
                    {"variable": "Main.main:a"},
                    timeout_s=0.05,
                    deadline_ms=30_000,
                    no_cache=True,
                )
            assert exc.value.code == "budget-exceeded"

    def test_batch_shares_connection_deadline(self, make_server, monkeypatch):
        server = make_server()
        server.start()
        monkeypatch.setattr(server.engine, "_eval_points_to", _slow_evaluator(0.2))
        with PointsToClient(*server.address) as client:
            results = client.batch(
                [
                    {
                        "kind": "points-to",
                        "args": {"variable": "Main.main:a"},
                        "no_cache": True,
                    },
                    {
                        "kind": "points-to",
                        "args": {"variable": "Main.main:b"},
                        "no_cache": True,
                    },
                ]
            )
            # Without a deadline both answer...
            assert all(r.get("ok") for r in results)

        server.engine.clear_cache()
        with PointsToClient(*server.address) as client:
            response = client.request(
                {
                    "verb": "batch",
                    "deadline_ms": 250,
                    "requests": [
                        {
                            "verb": "query",
                            "kind": "points-to",
                            "args": {"variable": "Main.main:a"},
                            "no_cache": True,
                        },
                        {
                            "verb": "query",
                            "kind": "points-to",
                            "args": {"variable": "Main.main:b"},
                            "no_cache": True,
                        },
                    ],
                }
            )
            # ...with a 250ms budget for the whole batch, the first
            # (200ms) fits and the second finds the deadline spent.
            results = response["result"]["results"]
            assert results[0]["ok"] is True
            assert results[1]["ok"] is False
            assert results[1]["error"]["code"] == "deadline-exceeded"
