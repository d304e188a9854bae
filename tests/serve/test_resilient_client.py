"""Resilient client: reconnect, backoff, circuit breaker, retry-after.

The clock is injected everywhere (recording ``sleep``, fake
``monotonic``, seeded ``rng``), so the whole failure ladder runs in
milliseconds of real time.
"""

import random
import socket
import threading
import time

import pytest

from repro.serve import (
    CircuitBreaker,
    ConnectionLostError,
    PointsToClient,
    PointsToServer,
    ResilientClient,
    ServerError,
)
from repro.serve.engine import QueryError


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class FakeClock:
    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestConnectionLostError:
    def test_is_both_query_and_connection_error(self):
        err = ConnectionLostError("gone")
        assert isinstance(err, QueryError)
        assert isinstance(err, ConnectionError)
        assert err.code == "connection-lost"

    def test_refused_connect_raises_typed(self):
        with pytest.raises(ConnectionLostError):
            PointsToClient("127.0.0.1", _free_port(), timeout=1.0)

    def test_server_eof_raises_typed(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0, max_requests_per_connection=1)
        srv.start()
        try:
            client = PointsToClient(*srv.address)
            assert client.ping()  # request 1: answered, then recycled
            with pytest.raises(ConnectionLostError):
                client.ping()  # request 2: EOF from the recycler
            client.close()
        finally:
            srv.shutdown(drain_timeout=2.0)


class TestCircuitBreaker:
    def test_closed_to_open_to_half_open_to_closed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, 5.0, monotonic=clock.monotonic)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(QueryError) as exc:
            breaker.allow()
        assert exc.value.code == "circuit-open"
        assert exc.value.details["retry_after_ms"] > 0
        clock.now += 5.1
        breaker.allow()  # half-open probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, 5.0, monotonic=clock.monotonic)
        breaker.record_failure()
        breaker.record_failure()
        clock.now += 5.1
        breaker.allow()
        breaker.record_failure()  # the probe failed: snap back open
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(QueryError):
            breaker.allow()


class TestResilientClient:
    def test_reconnects_across_connection_recycling(self, loaded_db):
        # max_requests=1 makes the server hang up after every answer —
        # the harshest reconnect workout there is.
        srv = PointsToServer(loaded_db, port=0, max_requests_per_connection=1)
        srv.start()
        try:
            clock = FakeClock()
            with ResilientClient(
                *srv.address, sleep=clock.sleep, rng=random.Random(7)
            ) as client:
                for _ in range(5):
                    result = client.query(
                        "points-to", {"variable": "Main.main:a"}
                    )
                    assert result["count"] == 1
                assert client.reconnects >= 5
        finally:
            srv.shutdown(drain_timeout=2.0)

    def test_backoff_ladder_and_exhaustion(self):
        clock = FakeClock()
        client = ResilientClient(
            "127.0.0.1",
            _free_port(),
            timeout=0.5,
            max_retries=3,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=10.0,
            jitter=0.0,
            failure_threshold=10,  # keep the breaker out of this test
            sleep=clock.sleep,
            rng=random.Random(7),
        )
        with pytest.raises(ConnectionLostError):
            client.ping()
        # Three retries -> three backoffs: 0.1, 0.2, 0.4 (no jitter).
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])
        assert client.retries == 3

    def test_breaker_opens_and_fails_fast(self):
        clock = FakeClock()
        client = ResilientClient(
            "127.0.0.1",
            _free_port(),
            timeout=0.5,
            max_retries=1,
            failure_threshold=2,
            reset_after=60.0,
            sleep=clock.sleep,
            rng=random.Random(7),
        )
        with pytest.raises(ConnectionLostError):
            client.ping()  # 2 attempts -> threshold reached, breaker opens
        assert client.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(QueryError) as exc:
            client.ping()  # no socket work at all: fail fast
        assert exc.value.code == "circuit-open"

    def test_half_open_probe_recovers_when_server_returns(self, loaded_db):
        clock = FakeClock()
        port = _free_port()
        client = ResilientClient(
            "127.0.0.1",
            port,
            timeout=1.0,
            max_retries=0,
            failure_threshold=1,
            reset_after=30.0,
            sleep=clock.sleep,
            monotonic=clock.monotonic,
            rng=random.Random(7),
        )
        with pytest.raises(ConnectionLostError):
            client.ping()
        assert client.breaker.state == CircuitBreaker.OPEN
        srv = PointsToServer(loaded_db, host="127.0.0.1", port=port)
        srv.start()
        try:
            clock.now += 31.0  # reset window passes; next call is the probe
            assert client.ping()
            assert client.breaker.state == CircuitBreaker.CLOSED
            client.close()
        finally:
            srv.shutdown(drain_timeout=2.0)

    def test_honors_retry_after_on_overload(self, loaded_db, monkeypatch):
        srv = PointsToServer(loaded_db, port=0, max_pending=1, retry_after_ms=70)
        srv.start()
        release = threading.Event()

        def hog(args, budget):
            release.wait(10.0)
            return {"hog": True}

        monkeypatch.setattr(srv.engine, "_eval_points_to", hog)
        occupier = threading.Thread(
            target=lambda: PointsToClient(*srv.address).query(
                "points-to", {"variable": "Main.main:a"}, no_cache=True
            ),
            daemon=True,
        )
        occupier.start()
        try:
            deadline = time.monotonic() + 5.0
            while srv.admission.pending == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            sleeps = []

            def sleeping(seconds):
                sleeps.append(seconds)
                if srv.admission.pending:  # free the slot mid-backoff
                    release.set()
                time.sleep(seconds)

            with ResilientClient(
                *srv.address, max_retries=8, sleep=sleeping, rng=random.Random(7)
            ) as client:
                result = client.query("escape", {"heap": "Main.main@0:new Object"})
                assert "verdict" in result
                assert client.overload_waits >= 1
            # The overload wait used the server's hint (>= 70ms base).
            assert any(s >= 0.07 for s in sleeps)
        finally:
            release.set()
            srv.shutdown(drain_timeout=2.0)

    def test_non_retryable_errors_propagate_immediately(self, loaded_db):
        srv = PointsToServer(loaded_db, port=0)
        srv.start()
        try:
            clock = FakeClock()
            with ResilientClient(
                *srv.address, sleep=clock.sleep, rng=random.Random(7)
            ) as client:
                with pytest.raises(ServerError) as exc:
                    client.query("points-to", {"variable": "no.such:var"})
                assert exc.value.code == "not-found"
                assert clock.sleeps == []  # no retry, no backoff
        finally:
            srv.shutdown(drain_timeout=2.0)


class TestCliExitCodes:
    def test_server_unreachable_exits_69(self, capsys):
        from repro.cli import EXIT_UNAVAILABLE, main

        code = main(
            [
                "query",
                "--kind",
                "points-to",
                "--var",
                "Main.main:a",
                "--server",
                f"127.0.0.1:{_free_port()}",
            ]
        )
        assert code == EXIT_UNAVAILABLE
        err = capsys.readouterr().err.lower()
        # Either the transport error or the breaker (opened mid-ladder)
        # surfaces — both are availability failures mapped to 69.
        assert "connection" in err or "circuit" in err

    def test_server_query_roundtrip(self, loaded_db, capsys):
        from repro.cli import EXIT_OK, main

        srv = PointsToServer(loaded_db, port=0)
        srv.start()
        try:
            code = main(
                [
                    "query",
                    "--kind",
                    "points-to",
                    "--var",
                    "Main.main:a",
                    "--server",
                    f"{srv.host}:{srv.port}",
                ]
            )
            assert code == EXIT_OK
            assert "Main.main@0:new Object" in capsys.readouterr().out
        finally:
            srv.shutdown(drain_timeout=2.0)

    def test_bad_server_spec_exits_usage(self, capsys):
        from repro.cli import EXIT_USAGE, main

        code = main(
            [
                "query",
                "--kind",
                "points-to",
                "--var",
                "x",
                "--server",
                "nonsense",
            ]
        )
        assert code == EXIT_USAGE
