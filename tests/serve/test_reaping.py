"""Connection reaping: idle-timeout and per-connection request recycling
under concurrent clients, plus the stale-replay regression test.

A response cache keyed on the raw request line alone would replay the
*old* database's answer to an identical line after a hot swap.  The
regression test pins down that it never does.
"""

import socket
import threading
import time

import pytest

from repro.serve import PointsToClient, PointsToServer


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture()
def make_server(loaded_db):
    servers = []

    def build(**kwargs):
        srv = PointsToServer(loaded_db, port=0, **kwargs)
        srv.start()
        servers.append(srv)
        return srv

    yield build
    for srv in servers:
        srv.shutdown(drain_timeout=2.0)


class TestIdleReaping:
    def test_idle_connections_reaped_concurrently(self, make_server):
        srv = make_server(idle_timeout=0.3)
        sockets = []
        for _ in range(6):
            client = PointsToClient(*srv.address)
            assert client.ping()
            sockets.append(client)
        assert _wait(lambda: len(srv.handler_threads()) == 6)
        # Go silent: every handler must time out and exit on its own.
        assert _wait(lambda: len(srv.handler_threads()) == 0, timeout=5.0)
        for client in sockets:
            # The reaped socket yields EOF client-side.
            assert client._reader.read_line() is None
            client.close()
        # The server is still perfectly healthy for new connections.
        with PointsToClient(*srv.address) as fresh:
            assert fresh.ping()

    def test_active_connection_survives_idle_window(self, make_server):
        srv = make_server(idle_timeout=0.4)
        with PointsToClient(*srv.address) as client:
            for _ in range(5):
                time.sleep(0.15)  # always inside the idle window
                assert client.ping()


class TestRequestRecycling:
    def test_max_requests_recycles_under_concurrency(self, make_server):
        srv = make_server(max_requests_per_connection=3)
        failures = []

        def worker(worker_id):
            try:
                for _round in range(3):
                    client = PointsToClient(*srv.address)
                    for _ in range(3):
                        assert client.ping()
                    # Request 4 of the connection: server has hung up.
                    try:
                        client.ping()
                        failures.append(f"{worker_id}: 4th request answered")
                    except ConnectionError:
                        pass
                    client.close()
            except Exception as err:  # noqa: BLE001
                failures.append(f"{worker_id}: {type(err).__name__}: {err}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert not failures, failures
        assert _wait(lambda: len(srv.handler_threads()) == 0)
        # Recycling never counts as a rejection.
        assert srv.metrics.connections_rejected == 0
        assert srv.metrics.connections_accepted >= 12


class TestWireCacheKeying:
    def test_identical_line_not_replayed_across_swap(
        self, make_server, db_path, db_path_v2
    ):
        """The regression: same request line before and after a hot swap
        must hit different cache slots and answer from the new epoch."""
        srv = make_server()
        line = (
            b'{"verb": "query", "id": 1, "kind": "points-to", '
            b'"args": {"variable": "Main.main:a"}}\n'
        )

        def raw_roundtrip():
            import json

            with socket.create_connection(srv.address, timeout=5.0) as sock:
                sock.sendall(line)
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("EOF")
                    buf += chunk
            return json.loads(buf)

        first = raw_roundtrip()
        assert first["result"]["count"] == 1
        again = raw_roundtrip()  # byte-identical line: result-cache hit
        assert again["result"]["count"] == 1
        srv.reload(path=db_path_v2)
        swapped = raw_roundtrip()
        assert swapped["result"]["count"] == 2, (
            "a cache replayed a stale pre-swap response"
        )
        srv.reload(path=db_path)
        back = raw_roundtrip()
        assert back["result"]["count"] == 1
