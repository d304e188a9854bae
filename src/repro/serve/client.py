"""Clients for the demand-query protocol: blocking and resilient.

:class:`PointsToClient` is the simple blocking client — one socket,
sequential request ids, context-manager lifecycle::

    with PointsToClient("127.0.0.1", 7777) as client:
        hello = client.hello()
        pts = client.query("points-to", {"variable": "Main.main:s"})

A server-side error response raises :class:`ServerError` carrying the
typed code (and any structured details, e.g. ``retry_after_ms`` on an
``overloaded`` rejection); transport problems raise
:class:`ConnectionLostError`, which lives in *both* hierarchies — it is
a :class:`QueryError` (code ``connection-lost``, so the CLI's one
exit-code map covers it) and a :class:`ConnectionError` (so existing
``except ConnectionError`` sites keep working).

:class:`ResilientClient` wraps the blocking client for always-on use
against a server that restarts, hot-swaps, and sheds load:

* **reconnect** — a lost connection is re-established transparently on
  the next call,
* **retry with backoff** — transport failures retry up to
  ``max_retries`` times with exponential backoff and jitter; the clock
  (``sleep``/``monotonic``/``rng``) is injectable, so tests run the
  whole ladder in microseconds,
* **retry-after honoring** — an ``overloaded`` rejection sleeps for the
  server's ``retry_after_ms`` hint (these retries do not trip the
  breaker: a load-shedding server is *healthy*),
* **circuit breaker** — after ``failure_threshold`` consecutive
  transport failures the breaker opens and calls fail fast with a typed
  ``circuit-open`` error until ``reset_after`` seconds pass; the first
  call after that runs as a half-open probe whose outcome closes or
  re-opens the circuit.

Used by ``repro query --server``, the serve and chaos benchmarks, the
CI smoke script, and the protocol tests.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Callable, Dict, List, Optional

from ..runtime.supervisor import backoff_delay
from .engine import QueryError
from .protocol import MAX_LINE_BYTES, LineReader, encode

__all__ = [
    "CircuitBreaker",
    "ConnectionLostError",
    "PointsToClient",
    "ResilientClient",
    "ServerError",
]


class ConnectionLostError(QueryError, ConnectionError):
    """The transport died: refused connect, reset, EOF, or a garbled
    response stream.  A :class:`QueryError` with code ``connection-lost``
    *and* a :class:`ConnectionError`, so both the typed exit-code map and
    pre-existing transport handlers see it."""

    def __init__(self, message: str) -> None:
        QueryError.__init__(self, "connection-lost", message)


class ServerError(Exception):
    """The server answered with ``ok: false``."""

    def __init__(
        self, code: str, message: str, details: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.details = details or {}


class PointsToClient:
    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7777,
        *,
        timeout: Optional[float] = 30.0,
    ) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as err:
            raise ConnectionLostError(
                f"cannot connect to {host}:{port}: {err}"
            ) from err
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = LineReader(self._sock, MAX_LINE_BYTES)
        self._next_id = 0

    # ------------------------------------------------------------------

    def __enter__(self) -> "PointsToClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------

    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, return the raw response object."""
        obj = dict(obj)
        self._next_id += 1
        obj.setdefault("id", self._next_id)
        try:
            self._sock.sendall(encode(obj))
            line = self._reader.read_line()
        except (OSError, ValueError) as err:
            raise ConnectionLostError(f"transport failure: {err}") from err
        if line is None:
            raise ConnectionLostError("server closed the connection")
        try:
            response = json.loads(line)
        except ValueError as err:
            raise ConnectionLostError(
                f"unparseable response line: {err}"
            ) from err
        if response.get("id") not in (obj["id"], None):
            raise ConnectionLostError(
                f"response id {response.get('id')!r} does not match "
                f"request id {obj['id']!r}"
            )
        return response

    def _result(self, response: Dict[str, Any]) -> Any:
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServerError(
            error.get("code", "server-error"),
            error.get("message", "unspecified server error"),
            details={
                k: v for k, v in error.items() if k not in ("code", "message")
            },
        )

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        return self._result(self.request({"verb": "hello"}))

    def ping(self) -> bool:
        return bool(self._result(self.request({"verb": "ping"}))["pong"])

    def health(self) -> Dict[str, Any]:
        return self._result(self.request({"verb": "health"}))

    def query(
        self,
        kind: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        timeout_s: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        no_cache: bool = False,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {"verb": "query", "kind": kind, "args": args or {}}
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if no_cache:
            request["no_cache"] = True
        return self._result(self.request(request))

    def batch(self, queries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send query dicts (``{"kind": ..., "args": ...}``); returns the
        per-query response objects (each ``ok``/``error`` in order)."""
        subs = [dict(q, verb="query") for q in queries]
        result = self._result(self.request({"verb": "batch", "requests": subs}))
        return result["results"]

    def stats(self) -> Dict[str, Any]:
        return self._result(self.request({"verb": "stats"}))

    def reload(
        self,
        path: Optional[str] = None,
        expect_db_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {"verb": "reload"}
        if path is not None:
            request["path"] = path
        if expect_db_id is not None:
            request["expect_db_id"] = expect_db_id
        return self._result(self.request(request))

    def shutdown(self) -> Dict[str, Any]:
        return self._result(self.request({"verb": "shutdown"}))


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    Single-threaded by design: each :class:`ResilientClient` owns one
    breaker and one socket.  ``allow`` raises a typed ``circuit-open``
    :class:`QueryError` while the circuit is open; once ``reset_after``
    seconds pass it lets exactly one half-open probe through, and that
    probe's outcome (``record_success``/``record_failure``) closes or
    re-opens the circuit.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 5.0,
        *,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_after = float(reset_after)
        self._monotonic = monotonic
        self.state = self.CLOSED
        self.failures = 0
        self._opened_at = 0.0

    def allow(self) -> None:
        if self.state == self.OPEN:
            elapsed = self._monotonic() - self._opened_at
            if elapsed < self.reset_after:
                remaining = self.reset_after - elapsed
                raise QueryError(
                    "circuit-open",
                    f"circuit breaker open after {self.failures} consecutive "
                    f"failures; retry in {remaining:.2f}s",
                    details={"retry_after_ms": int(remaining * 1000) + 1},
                )
            self.state = self.HALF_OPEN

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            self.state = self.OPEN
            self._opened_at = self._monotonic()


class ResilientClient:
    """Self-healing client: reconnect, backoff, breaker, retry-after.

    The retry loop distinguishes three failure classes:

    * transport failures (:class:`ConnectionLostError`) — drop the
      socket, charge the breaker, back off exponentially, retry;
    * ``overloaded`` rejections — sleep for the server's
      ``retry_after_ms`` hint and retry *without* charging the breaker
      (shedding load is correct behavior, not a failure);
    * every other typed error — propagate immediately (retrying a
      ``bad-argument`` or ``deadline-exceeded`` cannot help).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7777,
        *,
        timeout: Optional[float] = 30.0,
        max_retries: int = 5,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        jitter: float = 0.1,
        failure_threshold: int = 5,
        reset_after: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self.breaker = CircuitBreaker(
            failure_threshold, reset_after, monotonic=monotonic
        )
        self._client: Optional[PointsToClient] = None
        # Observability counters (the chaos bench reads these).
        self.reconnects = 0
        self.retries = 0
        self.overload_waits = 0

    # ------------------------------------------------------------------

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _connected(self) -> PointsToClient:
        if self._client is None:
            self._client = PointsToClient(
                self.host, self.port, timeout=self.timeout
            )
            self.reconnects += 1
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    # ------------------------------------------------------------------

    def call(self, obj: Dict[str, Any]) -> Any:
        """Send one request with full retry semantics; returns the typed
        result (raises :class:`ServerError`/:class:`QueryError`)."""
        last: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            self.breaker.allow()
            try:
                client = self._connected()
                response = client.request(obj)
            except ConnectionLostError as err:
                self.breaker.record_failure()
                self._drop()
                last = err
                if attempt < self.max_retries:
                    self.retries += 1
                    self._sleep(backoff_delay(
                        attempt + 1, self.backoff_base, self.backoff_factor,
                        self.backoff_max, self.jitter, self._rng,
                    ))
                    continue
                raise
            self.breaker.record_success()
            try:
                return client._result(response)
            except ServerError as err:
                if err.code == "overloaded" and attempt < self.max_retries:
                    hint_ms = err.details.get("retry_after_ms", 100)
                    self.overload_waits += 1
                    self.retries += 1
                    self._sleep(float(hint_ms) / 1000.0)
                    continue
                raise
        raise last if last is not None else ConnectionLostError(
            "retry loop exhausted without a response"
        )

    # ------------------------------------------------------------------
    # Verbs (same surface as PointsToClient)
    # ------------------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        return self.call({"verb": "hello"})

    def ping(self) -> bool:
        return bool(self.call({"verb": "ping"})["pong"])

    def health(self) -> Dict[str, Any]:
        return self.call({"verb": "health"})

    def query(
        self,
        kind: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        timeout_s: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        no_cache: bool = False,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {"verb": "query", "kind": kind, "args": args or {}}
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if no_cache:
            request["no_cache"] = True
        return self.call(request)

    def batch(self, queries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        subs = [dict(q, verb="query") for q in queries]
        return self.call({"verb": "batch", "requests": subs})["results"]

    def stats(self) -> Dict[str, Any]:
        return self.call({"verb": "stats"})

    def reload(
        self,
        path: Optional[str] = None,
        expect_db_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {"verb": "reload"}
        if path is not None:
            request["path"] = path
        if expect_db_id is not None:
            request["expect_db_id"] = expect_db_id
        return self.call(request)

    def shutdown(self) -> Dict[str, Any]:
        return self.call({"verb": "shutdown"})
