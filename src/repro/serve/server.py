"""Threaded demand-query server over a hot-swappable points-to database.

Thread-per-connection on top of :class:`QueryEngine` (which serializes
BDD work internally and answers cache hits without the lock).  Designed
to *survive misbehaving clients and operators*: malformed JSON,
oversized lines, unknown verbs, mid-request disconnects, budget-blowing
queries, corrupt reload candidates, and sustained overload all produce
typed error responses (or a dropped partial line) — never a dead server
or a leaked handler thread.

Always-on machinery (all of it off the query hot path):

* **Hot swap** — the ``reload`` verb (or ``SIGHUP``) loads a candidate
  ``.ptdb`` *off the request path*, validates it (checksum, format
  version, optional ``expect_db_id`` pin) and only then publishes it as
  a new epoch-tagged immutable :class:`_ServeState`.  Publication is a
  single attribute assignment — atomic under the GIL — so handlers
  either see the whole old state or the whole new one.  In-flight
  queries finish against the epoch they started on; new requests read
  the fresh pointer.  Each epoch owns its own engine, so the engine LRU
  dies with the epoch.  A candidate that fails validation is discarded and
  the old database keeps serving — the client gets a typed
  ``reload-failed`` error, never a half-swapped server.
* **Admission control** — a bounded pending-work limit
  (``max_pending``) with optional per-kind concurrency caps
  (``kind_limits``).  Excess work is rejected *before* any BDD work
  with a typed ``overloaded`` error carrying a ``retry_after_ms`` hint
  that scales with queue pressure.  ``health``/``ping``/``hello`` are
  exempt: a health probe must answer precisely when the server is too
  busy to do anything else.
* **Deadlines** — a client-supplied ``deadline_ms`` is stamped against
  ``time.monotonic()`` when the request line is *received*, checked
  again at dispatch (work whose deadline passed while queued is
  rejected without evaluation), and enforced mid-query through the
  engine's :class:`ResourceBudget` watchdog.
* **Fault seams** — ``serve.accept``, ``serve.dispatch`` and
  ``serve.swap`` fault points (plus ``serve.db_load`` inside the
  database loader) let the chaos harness inject deterministic partial
  failures; see :mod:`repro.runtime.faults`.

Operational limits, all constructor-tunable: ``max_connections``,
``max_requests_per_connection`` (load-balancer style recycling),
``idle_timeout``, per-request ``default_timeout``, ``max_pending``,
``kind_limits``, ``retry_after_ms``.

Shutdown is graceful: the listener stops accepting, in-flight handlers
get ``drain_timeout`` seconds to finish, and the metrics report is
written to the log stream.
"""

from __future__ import annotations

import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, TextIO

from .. import __version__ as TOOL_VERSION
from ..runtime import faults
from .database import PointsToDatabase
from .engine import QueryEngine, QueryError
from .metrics import Metrics
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    check_query,
    decode_request,
    encode,
    error_response,
    ok_response,
)

__all__ = ["PointsToServer"]

_DEFAULT_MAX_CONNECTIONS = 64
_DEFAULT_MAX_REQUESTS = 100_000
_DEFAULT_IDLE_TIMEOUT = 300.0
_DEFAULT_MAX_PENDING = 256
_DEFAULT_RETRY_AFTER_MS = 200


class _ServeState:
    """One epoch of the server: an immutable (db, engine) pair.

    Handlers capture ``server._state`` exactly once per request and use
    only the captured object afterwards, so a hot swap mid-request can
    never hand them a database from one epoch and an engine from
    another.
    """

    __slots__ = ("epoch", "db", "engine", "loaded_at")

    def __init__(self, epoch: int, db: PointsToDatabase, engine: QueryEngine) -> None:
        self.epoch = epoch
        self.db = db
        self.engine = engine
        self.loaded_at = time.monotonic()


class _Admission:
    """Bounded pending-work gate with optional per-kind caps.

    ``acquire`` either admits the request (caller must ``release``) or
    raises a typed ``overloaded`` :class:`QueryError` whose
    ``retry_after_ms`` hint grows with queue pressure — a client backing
    off by the hint naturally spreads retries instead of stampeding the
    moment one slot frees up.
    """

    __slots__ = ("max_pending", "kind_limits", "retry_after_ms",
                 "pending", "_per_kind", "_lock")

    def __init__(
        self,
        max_pending: int,
        kind_limits: Optional[Dict[str, int]],
        retry_after_ms: int,
    ) -> None:
        self.max_pending = max(1, int(max_pending))
        self.kind_limits = dict(kind_limits or {})
        self.retry_after_ms = max(1, int(retry_after_ms))
        self.pending = 0
        self._per_kind: Dict[str, int] = {}
        self._lock = threading.Lock()

    def acquire(self, kind: str) -> None:
        with self._lock:
            if self.pending >= self.max_pending:
                hint = self._hint()
                raise QueryError(
                    "overloaded",
                    f"pending-work limit of {self.max_pending} reached",
                    details={"retry_after_ms": hint},
                )
            cap = self.kind_limits.get(kind)
            if cap is not None and self._per_kind.get(kind, 0) >= cap:
                hint = self._hint()
                raise QueryError(
                    "overloaded",
                    f"concurrency cap of {cap} for {kind!r} queries reached",
                    details={"retry_after_ms": hint},
                )
            self.pending += 1
            self._per_kind[kind] = self._per_kind.get(kind, 0) + 1

    def release(self, kind: str) -> None:
        with self._lock:
            self.pending -= 1
            left = self._per_kind.get(kind, 1) - 1
            if left <= 0:
                self._per_kind.pop(kind, None)
            else:
                self._per_kind[kind] = left

    def _hint(self) -> int:
        # Called under the lock.  Base hint, scaled up to 2x as the
        # queue saturates.
        return int(self.retry_after_ms * (1 + self.pending / self.max_pending))

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pending": self.pending,
                "max_pending": self.max_pending,
                "kind_limits": dict(self.kind_limits),
                "per_kind": dict(self._per_kind),
            }


class PointsToServer:
    """Serves demand queries for one (hot-swappable) database over TCP."""

    def __init__(
        self,
        db: PointsToDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = 1024,
        default_timeout: Optional[float] = None,
        max_connections: int = _DEFAULT_MAX_CONNECTIONS,
        max_requests_per_connection: int = _DEFAULT_MAX_REQUESTS,
        idle_timeout: float = _DEFAULT_IDLE_TIMEOUT,
        max_pending: int = _DEFAULT_MAX_PENDING,
        kind_limits: Optional[Dict[str, int]] = None,
        retry_after_ms: int = _DEFAULT_RETRY_AFTER_MS,
        log: Optional[TextIO] = None,
    ) -> None:
        self.metrics = Metrics()
        self._cache_size = cache_size
        self._default_timeout = default_timeout
        self._state = _ServeState(1, db, self._build_engine(db))
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_requests_per_connection = max_requests_per_connection
        self.idle_timeout = idle_timeout
        self.admission = _Admission(max_pending, kind_limits, retry_after_ms)
        self._log = log if log is not None else sys.stderr
        self._reload_lock = threading.Lock()
        self._hup = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: Dict[int, threading.Thread] = {}
        self._handlers_lock = threading.Lock()
        self._next_conn = 0
        self._shutdown = threading.Event()
        self._finalize_lock = threading.Lock()
        self._finalized = False
        self._started = False
        self._started_at = time.monotonic()

    def _build_engine(self, db: PointsToDatabase) -> QueryEngine:
        return QueryEngine(
            db,
            cache_size=self._cache_size,
            default_timeout=self._default_timeout,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Epoch state (read-only views; the state object itself is swapped
    # atomically by reload())
    # ------------------------------------------------------------------

    @property
    def db(self) -> PointsToDatabase:
        return self._state.db

    @property
    def engine(self) -> QueryEngine:
        return self._state.engine

    @property
    def epoch(self) -> int:
        return self._state.epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and start accepting in a background thread."""
        if self._started:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        # A blocking accept() is not reliably woken by close() from another
        # thread; poll with a short timeout so shutdown always terminates
        # the accept loop.
        listener.settimeout(0.25)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._started = True
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._print(
            f"serving {self.db.db_id} on {self.host}:{self.port} "
            f"(protocol {PROTOCOL_VERSION}, repro {TOOL_VERSION})"
        )

    def install_signal_handlers(self) -> None:
        """Install the ``SIGHUP`` → reload handler (main thread only).

        The handler merely sets a flag; the reload itself runs from the
        :meth:`serve_forever` loop, because loading a database is far
        too much work for a signal context.
        """
        try:
            signal.signal(signal.SIGHUP, lambda _sig, _frm: self._hup.set())
        except (ValueError, OSError, AttributeError):
            pass  # non-main thread, or a platform without SIGHUP

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`.

        Also services ``SIGHUP`` reload requests: a failed reload is
        logged and the old database keeps serving.
        """
        if not self._started:
            self.start()
        self.install_signal_handlers()
        try:
            while not self._shutdown.wait(0.25):
                if self._hup.is_set():
                    self._hup.clear()
                    try:
                        self.reload()
                    except QueryError as err:
                        self._print(f"SIGHUP reload failed: {err}")
        except KeyboardInterrupt:
            pass
        self.shutdown()

    def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain handlers, dump metrics. Idempotent.

        The drain must run even when the ``shutdown`` *verb* already set
        the event (serve_forever calls here afterwards): a handler may
        still be writing that verb's response, so gate on a separate
        finalized flag, not on the event itself.
        """
        with self._finalize_lock:
            if self._finalized:
                return
            self._finalized = True
        self._shutdown.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout)
        deadline = time.monotonic() + drain_timeout
        for thread in self.handler_threads():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._print("server stopped; final metrics:")
        self._print(self.metrics.render())

    def handler_threads(self) -> List[threading.Thread]:
        with self._handlers_lock:
            return list(self._handlers.values())

    @property
    def address(self):
        return (self.host, self.port)

    def _print(self, message: str) -> None:
        try:
            print(message, file=self._log, flush=True)
        except ValueError:
            pass  # log stream already closed (interpreter teardown)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------

    def reload(
        self,
        path: Optional[str] = None,
        expect_db_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Load a candidate database and atomically swap it in.

        ``path`` defaults to the file the current database was loaded
        from (the common "artifact was rebuilt in place" flow).  The
        candidate is fully loaded and validated *before* publication;
        any failure — unreadable file, checksum mismatch, wrong format
        version, ``expect_db_id`` mismatch, injected ``serve.db_load``
        or ``serve.swap`` fault — leaves the current epoch serving and
        surfaces as a typed ``reload-failed`` error.

        Serialized under a lock so concurrent reload requests cannot
        interleave epoch numbers; queries are *not* blocked by the lock
        (they never take it).
        """
        with self._reload_lock:
            old = self._state
            target = path or old.db.path
            if not target:
                self.metrics.reload(False)
                raise QueryError(
                    "reload-failed",
                    "no path given and the current database has no source "
                    "path (compiled in-process?)",
                )
            backend = getattr(old.db.manager, "backend_name", None)
            try:
                candidate = PointsToDatabase.load(target, backend=backend)
                if expect_db_id and candidate.db_id != expect_db_id:
                    raise ValueError(
                        f"candidate db_id {candidate.db_id} does not match "
                        f"expected {expect_db_id}"
                    )
                # The swap seam sits after validation, before
                # publication: the window where a crash must prove the
                # old epoch still serves.
                if faults.armed:
                    faults.fire("serve.swap")
            except Exception as err:  # noqa: BLE001 - reload must never kill the server
                self.metrics.reload(False)
                raise QueryError(
                    "reload-failed",
                    f"candidate {target} rejected: {type(err).__name__}: {err}",
                )
            state = _ServeState(old.epoch + 1, candidate, self._build_engine(candidate))
            # Single attribute assignment = atomic publication under the
            # GIL.  In-flight requests hold the old state object; it
            # (and its engine LRU) is garbage once they drain.
            self._state = state
            self.metrics.reload(True)
            self._print(
                f"reloaded {state.db.db_id} from {target} "
                f"(epoch {old.epoch} -> {state.epoch})"
            )
            return {
                "reloaded": True,
                "epoch": state.epoch,
                "db_id": state.db.db_id,
                "previous_db_id": old.db.db_id,
                "path": str(target),
            }

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while not self._shutdown.is_set():
            try:
                conn, peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown
            if faults.armed:
                # Chaos seam: an injected accept fault drops this
                # connection on the floor (the client sees a reset, as
                # with a real accept-path failure) but never stops the
                # loop.
                try:
                    faults.fire("serve.accept")
                except Exception:  # noqa: BLE001
                    self.metrics.connection_rejected()
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
            with self._handlers_lock:
                active = len(self._handlers)
                if active >= self.max_connections:
                    self.metrics.connection_rejected()
                    self._refuse(conn)
                    continue
                self._next_conn += 1
                conn_id = self._next_conn
                thread = threading.Thread(
                    target=self._handle,
                    args=(conn, conn_id),
                    name=f"serve-conn-{conn_id}",
                    daemon=True,
                )
                self._handlers[conn_id] = thread
            self.metrics.connection_opened()
            thread.start()

    def _refuse(self, conn: socket.socket) -> None:
        try:
            conn.sendall(
                encode(
                    error_response(
                        None,
                        "shutting-down",
                        f"connection limit of {self.max_connections} reached",
                    )
                )
            )
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, conn: socket.socket, conn_id: int) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.idle_timeout)
            # C-level buffered readline keeps the per-request read cost
            # out of the Python interpreter (this loop is the server's
            # hot path).  The +2 headroom distinguishes "exactly at the
            # cap, newline included" from "over the cap".
            reader = conn.makefile("rb")
            served = 0
            while not self._shutdown.is_set():
                try:
                    line = reader.readline(MAX_LINE_BYTES + 2)
                except socket.timeout:
                    break  # idle connection
                except OSError:
                    break  # client went away mid-read
                received = time.monotonic()
                if not line:
                    break  # clean EOF
                if not line.endswith(b"\n"):
                    if len(line) > MAX_LINE_BYTES:
                        if not self._consume_oversized(reader):
                            break
                        self.metrics.protocol_error("too-large")
                        self._send_bytes(
                            conn,
                            encode(
                                error_response(
                                    None, "too-large",
                                    f"request line exceeds "
                                    f"{MAX_LINE_BYTES} bytes",
                                )
                            ),
                        )
                        continue
                    break  # mid-request disconnect: drop the partial line
                if not line.strip():
                    continue
                # Capture the epoch once, so a concurrent hot swap cannot
                # mix epochs within one request.
                response = self._dispatch(line, self._state, received)
                if not self._send_bytes(conn, encode(response)):
                    break
                served += 1
                if served >= self.max_requests_per_connection:
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._handlers_lock:
                self._handlers.pop(conn_id, None)

    @staticmethod
    def _consume_oversized(reader) -> bool:
        """Swallow the rest of an over-cap line; False on EOF/error."""
        try:
            while True:
                chunk = reader.readline(MAX_LINE_BYTES)
                if not chunk:
                    return False
                if chunk.endswith(b"\n"):
                    return True
        except (OSError, ValueError):
            return False

    def _send_bytes(self, conn: socket.socket, payload: bytes) -> bool:
        try:
            conn.sendall(payload)
            return True
        except (OSError, ValueError):
            return False

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, line: bytes, state: _ServeState, received: float):
        """Handle one request line and return its response.

        ``state`` is the epoch captured at receipt; ``received`` is the
        ``time.monotonic()`` instant the line arrived, which anchors the
        client's ``deadline_ms``.
        """
        self.metrics.request_started()
        admitted: Optional[str] = None
        request_id = None
        try:
            try:
                request = decode_request(line)
            except ProtocolError as err:
                self.metrics.protocol_error(err.code)
                return error_response(None, err.code, str(err))
            request_id = request.get("id")
            verb = request["verb"]
            deadline: Optional[float] = None
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None:
                deadline = received + float(deadline_ms) / 1000.0
            try:
                if faults.armed:
                    faults.fire("serve.dispatch")
                if verb in ("query", "batch"):
                    # Dequeue-time deadline check: work whose deadline
                    # passed while queued is rejected before admission,
                    # so it neither occupies a slot nor touches a BDD.
                    if deadline is not None and time.monotonic() >= deadline:
                        raise QueryError(
                            "deadline-exceeded",
                            f"deadline of {deadline_ms}ms passed before "
                            f"dispatch",
                        )
                    kind = request.get("kind") if verb == "query" else "batch"
                    admission_kind = kind if isinstance(kind, str) else "query"
                    self.admission.acquire(admission_kind)
                    admitted = admission_kind
                if verb == "query":
                    result = self._do_query(request, state, deadline)
                    return ok_response(request_id, result)
                if verb == "batch":
                    return ok_response(
                        request_id, self._do_batch(request, state, deadline)
                    )
                if verb == "hello":
                    return ok_response(request_id, self._do_hello(state))
                if verb == "stats":
                    return ok_response(request_id, self._do_stats(state))
                if verb == "ping":
                    return ok_response(request_id, {"pong": True})
                if verb == "health":
                    return ok_response(request_id, self._do_health(state))
                if verb == "reload":
                    result = self.reload(
                        path=request.get("path"),
                        expect_db_id=request.get("expect_db_id"),
                    )
                    return ok_response(request_id, result)
                if verb == "shutdown":
                    # Answer first; the event stops the accept/serve loops.
                    self._shutdown.set()
                    return ok_response(request_id, {"stopping": True})
                raise AssertionError(f"unreachable verb {verb!r}")
            except QueryError as err:
                if err.code in ("overloaded", "deadline-exceeded"):
                    self.metrics.admission_rejected(err.code)
                return error_response(
                    request_id, err.code, str(err), details=err.details
                )
            except Exception as err:  # noqa: BLE001 - must not kill the handler
                self.metrics.protocol_error("server-error")
                return error_response(
                    request_id, "server-error",
                    f"internal error: {type(err).__name__}: {err}",
                )
        finally:
            if admitted is not None:
                self.admission.release(admitted)
            self.metrics.request_finished()

    def _do_query(
        self,
        request: Dict[str, Any],
        state: _ServeState,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        return state.engine.query(
            request.get("kind"),
            request.get("args") or {},
            timeout=request.get("timeout_s"),
            deadline=deadline,
            use_cache=not request.get("no_cache", False),
        )

    def _do_batch(
        self,
        request: Dict[str, Any],
        state: _ServeState,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        results: List[Optional[Dict[str, Any]]] = []
        subs: List[Dict[str, Any]] = []
        slots: List[int] = []
        for sub in request["requests"]:
            try:
                check_query(sub)
            except ProtocolError as err:
                self.metrics.protocol_error(err.code)
                sub_id = sub.get("id") if isinstance(sub, dict) else None
                results.append(error_response(sub_id, err.code, str(err)))
                continue
            results.append(None)
            subs.append(sub)
            slots.append(len(results) - 1)
        answers = state.engine.query_batch(subs, deadline=deadline)
        for slot, sub, answer in zip(slots, subs, answers):
            sub_id = sub.get("id")
            if isinstance(answer, QueryError):
                results[slot] = error_response(
                    sub_id, answer.code, str(answer), details=answer.details
                )
            else:
                results[slot] = ok_response(sub_id, answer)
        return {"results": results}

    def _do_hello(self, state: _ServeState) -> Dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "tool": {"name": "repro", "version": TOOL_VERSION},
            "epoch": state.epoch,
            "db": state.db.summary(),
        }

    def _do_health(self, state: _ServeState) -> Dict[str, Any]:
        """Liveness/readiness probe.  Deliberately cheap (no BDD work,
        no admission) so it answers even under full overload."""
        admission = self.admission.snapshot()
        return {
            "status": "ok",
            "ready": self._started and not self._shutdown.is_set(),
            "epoch": state.epoch,
            "db_id": state.db.db_id,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "epoch_age_s": round(time.monotonic() - state.loaded_at, 3),
            "in_flight": self.metrics.in_flight,
            "pending": admission["pending"],
            "max_pending": admission["max_pending"],
            "reloads": {
                "ok": self.metrics.reloads_ok,
                "failed": self.metrics.reloads_failed,
            },
        }

    def _do_stats(self, state: _ServeState) -> Dict[str, Any]:
        out = self.metrics.snapshot()
        out["epoch"] = state.epoch
        out["engine"] = state.engine.stats()
        out["admission_control"] = self.admission.snapshot()
        return out
