"""The newline-delimited JSON wire protocol (version 2).

One request per line, one response line per request, UTF-8.  A request is
a JSON object::

    {"id": 7, "verb": "query", "kind": "points-to",
     "args": {"variable": "Main.main:s"}, "timeout_s": 2.0}

Verbs:

``hello``
    Handshake: returns protocol version, tool version, and the loaded
    database's id and summary.  Optional — clients may query directly.
``query``
    Evaluate one demand query (``kind`` + ``args``).  ``timeout_s``
    bounds the evaluation; ``deadline_ms`` is a client-supplied deadline
    relative to server receipt (checked before dispatch and enforced
    mid-query); ``no_cache: true`` bypasses the result cache.
``batch``
    ``requests`` holds a list of query request objects; the response's
    ``results`` list answers them in order (individual failures become
    error objects in-place, the batch itself still succeeds).  Each
    entry's fields are validated like a ``query`` request's, so a
    malformed entry answers ``invalid-request`` in its own slot.
``stats``
    Server metrics snapshot plus engine cache occupancy.
``ping``
    Liveness check.
``health``
    Readiness probe: current epoch, db id, uptime, reload counters.
    Never subject to admission control — answers even under overload.
``reload``
    Hot-swap the served database: load a candidate ``.ptdb`` (from
    ``path``, default the originally served file) off the request path,
    validate it, and publish it atomically under a new epoch.  Optional
    ``expect_db_id`` pins the candidate's identity.  A failed candidate
    leaves the old database serving and answers ``reload-failed``.
``shutdown``
    Ask the server to stop accepting and drain (used by tests/CLI).

Responses mirror the request ``id`` and carry either ``"ok": true`` and
a ``result``, or ``"ok": false`` and an ``error`` object::

    {"id": 7, "ok": false,
     "error": {"code": "not-found", "message": "unknown variable ..."}}

Error codes: ``parse-error``, ``invalid-request``, ``unknown-verb``,
``unknown-query``, ``bad-argument``, ``not-found``, ``unsupported``,
``budget-exceeded``, ``too-large``, ``server-error``, ``shutting-down``,
``overloaded`` (admission control rejected the request; the error object
carries a ``retry_after_ms`` hint), ``deadline-exceeded`` (the client's
``deadline_ms`` passed before or during evaluation), and
``reload-failed`` (a hot-swap candidate did not validate; the previous
database is still serving).
A protocol-level fault (unparseable line, oversized request) is answered
on a best-effort basis and the connection stays open; the server only
closes a connection when the client disconnects, idles past the
per-connection limit, or the server shuts down.

Version history: v2 added ``health``/``reload``, ``deadline_ms``, and
the three always-on error codes above.  v2 servers answer every v1
request unchanged, so v1 clients interoperate.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_BATCH",
    "ERROR_CODES",
    "ProtocolError",
    "check_query",
    "encode",
    "decode_request",
    "error_response",
    "ok_response",
    "read_line",
]

PROTOCOL_VERSION = 2

# Operational limits (documented in docs/serving.md).
MAX_LINE_BYTES = 1 << 20  # 1 MiB per request line
MAX_BATCH = 256  # sub-requests per batch

VERBS = (
    "hello", "query", "batch", "stats", "ping", "health", "reload",
    "shutdown",
)

ERROR_CODES = (
    "parse-error",
    "invalid-request",
    "unknown-verb",
    "unknown-query",
    "bad-argument",
    "not-found",
    "unsupported",
    "budget-exceeded",
    "too-large",
    "server-error",
    "shutting-down",
    "overloaded",
    "deadline-exceeded",
    "reload-failed",
)


class ProtocolError(Exception):
    """A malformed or oversized request; carries the typed error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode(obj: Dict[str, Any]) -> bytes:
    """One response/request as a wire line (compact JSON + newline)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    details: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """``details`` (e.g. ``{"retry_after_ms": 50}``) is merged into the
    error object alongside ``code`` and ``message``."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if details:
        error.update(details)
    return {"id": request_id, "ok": False, "error": error}


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and structurally validate one request line.

    Raises :class:`ProtocolError` (``parse-error`` / ``invalid-request``
    / ``unknown-verb``) on anything wrong; validation of query *arguments*
    is the engine's job, not the protocol's.
    """
    try:
        obj = json.loads(line.decode("utf-8", errors="strict"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError("parse-error", f"request is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            "invalid-request", f"request must be a JSON object, got {type(obj).__name__}"
        )
    verb = obj.get("verb")
    if not isinstance(verb, str):
        raise ProtocolError("invalid-request", "request lacks a string 'verb'")
    if verb not in VERBS:
        raise ProtocolError(
            "unknown-verb", f"unknown verb {verb!r} (have {', '.join(VERBS)})"
        )
    if verb == "query":
        check_query(obj)
    if verb == "reload":
        if "path" in obj and not isinstance(obj["path"], str):
            raise ProtocolError("invalid-request", "'path' must be a string")
        if "expect_db_id" in obj and not isinstance(obj["expect_db_id"], str):
            raise ProtocolError(
                "invalid-request", "'expect_db_id' must be a string"
            )
    if verb == "batch":
        requests = obj.get("requests")
        if not isinstance(requests, list):
            raise ProtocolError("invalid-request", "'requests' must be a list")
        if len(requests) > MAX_BATCH:
            raise ProtocolError(
                "too-large",
                f"batch of {len(requests)} exceeds the limit of {MAX_BATCH}",
            )
    return obj


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_query(obj: Any) -> None:
    """Validate the fields of one query request: a ``query`` verb or one
    entry of a ``batch``.  Raises an ``invalid-request``
    :class:`ProtocolError`; the arguments' values are the engine's to
    check."""
    if not isinstance(obj, dict):
        raise ProtocolError("invalid-request", "batch entry must be an object")
    if "kind" in obj and not isinstance(obj["kind"], str):
        raise ProtocolError("invalid-request", "'kind' must be a string")
    if "args" in obj and not isinstance(obj["args"], dict):
        raise ProtocolError("invalid-request", "'args' must be an object")
    if "timeout_s" in obj and not _is_number(obj["timeout_s"]):
        raise ProtocolError("invalid-request", "'timeout_s' must be a number")
    if "deadline_ms" in obj and not (
        _is_number(obj["deadline_ms"]) and obj["deadline_ms"] >= 0
    ):
        raise ProtocolError(
            "invalid-request", "'deadline_ms' must be a non-negative number"
        )


class LineReader:
    """Reads newline-delimited frames from a socket with a size cap.

    An over-long line is consumed to its newline (so the connection can
    continue) and reported as a ``too-large`` :class:`ProtocolError`.
    Returns ``None`` at EOF.
    """

    def __init__(self, sock, max_bytes: int = MAX_LINE_BYTES) -> None:
        self._sock = sock
        self._max = max_bytes
        self._buf = b""

    def read_line(self) -> Optional[bytes]:
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line, self._buf = self._buf[:nl], self._buf[nl + 1:]
                return line
            if len(self._buf) > self._max:
                self._discard_to_newline()
                raise ProtocolError(
                    "too-large",
                    f"request line exceeds {self._max} bytes",
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buf:
                    # Mid-request disconnect: drop the partial line.
                    self._buf = b""
                return None
            self._buf += chunk

    def _discard_to_newline(self) -> None:
        """Swallow the rest of an oversized line."""
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                self._buf = self._buf[nl + 1:]
                return
            self._buf = b""
            chunk = self._sock.recv(65536)
            if not chunk:
                return


def read_line(sock, max_bytes: int = MAX_LINE_BYTES) -> Optional[bytes]:
    """One-shot convenience for tests; real callers hold a LineReader."""
    return LineReader(sock, max_bytes).read_line()
