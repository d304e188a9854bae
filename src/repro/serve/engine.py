"""Demand-query engine over a loaded :class:`PointsToDatabase`.

Queries are point lookups evaluated by BDD ``select`` (restrict +
existential quantification) against the solved relations — no fixpoint,
no solver.  Five kinds:

``points-to(v)``
    Heap names ``v`` may point to; context-sensitive variant when a
    ``context`` argument is given (reads ``vPC`` instead of ``vP``).
``aliases(v1, v2)``
    Whether two variables may point to a common object, with the common
    heap names as evidence.
``mod-ref(m)``
    Heap/field pairs method ``m`` may modify or read, transitively
    (requires a database compiled with the mod-ref fragment).
``callers(m)``
    Invocation sites (and their enclosing methods) that may call ``m``,
    from the ``IE`` edges.
``escape(h)``
    Thread-escape verdict for an allocation site.

Concurrency: the BDD manager is not thread-safe (shared unique table and
operation caches), so all BDD evaluation is serialized under one lock.
Three mechanisms keep the lock from being the bottleneck:

* a bounded LRU cache keyed by ``(db_id, kind, canonical args)`` holding
  *pre-encoded* result dicts — hits never touch the lock,
* in-flight deduplication — concurrent identical misses run the
  evaluator once; the waiters get the same result and count as hits,
  each waiting no longer than its own deadline or timeout allows,
* per-request :class:`ResourceBudget` enforcement — a watchdog on the
  manager plus deadline checks in the decode loops, so one pathological
  query cannot starve the rest for long and returns a *typed*
  ``budget-exceeded`` error rather than killing the connection.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import (
    InvalidInputError,
    NodeBudgetExceeded,
    ResourceBudget,
    SolverTimeout,
    Watchdog,
)
from .database import PointsToDatabase
from .demand import DemandEvaluator, DemandUnavailable
from .metrics import Metrics

__all__ = ["QueryEngine", "QueryError", "QUERY_KINDS"]

QUERY_KINDS = ("points-to", "aliases", "mod-ref", "callers", "escape")

# What an argument of each resolvable domain is called in error messages.
_NOUNS = {"V": "variable", "M": "method", "H": "heap object"}

_DEFAULT_CACHE_SIZE = 1024
# Decode loops check the deadline every this many tuples.
_DECODE_CHECK_STRIDE = 256


class QueryError(Exception):
    """A query failed in a way the client should see as a typed error.

    ``code`` is one of the protocol error codes (``bad-argument``,
    ``not-found``, ``unsupported``, ``demand-unavailable``,
    ``budget-exceeded``, ``deadline-exceeded``, ``overloaded``,
    ``reload-failed``) or one of the client-side transport codes
    (``connection-lost``, ``circuit-open``) — the whole typed-failure
    hierarchy of the serve subsystem roots here, so one exit-code map
    covers it.
    """

    def __init__(
        self, code: str, message: str, details: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.code = code
        # Optional structured payload merged into the wire error object
        # (e.g. ``retry_after_ms`` on an ``overloaded`` rejection).
        self.details = details


class _InFlight:
    """One in-progress computation; late arrivals wait on the event."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[QueryError] = None


class QueryEngine:
    """Evaluates demand queries against one loaded database."""

    def __init__(
        self,
        db: PointsToDatabase,
        *,
        cache_size: int = _DEFAULT_CACHE_SIZE,
        default_timeout: Optional[float] = None,
        metrics: Optional[Metrics] = None,
        enable_demand: bool = True,
    ) -> None:
        self.db = db
        self.metrics = metrics if metrics is not None else Metrics()
        self.default_timeout = default_timeout
        # Demand evaluation closes the misses a snapshot cannot answer
        # (budget-class-uncovered variables, mod-ref without the
        # fragment).  The evaluator is built lazily on the first eligible
        # miss and lives exactly as long as this engine — one per serve
        # epoch, so a hot swap drops all derived sub-relations at once.
        self.enable_demand = enable_demand
        self._demand_eval: Optional[DemandEvaluator] = None
        self._demand_error: Optional[str] = None
        self._cache_size = max(0, int(cache_size))
        self._cache: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()
        self._cache_lock = threading.Lock()
        # Serializes all access to the BDD manager (not thread-safe).
        self._eval_lock = threading.Lock()
        self._inflight: Dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._callers_index: Optional[Dict[int, List[int]]] = None
        self._escaped = frozenset(db.escape.get("escaped", ()))
        self._captured = frozenset(db.escape.get("captured", ()))

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def query(
        self,
        kind: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        use_cache: bool = True,
    ) -> Dict[str, Any]:
        """Evaluate one query; returns a JSON-serializable result dict.

        ``deadline`` is an absolute ``time.monotonic`` instant (the serve
        layer derives it from the client's ``deadline_ms`` at request
        receipt).  It is checked up front and enforced mid-query through
        the same :class:`ResourceBudget` watchdog as ``timeout``; when
        the deadline is the binding constraint, expiry surfaces as a
        typed ``deadline-exceeded`` rather than ``budget-exceeded``.

        Raises :class:`QueryError` for anything the caller did wrong or a
        blown budget; never raises for concurrent access.
        """
        start = time.monotonic()
        args = dict(args or {})
        if kind not in QUERY_KINDS:
            self.metrics.observe_query(
                str(kind), time.monotonic() - start,
                cache_hit=False, computed=False, error=True,
            )
            if not isinstance(kind, str):
                raise QueryError(
                    "bad-argument", "query request lacks a string 'kind'"
                )
            raise QueryError(
                "unknown-query",
                f"unknown query kind {kind!r} (have {', '.join(QUERY_KINDS)})",
            )
        if deadline is not None and deadline <= start:
            # Checked before any work (even a cache hit): an answer past
            # the client's deadline is an answer the client discarded.
            self.metrics.observe_query(
                kind, 0.0, cache_hit=False, computed=False, error=True,
            )
            raise QueryError(
                "deadline-exceeded",
                f"deadline passed {(start - deadline) * 1e3:.0f}ms "
                f"before evaluation started",
            )
        key = (self.db.db_id, kind, _canonical(args))

        if use_cache:
            hit = self._cache_get(key)
            if hit is not None:
                self.metrics.observe_query(
                    kind, time.monotonic() - start,
                    cache_hit=True, computed=False,
                )
                return hit

        budget, deadline_bound = self._budget_for(timeout, deadline)
        while True:
            # In-flight dedup: first thread computes, the rest wait.
            with self._inflight_lock:
                flight = self._inflight.get(key)
                owner = flight is None
                if owner:
                    flight = self._inflight[key] = _InFlight()
            if owner:
                break
            # A waiter is bound by its own budget, not the owner's.
            limit = None if budget is None else max(0.0, budget.remaining())
            if not flight.event.wait(limit):
                self.metrics.observe_query(
                    kind, time.monotonic() - start,
                    cache_hit=False, computed=False, error=True,
                )
                if deadline_bound:
                    raise QueryError(
                        "deadline-exceeded",
                        "deadline passed while waiting for an identical query",
                    )
                raise QueryError(
                    "budget-exceeded",
                    f"wall-clock budget of {budget.timeout:.3f}s exhausted "
                    f"while waiting for an identical query",
                )
            error = flight.error
            if error is None:
                self.metrics.observe_query(
                    kind, time.monotonic() - start,
                    cache_hit=True, computed=False,
                )
                return flight.result
            if error.code not in ("budget-exceeded", "deadline-exceeded"):
                self.metrics.observe_query(
                    kind, time.monotonic() - start,
                    cache_hit=False, computed=False, error=True,
                )
                raise error
            # The owner ran out of its own budget, which says nothing
            # about this waiter's: evaluate again.

        try:
            try:
                with self._eval_lock:
                    result = self._evaluate(kind, args, budget)
            except SolverTimeout as err:
                if deadline_bound:
                    raise QueryError(
                        "deadline-exceeded",
                        f"deadline passed mid-query: {err}",
                    )
                raise QueryError("budget-exceeded", str(err))
            except NodeBudgetExceeded as err:
                raise QueryError("budget-exceeded", str(err))
            if use_cache:
                self._cache_put(key, result)
            flight.result = result
            self.metrics.observe_query(
                kind, time.monotonic() - start,
                cache_hit=False, computed=True,
            )
            return result
        except QueryError as err:
            flight.error = err
            self.metrics.observe_query(
                kind, time.monotonic() - start,
                cache_hit=False, computed=False, error=True,
            )
            raise
        finally:
            # Unpublish before waking the waiters, so one that retries
            # never finds this finished flight again.
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def query_batch(
        self,
        requests: List[Dict[str, Any]],
        *,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Answer a list of protocol sub-requests (the ``batch`` verb).

        Each item is answered by :meth:`query` with its own
        ``timeout_s`` and ``no_cache`` and the batch's ``deadline``.
        Returns one entry per request, in order: a result dict on
        success or the :class:`QueryError` the item raised.  The batch
        itself never raises for per-item failures; the items' fields
        are already validated (:func:`~repro.serve.protocol.check_query`).
        """
        out: List[Any] = []
        for sub in requests:
            try:
                out.append(self.query(
                    sub.get("kind"),
                    sub.get("args") or {},
                    timeout=sub.get("timeout_s"),
                    deadline=deadline,
                    use_cache=not sub.get("no_cache", False),
                ))
            except QueryError as err:
                out.append(err)
        return out

    def stats(self) -> Dict[str, Any]:
        with self._cache_lock:
            cached = len(self._cache)
        demand: Dict[str, Any] = {"enabled": self.enable_demand}
        if self._demand_error is not None:
            demand["unavailable"] = self._demand_error
        if self._demand_eval is not None:
            demand.update(self._demand_eval.stats())
        return {
            "db_id": self.db.db_id,
            "cache_entries": cached,
            "cache_capacity": self._cache_size,
            "demand": demand,
        }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Cache / budget plumbing
    # ------------------------------------------------------------------

    def _cache_get(self, key: tuple) -> Optional[Dict[str, Any]]:
        with self._cache_lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
            return result

    def _cache_put(self, key: tuple, result: Dict[str, Any]) -> None:
        if self._cache_size <= 0:
            return
        with self._cache_lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _budget_for(
        self, timeout: Optional[float], deadline: Optional[float] = None
    ) -> Tuple[Optional[ResourceBudget], bool]:
        """The budget for one evaluation plus whether the *client
        deadline* (not the timeout) is the binding constraint."""
        if timeout is None:
            timeout = self.default_timeout
        if deadline is not None:
            timeout_deadline = (
                None if timeout is None else time.monotonic() + float(timeout)
            )
            if timeout_deadline is None or deadline <= timeout_deadline:
                return ResourceBudget.until(deadline), True
        if timeout is None:
            return None, False
        return ResourceBudget(timeout=float(timeout)).start(), False

    def _evaluate(self, kind: str, args, budget) -> Dict[str, Any]:
        # Looked up by name on each call: a table of bound methods on the
        # engine would be a cycle through it, keeping a replaced epoch's
        # database and demand kernels alive until a cyclic collection.
        evaluator = getattr(self, "_eval_" + kind.replace("-", "_"))
        manager = self.db.manager
        if budget is not None:
            watchdog = Watchdog(budget, manager)
            manager.set_watchdog(watchdog.check, watchdog.stride)
        try:
            if budget is not None and budget.expired():
                raise SolverTimeout(
                    f"wall-clock budget of {budget.timeout:.3f}s exhausted"
                )
            return evaluator(args, budget)
        finally:
            if budget is not None:
                manager.clear_watchdog()

    # ------------------------------------------------------------------
    # Demand evaluation (called under _eval_lock)
    # ------------------------------------------------------------------

    def _demand_for(self, reason: str) -> DemandEvaluator:
        """The demand evaluator, built lazily on first eligible miss.

        Raises a typed ``demand-unavailable`` :class:`QueryError` when
        demand evaluation is disabled or this database cannot support it
        (construction failures are cached — one diagnosis per epoch).
        """
        if not self.enable_demand:
            raise QueryError(
                "demand-unavailable",
                f"{reason}, and demand evaluation is disabled "
                "(re-run with --demand)",
            )
        if self._demand_error is not None:
            raise QueryError(
                "demand-unavailable", f"{reason}; {self._demand_error}"
            )
        if self._demand_eval is None:
            try:
                self._demand_eval = DemandEvaluator(
                    self.db, backend=self.db.manager.backend_name
                )
            except DemandUnavailable as err:
                self._demand_error = str(err)
                raise QueryError(
                    "demand-unavailable", f"{reason}; {err}"
                )
        return self._demand_eval

    def _run_demand(self, kind: str, reason: str, fn):
        """One demand evaluation with per-kind metrics accounting."""
        start = time.monotonic()
        try:
            result = fn(self._demand_for(reason))
        except QueryError:
            self.metrics.observe_demand(
                kind, time.monotonic() - start, "miss"
            )
            raise
        except (SolverTimeout, NodeBudgetExceeded):
            self.metrics.observe_demand(
                kind, time.monotonic() - start, "budget"
            )
            raise
        self.metrics.observe_demand(kind, time.monotonic() - start, "hit")
        return result

    @staticmethod
    def _decode(relation, budget, limit: Optional[int] = None) -> List[tuple]:
        """Decode a relation's tuples with periodic deadline checks."""
        out: List[tuple] = []
        for i, t in enumerate(relation.tuples()):
            if budget is not None and i % _DECODE_CHECK_STRIDE == 0 and budget.expired():
                raise SolverTimeout(
                    f"wall-clock budget of {budget.timeout:.3f}s exhausted"
                )
            out.append(t)
            if limit is not None and len(out) >= limit:
                break
        return out

    # ------------------------------------------------------------------
    # Argument resolution
    # ------------------------------------------------------------------

    def _need(self, args: Dict[str, Any], name: str) -> Any:
        if name not in args or args[name] in (None, ""):
            raise QueryError("bad-argument", f"missing required argument {name!r}")
        return args.pop(name)

    def _reject_extras(self, args: Dict[str, Any]) -> None:
        if args:
            raise QueryError(
                "bad-argument", f"unexpected arguments {sorted(args)}"
            )

    def _resolve(self, domain: str, spec: Any) -> int:
        """An element of ``V``, ``M`` or ``H``: its name or its ordinal.

        A variable is named ``"Method.m:var"`` (following copy
        factoring) or by its representative's name in the V domain.
        """
        noun = _NOUNS[domain]
        if isinstance(spec, bool) or not isinstance(spec, (int, str)):
            raise QueryError("bad-argument", f"{noun} must be str or int, got {spec!r}")
        facts = self.db.facts
        if isinstance(spec, int):
            if not 0 <= spec < len(facts.maps.get(domain, ())):
                raise QueryError("not-found", f"{noun} ordinal {spec} out of range")
            return spec
        if domain == "V" and spec in facts.var_reps:
            return facts.var_reps[spec]
        try:
            return facts.id_of(domain, spec)
        except InvalidInputError:
            raise QueryError("not-found", f"unknown {noun} {spec!r}")

    @staticmethod
    def _context(args: Dict[str, Any]) -> Optional[int]:
        """The optional ``context`` argument: a non-negative int."""
        context = args.pop("context", None)
        if context is not None and (
            isinstance(context, bool) or not isinstance(context, int) or context < 0
        ):
            raise QueryError(
                "bad-argument", f"context must be a non-negative int, got {context!r}"
            )
        return context

    # ------------------------------------------------------------------
    # Evaluators (called under _eval_lock)
    # ------------------------------------------------------------------

    def _eval_points_to(self, args: Dict[str, Any], budget) -> Dict[str, Any]:
        v = self._resolve("V", self._need(args, "variable"))
        context = self._context(args)
        self._reject_extras(args)
        heaps = self.db.maps["H"]
        demand = not self.db.covers_variable(v)
        if demand:
            # The snapshot's vP/vPC were restricted away from this
            # variable at compile time — a select would be silently
            # empty.  Derive its points-to set goal-directedly instead.
            sel = self._run_demand(
                "points-to",
                f"variable {self.db.maps['V'][v]!r} is outside the "
                f"database's budget class {self.db.budget_class!r}",
                lambda ev: ev.points_to(v, context, budget),
            )
        elif context is None:
            sel = self.db.relation("vP").select(variable=v)
        else:
            sel = self.db.relation("vPC").select(context=context, variable=v)
        rows = self._decode(sel, budget)
        names = sorted(heaps[h] for (h,) in rows)
        return {
            "variable": self.db.maps["V"][v],
            "context": context,
            "heaps": names,
            "count": len(names),
            "demand": demand,
        }

    def _eval_aliases(self, args: Dict[str, Any], budget) -> Dict[str, Any]:
        v1 = self._resolve("V", self._need(args, "variable1"))
        v2 = self._resolve("V", self._need(args, "variable2"))
        self._reject_extras(args)
        heaps = self.db.maps["H"]
        demand = not (
            self.db.covers_variable(v1) and self.db.covers_variable(v2)
        )
        if demand:
            uncovered = [
                self.db.maps["V"][v]
                for v in (v1, v2)
                if not self.db.covers_variable(v)
            ]
            s1, s2 = self._run_demand(
                "aliases",
                f"variable(s) {uncovered} are outside the database's "
                f"budget class {self.db.budget_class!r}",
                lambda ev: ev.alias_heaps(v1, v2, budget),
            )
            h1 = {h for (h,) in self._decode(s1, budget)}
            h2 = {h for (h,) in self._decode(s2, budget)}
            names = sorted(heaps[h] for h in h1 & h2)
        else:
            vP = self.db.relation("vP")
            manager = self.db.manager
            # points-to(v1) AND points-to(v2): both selects leave only
            # the H block, so a plain conjunction is the intersection.
            s1 = vP.select(variable=v1)
            s2 = vP.select(variable=v2)
            common = s1
            common.set_node(manager.and_(s1.node, s2.node))
            rows = self._decode(common, budget)
            names = sorted(heaps[h] for (h,) in rows)
        return {
            "variable1": self.db.maps["V"][v1],
            "variable2": self.db.maps["V"][v2],
            "may_alias": bool(names),
            "common_heaps": names,
            "demand": demand,
        }

    def _eval_mod_ref(self, args: Dict[str, Any], budget) -> Dict[str, Any]:
        m = self._resolve("M", self._need(args, "method"))
        context = self._context(args)
        self._reject_extras(args)
        heaps = self.db.maps["H"]
        fields = self.db.maps["F"]

        def encode(rel) -> List[List[str]]:
            rows = self._decode(rel, budget)
            return sorted([heaps[h], fields[f]] for (h, f) in rows)

        demand = not (
            self.db.has_relation("mod") and self.db.has_relation("ref")
        )
        if demand:
            if not self.enable_demand:
                # Preserve the pre-demand contract for engines that
                # opted out: the historical typed error.
                raise QueryError(
                    "unsupported",
                    "database was compiled without the mod-ref fragment "
                    "(re-run 'repro compile-db' without --no-modref, or "
                    "query with --demand)",
                )
            mod_rel, ref_rel = self._run_demand(
                "mod-ref",
                "database was compiled without the mod-ref fragment",
                lambda ev: ev.mod_ref(m, context, budget),
            )
            mod, ref = encode(mod_rel), encode(ref_rel)
        else:

            def side(name: str):
                rel = self.db.relation(name)
                if context is None:
                    return rel.select(m=m).project("heap", "field")
                return rel.select(c=context, m=m)

            mod, ref = encode(side("mod")), encode(side("ref"))
        return {
            "method": self.db.maps["M"][m],
            "context": context,
            "mod": mod,
            "ref": ref,
            "demand": demand,
        }

    def _eval_callers(self, args: Dict[str, Any], budget) -> Dict[str, Any]:
        m = self._resolve("M", self._need(args, "method"))
        self._reject_extras(args)
        index = self._callers_index
        if index is None:
            index = {}
            for i, callee in self.db.tuples.get("IE", ()):
                index.setdefault(callee, []).append(i)
            self._callers_index = index
        sites = sorted(index.get(m, ()))
        inv_names = self.db.maps.get("I", [])
        method_names = self.db.maps["M"]
        callers = []
        caller_methods = set()
        for i in sites:
            caller_m = self.db.site_method.get(i)
            entry = {
                "site": inv_names[i] if i < len(inv_names) else i,
                "method": (
                    method_names[caller_m] if caller_m is not None else None
                ),
            }
            if caller_m is not None:
                caller_methods.add(method_names[caller_m])
            callers.append(entry)
        return {
            "method": method_names[m],
            "callers": callers,
            "caller_methods": sorted(caller_methods),
            "count": len(callers),
        }

    def _eval_escape(self, args: Dict[str, Any], budget) -> Dict[str, Any]:
        h = self._resolve("H", self._need(args, "heap"))
        self._reject_extras(args)
        escaped = h in self._escaped
        captured = h in self._captured
        if escaped:
            verdict = "escaped"
        elif captured:
            verdict = "captured"
        else:
            # Not a tracked allocation (e.g. a string constant) — neither
            # verdict applies.
            verdict = "untracked"
        return {
            "heap": self.db.maps["H"][h],
            "verdict": verdict,
            "escaped": escaped,
            "captured": captured,
        }


def _canonical(args: Dict[str, Any]) -> tuple:
    """Hashable canonical form of a query's arguments."""
    return tuple(sorted((k, _freeze(v)) for k, v in args.items()))


def _freeze(value: Any):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
