"""Server-side metrics: per-query-kind counters and latency histograms.

One :class:`Metrics` instance is shared by a server and its query engine.
Everything is guarded by a single lock — the hot-path cost is two dict
updates and a ring-buffer store, far below the socket round-trip it
measures.  Latencies are kept in a bounded per-kind ring buffer (the last
``reservoir`` observations), so a long-lived server's memory stays flat
while p50/p95/p99 still describe recent traffic.

The ``stats`` protocol verb returns :meth:`Metrics.snapshot`; the server
dumps :meth:`Metrics.render` on shutdown.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = ["Metrics", "percentile"]

_RESERVOIR = 4096


def percentile(sorted_samples: List[float], q: float) -> float:
    """The q-th percentile (0..100) of an already sorted, non-empty list
    (nearest-rank method)."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1,
                      int(round(q / 100.0 * (len(sorted_samples) - 1)))))
    return sorted_samples[rank]


class _KindStats:
    """Counters and a latency ring buffer for one query kind."""

    __slots__ = (
        "requests", "errors", "cache_hits", "cache_misses", "computes",
        "total_seconds", "samples", "next_slot",
        "demand_hits", "demand_misses", "demand_budget_exceeded",
        "demand_samples", "demand_next_slot",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.computes = 0
        self.total_seconds = 0.0
        self.samples: List[float] = []
        self.next_slot = 0
        # Demand evaluation outcomes: hits answered goal-directedly,
        # misses that fell back to ``demand-unavailable``, and attempts
        # that blew their per-query budget.
        self.demand_hits = 0
        self.demand_misses = 0
        self.demand_budget_exceeded = 0
        self.demand_samples: List[float] = []
        self.demand_next_slot = 0

    def observe(self, seconds: float) -> None:
        self.total_seconds += seconds
        if len(self.samples) < _RESERVOIR:
            self.samples.append(seconds)
        else:
            self.samples[self.next_slot] = seconds
            self.next_slot = (self.next_slot + 1) % _RESERVOIR

    def observe_demand(self, seconds: float, outcome: str) -> None:
        if outcome == "hit":
            self.demand_hits += 1
        elif outcome == "budget":
            self.demand_budget_exceeded += 1
        else:
            self.demand_misses += 1
        if len(self.demand_samples) < _RESERVOIR:
            self.demand_samples.append(seconds)
        else:
            self.demand_samples[self.demand_next_slot] = seconds
            self.demand_next_slot = (self.demand_next_slot + 1) % _RESERVOIR

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self.samples)
        out = {
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "computes": self.computes,
            "total_seconds": round(self.total_seconds, 6),
            "latency_s": {
                "count": len(ordered),
                "p50": round(percentile(ordered, 50), 6),
                "p95": round(percentile(ordered, 95), 6),
                "p99": round(percentile(ordered, 99), 6),
            },
        }
        if self.demand_samples or self.demand_misses:
            demand_ordered = sorted(self.demand_samples)
            out["demand"] = {
                "hits": self.demand_hits,
                "misses": self.demand_misses,
                "budget_exceeded": self.demand_budget_exceeded,
                "latency_s": {
                    "count": len(demand_ordered),
                    "p50": round(percentile(demand_ordered, 50), 6),
                    "p95": round(percentile(demand_ordered, 95), 6),
                    "p99": round(percentile(demand_ordered, 99), 6),
                },
            }
        return out


class Metrics:
    """Thread-safe counters for the serve subsystem.

    Tracked per query kind: request count, error count, cache hit/miss,
    actual computations (cache misses that ran the evaluator — coalesced
    waiters count as hits), and a latency histogram.  Globally: error
    counts per protocol error code, connection totals, and an in-flight
    request gauge with its high-water mark.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, _KindStats] = {}
        self._errors: Dict[str, int] = {}
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.requests_total = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.reloads_ok = 0
        self.reloads_failed = 0
        self.overload_rejections = 0
        self.deadline_rejections = 0

    def _kind(self, kind: str) -> _KindStats:
        stats = self._kinds.get(kind)
        if stats is None:
            stats = self._kinds[kind] = _KindStats()
        return stats

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_accepted += 1

    def connection_rejected(self) -> None:
        with self._lock:
            self.connections_rejected += 1

    def request_started(self) -> None:
        with self._lock:
            self.requests_total += 1
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def request_finished(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def observe_query(
        self,
        kind: str,
        seconds: float,
        *,
        cache_hit: bool,
        computed: bool,
        error: bool = False,
    ) -> None:
        with self._lock:
            stats = self._kind(kind)
            stats.requests += 1
            if error:
                stats.errors += 1
            elif cache_hit:
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
            if computed:
                stats.computes += 1
            stats.observe(seconds)

    def observe_demand(self, kind: str, seconds: float, outcome: str) -> None:
        """One demand evaluation for ``kind``: ``outcome`` is ``"hit"``
        (answered goal-directedly), ``"miss"`` (demand unavailable), or
        ``"budget"`` (the attempt blew its per-query budget)."""
        with self._lock:
            self._kind(kind).observe_demand(seconds, outcome)

    def protocol_error(self, code: str) -> None:
        with self._lock:
            self._errors[code] = self._errors.get(code, 0) + 1

    def reload(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self.reloads_ok += 1
            else:
                self.reloads_failed += 1

    def admission_rejected(self, code: str) -> None:
        """An ``overloaded`` or ``deadline-exceeded`` rejection: these are
        the *correct* behavior under pressure, so they are counted apart
        from protocol errors (availability math excludes them)."""
        with self._lock:
            if code == "overloaded":
                self.overload_rejections += 1
            else:
                self.deadline_rejections += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def cache_hit_rate(self) -> float:
        with self._lock:
            hits = sum(s.cache_hits for s in self._kinds.values())
            misses = sum(s.cache_misses for s in self._kinds.values())
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            kinds = {name: s.snapshot() for name, s in self._kinds.items()}
            errors = dict(self._errors)
            out = {
                "queries": kinds,
                "protocol_errors": errors,
                "connections": {
                    "accepted": self.connections_accepted,
                    "rejected": self.connections_rejected,
                },
                "requests_total": self.requests_total,
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
                "reloads": {
                    "ok": self.reloads_ok,
                    "failed": self.reloads_failed,
                },
                "admission": {
                    "overloaded": self.overload_rejections,
                    "deadline": self.deadline_rejections,
                },
            }
        hits = sum(k["cache_hits"] for k in kinds.values())
        misses = sum(k["cache_misses"] for k in kinds.values())
        out["cache_hit_rate"] = round(hits / (hits + misses), 4) if hits + misses else 0.0
        return out

    def render(self) -> str:
        """Human-readable dump (written to stderr on server shutdown)."""
        snap = self.snapshot()
        lines = [
            f"requests {snap['requests_total']}  "
            f"in-flight peak {snap['peak_in_flight']}  "
            f"cache hit rate {snap['cache_hit_rate']:.1%}  "
            f"connections {snap['connections']['accepted']} accepted / "
            f"{snap['connections']['rejected']} rejected"
        ]
        for kind in sorted(snap["queries"]):
            k = snap["queries"][kind]
            lat = k["latency_s"]
            lines.append(
                f"  {kind:<12} n={k['requests']:<6} hit={k['cache_hits']:<6} "
                f"miss={k['cache_misses']:<5} compute={k['computes']:<5} "
                f"err={k['errors']:<4} "
                f"p50={lat['p50'] * 1e3:.2f}ms p95={lat['p95'] * 1e3:.2f}ms "
                f"p99={lat['p99'] * 1e3:.2f}ms"
            )
            demand = k.get("demand")
            if demand:
                dlat = demand["latency_s"]
                lines.append(
                    f"    demand hit={demand['hits']:<5} "
                    f"miss={demand['misses']:<5} "
                    f"budget={demand['budget_exceeded']:<5} "
                    f"p50={dlat['p50'] * 1e3:.2f}ms "
                    f"p95={dlat['p95'] * 1e3:.2f}ms"
                )
        if snap["protocol_errors"]:
            pairs = ", ".join(
                f"{code}={n}" for code, n in sorted(snap["protocol_errors"].items())
            )
            lines.append(f"  protocol errors: {pairs}")
        return "\n".join(lines)
