"""Demand-query engine: answers, argument handling, caching, budgets,
and in-flight deduplication under concurrency."""

import threading
import time

import pytest

from repro.runtime import SolverTimeout
from repro.serve import QueryEngine, QueryError
from repro.serve import engine as engine_module


@pytest.fixture()
def engine(loaded_db):
    return QueryEngine(loaded_db)


class TestAnswers:
    def test_points_to_finds_allocation(self, engine):
        result = engine.query("points-to", {"variable": "Main.main:a"})
        assert result["count"] >= 1
        assert any("new Object" in heap for heap in result["heaps"])

    def test_copy_factoring_merges_variables(self, engine):
        a = engine.query("points-to", {"variable": "Main.main:a"})
        b = engine.query("points-to", {"variable": "Main.main:b"})
        assert a["heaps"] == b["heaps"]

    def test_ordinal_lookup_matches_name_lookup(self, engine, loaded_db):
        spec = "Main.main:a"
        by_name = engine.query("points-to", {"variable": spec})
        by_ordinal = engine.query(
            "points-to", {"variable": loaded_db.var_id(spec)}
        )
        assert by_name == by_ordinal

    def test_aliases_positive_and_negative(self, engine):
        same = engine.query(
            "aliases", {"variable1": "Main.main:a", "variable2": "Main.main:b"}
        )
        assert same["may_alias"] is True
        assert same["common_heaps"]
        distinct = engine.query(
            "aliases", {"variable1": "Main.main:a", "variable2": "Main.main:c"}
        )
        assert distinct["may_alias"] is False
        assert distinct["common_heaps"] == []

    def test_callers(self, engine):
        result = engine.query("callers", {"method": "Helper.keep"})
        assert result["count"] >= 1
        assert result["caller_methods"] == ["Main.main"]

    def test_mod_ref(self, engine):
        result = engine.query("mod-ref", {"method": "Helper.keep"})
        assert any(field == "Helper.f" for _, field in result["mod"])
        # mod is transitive: the caller inherits the callee's effect.
        main = engine.query("mod-ref", {"method": "Main.main"})
        assert any(field == "Helper.f" for _, field in main["mod"])

    def test_escape_verdicts(self, engine, loaded_db):
        escaped = loaded_db.escape["escaped"]
        captured = loaded_db.escape["captured"]
        assert escaped and captured
        h = loaded_db.maps["H"][escaped[0]]
        assert engine.query("escape", {"heap": h})["verdict"] == "escaped"
        h = loaded_db.maps["H"][captured[0]]
        assert engine.query("escape", {"heap": h})["verdict"] == "captured"


class TestArguments:
    def test_unknown_kind(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query("dominators", {})
        assert exc.value.code == "unknown-query"

    def test_missing_argument(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query("points-to", {})
        assert exc.value.code == "bad-argument"

    def test_unexpected_argument(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query(
                "points-to", {"variable": "Main.main:a", "frobnicate": 1}
            )
        assert exc.value.code == "bad-argument"

    def test_unknown_variable(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query("points-to", {"variable": "Nope.nope:x"})
        assert exc.value.code == "not-found"

    def test_ordinal_out_of_range(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query("points-to", {"variable": 10_000_000})
        assert exc.value.code == "not-found"

    def test_bad_context_type(self, engine):
        with pytest.raises(QueryError) as exc:
            engine.query(
                "points-to", {"variable": "Main.main:a", "context": "zero"}
            )
        assert exc.value.code == "bad-argument"


class TestCache:
    def test_hit_after_miss(self, loaded_db):
        engine = QueryEngine(loaded_db)
        args = {"variable": "Main.main:a"}
        first = engine.query("points-to", args)
        second = engine.query("points-to", args)
        assert first == second
        snap = engine.metrics.snapshot()["queries"]["points-to"]
        assert snap["computes"] == 1
        assert snap["cache_hits"] == 1
        assert engine.stats()["cache_entries"] == 1

    def test_use_cache_false_recomputes(self, loaded_db):
        engine = QueryEngine(loaded_db)
        args = {"variable": "Main.main:a"}
        engine.query("points-to", args, use_cache=False)
        engine.query("points-to", args, use_cache=False)
        snap = engine.metrics.snapshot()["queries"]["points-to"]
        assert snap["computes"] == 2

    def test_lru_eviction(self, loaded_db):
        engine = QueryEngine(loaded_db, cache_size=2)
        specs = sorted(loaded_db.var_reps)[:3]
        for spec in specs:
            engine.query("points-to", {"variable": spec})
        assert engine.stats()["cache_entries"] == 2

    def test_clear_cache(self, loaded_db):
        engine = QueryEngine(loaded_db)
        engine.query("points-to", {"variable": "Main.main:a"})
        engine.clear_cache()
        assert engine.stats()["cache_entries"] == 0


class TestBudget:
    def test_exhausted_budget_is_typed(self, loaded_db):
        engine = QueryEngine(loaded_db)
        with pytest.raises(QueryError) as exc:
            engine.query(
                "points-to", {"variable": "Main.main:a"},
                timeout=0.0, use_cache=False,
            )
        assert exc.value.code == "budget-exceeded"

    def test_engine_survives_budget_error(self, loaded_db):
        engine = QueryEngine(loaded_db)
        with pytest.raises(QueryError):
            engine.query(
                "points-to", {"variable": "Main.main:a"},
                timeout=0.0, use_cache=False,
            )
        # The watchdog must be cleared: a normal query still works.
        result = engine.query("points-to", {"variable": "Main.main:a"})
        assert result["count"] >= 1


def _watch_waiters(monkeypatch):
    """An event set once any query waits on an identical in-flight one."""
    waiting = threading.Event()

    class WatchedEvent(threading.Event):
        def wait(self, timeout=None):
            waiting.set()
            return super().wait(timeout)

    class WatchedFlight(engine_module._InFlight):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.event = WatchedEvent()

    monkeypatch.setattr(engine_module, "_InFlight", WatchedFlight)
    return waiting


def _run(target, out):
    def body():
        try:
            out.append(target())
        except QueryError as err:
            out.append(err.code)

    thread = threading.Thread(target=body)
    thread.start()
    return thread


class TestInFlightDedup:
    def test_concurrent_identical_queries_compute_once(self, loaded_db, monkeypatch):
        engine = QueryEngine(loaded_db)
        original = engine._eval_points_to

        def slow(args, budget):
            time.sleep(0.3)
            return original(args, budget)

        monkeypatch.setattr(engine, "_eval_points_to", slow)
        results, errors = [], []

        def worker():
            try:
                results.append(
                    engine.query("points-to", {"variable": "Main.main:a"})
                )
            except Exception as err:  # noqa: BLE001 - collected for assert
                errors.append(err)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        snap = engine.metrics.snapshot()["queries"]["points-to"]
        assert snap["computes"] == 1
        assert snap["cache_hits"] == 7

    def test_error_propagates_to_waiters(self, loaded_db, monkeypatch):
        engine = QueryEngine(loaded_db)
        def slow_fail(args, budget):
            time.sleep(0.3)
            raise QueryError("not-found", "synthetic failure")

        monkeypatch.setattr(engine, "_eval_points_to", slow_fail)
        codes = []

        def worker():
            try:
                engine.query(
                    "points-to", {"variable": "Main.main:a"},
                    use_cache=False,
                )
            except QueryError as err:
                codes.append(err.code)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert codes == ["not-found"] * 4

    def test_waiter_bounded_by_its_own_deadline(self, loaded_db, monkeypatch):
        engine = QueryEngine(loaded_db)
        original = engine._eval_points_to
        evaluating, release = threading.Event(), threading.Event()

        def blocked(args, budget):
            evaluating.set()
            release.wait(10)
            return original(args, budget)

        monkeypatch.setattr(engine, "_eval_points_to", blocked)
        args = {"variable": "Main.main:a"}
        owner_out, waiter_out = [], []
        owner = _run(lambda: engine.query("points-to", dict(args)), owner_out)
        try:
            assert evaluating.wait(10)
            waiter = _run(
                lambda: engine.query(
                    "points-to", dict(args), deadline=time.monotonic() + 0.1
                ),
                waiter_out,
            )
            # The owner is still blocked: only the waiter's own deadline
            # can end its wait.
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert waiter_out == ["deadline-exceeded"]
        finally:
            release.set()
            owner.join(timeout=10)
        assert owner_out[0]["count"] >= 1

    def test_waiter_does_not_inherit_owner_budget_error(
        self, loaded_db, monkeypatch
    ):
        engine = QueryEngine(loaded_db)
        waiting = _watch_waiters(monkeypatch)
        original = engine._eval_points_to
        evaluating = threading.Event()
        calls = []

        def owner_runs_out(args, budget):
            calls.append(budget)
            if len(calls) == 1:
                evaluating.set()
                assert waiting.wait(10)
                raise SolverTimeout("the owner's deadline passed")
            return original(args, budget)

        monkeypatch.setattr(engine, "_eval_points_to", owner_runs_out)
        args = {"variable": "Main.main:a"}
        owner_out, waiter_out = [], []
        owner = _run(
            lambda: engine.query(
                "points-to", dict(args), deadline=time.monotonic() + 60
            ),
            owner_out,
        )
        assert evaluating.wait(10)
        waiter = _run(
            lambda: engine.query("points-to", dict(args)), waiter_out
        )
        owner.join(timeout=10)
        waiter.join(timeout=10)
        assert owner_out == ["deadline-exceeded"]
        # The waiter has no deadline: it evaluates for itself.
        assert len(calls) == 2
        assert waiter_out[0]["count"] >= 1
