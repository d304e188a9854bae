"""Demand-driven resolution: goal-directed answers for snapshot misses.

The contract under test is *answer identity*: every query the demand
evaluator answers (a points-to/alias lookup for a variable outside the
database's budget class, a mod-ref lookup against a database compiled
with ``--no-modref``) must return exactly what an exhaustive compile
would have — on both BDD backends.  Around that core: the typed
``demand-unavailable`` / ``budget-exceeded`` errors, the ``demand``
response field, not-found errors in a batch, batch routing, the metrics
surface, and hot-swap invalidation of the per-epoch evaluator.
"""

import io

import pytest

from repro.bench.corpus import corpus_program
from repro.bench.generator import WorkloadParams, generate_program
from repro.ir import parse_program
from repro.runtime import ResourceBudget, SolverTimeout, faults
from repro.serve import (
    DemandEvaluator,
    PointsToDatabase,
    PointsToServer,
    QueryEngine,
    QueryError,
    compile_database,
)
from repro.serve.demand import _logical_order

from .conftest import SOURCE_V2

BACKENDS = ["reference", "packed"]

# The conftest program's methods split cleanly: ``Helper.*`` covers
# Helper.keep's variables and leaves every Main/Worker variable outside
# the budget class, so points-to/alias queries for them go to demand.
BUDGET_CLASS = "Helper.*"

CONTEXTS = (None, 0, 1)


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def full_db(program, backend):
    return compile_database(program, source_path="serve-test.mj", backend=backend)


@pytest.fixture(scope="module")
def restricted_db(program, backend):
    return compile_database(
        program,
        source_path="serve-test.mj",
        backend=backend,
        budget_class=BUDGET_CLASS,
    )


@pytest.fixture(scope="module")
def nomodref_db(program, backend):
    return compile_database(
        program, source_path="serve-test.mj", backend=backend, modref=False
    )


@pytest.fixture(scope="module")
def full_engine(full_db):
    return QueryEngine(full_db)


@pytest.fixture(scope="module")
def restricted_engine(restricted_db):
    return QueryEngine(restricted_db)


@pytest.fixture(scope="module")
def nomodref_engine(nomodref_db):
    return QueryEngine(nomodref_db)


class TestBudgetClassCompile:
    def test_restriction_recorded_and_variables_partitioned(self, restricted_db):
        assert restricted_db.budget_class == BUDGET_CLASS
        nvars = len(restricted_db.maps["V"])
        covered = [v for v in range(nvars) if restricted_db.covers_variable(v)]
        uncovered = [v for v in range(nvars) if not restricted_db.covers_variable(v)]
        assert covered, "budget class matched no variables"
        assert uncovered, "budget class left nothing for demand to answer"

    def test_full_db_covers_everything(self, full_db):
        assert full_db.budget_class is None
        assert all(
            full_db.covers_variable(v) for v in range(len(full_db.maps["V"]))
        )


class TestPointsToIdentity:
    def test_every_variable_every_context(
        self, full_engine, restricted_engine, restricted_db
    ):
        for v in range(len(restricted_db.maps["V"])):
            for c in CONTEXTS:
                args = {"variable": v, "context": c}
                want = full_engine.query("points-to", args)
                got = restricted_engine.query("points-to", args)
                assert got["heaps"] == want["heaps"], (v, c)
                assert got["count"] == want["count"]
                assert want["demand"] is False
                assert got["demand"] == (not restricted_db.covers_variable(v))

    def test_covered_variable_answers_from_snapshot(self, restricted_engine):
        got = restricted_engine.query("points-to", {"variable": "Helper.keep:x"})
        assert got["demand"] is False

    def test_uncovered_variable_flagged_as_demand(self, restricted_engine):
        got = restricted_engine.query("points-to", {"variable": "Main.main:a"})
        assert got["demand"] is True
        assert got["count"] >= 1


class TestCorpusIdentity:
    """The same identity on a corpus program saved to and loaded back from
    a ``.ptdb``, the way a server holds it.  Generated corpus programs
    keep their allocation-heavy worker methods outside ``Util``, so
    ``Util.*`` leaves most variables to demand."""

    @pytest.fixture(scope="class")
    def corpus_engines(self, backend, tmp_path_factory):
        program = corpus_program("freetts")
        full = compile_database(program, backend=backend)
        path = tmp_path_factory.mktemp("demand") / "freetts.ptdb"
        compile_database(program, backend=backend, budget_class="Util.*").save(
            path
        )
        loaded = PointsToDatabase.load(path, backend=backend)
        uncovered = [
            spec for spec in sorted(loaded.var_reps)
            if not loaded.covers_variable(loaded.var_id(spec))
        ]
        return QueryEngine(full), QueryEngine(loaded), uncovered[:3]

    def test_uncovered_answers_match_exhaustive(self, corpus_engines):
        full_engine, demand_engine, specs = corpus_engines
        assert len(specs) == 3
        for spec in specs:
            for c in (None, 0):
                args = {"variable": spec, "context": c}
                want = full_engine.query("points-to", dict(args))
                got = demand_engine.query("points-to", dict(args))
                assert got["heaps"] == want["heaps"], (spec, c)
                assert got["demand"] is True, (spec, c)


def test_recorded_order_in_logical_form():
    # The magic program may resolve fewer instances of a domain (here T)
    # than the compile that recorded the order did.
    assert _logical_order("V0xV1_H0xH1_T0xT1xT2_C0") == "V_H_T_C"
    assert _logical_order("V0xH0_V1xH1") == "VxH"
    assert _logical_order("") == ""


def test_pinned_optimizer_ignores_plan_opt_env(restricted_db, monkeypatch):
    # ``optimize=True`` fixes the demand program's plans, as it does every
    # other program's; left unset, the environment switch still applies.
    monkeypatch.delenv("REPRO_PLAN_OPT", raising=False)
    want = DemandEvaluator(restricted_db, optimize=True).solver.plan_op_counts()
    monkeypatch.setenv("REPRO_PLAN_OPT", "off")
    pinned = DemandEvaluator(restricted_db, optimize=True)
    assert pinned.solver.plan_op_counts() == want
    assert DemandEvaluator(restricted_db).solver.plan_op_counts() != want


class TestWholeEpochIdentity:
    """Every uncovered variable of a generated program, asked in one
    epoch of one evaluator.  The program is large enough that the epoch
    crosses the demand solver's collection threshold and op-cache cap,
    so later answers are computed across collections and clears."""

    def test_every_uncovered_variable(self):
        # Uncapped, this epoch peaks near 283k nodes and 900k cache
        # entries: well past both limits.
        program = generate_program(WorkloadParams(
            seed=11, layers=12, width=3, threads=2, hierarchy_groups=2,
            subclasses=3,
        ))
        full = QueryEngine(compile_database(program))
        restricted = compile_database(program, budget_class="Layers.*")
        engine = QueryEngine(restricted)
        specs = [
            spec for spec in sorted(restricted.var_reps)
            if not restricted.covers_variable(restricted.var_id(spec))
        ]
        assert len(specs) > 100
        for spec in specs:
            args = {"variable": spec}
            got = engine.query("points-to", dict(args))
            assert got["demand"] is True, spec
            assert got["heaps"] == full.query("points-to", args)["heaps"], spec
        st = engine.stats()["demand"]
        assert st["solves"] == len(specs)
        assert st["gc_count"] >= 1, st
        assert st["cache_clears"] >= 1, st


class TestAliasIdentity:
    PAIRS = [
        ("Main.main:a", "Main.main:b"),  # both uncovered, must alias
        ("Main.main:a", "Main.main:c"),  # both uncovered, must not
        ("Main.main:a", "Helper.keep:x"),  # mixed coverage
        ("Helper.keep:x", "Helper.keep:this"),  # both covered
        ("Main.main:w", "Main.main:h"),
    ]

    def test_alias_pairs(self, full_engine, restricted_engine, restricted_db):
        for v1, v2 in self.PAIRS:
            args = {"variable1": v1, "variable2": v2}
            want = full_engine.query("aliases", args)
            got = restricted_engine.query("aliases", args)
            assert got["common_heaps"] == want["common_heaps"], (v1, v2)
            assert got["may_alias"] == want["may_alias"]
            uncovered = not all(
                restricted_db.covers_variable(restricted_db.var_id(v))
                for v in (v1, v2)
            )
            assert got["demand"] == uncovered
            assert want["demand"] is False


class TestModRefIdentity:
    def test_every_method_every_context(
        self, full_engine, nomodref_engine, full_db
    ):
        for m in range(len(full_db.maps["M"])):
            for c in CONTEXTS:
                args = {"method": m, "context": c}
                want = full_engine.query("mod-ref", args)
                got = nomodref_engine.query("mod-ref", args)
                assert got["mod"] == want["mod"], (m, c)
                assert got["ref"] == want["ref"], (m, c)
                assert want["demand"] is False
                assert got["demand"] is True


class TestTypedErrors:
    def test_demand_disabled_points_to(self, restricted_db):
        engine = QueryEngine(restricted_db, enable_demand=False)
        with pytest.raises(QueryError) as exc:
            engine.query("points-to", {"variable": "Main.main:a"})
        assert exc.value.code == "demand-unavailable"
        assert "budget class" in str(exc.value)

    def test_demand_disabled_mod_ref_keeps_unsupported(self, nomodref_db):
        # Pre-demand engines reported `unsupported`; opting out keeps it.
        engine = QueryEngine(nomodref_db, enable_demand=False)
        with pytest.raises(QueryError) as exc:
            engine.query("mod-ref", {"method": "Helper.keep"})
        assert exc.value.code == "unsupported"

    def test_demand_query_budget_exceeded_is_typed(self, restricted_db):
        engine = QueryEngine(restricted_db)
        with pytest.raises(QueryError) as exc:
            engine.query(
                "points-to", {"variable": "Main.main:a"},
                timeout=0.0, use_cache=False,
            )
        assert exc.value.code == "budget-exceeded"
        # The engine (and its demand evaluator) survive the fault: the
        # same query with a sane budget answers correctly afterwards.
        got = engine.query("points-to", {"variable": "Main.main:a"})
        assert got["demand"] is True
        assert got["count"] >= 1

    def test_evaluator_budget_fault_then_recovery(self, restricted_db):
        ev = DemandEvaluator(
            restricted_db, backend=restricted_db.manager.backend_name
        )
        v = restricted_db.var_id("Main.main:a")
        with pytest.raises(SolverTimeout):
            ev.points_to(v, budget=ResourceBudget(timeout=0).start())
        # The interrupted seed was not marked consumed: retrying without
        # a budget completes the fixpoint and answers.
        rel = ev.points_to(v)
        assert len(list(rel.tuples())) >= 1

    def test_evaluator_exception_mid_push_then_requery(
        self, restricted_db, full_db
    ):
        # Any exception, not only a budget fault, leaves the evaluator
        # resumable: the same query afterwards gets the full answer.
        uncovered = [
            spec for spec in sorted(restricted_db.var_reps)
            if not restricted_db.covers_variable(restricted_db.var_id(spec))
        ]
        first, second = uncovered[0], uncovered[-1]
        v = restricted_db.var_id(second)
        want = set(full_db.relation("vP").select(variable=v).tuples())
        assert want
        for hit in (1, 2, 3):
            ev = DemandEvaluator(
                restricted_db, backend=restricted_db.manager.backend_name
            )
            ev.points_to(restricted_db.var_id(first))
            faults.arm(f"exception@solver.stratum#{hit}")
            try:
                with pytest.raises(faults.FaultError):
                    ev.points_to(v)
            finally:
                faults.disarm()
            assert set(ev.points_to(v).tuples()) == want, hit


class TestNegativeCaching:
    def test_batch_replays_cached_negative(self, full_db):
        engine = QueryEngine(full_db)
        with pytest.raises(QueryError):
            engine.query("points-to", {"variable": "No.where:x"})
        out = engine.query_batch(
            [{"kind": "points-to", "args": {"variable": "No.where:x"}}]
        )
        assert isinstance(out[0], QueryError)
        assert out[0].code == "not-found"


class TestBatchRouting:
    def test_uncovered_items_route_to_demand(
        self, full_engine, restricted_db
    ):
        engine = QueryEngine(restricted_db)
        out = engine.query_batch(
            [
                {"kind": "points-to", "args": {"variable": "Helper.keep:x"}},
                {"kind": "points-to", "args": {"variable": "Main.main:a"}},
            ]
        )
        assert out[0]["demand"] is False
        assert out[1]["demand"] is True
        want = full_engine.query("points-to", {"variable": "Main.main:a"})
        assert out[1]["heaps"] == want["heaps"]


class TestObservability:
    def test_engine_stats_and_metrics(self, restricted_db):
        engine = QueryEngine(restricted_db)
        # a and c are distinct V representatives (b collapses into a).
        engine.query("points-to", {"variable": "Main.main:a"})
        engine.query("points-to", {"variable": "Main.main:c"})
        st = engine.stats()["demand"]
        assert st["enabled"] is True
        assert st["solves"] >= 1
        assert st["seeded"].get("m$vP$bf") == 2
        snap = engine.metrics.snapshot()["queries"]["points-to"]["demand"]
        assert snap["hits"] == 2
        assert snap["misses"] == 0
        assert snap["budget_exceeded"] == 0
        assert snap["latency_s"]["count"] == 2

    def test_demand_memory_in_stats(self, restricted_db):
        engine = QueryEngine(restricted_db)
        engine.query("points-to", {"variable": "Main.main:a"})
        st = engine.stats()["demand"]
        for key in ("nodes", "peak_nodes", "gc_count", "cache_entries",
                    "cache_clears"):
            assert isinstance(st[key], int) and st[key] >= 0, key
        assert st["peak_nodes"] >= st["nodes"] > 2

    def test_unavailable_counts_as_miss(self, restricted_db):
        engine = QueryEngine(restricted_db, enable_demand=False)
        with pytest.raises(QueryError):
            engine.query("points-to", {"variable": "Main.main:a"})
        snap = engine.metrics.snapshot()["queries"]["points-to"]["demand"]
        assert snap["misses"] == 1
        assert snap["hits"] == 0

    def test_stats_report_unavailable_reason(self, restricted_db):
        engine = QueryEngine(restricted_db, enable_demand=False)
        assert engine.stats()["demand"]["enabled"] is False


class TestHotSwapInvalidation:
    @pytest.fixture(scope="class")
    def restricted_paths(self, program, tmp_path_factory):
        base = tmp_path_factory.mktemp("demand-swap")
        v1 = compile_database(
            program, source_path="serve-test.mj", budget_class=BUDGET_CLASS
        )
        v2 = compile_database(
            parse_program(SOURCE_V2, include_library=False),
            source_path="serve-test-v2.mj",
            budget_class=BUDGET_CLASS,
        )
        p1, p2 = str(base / "v1.ptdb"), str(base / "v2.ptdb")
        v1.save(p1)
        v2.save(p2)
        return p1, p2

    def test_reload_drops_demand_state_and_tracks_new_db(self, restricted_paths):
        p1, p2 = restricted_paths
        server = PointsToServer(PointsToDatabase.load(p1), log=io.StringIO())
        old = server._state.engine
        r1 = old.query("points-to", {"variable": "Main.main:a"})
        assert r1["demand"] is True
        assert r1["count"] == 1
        assert old._demand_eval is not None

        server.reload(path=p2)
        new = server._state.engine
        assert new is not old
        # Fresh epoch, fresh engine: every derived demand sub-relation
        # from the old epoch is unreachable.
        assert new._demand_eval is None
        r2 = new.query("points-to", {"variable": "Main.main:a"})
        assert r2["demand"] is True
        assert r2["count"] == 2
