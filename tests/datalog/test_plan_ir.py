"""Tests for the plan IR, the optimizer pass pipeline, and the executor."""

import pytest

from repro.datalog import (
    DatalogError,
    PASS_NAMES,
    PassOptions,
    Solver,
    parse_program,
    validate_plan,
)
from repro.datalog.passes import OPT_ENV_VAR, replace_cost
from repro.datalog.plan import (
    And,
    CopyInto,
    Exist,
    Load,
    LoadHoisted,
    Replace,
    RulePlan,
    Top,
)

TC = """
.domains
N 16
.relations
e (a : N0, b : N1) input
p (a : N0, b : N1) output
.rules
p(x, y) :- e(x, y).
p(x, z) :- p(x, y), e(y, z).
"""

MULTIJOIN = """
.domains
V 16
H 16
F 8
.relations
vP0 (v : V0, h : H0) input
store (v1 : V0, f : F0, v2 : V1) input
load (v1 : V0, f : F0, v2 : V1) input
vP (v : V0, h : H0) output
hP (h1 : H0, f : F0, h2 : H1) output
.rules
vP(v, h) :- vP0(v, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2) :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).
"""


def solve_tc(**kwargs):
    solver = Solver(parse_program(TC), **kwargs)
    solver.add_tuples("e", [(0, 1), (1, 2), (2, 3), (3, 4)])
    solver.solve()
    return solver


class TestValidation:
    def test_all_compiled_plans_validate(self):
        solver = Solver(parse_program(MULTIJOIN))
        for plan in solver.plan_unit.plans.values():
            validate_plan(
                solver.program, plan, hoisted=solver.plan_unit.hoisted
            )

    def test_use_before_def_rejected(self):
        prog = parse_program(TC)
        good = next(iter(Solver(prog, optimize=False)._plans.values()))
        # Reference a register that no earlier op defines.
        schema = good.ops[0].schema
        bad = RulePlan(
            rule=good.rule,
            head_relation=good.head_relation,
            delta_index=good.delta_index,
            ops=[
                And(0, schema, lhs=5, rhs=7, extends=False),
                CopyInto(1, schema, src=0, relation="p"),
            ],
        )
        with pytest.raises(DatalogError):
            validate_plan(prog, bad)

    def test_nonterminated_plan_rejected(self):
        prog = parse_program(TC)
        good = next(iter(Solver(prog, optimize=False)._plans.values()))
        bad = RulePlan(
            rule=good.rule,
            head_relation=good.head_relation,
            delta_index=good.delta_index,
            ops=[Load(0, good.ops[0].schema, relation="e", use_delta=False)],
        )
        with pytest.raises(DatalogError):
            validate_plan(prog, bad)


class TestPassOptions:
    def test_unknown_pass_rejected(self):
        with pytest.raises(DatalogError):
            PassOptions.resolve(True, ["not-a-pass"])

    def test_env_opt_off(self, monkeypatch):
        monkeypatch.setenv(OPT_ENV_VAR, "off")
        assert not PassOptions.resolve().enabled
        # Explicit argument beats the environment.
        assert PassOptions.resolve(optimize=True).enabled

    def test_pass_names_closed(self):
        assert set(PASS_NAMES) == {"assign-domains", "hoist", "fuse"}


class TestPasses:
    def test_optimizer_reduces_replace_cost(self):
        on = Solver(parse_program(TC), optimize=True)
        off = Solver(parse_program(TC), optimize=False)
        cost_on = sum(
            replace_cost(p, set()) for p in on.plan_unit.plans.values()
        )
        cost_off = sum(
            replace_cost(p, set()) for p in off.plan_unit.plans.values()
        )
        assert cost_on < cost_off

    def test_hoist_creates_shared_slot(self):
        solver = Solver(parse_program(TC), optimize=True)
        unit = solver.plan_unit
        assert unit.hoisted, "recursive invariant atom should hoist"
        loads = [
            op
            for plan in unit.plans.values()
            for op in plan.ops
            if isinstance(op, LoadHoisted)
        ]
        assert loads
        assert all(op.slot in unit.hoisted for op in loads)
        # The slot belongs to the stratum containing p.
        assert any(unit.stratum_slots.values())

    def test_disable_hoist(self):
        solver = Solver(
            parse_program(TC), optimize=True, disabled_passes=["hoist"]
        )
        assert not solver.plan_unit.hoisted

    def test_each_pass_pays_on_algorithm3(self):
        # Executed ops of the context-insensitive pointer analysis
        # (Algorithm 3) on a small generated program, with each pass
        # switched off in turn: every pass must save work.
        from repro.analysis import ContextInsensitiveAnalysis
        from repro.bench.generator import WorkloadParams, generate_program
        from repro.ir.facts import extract_facts

        facts = extract_facts(generate_program(WorkloadParams(
            seed=1, layers=2, threads=0, use_library=False
        )))

        def executed(disabled):
            ops = ContextInsensitiveAnalysis(
                facts=facts,
                type_filtering=True,
                discover_call_graph=True,
                optimize=True,
                disabled_passes=disabled,
            ).run().solver.stats.plan_ops
            replaces = ops.get("replace", 0) + ops.get("rel_prod_replace", 0)
            return sum(ops.values()), replaces

        total, replaces = executed([])
        assert executed(["hoist"])[0] > total
        assert executed(["fuse"])[0] > total
        assert executed(["assign-domains"])[1] > replaces

    def test_optimized_pool_unchanged(self):
        # The optimizer must never grow the physical domain pool: BDD
        # levels (and therefore fingerprints) depend on it.
        on = Solver(parse_program(MULTIJOIN), optimize=True)
        off = Solver(parse_program(MULTIJOIN), optimize=False)
        assert on._instances == off._instances
        assert on.order_spec == off.order_spec


class TestExecutor:
    def test_same_fixpoint(self):
        on = solve_tc(optimize=True)
        off = solve_tc(optimize=False)
        assert set(on.relation("p").tuples()) == set(
            off.relation("p").tuples()
        )

    def test_executed_op_tally(self):
        solver = solve_tc()
        ops = solver.stats.plan_ops
        assert ops.get("copy_into", 0) > 0
        assert sum(ops.values()) > 0

    def test_optimizer_executes_fewer_replaces(self):
        on = solve_tc(optimize=True)
        off = solve_tc(optimize=False)
        assert on.stats.plan_ops.get("replace", 0) < off.stats.plan_ops.get(
            "replace", 0
        )

    def test_static_plan_op_counts(self):
        solver = solve_tc()
        static = solver.plan_op_counts()
        assert static.get("copy_into", 0) >= 2  # one per rule variant

    def test_traces_recorded(self):
        solver = solve_tc(trace_ops=True)
        # Traces live on the solver, keyed by the id of a shared plan.
        plans = {id(plan) for plan in solver.plan_unit.plans.values()}
        assert solver._traces
        for plan_id, traces in solver._traces.items():
            assert plan_id in plans
            for trace in traces:
                count, seconds, max_nodes = trace
                assert count >= 0 and seconds >= 0 and max_nodes >= 0


class TestExplainPlan:
    def test_render_contains_costs(self):
        solver = solve_tc(trace_ops=True)
        text = solver.explain_plans(executed_only=True)
        assert "stratum" in text
        assert "CopyInto" in text
        assert "[x" in text  # execution-count annotation
        assert "optimizer passes:" in text

    def test_render_without_traces(self):
        solver = Solver(parse_program(TC))
        text = solver.explain_plans()
        assert "plan" in text

    def test_noopt_banner(self):
        solver = Solver(parse_program(TC), optimize=False)
        assert "unoptimized" in solver.explain_plans()
