"""Fault injection for the resource budget and cooperative watchdog."""

import time

import pytest

from repro.bdd import BDD
from repro.datalog import SolveStats, Solver, parse_program
from repro.runtime import (
    InvalidInputError,
    IterationLimitExceeded,
    NodeBudgetExceeded,
    ResourceBudget,
    SolverTimeout,
    Watchdog,
)

TC_SOURCE = """
.domains
N 32
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""

CHAIN = [(i, i + 1) for i in range(20)]


def _xor(m, a, b):
    """Exclusive or, built from the kernel's relational difference."""
    return m.or_(m.diff(a, b), m.diff(b, a))


def tc_solver(budget=None):
    solver = Solver(parse_program(TC_SOURCE), budget=budget)
    solver.add_tuples("edge", CHAIN)
    return solver


class TestResourceBudget:
    def test_start_fixes_deadline_once(self):
        budget = ResourceBudget(timeout=100)
        budget.start()
        deadline = budget.deadline
        time.sleep(0.01)
        budget.start()
        assert budget.deadline == deadline

    def test_remaining_and_expired(self):
        assert ResourceBudget().start().remaining() is None
        assert not ResourceBudget().start().expired()
        expired = ResourceBudget(timeout=0).start()
        time.sleep(0.001)
        assert expired.expired()
        assert expired.remaining() <= 0

    def test_share_deadline_keeps_clock_changes_limits(self):
        parent = ResourceBudget(timeout=100, node_budget=10).start()
        child = parent.share_deadline(node_budget=None, max_iterations=7)
        assert child.deadline == parent.deadline
        assert child.node_budget is None
        assert child.max_iterations == 7
        # The parent keeps its own limits.
        assert parent.node_budget == 10


class TestWatchdog:
    def test_stride_scales_down_for_tiny_budgets(self):
        mgr = BDD(num_vars=4)
        assert Watchdog(ResourceBudget(node_budget=256), mgr).stride == 64
        assert Watchdog(ResourceBudget(node_budget=10 ** 9), mgr).stride == 2048
        assert Watchdog(ResourceBudget(timeout=5), mgr).stride == 2048

    def test_node_budget_raises_with_counts(self):
        mgr = BDD(num_vars=16)
        dog = Watchdog(ResourceBudget(node_budget=1), mgr)
        for v in range(8):
            mgr.var_bdd(v)
        with pytest.raises(NodeBudgetExceeded) as exc:
            dog.check()
        assert exc.value.budget == 1
        assert exc.value.node_count > 1

    def test_deadline_raises_timeout(self):
        mgr = BDD(num_vars=4)
        dog = Watchdog(ResourceBudget(timeout=0), mgr)
        time.sleep(0.001)
        with pytest.raises(SolverTimeout):
            dog.check()

    def test_manager_mk_hook_fires_mid_build(self):
        """The kernel itself interrupts a growing build, not just the
        solver loop — a runaway apply is caught while it grows."""
        mgr = BDD(num_vars=24)
        budget = ResourceBudget(node_budget=64)
        dog = Watchdog(budget, mgr)
        mgr.set_watchdog(dog.check, stride=dog.stride)
        try:
            with pytest.raises(NodeBudgetExceeded):
                # Parity of 24 variables: exponential intermediate growth.
                f = mgr.var_bdd(0)
                for v in range(1, 24):
                    f = _xor(mgr, f, mgr.var_bdd(v))
                    g = mgr.or_(f, mgr.and_(mgr.var_bdd(v), f))
                    f = mgr.or_(f, g)
        finally:
            mgr.clear_watchdog()
        # Detection lags by at most one stride.
        assert mgr.node_count() <= 64 + mgr._watchdog_stride + 64


class TestSolverFaults:
    def test_deadline_mid_stratum_carries_partial_stats(self):
        solver = tc_solver(budget=ResourceBudget(timeout=0))
        time.sleep(0.001)
        with pytest.raises(SolverTimeout) as exc:
            solver.solve()
        err = exc.value
        assert isinstance(err.stats, SolveStats)
        # Rule-free input strata complete instantly; the interrupted
        # stratum is the one computing `path`.
        assert err.completed_strata is not None
        assert err.stratum and "path" in err.stratum

    def test_node_budget_mid_stratum(self):
        solver = tc_solver(budget=ResourceBudget(node_budget=8))
        with pytest.raises(NodeBudgetExceeded) as exc:
            solver.solve()
        assert exc.value.node_count > 8
        assert exc.value.stratum is not None

    def test_iteration_limit_names_rules(self):
        # The 20-edge chain needs ~20 semi-naive iterations.
        solver = tc_solver(budget=ResourceBudget(max_iterations=3))
        with pytest.raises(IterationLimitExceeded) as exc:
            solver.solve()
        err = exc.value
        assert err.iterations == 3
        assert any("path" in rule for rule in err.rules)
        assert err.stats.iterations > 0
        # The partial state is a subset of the fixpoint.
        partial = set(solver.relation("path").tuples())
        reference = tc_solver()
        reference.solve()
        assert partial <= set(reference.relation("path").tuples())

    def test_generous_budget_changes_nothing(self):
        governed = tc_solver(
            budget=ResourceBudget(timeout=60, node_budget=10 ** 7)
        )
        governed.solve()
        plain = tc_solver()
        plain.solve()
        assert set(governed.relation("path").tuples()) == set(
            plain.relation("path").tuples()
        )
        # The watchdog is disarmed after the solve.
        assert governed.manager._watchdog is None


class TestInputValidation:
    def test_out_of_range_value_names_the_fact(self):
        solver = tc_solver()
        with pytest.raises(InvalidInputError) as exc:
            solver.add_tuples("edge", [(1, 99)])
        err = exc.value
        assert err.predicate == "edge"
        assert err.attribute == "b"
        assert err.value == 99
        assert "edge" in str(err) and "99" in str(err)

    def test_non_integer_value_rejected(self):
        solver = tc_solver()
        with pytest.raises(InvalidInputError) as exc:
            solver.add_tuples("edge", [("zero", 1)])
        assert exc.value.value == "zero"

    def test_negative_value_rejected(self):
        solver = tc_solver()
        with pytest.raises(InvalidInputError):
            solver.add_tuples("edge", [(-1, 0)])

    def test_valid_tuples_still_accepted(self):
        solver = tc_solver()
        solver.add_tuples("edge", [(30, 31)])
        solver.solve()
        assert (30, 31) in set(solver.relation("path").tuples())
