"""Tests for the per-variant execution records (``--profile``)."""

from repro.datalog import Solver, parse_program
from repro.datalog.magic import magic_rewrite

TC = """
.domains
N 32
.relations
edge (src : N0, dst : N1) input
path (src : N0, dst : N1) output
lonely (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
lonely(x, y) :- edge(x, y), edge(y, x).
"""


def solved(**kwargs):
    solver = Solver(parse_program(TC), **kwargs)
    solver.add_tuples("edge", [(i, i + 1) for i in range(8)])
    solver.solve()
    return solver


def rows(solver):
    """The records as --profile-json shows them, without seconds."""
    return [
        (p.rule, p.variant, p.applications, p.tuples_produced,
         p.kernel_ops, list(p.counts))
        for p in solver.rule_profile()
    ]


def snapshot(solver):
    return {
        (p.rule, p.variant): (p.applications, p.kernel_ops, list(p.counts))
        for p in solver.rule_profile()
    }


def grew_on_top(before, after):
    """Every row of ``before`` is still in ``after`` with counters no
    smaller, and at least one counter grew."""
    grew = False
    for key, (apps, ops, counts) in before.items():
        later_apps, later_ops, later_counts = after[key]
        assert later_apps >= apps and later_ops >= ops
        assert all(b >= a for a, b in zip(counts, later_counts))
        grew = grew or later_apps > apps
    return grew or len(after) > len(before)


class TestRuleProfile:
    def test_profile_covers_all_rules(self):
        solver = solved()
        profiles = solver.rule_profile()
        assert len(profiles) == 3
        assert all(p.applications >= 1 for p in profiles)

    def test_recursive_rule_applied_most(self):
        solver = solved()
        by_rule = {p.rule: p for p in solver.rule_profile()}
        recursive = next(p for r, p in by_rule.items() if "path(x, y)" in r and "edge(y, z)" in r or "path(x, y)," in r)
        base = by_rule["path(x, y) :- edge(x, y)."]
        assert recursive.applications > base.applications

    def test_sorted_by_cost(self):
        solver = solved()
        profiles = solver.rule_profile()
        costs = [p.kernel_ops for p in profiles]
        assert costs == sorted(costs, reverse=True)

    def test_unproductive_rule_counts(self):
        solver = solved()
        by_rule = {p.rule: p for p in solver.rule_profile()}
        lonely = by_rule["lonely(x, y) :- edge(x, y), edge(y, x)."]
        # No symmetric edges exist: applications happen, nothing produced.
        assert lonely.applications >= 1
        assert lonely.tuples_produced == 0

    def test_productive_rule_counts(self):
        solver = solved()
        by_rule = {p.rule: p for p in solver.rule_profile()}
        base = by_rule["path(x, y) :- edge(x, y)."]
        assert base.tuples_produced >= 1


class TestExecutionRecord:
    def test_tracing_changes_no_row(self):
        plain = solved()
        traced = solved(trace_ops=True)
        assert rows(plain) == rows(traced)
        assert all(p.op_seconds is None for p in plain.rule_profile())
        assert all(
            len(p.op_seconds) == len(p.counts) == len(p.op_nodes)
            for p in traced.rule_profile()
        )

    def test_kernel_ops_bounded_by_the_kernel_count(self):
        solver = solved()
        charged = sum(p.kernel_ops for p in solver.rule_profile())
        assert 0 < charged <= solver.manager.op_count

    def test_one_row_per_executed_variant(self):
        solver = solved()
        keys = [(p.rule, p.variant) for p in solver.rule_profile()]
        assert len(keys) == len(set(keys))
        recursive = [
            p for p in solver.rule_profile()
            if p.rule == "path(x, z) :- path(x, y), edge(y, z)."
        ]
        assert [p.variant for p in recursive] == ["full"]
        assert recursive[0].kernel_ops > 0

    def test_totals_are_derived_from_the_rows(self):
        solver = solved()
        profiles = solver.rule_profile()
        assert solver.stats.rule_applications == sum(
            p.applications for p in profiles
        )
        executed = sum(sum(p.counts) for p in profiles)
        slots = sum(
            runs * len(solver.plan_unit.hoisted[slot].ops)
            for slot, runs in solver.stats.slot_runs.items()
        )
        assert sum(solver.stats.plan_ops.values()) == executed + slots

    def test_incremental_rows_accumulate(self):
        solver = solved()
        before = snapshot(solver)
        edge = solver.relation("edge")
        delta = edge.tuples_node([(8, 9), (9, 8)])
        edge.set_node(solver.manager.or_(edge.node, delta))
        solver.solve_incremental({"edge": delta})
        assert grew_on_top(before, snapshot(solver))

    def test_demand_rows_accumulate(self):
        mp = magic_rewrite(parse_program(TC), [("path", "bf")])
        info = mp.goal("path", "bf")
        solver = Solver(mp.program)
        solver.add_tuples("edge", [(i, i + 1) for i in range(8)])
        solver.solve_demand({info.magic: [(0,)]})
        before = snapshot(solver)
        applications = solver.stats.rule_applications
        solver.solve_demand({info.magic: [(5,)]})
        assert grew_on_top(before, snapshot(solver))
        assert solver.stats.rule_applications > applications
