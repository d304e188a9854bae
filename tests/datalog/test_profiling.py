"""Tests for the per-rule evaluation profile."""

from repro.datalog import Solver, parse_program

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


def solved():
    solver = Solver(parse_program(TC))
    solver.add_tuples("edge", [(i, i + 1) for i in range(8)])
    solver.solve()
    return solver


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
        costs = [p.seconds for p in profiles]
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
