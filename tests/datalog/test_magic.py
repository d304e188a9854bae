"""Magic-sets rewriting: goal-directed answers must equal the exhaustive
solve restricted to the goal bindings (the magic-sets theorem, checked)."""

import itertools

import pytest

from repro.datalog import DatalogError, Solver, parse_program
from repro.datalog.magic import magic_rewrite
from repro.runtime import faults

TC = """
.domains
N 32
.relations
edge (src : N0, dst : N1) input
path (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""

# Two disconnected components: querying inside one must not derive the other.
EDGES = [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (13, 10)]


def full_solve(text, facts, **kwargs):
    solver = Solver(parse_program(text), **kwargs)
    for name, tuples in facts.items():
        solver.add_tuples(name, tuples)
    solver.solve()
    return solver


def demand_solve(text, goals, facts, seeds, **kwargs):
    mp = magic_rewrite(parse_program(text), goals, **kwargs)
    solver = Solver(mp.program)
    for name, tuples in facts.items():
        solver.add_tuples(name, tuples)
    for (pred, ad), tuples in seeds.items():
        info = mp.goal(pred, ad)
        assert info.magic is not None
        solver.add_tuples(info.magic, tuples)
    solver.solve()
    return mp, solver


class TestTransitiveClosure:
    def test_bound_first_matches_exhaustive(self):
        full = full_solve(TC, {"edge": EDGES})
        want = {t[1:] for t in full.relation("path").tuples() if t[0] == 0}
        mp, solver = demand_solve(
            TC, [("path", "bf")], {"edge": EDGES}, {("path", "bf"): [(0,)]}
        )
        answer = solver.relation(mp.goal("path", "bf").answer)
        assert set(answer.select(src=0).tuples()) == want

    def test_goal_directed_skips_unrelated_component(self):
        mp, solver = demand_solve(
            TC, [("path", "bf")], {"edge": EDGES}, {("path", "bf"): [(0,)]}
        )
        derived = set(solver.relation(mp.goal("path", "bf").answer).tuples())
        # Nothing from the {10..13} cycle was computed.
        assert derived and all(src < 10 for src, _ in derived)

    def test_multiple_seeds_accumulate(self):
        full = full_solve(TC, {"edge": EDGES})
        mp, solver = demand_solve(
            TC,
            [("path", "bf")],
            {"edge": EDGES},
            {("path", "bf"): [(0,), (11,)]},
        )
        answer = solver.relation(mp.goal("path", "bf").answer)
        for src in (0, 11):
            want = {t[1:] for t in full.relation("path").tuples() if t[0] == src}
            assert set(answer.select(src=src).tuples()) == want

    def test_solve_demand_incremental_seeding(self):
        full = full_solve(TC, {"edge": EDGES})
        mp = magic_rewrite(parse_program(TC), [("path", "bf")])
        info = mp.goal("path", "bf")
        solver = Solver(mp.program)
        solver.add_tuples("edge", EDGES)
        solver.solve_demand({info.magic: [(0,)]})
        answer = solver.relation(info.answer)
        assert set(answer.select(src=0).tuples()) == {
            t[1:] for t in full.relation("path").tuples() if t[0] == 0
        }
        before = solver.stats.rule_applications
        # Second query over the other component: pushed as a delta.
        solver.solve_demand({info.magic: [(10,)]})
        assert set(answer.select(src=10).tuples()) == {
            t[1:] for t in full.relation("path").tuples() if t[0] == 10
        }
        # Re-seeding an already-answered goal is a no-op.
        applications = solver.stats.rule_applications
        solver.solve_demand({info.magic: [(0,), (10,)]})
        assert solver.stats.rule_applications == applications
        assert applications > before

    def test_exception_mid_push_then_requery(self):
        # A fault that is not a budget error, raised while goal 10's seed
        # is pushed, must not leave the solver claiming a fixpoint: the
        # same query again finishes the push and answers in full.
        full = full_solve(TC, {"edge": EDGES})
        want = {t[1:] for t in full.relation("path").tuples() if t[0] == 10}
        mp = magic_rewrite(parse_program(TC), [("path", "bf")])
        info = mp.goal("path", "bf")
        runs = itertools.product(["reference", "packed"], range(1, 6))
        for backend, hit in runs:
            solver = Solver(mp.program, backend=backend)
            solver.add_tuples("edge", EDGES)
            solver.solve_demand({info.magic: [(0,)]})
            faults.arm(f"exception@solver.stratum#{hit}")
            try:
                with pytest.raises(faults.FaultError):
                    solver.solve_demand({info.magic: [(10,)]})
            finally:
                faults.disarm()
            assert not solver.at_fixpoint
            solver.solve_demand({info.magic: [(10,)]})
            assert solver.at_fixpoint
            answer = solver.relation(info.answer)
            assert set(answer.select(src=10).tuples()) == want, (backend, hit)


SG = """
.domains
N 64
.relations
parent (child : N0, parent : N1) input
sg (a : N0, b : N1) output
.rules
sg(x, x) :- parent(x, _).
sg(x, x) :- parent(_, x).
sg(x, y) :- parent(x, px), sg(px, py), parent(y, py).
"""


class TestSameGeneration:
    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_matches_exhaustive(self, backend):
        parents = [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (7, 6), (8, 6)]
        full = full_solve(SG, {"parent": parents}, backend=backend)
        mp, solver = demand_solve(
            SG,
            [("sg", "bf")],
            {"parent": parents},
            {("sg", "bf"): [(3,)]},
        )
        answer = solver.relation(mp.goal("sg", "bf").answer)
        want = {t[1:] for t in full.relation("sg").tuples() if t[0] == 3}
        assert set(answer.select(a=3).tuples()) == want
        # 7/8's family tree is disjoint from 3's: never touched.
        derived = set(answer.tuples())
        assert all(a <= 5 and b <= 5 for a, b in derived)


NEGATION = """
.domains
N 16
.relations
node (n : N0) input
edge (src : N0, dst : N1) input
path (src : N0, dst : N1)
unreach (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreach(x, y) :- node(x), node(y), !path(x, y).
"""


class TestStratifiedNegation:
    def test_negated_predicate_computed_in_full(self):
        nodes = [(i,) for i in range(6)]
        edges = [(0, 1), (1, 2), (4, 5)]
        full = full_solve(NEGATION, {"node": nodes, "edge": edges})
        mp, solver = demand_solve(
            NEGATION,
            [("unreach", "bf")],
            {"node": nodes, "edge": edges},
            {("unreach", "bf"): [(0,)]},
        )
        answer = solver.relation(mp.goal("unreach", "bf").answer)
        want = {t[1:] for t in full.relation("unreach").tuples() if t[0] == 0}
        assert set(answer.select(src=0).tuples()) == want
        # The negated path relation keeps its original name and is full.
        assert set(solver.relation("path").tuples()) == set(
            full.relation("path").tuples()
        )

    def test_rewrite_stays_stratified(self):
        mp = magic_rewrite(parse_program(NEGATION), [("unreach", "bb")])
        # stratify() ran inside magic_rewrite; sanity-check the shape too.
        assert any(r.head.relation == "path" for r in mp.program.rules)


class TestAdornmentControl:
    def test_widening_cap_still_correct(self):
        full = full_solve(SG, {"parent": [(1, 0), (2, 0), (3, 1), (4, 2)]})
        mp = magic_rewrite(
            parse_program(SG), [("sg", "bf"), ("sg", "bb")], max_adornments=1
        )
        # "bb" widened onto the existing "bf" variant.
        info_bf = mp.goal("sg", "bf")
        info_bb = mp.goal("sg", "bb")
        assert info_bb.answer == info_bf.answer
        assert info_bb.bound == (0,)
        solver = Solver(mp.program)
        solver.add_tuples("parent", [(1, 0), (2, 0), (3, 1), (4, 2)])
        solver.add_tuples(info_bb.magic, [(3,)])
        solver.solve()
        want = (3, 4) in set(full.relation("sg").tuples())
        got = not solver.relation(info_bb.answer).select(a=3, b=4).is_empty()
        assert got == want

    def test_goal_on_input_relation_rejected(self):
        with pytest.raises(DatalogError):
            magic_rewrite(parse_program(TC), [("edge", "bf")])

    def test_bad_adornment_rejected(self):
        with pytest.raises(DatalogError):
            magic_rewrite(parse_program(TC), [("path", "bfx")])
        with pytest.raises(DatalogError):
            magic_rewrite(parse_program(TC), [("path", "b")])
