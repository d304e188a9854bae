"""End-to-end tests for the Datalog-to-BDD solver."""

import itertools
from types import SimpleNamespace

import pytest

from repro.datalog import DatalogError, Solver, parse_program
from repro.datalog import solver as solver_module
from repro.runtime.budget import ResourceBudget
from repro.runtime.errors import IterationLimitExceeded


def solve(text, facts, **kwargs):
    prog = parse_program(text)
    solver = Solver(prog, **kwargs)
    for name, tuples in facts.items():
        solver.add_tuples(name, tuples)
    solver.solve()
    return solver


TRANSITIVE_CLOSURE = """
.domains
N 32
.relations
edge (src : N0, dst : N1) input
path (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


class TestTransitiveClosure:
    def test_chain(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2), (2, 3)]})
        got = set(solver.relation("path").tuples())
        assert got == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_cycle(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 0)]})
        got = set(solver.relation("path").tuples())
        assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_empty(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": []})
        assert solver.relation("path").is_empty()

    def test_naive_matches_seminaive(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        naive = solve(TRANSITIVE_CLOSURE, {"edge": edges})
        semi = solve(TRANSITIVE_CLOSURE, {"edge": edges}, seminaive=True)
        assert set(naive.relation("path").tuples()) == set(
            semi.relation("path").tuples()
        )

    def test_seminaive_fewer_applications_on_long_chain(self):
        edges = [(i, i + 1) for i in range(20)]
        naive = solve(TRANSITIVE_CLOSURE, {"edge": edges})
        semi = solve(TRANSITIVE_CLOSURE, {"edge": edges}, seminaive=True)
        assert semi.stats.rule_applications <= naive.stats.rule_applications * 2
        assert semi.stats.iterations >= 2


class TestLoopSplit:
    """Fresh strata iterate whole-rule plans; seeded deltas (an edit, a
    later demand call) run the semi-naive delta variants."""

    @staticmethod
    def _recursive_variants(solver):
        return {
            r.variant for r in solver.rule_profile()
            if r.rule.startswith("path(x, z)")
        }

    def test_fresh_solve_runs_full_plans(self):
        edges = [(i, i + 1) for i in range(6)]
        solver = solve(TRANSITIVE_CLOSURE, {"edge": edges})
        assert self._recursive_variants(solver) == {"full"}
        [record] = [r for r in solver.rule_profile()
                    if r.rule.startswith("path(x, z)")]
        assert record.applications > 1 and record.kernel_ops > 0
        semi = solve(TRANSITIVE_CLOSURE, {"edge": edges}, seminaive=True)
        assert self._recursive_variants(semi) == {"delta=atom0"}

    def test_long_fresh_stratum_goes_on_semi_naively(self):
        # On a chain of 20 edges path grows by one hop per iteration, so
        # the stratum outlasts the naive phase and continues with the
        # delta variant, seeded with the last naive iteration's tuples.
        edges = [(i, i + 1) for i in range(20)]
        solver = solve(TRANSITIVE_CLOSURE, {"edge": edges})
        records = {
            r.variant: r for r in solver.rule_profile()
            if r.rule.startswith("path(x, z)")
        }
        assert set(records) == {"full", "delta=atom0"}
        assert records["full"].applications == solver_module._NAIVE_ITERATIONS
        semi = solve(TRANSITIVE_CLOSURE, {"edge": edges}, seminaive=True)
        assert set(solver.relation("path").tuples()) == set(
            semi.relation("path").tuples()
        )
        assert len(set(semi.relation("path").tuples())) == 20 * 21 // 2

    def test_iteration_limit_counts_both_loops(self):
        edges = [(i, i + 1) for i in range(20)]
        with pytest.raises(IterationLimitExceeded) as info:
            solve(
                TRANSITIVE_CLOSURE, {"edge": edges},
                budget=ResourceBudget(max_iterations=12),
            )
        assert info.value.iterations == 12
        assert info.value.stats.iterations == 12

    def test_incremental_push_runs_delta_variants(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2)]})
        edge = solver.relation("edge")
        added = edge.tuples_node([(2, 3)])
        solver.set_node("edge", solver.manager.or_(edge.node, added))
        solver.stats.records.clear()
        solver.solve_incremental({"edge": added})
        assert self._recursive_variants(solver) == {
            "delta=atom0", "delta=atom1"
        }
        assert (0, 3) in set(solver.relation("path").tuples())

    def test_second_demand_call_runs_delta_variants(self):
        text = TRANSITIVE_CLOSURE.replace(
            "path (src : N0, dst : N1) output",
            "path (src : N0, dst : N1) output\n"
            "start (src : N0) input",
        ).replace(
            "path(x, y) :- edge(x, y).",
            "path(x, y) :- start(x), edge(x, y).",
        )
        solver = Solver(parse_program(text))
        solver.add_tuples("edge", [(i, i + 1) for i in range(6)])
        solver.solve_demand({"start": [(0,)]})
        assert self._recursive_variants(solver) == {"full"}
        solver.stats.records.clear()
        solver.solve_demand({"start": [(3,)]})
        assert self._recursive_variants(solver) == {"delta=atom0"}
        assert (3, 6) in set(solver.relation("path").tuples())


SAME_GENERATION = """
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
    def test_small_tree(self):
        #       0
        #     1   2
        #    3 4   5
        parents = [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]
        solver = solve(SAME_GENERATION, {"parent": parents})
        got = set(solver.relation("sg").tuples())
        for a, b in [(1, 2), (3, 4), (3, 5), (4, 5)]:
            assert (a, b) in got and (b, a) in got
        assert (1, 3) not in got


class TestConstantsAndDontCares:
    def test_constant_filter(self):
        text = """
.domains
I 16
Z 8
V 16
.relations
actual (invoke : I, param : Z, var : V) input
receiver (invoke : I, var : V) output
.rules
receiver(i, v) :- actual(i, 0, v).
"""
        solver = solve(
            text, {"actual": [(1, 0, 7), (1, 1, 8), (2, 0, 9), (2, 2, 3)]}
        )
        assert set(solver.relation("receiver").tuples()) == {(1, 7), (2, 9)}

    def test_named_constant(self):
        text = """
.domains
V 8
H 8
.relations
vP (v : V, h : H) input
leak (v : V) output
.rules
leak(v) :- vP(v, "a.java:57").
"""
        prog = parse_program(text)
        solver = Solver(
            prog, name_maps={"H": ["other", "a.java:57", "more"]}
        )
        solver.add_tuples("vP", [(3, 1), (4, 2), (5, 1)])
        solver.solve()
        assert set(solver.relation("leak").tuples()) == {(3,), (5,)}

    def test_unknown_named_constant_raises(self):
        text = """
.domains
V 8
.relations
a (v : V) input
b (v : V) output
.rules
b("nope") :- a(_).
"""
        prog = parse_program(text)
        solver = Solver(prog, name_maps={"V": ["a", "b"]})
        solver.add_tuples("a", [(0,)])
        with pytest.raises(DatalogError):
            solver.solve()

    def test_dontcare_projection(self):
        text = """
.domains
V 8
H 8
.relations
vP (v : V, h : H) input
hasPt (v : V) output
.rules
hasPt(v) :- vP(v, _).
"""
        solver = solve(text, {"vP": [(1, 3), (1, 4), (2, 5)]})
        assert set(solver.relation("hasPt").tuples()) == {(1,), (2,)}

    def test_repeated_variable_in_body(self):
        text = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
selfloop (a : N0) output
.rules
selfloop(x) :- edge(x, x).
"""
        solver = solve(text, {"edge": [(1, 1), (1, 2), (3, 3)]})
        assert set(solver.relation("selfloop").tuples()) == {(1,), (3,)}

    def test_repeated_variable_in_head(self):
        text = """
.domains
N 16
.relations
node (a : N) input
diag (a : N0, b : N1) output
.rules
diag(x, x) :- node(x).
"""
        solver = solve(text, {"node": [(2,), (5,)]})
        assert set(solver.relation("diag").tuples()) == {(2, 2), (5, 5)}

    def test_constant_in_head(self):
        text = """
.domains
N 16
.relations
a (x : N) input
b (x : N0, tag : N1) output
.rules
b(x, 7) :- a(x).
"""
        solver = solve(text, {"a": [(1,), (2,)]})
        assert set(solver.relation("b").tuples()) == {(1, 7), (2, 7)}


class TestNegationAndComparison:
    def test_stratified_negation(self):
        text = """
.domains
N 16
.relations
all (x : N) input
bad (x : N) input
good (x : N) output
.rules
good(x) :- all(x), !bad(x).
"""
        solver = solve(text, {"all": [(1,), (2,), (3,)], "bad": [(2,)]})
        assert set(solver.relation("good").tuples()) == {(1,), (3,)}

    def test_negation_with_dontcare(self):
        text = """
.domains
N 16
.relations
node (x : N) input
edge (a : N0, b : N1) input
sink (x : N) output
.rules
sink(x) :- node(x), !edge(x, _).
"""
        solver = solve(
            text, {"node": [(1,), (2,), (3,)], "edge": [(1, 2), (1, 3)]}
        )
        assert set(solver.relation("sink").tuples()) == {(2,), (3,)}

    def test_unstratified_rejected(self):
        text = """
.domains
N 4
.relations
p (x : N)
q (x : N)
.rules
p(x) :- q(x), !p(x).
"""
        prog = parse_program(text)
        # Stratification runs at construction (the plan optimizer needs
        # the strata before any BDD state exists).
        with pytest.raises(DatalogError):
            Solver(prog)

    def test_pure_negation_uses_universe(self):
        # The paper's varSuperTypes rule: head bound only via negation.
        text = """
.domains
N 8
.relations
notIn (x : N) input
inSet (x : N) output
.rules
inSet(x) :- !notIn(x).
"""
        solver = solve(text, {"notIn": [(0,), (3,)]})
        got = set(solver.relation("inSet").tuples())
        assert got == {(i,) for i in range(8)} - {(0,), (3,)}

    def test_inequality(self):
        text = """
.domains
N 8
.relations
pair (a : N0, b : N1) input
strict (a : N0, b : N1) output
.rules
strict(a, b) :- pair(a, b), a != b.
"""
        solver = solve(text, {"pair": [(1, 1), (1, 2), (3, 3), (4, 5)]})
        assert set(solver.relation("strict").tuples()) == {(1, 2), (4, 5)}

    def test_equality_join(self):
        text = """
.domains
N 8
.relations
a (x : N0) input
b (y : N1) input
same (x : N0, y : N1) output
.rules
same(x, y) :- a(x), b(y), x = y.
"""
        solver = solve(text, {"a": [(1,), (2,), (3,)], "b": [(2,), (3,), (4,)]})
        assert set(solver.relation("same").tuples()) == {(2, 2), (3, 3)}

    def test_comparison_with_constant(self):
        text = """
.domains
N 8
.relations
a (x : N) input
nonzero (x : N) output
.rules
nonzero(x) :- a(x), x != 0.
"""
        solver = solve(text, {"a": [(0,), (1,), (2,)]})
        assert set(solver.relation("nonzero").tuples()) == {(1,), (2,)}


class TestMultipleStrata:
    def test_negation_over_recursive_stratum(self):
        text = """
.domains
N 32
.relations
edge (a : N0, b : N1) input
node (a : N) input
path (a : N0, b : N1) output
unreachable (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreachable(x, y) :- node(x), node(y), !path(x, y).
"""
        solver = solve(
            text,
            {"edge": [(0, 1), (1, 2)], "node": [(0,), (1,), (2,)]},
        )
        unreachable = set(solver.relation("unreachable").tuples())
        assert (2, 0) in unreachable
        assert (0, 2) not in unreachable

    def test_mutual_recursion(self):
        text = """
.domains
N 32
.relations
next (a : N0, b : N1) input
even (a : N) output
odd (a : N) output
.rules
even(0) :- next(_, _).
odd(y) :- even(x), next(x, y).
even(y) :- odd(x), next(x, y).
"""
        solver = solve(text, {"next": [(i, i + 1) for i in range(6)]})
        assert set(solver.relation("even").tuples()) == {(0,), (2,), (4,), (6,)}
        assert set(solver.relation("odd").tuples()) == {(1,), (3,), (5,)}


class TestSolverInfra:
    def test_stats_populated(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2)]})
        assert solver.stats.seconds >= 0
        assert solver.stats.iterations >= 1
        assert solver.stats.rule_applications >= 2
        assert solver.stats.peak_nodes > 2
        assert solver.stats.peak_bytes == solver.stats.peak_nodes * 16

    def test_seconds_accumulate_across_calls(self, monkeypatch):
        # Like iterations and rule_applications, seconds is cumulative
        # over every solve, solve_incremental and solve_demand call.
        ticks = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(ticks)))
        monkeypatch.setattr(solver_module, "time", clock)
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2)]})
        totals = [solver.stats.seconds]
        solver.solve_incremental({})
        totals.append(solver.stats.seconds)
        solver.solve()
        totals.append(solver.stats.seconds)
        assert totals[0] > 0
        assert totals[0] < totals[1] < totals[2]

    def test_relation_count(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2), (2, 3)]})
        assert solver.relation("path").count() == 6

    def test_contains(self):
        solver = solve(TRANSITIVE_CLOSURE, {"edge": [(0, 1), (1, 2)]})
        assert solver.relation("path").contains((0, 2))
        assert not solver.relation("path").contains((2, 0))

    def test_named_tuples(self):
        text = """
.domains
V 4
.relations
a (x : V) input
b (x : V) output
.rules
b(x) :- a(x).
"""
        prog = parse_program(text)
        solver = Solver(prog, name_maps={"V": ["w", "x", "y", "z"]})
        solver.add_tuples("a", [(1,), (3,)])
        solver.solve()
        assert set(solver.named_tuples("b")) == {("x",), ("z",)}

    def test_custom_order_spec(self):
        prog = parse_program(TRANSITIVE_CLOSURE)
        # The solver allocates a third N instance for the 3-variable
        # recursive rule; a custom spec must cover every instance.
        solver = Solver(prog, order_spec="N1xN0_N2")
        solver.add_tuples("edge", [(0, 1), (1, 2)])
        solver.solve()
        assert set(solver.relation("path").tuples()) == {(0, 1), (0, 2), (1, 2)}

    def test_partial_order_spec_completed(self):
        # A spec mentioning only some instances is completed with the
        # missing ones appended, so partial specs survive program growth.
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog, order_spec="N1xN0")
        assert "N2" in solver.order_spec
        solver.add_tuples("edge", [(0, 1), (1, 2)])
        solver.solve()
        assert set(solver.relation("path").tuples()) == {(0, 1), (0, 2), (1, 2)}

    def test_logical_order_spec_expansion(self):
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog, order_spec="N")
        assert solver.order_spec == "N0xN1xN2"

    def test_gc_during_solve(self):
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog, gc_threshold=64)  # force GC nearly every pass
        solver.add_tuples("edge", [(i, i + 1) for i in range(12)])
        solver.solve()
        assert solver.manager.gc_count >= 1
        got = set(solver.relation("path").tuples())
        assert (0, 12) in got and len(got) == 12 * 13 // 2

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_cache_clears_counted(self, backend):
        # The solver's between-iteration clear goes through the kernel's
        # counted path, so SolveStats sees every clear it makes.
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog, cache_limit=1, backend=backend)
        solver.add_tuples("edge", [(i, i + 1) for i in range(12)])
        stats = solver.solve()
        assert stats.cache_clears > 0
        assert stats.cache_clears == solver.manager.cache_clears
        assert len(set(solver.relation("path").tuples())) == 12 * 13 // 2

    def test_unknown_relation_raises(self):
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog)
        with pytest.raises(DatalogError):
            solver.relation("nope")

    def test_set_node_roundtrip(self):
        prog = parse_program(TRANSITIVE_CLOSURE)
        solver = Solver(prog)
        rel = solver.relation("edge")
        rel.set_tuples([(4, 5)])
        node = rel.node
        solver.set_node("edge", node)
        assert set(rel.tuples()) == {(4, 5)}
