"""``Solver.solve_incremental``: re-solve after input edits.

Each test solves a program twice — once incrementally from a previous
fixpoint, once from scratch on the edited inputs — and asserts the
derived relations are identical.  The stats assert *how* the answer was
reached: pure additions must not recompute any stratum, and removals
must recompute only the affected strata.
"""

from repro.datalog import Solver, parse_program

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

# Two strata: reachability, then a stratified-negation query over it.
UNREACHED = """
.domains
N 32
.relations
edge (src : N0, dst : N1) input
mark (n : N0) input
path (src : N0, dst : N1) output
missed (n : N0) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
missed(y) :- mark(y), !path(0, y).
"""


def _solver(text, facts):
    solver = Solver(parse_program(text))
    for name, tuples in facts.items():
        solver.add_tuples(name, tuples)
    solver.solve()
    return solver


def _add(solver, name, tuples):
    """Patch an input with new tuples; returns the added-delta node."""
    rel = solver.relation(name)
    m = solver.manager
    delta = m.diff(rel.tuples_node(tuples), rel.node)
    rel.set_node(m.or_(rel.node, delta))
    return delta


def _remove(solver, name, tuples):
    rel = solver.relation(name)
    m = solver.manager
    rel.set_node(m.diff(rel.node, rel.tuples_node(tuples)))


def _tuples(solver, name):
    return set(solver.relation(name).tuples())


class TestAdditions:
    def test_added_edge_extends_paths(self):
        solver = _solver(TC, {"edge": [(0, 1), (2, 3)]})
        delta = _add(solver, "edge", [(1, 2)])
        solver.solve_incremental({"edge": delta})
        fresh = _solver(TC, {"edge": [(0, 1), (1, 2), (2, 3)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")

    def test_no_op_delta_skips_everything(self):
        solver = _solver(TC, {"edge": [(0, 1)]})
        before = _tuples(solver, "path")
        iterations = solver.stats.iterations
        stats = solver.solve_incremental({})
        assert _tuples(solver, "path") == before
        # Every stratum skipped: no new semi-naive iterations ran.
        assert stats.iterations == iterations

    def test_addition_closing_a_cycle(self):
        solver = _solver(TC, {"edge": [(0, 1), (1, 2)]})
        delta = _add(solver, "edge", [(2, 0)])
        solver.solve_incremental({"edge": delta})
        fresh = _solver(TC, {"edge": [(0, 1), (1, 2), (2, 0)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")

    def test_repeated_increments_reach_the_same_fixpoint(self):
        solver = _solver(TC, {"edge": [(0, 1)]})
        for edge in [(1, 2), (2, 3), (3, 4)]:
            delta = _add(solver, "edge", [edge])
            solver.solve_incremental({"edge": delta})
        fresh = _solver(TC, {"edge": [(0, 1), (1, 2), (2, 3), (3, 4)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")


class TestRemovals:
    def test_removed_edge_retracts_paths(self):
        solver = _solver(TC, {"edge": [(0, 1), (1, 2), (2, 3)]})
        _remove(solver, "edge", [(1, 2)])
        solver.solve_incremental({}, dirty=["edge"])
        fresh = _solver(TC, {"edge": [(0, 1), (2, 3)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")

    def test_mixed_add_and_remove(self):
        solver = _solver(TC, {"edge": [(0, 1), (1, 2)]})
        _remove(solver, "edge", [(1, 2)])
        delta = _add(solver, "edge", [(1, 3)])
        solver.solve_incremental({"edge": delta}, dirty=["edge"])
        fresh = _solver(TC, {"edge": [(0, 1), (1, 3)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")

    def test_removal_in_a_cycle(self):
        solver = _solver(TC, {"edge": [(0, 1), (1, 0), (1, 2)]})
        _remove(solver, "edge", [(1, 0)])
        solver.solve_incremental({}, dirty=["edge"])
        fresh = _solver(TC, {"edge": [(0, 1), (1, 2)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")


class TestStratification:
    def test_negation_over_grown_relation_recomputes(self):
        # Adding an edge *grows* path, but 'missed' negates path, so the
        # negation stratum must be recomputed, not delta-pushed.
        facts = {"edge": [(0, 1)], "mark": [(1,), (2,)]}
        solver = _solver(UNREACHED, facts)
        assert _tuples(solver, "missed") == {(2,)}
        delta = _add(solver, "edge", [(1, 2)])
        solver.solve_incremental({"edge": delta})
        assert _tuples(solver, "missed") == set()

    def test_removal_repopulates_negation(self):
        facts = {"edge": [(0, 1), (1, 2)], "mark": [(2,)]}
        solver = _solver(UNREACHED, facts)
        assert _tuples(solver, "missed") == set()
        _remove(solver, "edge", [(1, 2)])
        solver.solve_incremental({}, dirty=["edge"])
        assert _tuples(solver, "missed") == {(2,)}

    def test_untouched_strata_are_skipped(self):
        facts = {"edge": [(0, 1)], "mark": [(1,)]}
        solver = _solver(UNREACHED, facts)
        # Editing only 'mark' must not re-derive 'path' (lower stratum).
        path_before = solver.relation("path").node
        delta = _add(solver, "mark", [(0,)])
        solver.solve_incremental({"mark": delta})
        assert solver.relation("path").node == path_before
        # mark(1) is reachable from 0; the newly marked 0 is not
        # (path is irreflexive here), so only 0 is missed.
        assert _tuples(solver, "missed") == {(0,)}


class TestGarbageCollection:
    def test_changes_survive_collection_mid_stratum(self):
        # gc_threshold=1 collects on every semi-naive iteration.  The old
        # values and pending deltas the solver diffs after recomputing
        # 'path' must survive the collections, or 'missed' is decided
        # from dangling nodes.
        chain = [(i, i + 1) for i in range(6)]
        facts = {"edge": chain, "mark": [(6,)]}
        solver = Solver(parse_program(UNREACHED), gc_threshold=1)
        for name, tuples in facts.items():
            solver.add_tuples(name, tuples)
        solver.solve()
        assert _tuples(solver, "missed") == set()
        _remove(solver, "edge", [(2, 3)])
        solver.solve_incremental({}, dirty=["edge"])
        edges = chain[:2] + chain[3:]
        fresh = _solver(UNREACHED, {"edge": edges, "mark": [(6,)]})
        assert _tuples(solver, "path") == _tuples(fresh, "path")
        assert _tuples(solver, "missed") == _tuples(fresh, "missed") == {(6,)}
