"""Unit tests for the BDD kernel."""

from functools import reduce

import pytest

from repro.bdd import BDD, BDDError, FALSE, TRUE


@pytest.fixture
def mgr():
    return BDD(num_vars=8)


def eval_bdd(mgr, u, assignment):
    """Evaluate BDD ``u`` under a dict level -> bool."""
    while u > 1:
        v = mgr.var_of(u)
        u = mgr.high(u) if assignment.get(v, False) else mgr.low(u)
    return u == TRUE


def all_assignments(nvars):
    for mask in range(1 << nvars):
        yield {i: bool((mask >> i) & 1) for i in range(nvars)}


class TestNodeBasics:
    def test_terminals(self, mgr):
        assert FALSE == 0
        assert TRUE == 1
        assert mgr.is_terminal(FALSE)
        assert mgr.is_terminal(TRUE)
        assert not mgr.is_terminal(mgr.var_bdd(0))

    def test_mk_reduces_equal_children(self, mgr):
        assert mgr.mk(3, TRUE, TRUE) == TRUE
        assert mgr.mk(3, FALSE, FALSE) == FALSE

    def test_mk_hash_conses(self, mgr):
        a = mgr.mk(2, FALSE, TRUE)
        b = mgr.mk(2, FALSE, TRUE)
        assert a == b

    def test_mk_rejects_out_of_range_var(self, mgr):
        with pytest.raises(BDDError):
            mgr.mk(99, FALSE, TRUE)

    def test_var_bdd_semantics(self, mgr):
        x = mgr.var_bdd(3)
        assert eval_bdd(mgr, x, {3: True})
        assert not eval_bdd(mgr, x, {3: False})

    def test_nvar_bdd_semantics(self, mgr):
        x = mgr.nvar_bdd(3)
        assert not eval_bdd(mgr, x, {3: True})
        assert eval_bdd(mgr, x, {3: False})

    def test_cube(self, mgr):
        c = mgr.cube([(1, True), (4, False), (6, True)])
        assert eval_bdd(mgr, c, {1: True, 4: False, 6: True})
        assert not eval_bdd(mgr, c, {1: True, 4: True, 6: True})
        assert not eval_bdd(mgr, c, {1: False, 4: False, 6: True})

    def test_add_vars(self, mgr):
        n = mgr.num_vars
        assert mgr.add_vars(4) == n + 4
        mgr.var_bdd(n + 3)  # now in range

    def test_node_count_grows(self, mgr):
        before = mgr.node_count()
        mgr.var_bdd(0)
        assert mgr.node_count() == before + 1


class TestConnectives:
    def test_and_truth_table(self, mgr):
        x, y = mgr.var_bdd(0), mgr.var_bdd(1)
        f = mgr.and_(x, y)
        for a in all_assignments(2):
            assert eval_bdd(mgr, f, a) == (a[0] and a[1])

    def test_or_truth_table(self, mgr):
        x, y = mgr.var_bdd(0), mgr.var_bdd(1)
        f = mgr.or_(x, y)
        for a in all_assignments(2):
            assert eval_bdd(mgr, f, a) == (a[0] or a[1])

    def test_diff_truth_table(self, mgr):
        x, y = mgr.var_bdd(0), mgr.var_bdd(1)
        f = mgr.diff(x, y)
        for a in all_assignments(2):
            assert eval_bdd(mgr, f, a) == (a[0] and not a[1])

    def test_xor_truth_table(self, mgr):
        x, y = mgr.var_bdd(0), mgr.var_bdd(1)
        f = mgr.xor(x, y)
        for a in all_assignments(2):
            assert eval_bdd(mgr, f, a) == (a[0] != a[1])

    def test_not_involution(self, mgr):
        x = mgr.and_(mgr.var_bdd(0), mgr.or_(mgr.var_bdd(2), mgr.nvar_bdd(5)))
        assert mgr.not_(mgr.not_(x)) == x

    def test_de_morgan(self, mgr):
        x, y = mgr.var_bdd(1), mgr.var_bdd(3)
        assert mgr.not_(mgr.and_(x, y)) == mgr.or_(mgr.not_(x), mgr.not_(y))

    def test_ite_equals_expansion(self, mgr):
        f = mgr.var_bdd(0)
        g = mgr.and_(mgr.var_bdd(1), mgr.var_bdd(2))
        h = mgr.or_(mgr.var_bdd(3), mgr.nvar_bdd(1))
        ite = mgr.ite(f, g, h)
        manual = mgr.or_(mgr.and_(f, g), mgr.and_(mgr.not_(f), h))
        assert ite == manual

    def test_and_or_folds(self, mgr):
        xs = [mgr.var_bdd(i) for i in range(4)]
        conj = reduce(mgr.and_, xs, TRUE)
        disj = reduce(mgr.or_, xs, FALSE)
        for a in all_assignments(4):
            assert eval_bdd(mgr, conj, a) == all(a[i] for i in range(4))
            assert eval_bdd(mgr, disj, a) == any(a[i] for i in range(4))

    def test_canonicity(self, mgr):
        # Two different constructions of the same function share a node.
        x, y, z = mgr.var_bdd(0), mgr.var_bdd(1), mgr.var_bdd(2)
        f1 = mgr.or_(mgr.and_(x, y), mgr.and_(x, z))
        f2 = mgr.and_(x, mgr.or_(y, z))
        assert f1 == f2


class TestQuantification:
    def test_exist_removes_variable(self, mgr):
        x, y = mgr.var_bdd(0), mgr.var_bdd(1)
        f = mgr.and_(x, y)
        vs = mgr.varset([0])
        g = mgr.exist(f, vs)
        assert g == y

    def test_exist_tautology(self, mgr):
        x = mgr.var_bdd(2)
        f = mgr.or_(x, mgr.not_(x))
        assert mgr.exist(f, mgr.varset([2])) == TRUE

    def test_exist_empty_varset(self, mgr):
        f = mgr.var_bdd(1)
        assert mgr.exist(f, mgr.varset([])) == f

    def test_exist_multiple(self, mgr):
        f = reduce(mgr.and_, [mgr.var_bdd(0), mgr.var_bdd(3), mgr.var_bdd(5)])
        g = mgr.exist(f, mgr.varset([0, 5]))
        assert g == mgr.var_bdd(3)

    def test_rel_prod_matches_and_then_exist(self, mgr):
        # rel_prod(a, b, V) == exist(and(a, b), V) on random-ish formulas.
        a = mgr.or_(mgr.and_(mgr.var_bdd(0), mgr.var_bdd(2)), mgr.var_bdd(4))
        b = mgr.or_(mgr.and_(mgr.var_bdd(2), mgr.var_bdd(3)), mgr.nvar_bdd(0))
        vs = mgr.varset([2, 0])
        assert mgr.rel_prod(a, b, vs) == mgr.exist(mgr.and_(a, b), vs)

    def test_rel_prod_terminal_cases(self, mgr):
        a = mgr.var_bdd(0)
        vs = mgr.varset([0])
        assert mgr.rel_prod(a, FALSE, vs) == FALSE
        assert mgr.rel_prod(FALSE, a, vs) == FALSE
        assert mgr.rel_prod(a, TRUE, vs) == TRUE  # exists x0. x0
        assert mgr.rel_prod(TRUE, TRUE, vs) == TRUE


class TestReplace:
    def test_replace_adjacent(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(2))
        mid = mgr.replace_map({0: 1})
        g = mgr.replace(f, mid)
        assert g == mgr.and_(mgr.var_bdd(1), mgr.var_bdd(2))

    def test_replace_order_inverting(self, mgr):
        # Swap-like rename that inverts relative order: 0 -> 5 while 3 stays.
        f = mgr.and_(mgr.var_bdd(0), mgr.nvar_bdd(3))
        mid = mgr.replace_map({0: 5})
        g = mgr.replace(f, mid)
        assert g == mgr.and_(mgr.var_bdd(5), mgr.nvar_bdd(3))

    def test_replace_block_shift(self, mgr):
        f = reduce(mgr.and_, [mgr.var_bdd(0), mgr.var_bdd(1), mgr.nvar_bdd(2)])
        mid = mgr.replace_map({0: 3, 1: 4, 2: 5})
        g = mgr.replace(f, mid)
        expected = reduce(mgr.and_, [mgr.var_bdd(3), mgr.var_bdd(4), mgr.nvar_bdd(5)])
        assert g == expected

    def test_replace_rejects_non_injective(self, mgr):
        with pytest.raises(BDDError):
            mgr.replace_map({0: 2, 1: 2})

    def test_replace_terminals(self, mgr):
        mid = mgr.replace_map({0: 1})
        assert mgr.replace(TRUE, mid) == TRUE
        assert mgr.replace(FALSE, mid) == FALSE

    def test_replace_roundtrip(self, mgr):
        f = mgr.or_(mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1)), mgr.nvar_bdd(1))
        there = mgr.replace_map({0: 4, 1: 5})
        back = mgr.replace_map({4: 0, 5: 1})
        assert mgr.replace(mgr.replace(f, there), back) == f


class TestCounting:
    def test_sat_count_simple(self, mgr):
        x = mgr.var_bdd(0)
        assert mgr.sat_count(x, [0]) == 1
        assert mgr.sat_count(x, [0, 1]) == 2
        assert mgr.sat_count(x, [0, 1, 2]) == 4

    def test_sat_count_terminals(self, mgr):
        assert mgr.sat_count(TRUE, [0, 1]) == 4
        assert mgr.sat_count(FALSE, [0, 1]) == 0

    def test_sat_count_conjunction(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(3))
        assert mgr.sat_count(f, [0, 1, 2, 3]) == 4

    def test_sat_count_requires_support(self, mgr):
        f = mgr.var_bdd(5)
        with pytest.raises(BDDError):
            mgr.sat_count(f, [0, 1])

    def test_iter_assignments(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.nvar_bdd(1))
        got = sorted(mgr.iter_assignments(f, [0, 1]))
        assert got == [(1, 0)]

    def test_iter_assignments_dont_care_expansion(self, mgr):
        f = mgr.var_bdd(0)
        got = sorted(mgr.iter_assignments(f, [0, 2]))
        assert got == [(1, 0), (1, 1)]

    def test_iter_matches_sat_count(self, mgr):
        f = mgr.or_(mgr.and_(mgr.var_bdd(0), mgr.var_bdd(2)), mgr.var_bdd(3))
        levels = [0, 1, 2, 3]
        assert len(list(mgr.iter_assignments(f, levels))) == mgr.sat_count(f, levels)

    def test_support(self, mgr):
        f = mgr.or_(mgr.and_(mgr.var_bdd(1), mgr.var_bdd(4)), mgr.nvar_bdd(6))
        assert mgr.support(f) == frozenset({1, 4, 6})
        assert mgr.support(TRUE) == frozenset()

    def test_restrict(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        assert mgr.restrict(f, {0: True}) == mgr.var_bdd(1)
        assert mgr.restrict(f, {0: False}) == FALSE


class TestGarbageCollection:
    def test_collect_preserves_roots(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        junk = mgr.or_(mgr.var_bdd(5), mgr.var_bdd(6))
        nodes_before = mgr.node_count()
        mapping = mgr.collect_garbage([f])
        assert mgr.node_count() < nodes_before
        new_f = mapping[f]
        # Semantics preserved.
        assert eval_bdd(mgr, new_f, {0: True, 1: True})
        assert not eval_bdd(mgr, new_f, {0: True, 1: False})
        assert junk not in mapping or mapping.get(junk) is None or True

    def test_collect_then_continue_operating(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        mapping = mgr.collect_garbage([f])
        f = mapping[f]
        g = mgr.or_(f, mgr.var_bdd(2))
        for a in all_assignments(3):
            assert eval_bdd(mgr, g, a) == ((a[0] and a[1]) or a[2])

    def test_collect_keeps_canonicity(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        mapping = mgr.collect_garbage([f])
        f = mapping[f]
        # Rebuilding the same function must give the same handle.
        assert mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1)) == f

    def test_gc_count_increments(self, mgr):
        mgr.collect_garbage([])
        mgr.collect_garbage([])
        assert mgr.gc_count == 2


class TestStats:
    def test_peak_nodes_monotone(self, mgr):
        p0 = mgr.peak_nodes
        mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        assert mgr.peak_nodes >= p0

    def test_clear_caches_keeps_semantics(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        mgr.clear_caches()
        assert mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1)) == f

    def test_to_dot_contains_nodes(self, mgr):
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        dot = mgr.to_dot(f)
        assert "digraph" in dot and "x0" in dot and "x1" in dot
