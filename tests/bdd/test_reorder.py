"""Tests for rebuilding BDDs under a new level assignment."""

import pytest

from repro.bdd import BDD, BDDError
from repro.bdd.reorder import rebuild_with_levels


def eval_bdd(mgr, u, assignment):
    while u > 1:
        v = mgr.var_of(u)
        u = mgr.high(u) if assignment.get(v, False) else mgr.low(u)
    return u == 1


class TestRebuild:
    def test_identity_rebuild_preserves_semantics(self):
        src = BDD(num_vars=6)
        f = src.or_(src.and_(src.var_bdd(0), src.var_bdd(3)), src.nvar_bdd(5))
        dst = BDD(num_vars=6)
        (g,) = rebuild_with_levels(src, [f], {i: i for i in range(6)}, dst)
        for mask in range(64):
            a = {i: bool((mask >> i) & 1) for i in range(6)}
            assert eval_bdd(src, f, a) == eval_bdd(dst, g, a)

    def test_permuted_rebuild_semantics(self):
        src = BDD(num_vars=4)
        f = src.and_(src.var_bdd(0), src.or_(src.var_bdd(1), src.var_bdd(3)))
        perm = {0: 3, 1: 2, 2: 1, 3: 0}
        dst = BDD(num_vars=4)
        (g,) = rebuild_with_levels(src, [f], perm, dst)
        for mask in range(16):
            a = {i: bool((mask >> i) & 1) for i in range(4)}
            pre = {perm[i]: a[i] for i in range(4)}
            assert eval_bdd(src, f, a) == eval_bdd(dst, g, pre)

    def test_missing_level_rejected(self):
        src = BDD(num_vars=4)
        f = src.var_bdd(2)
        dst = BDD(num_vars=4)
        with pytest.raises(BDDError):
            rebuild_with_levels(src, [f], {0: 0}, dst)

    def test_multiple_roots_share(self):
        src = BDD(num_vars=4)
        f = src.and_(src.var_bdd(0), src.var_bdd(1))
        g = src.or_(f, src.var_bdd(2))
        dst = BDD(num_vars=4)
        nf, ng = rebuild_with_levels(src, [f, g], {i: i for i in range(4)}, dst)
        assert dst.and_(dst.var_bdd(0), dst.var_bdd(1)) == nf

