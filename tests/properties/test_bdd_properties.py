"""Property-based tests for the BDD kernel and domain layer.

These check the kernel against a brute-force model: every BDD is compared
to direct truth-table evaluation over a small variable universe.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, Domain, FALSE, TRUE, bits_for
from repro.bdd.domain import equality_relation, offset_relation

NVARS = 6


def _xor(mgr, a, b):
    """Exclusive or, built from the kernel's relational difference."""
    return mgr.or_(mgr.diff(a, b), mgr.diff(b, a))


def eval_bdd(mgr, u, mask):
    while u > 1:
        v = mgr.var_of(u)
        u = mgr.high(u) if (mask >> v) & 1 else mgr.low(u)
    return u == TRUE


# A strategy building random boolean functions as (bdd_node, truth_set).
@st.composite
def formulas(draw, mgr_holder, depth=3):
    mgr = mgr_holder
    kind = draw(st.integers(0, 6 if depth > 0 else 2))
    if kind == 0:
        return TRUE
    if kind == 1:
        return FALSE
    if kind == 2:
        v = draw(st.integers(0, NVARS - 1))
        return mgr.var_bdd(v) if draw(st.booleans()) else mgr.nvar_bdd(v)
    a = draw(formulas(mgr_holder, depth - 1))
    b = draw(formulas(mgr_holder, depth - 1))
    if kind == 3:
        return mgr.and_(a, b)
    if kind == 4:
        return mgr.or_(a, b)
    if kind == 5:
        return _xor(mgr, a, b)
    return mgr.not_(a)


_MGR = BDD(num_vars=NVARS)


@given(formulas(_MGR), formulas(_MGR))
@settings(max_examples=150, deadline=None)
def test_connectives_match_truth_tables(f, g):
    mgr = _MGR
    conj, disj, d, x = mgr.and_(f, g), mgr.or_(f, g), mgr.diff(f, g), _xor(mgr, f, g)
    for mask in range(1 << NVARS):
        ef, eg = eval_bdd(mgr, f, mask), eval_bdd(mgr, g, mask)
        assert eval_bdd(mgr, conj, mask) == (ef and eg)
        assert eval_bdd(mgr, disj, mask) == (ef or eg)
        assert eval_bdd(mgr, d, mask) == (ef and not eg)
        assert eval_bdd(mgr, x, mask) == (ef != eg)


@given(formulas(_MGR))
@settings(max_examples=150, deadline=None)
def test_negation_is_complement(f):
    mgr = _MGR
    nf = mgr.not_(f)
    for mask in range(1 << NVARS):
        assert eval_bdd(mgr, nf, mask) == (not eval_bdd(mgr, f, mask))


@given(formulas(_MGR), st.sets(st.integers(0, NVARS - 1)))
@settings(max_examples=150, deadline=None)
def test_exist_matches_model(f, levels):
    mgr = _MGR
    vs = mgr.varset(levels)
    g = mgr.exist(f, vs)
    for mask in range(1 << NVARS):
        expected = False
        # Try all completions of the quantified variables.
        free_masks = [0]
        for lv in levels:
            free_masks = [m | (b << lv) for m in free_masks for b in (0, 1)]
        base = mask
        for lv in levels:
            base &= ~(1 << lv)
        for fm in free_masks:
            if eval_bdd(mgr, f, base | fm):
                expected = True
                break
        assert eval_bdd(mgr, g, mask) == expected


@given(formulas(_MGR), formulas(_MGR), st.sets(st.integers(0, NVARS - 1)))
@settings(max_examples=150, deadline=None)
def test_rel_prod_is_exist_of_and(f, g, levels):
    mgr = _MGR
    vs = mgr.varset(levels)
    assert mgr.rel_prod(f, g, vs) == mgr.exist(mgr.and_(f, g), vs)


@given(formulas(_MGR))
@settings(max_examples=100, deadline=None)
def test_sat_count_matches_enumeration(f):
    mgr = _MGR
    levels = list(range(NVARS))
    count = sum(1 for mask in range(1 << NVARS) if eval_bdd(mgr, f, mask))
    assert mgr.sat_count(f, levels) == count
    assert len(list(mgr.iter_assignments(f, levels))) == count


@given(formulas(_MGR), st.permutations(list(range(NVARS))))
@settings(max_examples=100, deadline=None)
def test_replace_arbitrary_permutation(f, perm):
    """replace with an arbitrary (often order-inverting) permutation is a
    semantic variable substitution."""
    mgr = _MGR
    mapping = {i: perm[i] for i in range(NVARS) if perm[i] != i}
    if not mapping:
        return
    mid = mgr.replace_map(mapping)
    g = mgr.replace(f, mid)
    for mask in range(1 << NVARS):
        # Build the preimage mask: variable i of f reads bit perm[i] of mask.
        pre = 0
        for i in range(NVARS):
            if (mask >> mapping.get(i, i)) & 1:
                pre |= 1 << i
        assert eval_bdd(mgr, g, mask) == eval_bdd(mgr, f, pre)


@given(st.integers(1, 200), st.integers(0, 199), st.integers(0, 199))
@settings(max_examples=120, deadline=None)
def test_range_bdd_matches_interval(size, lo, hi):
    mgr = BDD(num_vars=bits_for(max(size, 2)))
    d = Domain(mgr, "D", size, list(range(bits_for(size))))
    lo %= size
    hi %= size
    node = d.range_bdd(lo, hi)
    got = {d.decode(b) for b in mgr.iter_assignments(node, d.levels)}
    assert got == set(range(lo, hi + 1))


@given(st.integers(2, 64), st.integers(-20, 40), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_offset_relation_matches_model(size, delta, lo, hi):
    bits = bits_for(size)
    mgr = BDD(num_vars=4 * bits)
    a = Domain(mgr, "A", size, list(range(0, 2 * bits, 2)))
    b = Domain(mgr, "B", size, list(range(1, 2 * bits, 2)))
    lo %= size
    hi %= size
    rel = offset_relation(a, b, delta, lo, hi)
    levels = list(a.levels) + list(b.levels)
    got = set()
    for assignment in mgr.iter_assignments(rel, levels):
        got.add((a.decode(assignment[: a.bits]), b.decode(assignment[a.bits :])))
    expected = {
        (x, x + delta)
        for x in range(lo, hi + 1)
        if 0 <= x + delta < (1 << bits)
    }
    assert got == expected


@given(st.integers(2, 64), st.integers(2, 64))
@settings(max_examples=80, deadline=None)
def test_equality_relation_matches_model(size_a, size_b):
    bits_a, bits_b = bits_for(size_a), bits_for(size_b)
    mgr = BDD(num_vars=bits_a + bits_b)
    a = Domain(mgr, "A", size_a, list(range(bits_a)))
    b = Domain(mgr, "B", size_b, list(range(bits_a, bits_a + bits_b)))
    eq = equality_relation(a, b)
    levels = list(a.levels) + list(b.levels)
    got = set()
    for assignment in mgr.iter_assignments(eq, levels):
        got.add((a.decode(assignment[: a.bits]), b.decode(assignment[a.bits :])))
    universe = min(1 << bits_a, 1 << bits_b)
    assert got == {(v, v) for v in range(universe)}
