"""Property tests: rebuilds under a new order and serialization preserve
semantics."""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.bdd.reorder import rebuild_with_levels
from repro.bdd.serialize import load_bdd, save_bdd

NVARS = 6


def random_function(mgr, rng_ints):
    """Build a BDD from a list of random minterm masks."""
    node = 0
    for mask in rng_ints:
        cube = 1
        for i in range(NVARS):
            lit = mgr.var_bdd(i) if (mask >> i) & 1 else mgr.nvar_bdd(i)
            cube = mgr.and_(cube, lit)
        node = mgr.or_(node, cube)
    return node


minterms = st.lists(st.integers(0, (1 << NVARS) - 1), min_size=0, max_size=12)


@given(minterms, st.permutations(list(range(NVARS))))
@settings(max_examples=60, deadline=None)
def test_rebuild_preserves_satcount(masks, perm):
    src = BDD(num_vars=NVARS)
    f = random_function(src, masks)
    dst = BDD(num_vars=NVARS)
    (g,) = rebuild_with_levels(src, [f], {i: perm[i] for i in range(NVARS)}, dst)
    levels = list(range(NVARS))
    assert src.sat_count(f, levels) == dst.sat_count(g, levels)


@given(minterms)
@settings(max_examples=50, deadline=None)
def test_serialize_roundtrip_preserves_satcount(masks):
    import tempfile
    import pathlib

    src = BDD(num_vars=NVARS)
    f = random_function(src, masks)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "f.bdd"
        save_bdd(src, [f], path)
        dst = BDD(num_vars=NVARS)
        (g,) = load_bdd(dst, path)
        levels = list(range(NVARS))
        assert src.sat_count(f, levels) == dst.sat_count(g, levels)
