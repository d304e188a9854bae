"""GC invariants shared by every registered BDD backend.

``collect_garbage`` must (a) invalidate *every* operation cache —
including the persistent ``sat_count`` cache, whose keys reference old
handles — (b) return a remapping under which every live handle still
denotes the same boolean function, and (c) preserve the lifetime
statistics (``peak_nodes``, ``op_count``, cache high-water marks) that
budget enforcement and benchmark reports read after the fact.
"""

import pytest

from repro.bdd import FALSE, TRUE, available_backends, create_kernel

NVARS = 8
LEVELS = tuple(range(NVARS))

pytestmark = pytest.mark.parametrize("backend", available_backends())


def _op_caches(m):
    """Every dict-valued cache attribute of the backend instance.

    Covers the reference per-op caches, the packed unified cache, the
    shared ``_satcount_cache``, and the packed ``_hot`` closure cache —
    anything a future backend adds under the same naming convention is
    picked up automatically.
    """
    caches = {
        name: val
        for name, val in vars(m).items()
        if (name.endswith("_cache") or name == "_hot") and isinstance(val, dict)
    }
    assert caches, "backend exposes no caches; update this helper"
    return caches


def _xor(m, a, b):
    """Exclusive or, built from the kernel's relational difference."""
    return m.or_(m.diff(a, b), m.diff(b, a))


def _build_roots(m):
    """A few nontrivial relations plus enough ops to fill the caches."""
    a = m.cube([(0, True), (2, False), (4, True)])
    b = m.cube([(1, True), (3, True)])
    c = m.or_(a, m.and_(b, m.var_bdd(5)))
    d = _xor(m, c, m.not_(a))
    e = m.exist(d, m.varset([0, 1]))
    f = m.rel_prod(c, d, m.varset([2, 3]))
    g = m.replace(e, m.replace_map({4: 6, 5: 7}))
    h = m.ite(a, f, g)
    m.diff(h, c)
    m.sat_count(d, LEVELS)
    m.sat_count(h, LEVELS)
    return [a, b, c, d, e, f, g, h]


def _truth(m, u):
    return frozenset(m.iter_assignments(u, LEVELS))


def test_gc_clears_every_cache(backend):
    m = create_kernel(num_vars=NVARS, backend=backend)
    roots = _build_roots(m)
    assert m.cache_entries() > 0
    assert m._satcount_cache, "workload must populate the sat_count cache"

    m.collect_garbage(roots)

    assert m.cache_entries() == 0
    for name, cache in _op_caches(m).items():
        assert not cache, f"{backend}: {name} not cleared by collect_garbage"


def test_gc_remap_preserves_relations(backend):
    m = create_kernel(num_vars=NVARS, backend=backend)
    roots = _build_roots(m)
    truths = [_truth(m, u) for u in roots]
    counts = [m.sat_count(u, LEVELS) for u in roots]

    mapping = m.collect_garbage(roots)
    remapped = [mapping[u] for u in roots]

    assert mapping[FALSE] == FALSE and mapping[TRUE] == TRUE
    for old, new, truth, count in zip(roots, remapped, truths, counts):
        assert _truth(m, new) == truth
        assert m.sat_count(new, LEVELS) == count
    # The compacted arena holds exactly the live nodes, and dead nodes
    # (intermediates not in ``roots``) were actually dropped.
    assert m.node_count() <= max(remapped) + 1 + len(remapped)


def test_gc_preserves_lifetime_stats(backend):
    m = create_kernel(num_vars=NVARS, backend=backend)
    roots = _build_roots(m)
    peak_nodes = m.peak_nodes
    op_count = m.op_count
    peak_cache = max(m.peak_cache_entries, m.cache_entries())
    gc_count = m.gc_count
    assert peak_nodes >= m.node_count()

    m.collect_garbage(roots)

    assert m.peak_nodes == peak_nodes, "peak is a lifetime high-water mark"
    assert m.op_count == op_count
    assert m.peak_cache_entries >= peak_cache, (
        "clearing caches must fold the pre-GC entry count into the peak"
    )
    assert m.gc_count == gc_count + 1


def test_ops_after_gc_rebuild_canonically(backend):
    """The unique table is rebuilt correctly: re-deriving an existing
    function after GC hash-conses onto the surviving handle."""
    m = create_kernel(num_vars=NVARS, backend=backend)
    a = m.cube([(0, True), (2, False)])
    b = m.or_(a, m.var_bdd(5))
    mapping = m.collect_garbage([a, b])
    a2, b2 = mapping[a], mapping[b]
    assert m.or_(a2, m.var_bdd(5)) == b2
    assert m.and_(b2, m.not_(m.var_bdd(5))) == m.diff(b2, m.var_bdd(5))
