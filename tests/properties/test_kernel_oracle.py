"""Randomized differential test: every backend vs a truth-table oracle.

Each seeded run drives all registered backends through the *same*
random operation sequence (and / or / diff / not / ite / exist /
rel_prod / replace, with occasional garbage collections) over a 12-variable
universe, and checks every produced node against a brute-force oracle.
The oracle represents a boolean function as a ``2**NV``-bit integer
(bit ``m`` = value on minterm ``m``), so oracle operations are single
bigint expressions and quantification is a shift-and-mask fold —
independent of everything the kernels share, including the serializer.

Across the seeds this issues ~5k checked kernel operations per backend.
The packed backend runs the same sequences a second time in an arena
wider than ``_RECURSION_SAFE_VARS``, where it switches from its closure
recursions to its explicit-stack loops; the ops still touch only the
first 12 levels, so the same oracle applies.
"""

import random

import pytest

from repro.bdd import FALSE, TRUE, available_backends, create_kernel
from repro.bdd.backends.packed import _RECURSION_SAFE_VARS, PackedBDD

NV = 12
MINTERMS = 1 << NV
FULL = (1 << MINTERMS) - 1

SEEDS = range(5)
STEPS = 1000

pytestmark = pytest.mark.parametrize("backend", available_backends())


def _zero_masks():
    """``A0[v]`` = minterms where variable ``v`` is 0, built by doubling."""
    out = []
    for v in range(NV):
        pat = (1 << (1 << v)) - 1
        width = 1 << (v + 1)
        while width < MINTERMS:
            pat |= pat << width
            width *= 2
        out.append(pat)
    return out


A0 = _zero_masks()
A1 = [FULL ^ a for a in A0]


def _exist(mask, levels):
    for v in levels:
        half = mask & A0[v] | (mask >> (1 << v)) & A0[v]
        mask = half | (half << (1 << v))
    return mask


def _swap(mask, a, b):
    """Exchange variables ``a`` and ``b`` (minterm-index bit permutation).

    A rename ``{source: target}`` with the target outside the function's
    support is exactly a swap, which is what ``replace`` requires.
    """
    lo, hi = min(a, b), max(a, b)
    shift = (1 << hi) - (1 << lo)
    move_up = A1[lo] & A0[hi]  # minterms with lo=1, hi=0: move up
    move_dn = A0[lo] & A1[hi]  # minterms with lo=0, hi=1: move down
    keep = FULL ^ (move_up | move_dn)
    return mask & keep | (mask & move_up) << shift | (mask & move_dn) >> shift


def _mask_of(m, u, memo):
    """Truth mask of a kernel node, memoized per (live) handle."""
    hit = memo.get(u)
    if hit is not None:
        return hit
    if u == FALSE:
        mask = 0
    elif u == TRUE:
        mask = FULL
    else:
        v = m.var_of(u)
        mask = (
            _mask_of(m, m.low(u), memo) & A0[v]
            | _mask_of(m, m.high(u), memo) & A1[v]
        )
    memo[u] = mask
    return mask


def _run(backend, seed, num_vars=NV):
    """One seeded op sequence over levels ``0..NV-1`` of a ``num_vars``
    wide arena; returns the node count and the final truth masks."""
    rng = random.Random(seed)
    m = create_kernel(num_vars=num_vars, backend=backend)
    memo = {}
    nodes = [FALSE, TRUE] + [m.var_bdd(v) for v in range(NV)]
    masks = [0, FULL] + [A1[v] for v in range(NV)]
    for step in range(STEPS):
        op = rng.choice(
            ("and", "or", "diff", "not", "ite", "exist", "rel_prod",
             "replace", "gc")
        )
        i, j, k = (rng.randrange(len(nodes)) for _ in range(3))
        if op == "and":
            u, want = m.and_(nodes[i], nodes[j]), masks[i] & masks[j]
        elif op == "or":
            u, want = m.or_(nodes[i], nodes[j]), masks[i] | masks[j]
        elif op == "diff":
            u, want = m.diff(nodes[i], nodes[j]), masks[i] & (FULL ^ masks[j])
        elif op == "not":
            u, want = m.not_(nodes[i]), FULL ^ masks[i]
        elif op == "ite":
            u = m.ite(nodes[i], nodes[j], nodes[k])
            want = masks[i] & masks[j] | (FULL ^ masks[i]) & masks[k]
        elif op == "exist":
            levels = rng.sample(range(NV), rng.randrange(0, 5))
            u, want = m.exist(nodes[i], m.varset(levels)), _exist(masks[i], levels)
        elif op == "rel_prod":
            levels = rng.sample(range(NV), rng.randrange(0, 5))
            u = m.rel_prod(nodes[i], nodes[j], m.varset(levels))
            want = _exist(masks[i] & masks[j], levels)
        elif op == "replace":
            # A rename of a join, as the solver runs a Replace of a
            # RelProd's result, under replace's precondition: rename
            # targets are drawn from the quantified levels, so they are
            # outside the support of the rel_prod result (renames land
            # on the just-vacated domain instance).
            n_pairs = rng.randrange(1, 4)
            chosen = rng.sample(range(NV), 2 * n_pairs)
            quant, sources = chosen[:n_pairs], chosen[n_pairs:]
            mapping = dict(zip(sources, quant))
            u = m.replace(
                m.rel_prod(nodes[i], nodes[j], m.varset(quant)),
                m.replace_map(mapping),
            )
            want = _exist(masks[i] & masks[j], quant)
            for s, t in mapping.items():
                want = _swap(want, s, t)
        else:  # gc: remap every held handle, drop the stale memo
            mapping = m.collect_garbage(nodes)
            nodes = [mapping[n] for n in nodes]
            memo = {}
            continue
        assert _mask_of(m, u, memo) == want, (
            f"{backend} seed={seed} step={step} op={op} diverged from oracle"
        )
        nodes.append(u)
        masks.append(want)
    return m.node_count(), sorted(set(masks))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_ops_match_truth_table_oracle(backend, seed):
    _run(backend, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_build_identical_arenas(backend, seed):
    """Canonicity across implementations: the same op sequence yields the
    same node count and the same set of functions as the reference."""
    if backend == "reference":
        pytest.skip("reference is the baseline")
    assert _run(backend, seed) == _run("reference", seed)


LOOPS = ("_apply_loop", "_ite_loop", "_exist_loop", "_relprod_loop",
         "_replace_loop")


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_stack_loops_match_truth_table_oracle(
    backend, seed, monkeypatch
):
    """The explicit-stack forms run only on arenas wider than the
    recursion-safe bound; build one so the oracle fences them too."""
    if backend != "packed":
        pytest.skip("only packed has a second, stack-loop form")

    calls = dict.fromkeys(LOOPS, 0)
    for name in LOOPS:
        loop = getattr(PackedBDD, name)

        def counted(self, *args, _name=name, _loop=loop, **kwargs):
            calls[_name] += 1
            return _loop(self, *args, **kwargs)

        monkeypatch.setattr(PackedBDD, name, counted)
    _run(backend, seed, num_vars=_RECURSION_SAFE_VARS + 1)
    # Every stack loop ran, so the arena really was wider than the
    # threshold, wherever the threshold now stands.
    assert all(calls.values()), calls
