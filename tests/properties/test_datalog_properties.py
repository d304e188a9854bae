"""Property-based tests for the Datalog-to-BDD engine: results are checked
against a reference naive Python Datalog evaluator on random edge sets,
and the tuple-set encoder against a fold of per-tuple cubes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDError, FALSE, Domain, bits_for, create_kernel
from repro.bdd.ordering import assign_levels
from repro.datalog import Solver, parse_program
from repro.datalog.relation import Attribute, Relation
from repro.runtime import InvalidInputError

edges_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=0,
    max_size=40,
)


def model_closure(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


TC = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_transitive_closure_matches_model(edges):
    solver = Solver(parse_program(TC))
    solver.add_tuples("edge", edges)
    solver.solve()
    assert set(solver.relation("path").tuples()) == model_closure(edges)


@given(edges_strategy)
@settings(max_examples=30, deadline=None)
def test_naive_equals_seminaive(edges):
    naive = Solver(parse_program(TC))
    naive.add_tuples("edge", edges)
    naive.solve()
    semi = Solver(parse_program(TC), seminaive=True)
    semi.add_tuples("edge", edges)
    semi.solve()
    assert set(naive.relation("path").tuples()) == set(
        semi.relation("path").tuples()
    )


NEG = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
node (a : N) input
path (a : N0, b : N1) output
unreach (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
unreach(x, y) :- node(x), node(y), !path(x, y).
"""


@given(edges_strategy)
@settings(max_examples=40, deadline=None)
def test_stratified_negation_matches_model(edges):
    nodes = sorted({n for e in edges for n in e} | {0})
    solver = Solver(parse_program(NEG))
    solver.add_tuples("edge", edges)
    solver.add_tuples("node", [(n,) for n in nodes])
    solver.solve()
    closure = model_closure(edges)
    expected = {
        (a, b) for a in nodes for b in nodes if (a, b) not in closure
    }
    assert set(solver.relation("unreach").tuples()) == expected


@given(edges_strategy, st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_constant_selection_matches_model(edges, pivot):
    text = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
from_pivot (b : N) output
.rules
from_pivot(y) :- edge(%d, y).
""" % pivot
    solver = Solver(parse_program(text))
    solver.add_tuples("edge", edges)
    solver.solve()
    expected = {(b,) for a, b in edges if a == pivot}
    assert set(solver.relation("from_pivot").tuples()) == expected


@given(edges_strategy)
@settings(max_examples=40, deadline=None)
def test_inequality_filter_matches_model(edges):
    text = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
nonloop (a : N0, b : N1) output
.rules
nonloop(x, y) :- edge(x, y), x != y.
"""
    solver = Solver(parse_program(text))
    solver.add_tuples("edge", edges)
    solver.solve()
    assert set(solver.relation("nonloop").tuples()) == {
        (a, b) for a, b in edges if a != b
    }


@given(edges_strategy)
@settings(max_examples=30, deadline=None)
def test_count_matches_enumeration(edges):
    solver = Solver(parse_program(TC))
    solver.add_tuples("edge", edges)
    solver.solve()
    rel = solver.relation("path")
    assert rel.count() == len(set(rel.tuples()))


# ----------------------------------------------------------------------
# The tuple-set encoder against a left fold of per-tuple cubes
# ----------------------------------------------------------------------

# Values the encoder must reject: "past" is shifted past the domain's
# size, "float" is the float of the row's own in-domain value (equal to
# an int the encoder may already have seen in that column).
_BAD_VALUES = st.sampled_from([-1, "1", None, "past", "float"])


@st.composite
def encoder_cases(draw, corrupt=None):
    """A relation over 1-3 of up to 4 physical domains (sizes 1-40,
    interleaved groups, attributes in any order) and a tuple list with
    duplicates, sometimes empty, sometimes carrying one bad tuple."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    names = [f"D{i}" for i in range(len(sizes))]
    spec_order = draw(st.permutations(names))
    groups, i = [], 0
    while i < len(spec_order):
        n = draw(st.integers(1, len(spec_order) - i))
        groups.append("x".join(spec_order[i:i + n]))
        i += n
    used = draw(st.lists(st.sampled_from(list(range(len(sizes)))),
                         min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, sizes[k] - 1) for k in used)),
        max_size=30,
    ))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    bad = None
    if corrupt is None:
        corrupt = draw(st.integers(0, 3)) == 0
    if corrupt:
        # A copy of a drawn row, inserted after it, with one fault.
        at = draw(st.integers(0, len(rows)))
        row = list(rows[at - 1]) if at else [0] * len(used)
        if draw(st.booleans()):
            row = row[:-1] if draw(st.booleans()) else row + [0]
        else:
            col = draw(st.integers(0, len(used) - 1))
            value = draw(_BAD_VALUES)
            if value == "past":
                value = sizes[used[col]] + draw(st.integers(0, 3))
            elif value == "float":
                value = float(row[col])
            row[col] = value
        bad = tuple(row)
        rows.insert(at, bad)
    return sizes, "_".join(groups), used, rows, bad, draw(st.booleans())


def _relation(backend, sizes, spec, used):
    names = [f"D{i}" for i in range(len(sizes))]
    bits = {n: bits_for(s) for n, s in zip(names, sizes)}
    levels = assign_levels(spec, bits)
    m = create_kernel(num_vars=sum(bits.values()), backend=backend)
    attrs = [
        Attribute(f"a{k}", f"L{k}",
                  Domain(m, names[k], sizes[k], levels[names[k]]))
        for k in used
    ]
    return Relation(m, "r", attrs)


def _fold_of_cubes(rel, rows):
    """The encoder's reference: one cube per tuple, validated in order,
    ORed into an accumulator one at a time."""
    m = rel.manager
    node = FALSE
    for values in rows:
        if len(values) != rel.arity:
            raise BDDError(f"arity {len(values)}")
        literals = []
        for attr, value in zip(rel.attributes, values):
            phys = attr.phys
            if not isinstance(value, int) or not 0 <= value < phys.size:
                raise InvalidInputError("bad value", predicate=rel.name,
                                        attribute=attr.name, value=value)
            literals += [
                (level, bool((value >> (phys.bits - 1 - i)) & 1))
                for i, level in enumerate(phys.levels)
            ]
        node = m.or_(node, m.cube(literals))
    return node


def _outcome(fn):
    try:
        return ("ok", fn())
    except InvalidInputError as err:
        return (type(err), err.predicate, err.attribute, repr(err.value))
    except BDDError as err:
        return (type(err),)


@pytest.mark.parametrize("backend", ["reference", "packed"])
@given(case=encoder_cases())
@settings(max_examples=150, deadline=None)
def test_tuples_node_equals_fold_of_cubes(backend, case):
    sizes, spec, used, rows, bad, as_generator = case
    rel = _relation(backend, sizes, spec, used)
    m = rel.manager
    before = m.node_count()
    got = _outcome(lambda: rel.tuples_node(
        (t for t in rows) if as_generator else rows
    ))
    if got[0] != "ok":
        # Validation runs before the first node is made.
        assert m.node_count() == before
    want = _outcome(lambda: _fold_of_cubes(rel, rows))
    # Canonical arena: the same function is the same node id.
    assert got == want, (spec, rows)
    assert (got[0] == "ok") == (bad is None)
    if bad is None and rows:
        rel.set_tuples(rows)
        assert set(rel.tuples()) == set(rows)


@pytest.mark.parametrize("backend", ["reference", "packed"])
@given(case=encoder_cases(corrupt=True))
@settings(max_examples=50, deadline=None)
def test_bad_tuple_leaves_relation_unchanged(backend, case):
    sizes, spec, used, rows, bad, _ = case
    rel = _relation(backend, sizes, spec, used)
    rel.set_tuples([t for t in rows if t != bad])
    node, version = rel.node, rel.version
    with pytest.raises((BDDError, InvalidInputError)):
        rel.set_tuples(rows)
    assert (rel.node, rel.version) == (node, version)
    with pytest.raises((BDDError, InvalidInputError)):
        rel.add_tuple(bad)
    assert (rel.node, rel.version) == (node, version)
