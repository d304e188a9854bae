"""Property tests for the BDD payload codec (``repro.bdd.serialize``).

The codec dumps through ``BddKernel.export_nodes`` and loads canonical
payloads in chunks through ``BddKernel.import_nodes``, handing anything
else to the record-at-a-time loader.  These tests hold both halves to the
algorithms they replaced, kept here as oracles: a post-order dump that
walks ``var_of``/``low``/``high`` node by node, and the original line
loop.  Forests are random, with terminal and repeated roots, shared
subgraphs, and node counts on both sides of multiples of the chunk size.
"""

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDError, FALSE, TRUE, create_kernel
from repro.bdd.serialize import _CHUNK, dump_bdd_lines, parse_bdd_lines
from repro.runtime import faults

BACKENDS = ["reference", "packed"]
NVARS = 12
MAGIC = "# repro-bdd 1"


# ----------------------------------------------------------------------
# Oracles: the codec as it was before bulk export/import
# ----------------------------------------------------------------------


def reference_dump(manager, roots) -> List[str]:
    order: List[int] = []
    seen = {FALSE, TRUE}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in seen:
                continue
            if expanded:
                seen.add(node)
                order.append(node)
                continue
            stack.append((node, True))
            stack.append((manager.high(node), False))
            stack.append((manager.low(node), False))
    canon: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    for i, node in enumerate(order):
        canon[node] = 2 + i
    lines = [MAGIC, f"vars {manager.num_vars}", f"roots {len(roots)}"]
    for node in order:
        lines.append(
            f"node {canon[node]} {manager.var_of(node)} "
            f"{canon[manager.low(node)]} {canon[manager.high(node)]}"
        )
    for root in roots:
        lines.append(f"root {canon[root]}")
    return lines


def reference_parse(manager, lines, name="<bdd>", first_lineno=1) -> List[int]:
    if not lines or lines[0].strip() != MAGIC:
        raise BDDError(
            f"{name}:{first_lineno}: not a repro-bdd file (bad or missing "
            f"magic line, expected {MAGIC!r})"
        )
    mapping: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    roots: List[int] = []
    declared_vars: Optional[int] = None
    declared_roots: Optional[int] = None
    for offset, raw in enumerate(lines[1:], start=1):
        lineno = first_lineno + offset
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            fields = [int(p) for p in parts[1:]]
        except ValueError:
            raise BDDError(
                f"{name}:{lineno}: non-integer field in {kind!r} record"
            )
        if kind == "vars":
            if len(fields) != 1:
                raise BDDError(f"{name}:{lineno}: malformed vars line")
            declared_vars = fields[0]
            if declared_vars > manager.num_vars:
                raise BDDError(
                    f"{name}:{lineno}: file uses {declared_vars} variables, "
                    f"manager has {manager.num_vars}"
                )
        elif kind == "roots":
            if len(fields) != 1 or fields[0] < 0:
                raise BDDError(f"{name}:{lineno}: malformed roots line")
            declared_roots = fields[0]
        elif kind == "node":
            if len(fields) != 4:
                raise BDDError(f"{name}:{lineno}: malformed node line")
            node_id, level, low, high = fields
            if node_id < 2:
                raise BDDError(
                    f"{name}:{lineno}: node id {node_id} collides with a "
                    f"terminal"
                )
            if node_id in mapping:
                raise BDDError(f"{name}:{lineno}: duplicate node id {node_id}")
            limit = declared_vars if declared_vars is not None else manager.num_vars
            if not 0 <= level < limit:
                raise BDDError(
                    f"{name}:{lineno}: node {node_id} has level {level} "
                    f"outside 0..{limit - 1}"
                )
            if low not in mapping or high not in mapping:
                raise BDDError(
                    f"{name}:{lineno}: node {node_id} references unknown child "
                    f"({low if low not in mapping else high})"
                )
            mapping[node_id] = manager.mk(level, mapping[low], mapping[high])
        elif kind == "root":
            if len(fields) != 1:
                raise BDDError(f"{name}:{lineno}: malformed root line")
            root_id = fields[0]
            if root_id not in mapping:
                raise BDDError(f"{name}:{lineno}: unknown root {root_id}")
            roots.append(mapping[root_id])
        else:
            raise BDDError(f"{name}:{lineno}: unknown record {kind!r}")
    if declared_vars is None:
        raise BDDError(f"{name}: truncated file: missing 'vars' header")
    if declared_roots is None:
        raise BDDError(f"{name}: truncated file: missing 'roots' header")
    if len(roots) != declared_roots:
        raise BDDError(
            f"{name}: truncated file: header promises {declared_roots} "
            f"roots, found {len(roots)}"
        )
    return roots


# ----------------------------------------------------------------------
# Random forests
# ----------------------------------------------------------------------


def build_forest(manager, seed: int, size: int, extra_roots: int) -> List[int]:
    """``size`` distinct nodes, every one reachable from the returned
    roots; the roots also hold terminals, repeats and shared nodes."""
    rng = random.Random(seed)
    below: List[int] = [FALSE, TRUE]  # nodes at levels under the current one
    made: List[int] = []
    has_parent = set()
    for level in range(NVARS - 1, -1, -1):
        # Spread the nodes over the levels; the top levels (few children
        # to pick from) fill up and leave the rest to the levels above.
        want = (size - len(made)) // (level + 1) if level else size - len(made)
        fresh: List[int] = []
        seen = set()
        for _ in range(3 * want + 10):
            if len(fresh) == want:
                break
            lo, hi = rng.choice(below), rng.choice(below)
            if lo == hi:
                continue
            node = manager.mk(level, lo, hi)
            if node in seen:
                continue
            seen.add(node)
            fresh.append(node)
            has_parent.update((lo, hi))
        made += fresh
        below += fresh
    roots = [n for n in made if n not in has_parent]
    pool = made + [FALSE, TRUE]
    roots += [rng.choice(pool) for _ in range(extra_roots)]
    rng.shuffle(roots)
    return roots


NEAR_CHUNKS = sorted(
    {0, 1, 2}
    | {m * _CHUNK + d for m in (1, 2) for d in (-1, 0, 1)}
)

forests = st.tuples(
    st.sampled_from(BACKENDS),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from(NEAR_CHUNKS), st.integers(0, 2 * _CHUNK + 8)),
    st.integers(0, 4),
)


def make_forest(backend, seed, size, extra_roots):
    manager = create_kernel(num_vars=NVARS, backend=backend)
    roots = build_forest(manager, seed, size, extra_roots)
    return manager, roots


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@given(forests)
@settings(max_examples=60, deadline=None)
def test_dump_equals_reference_and_round_trips(forest):
    manager, roots = make_forest(*forest)
    lines, count = dump_bdd_lines(manager, roots)
    assert lines == reference_dump(manager, roots)
    assert count == len(lines) - 3 - len(roots)

    # Loading into the source kernel is all unique-table hits.
    before = manager.node_count()
    assert parse_bdd_lines(manager, lines) == roots
    assert manager.node_count() == before

    # A fresh kernel of either backend rebuilds the same bytes.
    for other in BACKENDS:
        fresh = create_kernel(num_vars=NVARS, backend=other)
        loaded = parse_bdd_lines(fresh, lines)
        assert dump_bdd_lines(fresh, loaded)[0] == lines
        assert fresh.peak_nodes == fresh.node_count() == count + 2


# ----------------------------------------------------------------------
# Corrupt and non-canonical payloads
# ----------------------------------------------------------------------

MUTATIONS = [
    "drop", "duplicate", "swap", "bump", "negate", "forward_child",
    "level_too_high", "non_integer", "comment", "blank", "cut_roots",
    "padded", "double_space", "shift_field", "extra_field", "bad_root",
]


def _edit_field(line: str, pick, change) -> str:
    """``line`` with one integer field changed (unchanged if none is)."""
    parts = line.split(" ")
    k = pick(parts)
    try:
        parts[k] = str(change(int(parts[k]), parts))
    except (IndexError, ValueError):
        return line
    return " ".join(parts)


def mutate(lines: List[str], kind: str, rng: random.Random) -> List[str]:
    out = list(lines)
    if len(out) < 2:
        return out
    body = range(1, len(out))
    nodes = [i for i, line in enumerate(out) if line.startswith("node ")] or [0]
    any_field = lambda parts: rng.randrange(1, max(2, len(parts)))
    if kind == "drop":
        del out[rng.choice(body)]
    elif kind == "duplicate":
        i = rng.choice(body)
        out.insert(i, out[i])
    elif kind == "swap":
        i, j = rng.choice(body), rng.choice(body)
        out[i], out[j] = out[j], out[i]
    elif kind == "bump":
        i = rng.choice(body)
        out[i] = _edit_field(out[i], any_field, lambda v, _: v + rng.choice((-1, 1)))
    elif kind == "negate":
        i = rng.choice(body)
        out[i] = _edit_field(out[i], any_field, lambda v, _: -v - 1)
    elif kind == "forward_child":
        i = rng.choice(nodes)
        out[i] = _edit_field(
            out[i], lambda _: rng.choice((3, 4)),
            lambda _, parts: int(parts[1]) + rng.randint(0, 3),
        )
    elif kind == "level_too_high":
        i = rng.choice(nodes)
        out[i] = _edit_field(out[i], lambda _: 2, lambda *_: NVARS + rng.randint(0, 2))
    elif kind == "non_integer":
        i = rng.choice(body)
        parts = out[i].split(" ")
        parts[any_field(parts) % len(parts)] = rng.choice(("x", "1.5", "0x1"))
        out[i] = " ".join(parts)
    elif kind == "comment":
        i = rng.randrange(len(out) + 1)
        if rng.random() < 0.5 or i == len(out):
            out.insert(i, "# a comment")
        else:
            out[i] += "  # trailing"
    elif kind == "blank":
        out.insert(rng.randrange(1, len(out) + 1), rng.choice(("", "   ")))
    elif kind == "cut_roots":
        present = sum(1 for line in out if line.startswith("root "))
        del out[len(out) - rng.randint(1, max(1, present)):]
    elif kind == "padded":
        i = rng.randrange(len(out))
        out[i] = " " + out[i] + "\t"
    elif kind == "double_space":
        i = rng.choice(body)
        out[i] = out[i].replace(" ", "  ", 1)
    elif kind == "shift_field":
        # The last field of one line moves to the start of the next;
        # half the time on the last lines (the root records).
        first = max(1, len(out) - 4) if rng.random() < 0.5 else 1
        i = rng.randrange(first, len(out) - 1) if len(out) > 2 else 1
        head, _, last = out[i].rpartition(" ")
        if head and i + 1 < len(out):
            out[i], out[i + 1] = head, f"{last} {out[i + 1]}"
    elif kind == "extra_field":
        # Half the time on one of the last lines (the root records).
        first = max(1, len(out) - 3) if rng.random() < 0.5 else 1
        out[rng.randrange(first, len(out))] += " 0"
    elif kind == "bad_root":
        roots = [i for i, line in enumerate(out) if line.startswith("root ")]
        if roots:
            ids = sum(1 for line in out if line.startswith("node ")) + 2
            out[rng.choice(roots)] = f"root {rng.choice((-1, -2, ids, ids + 1))}"
    return out


def outcome(parse, backend, lines):
    manager = create_kernel(num_vars=NVARS, backend=backend)
    try:
        roots = parse(manager, lines, name="f.bdd", first_lineno=5)
    except BDDError as err:
        return ("error", str(err), manager.node_count())
    return ("ok", roots, manager.node_count(), dump_bdd_lines(manager, roots)[0])


def assert_loads_like_the_line_loop(backend, seed, size, extra_roots, kinds):
    manager, roots = make_forest(backend, seed, size, extra_roots)
    lines, _ = dump_bdd_lines(manager, roots)
    rng = random.Random(seed)
    for kind in kinds:
        lines = mutate(lines, kind, rng)
    assert outcome(parse_bdd_lines, backend, lines) == outcome(
        reference_parse, backend, lines
    )


@given(
    forests,
    st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_mutated_payloads_load_like_the_line_loop(forest, kinds):
    assert_loads_like_the_line_loop(*forest, kinds)


@pytest.mark.parametrize("kind", MUTATIONS)
def test_each_mutation_loads_like_the_line_loop(kind):
    """Every mutation, alone, on forests that straddle a chunk boundary."""
    for backend in BACKENDS:
        for size in (3, 40, _CHUNK - 1, _CHUNK + 1):
            for seed in range(6):
                assert_loads_like_the_line_loop(
                    backend, seed * 1009 + size, size, seed % 3, [kind]
                )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("hit", [1, 3])
def test_load_fires_the_mk_fault(backend, hit):
    """Rebuilding a payload goes through the ``bdd.mk`` fault seam, at
    the same node as the line loop."""
    manager = create_kernel(num_vars=NVARS, backend=backend)
    roots = build_forest(manager, seed=hit, size=2 * _CHUNK + 40, extra_roots=2)
    lines, _ = dump_bdd_lines(manager, roots)
    arenas = []
    for parse in (parse_bdd_lines, reference_parse):
        faults.arm(f"exception@bdd.mk#{hit}")
        try:
            fresh = create_kernel(num_vars=NVARS, backend=backend)
            with pytest.raises(faults.FaultError):
                parse(fresh, lines)
        finally:
            faults.disarm()
        arenas.append(fresh.node_count())
    assert arenas[0] == arenas[1]
