"""The per-process memo of decoded checkpoint payloads: keyed on the
sha256 of the payload lines read, bounded, and invisible in every result
(handles, arena, re-dump, errors, fault timing)."""

import hashlib

import pytest

from repro.bdd import BDDError, create_kernel
from repro.bdd.serialize import dump_bdd_lines
from repro.datalog import Solver, parse_program
from repro.runtime import CheckpointError, checkpoint, faults
from repro.runtime.checkpoint import (
    checkpoint_lines,
    load_checkpoint,
    load_checkpoint_lines,
    save_checkpoint,
)

BACKENDS = ["reference", "packed"]

SOURCE = """
.domains
N 64
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


def edges(seed):
    return [((i * 7 + seed) % 61, (i * 13 + 3 * seed) % 59) for i in range(40)]


def build(backend="packed", order_spec=None, seed=1, solved=False):
    solver = Solver(parse_program(SOURCE), backend=backend, order_spec=order_spec)
    solver.add_tuples("edge", edges(seed))
    if solved:
        solver.solve()
    return solver


def state(solver):
    """Handles, arena size and canonical re-dump of every relation."""
    names = sorted(solver.relations)
    handles = [solver.relations[n].node for n in names]
    manager = solver.manager
    return handles, manager.node_count(), dump_bdd_lines(manager, handles)[0]


@pytest.fixture(autouse=True)
def empty_memo():
    checkpoint._decoded.clear()
    yield
    checkpoint._decoded.clear()


@pytest.fixture
def decodes(monkeypatch):
    """How many payloads were decoded (memo misses)."""
    calls = []
    real = checkpoint.decode_bdd_lines

    def counting(lines, max_vars):
        calls.append(len(lines))
        return real(lines, max_vars)

    monkeypatch.setattr(checkpoint, "decode_bdd_lines", counting)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order_spec", [None, "N0_N1"])
def test_a_hit_restores_what_a_cold_load_does(backend, order_spec, decodes):
    """Same handles, arena size and re-dump, in the same-order branch and
    in the reorder branch's staging kernel."""
    lines, _ = checkpoint_lines(build(backend, solved=True))
    cold = build(backend, order_spec)
    load_checkpoint_lines(cold, lines, "<memory>")
    hit = build(backend, order_spec)
    load_checkpoint_lines(hit, lines, "<memory>")
    assert decodes == [len(lines) - 4]
    assert state(hit) == state(cold)
    assert set(hit.relation("path").tuples()) == set(
        build(backend, solved=True).relation("path").tuples()
    )


def test_a_file_rewritten_in_place_misses(tmp_path, decodes):
    path = tmp_path / "x.ckpt"
    save_checkpoint(build(seed=1, solved=True), path)
    load_checkpoint(build(seed=1), path)
    load_checkpoint(build(seed=1), path)
    assert len(decodes) == 1

    save_checkpoint(build(seed=2, solved=True), path)
    restored = build(seed=1)
    load_checkpoint(restored, path)
    assert len(decodes) == 2
    assert set(restored.relation("path").tuples()) == set(
        build(seed=2, solved=True).relation("path").tuples()
    )


def _cold_error(path):
    checkpoint._decoded.clear()
    with pytest.raises(CheckpointError) as cold:
        load_checkpoint(build(), path)
    return str(cold.value)


def test_corruption_after_a_hit_still_raises(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(build(solved=True), path)
    good = path.read_text().splitlines()
    node = next(i for i, line in enumerate(good) if line.startswith("node "))

    def corrupt_and_hit(lines):
        checkpoint._decoded.clear()
        path.write_text("\n".join(good) + "\n")
        load_checkpoint(build(), path)
        load_checkpoint(build(), path)
        assert len(checkpoint._decoded) == 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError) as hit:
            load_checkpoint(build(), path)
        assert str(hit.value) == _cold_error(path)
        return str(hit.value)

    # A changed payload line: the recomputed digest no longer matches.
    bumped = list(good)
    bumped[node] = bumped[node].replace("node 2 ", "node 3 ", 1)
    assert "checksum mismatch: payload is corrupt" in corrupt_and_hit(bumped)

    # The declared digest rewritten to match a non-canonical payload: the
    # record loader diagnoses it, as on a cold load.
    dangling = list(good)
    dangling[node] = " ".join(dangling[node].split(" ")[:3] + ["999", "1"])
    digest = hashlib.sha256("\n".join(dangling[4:]).encode()).hexdigest()
    dangling[2] = f"sha256 {digest}"
    assert "unknown child" in corrupt_and_hit(dangling)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_hit_rechecks_the_variable_count(backend):
    solver = build(backend, solved=True)
    lines, _ = checkpoint_lines(solver)
    payload = lines[4:]
    digest = lines[2].split(" ")[1]
    checkpoint._rebuild(
        create_kernel(num_vars=solver.manager.num_vars, backend=backend),
        payload, digest, "<memory>",
    )
    assert digest in checkpoint._decoded
    small = 4
    with pytest.raises(BDDError) as hit:
        checkpoint._rebuild(create_kernel(num_vars=small, backend=backend),
                            payload, digest, "<memory>")
    checkpoint._decoded.clear()
    with pytest.raises(BDDError) as cold:
        checkpoint._rebuild(create_kernel(num_vars=small, backend=backend),
                            payload, digest, "<memory>")
    assert str(hit.value) == str(cold.value)
    assert "variables, manager has 4" in str(hit.value)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("hits", [1, 2])
def test_a_hit_fires_the_mk_fault_at_the_same_arena_size(backend, hits):
    lines, _ = checkpoint_lines(build(backend, solved=True))
    arenas = []
    for _ in range(2):  # a cold load, then a memo hit
        faults.arm(f"exception@bdd.mk#{hits}")
        try:
            target = Solver(parse_program(SOURCE), backend=backend)
            with pytest.raises(faults.FaultError):
                load_checkpoint_lines(target, lines, "<memory>")
        finally:
            faults.disarm()
        arenas.append(target.manager.node_count())
    assert len(checkpoint._decoded) == 1
    assert arenas[0] == arenas[1]


def test_the_memo_is_bounded_first_in_first_out():
    digests = []
    for seed in range(checkpoint._MEMO_SIZE + 3):
        lines, _ = checkpoint_lines(build(seed=seed, solved=True))
        digests.append(lines[2].split(" ")[1])
        load_checkpoint_lines(build(seed=seed), lines, "<memory>")
        assert len(checkpoint._decoded) <= checkpoint._MEMO_SIZE
    assert list(checkpoint._decoded) == digests[-checkpoint._MEMO_SIZE:]
