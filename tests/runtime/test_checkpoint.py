"""Checkpoint/resume: atomicity, corruption detection, bit-identity."""

import hashlib
import subprocess
import sys

import pytest

from repro.bdd.serialize import dump_bdd_lines
from repro.datalog import Solver, parse_program
from repro.runtime import (
    CheckpointError,
    IterationLimitExceeded,
    ResourceBudget,
    checkpoint,
    load_checkpoint,
    save_checkpoint,
)

SOURCE = """
.domains
N 32
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
same (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
same(x, y) :- path(x, y), path(y, x).
"""

EDGES = [(i, i + 1) for i in range(12)] + [(12, 0)]


def build(order_spec=None, budget=None):
    solver = Solver(parse_program(SOURCE), order_spec=order_spec, budget=budget)
    solver.add_tuples("edge", EDGES)
    return solver


def canonical_dump(solver) -> str:
    """Canonical serialization of every relation, order-independent of
    manager handle values."""
    names = sorted(solver.relations)
    lines, _ = dump_bdd_lines(
        solver.manager, [solver.relations[n].node for n in names]
    )
    return "\n".join(lines)


class TestRoundTrip:
    def test_full_state_round_trips(self, tmp_path):
        first = build()
        first.solve()
        path = tmp_path / "solved.ckpt"
        meta = save_checkpoint(first, path, next_stratum=3)
        assert meta.next_stratum == 3

        second = build()
        restored = load_checkpoint(second, path)
        assert restored.next_stratum == 3
        for name in first.relations:
            assert set(second.relation(name).tuples()) == set(
                first.relation(name).tuples()
            )

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        solver = build()
        solver.solve()
        save_checkpoint(solver, tmp_path / "a.ckpt")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "a.ckpt"]
        assert leftovers == []

    def test_restore_across_different_variable_order(self, tmp_path):
        first = build()
        first.solve()
        path = tmp_path / "order.ckpt"
        save_checkpoint(first, path)
        # N0 and N1 separated instead of interleaved: different levels.
        second = build(order_spec="N0_N1")
        assert second.order_spec != first.order_spec
        load_checkpoint(second, path)
        for name in first.relations:
            assert set(second.relation(name).tuples()) == set(
                first.relation(name).tuples()
            )

    def test_extra_meta_travels(self, tmp_path):
        solver = build()
        solver.solve()
        meta = save_checkpoint(
            solver, tmp_path / "m.ckpt", extra_meta={"reason": "node_budget"}
        )
        assert meta.meta["reason"] == "node_budget"
        fresh = build()
        restored = load_checkpoint(fresh, tmp_path / "m.ckpt")
        assert restored.meta["reason"] == "node_budget"


class TestCorruption:
    def make(self, tmp_path):
        solver = build()
        solver.solve()
        path = tmp_path / "c.ckpt"
        save_checkpoint(solver, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make(tmp_path)
        path.write_text("# something else\n" + path.read_text())
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            load_checkpoint(build(), path)

    def test_truncated_payload(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(build(), path)

    def test_flipped_payload_bit_fails_checksum(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        # Flip one digit inside a node record, keeping the line count.
        for i, line in enumerate(lines):
            if line.startswith("node "):
                parts = line.split()
                parts[2] = str(int(parts[2]) ^ 1)
                lines[i] = " ".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(build(), path)

    def test_corrupt_meta_json(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = "meta {not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt meta json"):
            load_checkpoint(build(), path)

    def test_schema_drift_detected(self, tmp_path):
        path = self.make(tmp_path)
        other = Solver(parse_program(SOURCE, domain_sizes={"N": 64}))
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(other, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(build(), tmp_path / "nope.ckpt")

    def test_dangling_node_reference(self, tmp_path):
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        payload_at = next(
            i for i, l in enumerate(lines) if l.startswith("# repro-bdd")
        )
        # Point the last node at a child id that is never defined, then
        # re-sign the payload so only the structural check can catch it.
        for i in range(len(lines) - 1, payload_at, -1):
            if lines[i].startswith("node "):
                parts = lines[i].split()
                parts[3] = "99999"
                lines[i] = " ".join(parts)
                break
        payload = "\n".join(lines[payload_at:])
        digest = hashlib.sha256(payload.encode()).hexdigest()
        lines[2] = f"sha256 {checkpoint._record_digest(lines[1], digest)}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="unknown child"):
            load_checkpoint(build(), path)

    def test_edited_next_stratum_fails_checksum(self, tmp_path):
        # Valid JSON, so only the digest over the meta line can catch it;
        # resuming at stratum 9 would skip strata never at fixpoint.
        path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        assert '"next_stratum":0' in lines[1]
        lines[1] = lines[1].replace('"next_stratum":0', '"next_stratum":9')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(build(), path)


class TestBitIdenticalResume:
    def test_interrupt_resume_same_process(self, tmp_path):
        reference = build()
        reference.solve()
        want = canonical_dump(reference)

        interrupted = build(budget=ResourceBudget(max_iterations=3))
        with pytest.raises(IterationLimitExceeded) as exc:
            interrupted.solve()
        path = tmp_path / "mid.ckpt"
        save_checkpoint(
            interrupted, path, next_stratum=exc.value.completed_strata
        )

        resumed = build()
        meta = load_checkpoint(resumed, path)
        resumed.solve(start_stratum=meta.next_stratum)
        assert canonical_dump(resumed) == want

    def test_interrupt_resume_fresh_process(self, tmp_path):
        """The acceptance demo: a mid-solve checkpoint resumed in a fresh
        interpreter yields bit-identical relation BDDs."""
        reference = build()
        reference.solve()
        want = canonical_dump(reference)

        interrupted = build(budget=ResourceBudget(max_iterations=2))
        with pytest.raises(IterationLimitExceeded) as exc:
            interrupted.solve()
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(
            interrupted, path, next_stratum=exc.value.completed_strata
        )

        script = f"""
import sys
from repro.datalog import Solver, parse_program
from repro.runtime import load_checkpoint
from repro.bdd.serialize import dump_bdd_lines

SOURCE = '''{SOURCE}'''
solver = Solver(parse_program(SOURCE))
solver.add_tuples("edge", {EDGES!r})
meta = load_checkpoint(solver, {str(path)!r})
solver.solve(start_stratum=meta.next_stratum)
names = sorted(solver.relations)
lines, _ = dump_bdd_lines(
    solver.manager, [solver.relations[n].node for n in names]
)
sys.stdout.write("\\n".join(lines))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want


class TestVersionStamp:
    """Checkpoints are stamped with the schema revision and tool version;
    incompatible stamps are rejected before any payload is parsed."""

    @staticmethod
    def _tamper(path, tmp_path, **updates):
        import json
        import pathlib

        lines = pathlib.Path(path).read_text().splitlines()
        meta = json.loads(lines[1][len("meta "):])
        for key, value in updates.items():
            if value is None:
                meta.pop(key, None)
            else:
                meta[key] = value
        lines[1] = "meta " + json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        )
        out = tmp_path / "tampered.ckpt"
        out.write_text("\n".join(lines) + "\n")
        return out

    def _saved(self, tmp_path):
        solver = build()
        solver.solve()
        path = tmp_path / "stamped.ckpt"
        save_checkpoint(solver, path)
        return path

    def test_stamp_is_written(self, tmp_path):
        import json
        import pathlib

        from repro import __version__
        from repro.runtime.checkpoint import FORMAT_VERSION

        path = self._saved(tmp_path)
        meta = json.loads(
            pathlib.Path(path).read_text().splitlines()[1][len("meta "):]
        )
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["tool"] == {"name": "repro", "version": __version__}

    def test_future_format_version_rejected(self, tmp_path):
        from repro.runtime import InvalidInputError
        from repro.runtime.checkpoint import FORMAT_VERSION

        bad = self._tamper(
            self._saved(tmp_path), tmp_path,
            format_version=FORMAT_VERSION + 1,
        )
        with pytest.raises(InvalidInputError, match="format_version"):
            load_checkpoint(build(), bad)

    def test_tool_major_mismatch_rejected(self, tmp_path):
        from repro.runtime import InvalidInputError

        bad = self._tamper(
            self._saved(tmp_path), tmp_path, tool={"version": "99.0.0"}
        )
        with pytest.raises(InvalidInputError, match="99.0.0"):
            load_checkpoint(build(), bad)

    def test_unstamped_legacy_file_is_refused(self, tmp_path):
        # Files stamped before version 3, or not at all, carry a digest
        # over the payload alone: refused by version, not as corrupt.
        from repro.runtime import InvalidInputError
        from repro.runtime.checkpoint import FORMAT_VERSION

        for stamp in (None, FORMAT_VERSION - 1):
            legacy = self._tamper(
                self._saved(tmp_path), tmp_path, format_version=stamp, tool=None
            )
            with pytest.raises(
                InvalidInputError, match=f"format_version {stamp!r}"
            ):
                load_checkpoint(build(), legacy)
