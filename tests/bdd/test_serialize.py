"""Tests for BDD save/load."""

import pytest

from repro.bdd import BDD, BDDError
from repro.bdd.serialize import dump_bdd_lines, load_bdd, save_bdd


def _xor(m, a, b):
    """Exclusive or, built from the kernel's relational difference."""
    return m.or_(m.diff(a, b), m.diff(b, a))


def eval_bdd(mgr, u, mask):
    while u > 1:
        v = mgr.var_of(u)
        u = mgr.high(u) if (mask >> v) & 1 else mgr.low(u)
    return u == 1


class TestSerialize:
    def test_roundtrip_semantics(self, tmp_path):
        src = BDD(num_vars=6)
        f = src.or_(src.and_(src.var_bdd(0), src.var_bdd(3)), src.nvar_bdd(5))
        path = tmp_path / "f.bdd"
        save_bdd(src, [f], path)
        dst = BDD(num_vars=6)
        (g,) = load_bdd(dst, path)
        for mask in range(64):
            assert eval_bdd(src, f, mask) == eval_bdd(dst, g, mask)

    def test_terminals(self, tmp_path):
        src = BDD(num_vars=2)
        path = tmp_path / "t.bdd"
        save_bdd(src, [0, 1], path)
        dst = BDD(num_vars=2)
        assert load_bdd(dst, path) == [0, 1]

    def test_shared_subgraphs_written_once(self, tmp_path):
        src = BDD(num_vars=4)
        shared = src.and_(src.var_bdd(2), src.var_bdd(3))
        f = src.or_(src.var_bdd(0), shared)
        g = src.or_(src.var_bdd(1), shared)
        path = tmp_path / "fg.bdd"
        count = save_bdd(src, [f, g], path)
        # shared's nodes appear once, not twice.
        text = path.read_text()
        node_lines = [l for l in text.splitlines() if l.startswith("node")]
        assert len(node_lines) == count
        dst = BDD(num_vars=4)
        nf, ng = load_bdd(dst, path)
        for mask in range(16):
            assert eval_bdd(dst, nf, mask) == eval_bdd(src, f, mask)
            assert eval_bdd(dst, ng, mask) == eval_bdd(src, g, mask)

    def test_load_into_same_manager_is_identity(self, tmp_path):
        mgr = BDD(num_vars=4)
        f = mgr.and_(mgr.var_bdd(0), mgr.var_bdd(1))
        path = tmp_path / "f.bdd"
        save_bdd(mgr, [f], path)
        (g,) = load_bdd(mgr, path)
        assert g == f  # hash-consing makes reload a no-op

    def test_too_few_vars_rejected(self, tmp_path):
        src = BDD(num_vars=8)
        f = src.var_bdd(7)
        path = tmp_path / "f.bdd"
        save_bdd(src, [f], path)
        small = BDD(num_vars=4)
        with pytest.raises(BDDError):
            load_bdd(small, path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bdd"
        path.write_text("not a bdd\n")
        with pytest.raises(BDDError):
            load_bdd(BDD(num_vars=2), path)

    def test_canonical_ids_make_saves_byte_identical(self, tmp_path):
        """Two managers holding the same function under different handle
        histories serialize to byte-identical files."""
        a = BDD(num_vars=6)
        fa = a.and_(a.var_bdd(1), a.or_(a.var_bdd(3), a.var_bdd(5)))
        b = BDD(num_vars=6)
        # Build extra garbage first so handle values differ.
        for v in range(6):
            _xor(b, b.var_bdd(v), b.var_bdd((v + 1) % 6))
        fb = b.and_(b.var_bdd(1), b.or_(b.var_bdd(3), b.var_bdd(5)))
        pa, pb = tmp_path / "a.bdd", tmp_path / "b.bdd"
        save_bdd(a, [fa], pa)
        save_bdd(b, [fb], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_dump_lines_children_precede_parents(self):
        mgr = BDD(num_vars=4)
        f = mgr.and_(mgr.var_bdd(0), mgr.or_(mgr.var_bdd(1), mgr.var_bdd(3)))
        lines, count = dump_bdd_lines(mgr, [f])
        seen = {0, 1}
        for line in lines:
            if line.startswith("node "):
                node_id, _, low, high = map(int, line.split()[1:])
                assert low in seen and high in seen
                seen.add(node_id)
        assert count == len(seen) - 2


class TestCorruptInput:
    def saved(self, tmp_path):
        mgr = BDD(num_vars=4)
        f = mgr.and_(mgr.var_bdd(0), mgr.or_(mgr.var_bdd(1), mgr.var_bdd(3)))
        path = tmp_path / "f.bdd"
        save_bdd(mgr, [f], path)
        return path

    def reload(self, path):
        return load_bdd(BDD(num_vars=4), path)

    def edit(self, path, old, new):
        path.write_text(path.read_text().replace(old, new, 1))

    def test_truncated_roots(self, tmp_path):
        path = self.saved(tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("root ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match="promises 1 roots, found 0"):
            self.reload(path)

    def test_missing_vars_header(self, tmp_path):
        path = self.saved(tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("vars")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match="missing 'vars' header"):
            self.reload(path)

    def test_dangling_child_named_with_line(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("node"))
        parts = lines[idx].split()
        parts[3] = "777"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match=rf":{idx + 1}:.*unknown child \(777\)"):
            self.reload(path)

    def test_unknown_root_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.edit(path, "root ", "root 555 # was: ")
        with pytest.raises(BDDError, match="unknown root 555"):
            self.reload(path)

    def test_non_integer_field(self, tmp_path):
        path = self.saved(tmp_path)
        self.edit(path, "vars 4", "vars four")
        with pytest.raises(BDDError, match="non-integer field"):
            self.reload(path)

    def test_level_out_of_declared_range(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("node"))
        parts = lines[idx].split()
        parts[2] = "9"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match="level 9 outside 0..3"):
            self.reload(path)

    def test_duplicate_node_id(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("node"))
        lines.insert(idx + 1, lines[idx])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match="duplicate node id"):
            self.reload(path)

    def test_terminal_id_collision(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("node"))
        parts = lines[idx].split()
        parts[1] = "1"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError, match="collides with a terminal"):
            self.reload(path)

    def test_unknown_record_kind(self, tmp_path):
        path = self.saved(tmp_path)
        self.edit(path, "roots 1", "roots 1\nblob 1 2 3")
        with pytest.raises(BDDError, match="unknown record 'blob'"):
            self.reload(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bdd"
        path.write_text("")
        with pytest.raises(BDDError, match="bad or missing"):
            self.reload(path)

    def test_corruption_never_partially_loads_roots(self, tmp_path):
        """A file that fails validation returns no roots at all rather
        than a half-rebuilt list."""
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        lines.append("root 9999")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BDDError):
            self.reload(path)

    def test_relation_checkpoint(self, tmp_path):
        """Checkpoint a solved relation and reload it in a fresh solver."""
        from repro.datalog import Solver, parse_program

        text = """
.domains
N 16
.relations
edge (a : N0, b : N1) input
path (a : N0, b : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""
        first = Solver(parse_program(text))
        first.add_tuples("edge", [(0, 1), (1, 2), (2, 3)])
        first.solve()
        path_file = tmp_path / "path.bdd"
        save_bdd(first.manager, [first.relation("path").node], path_file)

        # Same program text => same level layout => direct reload works.
        second = Solver(parse_program(text))
        (node,) = load_bdd(second.manager, path_file)
        second.set_node("path", node)
        assert set(second.relation("path").tuples()) == set(
            first.relation("path").tuples()
        )
