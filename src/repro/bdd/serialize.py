"""Saving and loading BDDs (BuDDy's ``bdd_save``/``bdd_load`` analogue).

The format is a line-oriented text file::

    # repro-bdd 1
    vars 24
    roots 2
    node 2 5 0 1      # id level low high (ids start at 2; 0/1 terminals)
    node 3 4 2 1
    root 3
    root 2

Node ids are file-local; :func:`save_bdd` renumbers them canonically (2,
3, ... in emission order), so two structurally identical BDDs saved under
the same variable order produce byte-identical files — the property the
checkpoint/resume machinery relies on.  Loading rebuilds through the
target manager's unique table, so structure sharing (also *across*
separately saved files loaded into one manager) is preserved.

Both directions are bulk operations on the kernel: a dump formats the
node lists of :meth:`BddKernel.export_nodes`, and a load decodes the node
lines of a canonical payload in chunks and hands each chunk to
:meth:`BddKernel.import_nodes`.

Loading is defensive: bad magic, malformed records, dangling node
references, out-of-range levels, duplicate ids, and truncated files (the
``roots`` header promises more roots than the file delivers) all raise
:class:`BDDError` with the file name and line number.  Those diagnostics
come from the record-at-a-time loader, which also accepts the
non-canonical forms (comments, blank lines, any id numbering).
"""

from __future__ import annotations

import pathlib
from itertools import repeat
from operator import ge
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .api import BDDError, BddKernel, FALSE, TRUE

__all__ = ["save_bdd", "load_bdd", "dump_bdd_lines", "parse_bdd_lines"]

PathLike = Union[str, pathlib.Path]

_MAGIC = "# repro-bdd 1"

# Node lines decoded per join/split: whole-section decoding would double
# the loader's transient peak for no further speed.
_CHUNK = 512


def dump_bdd_lines(manager: BddKernel, roots: Sequence[int]) -> Tuple[List[str], int]:
    """Serialize the BDDs rooted at ``roots`` to text lines.

    Returns ``(lines, node_count)``.  Node ids are canonical (assigned in
    post-order emission sequence starting at 2), so the output depends
    only on the BDD *structure*, never on manager handle values.  Shared
    subgraphs are written once.
    """
    levels, lows, highs, root_ids = manager.export_nodes(roots)
    lines = [_MAGIC, f"vars {manager.num_vars}", f"roots {len(roots)}"]
    lines += [
        f"node {i} {v} {lo} {hi}"
        for i, v, lo, hi in zip(range(2, len(levels) + 2), levels, lows, highs)
    ]
    lines += [f"root {r}" for r in root_ids]
    return lines, len(levels)


def save_bdd(manager: BddKernel, roots: Sequence[int], path: PathLike) -> int:
    """Write the BDDs rooted at ``roots`` to ``path``.

    Returns the number of (non-terminal) nodes written.
    """
    lines, count = dump_bdd_lines(manager, roots)
    pathlib.Path(path).write_text("\n".join(lines) + "\n")
    return count


def parse_bdd_lines(
    manager: BddKernel,
    lines: Sequence[str],
    name: str = "<bdd>",
    first_lineno: int = 1,
) -> List[int]:
    """Rebuild saved BDDs from text lines; returns the root handles.

    ``name`` labels diagnostics; ``first_lineno`` is the file line number
    of ``lines[0]`` (checkpoints embed the payload mid-file).

    Canonical input (what :func:`dump_bdd_lines` writes) is decoded in
    chunks and rebuilt through :meth:`BddKernel.import_nodes`; anything
    else goes to the record-at-a-time loader, which accepts or rejects it
    exactly as before.  A payload that fails a check part-way is reloaded
    from its first line there: the nodes already rebuilt are unique-table
    hits, so the result, the arena and the error are the same.
    """
    roots = _parse_canonical(manager, lines)
    if roots is None:
        roots = _parse_line_by_line(manager, lines, name, first_lineno)
    return roots


def _header_value(line: str, kind: str) -> int:
    """The integer of a canonical ``"<kind> <n>"`` line, or -1."""
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != kind:
        return -1
    try:
        return int(parts[1])
    except ValueError:
        return -1


def _parse_canonical(manager: BddKernel, lines: Sequence[str]) -> Optional[List[int]]:
    """Load a canonical payload in bulk; ``None`` if it is not canonical.

    Canonical means: the magic line, ``vars``, ``roots``, then node ids
    2, 3, ... in order with single-space fields, each child a terminal or
    an earlier id, each level inside ``vars``, then exactly the declared
    ``root`` records, each naming a terminal or a node.  Each chunk of
    node lines is decoded with one join and one split, validated as a
    whole, and only then rebuilt.
    """
    if len(lines) < 3 or lines[0] != _MAGIC:
        return None
    num_vars = _header_value(lines[1], "vars")
    num_roots = _header_value(lines[2], "roots")
    if not 0 <= num_vars <= manager.num_vars or num_roots < 0:
        return None
    end = len(lines) - num_roots
    if end < 3:
        return None
    handles = [FALSE, TRUE]
    for start in range(3, end, _CHUNK):
        chunk = lines[start:min(start + _CHUNK, end)]
        count = len(chunk)
        first = len(handles)
        ids = range(first, first + count)
        fields = " ".join(chunk).split(" ")
        # Every line starts with a "node" field and only every fifth
        # field may be one (the others must parse as ints), so each line
        # holds exactly one five-field record.
        if len(fields) != 5 * count or not all(
            map(str.startswith, chunk, repeat("node "))
        ):
            return None
        try:
            if list(map(int, fields[1::5])) != list(ids):
                return None
            levels = list(map(int, fields[2::5]))
            lows = list(map(int, fields[3::5]))
            highs = list(map(int, fields[4::5]))
        except ValueError:
            return None
        if (
            min(levels) < 0
            or max(levels) >= num_vars
            or min(lows) < 0
            or min(highs) < 0
            or any(map(ge, lows, ids))
            or any(map(ge, highs, ids))
        ):
            return None
        manager.import_nodes(levels, lows, highs, handles)
    tail = lines[end:]
    fields = " ".join(tail).split(" ") if tail else []
    if len(fields) != 2 * num_roots or not all(
        map(str.startswith, tail, repeat("root "))
    ):
        return None
    try:
        root_ids = list(map(int, fields[1::2]))
    except ValueError:
        return None
    if root_ids and not 0 <= min(root_ids) <= max(root_ids) < len(handles):
        return None
    return [handles[r] for r in root_ids]


def _parse_line_by_line(
    manager: BddKernel,
    lines: Sequence[str],
    name: str,
    first_lineno: int,
) -> List[int]:
    """The record-at-a-time loader: accepts comments, blank lines and any
    id numbering, and is the source of every diagnostic."""
    if not lines or lines[0].strip() != _MAGIC:
        raise BDDError(
            f"{name}:{first_lineno}: not a repro-bdd file (bad or missing "
            f"magic line, expected {_MAGIC!r})"
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


def load_bdd(manager: BddKernel, path: PathLike) -> List[int]:
    """Load a file written by :func:`save_bdd`; returns the root handles.

    The target manager must have at least as many variables as the saved
    one.  Corrupt
    input — truncation, dangling references, bad magic — raises
    :class:`BDDError` naming the offending line.
    """
    text = pathlib.Path(path).read_text()
    return parse_bdd_lines(manager, text.splitlines(), name=str(path))
