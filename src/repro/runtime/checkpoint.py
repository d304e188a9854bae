"""Checkpoints: atomic snapshot/restore of a whole solver.

A checkpoint captures *all* of a solver's relations (inputs, outputs, and
intermediates — any subset-of-fixpoint state is sound to resume from
because relations only grow monotonically), plus the domain metadata
needed to reload them into a solver built later, possibly under a
*different variable order* or on another backend.  Layout::

    # repro-checkpoint 2
    meta {"format_version": 3, "relations": [...], "levels": {...}, ...}
    sha256 <hex digest of the meta line and the payload digest>
    payload <number of payload lines>
    # repro-bdd 1
    vars 40
    roots 12
    node ...
    root ...          (one per relation, in meta["relations"] order)

Properties:

* **atomic** — written to a temp file in the same directory, then
  ``os.replace``d into place, so readers never observe a half-written
  checkpoint;
* **self-verifying** — the ``sha256`` record covers the meta line and
  the payload, and is checked before any node is rebuilt; the relation
  schemas / domain sizes are checked against the target solver, so
  corruption, an edited meta (say, a changed ``next_stratum``) and
  program drift all fail with a clear :class:`CheckpointError` instead
  of silently wrong relations;
* **order-independent** — the saved per-domain level assignment is
  recorded; when the target solver uses a different variable order the
  payload is staged in a scratch manager and rebuilt level-by-level.

A process decodes each payload once: the decoded node arrays of the last
few payloads are kept by the sha256 of the payload lines actually read,
so restoring one checkpoint again (an editor session or a benchmark
recompiles every edit against one parent bundle) skips straight to the
rebuild.  A hit skips no check: the digest is recomputed and compared,
and the schema, level and variable-count checks run against each target.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..bdd import BDDError, create_kernel
from ..bdd.reorder import rebuild_with_levels
from ..bdd.serialize import (
    DecodedBdd,
    decode_bdd_lines,
    dump_bdd_lines,
    import_decoded,
    parse_bdd_records,
)
from .atomic import atomic_write_text
from .errors import CheckpointError, InvalidInputError
from .version import check_tool_version, tool_meta

__all__ = [
    "CheckpointMeta",
    "FORMAT_VERSION",
    "checkpoint_lines",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_lines",
    "read_checkpoint",
]

PathLike = Union[str, pathlib.Path]

_MAGIC = "# repro-checkpoint 2"

# The magic line names the layout; ``format_version`` + ``tool`` name the
# schema revision and writing tool, so a cross-version resume fails up
# front with InvalidInputError instead of a checksum or schema mismatch.
# Version 3: the digest covers the meta line too.
FORMAT_VERSION = 3

# Decoded canonical payloads by the sha256 of their lines, oldest first:
# one fixpoint bundle's three sections, plus one.
_MEMO_SIZE = 4
_decoded: Dict[str, DecodedBdd] = {}
_decoded_lock = threading.Lock()


@dataclass
class CheckpointMeta:
    """Parsed checkpoint header."""

    path: str
    next_stratum: int
    order_spec: Optional[str]
    meta: Dict[str, Any] = field(default_factory=dict)


def _schema_of(solver) -> List[Dict[str, Any]]:
    out = []
    for name in sorted(solver.relations):
        rel = solver.relations[name]
        out.append(
            {
                "name": name,
                "attrs": [
                    [a.name, a.logical, a.phys.name, a.phys.size]
                    for a in rel.attributes
                ],
            }
        )
    return out


def _levels_of(solver) -> Dict[str, List[int]]:
    return {dom.name: list(dom.levels) for dom in solver._pool.values()}


def checkpoint_lines(
    solver,
    next_stratum: int = 0,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], Dict[str, Any]]:
    """Serialize a solver snapshot as checkpoint-document lines.

    The returned lines are a complete, self-verifying checkpoint document
    (magic, meta, digest, payload) — :func:`save_checkpoint` writes them
    to a file, and the incremental fixpoint bundle embeds several of them
    as sections of one artifact.  Returns ``(lines, meta)``.
    """
    schema = _schema_of(solver)
    roots = [solver.relations[entry["name"]].node for entry in schema]
    payload, _ = dump_bdd_lines(solver.manager, roots)
    payload_text = "\n".join(payload)
    meta: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tool": tool_meta(),
        "relations": schema,
        "levels": _levels_of(solver),
        "num_vars": solver.manager.num_vars,
        "order_spec": solver.order_spec,
        # Provenance only: the payload is canonical serialization, so any
        # backend can resume a checkpoint written by any other.
        "backend": solver.manager.backend_name,
        "next_stratum": next_stratum,
    }
    if extra_meta:
        meta.update(extra_meta)
    meta_line = "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    lines = [
        _MAGIC,
        meta_line,
        f"sha256 {_record_digest(meta_line, digest)}",
        f"payload {len(payload)}",
    ]
    lines.extend(payload)
    return lines, meta


def save_checkpoint(
    solver,
    path: PathLike,
    next_stratum: int = 0,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> CheckpointMeta:
    """Atomically snapshot every relation of ``solver`` to ``path``.

    ``next_stratum`` records where a resumed solve should restart (the
    index of the stratum that was interrupted; strata before it are at
    fixpoint).  Returns the written :class:`CheckpointMeta`.
    """
    lines, meta = checkpoint_lines(solver, next_stratum, extra_meta)
    # Durability, not just atomicity: a crashed worker's retry resumes
    # from this file, so it must survive power loss.
    target = atomic_write_text(path, "\n".join(lines) + "\n")
    return CheckpointMeta(
        path=target,
        next_stratum=next_stratum,
        order_spec=solver.order_spec,
        meta=meta,
    )


def read_checkpoint(path: PathLike) -> Optional[Tuple[Dict[str, Any], List[str]]]:
    """Read the checkpoint at ``path`` once: its meta record and its
    document lines, which :func:`load_checkpoint_lines` then loads.
    Checking the meta and loading the very lines it came from leaves no
    window in which another writer's file can replace the one checked.
    ``None`` when there is no file."""
    try:
        lines = pathlib.Path(path).read_text().splitlines()
    except FileNotFoundError:
        return None
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err}")
    return _parse_meta(lines, str(path)), lines


def _parse_meta(lines: List[str], path: str) -> Dict[str, Any]:
    if not lines or lines[0].strip() != _MAGIC:
        raise CheckpointError(
            f"{path}:1: not a repro-checkpoint file (expected {_MAGIC!r})"
        )
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise CheckpointError(f"{path}:2: missing meta record")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{path}:2: corrupt meta json: {err}")
    if meta.get("format_version") != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}:2: checkpoint format_version "
            f"{meta.get('format_version')!r} is not supported (this build "
            f"reads version {FORMAT_VERSION}; re-run the solve to produce a "
            f"fresh checkpoint)"
        )
    check_tool_version(meta, str(path), "checkpoint")
    return meta


def _record_digest(meta_line: str, payload_digest: str) -> str:
    """The ``sha256`` record: one digest over the meta line and the
    payload's digest, so the payload is hashed once and its digest stays
    the key of the decoded-payload memo."""
    return hashlib.sha256(f"{meta_line}\n{payload_digest}".encode()).hexdigest()


def _parse_header(lines: List[str], path: str):
    meta = _parse_meta(lines, path)
    if len(lines) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    if not lines[2].startswith("sha256 "):
        raise CheckpointError(f"{path}:3: missing sha256 record")
    digest = lines[2][len("sha256 "):].strip()
    if not lines[3].startswith("payload "):
        raise CheckpointError(f"{path}:4: missing payload record")
    try:
        n_payload = int(lines[3][len("payload "):])
    except ValueError:
        raise CheckpointError(f"{path}:4: malformed payload count")
    payload = lines[4:]
    if len(payload) != n_payload:
        raise CheckpointError(
            f"{path}: truncated checkpoint: header promises {n_payload} "
            f"payload lines, found {len(payload)}"
        )
    actual = hashlib.sha256("\n".join(payload).encode()).hexdigest()
    record = _record_digest(lines[1], actual)
    if record != digest:
        raise CheckpointError(
            f"{path}: checksum mismatch: payload is corrupt or the meta "
            f"record was changed (expected {digest[:12]}..., "
            f"got {record[:12]}...)"
        )
    return meta, payload, actual


def load_checkpoint(solver, path: PathLike) -> CheckpointMeta:
    """Restore every relation of ``solver`` from a checkpoint.

    The target solver must have been built from the same program (same
    relation schemas and domain sizes); its variable order may differ —
    the payload is then rebuilt under the target's level assignment.
    """
    try:
        lines = pathlib.Path(path).read_text().splitlines()
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err}")
    return load_checkpoint_lines(solver, lines, str(path))


def load_checkpoint_lines(solver, lines: List[str], name: str) -> CheckpointMeta:
    """Restore a solver from in-memory checkpoint-document lines.

    ``name`` labels diagnostics (e.g. ``"bundle.fix#cs"`` for a fixpoint
    bundle section).  Same validation as :func:`load_checkpoint`.
    """
    meta, payload, digest = _parse_header(lines, name)
    schema = _schema_of(solver)
    if meta.get("relations") != schema:
        raise CheckpointError(
            f"{name}: checkpoint schema does not match the target solver "
            f"(was the program or a domain size changed?)"
        )
    saved_levels: Dict[str, List[int]] = meta.get("levels", {})
    current_levels = _levels_of(solver)
    if set(saved_levels) != set(current_levels):
        raise CheckpointError(
            f"{name}: checkpoint physical domains "
            f"{sorted(saved_levels)} do not match solver domains "
            f"{sorted(current_levels)}"
        )

    try:
        if saved_levels == current_levels:
            roots = _rebuild(solver.manager, payload, digest, name)
        else:
            # Different variable order: stage in a scratch manager, then
            # rebuild under the target's levels (order-correcting ite).
            scratch = create_kernel(
                num_vars=int(meta.get("num_vars", solver.manager.num_vars)),
                backend=solver.manager.backend_name,
            )
            staged = _rebuild(scratch, payload, digest, name)
            level_map: Dict[int, int] = {}
            for dom_name, old in saved_levels.items():
                new = current_levels[dom_name]
                if len(old) != len(new):
                    raise CheckpointError(
                        f"{name}: domain {dom_name} changed width "
                        f"({len(old)} -> {len(new)} bits)"
                    )
                for o, n in zip(old, new):
                    level_map[o] = n
            roots = rebuild_with_levels(
                scratch, staged, level_map, solver.manager
            )
    except BDDError as err:
        raise CheckpointError(f"corrupt checkpoint payload: {err}")

    for entry, node in zip(schema, roots):
        solver.relations[entry["name"]].set_node(node)
    next_stratum = int(meta.get("next_stratum", 0))
    return CheckpointMeta(
        path=name,
        next_stratum=next_stratum,
        order_spec=meta.get("order_spec"),
        meta=meta,
    )


def _rebuild(manager, payload: List[str], digest: str, target: str) -> List[int]:
    """Rebuild ``payload``, whose lines hash to ``digest``, into
    ``manager``; returns the root handles.  A canonical payload is decoded
    once per process (see the module docstring); any other goes to the
    record-at-a-time loader, which accepts or diagnoses it."""
    with _decoded_lock:
        decoded = _decoded.get(digest)
    if decoded is None:
        decoded = decode_bdd_lines(payload, manager.num_vars)
        if decoded is None:
            return parse_bdd_records(manager, payload, target, 5)
        with _decoded_lock:
            if len(_decoded) >= _MEMO_SIZE:
                del _decoded[next(iter(_decoded))]
            _decoded[digest] = decoded
    elif decoded.num_vars > manager.num_vars:
        # The loader's "file uses N variables" diagnostic.
        return parse_bdd_records(manager, payload, target, 5)
    return import_decoded(manager, decoded)
