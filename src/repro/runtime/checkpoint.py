"""Checkpoint format v2: atomic snapshot/restore of a whole solver.

A checkpoint captures *all* of a solver's relations (inputs, outputs, and
intermediates — any subset-of-fixpoint state is sound to resume from
because relations only grow monotonically), plus the domain metadata
needed to reload them into a solver built later, possibly under a
*different variable order* or on another backend.  Layout::

    # repro-checkpoint 2
    meta {"format": 2, "relations": [...], "levels": {...}, ...}
    sha256 <hex digest of the payload section>
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
* **self-verifying** — the payload digest is checked before any node is
  rebuilt, and the relation schemas / domain sizes are checked against
  the target solver, so corruption and program drift both fail with a
  clear :class:`CheckpointError` instead of silently wrong relations;
* **order-independent** — the saved per-domain level assignment is
  recorded; when the target solver uses a different variable order the
  payload is staged in a scratch manager and rebuilt level-by-level.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..bdd import BDDError, create_kernel
from ..bdd.reorder import rebuild_with_levels
from ..bdd.serialize import dump_bdd_lines, parse_bdd_lines
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
]

PathLike = Union[str, pathlib.Path]

_MAGIC = "# repro-checkpoint 2"

# ``format`` (2) describes the file *layout* and predates version
# stamping; ``format_version`` + ``tool`` identify the schema revision
# and writing tool so cross-version resume fails up front with
# InvalidInputError instead of a confusing schema mismatch.
FORMAT_VERSION = 2


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
        "format": 2,
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
        "stats": {
            "iterations": solver.stats.iterations,
            "rule_applications": solver.stats.rule_applications,
            "peak_nodes": solver.manager.peak_nodes,
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    digest = hashlib.sha256(payload_text.encode()).hexdigest()
    lines = [
        _MAGIC,
        "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
        f"sha256 {digest}",
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


def _read_header(path: pathlib.Path):
    try:
        text = path.read_text()
    except OSError as err:
        raise CheckpointError(f"{path}: cannot read checkpoint: {err}")
    return _parse_header(text.splitlines(), str(path))


def _parse_header(lines: List[str], path: str):
    if not lines or lines[0].strip() != _MAGIC:
        raise CheckpointError(
            f"{path}:1: not a repro-checkpoint file (expected {_MAGIC!r})"
        )
    if len(lines) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    if not lines[1].startswith("meta "):
        raise CheckpointError(f"{path}:2: missing meta record")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except json.JSONDecodeError as err:
        raise CheckpointError(f"{path}:2: corrupt meta json: {err}")
    if meta.get("format") != 2:
        raise CheckpointError(
            f"{path}:2: unsupported checkpoint format {meta.get('format')!r}"
        )
    # Version stamps are newer than the layout marker: files written
    # before stamping carry neither key and still load.
    if "format_version" in meta and meta["format_version"] != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}:2: checkpoint format_version {meta['format_version']!r} "
            f"is not supported (this build reads version {FORMAT_VERSION}; "
            f"re-run the solve to produce a fresh checkpoint)"
        )
    check_tool_version(meta, str(path), "checkpoint")
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
    if actual != digest:
        raise CheckpointError(
            f"{path}: checksum mismatch: payload is corrupt "
            f"(expected {digest[:12]}..., got {actual[:12]}...)"
        )
    return meta, payload


def load_checkpoint(solver, path: PathLike) -> CheckpointMeta:
    """Restore every relation of ``solver`` from a checkpoint.

    The target solver must have been built from the same program (same
    relation schemas and domain sizes); its variable order may differ —
    the payload is then rebuilt under the target's level assignment.
    """
    target = pathlib.Path(path)
    meta, payload = _read_header(target)
    return _load_parsed(solver, meta, payload, str(target))


def load_checkpoint_lines(solver, lines: List[str], name: str) -> CheckpointMeta:
    """Restore a solver from in-memory checkpoint-document lines.

    ``name`` labels diagnostics (e.g. ``"bundle.fix#cs"`` for a fixpoint
    bundle section).  Same validation as :func:`load_checkpoint`.
    """
    meta, payload = _parse_header(lines, name)
    return _load_parsed(solver, meta, payload, name)


def _load_parsed(
    solver, meta: Dict[str, Any], payload: List[str], target: str
) -> CheckpointMeta:
    schema = _schema_of(solver)
    if meta.get("relations") != schema:
        raise CheckpointError(
            f"{target}: checkpoint schema does not match the target solver "
            f"(was the program or a domain size changed?)"
        )

    saved_levels: Dict[str, List[int]] = meta.get("levels", {})
    current_levels = _levels_of(solver)
    if set(saved_levels) != set(current_levels):
        raise CheckpointError(
            f"{target}: checkpoint physical domains "
            f"{sorted(saved_levels)} do not match solver domains "
            f"{sorted(current_levels)}"
        )

    try:
        if saved_levels == current_levels:
            roots = parse_bdd_lines(
                solver.manager, payload, name=str(target), first_lineno=5
            )
        else:
            # Different variable order: stage in a scratch manager, then
            # rebuild under the target's levels (order-correcting ite).
            scratch = create_kernel(
                num_vars=int(meta.get("num_vars", solver.manager.num_vars)),
                backend=solver.manager.backend_name,
            )
            staged = parse_bdd_lines(
                scratch, payload, name=str(target), first_lineno=5
            )
            level_map: Dict[int, int] = {}
            for dom_name, old in saved_levels.items():
                new = current_levels[dom_name]
                if len(old) != len(new):
                    raise CheckpointError(
                        f"{target}: domain {dom_name} changed width "
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
        path=str(target),
        next_stratum=next_stratum,
        order_spec=meta.get("order_spec"),
        meta=meta,
    )
