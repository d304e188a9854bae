"""The fixpoint bundle (``.ptdb.fix``): warm-start state for recompiles.

A ``.ptdb`` deliberately stores only what queries need — ``vPC`` and
friends.  Warm-starting an incremental recompile needs more: the *full*
solver state of all three analyses (every input, intermediate, and
output relation), because semi-naive delta seeding resumes from the
previous fixpoint.  That state lives beside the database in a bundle::

    # repro-fixpoint 1
    meta {"db_id": ..., "cs_c_size": ..., "sections": ["ci","cs","escape"], ...}
    section ci <n lines>
    # repro-checkpoint 2
    ...
    section cs <n lines>
    ...
    section escape <n lines>
    ...

Each section is a complete, self-verifying checkpoint document (its own
meta, a digest over that meta and the payload, and the payload), so the
existing checkpoint loader does all integrity and schema checking; the
bundle adds only the envelope and the cross-phase facts: which database
this fixpoint belongs to (``db_id`` — a bundle for the wrong database is
rejected up front) and the context-domain sizes the solvers were built
with.  Everything else a warm recompile needs is the database's own
meta: the compile configuration (variable order, mod-ref), the path
count and the fact set with its thread sites.  Keys older bundles carry
beyond these are ignored.

Losing or lacking a bundle is never fatal: the recompiler falls back to
a cold (from-scratch) compile of the edited facts and writes a fresh
bundle next to the new database.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Union

from ..runtime.atomic import atomic_write_text
from ..runtime.errors import InvalidInputError
from ..runtime.checkpoint import checkpoint_lines
from ..runtime.version import check_tool_version, tool_meta

__all__ = [
    "FixpointBundle",
    "FixpointError",
    "bundle_path_for",
    "load_fixpoint_bundle",
    "write_fixpoint_bundle",
]

PathLike = Union[str, pathlib.Path]

_MAGIC = "# repro-fixpoint 1"
# 2: sections are version-3 checkpoints; older bundles recompile cold.
FORMAT_VERSION = 2
SECTIONS = ("ci", "cs", "escape")


class FixpointError(InvalidInputError):
    """A fixpoint bundle is unreadable, malformed, or mismatched."""


@dataclass
class FixpointBundle:
    """A parsed bundle: envelope meta plus raw checkpoint sections."""

    meta: Dict[str, Any]
    sections: Dict[str, List[str]]
    path: str

    @property
    def db_id(self) -> str:
        return self.meta.get("db_id", "")

    def section(self, name: str) -> List[str]:
        lines = self.sections.get(name)
        if lines is None:
            raise FixpointError(
                f"{self.path}: bundle has no {name!r} section "
                f"(has {sorted(self.sections)})"
            )
        return lines


def bundle_path_for(db_path: PathLike) -> pathlib.Path:
    """Where a database's fixpoint bundle lives: ``<db>.fix`` beside it."""
    target = pathlib.Path(db_path)
    return target.with_name(target.name + ".fix")


def write_fixpoint_bundle(path: PathLike, db, state) -> str:
    """Checkpoint all three solvers of ``state`` beside database ``db``.

    ``state`` is a :class:`~repro.serve.database.CompileState`.  Returns
    the written path.  Nothing the database's meta holds is repeated
    here: a warm recompile reads it from there.
    """
    meta: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tool": tool_meta(),
        "db_id": db.db_id,
        "cs_c_size": state.cs_c_size,
        "escape_c_size": state.escape_c_size,
        "sections": list(SECTIONS),
    }
    lines = [
        _MAGIC,
        "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
    ]
    solvers = {
        "ci": state.ci_solver,
        "cs": state.cs_solver,
        "escape": state.escape_solver,
    }
    for name in SECTIONS:
        section, _ = checkpoint_lines(solvers[name])
        lines.append(f"section {name} {len(section)}")
        lines.extend(section)
    return atomic_write_text(path, "\n".join(lines) + "\n")


def load_fixpoint_bundle(path: PathLike) -> FixpointBundle:
    """Parse a bundle envelope; sections stay as raw checkpoint lines.

    Raises :class:`FixpointError` for structural problems; each
    section's own integrity is verified later by the checkpoint loader.
    """
    target = pathlib.Path(path)
    try:
        text = target.read_text()
    except OSError as err:
        if isinstance(err, FileNotFoundError):
            raise
        raise FixpointError(f"{target}: cannot read bundle: {err}")
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise FixpointError(
            f"{target}:1: not a repro-fixpoint file (expected {_MAGIC!r})"
        )
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise FixpointError(f"{target}:2: missing meta record")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except json.JSONDecodeError as err:
        raise FixpointError(f"{target}:2: corrupt meta json: {err}")
    if meta.get("format_version") != FORMAT_VERSION:
        raise FixpointError(
            f"{target}:2: unsupported bundle format_version "
            f"{meta.get('format_version')!r} (this build reads "
            f"{FORMAT_VERSION}); recompile from scratch"
        )
    check_tool_version(meta, str(target), "fixpoint bundle")
    sections: Dict[str, List[str]] = {}
    i = 2
    while i < len(lines):
        header = lines[i]
        if not header.strip():
            i += 1
            continue
        parts = header.split()
        if len(parts) != 3 or parts[0] != "section":
            raise FixpointError(
                f"{target}:{i + 1}: expected 'section <name> <lines>', "
                f"got {header!r}"
            )
        name = parts[1]
        try:
            count = int(parts[2])
        except ValueError:
            raise FixpointError(
                f"{target}:{i + 1}: malformed section line count"
            )
        body = lines[i + 1 : i + 1 + count]
        if len(body) != count:
            raise FixpointError(
                f"{target}: truncated bundle: section {name} promises "
                f"{count} lines, found {len(body)}"
            )
        if name in sections:
            raise FixpointError(
                f"{target}:{i + 1}: duplicate section {name!r}"
            )
        sections[name] = body
        i += 1 + count
    missing = [s for s in meta.get("sections", SECTIONS) if s not in sections]
    if missing:
        raise FixpointError(
            f"{target}: bundle is missing sections {missing}"
        )
    return FixpointBundle(meta=meta, sections=sections, path=str(target))
