"""Edit semantics of the fact set the recompiler works on.

The incremental recompiler starts from a ``.ptdb`` file, not from
source — re-extraction (and the program text itself) is unnecessary for
relation-level edits.  Its fact set is the database's
:class:`~repro.ir.facts.Facts` (``db.facts``, rebuilt once at load from
the meta record the compile wrote); ``FactSet`` is that class under its
historical name.

:meth:`~repro.ir.facts.Facts.apply_diff` produces a *new* fact set (the
baseline stays usable for old-versus-new comparisons) together with an
:class:`AppliedDiff` of the effective per-relation edits: adds are
idempotent, removals of absent tuples are errors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.facts import Facts

__all__ = ["AppliedDiff", "FactSet"]

FactSet = Facts


class AppliedDiff:
    """Effective edits of one ``apply_diff`` call.

    ``changes`` maps each touched relation to its *effective* added and
    removed ordinal-tuple lists (idempotent re-adds dropped)."""

    def __init__(
        self, changes: Dict[str, Tuple[List[tuple], List[tuple]]]
    ) -> None:
        self.changes = changes

    def is_empty(self) -> bool:
        return not any(a or r for a, r in self.changes.values())

    def added(self, name: str) -> List[tuple]:
        return self.changes.get(name, ([], []))[0]

    def removed(self, name: str) -> List[tuple]:
        return self.changes.get(name, ([], []))[1]

    def relations(self) -> List[str]:
        return sorted(
            name for name, (a, r) in self.changes.items() if a or r
        )
