"""FactDiff: the edit format of the incremental recompiler.

A fact diff is a small JSON document describing a program edit at the
level of the *extracted input relations* — the same level the solver
consumes — so the recompiler never needs to re-extract or even see
source text::

    {
      "format": "repro-factdiff 1",
      "baseline": {"db_id": "f3a29c...", "facts_sha256": "9b1d..."},
      "add":    {"vP0": [["Main.main:p", "new Object#3"]]},
      "remove": {"store": [[12, 0, 7]]}
    }

Only the five *editable* relations may appear — ``vP0``, ``store``,
``load``, ``assign0`` (alias ``assign``), and ``IE0`` — chosen because
they capture statement-level edits (allocations, field writes/reads,
copies, direct call targets) without changing any domain: every tuple
must name elements that already exist, so the domain maps, the variable
order, and the BDD encodings of the baseline all remain valid.  Edits
that introduce new variables or allocation sites are program growth, not
a diff — they go through a full ``compile-db``.

Tuples may use integer ordinals (bounds-checked against the domain
maps) or names: domain element names for ``H``/``F``/``I``/``M``, and
``Method.qualified:var`` specs for ``V`` (resolved through the
copy-factoring representative table, exactly like the query layer).

Everything wrong with a diff raises a *typed* error rooted at
:class:`~repro.runtime.errors.InvalidInputError`:

* :class:`FactDiffError` — malformed document, unknown relation, bad
  arity, unknown name, ordinal out of range, removal of an absent tuple;
* :class:`DiffConflictError` — the same tuple both added and removed;
* :class:`BaselineMismatchError` — the diff's declared baseline does not
  match the database it is being applied to.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..runtime.errors import InvalidInputError

__all__ = [
    "EDITABLE_RELATIONS",
    "BaselineMismatchError",
    "DiffConflictError",
    "FactDiff",
    "FactDiffError",
]

PathLike = Union[str, pathlib.Path]

_FORMAT = "repro-factdiff 1"

# Editable relation -> attribute domains.  The schema here is the
# contract: a diff may only speak these relations, with these arities.
EDITABLE_RELATIONS: Dict[str, Tuple[str, ...]] = {
    "vP0": ("V", "H"),
    "store": ("V", "F", "V"),
    "load": ("V", "F", "V"),
    "assign0": ("V", "V"),
    "IE0": ("I", "M"),
}

# ``assign`` is what Algorithm 1's rule set calls the relation; the
# extracted input table is ``assign0``.  Accept both spellings.
_ALIASES = {"assign": "assign0"}


class FactDiffError(InvalidInputError):
    """A fact diff is malformed or references unknown facts."""


class DiffConflictError(FactDiffError):
    """The same tuple appears in both ``add`` and ``remove``."""


class BaselineMismatchError(FactDiffError):
    """The diff was produced against a different baseline database."""


@dataclass
class FactDiff:
    """A parsed (not yet resolved) fact diff.

    ``added``/``removed`` hold the tuples exactly as written — ints or
    name strings; :meth:`resolve` turns them into pure-ordinal tuples
    against a concrete fact set.  ``baseline`` is the optional identity
    of the database the diff was authored against.
    """

    added: Dict[str, List[tuple]] = field(default_factory=dict)
    removed: Dict[str, List[tuple]] = field(default_factory=dict)
    baseline: Dict[str, str] = field(default_factory=dict)
    name: str = "<diff>"

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, doc: Any, name: str = "<diff>") -> "FactDiff":
        """Validate and normalize a decoded JSON document."""
        if not isinstance(doc, dict):
            raise FactDiffError(
                f"{name}: a fact diff must be a JSON object, "
                f"got {type(doc).__name__}"
            )
        fmt = doc.get("format", _FORMAT)
        if fmt != _FORMAT:
            raise FactDiffError(
                f"{name}: unsupported diff format {fmt!r} "
                f"(this build reads {_FORMAT!r})"
            )
        unknown = set(doc) - {"format", "baseline", "add", "remove", "comment"}
        if unknown:
            raise FactDiffError(
                f"{name}: unknown diff keys {sorted(unknown)} "
                f"(allowed: format, baseline, add, remove, comment)"
            )
        baseline = doc.get("baseline", {})
        if not isinstance(baseline, dict) or not all(
            isinstance(v, str) for v in baseline.values()
        ):
            raise FactDiffError(
                f"{name}: baseline must be an object of string ids"
            )
        bad_keys = set(baseline) - {"db_id", "facts_sha256"}
        if bad_keys:
            raise FactDiffError(
                f"{name}: unknown baseline keys {sorted(bad_keys)} "
                f"(allowed: db_id, facts_sha256)"
            )
        return cls(
            added=cls._parse_side(doc.get("add", {}), "add", name),
            removed=cls._parse_side(doc.get("remove", {}), "remove", name),
            baseline=dict(baseline),
            name=name,
        )

    @staticmethod
    def _parse_side(side: Any, label: str, name: str) -> Dict[str, List[tuple]]:
        if not isinstance(side, dict):
            raise FactDiffError(
                f"{name}: {label!r} must map relation names to tuple lists"
            )
        out: Dict[str, List[tuple]] = {}
        for rel, rows in side.items():
            canonical = _ALIASES.get(rel, rel)
            if canonical not in EDITABLE_RELATIONS:
                raise FactDiffError(
                    f"{name}: relation {rel!r} is not editable "
                    f"(editable: {sorted(EDITABLE_RELATIONS)})",
                    predicate=rel,
                )
            arity = len(EDITABLE_RELATIONS[canonical])
            tuples: List[tuple] = []
            for row in rows if isinstance(rows, list) else _bad_rows(name, rel):
                if not isinstance(row, (list, tuple)) or len(row) != arity:
                    raise FactDiffError(
                        f"{name}: {label} {rel}: tuple {row!r} must have "
                        f"{arity} elements "
                        f"({', '.join(EDITABLE_RELATIONS[canonical])})",
                        predicate=canonical,
                    )
                for value in row:
                    if not isinstance(value, (int, str)) or isinstance(
                        value, bool
                    ):
                        raise FactDiffError(
                            f"{name}: {label} {rel}: element {value!r} must "
                            f"be an ordinal or a name string",
                            predicate=canonical,
                        )
                tuples.append(tuple(row))
            if tuples:
                out.setdefault(canonical, []).extend(tuples)
        return out

    @classmethod
    def load(cls, path: PathLike) -> "FactDiff":
        """Parse a diff from a JSON file."""
        target = pathlib.Path(path)
        try:
            text = target.read_text()
        except OSError as err:
            if isinstance(err, FileNotFoundError):
                raise
            raise FactDiffError(f"{target}: cannot read diff: {err}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise FactDiffError(f"{target}: not valid JSON: {err}")
        return cls.parse(doc, name=str(target))

    # -- inspection ----------------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.added.values()) and not any(self.removed.values())

    def relations(self) -> List[str]:
        """Editable relations this diff touches, sorted."""
        return sorted(set(self.added) | set(self.removed))

    def size(self) -> int:
        return sum(len(v) for v in self.added.values()) + sum(
            len(v) for v in self.removed.values()
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "added": {k: len(v) for k, v in sorted(self.added.items())},
            "removed": {k: len(v) for k, v in sorted(self.removed.items())},
            "baseline": dict(self.baseline),
        }

    def sha256(self) -> str:
        """Canonical digest of the edit content (provenance stamping)."""
        payload = {
            "add": {k: sorted(map(list, v)) for k, v in self.added.items()},
            "remove": {
                k: sorted(map(list, v)) for k, v in self.removed.items()
            },
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- resolution ----------------------------------------------------

    def check_baseline(self, db_id: str, facts_sha256: Optional[str]) -> None:
        """Verify the diff was authored against this database."""
        want_db = self.baseline.get("db_id")
        if want_db is not None and want_db != db_id:
            raise BaselineMismatchError(
                f"{self.name}: diff baseline db_id {want_db} does not match "
                f"database {db_id} — recompute the diff against the "
                f"database you are editing"
            )
        want_facts = self.baseline.get("facts_sha256")
        if (
            want_facts is not None
            and facts_sha256 is not None
            and want_facts != facts_sha256
        ):
            raise BaselineMismatchError(
                f"{self.name}: diff baseline facts digest "
                f"{want_facts[:12]}... does not match the database's "
                f"{facts_sha256[:12]}..."
            )

    def resolve(self, facts) -> "FactDiff":
        """Return a pure-ordinal diff resolved against ``facts``.

        ``facts`` is a :class:`~repro.ir.facts.Facts`.  Names are
        resolved, ordinals bounds-checked, and add/remove conflicts
        detected.
        """
        added = {
            rel: [self._resolve_tuple(facts, rel, t) for t in rows]
            for rel, rows in self.added.items()
        }
        removed = {
            rel: [self._resolve_tuple(facts, rel, t) for t in rows]
            for rel, rows in self.removed.items()
        }
        for rel in set(added) & set(removed):
            clash = set(added[rel]) & set(removed[rel])
            if clash:
                raise DiffConflictError(
                    f"{self.name}: relation {rel}: tuples "
                    f"{sorted(clash)} are both added and removed",
                    predicate=rel,
                )
        return FactDiff(
            added=added,
            removed=removed,
            baseline=dict(self.baseline),
            name=self.name,
        )

    def _resolve_tuple(self, facts, rel: str, row: tuple) -> tuple:
        domains = EDITABLE_RELATIONS[rel]
        out = []
        for domain, value in zip(domains, row):
            if isinstance(value, int):
                limit = len(facts.maps.get(domain, ()))
                if not 0 <= value < limit:
                    raise FactDiffError(
                        f"{self.name}: {rel}: ordinal {value} is outside "
                        f"domain {domain} (size {limit})",
                        predicate=rel,
                        value=value,
                    )
                out.append(value)
                continue
            out.append(self._resolve_name(facts, rel, domain, value))
        return tuple(out)

    def _resolve_name(self, facts, rel: str, domain: str, value: str) -> int:
        if domain == "V" and ":" in value:
            method, _, var = value.rpartition(":")
            try:
                return facts.var_id(method, var)
            except InvalidInputError:
                raise FactDiffError(
                    f"{self.name}: {rel}: no variable {value!r} in the "
                    f"baseline program",
                    predicate=rel,
                    value=value,
                )
        try:
            return facts.id_of(domain, value)
        except InvalidInputError:
            raise FactDiffError(
                f"{self.name}: {rel}: no element {value!r} in domain "
                f"{domain}",
                predicate=rel,
                value=value,
            )


def _bad_rows(name: str, rel: str):
    raise FactDiffError(f"{name}: relation {rel}: tuples must be a list")
