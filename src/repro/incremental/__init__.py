"""Incremental recompilation: delta facts in, delta ``.ptdb`` out.

The paper's pipeline is batch: extract facts, solve, query.  This
package adds the *edit loop* around it — apply a small relation-level
edit (a :class:`~repro.incremental.diff.FactDiff`) to an existing
database and produce a new database that is fingerprint-identical
(``db_id``) to a from-scratch solve of the edited facts, in a fraction
of the time, then hand it to the serve layer's hot-swap reload:

* :mod:`repro.incremental.diff` — the ``FactDiff`` edit format and its
  typed validation errors,
* :mod:`repro.incremental.state` — the edit semantics
  (:class:`AppliedDiff`) of the fact set a recompile reads from the
  database, :class:`~repro.ir.facts.Facts` (``FactSet`` is the same
  class),
* :mod:`repro.incremental.fixpoint` — the ``.ptdb.fix`` bundle holding
  all three solvers' checkpointed fixpoints for warm starts,
* :mod:`repro.incremental.driver` — ``recompile_database``, the
  per-phase incremental orchestration.

See ``docs/incremental.md`` for the edit -> recompile -> reload loop
and the removal-soundness argument.
"""

from .diff import (
    EDITABLE_RELATIONS,
    BaselineMismatchError,
    DiffConflictError,
    FactDiff,
    FactDiffError,
)
from .driver import RecompileResult, recompile_database
from .fixpoint import (
    FixpointBundle,
    FixpointError,
    bundle_path_for,
    load_fixpoint_bundle,
    write_fixpoint_bundle,
)
from .state import AppliedDiff, FactSet

__all__ = [
    "AppliedDiff",
    "BaselineMismatchError",
    "DiffConflictError",
    "EDITABLE_RELATIONS",
    "FactDiff",
    "FactDiffError",
    "FactSet",
    "FixpointBundle",
    "FixpointError",
    "RecompileResult",
    "bundle_path_for",
    "load_fixpoint_bundle",
    "recompile_database",
    "write_fixpoint_bundle",
]
