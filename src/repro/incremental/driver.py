"""The incremental recompiler: delta facts in, delta ``.ptdb`` out.

``recompile_database`` turns a baseline database plus a
:class:`~repro.incremental.diff.FactDiff` into a *new* database that is
fingerprint-identical to what a from-scratch compile of the edited facts
would produce (``db_id`` is the gate: it hashes the stable meta and the
canonical BDD payload, so two databases with the same id answer every
query identically).

Per-phase strategy, mirroring how each analysis consumes the edit:

* **context-insensitive (Algorithm 3)** — always warm-started: the
  previous fixpoint is restored from the bundle's ``ci`` checkpoint, the
  relation-level edits are applied, and the solver's
  ``solve_incremental`` pushes added tuples semi-naively / recomputes
  only removal-affected strata.
* **context-sensitive (Algorithm 5)** — warm-started *iff* the solved
  ``IE`` relation (hence the call graph, the context numbering, the
  ``C`` domain, and ``IEC``/``MC``) is unchanged by the edit.  If ``IE``
  changed, the numbering itself is stale and the phase re-solves against
  the new call graph — still without touching source, and still with the
  CI phase incremental.
* **escape (Algorithm 7)** — its solver inputs (``assign``, ``HT``,
  ``vP0T``, ``vP0``) are *computed* from facts + call graph, so the
  driver recomputes them for old and new facts (pure bookkeeping),
  diffs the two, and warm-starts from the ``escape`` checkpoint.  The
  ``C`` domain depends only on the thread allocation sites, which no
  editable relation can change.

A missing, stale (wrong ``db_id``), or corrupt bundle degrades to a cold
compile of the edited fact set — slower, never wrong.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple, Union

from ..bdd import FALSE
from ..callgraph import call_graph_from_ie
from ..ir.facts import Facts
from ..runtime import ResourceBudget
from ..runtime.checkpoint import load_checkpoint_lines
from ..runtime.errors import CheckpointError, InvalidInputError
from .diff import FactDiff
from .fixpoint import (
    FixpointBundle,
    FixpointError,
    bundle_path_for,
    load_fixpoint_bundle,
)
from .state import AppliedDiff

__all__ = ["RecompileResult", "recompile_database"]

PathLike = Union[str, pathlib.Path]


@dataclass
class RecompileResult:
    """Outcome of one recompile: the new database plus how it was made.

    ``modes`` records the per-phase strategy actually used — ``noop``
    (edit had no effect on the phase), ``delta`` (warm-started from the
    fixpoint bundle), ``recomputed`` (phase re-solved because its
    derived structures were invalidated), or ``cold`` (no usable bundle;
    full compile).  ``state`` carries the live solvers for writing the
    next fixpoint bundle; it is ``None`` only for no-op recompiles,
    where the previous bundle is still valid verbatim.
    """

    db: Any
    modes: Dict[str, str]
    state: Any = None
    diff_sha256: str = ""
    parent_db_id: str = ""

    @property
    def db_id(self) -> str:
        return self.db.db_id

    def changed(self) -> bool:
        return self.db.db_id != self.parent_db_id


def _editable_edits(
    solver, applied: AppliedDiff
) -> Tuple[Dict[str, int], Set[str]]:
    """Apply effective relation edits to a warm solver's inputs.

    The solver holds the previous fixpoint (checkpoint just loaded), so
    its input relations hold the *old* tuple sets; this patches them to
    the new sets and returns ``(added_nodes, dirty)`` for
    ``solve_incremental``.  Relations the solver does not declare are
    skipped (e.g. ``IE0`` for Algorithm 5, whose call-graph knowledge
    arrives pre-numbered via ``IEC``).
    """
    m = solver.manager
    added_nodes: Dict[str, int] = {}
    dirty: Set[str] = set()
    for name in applied.relations():
        if name not in solver.relations:
            continue
        rel = solver.relations[name]
        add_node = rel.tuples_node(applied.added(name))
        remove_node = rel.tuples_node(applied.removed(name))
        if remove_node != FALSE:
            rel.set_node(m.diff(rel.node, remove_node))
            dirty.add(name)
        if add_node != FALSE:
            delta = m.diff(add_node, rel.node)
            if delta != FALSE:
                rel.set_node(m.or_(rel.node, delta))
                added_nodes[name] = delta
    return added_nodes, dirty


def _tuple_set_edits(
    solver, name: str, old: Sequence[tuple], new: Sequence[tuple]
) -> Tuple[int, bool]:
    """Patch a computed input relation from ``old`` to ``new`` tuples.

    Returns ``(added_node, shrunk)``.  The solver relation currently
    holds exactly ``old`` (it came out of the checkpoint)."""
    m = solver.manager
    old_set, new_set = set(map(tuple, old)), set(map(tuple, new))
    rel = solver.relations[name]
    add_node = rel.tuples_node(new_set - old_set)
    remove_node = rel.tuples_node(old_set - new_set)
    if remove_node != FALSE:
        rel.set_node(m.diff(rel.node, remove_node))
    if add_node != FALSE:
        rel.set_node(m.or_(rel.node, add_node))
    return add_node, remove_node != FALSE


def recompile_database(
    db,
    diff,
    *,
    fixpoint_path: Optional[PathLike] = None,
    backend: Optional[str] = None,
    budget: Optional[ResourceBudget] = None,
    optimize: Optional[bool] = None,
) -> RecompileResult:
    """Apply ``diff`` to ``db``; return the recompiled database.

    ``db`` is a :class:`~repro.serve.database.PointsToDatabase` or a
    path to one; ``diff`` a :class:`FactDiff` or a path to a diff file.
    ``fixpoint_path`` overrides the default bundle location
    (``<db>.fix`` beside the database).  All input problems raise typed
    :class:`~repro.runtime.errors.InvalidInputError` subclasses.
    """
    from ..serve.database import PointsToDatabase

    if not isinstance(db, PointsToDatabase):
        db = PointsToDatabase.load(db, backend=backend)
    if not isinstance(diff, FactDiff):
        diff = FactDiff.load(diff)
    if budget is not None:
        budget.start()

    base_facts = db.facts
    parent_facts_sha = db.meta.get("program", {}).get("facts_sha256")
    diff.check_baseline(db.db_id, parent_facts_sha)
    resolved = diff.resolve(base_facts)

    provenance: Dict[str, Any] = {
        "parent_db_id": db.db_id,
        "parent_facts_sha256": parent_facts_sha,
        "diff_sha256": resolved.sha256(),
        "edit": resolved.summary(),
    }
    config = db.meta.get("config", {})
    modref = bool(config.get("modref", True))
    main = db.meta.get("program", {}).get("main", "Main")
    order_spec = config.get("order_spec")
    budget_class = config.get("budget_class")

    new_facts: Facts
    applied: Optional[AppliedDiff]
    if resolved.is_empty():
        applied = None
    else:
        new_facts, applied = base_facts.apply_diff(resolved)
        if applied.is_empty():
            applied = None
    if applied is None:
        # No effective edit: the baseline *is* the answer; same db_id.
        modes = {"ci": "noop", "cs": "noop", "escape": "noop"}
        db.meta["provenance"] = dict(provenance, modes=modes)
        return RecompileResult(
            db=db,
            modes=modes,
            state=None,
            diff_sha256=provenance["diff_sha256"],
            parent_db_id=db.db_id,
        )

    bundle = _find_bundle(db, fixpoint_path)
    if bundle is None:
        return _cold_recompile(
            db, new_facts, provenance,
            modref=modref, main=main, order_spec=order_spec,
            budget_class=budget_class, backend=backend, budget=budget,
            optimize=optimize,
        )
    return _warm_recompile(
        db, bundle, base_facts, new_facts, applied, provenance,
        modref=modref, main=main, order_spec=order_spec,
        budget_class=budget_class, backend=backend, budget=budget,
        optimize=optimize,
    )


def _find_bundle(db, fixpoint_path) -> Optional[FixpointBundle]:
    if fixpoint_path is None:
        if db.path is None:
            return None
        fixpoint_path = bundle_path_for(db.path)
        if not pathlib.Path(fixpoint_path).exists():
            return None
    try:
        bundle = load_fixpoint_bundle(fixpoint_path)
    except FileNotFoundError:
        raise
    except InvalidInputError:
        return None  # corrupt or cross-version bundle: degrade to cold
    if bundle.db_id != db.db_id:
        return None  # bundle belongs to a different database generation
    return bundle


def _cold_recompile(
    db, new_facts, provenance, *, modref, main, order_spec, budget_class,
    backend, budget, optimize,
) -> RecompileResult:
    from ..serve.database import compile_database_with_state

    modes = {"ci": "cold", "cs": "cold", "escape": "cold"}
    new_db, state = compile_database_with_state(
        facts=new_facts,
        main=main,
        modref=modref,
        budget_class=budget_class,
        order_spec=order_spec,
        budget=budget,
        backend=backend,
        optimize=optimize,
        provenance=dict(provenance, modes=modes),
    )
    return RecompileResult(
        db=new_db,
        modes=modes,
        state=state,
        diff_sha256=provenance["diff_sha256"],
        parent_db_id=db.db_id,
    )


def _warm_recompile(
    db, bundle, base_facts, new_facts, applied, provenance, *,
    modref, main, order_spec, budget_class, backend, budget, optimize,
) -> RecompileResult:
    from ..analysis.base import load_datalog_source, make_solver
    from ..analysis.context_sensitive import ContextSensitiveAnalysis
    from ..analysis.escape import EscapeResult, build_escape_inputs
    from ..serve.database import finish_compile, phase_budget

    modes: Dict[str, str] = {}
    timings: Dict[str, float] = {}
    solver_kwargs = dict(
        backend=backend,
        optimize=optimize,
    )
    label = bundle.path

    # ---- phase 1: context-insensitive (always warm) -------------------
    t0 = time.monotonic()
    ci_solver = make_solver(
        new_facts,
        load_datalog_source("algorithm3"),
        budget=phase_budget(budget),
        load_facts=False,  # the ci checkpoint restores every relation
        **solver_kwargs,
    )
    _load_section(ci_solver, bundle, "ci", label)
    added_nodes, dirty = _editable_edits(ci_solver, applied)
    ci_solver.solve_incremental(added_nodes, dirty)
    ie_new = sorted(ci_solver.relation("IE").tuples())
    graph = call_graph_from_ie(new_facts, ie_new)
    timings["context_insensitive_s"] = time.monotonic() - t0
    modes["ci"] = "delta"

    # ---- phase 2: context-sensitive ----------------------------------
    t0 = time.monotonic()
    old_ie = sorted(tuple(t) for t in db.tuples.get("IE", ()))
    fragments = ["query_modref"] if modref else ()
    if ie_new == old_ie:
        # Call graph unchanged => numbering, C domain, IEC, MC all valid.
        cs_solver = make_solver(
            new_facts,
            load_datalog_source("algorithm5", fragments),
            size_overrides={"C": int(bundle.meta["cs_c_size"])},
            order_spec=order_spec,
            budget=phase_budget(budget, bounded=True),
            load_facts=False,  # the cs checkpoint restores every relation
            **solver_kwargs,
        )
        _load_section(cs_solver, bundle, "cs", label)
        added_nodes, dirty = _editable_edits(cs_solver, applied)
        cs_solver.solve_incremental(added_nodes, dirty)
        max_paths = int(db.meta["paths"])
        modes["cs"] = "delta"
    else:
        # The numbering is derived from the call graph; a changed IE
        # invalidates it, so this phase re-solves (CI stays incremental).
        cs_result = ContextSensitiveAnalysis(
            facts=new_facts,
            call_graph=graph,
            query_fragments=fragments,
            order_spec=order_spec,
            budget=phase_budget(budget, bounded=True),
            degrade=False,
            **solver_kwargs,
        ).run()
        cs_solver = cs_result.solver
        max_paths = cs_result.max_paths()
        modes["cs"] = "recomputed"
    timings["context_sensitive_s"] = time.monotonic() - t0

    # ---- phase 3: escape ---------------------------------------------
    t0 = time.monotonic()
    old_graph = (
        graph if ie_new == old_ie else call_graph_from_ie(base_facts, old_ie)
    )
    old_inputs = build_escape_inputs(base_facts, old_graph)
    new_inputs = build_escape_inputs(new_facts, graph)
    esc_solver = make_solver(
        new_facts,
        load_datalog_source("algorithm7"),
        size_overrides={"C": int(bundle.meta["escape_c_size"])},
        budget=phase_budget(budget),
        load_facts=False,  # the escape checkpoint restores every relation
        **solver_kwargs,
    )
    _load_section(esc_solver, bundle, "escape", label)
    added_nodes, dirty = {}, set()
    computed = [
        ("assign", old_inputs.assign, new_inputs.assign),
        ("HT", old_inputs.ht, new_inputs.ht),
        ("vP0T", old_inputs.vp0t, new_inputs.vp0t),
        ("vP0", old_inputs.vp0, new_inputs.vp0),
    ]
    for name, old_tuples, new_tuples in computed:
        add_node, shrunk = _tuple_set_edits(
            esc_solver, name, old_tuples, new_tuples
        )
        if add_node != FALSE:
            added_nodes[name] = add_node
        if shrunk:
            dirty.add(name)
    direct = AppliedDiff(
        {
            name: edits
            for name, edits in applied.changes.items()
            if name in ("store", "load")
        }
    )
    direct_added, direct_dirty = _editable_edits(esc_solver, direct)
    for name, node in direct_added.items():
        m = esc_solver.manager
        added_nodes[name] = m.or_(added_nodes.get(name, FALSE), node)
    dirty |= direct_dirty
    esc_solver.solve_incremental(added_nodes, dirty)
    esc = EscapeResult(
        facts=new_facts,
        solver=esc_solver,
        seconds=0.0,
        thread_contexts=new_inputs.contexts,
    )
    timings["escape_s"] = time.monotonic() - t0
    modes["escape"] = "delta"

    new_db, state = finish_compile(
        new_facts, ci_solver, ie_new, cs_solver, max_paths, esc,
        modref=modref,
        budget_class=budget_class,
        main=main,
        timings=timings,
        provenance=dict(provenance, modes=modes),
    )
    return RecompileResult(
        db=new_db,
        modes=modes,
        state=state,
        diff_sha256=provenance["diff_sha256"],
        parent_db_id=db.db_id,
    )


def _load_section(solver, bundle: FixpointBundle, name: str, label: str):
    try:
        return load_checkpoint_lines(
            solver, bundle.section(name), f"{label}#{name}"
        )
    except CheckpointError as err:
        raise FixpointError(
            f"{label}: section {name} does not restore into a solver "
            f"built from this database's facts: {err}"
        )
