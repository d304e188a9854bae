"""The persistent points-to database (``.ptdb``): solve once, query many.

A ``.ptdb`` file packages everything a demand-query engine needs to
answer Section 5 style questions *without re-running the solver*:

* the solved BDD relations of the context-sensitive analysis — ``vPC``,
  its context-projected ``vP``, ``hP``, and (unless disabled) the
  ``mod``/``ref`` relations of the mod-ref query fragment — serialized on
  the hardened :mod:`repro.bdd.serialize` path (canonical node ids,
  line-numbered corruption diagnostics),
* small solved relations as plain tuple lists (``IE`` invocation edges,
  the escape analysis verdicts) — cheaper as JSON than as BDD payloads,
* the domain name maps, variable-representative table, and site-to-method
  index needed to translate between names and ordinals,
* provenance: format and tool versions, a program digest, the analysis
  configuration, and solver statistics.

Layout (same envelope as the v2 checkpoint format)::

    # repro-ptdb 1
    meta {"format_version": 1, "tool": {...}, "relations": [...], ...}
    sha256 <hex digest of the payload section>
    payload <number of payload lines>
    # repro-bdd 1
    ...                    (one root per entry in meta["relations"])

Loading is O(file): the payload digest is verified, a fresh BDD manager
is built with the recorded variable count, the physical domains are
rebuilt from their recorded level blocks, and the payload is replayed
through the manager's unique table.  Version mismatches (format or tool
major version) are rejected with :class:`InvalidInputError` *before* any
node is rebuilt.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..bdd import BDDError, Domain, create_kernel
from ..bdd.serialize import dump_bdd_lines, parse_bdd_lines
from ..datalog.relation import Attribute, Relation
from ..ir.facts import Facts, extract_facts
from ..runtime import InvalidInputError, ResourceBudget, faults
from ..runtime.atomic import atomic_write_text
from ..runtime.version import check_tool_version, tool_meta

__all__ = [
    "FORMAT_VERSION",
    "CompileState",
    "PointsToDatabase",
    "compile_database",
    "compile_database_with_state",
    "facts_digest",
    "package_database",
]

PathLike = Union[str, pathlib.Path]

FORMAT_VERSION = 1
_MAGIC = "# repro-ptdb 1"

# Relations lifted out of the context-sensitive solver into the payload,
# in file order.  ``vP`` is materialized at compile time (the context
# projection of ``vPC``) so point lookups need no quantification.
_BDD_RELATIONS = ("vPC", "vP", "hP", "mod", "ref")


def facts_digest(facts: Facts) -> str:
    """Canonical digest of a program's extracted facts.

    Stable across processes for the same program (domain maps and input
    relations fully determine the analysis input), usable as a program
    identity even when no source text exists (generated corpus entries).
    """
    payload = {
        "maps": facts.maps,
        "relations": {
            name: sorted(facts.relations[name])
            for name in sorted(facts.relations)
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class _Payload:
    """A dumped BDD payload: its text and what the envelope says of it."""

    text: str
    line_count: int
    node_count: int
    digest: str


class PointsToDatabase:
    """An in-memory points-to database, loadable from / savable to ``.ptdb``.

    Attributes
    ----------
    manager:
        The BDD manager owning the loaded relations.
    relations:
        Name -> :class:`~repro.datalog.relation.Relation` for the BDD
        payload relations (``vPC``, ``vP``, ``hP``, and ``mod``/``ref``
        when compiled with mod-ref).
    maps:
        Domain name lists (``V``, ``H``, ``M``, ``I``, ``F``, ``T``, ...).
    tuples:
        Small relations stored as plain tuple lists (``IE``).
    escape:
        The escape analysis verdicts: ``escaped``/``captured`` heap
        ordinals and ``sync_needed``/``sync_unneeded`` variable ordinals.
    meta:
        The full parsed (or composed) meta record.
    db_id:
        Content digest identifying this database (cache keys, provenance).
    """

    def __init__(
        self,
        manager: BDD,
        relations: Dict[str, Relation],
        maps: Dict[str, List[str]],
        meta: Dict[str, Any],
        db_id: str,
        path: Optional[str] = None,
    ) -> None:
        self.manager = manager
        self.relations = relations
        self.maps = maps
        self.meta = meta
        self.db_id = db_id
        self.path = path
        self.tuples: Dict[str, List[tuple]] = {
            name: [tuple(t) for t in rows]
            for name, rows in meta.get("tuples", {}).items()
        }
        self.escape: Dict[str, List[int]] = {
            key: list(values) for key, values in meta.get("escape", {}).items()
        }
        self.site_method: Dict[int, int] = {
            int(site): int(method)
            for site, method in meta.get("site_method", {}).items()
        }
        self.var_reps: Dict[str, int] = {
            spec: int(v) for spec, v in meta.get("var_reps", {}).items()
        }
        self._indexes: Dict[str, Dict[str, int]] = {}
        self._uncovered_vars: Optional[Set[int]] = None
        # (key, payload) of the last dump; see :meth:`_payload`.
        self._dumped: Optional[Tuple[tuple, _Payload]] = None

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        rel = self.relations.get(name)
        if rel is None:
            raise KeyError(
                f"database has no relation {name!r} "
                f"(has {sorted(self.relations)})"
            )
        return rel

    def has_relation(self, name: str) -> bool:
        return name in self.relations

    def _index(self, domain: str) -> Dict[str, int]:
        idx = self._indexes.get(domain)
        if idx is None:
            idx = self._indexes[domain] = {
                name: i for i, name in enumerate(self.maps.get(domain, ()))
            }
        return idx

    def id_of(self, domain: str, name: str) -> int:
        ordinal = self._index(domain).get(name)
        if ordinal is None:
            raise KeyError(f"no element {name!r} in domain {domain}")
        return ordinal

    def name_of(self, domain: str, ordinal: int) -> str:
        return self.maps[domain][ordinal]

    def var_id(self, spec: str) -> int:
        """Ordinal of ``Method.name:var``, following copy factoring."""
        ordinal = self.var_reps.get(spec)
        if ordinal is None:
            raise KeyError(f"no variable {spec!r} in the database")
        return ordinal

    def method_id(self, qualified: str) -> int:
        try:
            return self.id_of("M", qualified)
        except KeyError:
            raise KeyError(f"no method {qualified!r} in the database")

    @property
    def budget_class(self) -> Optional[str]:
        """The ``--budget-class`` method pattern this database was
        restricted to at compile time, or ``None`` for a full database."""
        return self.meta.get("config", {}).get("budget_class")

    def covers_variable(self, ordinal: int) -> bool:
        """Whether ``vP``/``vPC`` were materialized for this variable.

        Always true for an unrestricted database.  For a budget-class
        database the answer comes from the embedded ``mV`` facts: a
        lookup for an uncovered variable must be routed to demand
        evaluation, never answered by the (falsely empty) restriction.
        """
        pattern = self.budget_class
        if pattern is None:
            return True
        if self._uncovered_vars is None:
            mv = self.meta.get("facts", {}).get("relations", {}).get("mV", ())
            self._uncovered_vars = _uncovered_variables(
                self.maps.get("M", ()), mv, pattern
            )
        return ordinal not in self._uncovered_vars

    def summary(self) -> Dict[str, Any]:
        """One-screen description (CLI ``compile-db`` output, ``info`` verb)."""
        return {
            "db_id": self.db_id,
            "format_version": self.meta.get("format_version"),
            "tool": self.meta.get("tool"),
            "program": self.meta.get("program"),
            "relations": {
                entry["name"]: entry.get("tuples")
                for entry in self.meta.get("relations", ())
            },
            "domains": {dom: len(names) for dom, names in self.maps.items()},
            "paths": self.meta.get("paths"),
            "stats": self.meta.get("stats"),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: PathLike) -> int:
        """Atomically write the database; returns payload node count.

        Same durability discipline as the checkpoint writer: temp file in
        the target directory, fsync, rename, directory fsync.
        """
        payload = self._payload()
        lines = [
            _MAGIC,
            "meta " + json.dumps(self.meta, sort_keys=True, separators=(",", ":")),
            f"sha256 {payload.digest}",
            f"payload {payload.line_count}",
            payload.text,
        ]
        self.path = atomic_write_text(path, "\n".join(lines) + "\n")
        return payload.node_count

    def _payload(self) -> "_Payload":
        """The serialized BDD payload, dumped at most once per state.

        The database shares its relations with the solver that produced
        it, so a dump is reused only while every root handle and the
        arena's ``gc_count`` (garbage collection renumbers handles) are
        what they were when it was taken.
        """
        roots = tuple(
            self.relations[entry["name"]].node for entry in self.meta["relations"]
        )
        key = (self.manager, self.manager.gc_count, roots)
        if self._dumped is None or self._dumped[0] != key:
            lines, node_count = dump_bdd_lines(self.manager, roots)
            text = "\n".join(lines)
            self._dumped = key, _Payload(
                text, len(lines), node_count, hashlib.sha256(text.encode()).hexdigest()
            )
        return self._dumped[1]

    @classmethod
    def load(
        cls, path: PathLike, backend: Optional[str] = None
    ) -> "PointsToDatabase":
        """Load a ``.ptdb`` file in O(file) — no solving, no program parse.

        ``backend`` selects the BDD kernel for the in-memory arena (the
        file format is backend-agnostic, so any backend can load any
        database and the resulting ``db_id`` is identical).  Raises
        :class:`InvalidInputError` for anything wrong with the file: bad
        magic, version mismatch, checksum failure, truncation, or a
        corrupt BDD payload (with the offending line number).
        """
        if faults.armed:
            faults.fire("serve.db_load")
        target = pathlib.Path(path)
        meta, payload, digest = _read_envelope(target)
        num_vars = int(meta.get("num_vars", 0))
        manager = create_kernel(num_vars=num_vars, backend=backend)
        domains: Dict[str, Domain] = {}
        relations: Dict[str, Relation] = {}
        schema = meta.get("relations")
        if not isinstance(schema, list):
            raise InvalidInputError(f"{target}: meta lacks a relations list")
        try:
            for entry in schema:
                attrs = []
                for name, logical, phys_name, size, levels in entry["attrs"]:
                    dom = domains.get(phys_name)
                    if dom is None:
                        dom = Domain(manager, phys_name, int(size), list(levels))
                        domains[phys_name] = dom
                    attrs.append(Attribute(name, logical, dom))
                relations[entry["name"]] = Relation(manager, entry["name"], attrs)
            roots = parse_bdd_lines(
                manager, payload, name=str(target), first_lineno=5
            )
        except BDDError as err:
            raise InvalidInputError(f"corrupt database payload: {err}")
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidInputError(
                f"{target}: malformed relation schema in meta: {err!r}"
            )
        if len(roots) != len(schema):
            raise InvalidInputError(
                f"{target}: payload has {len(roots)} roots for "
                f"{len(schema)} declared relations"
            )
        for entry, node in zip(schema, roots):
            relations[entry["name"]].set_node(node)
        db_id = _db_id(meta, digest)
        return cls(
            manager=manager,
            relations=relations,
            maps={dom: list(names) for dom, names in meta.get("maps", {}).items()},
            meta=meta,
            db_id=db_id,
            path=str(target),
        )


# Meta keys that vary run to run (wall-clock timings, tool build info,
# kernel backend) without changing the analysis *answer*.  They are
# excluded from the database identity so that two compilations of the
# same program — on different machines, different days, or different BDD
# backends — produce the same ``db_id`` whenever their relations agree.
# ``provenance`` (how the database was derived: parent db, fact diff) is
# history, not content: an incremental recompile must produce the *same*
# db_id as a from-scratch compile on the edited facts — that identity is
# the differential gate — so it is volatile too.
_VOLATILE_META = frozenset({"stats", "tool", "backend", "provenance"})


def _db_id(meta: Dict[str, Any], payload_digest: str) -> str:
    stable = {k: v for k, v in meta.items() if k not in _VOLATILE_META}
    meta_text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(
        (meta_text + "\n" + payload_digest).encode()
    ).hexdigest()[:16]


def _read_envelope(path: pathlib.Path) -> Tuple[Dict[str, Any], List[str], str]:
    try:
        text = path.read_text()
    except OSError as err:
        if isinstance(err, FileNotFoundError):
            raise
        raise InvalidInputError(f"{path}: cannot read database: {err}")
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise InvalidInputError(
            f"{path}:1: not a repro-ptdb file (expected {_MAGIC!r})"
        )
    if len(lines) < 4:
        raise InvalidInputError(f"{path}: truncated database header")
    if not lines[1].startswith("meta "):
        raise InvalidInputError(f"{path}:2: missing meta record")
    try:
        meta = json.loads(lines[1][len("meta "):])
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{path}:2: corrupt meta json: {err}")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise InvalidInputError(
            f"{path}:2: unsupported database format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION}; re-run "
            f"'repro compile-db')"
        )
    check_tool_version(meta, str(path), "database")
    if not lines[2].startswith("sha256 "):
        raise InvalidInputError(f"{path}:3: missing sha256 record")
    digest = lines[2][len("sha256 "):].strip()
    if not lines[3].startswith("payload "):
        raise InvalidInputError(f"{path}:4: missing payload record")
    try:
        n_payload = int(lines[3][len("payload "):])
    except ValueError:
        raise InvalidInputError(f"{path}:4: malformed payload count")
    payload = lines[4:]
    if len(payload) != n_payload:
        raise InvalidInputError(
            f"{path}: truncated database: header promises {n_payload} "
            f"payload lines, found {len(payload)}"
        )
    actual = hashlib.sha256("\n".join(payload).encode()).hexdigest()
    if actual != digest:
        raise InvalidInputError(
            f"{path}: checksum mismatch: payload is corrupt "
            f"(expected {digest[:12]}..., got {actual[:12]}...)"
        )
    return meta, payload, digest


# ----------------------------------------------------------------------
# Compilation: program -> database
# ----------------------------------------------------------------------


@dataclass
class CompileState:
    """Live solver state left over from a compilation.

    ``compile_database`` discards this; the incremental recompiler keeps
    it to checkpoint all three fixpoints into a ``.ptdb.fix`` bundle so a
    later edit can warm-start each solve instead of re-deriving it.
    """

    ci_solver: Any
    cs_solver: Any
    escape_solver: Any
    ie_tuples: List[tuple]
    cs_c_size: int
    escape_c_size: int
    thread_sites: List[Tuple[int, int]]
    max_paths: int


def _facts_meta(facts: Facts, thread_sites: Sequence[Tuple[int, int]]) -> Dict[str, Any]:
    """Everything beyond ``maps``/``site_method``/``var_reps`` needed to
    rebuild a solvable fact set from the database alone (no source)."""
    return {
        "relations": {
            name: [list(t) for t in sorted(facts.relations[name])]
            for name in sorted(facts.relations)
        },
        "max_arity": facts.max_arity,
        "alloc_sites": {
            str(m): sorted(sites) for m, sites in facts.alloc_sites.items()
        },
        "global_site": facts.global_site,
        "entry_ids": sorted(facts.entry_method_ids()),
        "thread_sites": [list(t) for t in thread_sites],
    }


def _uncovered_variables(
    method_names: Sequence[str],
    mv_tuples: Sequence[Sequence[int]],
    pattern: str,
) -> Set[int]:
    """Variable ordinals outside a ``--budget-class`` method pattern.

    A variable is covered when some method whose qualified name matches
    ``pattern`` (fnmatch, case-sensitive) declares it in ``mV``.
    Variables absent from ``mV`` entirely stay covered — restricting
    them would silently falsify lookups the pattern says nothing about.
    """
    matching = {
        i
        for i, name in enumerate(method_names)
        if fnmatch.fnmatchcase(name, pattern)
    }
    member: Set[int] = set()
    covered: Set[int] = set()
    for m, v in mv_tuples:
        member.add(v)
        if m in matching:
            covered.add(v)
    return member - covered


def package_database(
    facts: Facts,
    cs_solver,
    ie_tuples: Sequence[tuple],
    escape_verdicts: Dict[str, List[int]],
    *,
    max_paths: int,
    thread_sites: Sequence[Tuple[int, int]],
    modref: bool = True,
    budget_class: Optional[str] = None,
    main: str = "Main",
    source_path: Optional[str] = None,
    source_sha256: Optional[str] = None,
    timings: Optional[Dict[str, float]] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> PointsToDatabase:
    """Package solved state as a :class:`PointsToDatabase`.

    The same packager serves both the from-scratch compile and the
    incremental recompile: identical inputs (facts, solved ``vPC``/``hP``/
    mod-ref relations, ``IE``, escape verdicts) yield byte-identical
    stable meta and therefore the same ``db_id`` — the property the
    incremental differential gate asserts.  ``source_path`` and
    ``source_sha256`` are identity-bearing, so derived databases (which
    have facts but no source file) must leave them unset.
    """
    relations: Dict[str, Relation] = {}
    for name in _BDD_RELATIONS:
        if name == "vP":
            projected = cs_solver.relation("vPC").project("variable", "heap")
            rel = Relation(cs_solver.manager, "vP", projected.attributes)
            rel.set_node(projected.node)
            relations["vP"] = rel
        elif name in cs_solver.relations:
            relations[name] = cs_solver.relation(name)

    if budget_class:
        uncovered = _uncovered_variables(
            facts.maps["M"], facts.relations.get("mV", ()), budget_class
        )
        manager = cs_solver.manager
        for name in ("vPC", "vP"):
            rel = relations.get(name)
            if rel is None or not uncovered:
                continue
            var = rel.attribute("variable")
            cut = Relation(manager, "uncovered", [var]).tuples_node(
                (v,) for v in uncovered
            )
            restricted = Relation(manager, name, rel.attributes)
            restricted.set_node(manager.diff(rel.node, cut))
            relations[name] = restricted

    schema = []
    for name, rel in relations.items():
        schema.append(
            {
                "name": name,
                "attrs": [
                    [a.name, a.logical, a.phys.name, a.phys.size,
                     list(a.phys.levels)]
                    for a in rel.attributes
                ],
                "tuples": rel.count(),
            }
        )

    var_index = {v: i for i, v in enumerate(facts.maps["V"])}
    var_reps = {
        f"{method}:{var}": var_index[rep]
        for (method, var), rep in facts._var_reps.items()
        if rep in var_index
    }

    program_meta: Dict[str, Any] = {
        "facts_sha256": facts_digest(facts),
        "entry": facts.program.entry.qualified,
        "main": main,
        "stats": facts.program.stats(),
    }
    if source_path is not None:
        program_meta["path"] = str(source_path)
    if source_sha256 is not None:
        program_meta["source_sha256"] = source_sha256

    meta: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tool": tool_meta(),
        # Provenance only (volatile, excluded from db_id): which kernel
        # backend compiled this database.
        "backend": cs_solver.manager.backend_name,
        "num_vars": cs_solver.manager.num_vars,
        "relations": schema,
        "maps": facts.maps,
        "facts": _facts_meta(facts, thread_sites),
        "tuples": {"IE": [list(t) for t in sorted(ie_tuples)]},
        "escape": {
            key: sorted(escape_verdicts.get(key, ()))
            for key in ("escaped", "captured", "sync_needed", "sync_unneeded")
        },
        "site_method": {str(i): m for i, m in facts.site_method.items()},
        "var_reps": var_reps,
        "program": program_meta,
        "config": {
            "algorithm": "algorithm5",
            "modref": modref,
            "order_spec": cs_solver.order_spec,
            "type_filtering": True,
        },
        # (budget_class added below only when set, so unrestricted
        # databases keep their pre-existing db_id.)
        "paths": max_paths,
        "stats": {
            "iterations": cs_solver.stats.iterations,
            "rule_applications": cs_solver.stats.rule_applications,
            "peak_nodes": cs_solver.manager.peak_nodes,
            "timings_s": {
                k: round(v, 4) for k, v in (timings or {}).items()
            },
        },
    }
    if budget_class:
        meta["config"]["budget_class"] = budget_class
    if provenance is not None:
        meta["provenance"] = provenance
    db = PointsToDatabase(
        manager=cs_solver.manager,
        relations=relations,
        maps=facts.maps,
        meta=meta,
        db_id="",
    )
    # The in-memory db_id must match what a later load computes, so it is
    # derived the same way: meta + payload digest.  save() writes the same
    # dump unless the relations move on first.
    db.db_id = _db_id(meta, db._payload().digest)
    return db


def compile_database_with_state(
    program=None,
    facts: Optional[Facts] = None,
    *,
    source_path: Optional[str] = None,
    source_sha256: Optional[str] = None,
    main: str = "Main",
    modref: bool = True,
    budget_class: Optional[str] = None,
    budget: Optional[ResourceBudget] = None,
    order_spec: Optional[str] = None,
    backend: Optional[str] = None,
    optimize: Optional[bool] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> Tuple[PointsToDatabase, CompileState]:
    """Solve a program once; return the database *and* the live solvers.

    Runs the Algorithm 3 context-insensitive analysis (for the call graph
    and ``IE``), the Algorithm 5 context-sensitive analysis (with the
    mod-ref query fragment unless ``modref=False``), and the Algorithm 7
    escape analysis; the solved relations plus all name maps land in the
    returned :class:`PointsToDatabase` (call :meth:`~PointsToDatabase.save`
    to persist it).

    ``budget`` bounds the whole compilation (shared deadline across the
    three solves); budget faults propagate — a database is only written
    from a *complete* solve, never a degraded one.
    """
    from ..analysis import (
        ContextInsensitiveAnalysis,
        ContextSensitiveAnalysis,
        ThreadEscapeAnalysis,
    )
    from ..analysis.escape import thread_alloc_sites

    if facts is None:
        if program is None:
            raise InvalidInputError("compile_database needs a Program or Facts")
        facts = extract_facts(program)
    if budget is not None:
        budget.start()

    # Compute once: for a FactSet rebuilt from a database the hierarchy
    # is gone, so the sites travel as data instead.
    thread_sites = getattr(facts, "thread_sites", None)
    if thread_sites is None:
        thread_sites = thread_alloc_sites(facts)
    thread_sites = sorted(tuple(t) for t in thread_sites)

    timings: Dict[str, float] = {}
    t0 = time.monotonic()
    ci = ContextInsensitiveAnalysis(
        facts=facts,
        type_filtering=True,
        discover_call_graph=True,
        budget=budget.share_deadline() if budget is not None else None,
        backend=backend,
        optimize=optimize,
    ).run()
    timings["context_insensitive_s"] = time.monotonic() - t0
    graph = ci.discovered_call_graph
    ie_tuples = sorted(ci.solver.relation("IE").tuples())

    t0 = time.monotonic()
    cs = ContextSensitiveAnalysis(
        facts=facts,
        call_graph=graph,
        query_fragments=["query_modref"] if modref else (),
        order_spec=order_spec,
        budget=(
            budget.share_deadline(
                node_budget=budget.node_budget,
                max_iterations=budget.max_iterations,
            )
            if budget is not None
            else None
        ),
        degrade=False,
        backend=backend,
        optimize=optimize,
    ).run()
    timings["context_sensitive_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    esc = ThreadEscapeAnalysis(
        facts=facts,
        call_graph=graph,
        budget=budget.share_deadline() if budget is not None else None,
        backend=backend,
        optimize=optimize,
        thread_sites=thread_sites,
    ).run()
    timings["escape_s"] = time.monotonic() - t0
    escape_verdicts = {
        "escaped": sorted(esc.escaped_heaps()),
        "captured": sorted(esc.captured_heaps()),
        "sync_needed": sorted(esc.needed_sync_vars()),
        "sync_unneeded": sorted(esc.unneeded_sync_vars()),
    }

    db = package_database(
        facts,
        cs.solver,
        ie_tuples,
        escape_verdicts,
        max_paths=cs.max_paths(),
        thread_sites=thread_sites,
        modref=modref,
        budget_class=budget_class,
        main=main,
        source_path=source_path,
        source_sha256=source_sha256,
        timings=timings,
        provenance=provenance,
    )
    state = CompileState(
        ci_solver=ci.solver,
        cs_solver=cs.solver,
        escape_solver=esc.solver,
        ie_tuples=ie_tuples,
        cs_c_size=cs.numbering.context_domain_size(),
        escape_c_size=next(
            a.phys.size
            for a in esc.solver.relation("vPT").attributes
            if a.logical == "C"
        ),
        thread_sites=thread_sites,
        max_paths=cs.max_paths(),
    )
    return db, state


def compile_database(
    program=None,
    facts: Optional[Facts] = None,
    **kwargs,
) -> PointsToDatabase:
    """Solve a program once and package the result as a database.

    Thin wrapper over :func:`compile_database_with_state` that drops the
    live solver state; see there for parameters and semantics.
    """
    db, _ = compile_database_with_state(program, facts, **kwargs)
    return db
