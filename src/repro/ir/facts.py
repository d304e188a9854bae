"""Fact extraction: from IR programs to the paper's input relations.

This replaces the Joeq front end.  Given a validated
:class:`~repro.ir.program.Program` it produces the domains (V, H, F, T, I,
M, N, Z) and every input relation used by Algorithms 1–7 and the Section 5
queries:

=============  =========================================================
``vP0``        initial points-to from allocation statements
``store``      ``v1.f = v2`` statements (statics through the global)
``load``       ``v2 = v1.f`` statements
``assign0``    residual local assignments and casts (the paper factors
               locals with a flow-sensitive pass; we merge single-
               definition copy chains and keep the rest as edges)
``vT, hT, aT`` declared types, allocation types, assignability
``cha``        virtual dispatch (thread ``start`` -> ``run`` included)
``actual``     per-site actual parameters (``z = 0`` is the receiver)
``formal``     per-method formal parameters (``z = 0`` is ``this``)
``Iret/Mret``  return-value plumbing ("handled in a likewise manner")
``IE0``        statically bound invocation edges
``mI``         invocation sites with their virtual names
``mV``         method -> local variables
``sync``       synchronization operations
=============  =========================================================

Invariant: **H is a prefix of I** — allocation sites are invocation sites
of object-creation methods, so a heap object's ordinal is simultaneously
valid in both domains ("Note that H ⊆ I", Section 3).  The global object
used for statics is the last element of H and occupies the matching slot
in I.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from .program import (
    Cast,
    Copy,
    Invoke,
    IRError,
    Load,
    MethodDecl,
    New,
    Program,
    Return,
    StaticLoad,
    StaticStore,
    Statement,
    Store,
    Sync,
    Throw,
    OBJECT,
)
from .types import TypeHierarchy
from ..runtime.errors import InvalidInputError

__all__ = [
    "Facts", "extract_facts", "facts_digest", "NULL_NAME", "GLOBAL", "THROWN",
]

NULL_NAME = "<none>"  # the "special null method name" for non-virtual sites
GLOBAL = "<global>"
# Per-method exception channel variable (only materialized when the
# program throws at all): thrown values accumulate here and propagate to
# callers like a second return value.
THROWN = "<thrown>"


class _NameTable:
    """Ordinal assignment for one domain."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}

    def intern(self, name: str) -> int:
        idx = self.ids.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.ids[name] = idx
        return idx

    def __len__(self) -> int:
        return len(self.names)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass
class Facts:
    """Extracted domains, relations and name maps: the one fact set every
    solver, the packager and the query layers read.

    :func:`extract_facts` fills it from a program; :meth:`from_db_meta`
    rebuilds it from the meta record :meth:`db_meta` wrote into a
    database (once, when the database loads), so the serve engine,
    recompiles and demand evaluation need no source.
    """

    maps: Dict[str, List[str]] = field(default_factory=dict)
    relations: Dict[str, List[tuple]] = field(default_factory=dict)
    # Site bookkeeping used by the call-graph and numbering layers.
    site_method: Dict[int, int] = field(default_factory=dict)  # I -> M
    alloc_sites: Dict[int, List[int]] = field(default_factory=dict)  # M -> [I]
    global_site: int = -1
    max_arity: int = 1
    entry: str = ""  # qualified name of the main method
    stats: Dict[str, int] = field(default_factory=dict)  # Program.stats()
    # Sorted ids of the root methods: main plus class initializers.
    entry_ids: List[int] = field(default_factory=list)
    # (heap, run method) of every thread allocation site.
    thread_sites: List[Tuple[int, int]] = field(default_factory=list)
    # "Method:var" -> V ordinal, following copy factoring.
    var_reps: Dict[str, int] = field(default_factory=dict)
    _indexes: Dict[str, Dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- domain helpers ---------------------------------------------------

    @property
    def sizes(self) -> Dict[str, int]:
        """Domain sizes (element counts), for sizing the Datalog domains."""
        out = {dom: max(1, len(names)) for dom, names in self.maps.items()}
        out["Z"] = self.max_arity
        return out

    def id_of(self, domain: str, name: str) -> int:
        """Ordinal of a named element in a domain (V, H, F, T, I, M, N)."""
        index = self._indexes.get(domain)
        if index is None:
            index = self._indexes[domain] = {
                name: i for i, name in enumerate(self.maps.get(domain, ()))
            }
        ordinal = index.get(name)
        if ordinal is None:
            raise InvalidInputError(f"no element {name!r} in domain {domain}")
        return ordinal

    def name_of(self, domain: str, ordinal: int) -> str:
        """Inverse of :meth:`id_of`."""
        return self.maps[domain][ordinal]

    def var_id(self, method: str, var: str) -> int:
        """Ordinal of a local variable, following copy factoring."""
        ordinal = self.var_reps.get(f"{method}:{var}")
        if ordinal is None:
            raise InvalidInputError(f"no variable {var!r} in {method}")
        return ordinal

    def method_id(self, qualified: str) -> int:
        """Ordinal of a method by qualified name."""
        return self.id_of("M", qualified)

    # -- the database's copy ----------------------------------------------

    def db_meta(self) -> Dict[str, Any]:
        """The meta keys of a database that hold this fact set.

        ``maps``, ``facts``, ``site_method``, ``var_reps`` and ``program``
        are stable keys of the database identity, so their contents must
        not change for the same facts.
        """
        return {
            "maps": self.maps,
            "facts": {
                "relations": {
                    name: [list(t) for t in sorted(self.relations[name])]
                    for name in sorted(self.relations)
                },
                "max_arity": self.max_arity,
                "alloc_sites": {
                    str(m): sorted(sites) for m, sites in self.alloc_sites.items()
                },
                "global_site": self.global_site,
                "entry_ids": sorted(self.entry_ids),
                "thread_sites": [list(t) for t in self.thread_sites],
            },
            "site_method": {str(i): m for i, m in self.site_method.items()},
            "var_reps": dict(self.var_reps),
            "program": {
                "facts_sha256": facts_digest(self),
                "entry": self.entry,
                "stats": dict(self.stats),
            },
        }

    @classmethod
    def from_db_meta(cls, meta: Dict[str, Any], name: str = "<db>") -> "Facts":
        """Rebuild the fact set :meth:`db_meta` wrote into a database."""
        from ..incremental.diff import FactDiffError

        embedded = meta.get("facts")
        if not isinstance(embedded, dict):
            raise FactDiffError(
                f"{name}: database has no embedded fact tables "
                f"(meta['facts']) — it was written by an older tool; "
                f"re-run 'repro compile-db'"
            )
        program = meta.get("program", {})
        return cls(
            maps={dom: list(names) for dom, names in meta.get("maps", {}).items()},
            relations={
                rel: [tuple(t) for t in rows]
                for rel, rows in embedded.get("relations", {}).items()
            },
            site_method={
                int(site): int(m)
                for site, m in meta.get("site_method", {}).items()
            },
            alloc_sites={
                int(m): list(sites)
                for m, sites in embedded.get("alloc_sites", {}).items()
            },
            global_site=int(embedded.get("global_site", -1)),
            max_arity=int(embedded.get("max_arity", 1)),
            entry=str(program.get("entry", "")),
            stats=dict(program.get("stats", {})),
            entry_ids=[int(m) for m in embedded.get("entry_ids", ())],
            thread_sites=[
                (int(h), int(r)) for h, r in embedded.get("thread_sites", ())
            ],
            var_reps={
                spec: int(v) for spec, v in meta.get("var_reps", {}).items()
            },
        )

    # -- editing ----------------------------------------------------------

    def apply_diff(self, diff) -> Tuple["Facts", "AppliedDiff"]:
        """Apply a *resolved* :class:`~repro.incremental.diff.FactDiff`;
        returns ``(new_facts, applied)``.

        The receiver is not mutated.  Adds of already-present tuples are
        dropped (idempotent); removals of absent tuples raise
        :class:`~repro.incremental.diff.FactDiffError` (a removal that
        silently does nothing almost certainly means the diff was written
        against the wrong baseline).
        """
        from ..incremental.diff import EDITABLE_RELATIONS, FactDiffError
        from ..incremental.state import AppliedDiff

        new_relations = {
            name: list(rows) for name, rows in self.relations.items()
        }
        changes: Dict[str, Tuple[List[tuple], List[tuple]]] = {}
        for rel in sorted(set(diff.added) | set(diff.removed)):
            if rel not in EDITABLE_RELATIONS:
                raise FactDiffError(
                    f"{diff.name}: relation {rel!r} is not editable",
                    predicate=rel,
                )
            current = set(new_relations.get(rel, ()))
            removed = []
            for t in diff.removed.get(rel, ()):
                t = tuple(t)
                if t not in current:
                    raise FactDiffError(
                        f"{diff.name}: {rel}: cannot remove {t} — not "
                        f"present in the baseline (wrong baseline, or "
                        f"already removed?)",
                        predicate=rel,
                    )
                current.discard(t)
                removed.append(t)
            added = []
            for t in diff.added.get(rel, ()):
                t = tuple(t)
                if t in current:
                    continue  # idempotent re-add
                current.add(t)
                added.append(t)
            new_relations[rel] = sorted(current)
            changes[rel] = (sorted(added), sorted(removed))
        return replace(self, relations=new_relations), AppliedDiff(changes)


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


def _definition_counts(method: MethodDecl) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, _ in method.params:
        counts[name] = counts.get(name, 0) + 1
    if not method.is_static:
        counts["this"] = counts.get("this", 0) + 1
    for stmt in method.statements():
        dst = getattr(stmt, "dst", None)
        if dst is not None:
            counts[dst] = counts.get(dst, 0) + 1
    return counts


def _resolve_field(program: Program, hierarchy: TypeHierarchy, cls: str, name: str) -> str:
    """Qualified name of the field reached from class ``cls``.

    Falls back to a globally unique field name when the receiver's static
    type does not declare it (undeclared locals default to ``Object``).
    """
    cur: Optional[str] = cls
    while cur is not None:
        decl = program.classes[cur]
        if name in decl.fields:
            return f"{cur}.{name}"
        cur = decl.superclass
    owners = [
        c.name for c in program.classes.values() if name in c.fields
    ]
    if len(owners) == 1:
        return f"{owners[0]}.{name}"
    raise IRError(
        f"no field {name!r} reachable from class {cls}"
        + (f" (ambiguous among {owners})" if owners else "")
    )


def _infer_local_types(
    method: MethodDecl, hierarchy: TypeHierarchy
) -> Dict[str, str]:
    """Infer types of undeclared locals from their allocations and casts.

    A variable assigned ``new T`` (or cast to ``T``) is given the join of
    its candidate types; variables with no allocation stay ``Object``.
    """
    candidates: Dict[str, Set[str]] = {}
    declared = set(method.locals) | {n for n, _ in method.params} | {"this"}
    for stmt in method.statements():
        if isinstance(stmt, New) and stmt.dst not in declared:
            candidates.setdefault(stmt.dst, set()).add(stmt.cls)
        elif isinstance(stmt, Cast) and stmt.dst not in declared:
            candidates.setdefault(stmt.dst, set()).add(stmt.type)
    inferred: Dict[str, str] = {}
    for var, types in candidates.items():
        common = None
        for t in types:
            sups = hierarchy.supertypes(t)
            common = sups if common is None else common & sups
        if not common:
            inferred[var] = OBJECT
            continue
        # Most derived common supertype: the one with the largest own
        # supertype set.
        inferred[var] = max(common, key=lambda t: (len(hierarchy.supertypes(t)), t))
    return inferred


def extract_facts(program: Program, factor_locals: bool = True) -> Facts:
    """Extract all input relations from ``program``.

    ``factor_locals`` enables the intraprocedural factoring of local copy
    chains (the paper's flow-sensitive local summarization, approximated by
    merging single-definition same-type copies).
    """
    program.validate()
    hierarchy = TypeHierarchy(program)
    facts = Facts(entry=program.entry.qualified, stats=program.stats())

    tables = {dom: _NameTable() for dom in "VHFTIMN"}
    rels: Dict[str, List[tuple]] = {
        name: []
        for name in (
            "vP0", "store", "load", "assign0", "vT", "hT", "aT", "cha",
            "actual", "formal", "Iret", "Mret", "IE0", "mI", "mV", "sync",
            "castOp", "Mthr",
        )
    }
    uses_exceptions = any(
        isinstance(stmt, Throw)
        for m in program.all_methods()
        if not m.is_abstract
        for stmt in m.statements()
    )

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    for cls_name in program.classes:
        tables["T"].intern(cls_name)
    for sup, sub in hierarchy.assignable_pairs():
        rels["aT"].append((tables["T"].intern(sup), tables["T"].intern(sub)))

    # ------------------------------------------------------------------
    # Methods (concrete only, as in the paper's M domain)
    # ------------------------------------------------------------------
    methods = [m for m in program.all_methods() if not m.is_abstract]
    for m in methods:
        tables["M"].intern(m.qualified)
    tables["N"].intern(NULL_NAME)

    # cha: virtual dispatch over concrete receiver types.
    for t, n, target in hierarchy.dispatch_tuples():
        rels["cha"].append(
            (
                tables["T"].intern(t),
                tables["N"].intern(n),
                tables["M"].intern(target.qualified),
            )
        )

    # ------------------------------------------------------------------
    # Per-method variable factoring
    # ------------------------------------------------------------------
    reps: Dict[Tuple[str, str], str] = {}  # (method, var) -> representative key
    var_types: Dict[str, str] = {}  # representative key -> declared type name
    method_rep_keys: Dict[str, List[str]] = {}  # method -> sorted rep keys

    def rep_key(method: MethodDecl, var: str) -> str:
        return reps[(method.qualified, var)]

    for m in methods:
        uf = _UnionFind()
        defs = _definition_counts(m)
        inferred = _infer_local_types(m, hierarchy)

        def decl_type(v: str) -> str:
            if v in inferred:
                return inferred[v]
            return hierarchy.declared_type(m, v)

        if factor_locals:
            for stmt in m.statements():
                if isinstance(stmt, Copy) and stmt.dst != stmt.src:
                    single_def = defs.get(stmt.dst, 0) == 1
                    same_type = decl_type(stmt.dst) == decl_type(stmt.src)
                    not_param = stmt.dst not in dict(m.params) and stmt.dst != "this"
                    if single_def and same_type and not_param:
                        uf.union(stmt.dst, stmt.src)
        # Collect every variable the method mentions.
        names: Set[str] = set()
        if not m.is_static:
            names.add("this")
        names.update(name for name, _ in m.params)
        names.update(m.locals)
        for stmt in m.statements():
            for attr in ("dst", "src", "base", "var"):
                value = getattr(stmt, attr, None)
                if isinstance(value, str):
                    names.add(value)
            if isinstance(stmt, Invoke):
                names.update(stmt.args)
        keys: Set[str] = set()
        for name in sorted(names):
            root = uf.find(name)
            key = f"{m.qualified}:{root}"
            reps[(m.qualified, name)] = key
            keys.add(key)
            # Representative type: merging only happens for equal declared
            # types, so any member's type is the representative's type.
            var_types.setdefault(key, decl_type(root))
        method_rep_keys[m.qualified] = sorted(keys)

    # Cast targets: a single-definition cast variable takes the cast type
    # when it refines the declared one (the paper's "cast operations" are
    # their own V elements with the cast type).
    for m in methods:
        defs = _definition_counts(m)
        for stmt in m.statements():
            if isinstance(stmt, Cast) and defs.get(stmt.dst, 0) == 1:
                key = reps[(m.qualified, stmt.dst)]
                declared = var_types[key]
                if hierarchy.is_assignable(declared, stmt.type):
                    var_types[key] = stmt.type

    # ------------------------------------------------------------------
    # Sites: allocations first (so H is a prefix of I), then the global
    # pseudo-site, then real invocation sites.
    # ------------------------------------------------------------------
    alloc_entries: List[Tuple[MethodDecl, New, int]] = []
    for m in methods:
        for idx, stmt in enumerate(m.statements()):
            if isinstance(stmt, New):
                alloc_entries.append((m, stmt, idx))
    for m, stmt, idx in alloc_entries:
        site_name = f"{m.qualified}@{idx}:new {stmt.cls}"
        h = tables["H"].intern(site_name)
        i = tables["I"].intern(site_name)
        assert h == i, "H must be a prefix of I"
    global_h = tables["H"].intern(GLOBAL)
    global_i = tables["I"].intern(GLOBAL)
    assert global_h == global_i
    facts.global_site = global_i

    # ------------------------------------------------------------------
    # The global object (statics are fields of it).
    # ------------------------------------------------------------------
    global_v = tables["V"].intern(GLOBAL)
    object_t = tables["T"].intern(OBJECT)
    rels["vT"].append((global_v, object_t))
    rels["hT"].append((global_h, object_t))
    rels["vP0"].append((global_v, global_h))

    # Variables: intern representatives in deterministic order.
    thrown_var: Dict[str, int] = {}
    for m in methods:
        m_id = tables["M"].intern(m.qualified)
        for key in method_rep_keys[m.qualified]:
            v_id = tables["V"].intern(key)
            rels["vT"].append((v_id, tables["T"].intern(var_types[key])))
            rels["mV"].append((m_id, v_id))
        if uses_exceptions:
            # The per-method exception channel ("thrown exceptions" are V
            # elements in the paper).
            key = f"{m.qualified}:{THROWN}"
            t_id = tables["V"].intern(key)
            thrown_var[m.qualified] = t_id
            reps[(m.qualified, THROWN)] = key
            rels["vT"].append((t_id, object_t))
            rels["mV"].append((m_id, t_id))
            rels["Mthr"].append((m_id, t_id))

    # formal parameters: z = 0 is the receiver.
    max_arity = 1
    for m in methods:
        m_id = tables["M"].intern(m.qualified)
        z = 0
        if not m.is_static:
            rels["formal"].append((m_id, 0, tables["V"].ids[rep_key(m, "this")]))
        for pos, (pname, _) in enumerate(m.params, start=1):
            rels["formal"].append((m_id, pos, tables["V"].ids[rep_key(m, pname)]))
            max_arity = max(max_arity, pos + 1)

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def vid(m: MethodDecl, var: str) -> int:
        return tables["V"].ids[rep_key(m, var)]

    def fid(cls: str, name: str) -> int:
        return tables["F"].intern(_resolve_field(program, hierarchy, cls, name))

    for m in methods:
        m_id = tables["M"].ids[m.qualified]
        alloc_list = facts.alloc_sites.setdefault(m_id, [])
        for idx, stmt in enumerate(m.statements()):
            if isinstance(stmt, New):
                site_name = f"{m.qualified}@{idx}:new {stmt.cls}"
                h = tables["H"].ids[site_name]
                rels["vP0"].append((vid(m, stmt.dst), h))
                rels["hT"].append((h, tables["T"].intern(stmt.cls)))
                facts.site_method[h] = m_id
                alloc_list.append(h)
            elif isinstance(stmt, Copy):
                d, s = vid(m, stmt.dst), vid(m, stmt.src)
                if d != s:
                    rels["assign0"].append((d, s))
            elif isinstance(stmt, Cast):
                d, s = vid(m, stmt.dst), vid(m, stmt.src)
                if d != s:
                    rels["assign0"].append((d, s))
                rels["castOp"].append((d, tables["T"].intern(stmt.type), s))
            elif isinstance(stmt, Load):
                base_type = var_types[rep_key(m, stmt.base)]
                rels["load"].append(
                    (vid(m, stmt.base), fid(base_type, stmt.field), vid(m, stmt.dst))
                )
            elif isinstance(stmt, Store):
                base_type = var_types[rep_key(m, stmt.base)]
                rels["store"].append(
                    (vid(m, stmt.base), fid(base_type, stmt.field), vid(m, stmt.src))
                )
            elif isinstance(stmt, StaticLoad):
                rels["load"].append(
                    (global_v, fid(stmt.cls, stmt.field), vid(m, stmt.dst))
                )
            elif isinstance(stmt, StaticStore):
                rels["store"].append(
                    (global_v, fid(stmt.cls, stmt.field), vid(m, stmt.src))
                )
            elif isinstance(stmt, Invoke):
                site_name = f"{m.qualified}@{idx}:call {stmt.name}"
                i = tables["I"].intern(site_name)
                facts.site_method[i] = m_id
                if stmt.static_cls is not None:
                    target = program.cls(stmt.static_cls).methods[stmt.name]
                    rels["IE0"].append((i, tables["M"].ids[target.qualified]))
                    rels["mI"].append((m_id, i, tables["N"].ids[NULL_NAME]))
                else:
                    rels["mI"].append((m_id, i, tables["N"].intern(stmt.name)))
                    rels["actual"].append((i, 0, vid(m, stmt.base)))
                for pos, arg in enumerate(stmt.args, start=1):
                    rels["actual"].append((i, pos, vid(m, arg)))
                    max_arity = max(max_arity, pos + 1)
                if stmt.dst is not None:
                    rels["Iret"].append((i, vid(m, stmt.dst)))
            elif isinstance(stmt, Return):
                rels["Mret"].append((m_id, vid(m, stmt.var)))
            elif isinstance(stmt, Throw):
                rels["assign0"].append(
                    (thrown_var[m.qualified], vid(m, stmt.var))
                )
            elif isinstance(stmt, Sync):
                rels["sync"].append((vid(m, stmt.var),))

    facts.max_arity = max_arity
    # IH: the identity embedding of H into I ("H is a subset of I") used by
    # rules (14)/(20) to read an allocation's context out of IEC.
    rels["IH"] = [(h, h) for h in range(len(tables["H"]))]
    facts.maps = {dom: table.names for dom, table in tables.items()}
    facts.relations = {name: sorted(set(tuples)) for name, tuples in rels.items()}
    facts.entry_ids = sorted(
        tables["M"].ids[m.qualified] for m in program.entry_methods()
    )
    facts.var_reps = {
        f"{method}:{var}": tables["V"].ids[key]
        for (method, var), key in reps.items()
    }
    # Thread allocation sites, with the run() method each one starts.
    type_names = facts.maps["T"]
    for h, t in facts.relations["hT"]:
        cls = type_names[t]
        if cls == OBJECT or not hierarchy.is_thread_type(cls):
            continue
        run = hierarchy.resolve(cls, "run")
        if run is not None:
            facts.thread_sites.append((h, tables["M"].ids[run.qualified]))
    return facts
