"""The narrow BDD kernel API: :class:`BddKernel` plus the backend registry.

The paper's relational layer (Section 2.4.2) treats the BDD package as a
substrate hidden behind a stable relational API — bddbddb swaps physical
domain layouts and variable orders freely precisely because no consumer
reaches into the kernel's node tables.  This module is that seam for the
reproduction:

* :class:`BddKernel` — the documented abstract interface every backend
  implements.  The datalog solver, relations, serializer, checkpointing
  and the serve engine talk **only** to this surface
  (enforced by ``tests/bdd/test_api_boundary.py``).
* a **backend registry** — named factories resolved lazily by module
  path, so importing :mod:`repro.bdd` never pays for backends it does
  not use and no module outside ``repro/bdd/backends/`` ever imports a
  backend's internals.
* :func:`create_kernel` — the factory every consumer calls.  Backend
  selection order: explicit ``backend=`` argument, then the
  ``REPRO_BDD_BACKEND`` environment variable, then ``"packed"``.

Built-in backends
-----------------

``reference``
    The original recursive implementation with per-operation dict caches
    (tuple keys).  Simple, obviously correct, and the semantics oracle
    for the differential harness.
``packed`` (the default)
    The optimized backend: packed-integer cache keys (no tuple
    allocation on the hot path), one unified operation cache with
    clear-on-overflow, and depth-safe ``apply`` / ``exist`` /
    ``rel_prod`` / ``ite`` / ``replace``: closure-form recursion on
    arenas narrow enough for the interpreter's recursion limit,
    explicit-stack loops on wider ones, so no diagram can hit
    ``RecursionError``.

The contract is what the pipeline calls: the relational operations
Datalog rules compile to (``rel_prod``, ``exist``, ``replace``,
``and_``, ``or_``, ``diff``), the finite-domain encoders, garbage collection and the
serialization hooks, plus ``not_`` / ``ite`` / ``support`` /
``var_of``, which the ``replace`` ite path, ``sat_count`` and
:mod:`repro.bdd.reorder` use.

All backends build *identical* reduced ordered BDDs for the same
variable order, so serialized artifacts (``.ptdb`` databases,
checkpoints) are bit-identical regardless of which backend produced
them — see ``repro/bench/differential.py``.
"""

from __future__ import annotations

import importlib
import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "BDDError",
    "BddKernel",
    "DEFAULT_BACKEND",
    "FALSE",
    "TRUE",
    "available_backends",
    "create_kernel",
    "get_backend_class",
    "register_backend",
    "resolve_backend_name",
]

FALSE = 0
TRUE = 1

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BDD_BACKEND"

DEFAULT_BACKEND = "packed"


class BDDError(Exception):
    """Raised on structurally invalid BDD operations."""


class BddKernel(ABC):
    """The kernel contract: a shared, reduced, ordered BDD node arena.

    Nodes are integer handles; handle ``0`` is the ``FALSE`` terminal and
    ``1`` is ``TRUE``.  Variables are identified directly by their
    *level* (smaller level = closer to the root); a change of order is a
    rebuild under a new level assignment (:mod:`repro.bdd.reorder`).

    Implementations must be *canonical*: structurally equal functions
    under the same variable order share one handle, and two backends
    given the same operation sequence produce structurally identical
    diagrams (handles may differ; serialized forms may not).

    Statistics attributes every backend maintains:

    ``num_vars``            number of variable levels
    ``peak_nodes``          high-water arena size (including terminals)
    ``op_count``            cache-missing operation expansions
    ``gc_count``            completed :meth:`collect_garbage` runs
    ``cache_limit``         soft cap on operation-cache entries (or None)
    ``cache_clears``        clear-on-overflow events
    ``peak_cache_entries``  high-water operation-cache entry count
    ``backend_name``        registry name of the backend (class attribute)

    Relational operations are not counted here: one layer above, the
    plan executor keeps one execution record per executed plan (per-op
    counts and the ``op_count`` spent in it), which ``SolveStats.plan_ops``
    sums by op kind.
    """

    #: Registry name; concrete backends override this.
    backend_name: str = "abstract"

    num_vars: int
    peak_nodes: int
    op_count: int
    gc_count: int
    cache_limit: Optional[int]
    cache_clears: int
    peak_cache_entries: int

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def var_of(self, u: int) -> int:
        """Level of the root variable of ``u`` (sentinel for terminals)."""

    @abstractmethod
    def low(self, u: int) -> int:
        """Low (else) child of ``u``."""

    @abstractmethod
    def high(self, u: int) -> int:
        """High (then) child of ``u``."""

    @abstractmethod
    def node_count(self) -> int:
        """Number of allocated nodes, including the two terminals."""

    @abstractmethod
    def mk(self, var: int, low: int, high: int) -> int:
        """Return the (reduced, hash-consed) node ``(var, low, high)``."""

    @abstractmethod
    def var_bdd(self, var: int) -> int:
        """BDD for the single positive literal ``var``."""

    @abstractmethod
    def nvar_bdd(self, var: int) -> int:
        """BDD for the single negative literal ``var``."""

    @abstractmethod
    def cube(self, literals: Iterable[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(level, positive)`` pairs."""

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    @abstractmethod
    def and_(self, a: int, b: int) -> int:
        """Conjunction."""

    @abstractmethod
    def or_(self, a: int, b: int) -> int:
        """Disjunction."""

    @abstractmethod
    def diff(self, a: int, b: int) -> int:
        """``a AND NOT b`` — the relational difference."""

    @abstractmethod
    def not_(self, a: int) -> int:
        """Negation."""

    @abstractmethod
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``, order-correct."""

    # ------------------------------------------------------------------
    # Quantification, relational product, renaming
    # ------------------------------------------------------------------

    @abstractmethod
    def varset(self, levels: Iterable[int]) -> int:
        """Intern a set of levels for quantification; returns a varset id."""

    @abstractmethod
    def exist(self, u: int, varset_id: int) -> int:
        """Existentially quantify the varset's levels out of ``u``."""

    @abstractmethod
    def rel_prod(self, a: int, b: int, varset_id: int) -> int:
        """``exist(varset, a AND b)`` fused into one pass — the workhorse
        of Datalog rule application (Section 2.4.2)."""

    @abstractmethod
    def replace_map(self, mapping: Dict[int, int]) -> int:
        """Intern an injective level-renaming map; returns a map id."""

    @abstractmethod
    def replace(self, u: int, map_id: int) -> int:
        """Rename variables of ``u`` according to an interned mapping."""

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------

    @abstractmethod
    def support(self, u: int) -> frozenset:
        """Set of levels appearing in ``u``."""

    @abstractmethod
    def sat_count(self, u: int, levels: Sequence[int]) -> int:
        """Exact number of satisfying assignments over ``levels``
        (a superset of the support of ``u``)."""

    @abstractmethod
    def iter_assignments(self, u: int, levels: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """Yield all satisfying assignments as bit tuples over ``levels``."""

    # ------------------------------------------------------------------
    # Memory management and instrumentation
    # ------------------------------------------------------------------

    @abstractmethod
    def collect_garbage(self, roots: Iterable[int]) -> Dict[int, int]:
        """Mark-and-sweep keeping nodes reachable from ``roots``; returns
        an old-handle -> new-handle mapping every held handle must be
        remapped through.  All operation caches are invalidated."""

    @abstractmethod
    def cache_entries(self) -> int:
        """Total entries across the operation caches (memory pressure)."""

    @abstractmethod
    def clear_caches(self) -> None:
        """Drop operation caches (overflow, GC, rebuilds)."""

    @abstractmethod
    def trim_caches(self) -> None:
        """Clear-on-overflow: record the peak entry count, and clear the
        caches (one ``cache_clears``) when they exceed ``cache_limit``."""

    @abstractmethod
    def set_watchdog(self, callback: Callable[[], None], stride: int = 2048) -> None:
        """Install a cooperative check run every ``stride`` new nodes.
        The callback may raise to abort the in-flight operation; the
        arena stays structurally consistent."""

    @abstractmethod
    def clear_watchdog(self) -> None:
        """Remove the cooperative watchdog."""

    # ------------------------------------------------------------------
    # Serialization hooks
    # ------------------------------------------------------------------
    # export_nodes/import_nodes are the serialize hooks: dump formats the
    # first's output, load feeds the second, so any conforming backend
    # round-trips through repro.bdd.serialize unchanged (same canonical
    # bytes).

    @abstractmethod
    def export_nodes(
        self, roots: Sequence[int]
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The nodes under ``roots`` in canonical order.

        Returns ``(levels, lows, highs, root_ids)``.  Nodes come in DFS
        post-order (low subtree, high subtree, node; shared nodes once)
        and get canonical ids ``2, 3, ...`` in that order; ``lows``,
        ``highs`` and ``root_ids`` are canonical ids (``0``/``1`` for the
        terminals), so the result depends only on the diagrams' structure.
        """

    @abstractmethod
    def import_nodes(
        self,
        levels: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        handles: List[int],
    ) -> None:
        """The bulk form of :meth:`mk`: rebuild exported nodes in order.

        ``lows``/``highs`` index ``handles``, which maps canonical ids to
        this kernel's handles (``[FALSE, TRUE, ...]``); each rebuilt
        node's handle is appended to it.  Every part of ``mk``'s contract
        holds: reduction, hash-consing, the level check, ``peak_nodes``
        and the watchdog / fault-injection / cache-trim service.
        """


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

# name -> "module.path:ClassName" (resolved lazily) or an already-loaded
# kernel class (registered programmatically, e.g. by tests).
_REGISTRY: Dict[str, object] = {
    "reference": "repro.bdd.backends.reference:ReferenceBDD",
    "packed": "repro.bdd.backends.packed:PackedBDD",
}


def register_backend(name: str, target) -> None:
    """Register a backend under ``name``.

    ``target`` is either a :class:`BddKernel` subclass or a lazy
    ``"module.path:ClassName"`` string.  Re-registering a name replaces
    the previous entry (tests use this to inject instrumented kernels).
    """
    if not name or not isinstance(name, str):
        raise BDDError(f"backend name must be a non-empty string, got {name!r}")
    if not isinstance(target, str):
        if not (isinstance(target, type) and issubclass(target, BddKernel)):
            raise BDDError(
                f"backend {name!r} must be a BddKernel subclass or a "
                f"'module:Class' string, got {target!r}"
            )
    _REGISTRY[name] = target


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def resolve_backend_name(backend: Optional[str] = None) -> str:
    """The backend name an explicit/env/default selection resolves to.

    ``backend=None`` falls back to ``$REPRO_BDD_BACKEND``, then to
    ``"packed"``.  Unknown names raise :class:`BDDError` listing the
    registered alternatives (typo-proofing for CLI/env selection).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if backend not in _REGISTRY:
        raise BDDError(
            f"unknown BDD backend {backend!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return backend


def get_backend_class(backend: Optional[str] = None):
    """The kernel class for ``backend`` (resolved like
    :func:`resolve_backend_name`), importing it on first use."""
    name = resolve_backend_name(backend)
    target = _REGISTRY[name]
    if isinstance(target, str):
        module_path, _, attr = target.partition(":")
        module = importlib.import_module(module_path)
        target = getattr(module, attr)
        _REGISTRY[name] = target
    return target


def create_kernel(
    num_vars: int = 0,
    cache_limit: Optional[int] = 2_000_000,
    backend: Optional[str] = None,
) -> "BddKernel":
    """Build a kernel instance — the factory every consumer goes through.

    Selection order: the ``backend`` argument, then the
    ``REPRO_BDD_BACKEND`` environment variable, then ``"packed"``.
    """
    cls = get_backend_class(backend)
    return cls(num_vars=num_vars, cache_limit=cache_limit)
