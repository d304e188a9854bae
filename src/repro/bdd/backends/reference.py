"""Reference BDD backend: the original recursive implementation.

This is the kernel the repository grew up with (Bryant 1986, Section
2.4.2 of Whaley & Lam), moved behind :class:`repro.bdd.api.BddKernel`
unchanged in semantics: per-operation dict caches with tuple keys and
straightforward recursive ``apply`` / ``exist`` / ``rel_prod``.  It is
the correctness oracle the differential harness and the randomized
property suite compare the optimized ``packed`` backend against.

Nodes are stored in parallel arrays indexed by integer handles; handle
``0`` is the ``FALSE`` terminal and handle ``1`` is ``TRUE``.  Variables
are identified directly by their *level*: a smaller level is closer to
the root.  A different order means re-assigning the levels of
finite-domain bits (see :mod:`repro.bdd.ordering`) and rebuilding, as
bddbddb restarts with a fresh order during its offline order search.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...runtime import faults
from ..api import FALSE, TRUE, BDDError, BddKernel

__all__ = ["ReferenceBDD"]

# Operator codes for the binary ``apply`` cache.
_OP_AND = 0
_OP_OR = 1
_OP_DIFF = 2

# Terminal result tables for the binary operators, indexed [op][a][b] where
# a/b are 0/1 terminals.  ``None`` marks non-terminal combinations.
_TERMINAL = {
    _OP_AND: {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    _OP_OR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    _OP_DIFF: {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0},
}


class ReferenceBDD(BddKernel):
    """A shared, reduced, ordered BDD node arena (recursive backend).

    Parameters
    ----------
    num_vars:
        Number of boolean variables (levels).
    cache_limit:
        Soft cap on the total number of operation-cache entries.  The
        caches are checked every ``_watchdog_stride`` freshly allocated
        nodes and cleared wholesale when they exceed the cap
        (clear-on-overflow — entries are cheap to recompute, and a full
        clear keeps the check O(1) on the hot path).  ``None`` disables
        the cap.
    """

    backend_name = "reference"

    def __init__(self, num_vars: int = 0, cache_limit: Optional[int] = 2_000_000) -> None:
        if num_vars < 0:
            raise BDDError("num_vars must be non-negative")
        self.num_vars = num_vars
        # Parallel node arrays.  Terminals occupy slots 0 and 1; their level
        # is a sentinel greater than any real variable level so that
        # ``min(level(a), level(b))`` picks real variables first.
        self._var: List[int] = [sys.maxsize, sys.maxsize]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Operation caches.
        self._apply_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._exist_cache: Dict[Tuple[int, int], int] = {}
        self._relprod_cache: Dict[Tuple[int, int, int], int] = {}
        self._replace_cache: Dict[Tuple[int, int], int] = {}
        # Persistent model-count cache keyed ``(varset_id, node)``: the
        # per-node count depends only on the level-position map, which the
        # interned varset determines, so entries stay valid across calls
        # until handles are remapped (GC) or caches are trimmed.
        self._satcount_cache: Dict[Tuple[int, int], int] = {}
        # Interned variable sets for quantification: id -> frozenset(levels)
        self._varsets: List[frozenset] = []
        self._varset_ids: Dict[frozenset, int] = {}
        # Interned replace mappings: id -> dict(level -> level)
        self._replace_maps: List[Dict[int, int]] = []
        self._replace_map_keys: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._replace_map_safe: List[bool] = []
        # Statistics.
        self.peak_nodes = 2
        self.gc_count = 0
        self.op_count = 0
        self.cache_limit = cache_limit
        self.cache_clears = 0
        self.peak_cache_entries = 0
        # Cooperative watchdog (see repro.runtime.budget): called every
        # ``_watchdog_stride`` freshly allocated nodes from inside ``mk``,
        # so runaway apply/rel_prod recursions are interrupted while they
        # grow.  The same stride drives the cache cap and the ``bdd.mk``
        # fault-injection point, keeping the hot path to one counter
        # increment and compare.
        self._watchdog: Optional[Callable[[], None]] = None
        # With faults armed the stride drops so the ``bdd.mk`` injection
        # point fires even in arenas too small to reach the full stride.
        self._watchdog_stride = 64 if faults.armed else 2048
        self._watchdog_tick = 0

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------

    def var_of(self, u: int) -> int:
        """Level of the root variable of ``u`` (sentinel for terminals)."""
        return self._var[u]

    def low(self, u: int) -> int:
        return self._low[u]

    def high(self, u: int) -> int:
        return self._high[u]

    def node_count(self) -> int:
        """Number of allocated nodes, including the two terminals."""
        return len(self._var)

    def mk(self, var: int, low: int, high: int) -> int:
        """Return the (reduced, hash-consed) node ``(var, low, high)``."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if not 0 <= var < self.num_vars:
            raise BDDError(f"variable level {var} out of range 0..{self.num_vars - 1}")
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        if node + 1 > self.peak_nodes:
            self.peak_nodes = node + 1
        self._watchdog_tick += 1
        if self._watchdog_tick >= self._watchdog_stride:
            self._watchdog_tick = 0
            if faults.armed:
                faults.fire("bdd.mk")
            if self.cache_limit is not None:
                self.trim_caches()
            if self._watchdog is not None:
                self._watchdog()
        return node

    def export_nodes(
        self, roots: Sequence[int]
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        var, low, high = self._var, self._low, self._high
        canon: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        levels: List[int] = []
        lows: List[int] = []
        highs: List[int] = []
        for root in roots:
            if root in canon:
                continue
            # The stack is a root-to-node path (a DAG has no node twice on
            # one), so a node is done when both children have ids.
            stack = [root]
            while stack:
                node = stack[-1]
                lo = low[node]
                if lo not in canon:
                    stack.append(lo)
                    continue
                hi = high[node]
                if hi not in canon:
                    stack.append(hi)
                    continue
                stack.pop()
                canon[node] = len(levels) + 2
                levels.append(var[node])
                lows.append(canon[lo])
                highs.append(canon[hi])
        return levels, lows, highs, [canon[root] for root in roots]

    def import_nodes(
        self,
        levels: Sequence[int],
        lows: Sequence[int],
        highs: Sequence[int],
        handles: List[int],
    ) -> None:
        mk = self.mk
        append = handles.append
        for level, lo, hi in zip(levels, lows, highs):
            append(mk(level, handles[lo], handles[hi]))

    def set_watchdog(self, callback: Callable[[], None], stride: int = 2048) -> None:
        """Install a cooperative check run every ``stride`` new nodes.

        The callback may raise to abort the in-flight operation; the arena
        stays structurally consistent (nodes already interned survive, and
        no operation cache entry is written for an aborted recursion).
        """
        if stride < 1:
            raise BDDError("watchdog stride must be positive")
        self._watchdog = callback
        self._watchdog_stride = stride
        self._watchdog_tick = 0

    def clear_watchdog(self) -> None:
        self._watchdog = None

    def var_bdd(self, var: int) -> int:
        """BDD for the single positive literal ``var``."""
        return self.mk(var, FALSE, TRUE)

    def nvar_bdd(self, var: int) -> int:
        """BDD for the single negative literal ``var``."""
        return self.mk(var, TRUE, FALSE)

    def cube(self, literals: Iterable[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(level, positive)`` pairs."""
        result = TRUE
        for var, positive in sorted(literals, reverse=True):
            if positive:
                result = self.mk(var, FALSE, result)
            else:
                result = self.mk(var, result, FALSE)
        return result

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    def _apply(self, op: int, a: int, b: int) -> int:
        terminal = _TERMINAL[op]
        # Normalize commutative operators so (a, b) and (b, a) share a slot.
        if op != _OP_DIFF and a > b:
            a, b = b, a
        if a < 2 and b < 2:
            return terminal[(a, b)]
        # Cheap absorption shortcuts.
        if op == _OP_AND:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == b:
                return a
        elif op == _OP_OR:
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
        elif op == _OP_DIFF:
            if a == FALSE or b == TRUE or a == b:
                return FALSE
            if b == FALSE:
                return a
        key = (op, a, b)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        va, vb = self._var[a], self._var[b]
        if va == vb:
            low = self._apply(op, self._low[a], self._low[b])
            high = self._apply(op, self._high[a], self._high[b])
            result = self.mk(va, low, high)
        elif va < vb:
            low = self._apply(op, self._low[a], b)
            high = self._apply(op, self._high[a], b)
            result = self.mk(va, low, high)
        else:
            low = self._apply(op, a, self._low[b])
            high = self._apply(op, a, self._high[b])
            result = self.mk(vb, low, high)
        self._apply_cache[key] = result
        return result

    def and_(self, a: int, b: int) -> int:
        return self._apply(_OP_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self._apply(_OP_OR, a, b)

    def diff(self, a: int, b: int) -> int:
        """``a AND NOT b`` — the relational difference."""
        return self._apply(_OP_DIFF, a, b)

    def not_(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        result = self.mk(self._var[a], self.not_(self._low[a]), self.not_(self._high[a]))
        self._not_cache[a] = result
        self._not_cache[result] = a
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``, order-correct."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self.not_(f)
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        v = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = (self._low[f], self._high[f]) if self._var[f] == v else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if self._var[g] == v else (g, g)
        h0, h1 = (self._low[h], self._high[h]) if self._var[h] == v else (h, h)
        result = self.mk(v, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Quantification and relational product
    # ------------------------------------------------------------------

    def varset(self, levels: Iterable[int]) -> int:
        """Intern a set of levels for quantification; returns a varset id."""
        fs = frozenset(levels)
        vid = self._varset_ids.get(fs)
        if vid is None:
            vid = len(self._varsets)
            self._varsets.append(fs)
            self._varset_ids[fs] = vid
        return vid

    def exist(self, u: int, varset_id: int) -> int:
        """Existentially quantify the varset's levels out of ``u``."""
        levels = self._varsets[varset_id]
        if not levels:
            return u
        max_level = max(levels)
        return self._exist(u, varset_id, levels, max_level)

    def _exist(self, u: int, vid: int, levels: frozenset, max_level: int) -> int:
        if u < 2:
            return u
        v = self._var[u]
        if v > max_level:
            return u
        key = (u, vid)
        cached = self._exist_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        low = self._exist(self._low[u], vid, levels, max_level)
        high = self._exist(self._high[u], vid, levels, max_level)
        if v in levels:
            result = self.or_(low, high)
        else:
            result = self.mk(v, low, high)
        self._exist_cache[key] = result
        return result

    def rel_prod(self, a: int, b: int, varset_id: int) -> int:
        """``exist(varset, a AND b)`` computed in one fused recursion.

        This is the workhorse of Datalog rule application: a natural join
        followed by projecting away the join attributes (Section 2.4.2).
        """
        levels = self._varsets[varset_id]
        if not levels:
            return self.and_(a, b)
        max_level = max(levels)
        return self._rel_prod(a, b, varset_id, levels, max_level)

    def _rel_prod(self, a: int, b: int, vid: int, levels: frozenset, max_level: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE and b == TRUE:
            return TRUE
        if a == TRUE:
            return self._exist(b, vid, levels, max_level)
        if b == TRUE:
            return self._exist(a, vid, levels, max_level)
        if a > b:  # AND is commutative; canonicalize the cache key.
            a, b = b, a
        key = (a, b, vid)
        cached = self._relprod_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        va, vb = self._var[a], self._var[b]
        v = va if va < vb else vb
        if va == vb:
            a0, a1 = self._low[a], self._high[a]
            b0, b1 = self._low[b], self._high[b]
        elif va < vb:
            a0, a1 = self._low[a], self._high[a]
            b0 = b1 = b
        else:
            a0 = a1 = a
            b0, b1 = self._low[b], self._high[b]
        if v > max_level:
            # No quantified variable can appear below this point.
            result = self.and_(a, b)
        else:
            r0 = self._rel_prod(a0, b0, vid, levels, max_level)
            r1 = self._rel_prod(a1, b1, vid, levels, max_level)
            if v in levels:
                result = self.or_(r0, r1)
            else:
                result = self.mk(v, r0, r1)
        self._relprod_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Renaming (replace)
    # ------------------------------------------------------------------

    def replace_map(self, mapping: Dict[int, int]) -> int:
        """Intern a level-renaming map; returns a map id.

        The mapping must be injective.  A fast structural check decides
        whether the straightforward ``mk``-based recursion preserves the
        variable order; if not, :meth:`replace` falls back to an
        order-correcting ``ite`` rebuild.
        """
        items = tuple(sorted(mapping.items()))
        mid = self._replace_map_keys.get(items)
        if mid is not None:
            return mid
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise BDDError("replace mapping must be injective")
        mid = len(self._replace_maps)
        self._replace_maps.append(dict(mapping))
        self._replace_map_keys[items] = mid
        self._replace_map_safe.append(self._mapping_is_order_safe(mapping))
        return mid

    def _mapping_is_order_safe(self, mapping: Dict[int, int]) -> bool:
        """True when the ``mk``-based replace recursion is order-correct.

        Sufficient conditions: the mapping is monotonic (sources and targets
        sort identically) and every level strictly between a source and its
        target is itself touched by the mapping, so no untouched variable
        can be "crossed" by a rename.
        """
        items = sorted(mapping.items())
        targets = [t for _, t in items]
        if targets != sorted(targets):
            return False
        touched = set(mapping.keys()) | set(mapping.values())
        for s, t in items:
            lo, hi = (s, t) if s < t else (t, s)
            for level in range(lo + 1, hi):
                if level not in touched:
                    return False
        return True

    def replace(self, u: int, map_id: int) -> int:
        """Rename variables of ``u`` according to an interned mapping."""
        mapping = self._replace_maps[map_id]
        if not mapping or u < 2:
            return u
        if self._replace_map_safe[map_id]:
            return self._replace_fast(u, map_id, mapping)
        return self._replace_ite(u, map_id, mapping)

    def _replace_fast(self, u: int, mid: int, mapping: Dict[int, int]) -> int:
        if u < 2:
            return u
        key = (u, mid)
        cached = self._replace_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        v = self._var[u]
        nv = mapping.get(v, v)
        result = self.mk(
            nv,
            self._replace_fast(self._low[u], mid, mapping),
            self._replace_fast(self._high[u], mid, mapping),
        )
        self._replace_cache[key] = result
        return result

    def _replace_ite(self, u: int, mid: int, mapping: Dict[int, int]) -> int:
        if u < 2:
            return u
        key = (u, mid)
        cached = self._replace_cache.get(key)
        if cached is not None:
            return cached
        self.op_count += 1
        v = self._var[u]
        nv = mapping.get(v, v)
        low = self._replace_ite(self._low[u], mid, mapping)
        high = self._replace_ite(self._high[u], mid, mapping)
        result = self.ite(self.var_bdd(nv), high, low)
        self._replace_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------

    def support(self, u: int) -> frozenset:
        """Set of levels appearing in ``u``."""
        seen: set = set()
        levels: set = set()
        stack = [u]
        while stack:
            n = stack.pop()
            if n < 2 or n in seen:
                continue
            seen.add(n)
            levels.add(self._var[n])
            stack.append(self._low[n])
            stack.append(self._high[n])
        return frozenset(levels)

    def sat_count(self, u: int, levels: Sequence[int]) -> int:
        """Number of satisfying assignments over exactly ``levels``.

        ``levels`` must be a superset of the support of ``u``.  Python's
        arbitrary-precision integers make this exact even for the paper's
        10^14-context relations.  Per-node counts are cached persistently
        under the interned level set, so repeated counts over the same
        attribute set (the common case: solver statistics every
        iteration) are incremental.
        """
        order = sorted(set(levels))
        index = {lv: i for i, lv in enumerate(order)}
        n = len(order)
        sup = self.support(u)
        if not sup.issubset(index.keys()):
            missing = sorted(sup - set(index))
            raise BDDError(f"sat_count levels missing support levels {missing}")
        vid = self.varset(order)
        if u == FALSE:
            return 0
        if u == TRUE:
            return 1 << n
        var, low, high = self._var, self._low, self._high
        cache = self._satcount_cache
        # Post-order with an explicit stack.  ``cache[(vid, node)]``
        # counts the assignments of the levels from ``node``'s own down,
        # so a child's count is scaled by the levels skipped to reach it.
        stack = [u]
        while stack:
            node = stack[-1]
            lo, hi = low[node], high[node]
            lo_count = lo if lo < 2 else cache.get((vid, lo))
            hi_count = hi if hi < 2 else cache.get((vid, hi))
            if lo_count is None or hi_count is None:
                if hi_count is None:
                    stack.append(hi)
                if lo_count is None:
                    stack.append(lo)
                continue
            stack.pop()
            pos = index[var[node]]
            lo_pos = n if lo < 2 else index[var[lo]]
            hi_pos = n if hi < 2 else index[var[hi]]
            cache[(vid, node)] = (lo_count << (lo_pos - pos - 1)) + (
                hi_count << (hi_pos - pos - 1)
            )
        return cache[(vid, u)] << index[var[u]]

    # The cold paths are loops or methods, never closures that call
    # themselves: such a closure is a reference cycle, and one that also
    # captures ``self`` keeps the whole kernel alive until the next
    # cyclic garbage collection.

    def iter_assignments(self, u: int, levels: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """Yield all satisfying assignments as bit tuples over ``levels``.

        Bits are yielded in the order of ``levels`` as given.  Don't-care
        variables are expanded, so this is only suitable for relations of
        modest cardinality (e.g. reporting results).
        """
        order = sorted(set(levels))
        index = {lv: i for i, lv in enumerate(order)}
        n = len(order)
        sup = self.support(u)
        if not sup.issubset(index.keys()):
            missing = sorted(sup - set(index))
            raise BDDError(f"iter_assignments missing support levels {missing}")
        out_positions = [index[lv] for lv in levels]
        var, low, high = self._var, self._low, self._high
        # Depth-first with an explicit stack, low branch first.  A frame
        # ``(node, pos, bit)`` is reached with ``bits[pos - 1] = bit``;
        # ``bits[:pos - 1]`` still holds its path, because the frames
        # popped before it only wrote positions at or after ``pos - 1``.
        bits = [0] * n
        stack = [(u, 0, 0)]
        while stack:
            node, pos, bit = stack.pop()
            if pos:
                bits[pos - 1] = bit
            if node == FALSE:
                continue
            if pos == n:
                yield tuple(bits[p] for p in out_positions)
            elif node != TRUE and var[node] == order[pos]:
                stack.append((high[node], pos + 1, 1))
                stack.append((low[node], pos + 1, 0))
            else:
                stack.append((node, pos + 1, 1))
                stack.append((node, pos + 1, 0))

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def collect_garbage(self, roots: Iterable[int]) -> Dict[int, int]:
        """Mark-and-sweep: keep nodes reachable from ``roots``.

        Returns a mapping from old handles to new handles; every externally
        held handle **must** be remapped through it.  All operation caches
        are invalidated (their keys reference old handles).
        """
        reachable: set = {FALSE, TRUE}
        stack = [r for r in roots]
        while stack:
            n = stack.pop()
            if n in reachable:
                continue
            reachable.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        order = sorted(reachable)
        mapping = {old: new for new, old in enumerate(order)}
        new_var = [self._var[old] for old in order]
        new_low = [mapping[self._low[old]] for old in order]
        new_high = [mapping[self._high[old]] for old in order]
        self._var, self._low, self._high = new_var, new_low, new_high
        self._rebuild_unique()
        self.clear_caches()
        self.gc_count += 1
        return mapping

    def _rebuild_unique(self) -> None:
        """Rebuild the hash-cons table from the (compacted) node arrays."""
        self._unique = {
            (self._var[i], self._low[i], self._high[i]): i
            for i in range(2, len(self._var))
        }

    def cache_entries(self) -> int:
        """Total entries across the operation caches (memory pressure)."""
        return (
            len(self._apply_cache)
            + len(self._not_cache)
            + len(self._ite_cache)
            + len(self._exist_cache)
            + len(self._relprod_cache)
            + len(self._replace_cache)
            + len(self._satcount_cache)
        )

    def trim_caches(self) -> None:
        """Enforce ``cache_limit``: clear-on-overflow, peak recorded."""
        entries = self.cache_entries()
        if entries > self.peak_cache_entries:
            self.peak_cache_entries = entries
        if self.cache_limit is not None and entries > self.cache_limit:
            self.clear_caches()
            self.cache_clears += 1

    def clear_caches(self) -> None:
        """Drop operation caches (overflow, GC, rebuilds)."""
        entries = self.cache_entries()
        if entries > self.peak_cache_entries:
            self.peak_cache_entries = entries
        self._apply_cache.clear()
        self._not_cache.clear()
        self._ite_cache.clear()
        self._exist_cache.clear()
        self._relprod_cache.clear()
        self._replace_cache.clear()
        self._satcount_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} vars={self.num_vars} nodes={self.node_count()} "
            f"peak={self.peak_nodes} ops={self.op_count}>"
        )
