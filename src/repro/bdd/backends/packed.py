"""Packed BDD backend: packed-int cache keys + depth-safe iterative core.

Same semantics as :class:`~repro.bdd.backends.reference.ReferenceBDD`
(it subclasses it, so cold paths — cube/support/sat_count/GC/serialize —
are shared code), with the hot paths rebuilt for speed and robustness:

**Packed-integer cache keys.**  The reference backend keys its caches on
tuples, paying an allocation plus a tuple hash per lookup.  Here every
key is a single int: operands packed into 27-bit fields with the
operation tag above them.  27 bits per handle leaves headroom for 134M
nodes (the GC threshold grows arenas to a few million).  Layouts, with
``tag = key >> 54`` disambiguating:

====================  ===============================================
unique (own table)    ``(var << 54) | (low << 27) | high``
and/or/diff/xor       ``(op << 54) | (a << 27) | b``    (op in 0..3)
not                   ``(4 << 54) | a``                 (bidirectional)
ite                   ``(5 << 81) | (f << 54) | (g << 27) | h``
exist                 ``(6 << 54) | (vid << 27) | u``
rel_prod              ``(vid << 57) | (7 << 54) | (a << 27) | b``
replace               ``(8 << 54) | (mid << 27) | u``
====================  ===============================================

The shapes are disjoint under ``key >> 54``: apply/not/exist/replace
tags are the exact constants 0-4, 6, and 8; rel_prod yields ``7 + 8 *
vid`` (congruent to 7 mod 8, which none of the constants are); and ite
yields at least ``5 << 27`` (congruent to 0 mod 8, and far above any
realistic varset id).  All nine can therefore share **one unified
operation cache** (cleared wholesale on overflow, exactly like the
reference backend's clear-on-overflow policy).  The rel_prod layout
keeps the vid *above* a 3-bit tag rather than below a wide one so the
whole key stays within two 30-bit bigint digits for small varset ids —
key construction is pure small-int shifting on the hot path.

**Depth-safe hot loops.**  ``apply`` (and/or/diff/xor), ``ite``,
``exist``, ``rel_prod`` and ``replace`` recursion descends one variable
level per step, so its depth is bounded by the arena's variable count —
never by diagram size.  The backend exploits that bound adaptively:

* arenas at most :data:`_RECURSION_SAFE_VARS` variables wide (every
  analysis arena in this reproduction is well under it) run a
  *closure-form recursion*: the node arrays, the unified cache, and the
  unique table live in closure cells, node construction is inlined as a
  direct unique-table probe, and the watchdog / fault-injection tick is
  batched through a local counter.  This is substantially faster than
  the reference's method recursion because the hot state needs no
  attribute traffic and no ``mk`` call per node;
* wider arenas automatically switch to explicit-stack loops (all-int
  work/result stacks, frame kinds distinguished by the sign of the top
  word), which tolerate any depth.

Either way ``RecursionError`` is unreachable: the recursive form only
runs when its depth bound provably fits default interpreter limits, and
the stack form has no recursion at all.  Only ``not_`` always uses the
stack form (it is not solver-hot).
"""

from __future__ import annotations

import sys
import weakref
from types import FunctionType
from typing import Dict, List, Optional

from ...runtime import faults
from ..api import FALSE, TRUE, BDDError
from .reference import ReferenceBDD

__all__ = ["PackedBDD"]

_SHIFT = 27
_MASK = (1 << _SHIFT) - 1

_TAG_OR = 1 << 54
_TAG_NOT = 4 << 54
_TAG_ITE = 5 << 81
_TAG_EXIST = 6 << 54
_TAG_RELPROD = 7 << 54  # full tag per varset: (vid << 57) | _TAG_RELPROD
_TAG_REPLACE = 8 << 54

# Operator codes shared with the reference backend's apply.
_OP_AND = 0
_OP_OR = 1
_OP_DIFF = 2
_OP_XOR = 3

# Combine-frame markers (eval frames always start with a handle >= 0).
# Markers <= -3 encode the level of a pending mk as ``-3 - level``.
_CONST = -1
_OR = -2

# Widest arena for which the closure-form recursion is provably safe:
# apply/exist/rel_prod descend one level per step and may stack one
# nested or_/exist recursion on top, so worst-case interpreter depth is
# two frames per variable plus the caller's own frames.  The bound is
# derived from the interpreter's recursion limit at import, keeping
# ``_CALLER_FRAMES`` of it for the caller (400 variables under CPython's
# default limit of 1000).
_CALLER_FRAMES = 200
_RECURSION_SAFE_VARS = (sys.getrecursionlimit() - _CALLER_FRAMES) // 2


def _drop_closures(hot: Dict[object, object]) -> None:
    """Empty ``hot`` and break each compiled recursion's self-reference.

    A closure-form ``rec`` calls itself through its own closure cell, a
    cycle that reference counting never frees, and that cycle holds the
    node arrays, the unique table and the operation cache.  Each entry
    point shares the ``rec`` cell, so emptying an entry's function-valued
    cells releases all of it as soon as the last reference goes.
    """
    for entry in hot.values():
        for cell in entry.__closure__:
            if type(cell.cell_contents) is FunctionType:
                cell.cell_contents = None
    hot.clear()


class PackedBDD(ReferenceBDD):
    """Optimized BDD arena: unified packed-key cache, depth-safe hot loops."""

    backend_name = "packed"

    def __init__(self, num_vars: int = 0, cache_limit: Optional[int] = 2_000_000) -> None:
        super().__init__(num_vars=num_vars, cache_limit=cache_limit)
        if self.num_vars > _MASK:
            raise BDDError(f"packed backend supports at most {_MASK} variables")
        # One unified operation cache replaces the per-op tuple-key dicts.
        # The inherited dicts are deleted so any accidentally inherited
        # code path fails fast instead of silently using a dead cache.
        del self._apply_cache
        del self._not_cache
        del self._ite_cache
        del self._exist_cache
        del self._relprod_cache
        del self._replace_cache
        self._unique: Dict[int, int] = {}
        self._op_cache: Dict[int, int] = {}
        # Per-varset quantification flags: vid -> bytes indexed by level
        # (length max_level + 1).  Levels are stable across GC, so this
        # never needs invalidation.
        self._quant_flags: Dict[int, bytes] = {}
        # Per-varset (levels, max_level, rel_prod tag) memo: varsets are
        # interned and immutable, so this never needs invalidation either.
        # It spares the public exist/rel_prod entries a max() per call.
        self._vinfo: Dict[int, tuple] = {}
        # Compiled closure-form recursions, keyed by op code (apply) or
        # (kind, varset id) pairs (exist / rel_prod).  Each closure holds
        # the node arrays, unique table, and cache in cells, so it must
        # be dropped whenever those are rebound (GC) or the watchdog
        # stride changes — see ``_rebuild_unique`` / ``set_watchdog``.
        # The closures reach the kernel only through a weak proxy, so no
        # cycle runs through the kernel; the finalizer breaks the
        # closures' own cycles when the kernel goes.
        self._hot: Dict[object, object] = {}
        weakref.finalize(self, _drop_closures, self._hot).atexit = False

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------

    def add_vars(self, count: int) -> int:
        total = super().add_vars(count)
        if total > _MASK:
            raise BDDError(f"packed backend supports at most {_MASK} variables")
        _drop_closures(self._hot)  # replace closures capture the variable bound
        return total

    def mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var << 54) | (low << _SHIFT) | high
        node = self._unique.get(key)
        if node is not None:
            return node
        if not 0 <= var < self.num_vars:
            raise BDDError(f"variable level {var} out of range 0..{self.num_vars - 1}")
        node = len(self._var)
        if node > _MASK:
            raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        if node + 1 > self.peak_nodes:
            self.peak_nodes = node + 1
        self._watchdog_tick += 1
        if self._watchdog_tick >= self._watchdog_stride:
            self._watchdog_tick = 0
            self._mk_service()
        return node

    def import_nodes(self, levels, lows, highs, handles) -> None:
        # mk with the unique-table probe inlined (the load path of every
        # .ptdb, checkpoint and fixpoint bundle); the tick and peak are
        # flushed before each service call and on the way out.
        var, low, high = self._var, self._low, self._high
        unique = self._unique
        unique_get = unique.get
        num_vars = self.num_vars
        stride = self._watchdog_stride
        tick = self._watchdog_tick
        append = handles.append
        try:
            for v, lo, hi in zip(levels, lows, highs):
                lo = handles[lo]
                hi = handles[hi]
                if lo == hi:
                    append(lo)
                    continue
                key = (v << 54) | (lo << _SHIFT) | hi
                r = unique_get(key)
                if r is None:
                    if not 0 <= v < num_vars:
                        raise BDDError(
                            f"variable level {v} out of range 0..{num_vars - 1}"
                        )
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(v)
                    low.append(lo)
                    high.append(hi)
                    unique[key] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        self._watchdog_tick = 0
                        if r + 1 > self.peak_nodes:
                            self.peak_nodes = r + 1
                        self._mk_service()
                append(r)
        finally:
            self._watchdog_tick = tick
            if len(var) > self.peak_nodes:
                self.peak_nodes = len(var)

    def _mk_service(self) -> None:
        """Periodic work run every ``_watchdog_stride`` fresh nodes.

        Shared by :meth:`mk` and the inlined node construction inside the
        hot loops; may raise (fault injection, watchdog abort), in which
        case the in-flight operation unwinds without writing a cache
        entry for the aborted frame — same contract as the reference
        backend.  Counters are flushed before it runs, so a watchdog
        callback observes live statistics.
        """
        if faults.armed:
            faults.fire("bdd.mk")
        if self.cache_limit is not None:
            self.trim_caches()
        if self._watchdog is not None:
            self._watchdog()

    def _rebuild_unique(self) -> None:
        self._unique = {
            (self._var[i] << 54) | (self._low[i] << _SHIFT) | self._high[i]: i
            for i in range(2, len(self._var))
        }
        # GC rebinds the node arrays and the unique table; compiled
        # closures hold the old objects in cells and must be rebuilt.
        _drop_closures(self._hot)

    def set_watchdog(self, callback, stride: int = 2048) -> None:
        old_stride = self._watchdog_stride
        super().set_watchdog(callback, stride)
        if stride != old_stride:
            _drop_closures(self._hot)  # closures capture the stride

    def _quant(self, vid: int, levels: frozenset, max_level: int) -> bytes:
        flags = self._quant_flags.get(vid)
        if flags is None:
            flags = bytes(1 if i in levels else 0 for i in range(max_level + 1))
            self._quant_flags[vid] = flags
        return flags

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    # Each public entry resolves shortcuts and probes the cache inline;
    # only genuine misses pay the setup cost in ``_apply``.

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a < 2:
            return b if a else FALSE
        if a == b:
            return a
        r = self._op_cache.get((a << _SHIFT) | b)
        if r is not None:
            return r
        return self._apply(_OP_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if b == 1:
            return TRUE
        if a < 2:
            return b if a == 0 else TRUE
        if a == b:
            return a
        r = self._op_cache.get((1 << 54) | (a << _SHIFT) | b)
        if r is not None:
            return r
        return self._apply(_OP_OR, a, b)

    def diff(self, a: int, b: int) -> int:
        if a == FALSE or b == TRUE or a == b:
            return FALSE
        if b == FALSE:
            return a
        r = self._op_cache.get((2 << 54) | (a << _SHIFT) | b)
        if r is not None:
            return r
        return self._apply(_OP_DIFF, a, b)

    def xor(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == FALSE:
            return b
        if a == b:
            return FALSE
        r = self._op_cache.get((3 << 54) | (a << _SHIFT) | b)
        if r is not None:
            return r
        return self._apply(_OP_XOR, a, b)

    def _apply(self, op: int, a: int, b: int) -> int:
        if self.num_vars > _RECURSION_SAFE_VARS:
            return self._apply_loop(op, a, b)
        fn = self._hot.get(op)
        if fn is None:
            fn = self._hot[op] = self._make_apply(op)
        return fn(a, b)

    def _make_apply(self, op: int):
        """Compile the closure-form recursion for one apply operator.

        All hot state (node arrays, unique table, unified cache, watchdog
        stride) lives in closure cells; the returned entry point syncs
        the op/tick counters with the instance around each top-level
        call, so watchdog callbacks and fault hooks observe live values.

        ``rec`` takes an already-canonicalized, shortcut-free operand
        pair together with its *prebuilt* cache key, and resolves each
        cofactor pair inline — shortcut compares plus one cache probe —
        recursing only on a genuine miss and handing the probed key
        down.  Every node pair therefore pays exactly one key
        construction and one cache probe, and shortcut/hit children
        never pay a call at all.
        """
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        tag = op << 54
        is_and = op == _OP_AND
        is_or = op == _OP_OR
        is_diff = op == _OP_DIFF
        kernel = weakref.proxy(self)
        ops = 0
        tick = 0
        stride = self._watchdog_stride

        def rec(a: int, b: int, key: int) -> int:
            nonlocal ops, tick
            ops += 1
            va = var[a]
            vb = var[b]
            if va < vb:
                v = va
                a0, a1, b0, b1 = low[a], high[a], b, b
            elif vb < va:
                v = vb
                a0, a1, b0, b1 = a, a, low[b], high[b]
            else:
                v = va
                a0, a1, b0, b1 = low[a], high[a], low[b], high[b]
            if is_and:
                if a0 > b0:
                    a0, b0 = b0, a0
                if a0 < 2:
                    lo = b0 if a0 else 0
                elif a0 == b0:
                    lo = a0
                else:
                    ckey = (a0 << 27) | b0
                    lo = cache_get(ckey)
                    if lo is None:
                        lo = rec(a0, b0, ckey)
                if a1 > b1:
                    a1, b1 = b1, a1
                if a1 < 2:
                    hi = b1 if a1 else 0
                elif a1 == b1:
                    hi = a1
                else:
                    ckey = (a1 << 27) | b1
                    hi = cache_get(ckey)
                    if hi is None:
                        hi = rec(a1, b1, ckey)
            elif is_or:
                if a0 > b0:
                    a0, b0 = b0, a0
                if b0 == 1:
                    lo = 1
                elif a0 < 2:
                    lo = b0 if a0 == 0 else 1
                elif a0 == b0:
                    lo = a0
                else:
                    ckey = tag | (a0 << 27) | b0
                    lo = cache_get(ckey)
                    if lo is None:
                        lo = rec(a0, b0, ckey)
                if a1 > b1:
                    a1, b1 = b1, a1
                if b1 == 1:
                    hi = 1
                elif a1 < 2:
                    hi = b1 if a1 == 0 else 1
                elif a1 == b1:
                    hi = a1
                else:
                    ckey = tag | (a1 << 27) | b1
                    hi = cache_get(ckey)
                    if hi is None:
                        hi = rec(a1, b1, ckey)
            elif is_diff:
                if a0 == 0 or b0 == 1 or a0 == b0:
                    lo = 0
                elif b0 == 0:
                    lo = a0
                else:
                    ckey = tag | (a0 << 27) | b0
                    lo = cache_get(ckey)
                    if lo is None:
                        lo = rec(a0, b0, ckey)
                if a1 == 0 or b1 == 1 or a1 == b1:
                    hi = 0
                elif b1 == 0:
                    hi = a1
                else:
                    ckey = tag | (a1 << 27) | b1
                    hi = cache_get(ckey)
                    if hi is None:
                        hi = rec(a1, b1, ckey)
            else:  # xor
                if a0 > b0:
                    a0, b0 = b0, a0
                if a0 == 0:
                    lo = b0
                elif a0 == b0:
                    lo = 0
                else:
                    ckey = tag | (a0 << 27) | b0
                    lo = cache_get(ckey)
                    if lo is None:
                        lo = rec(a0, b0, ckey)
                if a1 > b1:
                    a1, b1 = b1, a1
                if a1 == 0:
                    hi = b1
                elif a1 == b1:
                    hi = 0
                else:
                    ckey = tag | (a1 << 27) | b1
                    hi = cache_get(ckey)
                    if hi is None:
                        hi = rec(a1, b1, ckey)
            if lo == hi:
                r = lo
            else:
                ukey = (v << 54) | (lo << 27) | hi
                r = unique_get(ukey)
                if r is None:
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(v)
                    low.append(lo)
                    high.append(hi)
                    unique[ukey] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        kernel._watchdog_tick = 0
                        kernel.op_count += ops
                        ops = 0
                        kernel._mk_service()
            cache[key] = r
            return r

        def entry(a: int, b: int) -> int:
            # Contract: the caller (public fast path or a sibling
            # closure) already applied shortcuts, canonicalized
            # commutative operands, and missed the cache.
            nonlocal ops, tick
            ops = 0
            tick = kernel._watchdog_tick
            try:
                return rec(a, b, tag | (a << 27) | b)
            finally:
                kernel.op_count += ops
                kernel._watchdog_tick = tick
                n = len(var)
                if n > kernel.peak_nodes:
                    kernel.peak_nodes = n

        return entry

    def _apply_loop(self, op: int, a: int, b: int) -> int:
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        tag = op << 54
        is_and = op == _OP_AND
        is_or = op == _OP_OR
        is_diff = op == _OP_DIFF
        tasks: List[int] = [b, a]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        ops = 0
        tick = self._watchdog_tick
        stride = self._watchdog_stride
        try:
            while tasks:
                a = pop()
                if a >= 0:
                    b = pop()
                    # Terminal and absorption shortcuts (cover all
                    # terminal-terminal pairs, so no table lookup needed).
                    if is_and:
                        if a > b:
                            a, b = b, a
                        if a < 2:
                            rpush(b if a else 0)
                            continue
                        if a == b:
                            rpush(a)
                            continue
                    elif is_or:
                        if a > b:
                            a, b = b, a
                        if b == 1:
                            rpush(1)
                            continue
                        if a < 2:
                            rpush(b if a == 0 else 1)
                            continue
                        if a == b:
                            rpush(a)
                            continue
                    elif is_diff:
                        if a == 0 or b == 1 or a == b:
                            rpush(0)
                            continue
                        if b == 0:
                            rpush(a)
                            continue
                    else:  # xor
                        if a > b:
                            a, b = b, a
                        if a == 0:
                            rpush(b)
                            continue
                        if a == b:
                            rpush(0)
                            continue
                    key = tag | (a << _SHIFT) | b
                    r = cache_get(key)
                    if r is not None:
                        rpush(r)
                        continue
                    ops += 1
                    va = var[a]
                    vb = var[b]
                    if va < vb:
                        v = va
                        a0, a1, b0, b1 = low[a], high[a], b, b
                    elif vb < va:
                        v = vb
                        a0, a1, b0, b1 = a, a, low[b], high[b]
                    else:
                        v = va
                        a0, a1, b0, b1 = low[a], high[a], low[b], high[b]
                    push(key)
                    push(-3 - v)
                    push(b1)
                    push(a1)
                    push(b0)
                    push(a0)
                elif a == _CONST:
                    rpush(pop())
                else:
                    v = -3 - a
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi:
                        r = lo
                    else:
                        ukey = (v << 54) | (lo << _SHIFT) | hi
                        r = unique_get(ukey)
                        if r is None:
                            r = len(var)
                            if r > _MASK:
                                raise BDDError(
                                    f"packed backend arena exceeds {_MASK} nodes"
                                )
                            var.append(v)
                            low.append(lo)
                            high.append(hi)
                            unique[ukey] = r
                            tick += 1
                            if tick >= stride:
                                tick = 0
                                self._watchdog_tick = 0
                                self.op_count += ops
                                ops = 0
                                self._mk_service()
                    cache[key] = r
                    rpush(r)
        finally:
            self.op_count += ops
            self._watchdog_tick = tick
            n = len(var)
            if n > self.peak_nodes:
                self.peak_nodes = n
        return results[0]

    def not_(self, a: int) -> int:
        if a < 2:
            return 1 - a
        r = self._op_cache.get(_TAG_NOT | a)
        if r is not None:
            return r
        var = self._var
        low = self._low
        high = self._high
        unique_get = self._unique.get
        cache = self._op_cache
        cache_get = cache.get
        mk = self.mk
        tasks: List[int] = [a]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            n = pop()
            if n >= 0:
                if n < 2:
                    rpush(1 - n)
                    continue
                r = cache_get(_TAG_NOT | n)
                if r is not None:
                    rpush(r)
                    continue
                push(n)
                push(-3 - var[n])
                push(high[n])
                push(low[n])
            else:
                v = -3 - n
                n = pop()
                hi = rpop()
                lo = rpop()
                r = unique_get((v << 54) | (lo << _SHIFT) | hi)
                if r is None:
                    r = mk(v, lo, hi)
                cache[_TAG_NOT | n] = r
                cache[_TAG_NOT | r] = n
                rpush(r)
        return results[0]

    def ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return self.not_(f)
        r = self._op_cache.get(_TAG_ITE | (f << 54) | (g << _SHIFT) | h)
        if r is not None:
            return r
        if self.num_vars > _RECURSION_SAFE_VARS:
            return self._ite_loop(f, g, h)
        fn = self._hot.get("i")
        if fn is None:
            fn = self._hot["i"] = self._make_ite()
        return fn(f, g, h)

    def _make_ite(self):
        """Compile the closure-form ite recursion."""
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        kernel = weakref.proxy(self)
        ops = 0
        tick = 0
        stride = self._watchdog_stride

        def rec(f: int, g: int, h: int) -> int:
            nonlocal ops, tick
            if f == 1:
                return g
            if f == 0:
                return h
            if g == h:
                return g
            if g == 1 and h == 0:
                return f
            if g == 0 and h == 1:
                kernel._watchdog_tick = tick
                kernel.op_count += ops
                ops = 0
                r = kernel.not_(f)
                tick = kernel._watchdog_tick
                return r
            key = _TAG_ITE | (f << 54) | (g << 27) | h
            r = cache_get(key)
            if r is not None:
                return r
            ops += 1
            vf = var[f]
            vg = var[g]
            vh = var[h]
            v = vf if vf < vg else vg
            if vh < v:
                v = vh
            f0, f1 = (low[f], high[f]) if vf == v else (f, f)
            g0, g1 = (low[g], high[g]) if vg == v else (g, g)
            h0, h1 = (low[h], high[h]) if vh == v else (h, h)
            lo = rec(f0, g0, h0)
            hi = rec(f1, g1, h1)
            if lo == hi:
                r = lo
            else:
                ukey = (v << 54) | (lo << 27) | hi
                r = unique_get(ukey)
                if r is None:
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(v)
                    low.append(lo)
                    high.append(hi)
                    unique[ukey] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        kernel._watchdog_tick = 0
                        kernel.op_count += ops
                        ops = 0
                        kernel._mk_service()
            cache[key] = r
            return r

        def entry(f: int, g: int, h: int) -> int:
            nonlocal ops, tick
            ops = 0
            tick = kernel._watchdog_tick
            try:
                return rec(f, g, h)
            finally:
                kernel.op_count += ops
                kernel._watchdog_tick = tick
                n = len(var)
                if n > kernel.peak_nodes:
                    kernel.peak_nodes = n

        return entry

    def _ite_loop(self, f: int, g: int, h: int) -> int:
        var = self._var
        low = self._low
        high = self._high
        cache = self._op_cache
        cache_get = cache.get
        mk = self.mk
        tasks: List[int] = [h, g, f]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        ops = 0
        try:
            while tasks:
                f = pop()
                if f >= 0:
                    g = pop()
                    h = pop()
                    if f == 1:
                        rpush(g)
                        continue
                    if f == 0:
                        rpush(h)
                        continue
                    if g == h:
                        rpush(g)
                        continue
                    if g == 1 and h == 0:
                        rpush(f)
                        continue
                    if g == 0 and h == 1:
                        rpush(self.not_(f))
                        continue
                    key = _TAG_ITE | (f << 54) | (g << _SHIFT) | h
                    r = cache_get(key)
                    if r is not None:
                        rpush(r)
                        continue
                    ops += 1
                    vf = var[f]
                    vg = var[g]
                    vh = var[h]
                    v = vf if vf < vg else vg
                    if vh < v:
                        v = vh
                    f0, f1 = (low[f], high[f]) if vf == v else (f, f)
                    g0, g1 = (low[g], high[g]) if vg == v else (g, g)
                    h0, h1 = (low[h], high[h]) if vh == v else (h, h)
                    push(key)
                    push(-3 - v)
                    push(h1)
                    push(g1)
                    push(f1)
                    push(h0)
                    push(g0)
                    push(f0)
                elif f == _CONST:
                    rpush(pop())
                else:
                    v = -3 - f
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi:
                        r = lo
                    else:
                        r = mk(v, lo, hi)
                    cache[key] = r
                    rpush(r)
        finally:
            self.op_count += ops
        return results[0]

    # ------------------------------------------------------------------
    # Quantification and relational product
    # ------------------------------------------------------------------

    def _varset_info(self, vid: int) -> tuple:
        info = self._vinfo.get(vid)
        if info is None:
            levels = self._varsets[vid]
            info = self._vinfo[vid] = (
                levels,
                max(levels) if levels else -1,
                (vid << 57) | _TAG_RELPROD,
            )
        return info

    def exist(self, u: int, varset_id: int) -> int:
        # Inline the memo probe: this is the hot public entry, and the
        # extra method call of _varset_info is measurable per-op.
        info = self._vinfo.get(varset_id) or self._varset_info(varset_id)
        levels = info[0]
        if not levels:
            return u
        return self._exist(u, varset_id, levels, info[1])

    def _exist(self, u: int, vid: int, levels: frozenset, max_level: int) -> int:
        if u < 2 or self._var[u] > max_level:
            return u
        if self.num_vars > _RECURSION_SAFE_VARS:
            r = self._op_cache.get(_TAG_EXIST | (vid << _SHIFT) | u)
            if r is not None:
                return r
            return self._exist_loop(u, vid, levels, max_level)
        fn = self._hot.get(("e", vid))
        if fn is None:
            fn = self._hot[("e", vid)] = self._make_exist(vid, levels, max_level)
        return fn(u)

    def _make_exist(self, vid: int, levels: frozenset, max_level: int):
        """Compile the closure-form exist recursion for one varset.

        ``rec`` receives an internal node at or below ``max_level``
        together with its prebuilt, probed-and-missed cache key.  Each
        child is resolved inline (terminal/level check, one probe) and
        only recurses on a miss; or-combines probe the unified cache
        under the apply-OR key before falling into the chained apply
        closure.
        """
        tag = _TAG_EXIST | (vid << _SHIFT)
        quant = self._quant(vid, levels, max_level)
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        or_entry = self._hot.get(_OP_OR)
        if or_entry is None:
            or_entry = self._hot[_OP_OR] = self._make_apply(_OP_OR)
        kernel = weakref.proxy(self)
        ops = 0
        tick = 0
        stride = self._watchdog_stride

        def rec(n: int, key: int) -> int:
            nonlocal ops, tick
            ops += 1
            v = var[n]
            n0 = low[n]
            if n0 < 2 or var[n0] > max_level:
                lo = n0
            else:
                ckey = tag | n0
                lo = cache_get(ckey)
                if lo is None:
                    lo = rec(n0, ckey)
            n1 = high[n]
            if n1 < 2 or var[n1] > max_level:
                hi = n1
            else:
                ckey = tag | n1
                hi = cache_get(ckey)
                if hi is None:
                    hi = rec(n1, ckey)
            if quant[v]:
                if lo == hi or hi == 0:
                    r = lo
                elif lo == 0:
                    r = hi
                elif lo == 1 or hi == 1:
                    r = 1
                else:
                    if lo > hi:
                        lo, hi = hi, lo
                    okey = _TAG_OR | (lo << 27) | hi
                    r = cache_get(okey)
                    if r is None:
                        kernel._watchdog_tick = tick
                        kernel.op_count += ops
                        ops = 0
                        r = or_entry(lo, hi)
                        tick = kernel._watchdog_tick
            elif lo == hi:
                r = lo
            else:
                ukey = (v << 54) | (lo << 27) | hi
                r = unique_get(ukey)
                if r is None:
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(v)
                    low.append(lo)
                    high.append(hi)
                    unique[ukey] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        kernel._watchdog_tick = 0
                        kernel.op_count += ops
                        ops = 0
                        kernel._mk_service()
            cache[key] = r
            return r

        def entry(u: int) -> int:
            nonlocal ops, tick
            if u < 2 or var[u] > max_level:
                return u
            key = tag | u
            r = cache_get(key)
            if r is not None:
                return r
            ops = 0
            tick = kernel._watchdog_tick
            try:
                return rec(u, key)
            finally:
                kernel.op_count += ops
                kernel._watchdog_tick = tick
                n = len(var)
                if n > kernel.peak_nodes:
                    kernel.peak_nodes = n

        return entry

    def _exist_loop(self, u: int, vid: int, levels: frozenset, max_level: int) -> int:
        quant = self._quant(vid, levels, max_level)
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        or_ = self.or_
        tag = _TAG_EXIST | (vid << _SHIFT)
        tasks: List[int] = [u]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        ops = 0
        tick = self._watchdog_tick
        stride = self._watchdog_stride
        try:
            while tasks:
                n = pop()
                if n >= 0:
                    if n < 2 or var[n] > max_level:
                        rpush(n)
                        continue
                    key = tag | n
                    r = cache_get(key)
                    if r is not None:
                        rpush(r)
                        continue
                    ops += 1
                    v = var[n]
                    n0 = low[n]
                    n1 = high[n]
                    push(key)
                    push(_OR if quant[v] else -3 - v)
                    push(n1)
                    push(n0)
                elif n == _CONST:
                    rpush(pop())
                elif n == _OR:
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi or hi == 0:
                        r = lo
                    elif lo == 0:
                        r = hi
                    elif lo == 1 or hi == 1:
                        r = 1
                    else:
                        self._watchdog_tick = tick
                        self.op_count += ops
                        ops = 0
                        r = or_(lo, hi)
                        tick = self._watchdog_tick
                    cache[key] = r
                    rpush(r)
                else:
                    v = -3 - n
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi:
                        r = lo
                    else:
                        ukey = (v << 54) | (lo << _SHIFT) | hi
                        r = unique_get(ukey)
                        if r is None:
                            r = len(var)
                            if r > _MASK:
                                raise BDDError(
                                    f"packed backend arena exceeds {_MASK} nodes"
                                )
                            var.append(v)
                            low.append(lo)
                            high.append(hi)
                            unique[ukey] = r
                            tick += 1
                            if tick >= stride:
                                tick = 0
                                self._watchdog_tick = 0
                                self.op_count += ops
                                ops = 0
                                self._mk_service()
                    cache[key] = r
                    rpush(r)
        finally:
            self.op_count += ops
            self._watchdog_tick = tick
            n = len(var)
            if n > self.peak_nodes:
                self.peak_nodes = n
        return results[0]

    def rel_prod(self, a: int, b: int, varset_id: int) -> int:
        info = self._vinfo.get(varset_id) or self._varset_info(varset_id)
        levels, max_level, tag = info
        if not levels:
            return self.and_(a, b)
        if a == 0 or b == 0:
            return FALSE
        if a == 1 and b == 1:
            return TRUE
        if a == 1:
            return self._exist(b, varset_id, levels, max_level)
        if b == 1:
            return self._exist(a, varset_id, levels, max_level)
        if a > b:  # AND is commutative; canonicalize the cache key.
            a, b = b, a
        r = self._op_cache.get(tag | (a << _SHIFT) | b)
        if r is not None:
            return r
        if self.num_vars > _RECURSION_SAFE_VARS:
            return self._relprod_loop(a, b, varset_id, levels, max_level, tag)
        fn = self._hot.get(("r", varset_id))
        if fn is None:
            fn = self._hot[("r", varset_id)] = self._make_relprod(
                varset_id, levels, max_level, tag
            )
        return fn(a, b)

    def _make_relprod(self, vid: int, levels: frozenset, max_level: int, tag: int):
        """Compile the closure-form rel_prod recursion for one varset.

        Same key-passing discipline as :meth:`_make_apply`: ``rec``
        receives internal, canonicalized operands plus their probed key;
        cofactor pairs are resolved inline (terminal shortcuts, swap, one
        probe) and recurse only on a miss.  Quantified combines and the
        below-``max_level`` conjunction probe the unified cache under the
        apply keys before chaining into the sibling apply/exist closures.
        """
        quant = self._quant(vid, levels, max_level)
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        or_entry = self._hot.get(_OP_OR)
        if or_entry is None:
            or_entry = self._hot[_OP_OR] = self._make_apply(_OP_OR)
        and_entry = self._hot.get(_OP_AND)
        if and_entry is None:
            and_entry = self._hot[_OP_AND] = self._make_apply(_OP_AND)
        efn = self._hot.get(("e", vid))
        if efn is None:
            efn = self._hot[("e", vid)] = self._make_exist(vid, levels, max_level)
        kernel = weakref.proxy(self)
        ops = 0
        tick = 0
        stride = self._watchdog_stride

        def rec(a: int, b: int, key: int) -> int:
            nonlocal ops, tick
            ops += 1
            va = var[a]
            vb = var[b]
            if va < vb:
                v = va
                a0, a1, b0, b1 = low[a], high[a], b, b
            elif vb < va:
                v = vb
                a0, a1, b0, b1 = a, a, low[b], high[b]
            else:
                v = va
                a0, a1, b0, b1 = low[a], high[a], low[b], high[b]
            if v > max_level:
                # No quantified variable can appear below this point:
                # the rest is pure conjunction.
                if a == b:
                    r = a
                else:
                    akey = (a << 27) | b
                    r = cache_get(akey)
                    if r is None:
                        kernel._watchdog_tick = tick
                        kernel.op_count += ops
                        ops = 0
                        r = and_entry(a, b)
                        tick = kernel._watchdog_tick
                cache[key] = r
                return r
            x = a0
            y = b0
            if x == 0 or y == 0:
                lo = 0
            elif x == 1 or y == 1:
                if x == 1 and y == 1:
                    lo = 1
                else:
                    kernel._watchdog_tick = tick
                    kernel.op_count += ops
                    ops = 0
                    lo = efn(y if x == 1 else x)
                    tick = kernel._watchdog_tick
            else:
                if x > y:
                    x, y = y, x
                ckey = tag | (x << 27) | y
                lo = cache_get(ckey)
                if lo is None:
                    lo = rec(x, y, ckey)
            x = a1
            y = b1
            if x == 0 or y == 0:
                hi = 0
            elif x == 1 or y == 1:
                if x == 1 and y == 1:
                    hi = 1
                else:
                    kernel._watchdog_tick = tick
                    kernel.op_count += ops
                    ops = 0
                    hi = efn(y if x == 1 else x)
                    tick = kernel._watchdog_tick
            else:
                if x > y:
                    x, y = y, x
                ckey = tag | (x << 27) | y
                hi = cache_get(ckey)
                if hi is None:
                    hi = rec(x, y, ckey)
            if quant[v]:
                if lo == hi or hi == 0:
                    r = lo
                elif lo == 0:
                    r = hi
                elif lo == 1 or hi == 1:
                    r = 1
                else:
                    if lo > hi:
                        lo, hi = hi, lo
                    okey = _TAG_OR | (lo << 27) | hi
                    r = cache_get(okey)
                    if r is None:
                        kernel._watchdog_tick = tick
                        kernel.op_count += ops
                        ops = 0
                        r = or_entry(lo, hi)
                        tick = kernel._watchdog_tick
            elif lo == hi:
                r = lo
            else:
                ukey = (v << 54) | (lo << 27) | hi
                r = unique_get(ukey)
                if r is None:
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(v)
                    low.append(lo)
                    high.append(hi)
                    unique[ukey] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        kernel._watchdog_tick = 0
                        kernel.op_count += ops
                        ops = 0
                        kernel._mk_service()
            cache[key] = r
            return r

        def entry(a: int, b: int) -> int:
            # Contract: operands internal, a <= b, cache missed.
            nonlocal ops, tick
            ops = 0
            tick = kernel._watchdog_tick
            try:
                return rec(a, b, tag | (a << 27) | b)
            finally:
                kernel.op_count += ops
                kernel._watchdog_tick = tick
                n = len(var)
                if n > kernel.peak_nodes:
                    kernel.peak_nodes = n

        return entry

    def _relprod_loop(
        self,
        a: int,
        b: int,
        varset_id: int,
        levels: frozenset,
        max_level: int,
        tag: int,
    ) -> int:
        quant = self._quant(varset_id, levels, max_level)
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        or_ = self.or_
        and_ = self.and_
        exist = self._exist
        tasks: List[int] = [b, a]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        ops = 0
        tick = self._watchdog_tick
        stride = self._watchdog_stride
        try:
            while tasks:
                a = pop()
                if a >= 0:
                    b = pop()
                    if a == 0 or b == 0:
                        rpush(0)
                        continue
                    if a == 1 or b == 1:
                        if a == 1 and b == 1:
                            rpush(1)
                            continue
                        self._watchdog_tick = tick
                        self.op_count += ops
                        ops = 0
                        rpush(exist(b if a == 1 else a, varset_id, levels, max_level))
                        tick = self._watchdog_tick
                        continue
                    if a > b:  # AND is commutative; canonicalize the key.
                        a, b = b, a
                    key = tag | (a << _SHIFT) | b
                    r = cache_get(key)
                    if r is not None:
                        rpush(r)
                        continue
                    ops += 1
                    va = var[a]
                    vb = var[b]
                    if va < vb:
                        v = va
                        a0, a1, b0, b1 = low[a], high[a], b, b
                    elif vb < va:
                        v = vb
                        a0, a1, b0, b1 = a, a, low[b], high[b]
                    else:
                        v = va
                        a0, a1, b0, b1 = low[a], high[a], low[b], high[b]
                    if v > max_level:
                        # No quantified variable can appear below this point.
                        self._watchdog_tick = tick
                        self.op_count += ops
                        ops = 0
                        r = and_(a, b)
                        tick = self._watchdog_tick
                        cache[key] = r
                        rpush(r)
                        continue
                    push(key)
                    push(_OR if quant[v] else -3 - v)
                    push(b1)
                    push(a1)
                    push(b0)
                    push(a0)
                elif a == _CONST:
                    rpush(pop())
                elif a == _OR:
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi or hi == 0:
                        r = lo
                    elif lo == 0:
                        r = hi
                    elif lo == 1 or hi == 1:
                        r = 1
                    else:
                        self._watchdog_tick = tick
                        self.op_count += ops
                        ops = 0
                        r = or_(lo, hi)
                        tick = self._watchdog_tick
                    cache[key] = r
                    rpush(r)
                else:
                    v = -3 - a
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if lo == hi:
                        r = lo
                    else:
                        ukey = (v << 54) | (lo << _SHIFT) | hi
                        r = unique_get(ukey)
                        if r is None:
                            r = len(var)
                            if r > _MASK:
                                raise BDDError(
                                    f"packed backend arena exceeds {_MASK} nodes"
                                )
                            var.append(v)
                            low.append(lo)
                            high.append(hi)
                            unique[ukey] = r
                            tick += 1
                            if tick >= stride:
                                tick = 0
                                self._watchdog_tick = 0
                                self.op_count += ops
                                ops = 0
                                self._mk_service()
                    cache[key] = r
                    rpush(r)
        finally:
            self.op_count += ops
            self._watchdog_tick = tick
            n = len(var)
            if n > self.peak_nodes:
                self.peak_nodes = n
        return results[0]

    # ------------------------------------------------------------------
    # Renaming (iterative)
    # ------------------------------------------------------------------

    def _replace_fast(self, u: int, mid: int, mapping: Dict[int, int]) -> int:
        if self.num_vars > _RECURSION_SAFE_VARS:
            return self._replace_loop(u, mid, mapping, use_ite=False)
        fn = self._hot.get(("p", mid))
        if fn is None:
            fn = self._hot[("p", mid)] = self._make_replace(mid, mapping, use_ite=False)
        return fn(u)

    def _replace_ite(self, u: int, mid: int, mapping: Dict[int, int]) -> int:
        if self.num_vars > _RECURSION_SAFE_VARS:
            return self._replace_loop(u, mid, mapping, use_ite=True)
        fn = self._hot.get(("q", mid))
        if fn is None:
            fn = self._hot[("q", mid)] = self._make_replace(mid, mapping, use_ite=True)
        return fn(u)

    def _make_replace(self, mid: int, mapping: Dict[int, int], use_ite: bool):
        """Compile the closure-form replace recursion for one rename map."""
        tag = _TAG_REPLACE | (mid << _SHIFT)
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        unique_get = unique.get
        cache = self._op_cache
        cache_get = cache.get
        get_nv = mapping.get
        num_vars = self.num_vars
        kernel = weakref.proxy(self)
        ops = 0
        tick = 0
        stride = self._watchdog_stride

        def rec(n: int, key: int) -> int:
            nonlocal ops, tick
            ops += 1
            v = var[n]
            nv = get_nv(v, v)
            n0 = low[n]
            if n0 < 2:
                lo = n0
            else:
                ckey = tag | n0
                lo = cache_get(ckey)
                if lo is None:
                    lo = rec(n0, ckey)
            n1 = high[n]
            if n1 < 2:
                hi = n1
            else:
                ckey = tag | n1
                hi = cache_get(ckey)
                if hi is None:
                    hi = rec(n1, ckey)
            if use_ite:
                kernel._watchdog_tick = tick
                kernel.op_count += ops
                ops = 0
                r = kernel.ite(kernel.var_bdd(nv), hi, lo)
                tick = kernel._watchdog_tick
            elif lo == hi:
                r = lo
            else:
                if not 0 <= nv < num_vars:
                    raise BDDError(
                        f"variable level {nv} out of range 0..{num_vars - 1}"
                    )
                ukey = (nv << 54) | (lo << 27) | hi
                r = unique_get(ukey)
                if r is None:
                    r = len(var)
                    if r > _MASK:
                        raise BDDError(f"packed backend arena exceeds {_MASK} nodes")
                    var.append(nv)
                    low.append(lo)
                    high.append(hi)
                    unique[ukey] = r
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        kernel._watchdog_tick = 0
                        kernel.op_count += ops
                        ops = 0
                        kernel._mk_service()
            cache[key] = r
            return r

        def entry(u: int) -> int:
            nonlocal ops, tick
            if u < 2:
                return u
            key = tag | u
            r = cache_get(key)
            if r is not None:
                return r
            ops = 0
            tick = kernel._watchdog_tick
            try:
                return rec(u, key)
            finally:
                kernel.op_count += ops
                kernel._watchdog_tick = tick
                n = len(var)
                if n > kernel.peak_nodes:
                    kernel.peak_nodes = n

        return entry

    def _replace_loop(self, u: int, mid: int, mapping: Dict[int, int], use_ite: bool) -> int:
        var = self._var
        low = self._low
        high = self._high
        cache = self._op_cache
        cache_get = cache.get
        mk = self.mk
        get_nv = mapping.get
        tag = _TAG_REPLACE | (mid << _SHIFT)
        tasks: List[int] = [u]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        ops = 0
        try:
            while tasks:
                n = pop()
                if n >= 0:
                    if n < 2:
                        rpush(n)
                        continue
                    key = tag | n
                    r = cache_get(key)
                    if r is not None:
                        rpush(r)
                        continue
                    ops += 1
                    v = var[n]
                    push(key)
                    push(-3 - get_nv(v, v))
                    push(high[n])
                    push(low[n])
                elif n == _CONST:
                    rpush(pop())
                else:
                    nv = -3 - n
                    key = pop()
                    hi = rpop()
                    lo = rpop()
                    if use_ite:
                        r = self.ite(self.var_bdd(nv), hi, lo)
                    else:
                        r = mk(nv, lo, hi)
                    cache[key] = r
                    rpush(r)
        finally:
            self.op_count += ops
        return results[0]

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def cache_entries(self) -> int:
        return len(self._op_cache) + len(self._satcount_cache)

    def clear_caches(self) -> None:
        entries = self.cache_entries()
        if entries > self.peak_cache_entries:
            self.peak_cache_entries = entries
        self._op_cache.clear()
        self._satcount_cache.clear()
