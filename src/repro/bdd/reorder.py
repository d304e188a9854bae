"""Rebuild BDDs under a new variable order.

Because the kernel identifies variables with levels (no indirection
table), a change of order is a *rebuild under a permutation* rather than
in-place swaps: :func:`rebuild_with_levels` transfers a set of nodes into
another manager under a new level assignment.  A checkpoint saved under
one order spec is loaded into a solver built under another this way
(:mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .api import BDDError, BddKernel, FALSE, TRUE

__all__ = ["rebuild_with_levels"]


def rebuild_with_levels(
    src: BddKernel,
    roots: Sequence[int],
    level_map: Dict[int, int],
    dst: BddKernel,
) -> List[int]:
    """Copy ``roots`` from ``src`` into ``dst`` with levels remapped.

    ``level_map`` must be a total injective mapping over the levels
    appearing in the roots' support.  The rebuild uses ``ite`` in the
    destination manager, so arbitrary (order-inverting) permutations are
    handled correctly.
    """
    cache: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}

    def copy(node: int) -> int:
        cached = cache.get(node)
        if cached is not None:
            return cached
        var = src.var_of(node)
        new_var = level_map.get(var)
        if new_var is None:
            raise BDDError(f"level {var} missing from level_map")
        low = copy(src.low(node))
        high = copy(src.high(node))
        result = dst.ite(dst.var_bdd(new_var), high, low)
        cache[node] = result
        return result

    out = [copy(r) for r in roots]
    # The rebuild leaves the destination's operation caches full of
    # permutation-specific ite entries that will never hit again; drop
    # them so a rebuild cannot silently double the manager's footprint.
    dst.clear_caches()
    return out
