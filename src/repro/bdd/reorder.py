"""Dynamic variable reordering by sifting (Rudell's algorithm).

The paper relies on *static* order search (bddbddb's FindBestOrder tries
candidate orders empirically); production BDD packages like BuDDy and CUDD
additionally offer dynamic reordering.  This module provides both styles
on top of any :class:`repro.bdd.api.BddKernel` backend
(``repro.bdd.backends``):

* :func:`sift_order` — given the functions you care about, tentatively
  move each domain block through every position, keep the best, and
  return the improved level assignment,
* :func:`rebuild_with_levels` — transfer a set of BDD nodes into a fresh
  manager under a new level assignment.

Because the kernel identifies variables with levels (no indirection
table), reordering is implemented as *rebuild under a permutation* rather
than in-place swaps: simpler, obviously correct, and fast enough for the
order-search use case, where it runs once per candidate rather than per
operation.  Blocks (the bits of one finite domain) move as units, which
preserves the Domain invariant that a domain's bits stay MSB-first.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .api import BDDError, BddKernel, FALSE, TRUE, create_kernel

__all__ = ["rebuild_with_levels", "count_nodes_under_order", "sift_order"]


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
    # them so a reorder cannot silently double the manager's footprint.
    dst.clear_caches()
    return out


def count_nodes_under_order(
    src: BddKernel,
    roots: Sequence[int],
    block_order: Sequence[str],
    blocks: Dict[str, Sequence[int]],
) -> int:
    """Shared node count of ``roots`` when blocks are laid out in
    ``block_order`` (each block's internal bit order preserved)."""
    level_map: Dict[int, int] = {}
    next_level = 0
    for name in block_order:
        for level in blocks[name]:
            level_map[level] = next_level
            next_level += 1
    total_vars = max(src.num_vars, next_level)
    # The scratch arena uses the same backend as the source kernel, so
    # order-search node counts reflect the backend actually in use.
    dst = create_kernel(num_vars=total_vars, backend=src.backend_name)
    new_roots = rebuild_with_levels(src, roots, level_map, dst)
    # Count shared nodes across all roots.
    seen = set()
    stack = list(new_roots)
    while stack:
        n = stack.pop()
        if n < 2 or n in seen:
            continue
        seen.add(n)
        stack.append(dst.low(n))
        stack.append(dst.high(n))
    return len(seen) + 2


def sift_order(
    src: BddKernel,
    roots: Sequence[int],
    blocks: Dict[str, Sequence[int]],
    initial_order: Sequence[str],
    max_rounds: int = 2,
) -> Tuple[List[str], int]:
    """Sift whole domain blocks to minimize shared node count.

    Classic sifting, at block granularity: pick each block in turn, try it
    at every position in the order (keeping other blocks fixed), and leave
    it at the position giving the fewest nodes.  Repeat for up to
    ``max_rounds`` rounds or until a round makes no improvement.

    Returns ``(best_order, best_node_count)``.
    """
    order = list(initial_order)
    if sorted(order) != sorted(blocks):
        raise BDDError("initial_order must mention every block exactly once")
    best_count = count_nodes_under_order(src, roots, order, blocks)
    for _ in range(max_rounds):
        improved = False
        for name in list(order):
            base = [b for b in order if b != name]
            best_pos = order.index(name)
            for pos in range(len(order)):
                candidate = base[:pos] + [name] + base[pos:]
                count = count_nodes_under_order(src, roots, candidate, blocks)
                if count < best_count:
                    best_count = count
                    best_pos = pos
                    improved = True
            order = base[:best_pos] + [name] + base[best_pos:]
        if not improved:
            break
    return order, best_count
