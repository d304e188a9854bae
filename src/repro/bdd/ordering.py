"""Variable-ordering specifications.

bddbddb describes variable orders with strings such as::

    C0xC1_VxV1_H0xH1_F_T_I_M_N_Z

Underscore-separated *groups* are laid out sequentially (all bits of the
first group before all bits of the second), and ``x``-joined domains within
a group are *interleaved* bit-by-bit.  Interleaving related attributes
(e.g. the caller and callee context domains ``C0``/``C1``) is what lets the
BDD share structure across contexts — the paper's Section 2.4.2 example of
why ordering matters.

The paper notes that finding the best order is NP-complete and that
bddbddb "automatically explores different alternatives empirically to find
an effective ordering" offline, then ships the order it found.  Here each
solver takes one fixed order spec (by default
:meth:`repro.datalog.solver.Solver.default_order_spec`) and keeps it.
"""

from __future__ import annotations

from typing import Dict, List

from .api import BDDError

__all__ = ["parse_order", "assign_levels"]


def parse_order(spec: str) -> List[List[str]]:
    """Parse an order spec into groups of interleaved domain names.

    >>> parse_order("C0xC1_V0_H0xH1")
    [['C0', 'C1'], ['V0'], ['H0', 'H1']]
    """
    groups: List[List[str]] = []
    for chunk in spec.split("_"):
        if not chunk:
            raise BDDError(f"empty group in order spec {spec!r}")
        groups.append(chunk.split("x"))
    return groups


def assign_levels(spec: str, domain_bits: Dict[str, int]) -> Dict[str, List[int]]:
    """Assign BDD levels to every domain bit according to an order spec.

    Parameters
    ----------
    spec:
        Order string, e.g. ``"C0xC1_V0xV1_H0xH1"``.  Every domain in
        ``domain_bits`` must appear exactly once.
    domain_bits:
        Map from domain name to its bit width.

    Returns
    -------
    Map from domain name to its levels, most-significant bit first.  Within
    every domain the levels are strictly increasing, as required by
    :class:`repro.bdd.domain.Domain`.
    """
    groups = parse_order(spec)
    mentioned = [name for group in groups for name in group]
    if sorted(mentioned) != sorted(domain_bits):
        missing = set(domain_bits) - set(mentioned)
        extra = set(mentioned) - set(domain_bits)
        raise BDDError(
            f"order spec domains do not match: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    levels: Dict[str, List[int]] = {name: [] for name in domain_bits}
    next_level = 0
    for group in groups:
        # Round-robin over the group's domains, MSB first, so that bit i of
        # each domain sits adjacent to bit i of its partners.
        queues = [(name, list(range(domain_bits[name]))) for name in group]
        pending = [(name, iter(bits)) for name, bits in queues]
        active = [(name, it) for name, it in pending]
        while active:
            still = []
            for name, it in active:
                try:
                    next(it)
                except StopIteration:
                    continue
                levels[name].append(next_level)
                next_level += 1
                still.append((name, it))
            active = still
    return levels
