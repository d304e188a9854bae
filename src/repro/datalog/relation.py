"""Attributed relations represented as BDDs (Section 2.4.2).

A :class:`Relation` binds a name and a tuple of attributes — each attribute
living in a *physical* finite domain — to a BDD node.  "A relation
``R : D1 x ... x Dn`` is represented as a boolean function
``f : D1 x ... x Dn -> {0,1}`` such that ``(d1,...,dn) in R`` iff
``f(d1,...,dn) = 1``."

Relations are mutable holders: the solver updates ``node`` as the fixpoint
iteration proceeds, bumping ``version`` so cached rule inputs (the
loop-invariant optimization of Section 2.4.1) can detect staleness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..bdd import BDD, BDDError, Domain, FALSE, TRUE
from ..runtime.errors import InvalidInputError

__all__ = ["Attribute", "Relation", "bdd_size"]


def bdd_size(manager: BDD, node: int) -> int:
    """Number of non-terminal nodes reachable from ``node`` (the cost
    metric the plan executor records in its per-op traces)."""
    seen = {FALSE, TRUE}
    stack = [node]
    count = 0
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        count += 1
        stack.append(manager.low(n))
        stack.append(manager.high(n))
    return count


def _build_sorted(mk, order: List[int], keys: List[int], lo: int, hi: int,
                  depth: int) -> int:
    """The diagram of ``keys[lo:hi]``, which is non-empty, sorted, and
    agrees on the bits of the levels ``order[:depth]``.  A key holds the
    bit of ``order[d]`` at position ``len(order) - 1 - d``."""
    width = len(order)
    if hi - lo == 1:
        key = keys[lo]
        node = TRUE
        for d in range(width - 1, depth - 1, -1):
            if (key >> (width - 1 - d)) & 1:
                node = mk(order[d], FALSE, node)
            else:
                node = mk(order[d], node, FALSE)
        return node
    if hi - lo == 1 << (width - depth):
        return TRUE  # every assignment below the shared prefix
    bit = 1 << (width - 1 - depth)
    mid = bisect_left(keys, (keys[lo] & -(bit << 1)) | bit, lo, hi)
    low = high = FALSE
    if mid > lo:
        low = _build_sorted(mk, order, keys, lo, mid, depth + 1)
    if mid < hi:
        high = _build_sorted(mk, order, keys, mid, hi, depth + 1)
    return mk(order[depth], low, high)


@dataclass(frozen=True)
class Attribute:
    """One column: its name, logical domain name, and physical domain."""

    name: str
    logical: str
    phys: Domain


class Relation:
    """A named BDD relation over a fixed attribute schema."""

    def __init__(self, manager: BDD, name: str, attributes: Sequence[Attribute]):
        self.manager = manager
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        self.node: int = FALSE
        self.version: int = 0
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise BDDError(f"relation {name}: duplicate attribute names {names}")
        phys = [a.phys.name for a in self.attributes]
        if len(set(phys)) != len(phys):
            raise BDDError(
                f"relation {name}: attributes share a physical domain {phys}"
            )

    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise BDDError(f"relation {self.name}: no attribute {name!r}")

    def levels(self) -> List[int]:
        out: List[int] = []
        for a in self.attributes:
            out.extend(a.phys.levels)
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set_node(self, node: int) -> None:
        if node != self.node:
            self.node = node
            self.version += 1

    def union_node(self, node: int) -> int:
        """OR ``node`` in; returns the delta (tuples actually new)."""
        delta = self.manager.diff(node, self.node)
        if delta != FALSE:
            self.set_node(self.manager.or_(self.node, delta))
        return delta

    def clear(self) -> None:
        self.set_node(FALSE)

    def add_tuple(self, values: Sequence[int]) -> None:
        self.set_node(self.manager.or_(self.node, self.tuples_node([values])))

    def set_tuples(self, tuples: Iterable[Sequence[int]]) -> None:
        self.set_node(self.tuples_node(tuples))

    def tuples_node(self, tuples: Iterable[Sequence[int]]) -> int:
        """The BDD of a tuple set over this relation's attributes.

        Each tuple becomes one integer key whose bits follow the
        relation's BDD levels top-down, so sorting the deduplicated keys
        groups them by every prefix of the variable order.  The diagram
        is then built top-down by splitting the sorted range on each
        level's bit with ``bisect``, making nodes bottom-up through
        ``mk``: no apply operation runs, so no operation-cache entry and
        no intermediate diagram is left behind.  Every tuple is validated
        before the first node is made.
        """
        order = sorted(self.levels())
        width = len(order)
        shift = {level: width - 1 - i for i, level in enumerate(order)}
        columns = [
            (attr, [shift[level] for level in attr.phys.levels], {})
            for attr in self.attributes
        ]
        arity = self.arity
        keys = set()
        for values in tuples:
            if len(values) != arity:
                raise BDDError(
                    f"relation {self.name}: tuple {tuple(values)} has arity "
                    f"{len(values)}, expected {arity}"
                )
            key = 0
            for (attr, shifts, memo), value in zip(columns, values):
                # Only exact ints hit the memo: 1.0 == 1 must still fail.
                bits = memo.get(value) if type(value) is int else None
                if bits is None:
                    bits = memo[value] = self._value_bits(attr, shifts, value)
                key |= bits
            keys.add(key)
        if not keys:
            return FALSE
        return _build_sorted(
            self.manager.mk, order, sorted(keys), 0, len(keys), 0
        )

    def _value_bits(self, attr: Attribute, shifts: List[int], value) -> int:
        """``value``'s contribution to a tuple key; raises on bad input."""
        phys = attr.phys
        if not isinstance(value, int) or not 0 <= value < phys.size:
            raise InvalidInputError(
                f"relation {self.name}: value {value!r} for attribute "
                f"{attr.name!r} is outside domain {attr.logical} "
                f"(size {phys.size})",
                predicate=self.name,
                attribute=attr.name,
                value=value,
            )
        bits = 0
        for i, s in enumerate(shifts):
            if (value >> (phys.bits - 1 - i)) & 1:
                bits |= 1 << s
        return bits

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.node == FALSE

    def count(self) -> int:
        """Exact tuple count (arbitrary precision)."""
        if self.node == FALSE:
            return 0
        # Count over all attribute bits, then discard assignments with
        # out-of-domain values by intersecting with validity constraints.
        valid = self.node
        for a in self.attributes:
            size = a.phys.size
            if size < (1 << a.phys.bits):
                valid = self.manager.and_(valid, a.phys.full_bdd())
        return self.manager.sat_count(valid, self.levels())

    def tuples(self) -> Iterator[Tuple[int, ...]]:
        """Iterate decoded tuples (ordinal values per attribute)."""
        levels = self.levels()
        widths = [a.phys.bits for a in self.attributes]
        for bits in self.manager.iter_assignments(self.node, levels):
            out = []
            pos = 0
            valid = True
            for attr, width in zip(self.attributes, widths):
                value = attr.phys.decode(bits[pos : pos + width])
                pos += width
                if value >= attr.phys.size:
                    valid = False
                    break
                out.append(value)
            if valid:
                yield tuple(out)

    def contains(self, values: Sequence[int]) -> bool:
        probe = self.tuples_node([values])
        return self.manager.and_(probe, self.node) == probe

    def select(self, **constants: int) -> "Relation":
        """New relation with some attributes fixed to constants and removed."""
        node = self.node
        keep = []
        project = []
        for a in self.attributes:
            if a.name in constants:
                node = self.manager.and_(node, a.phys.eq_const(constants[a.name]))
                project.extend(a.phys.levels)
            else:
                keep.append(a)
        unknown = set(constants) - {a.name for a in self.attributes}
        if unknown:
            raise BDDError(f"relation {self.name}: unknown attributes {sorted(unknown)}")
        node = self.manager.exist(node, self.manager.varset(project))
        result = Relation(self.manager, f"{self.name}_sel", keep)
        result.set_node(node)
        return result

    def project(self, *names: str) -> "Relation":
        """New relation keeping only the named attributes."""
        keep = [a for a in self.attributes if a.name in names]
        if len(keep) != len(names):
            missing = set(names) - {a.name for a in keep}
            raise BDDError(f"relation {self.name}: unknown attributes {sorted(missing)}")
        drop_levels = []
        for a in self.attributes:
            if a.name not in names:
                drop_levels.extend(a.phys.levels)
        node = self.manager.exist(self.node, self.manager.varset(drop_levels))
        result = Relation(self.manager, f"{self.name}_proj", keep)
        result.set_node(node)
        return result

    def remap(self, mapping: Dict[int, int]) -> None:
        """Update the held node after a manager garbage collection."""
        self.node = mapping[self.node]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(f"{a.name}:{a.phys.name}" for a in self.attributes)
        return f"<Relation {self.name}({attrs})>"
