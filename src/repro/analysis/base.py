"""Shared infrastructure for the analysis drivers.

Each driver loads one of the Datalog programs shipped in
``repro/analysis/datalog/`` (optionally concatenated with query
fragments), sizes the domains from the extracted facts, loads the input
relations, and wraps the solved relations in a result object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from ..datalog import ProgramAST, Solver, apply_domain_sizes, parse_program
from ..datalog.passes import PLAN_MEMO_SIZE
from ..ir.facts import Facts
from ..runtime import (
    DegradationReport,
    IterationLimitExceeded,
    NodeBudgetExceeded,
    ReproError,
    ResourceBudget,
    SolverTimeout,
)

__all__ = [
    "AnalysisError",
    "load_datalog_source",
    "make_solver",
    "AnalysisResult",
    "outcome_of",
]

_DATALOG_DIR = Path(__file__).parent / "datalog"


class AnalysisError(Exception):
    """Raised when an analysis is driven incorrectly."""


def load_datalog_source(name: str, fragments: Sequence[str] = ()) -> str:
    """Read an algorithm's Datalog source, appending query fragments."""
    parts = [(_DATALOG_DIR / f"{name}.dl").read_text()]
    for fragment in fragments:
        parts.append((_DATALOG_DIR / f"{fragment}.dl").read_text())
    return "\n".join(parts)


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _parsed(source: str) -> ProgramAST:
    return parse_program(source)


def make_solver(
    facts: Facts,
    source: str,
    size_overrides: Optional[Dict[str, int]] = None,
    order_spec: Optional[str] = None,
    seminaive: bool = False,
    budget: Optional[ResourceBudget] = None,
    backend: Optional[str] = None,
    optimize: Optional[bool] = None,
    disabled_passes: Optional[Sequence[str]] = None,
    load_facts: bool = True,
) -> Solver:
    """Build a solver for ``source`` sized and named from ``facts``.

    Every declared input relation with a matching fact table is loaded
    automatically; relations like ``IEC`` that are installed as pre-built
    BDDs are left empty for the driver to fill.  ``load_facts=False``
    skips that tuple encoding — for warm starts where a checkpoint is
    about to overwrite every relation anyway, loading the fact tables
    first is pure waste (it dominates the cost of an incremental
    recompile).

    Each distinct source text is parsed once per process.  The solver
    gets its own ``domains`` and ``relations`` dicts, since sizing
    replaces domain entries; the rule list is shared and never changed.
    """
    parsed = _parsed(source)
    program = ProgramAST(
        domains=dict(parsed.domains),
        relations=dict(parsed.relations),
        rules=parsed.rules,
    )
    fact_sizes = facts.sizes
    sizes: Dict[str, int] = {
        dom: fact_sizes[dom] for dom in program.domains if dom in fact_sizes
    }
    if size_overrides:
        sizes.update(size_overrides)
    apply_domain_sizes(program, sizes)
    name_maps = {dom: facts.maps[dom] for dom in program.domains if dom in facts.maps}
    name_maps.setdefault("M", facts.maps["M"])
    solver = Solver(
        program,
        order_spec=order_spec,
        name_maps=name_maps,
        seminaive=seminaive,
        budget=budget,
        backend=backend,
        optimize=optimize,
        disabled_passes=disabled_passes,
    )
    if load_facts:
        for decl in program.relations.values():
            if decl.is_input and decl.name in facts.relations:
                solver.add_tuples(decl.name, facts.relations[decl.name])
    return solver


def outcome_of(err: ReproError) -> str:
    """Map a budget fault to the ``Attempt.outcome`` vocabulary."""
    if isinstance(err, SolverTimeout):
        return "timeout"
    if isinstance(err, NodeBudgetExceeded):
        return "node_budget"
    if isinstance(err, IterationLimitExceeded):
        return "iteration_limit"
    return "error"


@dataclass
class AnalysisResult:
    """Base result: the facts, the solver, and timing/memory statistics.

    ``degraded`` is set when a governed run could not complete the
    requested analysis within its :class:`ResourceBudget` and a cheaper
    configuration produced this answer; ``degradation`` then holds the
    machine-readable ladder transcript.
    """

    facts: Facts
    solver: Solver
    seconds: float = 0.0
    degraded: bool = False
    degradation: Optional[DegradationReport] = None
    resumed: bool = False  # a run_rung attempt consumed a checkpoint

    @property
    def peak_nodes(self) -> int:
        return self.solver.manager.peak_nodes

    @property
    def peak_bytes(self) -> int:
        return self.peak_nodes * 16

    @property
    def iterations(self) -> int:
        return self.solver.stats.iterations

    def relation(self, name: str):
        return self.solver.relation(name)

    def relation_tuples(self, name: str) -> Set[tuple]:
        return set(self.solver.relation(name).tuples())

    # ------------------------------------------------------------------
    # Name-level conveniences shared by all points-to style results.
    # ------------------------------------------------------------------

    def _points_to_tuples(self) -> Iterable[Tuple[int, int]]:
        raise NotImplementedError

    def points_to(self, method: str, var: str) -> Set[str]:
        """Heap names that ``var`` of ``method`` may point to."""
        v = self.facts.var_id(method, var)
        heaps = self.facts.maps["H"]
        return {heaps[h] for vv, h in self._points_to_tuples() if vv == v}

    def may_alias(self, method1: str, var1: str, method2: str, var2: str) -> bool:
        """True when the two variables may point to a common object."""
        v1 = self.facts.var_id(method1, var1)
        v2 = self.facts.var_id(method2, var2)
        h1 = {h for v, h in self._points_to_tuples() if v == v1}
        h2 = {h for v, h in self._points_to_tuples() if v == v2}
        return bool(h1 & h2)
