"""Context-sensitive type analysis (Algorithm 6, Section 5.5).

The 0-CFA-style type propagation made context-sensitive by the same
Algorithm 4 numbering — "much faster [than the full pointer analysis]
because the number of objects that can be pointed to is much smaller."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from .context_sensitive import ContextSensitiveAnalysis, ContextSensitiveResult

__all__ = ["ContextSensitiveTypeAnalysis", "TypeAnalysisResult"]


@dataclass
class TypeAnalysisResult(ContextSensitiveResult):
    """Result of Algorithm 6: ``vTC`` and ``fT``."""

    @property
    def vTC(self):
        return self.solver.relation("vTC")

    @property
    def fT(self):
        return self.solver.relation("fT")

    def _points_to_tuples(self):
        raise NotImplementedError("type analysis has no points-to relation")

    def types_of(self, method: str, var: str) -> Set[str]:
        """All concrete types ``var`` may refer to, across all contexts."""
        v = self.facts.var_id(method, var)
        projected = self.vTC.project("variable", "type")
        types = self.facts.maps["T"]
        return {types[t] for vv, t in projected.tuples() if vv == v}

    def field_types(self, field_name: str) -> Set[str]:
        f = self.facts.id_of("F", field_name)
        types = self.facts.maps["T"]
        return {types[t] for ff, t in self.fT.tuples() if ff == f}


class ContextSensitiveTypeAnalysis(ContextSensitiveAnalysis):
    """Driver for Algorithm 6 (same setup as Algorithm 5)."""

    algorithm = "algorithm6"
    result_class = TypeAnalysisResult
