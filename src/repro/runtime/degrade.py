"""Machine-readable reports for the degradation ladder.

When a governed context-sensitive analysis cannot finish within its
budget it walks a ladder of cheaper configurations:

1. ``full``      — Algorithm 5 under the requested context numbering,
2. ``resume``    — the same, resumed from a checkpoint of the strata that
   reached fixpoint, in a fresh arena under the same variable order,
3. ``truncated`` — k-truncated context numbering (contexts beyond ``k``
   per method merge into the overflow context, as the paper merges
   contexts beyond 2^63),
4. ``context_insensitive`` — Algorithm 3; sound, context-free.

Every rung attempted is recorded as an :class:`Attempt`; the final
:class:`DegradationReport` travels on the analysis result so callers (and
the CLI / bench harness) can tell exactly what they got and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Attempt", "DegradationReport", "LADDER"]

# The rungs, cheapest-last.  ``resume`` only exists as an in-process
# retry (it resumes from the checkpoint the failed ``full`` rung left);
# the cross-process supervisor steps down the other three.
LADDER = ("full", "resume", "truncated", "context_insensitive")


@dataclass
class Attempt:
    """One rung of the ladder: what ran, how it ended, what it cost."""

    mode: str           # full | resume | truncated | context_insensitive
    outcome: str        # ok | timeout | node_budget | iteration_limit | error
    seconds: float = 0.0
    peak_nodes: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "outcome": self.outcome,
            "seconds": round(self.seconds, 6),
            "peak_nodes": self.peak_nodes,
            "detail": self.detail,
        }


@dataclass
class DegradationReport:
    """Why and how far an analysis degraded (``degraded=False`` when the
    first rung succeeded)."""

    degraded: bool = False
    final_mode: str = "full"
    attempts: List[Attempt] = field(default_factory=list)

    def record(self, attempt: Attempt) -> None:
        self.attempts.append(attempt)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "degraded": self.degraded,
            "final_mode": self.final_mode,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    def summary(self) -> str:
        steps = " -> ".join(
            f"{a.mode}:{a.outcome}" for a in self.attempts
        ) or "(no attempts)"
        return f"final={self.final_mode} [{steps}]"
