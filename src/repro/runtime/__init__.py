"""Resource-governed solver runtime.

The paper's system can blow up under a bad variable order or an unlucky
context numbering; Whaley & Lam report runs that exhaust memory or wall
clock.  This package makes such blowups *recoverable* instead of fatal:

* :mod:`repro.runtime.errors` — the structured :class:`ReproError`
  exception hierarchy, every member carrying partial solve statistics and
  the last-completed stratum,
* :mod:`repro.runtime.budget` — :class:`ResourceBudget` (wall-clock
  deadline, BDD node-count budget, fixpoint-iteration cap) and the
  cooperative :class:`Watchdog` checked inside the BDD kernel's ``mk``
  hot path and the solver's stratum loop,
* :mod:`repro.runtime.checkpoint` — atomic snapshot/restore of *all*
  solver relations plus domain metadata (checkpoint format v2), with
  corruption detection on load and order-independent restore,
* :mod:`repro.runtime.degrade` — the machine-readable
  :class:`DegradationReport` describing which rung of the degradation
  ladder (full → resumed → k-truncated → context-insensitive) produced
  the final answer,
* :mod:`repro.runtime.supervisor` — *hard* enforcement: run a job in a
  sandboxed child process with a wall-clock deadline (SIGTERM → SIGKILL
  escalation), an ``RLIMIT_AS`` memory cap, crash classification, and
  retry-with-backoff that resumes from checkpoints and steps down the
  degradation ladder,
* :mod:`repro.runtime.worker` — the worker child's JSON job protocol and
  the bounded parallel :class:`WorkerPool` built on the supervisor,
* :mod:`repro.runtime.faults` — deterministic, env-var-armed fault
  injection (hang / OOM / abort / exception) at the kernel and solver
  hot paths, so every failure mode above is testable.

The checkpoint API is imported lazily (PEP 562): it depends on the BDD
layer, which itself uses :mod:`repro.runtime.faults`, and an eager import
here would close that cycle.
"""

from .budget import ResourceBudget, Watchdog
from .degrade import LADDER, Attempt, DegradationReport
from .errors import (
    CheckpointError,
    InvalidInputError,
    IterationLimitExceeded,
    NodeBudgetExceeded,
    ReproError,
    SolverTimeout,
    WorkerCrashed,
    WorkerKilled,
)

__all__ = [
    "Attempt",
    "CheckpointError",
    "CheckpointMeta",
    "DegradationReport",
    "InvalidInputError",
    "IterationLimitExceeded",
    "LADDER",
    "NodeBudgetExceeded",
    "ReproError",
    "ResourceBudget",
    "SolverTimeout",
    "Supervisor",
    "SupervisorConfig",
    "SupervisedResult",
    "Watchdog",
    "WorkerCrashed",
    "WorkerKilled",
    "classify_exit",
    "WorkerPool",
    "atomic_write_text",
    "checkpoint_lines",
    "load_checkpoint",
    "load_checkpoint_lines",
    "save_checkpoint",
]

_LAZY = {
    "CheckpointMeta": "checkpoint",
    "atomic_write_text": "atomic",
    "checkpoint_lines": "checkpoint",
    "load_checkpoint": "checkpoint",
    "load_checkpoint_lines": "checkpoint",
    "save_checkpoint": "checkpoint",
    "Supervisor": "supervisor",
    "SupervisorConfig": "supervisor",
    "SupervisedResult": "supervisor",
    "classify_exit": "supervisor",
    "WorkerPool": "worker",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
