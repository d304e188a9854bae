"""Process-isolated supervised execution: hard limits the cooperative
runtime cannot enforce.

PR 1's :class:`~repro.runtime.budget.ResourceBudget` is *cooperative* —
checked at the BDD ``mk`` watchdog stride and at stratum boundaries.  It
cannot interrupt a wedged native call, a runaway C-level allocation, or a
process the kernel has already decided to kill.  The supervisor closes
that gap by running the job in a sandboxed **child process**:

* **hard wall-clock deadline** — the parent waits with a timeout and
  escalates ``SIGTERM`` → (after a grace period) ``SIGKILL``; a worker
  that ignores ``SIGTERM`` is still dead within ``grace`` seconds;
* **hard memory cap** — the child applies ``resource.setrlimit(RLIMIT_AS)``
  before running the job, so a runaway allocation fails *inside the
  child* (``MemoryError`` → a structured ``oom`` report) instead of
  taking the parent down;
* **crash classification** — from the exit status and the JSON protocol:
  a missing result plus ``SIGKILL`` is an OOM-kill, ``SIGABRT``/``SIGSEGV``
  is a native crash, a supervisor kill is a hang, a protocol error
  message is an exception/budget/oom, anything else is a crash;
* **retry with exponential backoff + jitter** — each retry sets
  ``REPRO_SUPERVISOR_ATTEMPT`` so fault injection can be attempt-scoped,
  and jobs that checkpoint (``checkpoint_dir``) resume from the last
  checkpoint instead of starting over;
* **degradation step-down** — when retries for a job are exhausted the
  supervisor moves to the caller-supplied fallback jobs (typically the
  ladder of :data:`repro.runtime.degrade.LADDER` modes), so
  :class:`SupervisedResult` always says *how* the answer was obtained.

The clock and RNG are injectable, so the whole retry/backoff schedule is
testable without a single real sleep.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .errors import WorkerCrashed, WorkerKilled
from .faults import ATTEMPT_VAR

__all__ = [
    "AttemptRecord",
    "Supervisor",
    "SupervisorConfig",
    "SupervisedResult",
    "backoff_delay",
    "child_env",
    "classify_exit",
    "ladder_fallbacks",
    "write_crash_report",
]

CRASH_DIR_VAR = "REPRO_CRASH_DIR"

# Exit statuses that still carried a well-formed protocol message are
# "soft" failures (the job failed, the worker did not).
_STDERR_TAIL = 4096

# itertools.count is effectively atomic under the GIL, so threads and
# supervisors sharing a process get unique crash-report names.
_crash_seq = itertools.count(1)


def backoff_delay(
    retry: int,
    base: float,
    factor: float,
    cap: float,
    jitter: float,
    rng: random.Random,
) -> float:
    """The one restart policy (job retries, serve restarts, client
    reconnects): ``min(cap, base * factor**(retry-1))`` before retry
    ``retry`` (1-based), stretched by up to ``jitter`` of itself."""
    delay = min(cap, base * factor ** (retry - 1))
    return delay * (1.0 + jitter * rng.random())


def child_env(attempt: int, *overlays: Optional[Dict[str, str]]) -> Dict[str, str]:
    """A supervised child's environment: this process's, then each
    overlay, then ``REPRO_SUPERVISOR_ATTEMPT`` so fault injection can be
    attempt-scoped."""
    env = dict(os.environ)
    for overlay in overlays:
        env.update(overlay or {})
    env[ATTEMPT_VAR] = str(attempt)
    return env


def write_crash_report(crash_dir: Optional[str], report: Dict[str, Any]) -> None:
    """Write one crash report (JSON) into ``crash_dir``, else
    ``$REPRO_CRASH_DIR``; a no-op when neither is set."""
    crash_dir = crash_dir or os.environ.get(CRASH_DIR_VAR)
    if not crash_dir:
        return
    seq = next(_crash_seq)
    path = pathlib.Path(crash_dir) / f"crash-{os.getpid()}-{seq:03d}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - diagnostics must never fail a run
        pass


@dataclass
class SupervisorConfig:
    """Knobs for one supervised job (all attempts and fallbacks).

    ``timeout`` is the hard per-attempt wall-clock deadline; ``grace`` is
    how long a SIGTERM'd worker gets to die before SIGKILL.  ``retries``
    is the number of *additional* attempts per job step (so a job runs at
    most ``retries + 1`` times before the next fallback), each after a
    :func:`backoff_delay` sleep.
    """

    timeout: Optional[float] = None
    memory_limit_mb: Optional[int] = None
    retries: int = 2
    grace: float = 2.0
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    checkpoint_dir: Optional[str] = None
    crash_dir: Optional[str] = None
    env: Dict[str, str] = field(default_factory=dict)


@dataclass
class AttemptRecord:
    """One child launch: what ran, how it ended, what it cost."""

    mode: str
    attempt: int                      # 0-based, across all steps
    classification: str               # ok | hang | oom | oom-kill | ...
    seconds: float = 0.0
    exit_code: Optional[int] = None   # negative = died on that signal
    term_signal: Optional[int] = None
    escalated: bool = False           # SIGTERM was not enough
    message: str = ""
    backoff: Optional[float] = None   # sleep scheduled after this attempt
    stderr_tail: str = ""
    result: Any = None                # job value when classification == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "attempt": self.attempt,
            "classification": self.classification,
            "seconds": round(self.seconds, 6),
            "exit_code": self.exit_code,
            "term_signal": self.term_signal,
            "escalated": self.escalated,
            "message": self.message,
            "backoff": self.backoff,
            "stderr_tail": self.stderr_tail,
        }


@dataclass
class SupervisedResult:
    """The supervisor's answer: the value plus *how* it was obtained."""

    ok: bool
    value: Any
    mode: str                         # mode of the job step that answered
    degraded: bool                    # a fallback step (or in-child ladder)
    attempts: List[AttemptRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def retries(self) -> int:
        """Attempts beyond the first, across all steps."""
        return max(0, len(self.attempts) - 1)

    @property
    def classification(self) -> str:
        return self.attempts[-1].classification if self.attempts else "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "value": self.value,
            "mode": self.mode,
            "degraded": self.degraded,
            "retries": self.retries,
            "wall_seconds": round(self.wall_seconds, 6),
            "attempts": [a.to_dict() for a in self.attempts],
        }


def classify_exit(
    exit_code: Optional[int], term_signal: Optional[int]
) -> "tuple[str, str]":
    """``(classification, message)`` for a child that died without a
    protocol message — shared by the job supervisor and the serve
    supervisor, so both report the same taxonomy."""
    if term_signal == signal.SIGKILL:
        return "oom-kill", "worker killed by SIGKILL (kernel OOM killer?)"
    if term_signal == signal.SIGABRT:
        return "abort", "worker died on SIGABRT"
    if term_signal == signal.SIGSEGV:
        return "segfault", "worker died on SIGSEGV"
    if term_signal is not None:
        name = signal.Signals(term_signal).name
        return f"signal:{name}", f"worker died on {name}"
    return "crash", f"worker exited {exit_code} without a protocol message"


def ladder_fallbacks(job: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Degradation fallbacks for an analysis job: the same job with the
    mode stepped down :data:`~repro.runtime.degrade.RUNGS`.  There is no
    ``resume`` step: a retried ``full`` attempt is the ``resume`` rung,
    since it loads the checkpoint its predecessor left."""
    from .degrade import RUNGS

    mode = job.get("mode", "full")
    if mode not in RUNGS:
        return []
    out = []
    for nxt in RUNGS[RUNGS.index(mode) + 1:]:
        step = dict(job)
        step["mode"] = nxt
        out.append(step)
    return out


class Supervisor:
    """Run JSON jobs in supervised worker children.

    Parameters
    ----------
    config:
        The :class:`SupervisorConfig`.
    sleep, monotonic, rng:
        Injection points for the backoff clock (tests pass a recording
        ``sleep`` and a seeded ``rng`` — no real sleeping in CI).
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self._sleep = sleep
        self._monotonic = monotonic
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------

    def run_attempt(self, job: Dict[str, Any], attempt: int = 0) -> AttemptRecord:
        """Launch one worker child for ``job`` and classify how it ended.

        Never raises for child failures — the classification travels in
        the returned :class:`AttemptRecord` (``classification == "ok"``
        means ``record.result`` holds the job's value).
        """
        cfg = self.config
        payload = dict(job)
        payload.pop("env", None)
        if cfg.memory_limit_mb is not None:
            payload.setdefault("memory_limit_mb", cfg.memory_limit_mb)
        if cfg.checkpoint_dir is not None:
            payload.setdefault("checkpoint_dir", cfg.checkpoint_dir)
        record = AttemptRecord(
            mode=payload.get("mode", "full"), attempt=attempt,
            classification="crash",
        )
        start = self._monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(attempt, cfg.env, job.get("env")),
        )
        stdin_data = (json.dumps(payload) + "\n").encode()
        killed = False
        try:
            out, err = proc.communicate(stdin_data, timeout=cfg.timeout)
        except subprocess.TimeoutExpired:
            killed = True
            proc.terminate()  # SIGTERM: a cooperative worker dies here
            try:
                out, err = proc.communicate(timeout=cfg.grace)
            except subprocess.TimeoutExpired:
                record.escalated = True
                proc.kill()  # SIGKILL: nothing survives this
                out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        record.seconds = self._monotonic() - start
        record.exit_code = proc.returncode
        if proc.returncode is not None and proc.returncode < 0:
            record.term_signal = -proc.returncode
        record.stderr_tail = err[-_STDERR_TAIL:].decode("utf-8", "replace")

        message = _last_protocol_line(out)
        if killed:
            record.classification = "hang"
            record.message = (
                f"deadline of {cfg.timeout}s passed; "
                + ("SIGTERM ignored, killed" if record.escalated else "terminated")
            )
        elif message is not None and message.get("ok") is True:
            record.classification = "ok"
            record.result = message.get("result")
        elif message is not None:
            record.classification = str(message.get("kind", "exception"))
            record.message = str(message.get("message", ""))
        else:
            record.classification, record.message = classify_exit(
                proc.returncode, record.term_signal
            )
        return record

    # ------------------------------------------------------------------
    # The retry / step-down loop
    # ------------------------------------------------------------------

    def run(
        self,
        job: Dict[str, Any],
        fallbacks: Sequence[Dict[str, Any]] = (),
    ) -> SupervisedResult:
        """Run ``job``, retrying and stepping down ``fallbacks``.

        Returns a :class:`SupervisedResult` on any success; raises
        :class:`WorkerKilled` (final failure was a supervisor kill) or
        :class:`WorkerCrashed` when every attempt of every step failed.
        The exception carries the full attempt transcript.
        """
        cfg = self.config
        attempts: List[AttemptRecord] = []
        start = self._monotonic()
        steps = [job, *fallbacks]
        attempt_index = 0
        for step_index, step in enumerate(steps):
            for retry in range(cfg.retries + 1):
                record = self.run_attempt(step, attempt=attempt_index)
                attempts.append(record)
                attempt_index += 1
                if record.classification == "ok":
                    value = record.result
                    child_degraded = bool(
                        isinstance(value, dict) and value.get("degraded")
                    )
                    return SupervisedResult(
                        ok=True,
                        value=value,
                        mode=step.get("mode", "full"),
                        degraded=step_index > 0 or child_degraded,
                        attempts=attempts,
                        wall_seconds=self._monotonic() - start,
                    )
                write_crash_report(cfg.crash_dir, {
                    "job": {k: v for k, v in step.items() if k != "env"},
                    "attempt": record.to_dict(),
                })
                if retry < cfg.retries:
                    record.backoff = backoff_delay(
                        retry + 1, cfg.backoff_base, cfg.backoff_factor,
                        cfg.backoff_max, cfg.jitter, self._rng,
                    )
                    self._sleep(record.backoff)
        last = attempts[-1]
        cls = WorkerKilled if last.classification == "hang" else WorkerCrashed
        raise cls(
            f"supervised job failed after {len(attempts)} attempt(s) over "
            f"{len(steps)} step(s): {last.classification}"
            + (f" ({last.message})" if last.message else ""),
            classification=last.classification,
            exit_code=last.exit_code,
            term_signal=last.term_signal,
            attempts=[a.to_dict() for a in attempts],
        )


def _last_protocol_line(out: bytes) -> Optional[Dict[str, Any]]:
    """The last well-formed JSON object on the worker's stdout, if any.

    The protocol is one JSON object per line; the *last* one wins so a
    job that prints to stdout before the protocol message cannot confuse
    the parent (the worker redirects job prints to stderr anyway —
    defense in depth).
    """
    for raw in reversed(out.splitlines()):
        raw = raw.strip()
        if not raw.startswith(b"{"):
            continue
        try:
            message = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(message, dict) and "ok" in message:
            return message
    return None
