"""The supervised worker: sandboxed child + bounded parallel pool.

Child side (``python -m repro.runtime.worker``): reads one JSON job from
stdin, applies the requested ``RLIMIT_AS`` cap, re-arms fault injection
from the environment, runs the job, and writes exactly one JSON protocol
message to stdout::

    {"ok": true,  "result": {...}}                            # exit 0
    {"ok": false, "kind": "oom"|"budget"|"exception",
     "error": "MemoryError", "message": "...",
     "traceback": "..."}                                      # exit 1

Everything else the job prints goes to stderr (stdout is reserved for
the protocol; the real ``sys.stdout`` is swapped away before the job
runs).  A worker that dies without a protocol message — OOM-killed,
aborted, segfaulted, SIGKILLed by the supervisor — is classified by the
parent from its exit status (:mod:`repro.runtime.supervisor`).

Parent side: :class:`WorkerPool` runs many jobs with per-job isolation,
bounded parallelism, and order-preserving results.  Each pool thread
supervises its own *subprocess* (threads never fork), so a wedged or
dying worker affects only its own slot: a poisoned corpus entry cannot
take down the run.

Job kinds
---------

``probe``
    Minimal job for supervisor tests: fires the ``probe`` fault site,
    optionally sleeps, echoes its payload back.
``solve_tc``
    A small Datalog transitive closure — crosses both in-tree fault
    seams (``bdd.mk``, ``solver.stratum``) with real kernel work.
``analyze``
    One rung of the points-to analysis on a mini-Java source file
    (:meth:`ContextSensitiveAnalysis.run_rung`), or the
    context-insensitive analysis.  Supports checkpoint resume.
``bench``
    One benchmark corpus entry via :func:`repro.bench.harness.run_benchmark`.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from .errors import ReproError, WorkerCrashed
from . import faults

__all__ = ["MAX_POOL_WORKERS", "WorkerPool", "default_jobs", "run_job", "main"]

# Upper bound on pool parallelism.  Each slot supervises a full solver
# child process, so past this point extra slots just thrash memory.
MAX_POOL_WORKERS = 16


def default_jobs() -> int:
    """Pool width when the caller does not choose: the machine's CPU
    count, clamped to the pool bound."""
    return max(1, min(MAX_POOL_WORKERS, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Job handlers (child side)
# ----------------------------------------------------------------------

_TC_SOURCE = """
.domains
N 64
.relations
edge (src : N0, dst : N1) input
path (src : N0, dst : N1) output
.rules
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


def _job_probe(job: Dict[str, Any]) -> Dict[str, Any]:
    faults.fire("probe")
    if job.get("sleep"):
        time.sleep(float(job["sleep"]))
    if job.get("allocate_mb"):
        # Deterministic allocation for RLIMIT_AS tests: one big buffer,
        # touched so the pages are really committed.
        buf = bytearray(int(job["allocate_mb"]) << 20)
        buf[:: 4096] = b"x" * len(buf[:: 4096])
    return {"echo": job.get("echo"), "pid": os.getpid()}


def _job_solve_tc(job: Dict[str, Any]) -> Dict[str, Any]:
    from ..datalog import Solver, parse_program

    n = int(job.get("chain", 12))
    prog = parse_program(_TC_SOURCE)
    solver = Solver(
        prog,
        budget=_budget_from(job),
        backend=job.get("backend"),
        optimize=job.get("optimize"),
    )
    solver.add_tuples("edge", [(i, i + 1) for i in range(n)])
    t0 = time.monotonic()
    solver.solve()
    return {
        "paths": solver.relation("path").count(),
        "iterations": solver.stats.iterations,
        "solve_seconds": time.monotonic() - t0,
        "peak_nodes": solver.manager.peak_nodes,
        "backend": solver.manager.backend_name,
    }


def _budget_from(job: Dict[str, Any]):
    from .budget import ResourceBudget

    if not any(
        job.get(k) is not None
        for k in ("timeout", "node_budget", "max_iterations")
    ):
        return None
    return ResourceBudget(
        timeout=job.get("timeout"),
        node_budget=job.get("node_budget"),
        max_iterations=job.get("max_iterations"),
    )


def _job_analyze(job: Dict[str, Any]) -> Dict[str, Any]:
    import pathlib

    from ..analysis import ContextInsensitiveAnalysis, ContextSensitiveAnalysis
    from ..ir.facts import extract_facts
    from ..ir.frontend import parse_program as parse_mj

    text = pathlib.Path(job["program_path"]).read_text()
    program = parse_mj(
        text,
        main=job.get("main", "Main"),
        include_library=not job.get("no_library", False),
    )
    facts = extract_facts(program)
    budget = _budget_from(job)
    backend = job.get("backend")
    t0 = time.monotonic()
    if not job.get("context_sensitive", True):
        result = ContextInsensitiveAnalysis(
            facts=facts,
            budget=budget,
            backend=backend,
            optimize=job.get("optimize"),
        ).run()
        solve_seconds = time.monotonic() - t0
        out = {
            "relation": "vP",
            "tuples": result.relation("vP").count(),
            "degraded": False,
            "resumed": False,
            "mode": "context_insensitive",
        }
    else:
        mode = job.get("mode", "full")
        analysis = ContextSensitiveAnalysis(
            facts=facts,
            budget=budget,
            checkpoint_dir=job.get("checkpoint_dir"),
            degrade=False,
            truncate_cap=int(job.get("truncate_cap", 64)),
            backend=backend,
            optimize=job.get("optimize"),
        )
        result = analysis.run_rung(mode)
        solve_seconds = time.monotonic() - t0
        if mode == "context_insensitive":
            out = {"relation": "vP", "tuples": result.relation("vP").count()}
        else:
            out = {
                "relation": "vPC",
                "tuples": result.relation("vPC").count(),
                "call_paths": result.max_paths(),
            }
        out["degraded"] = bool(result.degraded)
        out["resumed"] = bool(getattr(result, "resumed", False))
        out["mode"] = mode
        varsets = {}
        for spec in job.get("vars") or ():
            method, _, var = spec.rpartition(":")
            varsets[spec] = sorted(result.points_to(method, var))
        if varsets:
            out["vars"] = varsets
    out["seconds"] = result.seconds
    out["solve_seconds"] = solve_seconds
    out["peak_nodes"] = result.peak_nodes
    out["backend"] = result.solver.manager.backend_name
    return out


def _job_bench(job: Dict[str, Any]) -> Dict[str, Any]:
    from ..bench.harness import run_benchmark

    t0 = time.monotonic()
    run = run_benchmark(
        job["name"],
        timeout=job.get("timeout"),
        node_budget=job.get("node_budget"),
        checkpoint_dir=job.get("checkpoint_dir"),
        backend=job.get("backend"),
    )
    out = run.to_dict()
    out["solve_seconds"] = time.monotonic() - t0
    return out


_HANDLERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "probe": _job_probe,
    "solve_tc": _job_solve_tc,
    "analyze": _job_analyze,
    "bench": _job_bench,
}


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one job dict to its handler (no sandboxing — the caller
    is either the child ``main`` or an in-process test)."""
    kind = job.get("kind")
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise ValueError(
            f"unknown job kind {kind!r} (expected one of {sorted(_HANDLERS)})"
        )
    return handler(job)


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------

def _apply_rlimit(memory_limit_mb: Optional[int]) -> None:
    if not memory_limit_mb:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    limit = int(memory_limit_mb) << 20
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - platform quirk
        print("worker: could not apply RLIMIT_AS", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Child protocol: one JSON job on stdin, one JSON message on stdout."""
    protocol_out = sys.stdout
    # Reserve real stdout for the protocol; job prints land on stderr.
    sys.stdout = sys.stderr
    try:
        job = json.loads(sys.stdin.read() or "{}")
    except json.JSONDecodeError as err:
        print(json.dumps({
            "ok": False, "kind": "protocol", "error": "JSONDecodeError",
            "message": f"malformed job on stdin: {err}",
        }), file=protocol_out)
        return 1
    _apply_rlimit(job.get("memory_limit_mb"))
    faults.arm_from_env()
    try:
        result = run_job(job)
        message: Dict[str, Any] = {"ok": True, "result": result}
        status = 0
    except MemoryError:
        # Keep the handler allocation-free: the big buffers are garbage
        # by now, and the message below is small.
        message = {
            "ok": False, "kind": "oom", "error": "MemoryError",
            "message": "memory limit exceeded (RLIMIT_AS)",
        }
        status = 1
    except ReproError as err:
        message = {
            "ok": False, "kind": "budget", "error": type(err).__name__,
            "message": str(err), "traceback": traceback.format_exc(),
        }
        status = 1
    except BaseException as err:
        message = {
            "ok": False, "kind": "exception", "error": type(err).__name__,
            "message": str(err), "traceback": traceback.format_exc(),
        }
        status = 1
    print(json.dumps(message), file=protocol_out)
    protocol_out.flush()
    return status


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

class WorkerPool:
    """Run many supervised jobs with bounded parallelism.

    Each pool slot is a *thread* whose only work is supervising its own
    child process — no fork-under-threads hazard, no GIL contention (the
    thread blocks in ``communicate``).  Results are order-preserving: the
    i-th result corresponds to the i-th job.  A job whose every attempt
    failed contributes its :class:`WorkerCrashed` exception (not a raise)
    so one poisoned entry never hides the others' results.
    """

    def __init__(self, supervisor, jobs: int = 2) -> None:
        self.supervisor = supervisor
        self.jobs = max(1, min(MAX_POOL_WORKERS, int(jobs)))

    def run(
        self,
        job_list: Sequence[Dict[str, Any]],
        fallbacks: Optional[Callable[[Dict[str, Any]], Sequence[Dict[str, Any]]]] = None,
    ) -> List[Any]:
        """Run every job; return a list of :class:`SupervisedResult` or
        :class:`WorkerCrashed` (index-aligned with ``job_list``).

        ``fallbacks(job)`` supplies per-job degradation steps (e.g.
        :func:`~repro.runtime.supervisor.ladder_fallbacks`).
        """
        def one(job: Dict[str, Any]) -> Any:
            steps = list(fallbacks(job)) if fallbacks is not None else []
            try:
                return self.supervisor.run(job, fallbacks=steps)
            except WorkerCrashed as err:
                return err

        if len(job_list) <= 1 or self.jobs == 1:
            return [one(job) for job in job_list]
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(one, job_list))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
