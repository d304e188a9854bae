"""Chaos-bench the serve layer: availability under injected faults.

This harness measures how *available* the server stays when things go
wrong; how *fast* it is, is perfbench's ``serve`` workload.  Each
scenario runs a real ``repro serve`` subprocess (faults armed via
``REPRO_FAULT`` in the child's environment — see
:mod:`repro.runtime.faults`) and drives it with circuit-breaker
:class:`~repro.serve.ResilientClient` workers, tallying every call as a
success, an *expected* rejection (``overloaded`` / a deliberate
``deadline_ms=0`` probe), or a failure:

* **baseline** — no faults; the control row.
* **dispatch_faults** — ``exception@serve.dispatch%N``: an intermittent
  ~1/N per-request fault.  Typed ``server-error`` responses, connection
  and server survive.
* **accept_faults** — ``exception@serve.accept%N``: every Nth accepted
  connection is dropped at the seam; clients must reconnect.
* **overload** — tiny ``--max-pending`` under zero-think clients, plus
  ``deadline_ms=0`` probes; ``overloaded``/``deadline-exceeded`` here
  are the server *working correctly* and are excluded from availability.
* **hot_swap** — ``--swaps`` (default 100) ``reload`` round trips
  between two databases while the workers hammer the server mid-flight.
* **crash_restart** — the child SIGABRTs mid-dispatch on its first
  incarnation (``abort@serve.dispatch#K~1``); the
  :class:`~repro.serve.ServeSupervisor` restarts it on the pinned port
  and a fixed workload must complete unattended across the crash.

Availability per scenario (and overall) is
``successes / (attempts - expected_rejections)`` — the serving SLO this
repo's robustness work targets is >= 99% under every fault mix.

Output: ``results/BENCH_chaos.json``.  Run as::

    python -m repro.bench.chaos_bench --duration 3
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import re
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..runtime.errors import WorkerCrashed
from ..serve import (
    PointsToDatabase,
    ResilientClient,
    ServerError,
    compile_database,
)
from ..serve.engine import QueryError
from ..serve.metrics import percentile
from ..serve.protocol import encode
from ..serve.supervise import ServeSupervisor
from .corpus import corpus_entry
from .generator import generate_program

__all__ = ["run_chaos_bench", "main"]

_DEFAULT_ENTRY = "freetts"
_DEFAULT_CLIENTS = 4
_DEFAULT_DURATION = 3.0
_DEFAULT_SWAPS = 100

# Codes that mean "the server correctly refused work", not "the server
# failed".  They are excluded from the availability denominator.
_EXPECTED_REJECTIONS = ("overloaded", "deadline-exceeded")


def _sample_queries(db: PointsToDatabase, count: int = 16) -> List[Dict[str, Any]]:
    """A rotating pool of distinct demand queries drawn from the db."""
    queries: List[Dict[str, Any]] = []
    var_specs = sorted(db.var_reps)
    methods = db.maps.get("M", [])
    heaps = db.maps.get("H", [])
    for spec in var_specs[: count // 2]:
        queries.append({"kind": "points-to", "args": {"variable": spec}})
    for name in methods[: count // 4]:
        queries.append({"kind": "callers", "args": {"method": name}})
    for name in heaps[: count // 4]:
        queries.append({"kind": "escape", "args": {"heap": name}})
    return queries or [{"kind": "escape", "args": {"heap": heaps[0]}}]


class _ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port.

    ``extra_args`` extends the serve command line (admission limits,
    retry hints); ``env_extra`` adds environment variables, which is how
    a scenario arms ``REPRO_FAULT`` seams in the child.
    """

    def __init__(
        self,
        db_path: str,
        *,
        extra_args: Sequence[str] = (),
        env_extra: Optional[Dict[str, str]] = None,
    ) -> None:
        env = dict(os.environ)
        src_root = str(pathlib.Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        if env_extra:
            env.update(env_extra)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", db_path, "--port", "0",
                "--cache-size", "4096",
                "--max-connections", "64",
                *extra_args,
            ],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        assert self.proc.stderr is not None
        line = self.proc.stderr.readline()
        match = re.search(r"on ([\d.]+):(\d+)", line)
        if not match:
            self.proc.kill()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        # Drain stderr in the background so the server never blocks on a
        # full pipe.
        self._drain = threading.Thread(
            target=self.proc.stderr.read, daemon=True
        )
        self._drain.start()

    def stop(self) -> None:
        try:
            with socket.create_connection((self.host, self.port), timeout=5) as s:
                s.sendall(encode({"id": 0, "verb": "shutdown"}))
                s.recv(4096)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)

    def __enter__(self) -> "_ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class _Tally:
    """Thread-safe outcome counters shared by a scenario's workers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.rejections: Dict[str, int] = {}
        self.failure_codes: Dict[str, int] = {}
        self.latencies: List[float] = []
        self.reconnects = 0
        self.retries = 0
        self.overload_waits = 0

    def success(self, seconds: float) -> None:
        with self._lock:
            self.attempts += 1
            self.successes += 1
            self.latencies.append(seconds)

    def rejected(self, code: str) -> None:
        with self._lock:
            self.attempts += 1
            self.rejections[code] = self.rejections.get(code, 0) + 1

    def failure(self, code: str) -> None:
        with self._lock:
            self.attempts += 1
            self.failures += 1
            self.failure_codes[code] = self.failure_codes.get(code, 0) + 1

    def client_done(self, client: ResilientClient) -> None:
        with self._lock:
            self.reconnects += client.reconnects
            self.retries += client.retries
            self.overload_waits += client.overload_waits

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            rejected = sum(self.rejections.values())
            denominator = self.attempts - rejected
            availability = (
                100.0 * self.successes / denominator
                if denominator > 0 else 100.0
            )
            samples = sorted(self.latencies)
            return {
                "attempts": self.attempts,
                "successes": self.successes,
                "failures": self.failures,
                "failure_codes": dict(self.failure_codes),
                "expected_rejections": dict(self.rejections),
                "availability_pct": round(availability, 3),
                "latency": {
                    "p50_s": round(percentile(samples, 50), 6),
                    "p99_s": round(percentile(samples, 99), 6),
                } if samples else None,
                "client": {
                    "reconnects": self.reconnects,
                    "retries": self.retries,
                    "overload_waits": self.overload_waits,
                },
            }


def _worker(
    host: str,
    port: int,
    queries: Sequence[Dict[str, Any]],
    slot: int,
    stop: threading.Event,
    tally: _Tally,
    *,
    no_cache: bool = False,
    deadline_probe_every: int = 0,
    client_kwargs: Optional[Dict[str, Any]] = None,
) -> None:
    kwargs = dict(
        timeout=10.0,
        max_retries=8,
        backoff_base=0.02,
        backoff_factor=2.0,
        backoff_max=0.25,
        jitter=0.1,
        failure_threshold=64,
        reset_after=0.2,
        rng=random.Random(1000 + slot),
    )
    kwargs.update(client_kwargs or {})
    client = ResilientClient(host, port, **kwargs)
    try:
        i = 0
        while not stop.is_set():
            q = queries[(slot + i) % len(queries)]
            i += 1
            probe = (
                deadline_probe_every > 0
                and i % deadline_probe_every == 0
            )
            t0 = time.perf_counter()
            try:
                client.query(
                    q["kind"],
                    q["args"],
                    deadline_ms=0 if probe else None,
                    no_cache=no_cache,
                )
                tally.success(time.perf_counter() - t0)
            except (ServerError, QueryError) as err:
                code = getattr(err, "code", "") or type(err).__name__
                if code in _EXPECTED_REJECTIONS and (
                    probe or code == "overloaded"
                ):
                    tally.rejected(code)
                else:
                    tally.failure(code)
            except ConnectionError:
                tally.failure("connection-lost")
    finally:
        tally.client_done(client)
        client.close()


def _drive(
    host: str,
    port: int,
    queries: Sequence[Dict[str, Any]],
    clients: int,
    stop: threading.Event,
    **worker_kwargs: Any,
) -> tuple:
    tally = _Tally()
    threads = [
        threading.Thread(
            target=_worker,
            args=(host, port, queries, slot, stop, tally),
            kwargs=worker_kwargs,
            daemon=True,
        )
        for slot in range(clients)
    ]
    for t in threads:
        t.start()
    return threads, tally


def _run_for(
    server: _ServerProcess,
    queries: Sequence[Dict[str, Any]],
    clients: int,
    duration: float,
    **worker_kwargs: Any,
) -> _Tally:
    stop = threading.Event()
    threads, tally = _drive(
        server.host, server.port, queries, clients, stop, **worker_kwargs
    )
    time.sleep(duration)
    stop.set()
    for t in threads:
        t.join(timeout=30.0)
    return tally


# ----------------------------------------------------------------------
# Scenarios


def _scenario_baseline(db_path, db_id, queries, clients, duration):
    with _ServerProcess(db_path) as server:
        tally = _run_for(server, queries, clients, duration)
    return {"entry": "baseline", "db_id": db_id, "faults": None,
            **tally.summary()}


def _scenario_dispatch_faults(db_path, db_id, queries, clients, duration,
                              stride=300):
    spec = f"exception@serve.dispatch%{stride}"
    with _ServerProcess(db_path, env_extra={"REPRO_FAULT": spec}) as server:
        tally = _run_for(server, queries, clients, duration, no_cache=True)
    return {"entry": "dispatch_faults", "db_id": db_id, "faults": spec,
            **tally.summary()}


def _scenario_accept_faults(db_path, db_id, queries, clients, duration,
                            stride=10):
    spec = f"exception@serve.accept%{stride}"
    with _ServerProcess(
        db_path,
        # Recycle connections every 50 requests so the accept seam is
        # actually on the hot path — long-lived connections would see
        # one accept per client and the fault would never fire.
        extra_args=["--max-requests", "50"],
        env_extra={"REPRO_FAULT": spec},
    ) as server:
        tally = _run_for(
            server, queries, clients, duration,
            client_kwargs={"max_retries": 10},
        )
    return {"entry": "accept_faults", "db_id": db_id, "faults": spec,
            **tally.summary()}


def _scenario_overload(db_path, db_id, queries, clients, duration):
    with _ServerProcess(
        db_path,
        extra_args=["--max-pending", "1", "--retry-after-ms", "40"],
    ) as server:
        tally = _run_for(
            server, queries, max(clients, 8), duration,
            no_cache=True, deadline_probe_every=7,
        )
    return {"entry": "overload", "db_id": db_id, "faults": None,
            "admission": {"max_pending": 1, "retry_after_ms": 40},
            **tally.summary()}


def _scenario_hot_swap(db_path, alt_db_path, db_id, queries, clients, swaps):
    with _ServerProcess(db_path) as server:
        stop = threading.Event()
        threads, tally = _drive(
            server.host, server.port, queries, clients, stop, no_cache=True
        )
        admin = ResilientClient(
            server.host, server.port, max_retries=8, rng=random.Random(7)
        )
        swap_errors = 0
        epochs = []
        try:
            for i in range(swaps):
                target = alt_db_path if i % 2 == 0 else db_path
                try:
                    ack = admin.reload(path=target)
                    epochs.append(ack["epoch"])
                except (ServerError, QueryError, ConnectionError):
                    swap_errors += 1
                time.sleep(0.01)
        finally:
            admin.close()
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
    monotone = all(b > a for a, b in zip(epochs, epochs[1:]))
    return {"entry": "hot_swap", "db_id": db_id, "faults": None,
            "swaps": swaps, "swaps_acked": len(epochs),
            "swap_errors": swap_errors, "epochs_monotone": monotone,
            **tally.summary()}


def _scenario_crash_restart(db_path, db_id, queries, workdir,
                            workload=60, crash_at=20):
    spec = f"abort@serve.dispatch#{crash_at}~1"
    crash_dir = pathlib.Path(workdir) / "chaos-crashes"
    env = dict(os.environ)
    src_root = str(pathlib.Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULT"] = spec
    sup = ServeSupervisor(
        [sys.executable, "-m", "repro", "serve",
         "--db", db_path, "--port", "0"],
        max_restarts=3,
        backoff_base=0.05,
        backoff_max=0.5,
        jitter=0.0,
        crash_dir=str(crash_dir),
        env=env,
        log=open(os.devnull, "w"),
        rng=random.Random(7),
    )
    tally = _Tally()
    runner = threading.Thread(target=sup.run, daemon=True)
    runner.start()
    try:
        if not sup.ready.wait(timeout=60.0):
            raise RuntimeError("supervised server never announced")
        client = ResilientClient(
            "127.0.0.1", sup.port,
            timeout=10.0, max_retries=20,
            backoff_base=0.05, backoff_max=0.5,
            failure_threshold=50, reset_after=0.5,
            rng=random.Random(7),
        )
        try:
            for i in range(workload):
                q = queries[i % len(queries)]
                t0 = time.perf_counter()
                try:
                    client.query(q["kind"], q["args"], no_cache=True)
                    tally.success(time.perf_counter() - t0)
                except (ServerError, QueryError, ConnectionError) as err:
                    tally.failure(
                        getattr(err, "code", "") or type(err).__name__
                    )
        finally:
            tally.client_done(client)
            client.close()
    finally:
        sup.stop()
        runner.join(timeout=30.0)
    reports = sorted(crash_dir.glob("crash-*.json"))
    classifications = [
        json.loads(p.read_text())["attempt"]["classification"]
        for p in reports
    ]
    return {"entry": "crash_restart", "db_id": db_id, "faults": spec,
            "workload": workload, "restarts": sup.restarts,
            "crash_reports": classifications, **tally.summary()}


# ----------------------------------------------------------------------


def _build_databases(entry_name: str, workdir: str) -> tuple:
    """Compile the corpus entry plus a structural variant (one extra
    layer) so hot swaps move between genuinely different databases."""
    entry = corpus_entry(entry_name)
    directory = pathlib.Path(workdir)
    directory.mkdir(parents=True, exist_ok=True)

    db = compile_database(entry.build())
    db_path = str(directory / f"chaos-{entry_name}.ptdb")
    db.save(db_path)

    variant = dataclasses.replace(entry.params, layers=entry.params.layers + 1)
    alt = compile_database(generate_program(variant))
    alt_path = str(directory / f"chaos-{entry_name}-v2.ptdb")
    alt.save(alt_path)
    return db_path, alt_path, db.db_id


def run_chaos_bench(
    entry: str = _DEFAULT_ENTRY,
    *,
    clients: int = _DEFAULT_CLIENTS,
    duration: float = _DEFAULT_DURATION,
    swaps: int = _DEFAULT_SWAPS,
    out: str = "results/BENCH_chaos.json",
    workdir: Optional[str] = None,
) -> Dict[str, Any]:
    workdir = workdir or "."
    print(f"== chaos: compiling {entry} (+variant) ==", file=sys.stderr)
    db_path, alt_path, db_id = _build_databases(entry, workdir)
    queries = _sample_queries(PointsToDatabase.load(db_path))

    scenarios = {}

    def run(name, fn, *args, **kwargs):
        print(f"== chaos: {name} ==", file=sys.stderr)
        scenarios[name] = fn(*args, **kwargs)
        s = scenarios[name]
        print(
            f"   {s['attempts']} calls, {s['failures']} failures, "
            f"{sum(s['expected_rejections'].values())} expected rejections, "
            f"availability {s['availability_pct']:.2f}%",
            file=sys.stderr,
        )

    run("baseline", _scenario_baseline, db_path, db_id, queries, clients,
        duration)
    run("dispatch_faults", _scenario_dispatch_faults, db_path, db_id,
        queries, clients, duration)
    run("accept_faults", _scenario_accept_faults, db_path, db_id, queries,
        clients, duration)
    run("overload", _scenario_overload, db_path, db_id, queries, clients,
        duration)
    run("hot_swap", _scenario_hot_swap, db_path, alt_path, db_id, queries,
        clients, swaps)
    try:
        run("crash_restart", _scenario_crash_restart, db_path, db_id,
            queries, workdir)
    except (WorkerCrashed, RuntimeError) as err:
        scenarios["crash_restart"] = {
            "entry": "crash_restart", "db_id": db_id, "error": str(err),
            "attempts": 0, "successes": 0, "failures": 1,
            "expected_rejections": {}, "availability_pct": 0.0,
        }

    attempts = sum(s["attempts"] for s in scenarios.values())
    successes = sum(s["successes"] for s in scenarios.values())
    rejected = sum(
        sum(s.get("expected_rejections", {}).values())
        for s in scenarios.values()
    )
    denominator = attempts - rejected
    overall = {
        "attempts": attempts,
        "successes": successes,
        "expected_rejections": rejected,
        "failures": sum(s["failures"] for s in scenarios.values()),
        "availability_pct": round(
            100.0 * successes / denominator if denominator else 100.0, 3
        ),
    }
    report = {
        "benchmark": "chaos",
        "entry": entry,
        "clients": clients,
        "duration_s": duration,
        "swaps": swaps,
        "entries": scenarios,
        "overall": overall,
    }
    out_path = pathlib.Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"overall availability {overall['availability_pct']:.2f}% "
        f"({overall['failures']} failures / {attempts} calls); "
        f"wrote {out_path}",
        file=sys.stderr,
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.chaos_bench",
        description="Availability benchmark for the serve layer under "
                    "injected faults, overload, hot swaps, and crashes",
    )
    parser.add_argument(
        "--entry", default=_DEFAULT_ENTRY,
        help="corpus entry to serve (default: freetts)",
    )
    parser.add_argument(
        "--clients", type=int, default=_DEFAULT_CLIENTS,
        help="concurrent resilient clients per scenario (default 4)",
    )
    parser.add_argument(
        "--duration", type=float, default=_DEFAULT_DURATION,
        help="seconds per steady-state scenario (default 3)",
    )
    parser.add_argument(
        "--swaps", type=int, default=_DEFAULT_SWAPS,
        help="hot swaps in the hot_swap scenario (default 100)",
    )
    parser.add_argument(
        "--out", default="results/BENCH_chaos.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="directory for .ptdb scratch files (default: cwd)",
    )
    args = parser.parse_args(argv)
    report = run_chaos_bench(
        args.entry,
        clients=args.clients,
        duration=args.duration,
        swaps=args.swaps,
        out=args.out,
        workdir=args.workdir,
    )
    return 0 if report["overall"]["availability_pct"] >= 99.0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
