#!/usr/bin/env python3
"""End-to-end benchmark of the points-to pipeline: compile, serve, demand
evaluation, edit.

Run it from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Each run builds its inputs from ``--seed`` alone (generated programs, a
query stream, a list of edits), drives one closed loop -- one client, the
next operation sent when the previous one has finished -- for
``--seconds``, and checks every answer it timed.  The benchmark and
every process it starts share one core, and every reported time is
scaled to a reference host speed (see :class:`HostSpeed`).  Progress goes to
standard error; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics, from spans this file records around the calls into each layer.
``perfbench/README.md`` describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import pathlib
import pickle
import queue
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Generated program shapes (fields of repro.bench.generator.WorkloadParams).
# The shape fixes the size; the seed picks call targets and dispatch.
COMPILE_SHAPE = dict(layers=4, width=2, threads=1)
SERVE_SHAPE = dict(layers=12, width=3, threads=2, hierarchy_groups=2, subclasses=3)
EDIT_SHAPE = dict(layers=8, width=2, threads=1, shared_chain=2)
# Programs per compile run, compiled round robin: a median over several
# programs moves less from seed to seed than the time of one program.
COMPILE_PROGRAMS = 4
# serve, demand and edit run on one fixed program and their seed draws
# the queries and the edits, so their spread between seeds is the traffic's,
# not the program size's.
FIXED_PROGRAM_SEED = 7
# demand's database stores points-to sets only for the variables of the
# layered application methods (``repro compile-db --budget-class``);
# the other 121 of the program's 484 variables -- library, class
# hierarchy, utilities -- are answered by demand evaluation.
SERVE_BUDGET_CLASS = "Layers.*"
# Set-up is repeated and its median reported.
SETUP_REPEATS = 9
# compile's set-up: one cold ``repro compile-db`` of this program.
TINY_PROGRAM = "class Main { static method main() { a = new Object; b = a; } }\n"
SERVER_START_TIMEOUT_S = 60.0
# The server recycles a connection after 100k requests (--max-requests);
# the client reconnects well before that.
REQUESTS_PER_CONNECTION = 50_000
# tail_ms is this percentile of a workload's latencies.  At the run
# length in BENCHMARK.json compile keeps 7 to 10 samples beyond it, the
# others at least ten.  Higher ones move more from run to run than the
# bound allows: serve's p99.9, and demand's p90, which falls where few
# goal costs lie (between about 12 and 25 ms).
TAIL_PERCENTILE = {"compile": 70, "serve": 99, "demand": 80, "edit": 85}

# Serve traffic.  No record of how users mix query kinds or which keys
# they ask exists, so both are the plainest assumption: kinds uniform,
# keys uniform over the program's variables, methods and heaps.
QUERY_KINDS = ("points-to", "aliases", "mod-ref", "callers", "escape")

# Host speed (see HostSpeed).  The calibration loop runs this many
# iterations, and takes REFERENCE_CALIBRATION_S at the reference speed
# every reported time is scaled to: about its time on an unloaded core
# of the 2-vCPU Intel Xeon virtual machine the benchmark was tuned on.
# It is timed again whenever the operations since its last timing have
# run for SLICE_S; that machine's speed changes within a quarter second.
CALIBRATION_ITERATIONS = 20_000
REFERENCE_CALIBRATION_S = 0.005
SLICE_S = 0.1


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def calibration_loop() -> int:
    """Fixed interpreter work -- dict, set and tuple operations, the kind
    the pure-Python analysis runs -- that the program under test never
    touches."""
    counts = {}
    pairs = set()
    for i in range(CALIBRATION_ITERATIONS):
        k = i % 997
        counts[k] = counts.get(k, 0) + i
        if i % 3 == 0:
            pairs.add((k, i & 63))
    return len(pairs)


class HostSpeed:
    """Scales measured times to a fixed reference speed.

    On a shared machine the same work takes up to twice as long from one
    moment to the next, as other tenants load the cores; CPU time moves
    with wall time, and a median over one run cannot remove what lasts
    a minute.  So the benchmark times :func:`calibration_loop` between
    operations and multiplies the time of the operations between two
    calibrations by ``REFERENCE_CALIBRATION_S`` over the mean of the
    two.  A reported
    time is the time the operation would take on a host where the loop
    takes ``REFERENCE_CALIBRATION_S``.  The calibration itself is never
    inside a timed window.
    """

    def __init__(self) -> None:
        self.last = self.calibrate()

    @staticmethod
    def calibrate() -> float:
        """Seconds of one calibration loop: the median of three."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def factor(self) -> float:
        """The scale for the work timed since the previous call."""
        now = self.calibrate()
        factor = 2 * REFERENCE_CALIBRATION_S / (self.last + now)
        self.last = now
        return factor


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """Self time and call count per span, recorded around layer calls.

    A span's self time is its duration minus that of the spans it
    encloses, so the self times within one operation add up to its
    latency.  A span named ``solve`` takes the name of the span that
    encloses it as a prefix (``cs`` -> ``cs/solve``), which splits the
    Datalog fixpoint time by pipeline phase.  When disabled, ``span``
    records nothing and :meth:`wrap` patches nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []  # [span name, seconds covered by child spans]

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        if name == "solve" and self._stack:
            name = self._stack[-1][0].split("/")[0] + "/solve"
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        raw = vars(owner).get(attr)
        if not self.enabled or raw is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s[name] / calls * 1e3 if calls else 0.0


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points that the pipeline calls internally."""
    import repro.analysis.context_sensitive as context_sensitive
    import repro.serve.database as database
    from repro.analysis import (
        ContextInsensitiveAnalysis,
        ContextSensitiveAnalysis,
        ThreadEscapeAnalysis,
    )
    from repro.datalog.solver import Solver

    tracer.wrap(database, "extract_facts", "extract")
    tracer.wrap(ContextInsensitiveAnalysis, "run", "ci")
    tracer.wrap(context_sensitive, "number_call_graph", "numbering")
    tracer.wrap(ContextSensitiveAnalysis, "run", "cs")
    tracer.wrap(ThreadEscapeAnalysis, "run", "escape")
    tracer.wrap(Solver, "solve", "solve")
    tracer.wrap(Solver, "solve_incremental", "solve")
    tracer.wrap(database, "package_database", "package")
    tracer.wrap(database.PointsToDatabase, "load", "load")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class Outcome:
    """What one run measured and what its checks found.

    ``latencies`` and ``setup`` hold times scaled by :class:`HostSpeed`;
    the per-layer figures are as measured.
    """

    def __init__(self) -> None:
        self.latencies = []  # seconds per operation that completed correctly
        self.failed = 0
        self.problems = []
        self.setup = []  # seconds per set-up repetition
        self.peak_rss_mb = 0.0
        self.kernel = []  # (BDD op expansions, peak nodes) per compile
        self.round_trips = []  # client-side seconds per query
        self.server_stats = {}
        self.speed = None
        self._pending = []  # measured seconds since the last calibration
        self._slice_start = 0.0

    def set_up(self, fn):
        """``fn()`` timed as one set-up repetition; returns its result."""
        if self.speed is None:
            self.speed = HostSpeed()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.setup.append(elapsed * self.speed.factor())
        return result

    def start(self) -> None:
        """Begin the timed operations."""
        if self.speed is None:
            self.speed = HostSpeed()
        self._slice_start = time.perf_counter()

    def record(self, seconds: float, problems) -> None:
        """One operation's measured time, or the problems that fail it.

        Between operations, once a slice of ``SLICE_S`` has passed, the
        calibration runs and scales the slice's times.
        """
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self._pending.append(seconds)
        if time.perf_counter() - self._slice_start >= SLICE_S:
            self.finish()

    def finish(self) -> None:
        """Scale the operations timed since the last calibration."""
        if self._pending:
            factor = self.speed.factor()
            self.latencies.extend(s * factor for s in self._pending)
            self._pending = []
        self._slice_start = time.perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def end_to_end(self, percentile: float):
        ordered = sorted(self.latencies)
        return {
            "latency_ms": (statistics.median(ordered) * 1e3, "ms"),
            "tail_ms": (nearest_rank(ordered, percentile / 100) * 1e3, "ms"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self, tracer: Tracer):
        t = tracer.mean_ms
        kinds = list(self.server_stats.get("queries", {}).values())
        requests = sum(k["requests"] for k in kinds)
        engine_ms = (
            sum(k["total_seconds"] for k in kinds) / requests * 1e3
            if requests else 0.0
        )
        rtt_ms = (
            statistics.fmean(self.round_trips) * 1e3 if self.round_trips else 0.0
        )
        demand = self.server_stats.get("engine", {}).get("demand", {})
        demand_solves = demand.get("solves", 0)
        return {
            "extract_ms": (t("extract"), "ms"),
            "ci_build_ms": (t("ci"), "ms"),
            "ci_solve_ms": (t("ci/solve"), "ms"),
            "numbering_ms": (t("numbering"), "ms"),
            "cs_build_ms": (t("cs"), "ms"),
            "cs_solve_ms": (t("cs/solve"), "ms"),
            "escape_build_ms": (t("escape"), "ms"),
            "escape_solve_ms": (t("escape/solve"), "ms"),
            "package_ms": (t("package"), "ms"),
            "save_ms": (t("save"), "ms"),
            "bundle_ms": (t("bundle"), "ms"),
            "load_ms": (t("load"), "ms"),
            "bdd_ops": (statistics.fmean(n for n, _ in self.kernel), "count"),
            "bdd_peak_nodes": (max(p for _, p in self.kernel), "count"),
            "recompile_ms": (t("recompile"), "ms"),
            "delta_solve_ms": (t("recompile/solve"), "ms"),
            "reload_ms": (t("reload"), "ms"),
            "engine_ms": (engine_ms, "ms"),
            "wire_ms": (max(0.0, rtt_ms - engine_ms) if requests else 0.0, "ms"),
            "cache_hit_ratio": (
                float(self.server_stats.get("cache_hit_rate", 0.0)), "ratio",
            ),
            "engine_computes": (sum(k["computes"] for k in kinds), "count"),
            "demand_queries": (
                sum(k.get("demand", {}).get("hits", 0) for k in kinds), "count",
            ),
            "demand_solve_ms": (
                demand["solve_seconds"] / demand_solves * 1e3
                if demand_solves else 0.0, "ms",
            ),
        }


def nearest_rank(ordered, share: float) -> float:
    return ordered[max(0, min(len(ordered) - 1, round(share * len(ordered)) - 1))]


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process, its result pickled back.

    What the child allocates stays out of this process's peak RSS, so
    checks and preparation do not hide the measured work's memory.  Call
    it only while this process runs no other thread.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except Exception:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not payload:
        raise RuntimeError(f"child process ended with wait status {status}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# ----------------------------------------------------------------------
# Inputs and reference answers
# ----------------------------------------------------------------------


def generate(shape, seed: int):
    from repro.bench.generator import WorkloadParams, generate_program

    return generate_program(WorkloadParams(seed=seed, **shape))


def decode(relation, *names):
    """A relation's tuples with attributes in the order of ``names``."""
    order = [a.name for a in relation.attributes]
    index = [order.index(n) for n in names]
    return [tuple(row[i] for i in index) for row in relation.tuples()]


def _group(pairs):
    out = defaultdict(list)
    for a, b in pairs:
        out[a].append(b)
    return out


def ci_oracle(rel):
    """Algorithm 3 (``algorithm3.dl``) evaluated over explicit Python sets.

    Returns ``(vP, IE)`` as sets of ordinal pairs: context-insensitive
    points-to with type filtering, and the call graph discovered on the
    fly.  It shares no code with the Datalog engine or the BDD kernel,
    which makes it a reference for their result.
    """
    var_types, heap_types = _group(rel["vT"]), _group(rel["hT"])
    assignable = set(rel["aT"])
    admitted = {}

    def admits(v, h):  # vPfilter
        ok = admitted.get((v, h))
        if ok is None:
            ok = admitted[v, h] = any(
                (tv, th) in assignable
                for tv in var_types[v] for th in heap_types[h]
            )
        return ok

    dispatch = defaultdict(set)
    for t, n, m in rel["cha"]:
        dispatch[t, n].add(m)
    actuals = defaultdict(list)
    for i, z, v in rel["actual"]:
        actuals[i].append((z, v))
    formals = defaultdict(list)
    for m, z, v in rel["formal"]:
        formals[m].append((z, v))
    returns_to, returns_from = _group(rel["Iret"]), _group(rel["Mret"])
    throws = _group(rel.get("Mthr", ()))
    sites = defaultdict(list)  # invoke -> [(calling method, name)]
    for m, i, n in rel["mI"]:
        sites[i].append((m, n))

    points_to = defaultdict(set)
    for v, h in rel["vP0"]:
        points_to[v].add(h)
    edges = {tuple(t) for t in rel["IE0"]}
    assign = {tuple(t) for t in rel["assign0"]}
    fields = defaultdict(set)
    size = None
    while True:
        for i, callers in list(sites.items()):  # (11)
            receivers = [v for z, v in actuals[i] if z == 0]
            for _, n in callers:
                for v in receivers:
                    for h in points_to[v]:
                        for t in heap_types[h]:
                            edges.update((i, m) for m in dispatch.get((t, n), ()))
        for i, m in list(edges):  # (12), return values, exceptions
            for z, v1 in formals[m]:
                assign.update((v1, v2) for z2, v2 in actuals[i] if z2 == z)
            for v1 in returns_to[i]:
                assign.update((v1, v2) for v2 in returns_from[m])
            for caller, _ in sites[i]:
                for v1 in throws[caller]:
                    assign.update((v1, v2) for v2 in throws[m])
        for v1, v2 in assign:  # (7)
            points_to[v1].update([h for h in points_to[v2] if admits(v1, h)])
        for v1, f, v2 in rel["store"]:  # (8)
            for h1 in list(points_to[v1]):
                fields[h1, f].update(points_to[v2])
        for v1, f, v2 in rel["load"]:  # (9)
            for h1 in list(points_to[v1]):
                points_to[v2].update(
                    [h2 for h2 in fields[h1, f] if admits(v2, h2)]
                )
        new_size = (
            len(edges), len(assign),
            sum(map(len, points_to.values())), sum(map(len, fields.values())),
        )
        if new_size == size:
            break
        size = new_size
    return {(v, h) for v, hs in points_to.items() for h in hs}, edges


def compile_problems(relations, db, state, loaded):
    """Check one compiled database against the explicit-set oracle.

    The context-insensitive solve must equal the oracle, the cloned
    solve's projection must lie within it, and the saved file must load
    back as the same database.  Returns ``(problems, oracle vP)``.
    """
    vp, ie = ci_oracle(relations)
    problems = []
    if set(decode(state.ci_solver.relation("vP"), "variable", "heap")) != vp:
        problems.append("context-insensitive vP differs from the oracle")
    if set(decode(state.ci_solver.relation("IE"), "invoke", "target")) != ie:
        problems.append("discovered call graph IE differs from the oracle")
    if {tuple(t) for t in db.tuples.get("IE", ())} != ie:
        problems.append("database IE differs from the oracle")
    cs_vp = set(decode(db.relation("vP"), "variable", "heap"))
    if not cs_vp or not cs_vp <= vp:
        problems.append("context-sensitive vP is empty or outside the oracle")
    if loaded.db_id != db.db_id:
        problems.append(f"saved database loads as {loaded.db_id}, not {db.db_id}")
    return problems, vp


class Reference:
    """Expected query answers, decoded in bulk from a loaded database.

    The engine answers one key at a time (BDD select and decode, then
    JSON over the wire); this decodes whole relations once, so the two
    share only the stored relations.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.variables = sorted(db.var_reps)
        self.methods = list(db.maps["M"])
        self.heaps = list(db.maps["H"])
        self.points_to = defaultdict(set)
        for v, h in decode(db.relation("vP"), "variable", "heap"):
            self.points_to[v].add(h)
        self.effects = {}
        for name in ("mod", "ref"):
            table = self.effects[name] = defaultdict(set)
            projected = db.relation(name).project("m", "heap", "field")
            for m, h, f in decode(projected, "m", "heap", "field"):
                table[m].add((h, f))
        self.call_sites = _group(
            (callee, site) for site, callee in db.tuples.get("IE", ())
        )
        self.escaped = set(db.escape.get("escaped", ()))
        self.captured = set(db.escape.get("captured", ()))

    def expected(self, kind: str, args):
        db = self.db
        names = db.maps
        if kind == "points-to":
            pts = self.points_to[db.var_id(args["variable"])]
            return {"heaps": sorted(names["H"][h] for h in pts)}
        if kind == "aliases":
            common = (
                self.points_to[db.var_id(args["variable1"])]
                & self.points_to[db.var_id(args["variable2"])]
            )
            return {
                "may_alias": bool(common),
                "common_heaps": sorted(names["H"][h] for h in common),
            }
        if kind == "mod-ref":
            m = db.method_id(args["method"])
            return {
                side: sorted(
                    [names["H"][h], names["F"][f]]
                    for h, f in self.effects[side][m]
                )
                for side in ("mod", "ref")
            }
        if kind == "callers":
            sites = self.call_sites[db.method_id(args["method"])]
            return {
                "count": len(sites),
                "caller_methods": sorted({
                    names["M"][db.site_method[i]]
                    for i in sites if i in db.site_method
                }),
            }
        h = db.id_of("H", args["heap"])
        verdict = (
            "escaped" if h in self.escaped
            else "captured" if h in self.captured else "untracked"
        )
        return {"verdict": verdict}

    def problems(self, kind: str, args, answer):
        expected = self.expected(kind, args)
        got = {key: answer.get(key) for key in expected}
        if got == expected:
            return []
        return [f"{kind} {args}: answered {got}, expected {expected}"]

    def stream(self, rng: random.Random):
        """Endless queries, kind and keys drawn uniformly."""
        var = functools.partial(rng.choice, self.variables)
        method = functools.partial(rng.choice, self.methods)
        heap = functools.partial(rng.choice, self.heaps)
        while True:
            kind = rng.choice(QUERY_KINDS)
            if kind == "points-to":
                yield kind, {"variable": var()}
            elif kind == "aliases":
                yield kind, {"variable1": var(), "variable2": var()}
            elif kind in ("mod-ref", "callers"):
                yield kind, {"method": method()}
            else:
                yield kind, {"heap": heap()}


def edit_candidates(relations, ci_vp, rng: random.Random, limit: int = 500):
    """New allocations ``v = new T`` where ``T`` already reaches ``v``.

    The added object flows exactly where an existing object of the same
    type flows, so the call graph does not change and every phase of the
    recompile stays incremental.  An edit that changes the call graph
    re-solves the whole context-sensitive phase; mixing the two would
    make the latency bimodal.
    """
    heap_type = dict(relations["hT"])
    of_type = _group((t, h) for h, t in relations["hT"])
    vp0 = {tuple(t) for t in relations["vP0"]}
    pts = _group(ci_vp)
    out = []
    for v in sorted(pts):
        reached = set(pts[v])
        for t in sorted({heap_type[h] for h in reached if h in heap_type}):
            out.extend(
                (v, h) for h in of_type[t]
                if h not in reached and (v, h) not in vp0
            )
    rng.shuffle(out)
    return out[:limit]


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------


def compile_to(program, path: pathlib.Path, tracer: Tracer):
    """What ``repro compile-db`` does after parsing: solve, then write
    the database and its fixpoint bundle."""
    from repro.incremental import bundle_path_for, write_fixpoint_bundle
    from repro.serve import compile_database_with_state

    db, state = compile_database_with_state(program)
    with tracer.span("save"):
        db.save(path)
    with tracer.span("bundle"):
        write_fixpoint_bundle(bundle_path_for(path), db, state)
    return db, state


def kernel_counts(state):
    """(cache-missing BDD op expansions, peak nodes) over one compile."""
    managers = {
        id(s.manager): s.manager
        for s in (state.ci_solver, state.cs_solver, state.escape_solver)
    }.values()
    return (
        sum(getattr(m, "op_count", 0) for m in managers),
        max(getattr(m, "peak_nodes", 0) for m in managers),
    )


def check_compile(program, db, state, path: pathlib.Path):
    """The problems :func:`compile_problems` finds in a program compiled
    to ``path``."""
    from repro.ir.facts import extract_facts
    from repro.serve import PointsToDatabase

    relations = extract_facts(program).relations
    problems, _ = compile_problems(
        relations, db, state, PointsToDatabase.load(path)
    )
    return problems


class Server:
    """A ``repro serve`` subprocess on an ephemeral port, with a client."""

    def __init__(self, db_path: pathlib.Path) -> None:
        self.client = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(db_path),
             "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=repro_env(), cwd=str(ROOT), text=True,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self.address = self._announced()
            self.connect()
            self.client.hello()
        except BaseException:
            self.stop()
            raise

    def connect(self) -> None:
        from repro.serve import PointsToClient

        if self.client is not None:
            self.client.close()
        self.client = PointsToClient(*self.address)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _announced(self):
        end = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server announced no port in time") from None
            if line is None:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before serving"
                )
            match = re.search(r" on ([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """The server's own resident-set high-water mark in MiB.

        Read from its ``VmHWM`` rather than from ``getrusage``, whose
        figure for a child also counts the parent's memory at the fork.
        """
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        from repro.serve import ConnectionLostError, ServerError

        if self.client is None:
            self.proc.terminate()
        else:
            with contextlib.suppress(ServerError, ConnectionLostError, OSError):
                self.client.shutdown()
            self.client.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


def cold_starts(db_path: pathlib.Path, outcome: Outcome) -> Server:
    """Start the server SETUP_REPEATS times -- spawn, load the database,
    answer ``hello`` -- and keep the last one running."""
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = outcome.set_up(lambda: Server(db_path))
    return server


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def run_compile(args, tracer: Tracer, work: pathlib.Path) -> Outcome:
    """Compile seeded programs to ``.ptdb`` databases, round robin."""
    out = Outcome()
    tiny = work / "tiny.mj"
    tiny.write_text(TINY_PROGRAM)
    command = [sys.executable, "-m", "repro", "compile-db", str(tiny),
               "--out", str(work / "tiny.ptdb")]
    for _ in range(SETUP_REPEATS):
        out.set_up(lambda: subprocess.run(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, env=repro_env(), cwd=str(ROOT),
            check=True,
        ))
    programs = [
        generate(COMPILE_SHAPE, args.seed * 1000 + k)
        for k in range(COMPILE_PROGRAMS)
    ]
    path = work / "compile.ptdb"
    first_ids = {}
    out.start()
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count():
        if time.perf_counter() >= deadline:
            break
        k = i % len(programs)
        start = time.perf_counter()
        db, state = compile_to(programs[k], path, tracer)
        elapsed = time.perf_counter() - start
        out.kernel.append(kernel_counts(state))
        if k not in first_ids:
            first_ids[k] = db.db_id
            # The oracle runs in a child, outside the timed window and
            # outside this process's peak RSS.
            checked = time.perf_counter()
            problems = in_child(check_compile, programs[k], db, state, path)
            deadline += time.perf_counter() - checked
        elif db.db_id != first_ids[k]:
            problems = [f"program {k} compiled to {db.db_id}, first to {first_ids[k]}"]
        else:
            problems = []
        out.record(elapsed, problems)
    out.finish()
    # Linux reports ru_maxrss in KiB.
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def prepare_base(shape, seed: int, tracer: Tracer, work: pathlib.Path,
                 budget_class=None):
    """Compile the workload's fixed program to ``base.ptdb`` and check it.

    Runs in a child (see :func:`prepare`).  With ``budget_class`` the
    program is compiled a second time, restricted, to ``served.ptdb``.
    """
    from repro.ir.facts import extract_facts
    from repro.serve import PointsToDatabase, compile_database

    program = generate(shape, FIXED_PROGRAM_SEED)
    db, state = compile_to(program, work / "base.ptdb", tracer)
    prepared = {
        "spans": (dict(tracer.self_s), dict(tracer.calls)),
        "kernel": kernel_counts(state),
    }
    relations = extract_facts(program).relations
    loaded = PointsToDatabase.load(work / "base.ptdb")
    prepared["problems"], ci_vp = compile_problems(relations, db, state, loaded)
    prepared["edits"] = edit_candidates(relations, ci_vp, random.Random(seed))
    if budget_class:
        served = compile_database(program, budget_class=budget_class)
        served.save(work / "served.ptdb")
        prepared["uncovered"] = [
            spec for spec in sorted(served.var_reps)
            if not served.covers_variable(served.var_id(spec))
        ]
    return prepared


def prepare(shape, args, tracer: Tracer, work: pathlib.Path, out: Outcome,
            budget_class=None):
    """:func:`prepare_base` in a child process, so that this process's
    peak RSS holds only the workload's own work."""
    prepared = in_child(
        prepare_base, shape, args.seed, tracer, work, budget_class
    )
    out.problems.extend(prepared["problems"])
    out.kernel.append(prepared["kernel"])
    self_s, calls = prepared["spans"]
    for name, seconds in self_s.items():
        tracer.self_s[name] += seconds
        tracer.calls[name] += calls[name]
    return prepared


def run_serve(args, tracer: Tracer, work: pathlib.Path) -> Outcome:
    """Query a running server: kinds and keys drawn uniformly."""
    from repro.serve import PointsToDatabase, ServerError

    out = Outcome()
    prepare(SERVE_SHAPE, args, tracer, work, out)
    path = work / "base.ptdb"
    reference = Reference(PointsToDatabase.load(path))
    stream = reference.stream(random.Random(args.seed))
    server = cold_starts(path, out)
    try:
        out.start()
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count(1):
            if time.perf_counter() >= deadline:
                break
            if i % REQUESTS_PER_CONNECTION == 0:
                server.connect()
            kind, query_args = next(stream)
            start = time.perf_counter()
            try:
                answer = server.client.query(kind, query_args)
            except ServerError as err:
                out.record(0.0, [f"{kind} {query_args}: {err}"])
                continue
            elapsed = time.perf_counter() - start
            out.round_trips.append(elapsed)
            out.record(elapsed, reference.problems(kind, query_args, answer))
        out.finish()
        out.server_stats = server.client.stats()
        out.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return out


def run_demand(args, tracer: Tracer, work: pathlib.Path) -> Outcome:
    """Points-to queries the served database does not cover, in epochs.

    An epoch reloads the database and asks every uncovered variable
    once, so each query runs a goal-directed solve that can reuse what
    the epoch's earlier goals derived.  A goal's cost depends on its
    place in the order, so even epochs draw a new order and odd epochs
    ask the previous order reversed, and the run measures only whole
    epochs: as many as fit in ``--seconds`` at the pace of the last one,
    at least one.
    """
    from repro.serve import PointsToDatabase, ServerError

    out = Outcome()
    prepared = prepare(
        SERVE_SHAPE, args, tracer, work, out, budget_class=SERVE_BUDGET_CLASS
    )
    # Expected answers come from the unrestricted compile.
    reference = Reference(PointsToDatabase.load(work / "base.ptdb"))
    served = work / "served.ptdb"
    rng = random.Random(args.seed)
    order = list(prepared["uncovered"])
    server = cold_starts(served, out)
    try:
        out.start()
        deadline = time.perf_counter() + args.seconds
        epoch_s = 0.0
        for epoch in itertools.count():
            started = time.perf_counter()
            if started + epoch_s > deadline:
                break
            if epoch % 2:
                order.reverse()
            else:
                rng.shuffle(order)
            # Reload, then one untimed query builds the epoch's demand
            # evaluator.
            with tracer.span("reload"):
                server.client.reload(path=str(served))
            start = time.perf_counter()
            server.client.query("points-to", {"variable": order[0]})
            # Counted in wire_ms's round trips, as the server counts it
            # in engine_ms.
            out.round_trips.append(time.perf_counter() - start)
            for variable in order[1:]:
                query_args = {"variable": variable}
                start = time.perf_counter()
                try:
                    answer = server.client.query("points-to", query_args)
                except ServerError as err:
                    out.record(0.0, [f"points-to {query_args}: {err}"])
                    continue
                elapsed = time.perf_counter() - start
                out.round_trips.append(elapsed)
                problems = reference.problems("points-to", query_args, answer)
                if answer.get("demand") is not True:
                    problems.append(
                        f"points-to {query_args} was not demand-evaluated"
                    )
                out.record(elapsed, problems)
            epoch_s = time.perf_counter() - started
        out.finish()
        out.server_stats = server.client.stats()
        out.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return out


def run_edit(args, tracer: Tracer, work: pathlib.Path) -> Outcome:
    """The edit loop: fact edit -> incremental recompile -> write ->
    hot reload -> the edited variable's points-to set from the new epoch."""
    from repro.incremental import (
        FactDiff,
        FactSet,
        bundle_path_for,
        recompile_database,
        write_fixpoint_bundle,
    )
    from repro.serve import PointsToDatabase, ServerError, compile_database

    out = Outcome()
    edits = prepare(EDIT_SHAPE, args, tracer, work, out)["edits"]
    path = work / "base.ptdb"
    if not edits:
        raise RuntimeError("the edit program offers no edit candidates")
    db = PointsToDatabase.load(path)
    heaps = db.maps["H"]
    first = None  # (diff, db_id) of edit 0, for the differential gate
    server = cold_starts(path, out)
    try:
        epoch = server.client.hello()["epoch"]
        out.start()
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count():
            if time.perf_counter() >= deadline:
                break
            v, h = edits[i % len(edits)]
            diff = FactDiff(added={"vP0": [(v, h)]}, name=f"edit {i}")
            target = work / f"edit{i % 2}.ptdb"
            start = time.perf_counter()
            try:
                with tracer.span("recompile"):
                    result = recompile_database(
                        db, diff, fixpoint_path=bundle_path_for(path)
                    )
                with tracer.span("save"):
                    result.db.save(target)
                with tracer.span("bundle"):
                    write_fixpoint_bundle(
                        bundle_path_for(target), result.db, result.state
                    )
                with tracer.span("reload"):
                    reply = server.client.reload(
                        path=str(target), expect_db_id=result.db.db_id
                    )
                asked = time.perf_counter()
                answer = server.client.query("points-to", {"variable": v})
                out.round_trips.append(time.perf_counter() - asked)
            except ServerError as err:
                out.record(0.0, [f"edit {i} ({v}, {h}): {err}"])
                continue
            elapsed = time.perf_counter() - start
            expected = sorted(
                heaps[x]
                for (x,) in result.db.relation("vP").select(variable=v).tuples()
            )
            problems = []
            if reply.get("db_id") != result.db.db_id or reply.get("epoch", 0) <= epoch:
                problems.append(f"edit {i}: reload answered {reply}")
            epoch = reply.get("epoch", epoch)
            if answer.get("heaps") != expected:
                problems.append(
                    f"edit {i}: points-to {answer.get('heaps')}, expected {expected}"
                )
            if first is None:
                first = diff, result.db.db_id
            out.record(elapsed, problems)
        out.finish()
        out.server_stats = server.client.stats()
        # Both processes' peaks: this one recompiles, the server reloads.
        out.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            + server.peak_rss_mb()
        )
    finally:
        server.stop()
    if first is not None:
        # The differential gate: an incremental recompile must equal a
        # from-scratch compile of the edited facts.
        diff, db_id = first
        base_facts = FactSet.from_db_meta(db.meta)
        edited, _ = base_facts.apply_diff(diff.resolve(base_facts))
        fresh = compile_database(facts=edited)
        if fresh.db_id != db_id:
            out.problems.append(f"edit 0: incremental {db_id} != fresh {fresh.db_id}")
    return out


WORKLOADS = {
    "compile": run_compile, "serve": run_serve, "demand": run_demand,
    "edit": run_edit,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: compile, serve, demand and edit "
        "workloads."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for this process and every process it starts: the client
    # and the server then take turns on it, a round trip never waits for
    # the other core to wake, and the calibration runs where the work
    # runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = Tracer(bool(args.trace))
    instrument(tracer)
    WORK_ROOT.mkdir(exist_ok=True)
    work = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    )
    try:
        out = WORKLOADS[args.workload](args, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    for problem in out.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not out.latencies:
        print("perfbench: no operation completed correctly", file=sys.stderr)
        return 1
    percentile = TAIL_PERCENTILE[args.workload]
    print(
        f"perfbench: {len(out.latencies)} samples; tail_ms is their "
        f"p{percentile:g}",
        file=sys.stderr,
    )
    metrics = out.per_layer(tracer) if args.trace else out.end_to_end(percentile)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
