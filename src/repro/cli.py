"""Command-line interface.

::

    python -m repro stats    program.mj
    python -m repro analyze  program.mj --context-sensitive --var Main.main:x
    python -m repro analyze  program.mj --context-sensitive --timeout 60 \
                             --node-budget 2000000 --checkpoint-dir ckpt/
    python -m repro analyze  a.mj b.mj c.mj --context-sensitive \
                             --isolate --jobs 2 --memory-limit 512
    python -m repro query    program.mj --kind escape
    python -m repro query    program.mj --kind vuln
    python -m repro query    program.mj --kind casts
    python -m repro query    program.mj --kind devirt
    python -m repro query    program.mj --kind refinement
    python -m repro datalog  rules.dl --facts facts/ --out out/
    python -m repro compile-db program.mj --out program.ptdb
    python -m repro serve    --db program.ptdb --port 7777
    python -m repro query    --db program.ptdb --kind points-to --var Main.main:x
    python -m repro query    --db program.ptdb --kind aliases --var Main.main:x \
                             --var2 Main.main:y
    python -m repro query    --db program.ptdb --kind mod-ref --method A.run
    python -m repro query    --db program.ptdb --kind callers --method A.run
    python -m repro query    --db program.ptdb --kind escape --heap \
                             'Main.main@3:new A'

``program.mj`` is mini-Java source (see :mod:`repro.ir.frontend`); the
modeled class library is linked in unless ``--no-library`` is given.
The benchmark harness has its own CLI: ``python -m repro.bench.harness``.

Exit codes (sysexits.h-flavoured, stable for scripting):

====  =============================================================
0     success (for ``query --kind vuln``: no vulnerability)
1     ``query --kind vuln`` found a vulnerable path
2     usage error (argparse)
65    malformed input — mini-Java source, Datalog program, fact
      file, or checkpoint (one-line diagnostic with file and line)
66    an input file or directory does not exist
70    a supervised worker process crashed, hung, or was killed
      (``--isolate`` mode) and retries plus degradation could not
      recover an answer
75    resource budget exhausted (timeout / node budget / iteration
      cap) and degradation was disabled or also exhausted
====  =============================================================

Diagnostics are single lines on stderr; a raw traceback escaping this
module is a bug (covered by ``tests/test_cli.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import sys
import time
from typing import List, Optional, Sequence

from .analysis import (
    ContextInsensitiveAnalysis,
    ContextSensitiveAnalysis,
    ThreadEscapeAnalysis,
)
from .analysis.queries import (
    cast_safety,
    devirtualization,
    refinement_stats,
    security_vulnerability_query,
)
from .bdd import BDDError
from .callgraph import number_call_graph
from .datalog import DatalogError
from .ir.facts import extract_facts
from .ir.frontend import parse_program
from .ir.program import IRError
from .runtime import (
    CheckpointError,
    InvalidInputError,
    ReproError,
    ResourceBudget,
    WorkerCrashed,
)

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_VULNERABLE",
    "EXIT_USAGE",
    "EXIT_SOLVE_FALLBACK",
    "EXIT_DATAERR",
    "EXIT_NOINPUT",
    "EXIT_UNAVAILABLE",
    "EXIT_WORKER",
    "EXIT_BUDGET",
]

EXIT_OK = 0
EXIT_VULNERABLE = 1
EXIT_USAGE = 2
# The query was answered, but only by solving the whole program because
# no --db was given: scripted callers can branch on this and switch to
# 'repro compile-db' + --db (or --demand for restricted databases).
EXIT_SOLVE_FALLBACK = 3
EXIT_DATAERR = 65
EXIT_NOINPUT = 66
EXIT_UNAVAILABLE = 69  # sysexits EX_UNAVAILABLE: server absent/overloaded
EXIT_WORKER = 70
EXIT_BUDGET = 75


def _budget_of(args) -> Optional[ResourceBudget]:
    """A ResourceBudget from ``--timeout``/``--node-budget``/… or None."""
    if (
        getattr(args, "timeout", None) is None
        and getattr(args, "node_budget", None) is None
        and getattr(args, "max_iterations", None) is None
    ):
        return None
    return ResourceBudget(
        timeout=args.timeout,
        node_budget=args.node_budget,
        max_iterations=args.max_iterations,
    )


def _load(args, path: Optional[str] = None) -> "tuple":
    if path is None:
        path = args.program
    text = pathlib.Path(path).read_text()
    program = parse_program(
        text, main=args.main, include_library=not args.no_library
    )
    return program, extract_facts(program)


def _cmd_stats(args) -> int:
    program, facts = _load(args)
    stats = program.stats()
    ci = ContextInsensitiveAnalysis(
        facts=facts, budget=_budget_of(args), backend=args.backend
    ).run()
    entry = facts.method_id(f"{args.main}.main")
    numbering = number_call_graph(ci.discovered_call_graph, entries=[entry])
    print(f"classes:     {stats['classes']}")
    print(f"methods:     {stats['methods']}")
    print(f"statements:  {stats['statements']}")
    print(f"variables:   {len(facts.maps['V'])}")
    print(f"alloc sites: {stats['allocs']}")
    print(f"call paths:  {numbering.max_paths()}")
    print(f"call edges:  {ci.discovered_call_graph.edge_count()}")
    return EXIT_OK


def _print_degradation(result) -> None:
    if result.degraded and result.degradation is not None:
        print(f"degraded: {result.degradation.summary()}", file=sys.stderr)


def _optimize(args) -> Optional[bool]:
    """``optimize=`` for the solvers: False under --no-opt, else None
    (the solver consults $REPRO_PLAN_OPT)."""
    return False if getattr(args, "no_opt", False) else None


def _print_profile(solver, as_json: bool) -> None:
    """The execution records for --profile / --profile-json: one row per
    executed (rule, variant) plan, most kernel ops first."""
    rows = [
        {"rule": p.rule, "variant": p.variant,
         "applications": p.applications, "tuples_produced": p.tuples_produced,
         "kernel_ops": p.kernel_ops, "seconds": round(p.seconds, 6)}
        for p in solver.rule_profile()
    ]
    if as_json:
        import json

        print(json.dumps(rows, indent=2))
        return
    if not rows:
        print("rule profile: (no rules applied)")
        return
    width = min(max(len(r["rule"]) for r in rows), 60)
    print(
        f"{'rule':<{width}}  {'variant':<11}  {'applies':>7}  {'hits':>5}  "
        f"{'kernel_ops':>10}  {'seconds':>9}"
    )
    for r in rows:
        rule = r["rule"]
        rule = rule if len(rule) <= width else rule[: width - 3] + "..."
        print(
            f"{rule:<{width}}  {r['variant']:<11}  {r['applications']:>7}  "
            f"{r['tuples_produced']:>5}  {r['kernel_ops']:>10}  "
            f"{r['seconds']:>9.4f}"
        )


def _cmd_analyze(args) -> int:
    paths: List[str] = list(args.program)
    if args.dump_dir and len(paths) > 1:
        print("repro: --dump-dir takes a single program", file=sys.stderr)
        return EXIT_USAGE
    if args.isolate:
        return _cmd_analyze_isolated(args, paths)
    code = EXIT_OK
    for path in paths:
        if len(paths) > 1:
            print(f"== {path} ==")
        code = _analyze_one(args, path)
        if code != EXIT_OK:
            return code
    return code


def _cmd_analyze_isolated(args, paths: List[str]) -> int:
    """Run each program in a supervised worker process (``--isolate``).

    Aggregate exit code: 70 if any program's worker could not be
    recovered, else 75 if any failed on a cooperative budget, else 0.
    """
    from .runtime.supervisor import (
        Supervisor,
        SupervisorConfig,
        ladder_fallbacks,
    )
    from .runtime.worker import WorkerPool, default_jobs

    jobs = []
    for index, path in enumerate(paths):
        # Workers run in parallel, so each program checkpoints into its
        # own subdirectory and none overwrites or deletes another's.
        checkpoint_dir = args.checkpoint_dir
        if checkpoint_dir is not None and len(paths) > 1:
            checkpoint_dir = os.path.join(
                checkpoint_dir, f"{index}-{pathlib.Path(path).stem}"
            )
        jobs.append(
            {
                "kind": "analyze",
                "program_path": path,
                "main": args.main,
                "no_library": args.no_library,
                "context_sensitive": bool(args.context_sensitive),
                "mode": "full",
                "timeout": args.timeout,
                "node_budget": args.node_budget,
                "max_iterations": args.max_iterations,
                "checkpoint_dir": checkpoint_dir,
                "vars": list(args.var or ()),
                "backend": args.backend,
                "optimize": _optimize(args),
            }
        )
    # The cooperative --timeout doubles as a hard backstop: a worker that
    # blows through twice its budget (plus startup headroom) is wedged
    # and gets the SIGTERM -> SIGKILL treatment.
    hard_deadline = None
    if args.timeout is not None:
        hard_deadline = args.timeout * 2 + 30
    supervisor = Supervisor(
        SupervisorConfig(
            timeout=hard_deadline,
            memory_limit_mb=args.memory_limit,
            retries=args.retries,
            checkpoint_dir=args.checkpoint_dir,
        )
    )
    fallbacks = None
    if args.context_sensitive and not args.no_degrade:
        fallbacks = ladder_fallbacks
    pool_jobs = args.jobs if args.jobs is not None else default_jobs()
    results = WorkerPool(supervisor, jobs=pool_jobs).run(
        jobs, fallbacks=fallbacks
    )
    code = EXIT_OK
    for path, outcome in zip(paths, results):
        prefix = f"{path}: " if len(paths) > 1 else ""
        if isinstance(outcome, WorkerCrashed):
            print(
                f"repro: {path}: worker failed "
                f"({outcome.classification}): {outcome}",
                file=sys.stderr,
            )
            if outcome.classification == "budget":
                if code == EXIT_OK:
                    code = EXIT_BUDGET
            else:
                code = EXIT_WORKER
            continue
        value = outcome.value
        if outcome.degraded or value.get("degraded"):
            print(
                f"repro: {path}: degraded to mode={outcome.mode} "
                f"after {outcome.retries} retr"
                f"{'y' if outcome.retries == 1 else 'ies'}",
                file=sys.stderr,
            )
        kind = (
            "context-sensitive"
            if value.get("relation") == "vPC"
            else "context-insensitive"
        )
        detail = ""
        if "call_paths" in value:
            detail = f"{value['call_paths']} call paths, "
        print(
            f"{prefix}{kind} points-to: {detail}"
            f"{value['tuples']} tuples, {value['seconds']:.2f}s, "
            f"{value['peak_nodes']} peak BDD nodes"
        )
        for spec, heaps in (value.get("vars") or {}).items():
            print(f"  {spec} ->")
            for heap in heaps:
                print(f"      {heap}")
            if not heaps:
                print("      (empty)")
    return code


def _analyze_one(args, path: str) -> int:
    program, facts = _load(args, path)
    budget = _budget_of(args)
    optimize = _optimize(args)
    if args.context_sensitive:
        result = ContextSensitiveAnalysis(
            facts=facts,
            budget=budget,
            checkpoint_dir=args.checkpoint_dir,
            degrade=not args.no_degrade,
            backend=args.backend,
            optimize=optimize,
        ).run()
        _print_degradation(result)
        report = result.degradation
        if report is not None and report.final_mode == "context_insensitive":
            print(
                f"context-insensitive points-to (degraded): "
                f"{result.relation('vP').count()} (variable, heap) tuples, "
                f"{result.seconds:.2f}s, {result.peak_nodes} peak BDD nodes"
            )
        else:
            print(
                f"context-sensitive points-to: {result.max_paths()} call paths, "
                f"{result.vPC.count()} (context, variable, heap) tuples, "
                f"{result.seconds:.2f}s, {result.peak_nodes} peak BDD nodes"
            )
    else:
        result = ContextInsensitiveAnalysis(
            facts=facts, budget=budget, backend=args.backend,
            optimize=optimize,
        ).run()
        print(
            f"context-insensitive points-to: "
            f"{result.relation('vP').count()} (variable, heap) tuples, "
            f"{result.seconds:.2f}s, {result.peak_nodes} peak BDD nodes"
        )
    if args.profile or args.profile_json:
        _print_profile(result.solver, as_json=args.profile_json)
    for spec in args.var or ():
        method, _, var = spec.rpartition(":")
        if not method:
            print(f"  bad --var {spec!r}: use Method.name:var", file=sys.stderr)
            return EXIT_USAGE
        targets = result.points_to(method, var)
        print(f"  {spec} ->")
        for heap in sorted(targets):
            print(f"      {heap}")
        if not targets:
            print("      (empty)")
    if args.dump_dir:
        from .datalog.io import save_solver_outputs

        counts = save_solver_outputs(result.solver, args.dump_dir)
        print(f"wrote {sum(counts.values())} tuples to {args.dump_dir}/")
    return EXIT_OK


# Query kinds answered from a compiled database (point lookups) versus
# kinds that need a fresh solve of the whole program.  ``escape`` appears
# in both: with --db it is a per-heap verdict, without it the full report.
_DEMAND_KINDS = ("points-to", "aliases", "mod-ref", "callers")
_SOLVE_KINDS = ("escape", "casts", "devirt", "refinement", "vuln")

_QUERY_ERROR_EXITS = {
    "bad-argument": EXIT_USAGE,
    "unknown-query": EXIT_USAGE,
    "not-found": EXIT_DATAERR,
    "unsupported": EXIT_DATAERR,
    "demand-unavailable": EXIT_DATAERR,
    "reload-failed": EXIT_DATAERR,
    "budget-exceeded": EXIT_BUDGET,
    "deadline-exceeded": EXIT_BUDGET,
    # Transport/availability failures: the query was fine, the service
    # was not — sysexits EX_UNAVAILABLE so wrappers can retry.
    "connection-lost": EXIT_UNAVAILABLE,
    "circuit-open": EXIT_UNAVAILABLE,
    "overloaded": EXIT_UNAVAILABLE,
    "shutting-down": EXIT_UNAVAILABLE,
}


def _cmd_query(args) -> int:
    if getattr(args, "server", None):
        return _query_server(args)
    if args.db:
        return _query_db(args)
    if args.kind in _DEMAND_KINDS:
        print(
            f"repro: --kind {args.kind} is a demand query; compile the "
            f"program first ('repro compile-db') and pass --db",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.program is None:
        print("repro: query without --db needs a program file", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    code = _query_solve(args)
    elapsed = time.monotonic() - start
    print(
        f"repro: solved the whole program in {elapsed:.2f}s to answer one "
        f"query; run 'repro compile-db {args.program}' once and pass --db "
        f"(add --demand for queries outside the db's budget class) to "
        f"make queries instant",
        file=sys.stderr,
    )
    # A successful answer still exits with a distinct code so scripted
    # callers can tell "answered from a snapshot" (0) apart from
    # "answered, but paid a full solve" (3).  Meaningful non-zero codes
    # (e.g. vuln's EXIT_VULNERABLE) pass through untouched.
    return EXIT_SOLVE_FALLBACK if code == EXIT_OK else code


def _demand_query_args(args) -> dict:
    query_args: dict = {}
    if args.kind == "points-to":
        query_args["variable"] = args.var
        if args.context is not None:
            query_args["context"] = args.context
    elif args.kind == "aliases":
        query_args["variable1"] = args.var
        query_args["variable2"] = args.var2
    elif args.kind == "mod-ref":
        query_args["method"] = args.method
        if args.context is not None:
            query_args["context"] = args.context
    elif args.kind == "callers":
        query_args["method"] = args.method
    elif args.kind == "escape":
        query_args["heap"] = args.heap
    return query_args


def _reject_solve_kind(args) -> bool:
    if args.kind not in _DEMAND_KINDS + ("escape",):
        print(
            f"repro: --kind {args.kind} needs a fresh solve and cannot be "
            f"answered remotely (give the program file instead)",
            file=sys.stderr,
        )
        return True
    return False


def _query_db(args) -> int:
    """Answer a demand query from a compiled ``.ptdb`` (no solving)."""
    from .serve import PointsToDatabase, QueryEngine, QueryError

    if _reject_solve_kind(args):
        return EXIT_USAGE
    db = PointsToDatabase.load(args.db, backend=args.backend)
    engine = QueryEngine(
        db, default_timeout=args.timeout, enable_demand=args.demand
    )
    try:
        result = engine.query(args.kind, _demand_query_args(args))
    except QueryError as err:
        print(f"repro: {err}", file=sys.stderr)
        return _QUERY_ERROR_EXITS.get(err.code, EXIT_DATAERR)
    _print_query_result(args.kind, result)
    return EXIT_OK


def _query_server(args) -> int:
    """Answer a demand query from a running ``repro serve`` instance.

    Uses the resilient client (reconnect, backoff, circuit breaker,
    retry-after honoring); transport failures exit with
    ``EXIT_UNAVAILABLE`` (69) so shell wrappers can distinguish "server
    down" from "query wrong"."""
    from .serve import QueryError, ResilientClient, ServerError

    if _reject_solve_kind(args):
        return EXIT_USAGE
    host, _, port_text = args.server.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"repro: --server wants HOST:PORT, got {args.server!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    deadline_ms = None if args.timeout is None else args.timeout * 1000.0
    try:
        with ResilientClient(host, int(port_text)) as client:
            result = client.query(
                args.kind, _demand_query_args(args), deadline_ms=deadline_ms
            )
    except (ServerError, QueryError) as err:
        print(f"repro: {err}", file=sys.stderr)
        return _QUERY_ERROR_EXITS.get(err.code, EXIT_DATAERR)
    _print_query_result(args.kind, result)
    return EXIT_OK


def _print_query_result(kind: str, result: dict) -> None:
    if kind == "points-to":
        where = (
            f" (context {result['context']})"
            if result.get("context") is not None else ""
        )
        print(f"{result['variable']}{where} -> {result['count']} objects")
        for heap in result["heaps"]:
            print(f"  {heap}")
    elif kind == "aliases":
        verdict = "may alias" if result["may_alias"] else "no alias"
        print(f"{result['variable1']} / {result['variable2']}: {verdict}")
        for heap in result["common_heaps"]:
            print(f"  common: {heap}")
    elif kind == "mod-ref":
        print(
            f"{result['method']}: mod {len(result['mod'])}, "
            f"ref {len(result['ref'])}"
        )
        for heap, field in result["mod"]:
            print(f"  mod: {heap}.{field}")
        for heap, field in result["ref"]:
            print(f"  ref: {heap}.{field}")
    elif kind == "callers":
        print(f"{result['method']}: {result['count']} call sites")
        for entry in result["callers"]:
            print(f"  {entry['site']}")
    elif kind == "escape":
        print(f"{result['heap']}: {result['verdict']}")


def _query_solve(args) -> int:
    program, facts = _load(args)
    budget = _budget_of(args)
    if args.kind == "escape":
        result = ThreadEscapeAnalysis(facts=facts, budget=budget).run()
        summary = result.summary()
        print(
            f"captured {summary['captured']}, escaped {summary['escaped']}; "
            f"syncs: {summary['sync_unneeded']} removable, "
            f"{summary['sync_needed']} needed"
        )
        for h in sorted(result.escaped_heaps()):
            print(f"  escaped: {facts.maps['H'][h]}")
        return EXIT_OK
    if args.kind == "casts":
        result = ContextInsensitiveAnalysis(
            facts=facts, query_fragments=["query_casts"], budget=budget
        ).run()
        report = cast_safety(result)
        print(f"{len(report.safe)} safe casts, {len(report.failing)} may fail")
        for var in report.failing:
            print(f"  may fail: {var} (sees {', '.join(report.evidence[var])})")
        return EXIT_OK
    if args.kind == "devirt":
        result = ContextInsensitiveAnalysis(
            facts=facts, query_fragments=["query_devirt"], budget=budget
        ).run()
        report = devirtualization(result)
        print(
            f"{len(report.mono)} monomorphic sites, {len(report.poly)} "
            f"polymorphic, {len(report.dead)} dead; "
            f"{len(report.dead_methods)} dead methods"
        )
        for site in report.mono:
            print(f"  devirtualizable: {site}")
        return EXIT_OK
    if args.kind == "refinement":
        ci = ContextInsensitiveAnalysis(
            facts=facts, query_fragments=["query_refinement_ci"], budget=budget
        ).run()
        cs = ContextSensitiveAnalysis(
            facts=facts,
            call_graph=ci.discovered_call_graph,
            query_fragments=["query_refinement_cs_pointer"],
            budget=budget,
            degrade=False,
        ).run()
        for label, stats in (
            ("context-insensitive", refinement_stats(ci, "ci")),
            ("context-sensitive (projected)", refinement_stats(cs, "projected")),
            ("context-sensitive (full)", refinement_stats(cs, "full")),
        ):
            print(
                f"{label:<32} multi-typed {stats.multi:5.1f}%  "
                f"refinable {stats.refinable:5.1f}%"
            )
        return EXIT_OK
    if args.kind == "vuln":
        ci = ContextInsensitiveAnalysis(facts=facts, budget=budget).run()
        cs = ContextSensitiveAnalysis(
            facts=facts,
            call_graph=ci.discovered_call_graph,
            budget=budget,
            degrade=False,
        ).run()
        report = security_vulnerability_query(
            cs, list(ci.solver.relation("IE").tuples())
        )
        if report:
            for context, site in report.vulnerable_sites:
                print(f"VULNERABLE (context {context}): {site}")
            return EXIT_VULNERABLE
        print("clean: no String-derived key reaches PBEKeySpec.init")
        return EXIT_OK
    print(f"unknown query kind {args.kind!r}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_datalog(args) -> int:
    """Run a raw Datalog program against ``.tuples`` fact files."""
    from .datalog import Solver, parse_program as parse_datalog
    from .datalog.io import load_solver_inputs, save_solver_outputs

    source = pathlib.Path(args.program).read_text()
    sizes = {}
    for spec in args.domain or ():
        name, _, size = spec.partition("=")
        if not size.isdigit():
            print(
                f"  bad --domain {spec!r}: use NAME=SIZE", file=sys.stderr
            )
            return EXIT_USAGE
        sizes[name] = int(size)
    try:
        program = parse_datalog(source, domain_sizes=sizes or None)
    except DatalogError as err:
        raise DatalogError(f"{args.program}: {err}") from err
    solver = Solver(
        program, seminaive=args.seminaive, budget=_budget_of(args),
        backend=args.backend, optimize=_optimize(args),
        trace_ops=args.explain_plan,
    )
    if args.facts:
        if not pathlib.Path(args.facts).is_dir():
            raise FileNotFoundError(2, "fact directory not found", args.facts)
        counts = load_solver_inputs(solver, args.facts)
        total = sum(counts.values())
        print(f"loaded {total} tuples from {args.facts}/")
    solver.solve()
    for name in sorted(solver.relations):
        decl = program.relations[name]
        if decl.is_output:
            print(f"{name}: {solver.relation(name).count()} tuples")
    if args.explain_plan:
        print(solver.explain_plans(executed_only=True))
    if args.profile or args.profile_json:
        _print_profile(solver, as_json=args.profile_json)
    if args.out:
        counts = save_solver_outputs(solver, args.out)
        print(f"wrote {sum(counts.values())} tuples to {args.out}/")
    return EXIT_OK


def _cmd_compile_db(args) -> int:
    """Solve once and persist the result as a ``.ptdb`` database."""
    from .incremental import bundle_path_for, write_fixpoint_bundle
    from .serve import compile_database_with_state

    source_text = pathlib.Path(args.program).read_text()
    program = parse_program(
        source_text, main=args.main, include_library=not args.no_library
    )
    out = args.out or str(pathlib.Path(args.program).with_suffix(".ptdb"))
    start = time.monotonic()
    db, state = compile_database_with_state(
        program,
        source_path=args.program,
        source_sha256=hashlib.sha256(source_text.encode()).hexdigest(),
        main=args.main,
        modref=not args.no_modref,
        budget_class=args.budget_class,
        budget=_budget_of(args),
        backend=args.backend,
    )
    solve_seconds = time.monotonic() - start
    nodes = db.save(out)
    size = pathlib.Path(out).stat().st_size
    counts = ", ".join(
        f"{entry['name']} {entry['tuples']}"
        for entry in db.meta["relations"]
    )
    print(
        f"compiled {args.program} -> {out} "
        f"({size} bytes, {nodes} BDD nodes, db {db.db_id})"
    )
    print(f"  relations: {counts}")
    print(f"  call paths: {db.meta['paths']}, solve time {solve_seconds:.2f}s")
    if not args.no_fixpoint:
        fix = write_fixpoint_bundle(bundle_path_for(out), db, state)
        print(f"  fixpoint bundle: {fix} (warm starts for 'repro recompile')")
    return EXIT_OK


def _cmd_recompile(args) -> int:
    """Apply a fact diff to a compiled database: delta in, delta out."""
    from .incremental import (
        bundle_path_for,
        recompile_database,
        write_fixpoint_bundle,
    )

    start = time.monotonic()
    result = recompile_database(
        args.db,
        args.diff,
        fixpoint_path=args.fixpoint,
        backend=args.backend,
        budget=_budget_of(args),
        optimize=_optimize(args),
    )
    db = result.db
    nodes = db.save(args.out)
    if result.state is not None and not args.no_fixpoint_out:
        write_fixpoint_bundle(bundle_path_for(args.out), db, result.state)
    elif result.state is None and not args.no_fixpoint_out:
        # No-op recompile: the parent's fixpoint is still this fixpoint.
        src = pathlib.Path(
            args.fixpoint if args.fixpoint else bundle_path_for(args.db)
        )
        if src.exists():
            from .runtime import atomic_write_text

            atomic_write_text(bundle_path_for(args.out), src.read_text())
    seconds = time.monotonic() - start
    modes = ", ".join(f"{k}={v}" for k, v in sorted(result.modes.items()))
    size = pathlib.Path(args.out).stat().st_size
    print(
        f"recompiled {args.db} + {args.diff} -> {args.out} "
        f"({size} bytes, {nodes} BDD nodes)"
    )
    print(f"  db {result.parent_db_id} -> {db.db_id} ({modes})")
    print(f"  recompile time {seconds:.2f}s")
    if args.notify:
        host, _, port = args.notify.rpartition(":")
        if not host or not port.isdigit():
            print(f"  bad --notify {args.notify!r}: use HOST:PORT",
                  file=sys.stderr)
            return EXIT_USAGE
        from .serve import PointsToClient

        with PointsToClient(host, int(port)) as client:
            reply = client.reload(
                path=str(pathlib.Path(args.out).resolve()),
                expect_db_id=db.db_id,
            )
        print(
            f"  notified {args.notify}: reloaded db {reply.get('db_id')} "
            f"(epoch {reply.get('epoch')})"
        )
    return EXIT_OK


def _cmd_serve(args) -> int:
    """Serve demand queries for a compiled database over TCP."""
    if args.supervised:
        return _serve_supervised(args)
    from .serve import PointsToDatabase, PointsToServer

    db = PointsToDatabase.load(args.db, backend=args.backend)
    server = PointsToServer(
        db,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        default_timeout=args.timeout,
        max_connections=args.max_connections,
        max_requests_per_connection=args.max_requests,
        idle_timeout=args.idle_timeout,
        max_pending=args.max_pending,
        retry_after_ms=args.retry_after_ms,
    )
    # serve_forever installs the SIGHUP -> hot-reload handler itself.
    server.serve_forever()
    return EXIT_OK


def _serve_supervised(args) -> int:
    """Run the server as a supervised child: crash classification,
    restart with backoff, crash reports, SIGHUP forwarding.  The child
    re-runs this same CLI without ``--supervised``; once it announces
    its port, that port is pinned across restarts."""
    from .serve import ServeSupervisor

    child = [
        sys.executable, "-m", "repro", "serve",
        "--db", args.db,
        "--host", args.host,
        "--port", str(args.port),
        "--cache-size", str(args.cache_size),
        "--max-connections", str(args.max_connections),
        "--max-requests", str(args.max_requests),
        "--idle-timeout", str(args.idle_timeout),
        "--max-pending", str(args.max_pending),
        "--retry-after-ms", str(args.retry_after_ms),
    ]
    if args.timeout is not None:
        child += ["--timeout", str(args.timeout)]
    if args.backend is not None:
        child += ["--backend", args.backend]
    supervisor = ServeSupervisor(
        child,
        max_restarts=args.max_restarts,
        crash_dir=args.crash_dir,
    )
    return supervisor.run()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cloning-based context-sensitive pointer analysis (PLDI 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_flags(p):
        p.add_argument(
            "--backend", metavar="NAME",
            help="BDD kernel backend: reference or packed (default: "
            "$REPRO_BDD_BACKEND or 'packed')",
        )
        p.add_argument(
            "--timeout", type=float, metavar="SECONDS",
            help="wall-clock budget for the whole command",
        )
        p.add_argument(
            "--node-budget", type=int, metavar="N",
            help="maximum live BDD nodes before aborting or degrading",
        )
        p.add_argument(
            "--max-iterations", type=int, metavar="N",
            help="per-stratum fixpoint iteration cap",
        )

    def plan_flags(p):
        p.add_argument(
            "--no-opt", action="store_true",
            help="disable the Datalog plan optimizer (run greedy plans; "
            "also $REPRO_PLAN_OPT=off)",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="print the per-variant evaluation profile after solving",
        )
        p.add_argument(
            "--profile-json", action="store_true",
            help="print the per-variant profile as JSON",
        )

    def common(p, multi=False, optional=False):
        if multi:
            p.add_argument(
                "program", nargs="+", help="mini-Java source file(s)"
            )
        elif optional:
            p.add_argument(
                "program", nargs="?",
                help="mini-Java source file (omit when using --db)",
            )
        else:
            p.add_argument("program", help="mini-Java source file")
        p.add_argument("--main", default="Main", help="entry class (default Main)")
        p.add_argument(
            "--no-library", action="store_true", help="do not link the class library"
        )
        budget_flags(p)

    p_stats = sub.add_parser("stats", help="program vitals and call-path count")
    common(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_analyze = sub.add_parser("analyze", help="run the points-to analysis")
    common(p_analyze, multi=True)
    p_analyze.add_argument(
        "--context-sensitive", action="store_true",
        help="run Algorithms 4+5 instead of Algorithm 3",
    )
    p_analyze.add_argument(
        "--var", action="append", metavar="Method.name:var",
        help="print the points-to set of a variable (repeatable)",
    )
    p_analyze.add_argument(
        "--dump-dir", help="write output relations as .tuples files"
    )
    p_analyze.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="directory for mid-solve checkpoints (budgeted runs)",
    )
    p_analyze.add_argument(
        "--no-degrade", action="store_true",
        help="fail with exit code 75 instead of walking the degradation "
        "ladder when the budget is exhausted",
    )
    p_analyze.add_argument(
        "--isolate", action="store_true",
        help="run each program in a supervised worker process with hard "
        "kill/memory enforcement (exit 70 on unrecovered crash)",
    )
    p_analyze.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel workers with --isolate "
        "(default: cpu count, capped at the pool bound)",
    )
    p_analyze.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retries per crashed worker with --isolate (default 2)",
    )
    p_analyze.add_argument(
        "--memory-limit", type=int, metavar="MB",
        help="hard RLIMIT_AS cap per worker with --isolate",
    )
    plan_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_query = sub.add_parser("query", help="run a Section 5 style query")
    common(p_query, optional=True)
    p_query.add_argument(
        "--kind",
        required=True,
        choices=sorted(set(_SOLVE_KINDS) | set(_DEMAND_KINDS)),
    )
    p_query.add_argument(
        "--db", metavar="FILE.ptdb",
        help="answer from a compiled database instead of re-solving",
    )
    p_query.add_argument(
        "--var", metavar="Method.name:var",
        help="variable for points-to / aliases (with --db)",
    )
    p_query.add_argument(
        "--var2", metavar="Method.name:var",
        help="second variable for aliases (with --db)",
    )
    p_query.add_argument(
        "--method", metavar="Class.method",
        help="method for mod-ref / callers (with --db)",
    )
    p_query.add_argument(
        "--heap", metavar="SITE",
        help="allocation site name for escape (with --db)",
    )
    p_query.add_argument(
        "--context", type=int, metavar="N",
        help="context number for points-to / mod-ref (with --db)",
    )
    p_query.add_argument(
        "--demand", action="store_true",
        help="answer cache misses the database cannot (mod-ref without "
        "the fragment, variables outside --budget-class) by goal-"
        "directed demand evaluation instead of failing",
    )
    p_query.add_argument(
        "--server", metavar="HOST:PORT",
        help="answer from a running 'repro serve' instance (resilient "
        "client: reconnect, backoff, circuit breaker; exit 69 when the "
        "server is unreachable)",
    )
    p_query.set_defaults(func=_cmd_query)

    p_datalog = sub.add_parser(
        "datalog", help="solve a raw Datalog program over .tuples files"
    )
    p_datalog.add_argument("program", help="Datalog source file (.dl)")
    p_datalog.add_argument(
        "--facts", metavar="DIR", help="directory of input .tuples files"
    )
    p_datalog.add_argument(
        "--out", metavar="DIR", help="directory for output .tuples files"
    )
    p_datalog.add_argument(
        "--domain", action="append", metavar="NAME=SIZE",
        help="override a domain size (repeatable)",
    )
    p_datalog.add_argument(
        "--seminaive", action="store_true",
        help="run fresh strata semi-naively (delta variants) throughout "
        "instead of starting with whole-rule plans",
    )
    p_datalog.add_argument(
        "--explain-plan", action="store_true",
        help="print the optimized plans the solve ran (whole-rule plans, "
        "and the delta variants of a stratum that went on semi-naively) "
        "with per-op execution costs",
    )
    budget_flags(p_datalog)
    plan_flags(p_datalog)
    p_datalog.set_defaults(func=_cmd_datalog)

    p_compile = sub.add_parser(
        "compile-db",
        help="solve once and write a .ptdb points-to database",
    )
    common(p_compile)
    p_compile.add_argument(
        "--out", metavar="FILE.ptdb",
        help="output path (default: program path with .ptdb suffix)",
    )
    p_compile.add_argument(
        "--no-modref", action="store_true",
        help="skip the mod-ref fragment (smaller db, no mod-ref queries)",
    )
    p_compile.add_argument(
        "--budget-class", metavar="PATTERN",
        help="restrict the stored vP/vPC to variables of methods whose "
        "qualified name matches PATTERN (fnmatch); queries outside the "
        "class need 'repro query --demand'",
    )
    p_compile.add_argument(
        "--no-fixpoint", action="store_true",
        help="skip the .ptdb.fix fixpoint bundle (smaller output, but "
        "'repro recompile' falls back to from-scratch solves)",
    )
    p_compile.set_defaults(func=_cmd_compile_db)

    p_recompile = sub.add_parser(
        "recompile",
        help="apply a fact diff to a .ptdb: delta facts in, delta db out",
    )
    p_recompile.add_argument(
        "--db", required=True, metavar="OLD.ptdb",
        help="baseline database the diff applies to",
    )
    p_recompile.add_argument(
        "--diff", required=True, metavar="EDIT.json",
        help="fact diff file (see docs/incremental.md for the format)",
    )
    p_recompile.add_argument(
        "-o", "--out", required=True, metavar="NEW.ptdb",
        help="output path for the recompiled database",
    )
    p_recompile.add_argument(
        "--fixpoint", metavar="FILE.fix",
        help="fixpoint bundle for warm starts (default: OLD.ptdb.fix "
        "beside the database; missing or stale bundles degrade to a "
        "cold compile)",
    )
    p_recompile.add_argument(
        "--no-fixpoint-out", action="store_true",
        help="do not write NEW.ptdb.fix beside the output",
    )
    p_recompile.add_argument(
        "--notify", metavar="HOST:PORT",
        help="after writing, ask a running 'repro serve' to hot-swap to "
        "the new database (reload verb, db_id-checked)",
    )
    budget_flags(p_recompile)
    plan_flags(p_recompile)
    p_recompile.set_defaults(func=_cmd_recompile)

    p_serve = sub.add_parser(
        "serve", help="serve demand queries for a compiled database"
    )
    p_serve.add_argument(
        "--db", required=True, metavar="FILE.ptdb",
        help="compiled database to serve",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7777,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="LRU result-cache entries (default 1024)",
    )
    p_serve.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="default per-query evaluation budget",
    )
    p_serve.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="concurrent connection cap (default 64)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=100_000, metavar="N",
        help="requests served per connection before recycling",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="SECONDS",
        help="close connections idle for this long (default 300)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="admission control: pending-work limit before requests are "
        "rejected with a typed 'overloaded' error (default 256)",
    )
    p_serve.add_argument(
        "--retry-after-ms", type=int, default=200, metavar="MS",
        help="base retry-after hint carried by 'overloaded' rejections "
        "(default 200)",
    )
    p_serve.add_argument(
        "--supervised", action="store_true",
        help="run the server as a supervised child process: crashes are "
        "classified, reported, and restarted with backoff (exit 70 when "
        "the restart budget is exhausted)",
    )
    p_serve.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="with --supervised: restarts allowed within one instability "
        "window before giving up (default 5)",
    )
    p_serve.add_argument(
        "--crash-dir", metavar="DIR",
        help="with --supervised: directory for per-crash JSON reports "
        "(default: $REPRO_CRASH_DIR)",
    )
    p_serve.add_argument(
        "--backend", metavar="NAME",
        help="BDD kernel backend: reference or packed (default: "
        "$REPRO_BDD_BACKEND or 'packed')",
    )
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = getattr(args, "backend", None)
        if backend is not None:
            # Validate up front (typo-proofing) and export so every layer
            # — including worker subprocesses, which inherit the
            # environment — resolves to the same kernel.
            from .bdd.api import BACKEND_ENV_VAR, resolve_backend_name

            os.environ[BACKEND_ENV_VAR] = resolve_backend_name(backend)
        # Same deal for the plan optimizer: export the choice so worker
        # subprocesses resolve identically.
        if _optimize(args) is False:
            from .datalog.passes import OPT_ENV_VAR

            os.environ[OPT_ENV_VAR] = "off"
        return args.func(args)
    except BrokenPipeError:
        # The consumer of our stdout (`head`, `grep -q`, ...) exited
        # early.  Point stdout at devnull so the interpreter's exit-time
        # flush cannot raise a second time, and leave quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except FileNotFoundError as err:
        name = getattr(err, "filename", None) or err
        print(f"repro: input not found: {name}", file=sys.stderr)
        return EXIT_NOINPUT
    except IsADirectoryError as err:
        print(f"repro: not a file: {err.filename}", file=sys.stderr)
        return EXIT_NOINPUT
    except (InvalidInputError, CheckpointError) as err:
        print(f"repro: invalid input: {err}", file=sys.stderr)
        return EXIT_DATAERR
    except (IRError, DatalogError, BDDError) as err:
        print(f"repro: {err}", file=sys.stderr)
        return EXIT_DATAERR
    except WorkerCrashed as err:
        # Must precede the ReproError handler: a dead worker is a 70,
        # not a budget 75 — unless the child reported a budget fault.
        print(f"repro: worker failed ({err.classification}): {err}",
              file=sys.stderr)
        return EXIT_BUDGET if err.classification == "budget" else EXIT_WORKER
    except ReproError as err:
        print(f"repro: budget exhausted: {err}", file=sys.stderr)
        if err.completed_strata is not None:
            print(
                f"repro: completed {err.completed_strata} strata before "
                f"the fault",
                file=sys.stderr,
            )
        return EXIT_BUDGET


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
