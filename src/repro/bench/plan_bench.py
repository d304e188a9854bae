"""Plan-optimizer benchmark and op-count regression harness.

Two artifacts, both under ``results/``:

* ``BENCH_plan.json`` — per-corpus-entry comparison of the optimized
  pipeline against unoptimized plans plus a leave-one-out ablation of
  every pass (``opt-no-<pass>``), recording executed op counts by kind
  (``replace`` is the headline — the op the optimizer exists to shrink),
  static op counts, and best-of-N wall-clock for the whole solve
  (solver construction *including* optimization time, plus the fixpoint).
* ``PLAN_COUNTS.json`` — the committed baseline of op counts under the
  default (optimized) configuration.  ``--check`` recomputes the counts
  and fails if any entry executes *more* ``replace`` or ``rel_prod`` ops
  than the baseline records (a plan regression), or if any program's
  static per-kind op counts differ from the baseline (a plan changed).

Usage::

    python -m repro.bench.plan_bench --out results
    python -m repro.bench.plan_bench --check results/PLAN_COUNTS.json

The timed workload is Algorithm 3 (context-insensitive points-to with
call-graph discovery): it exercises recursive rules, hoisting, and the
delta-plan machinery without the multi-minute context-sensitive solves.
Every other plan the system runs is fenced by counts only, under the
baseline's ``programs`` key: Algorithms 1, 2, 5, 6 and 7, the no-filter
variant of Algorithm 3, each query fragment on the program it extends,
and the magic-rewritten demand program of
:class:`~repro.serve.demand.DemandEvaluator`.  Static counts depend
only on the program text and the pass options; executed counts are
taken on :data:`PROGRAM_ENTRIES`, entries small enough for CI.  The
demand evaluator takes no ``optimize`` argument, so its counts follow
``REPRO_PLAN_OPT``: check with the optimizer on, as the baseline was
recorded.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..analysis import (
    ContextInsensitiveAnalysis,
    ContextSensitiveAnalysis,
    ContextSensitiveTypeAnalysis,
    ThreadEscapeAnalysis,
)
from ..datalog.passes import PASS_NAMES
from ..ir.facts import extract_facts
from .corpus import corpus_entry, corpus_names

__all__ = [
    "solve_entry",
    "bench_entry",
    "run_plan_bench",
    "check_plan_counts",
    "program_counts",
    "expand_fused",
    "main",
]

DEFAULT_REPEATS = 3

#: Fused superops count as their expanded primitive equivalents wherever
#: op counts are compared: a ``rel_prod_replace`` is one ``rel_prod``
#: plus one ``replace``, an ``and_exist`` is one ``and`` plus one
#: ``exist``.  This keeps the regression gate fusion-neutral — fusing
#: (or unfusing) a plan can neither mask nor fake a change in how many
#: replace/rel_prod evaluations the fixpoint performs.
_FUSED_EXPANSION = {
    "rel_prod_replace": ("rel_prod", "replace"),
    "and_exist": ("and", "exist"),
}


def expand_fused(executed: Dict[str, int]) -> Dict[str, int]:
    """Executed-op counts with fused superops expanded to primitives."""
    out = dict(executed)
    for fused, parts in _FUSED_EXPANSION.items():
        n = out.pop(fused, 0)
        if n:
            for part in parts:
                out[part] = out.get(part, 0) + n
    return out


def solve_entry(
    name: str,
    optimize: Optional[bool] = None,
    disabled_passes: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
    repeats: int = 1,
    facts=None,
) -> Dict[str, Any]:
    """Solve Algorithm 3 on one corpus entry under one optimizer config.

    Wall-clock is the best of ``repeats`` runs (minimum suppresses
    scheduler noise on entries that solve in well under a second); op
    counts are taken from the last run — they are deterministic.
    """
    if facts is None:
        facts = extract_facts(corpus_entry(name).build())
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        seconds, result = _timed_run(
            facts, optimize, disabled_passes, backend
        )
        best = min(best, seconds)
    return _config_record(result, best)


def _timed_run(facts, optimize, disabled_passes, backend):
    """One whole solve (construction + fixpoint) with the cyclic GC
    parked, so collection pauses don't land on one config's timing."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.monotonic()
        result = ContextInsensitiveAnalysis(
            facts=facts,
            optimize=optimize,
            disabled_passes=disabled_passes,
            backend=backend,
        ).run()
        return time.monotonic() - t0, result
    finally:
        gc.enable()


def _config_record(result, best: float) -> Dict[str, Any]:
    solver = result.solver
    executed = dict(sorted(solver.stats.plan_ops.items()))
    return {
        "executed": executed,
        "executed_total": sum(executed.values()),
        "static": dict(sorted(solver.plan_op_counts().items())),
        "seconds": round(best, 4),
        "tuples_vP": solver.relation("vP").count(),
        "iterations": solver.stats.iterations,
    }


def bench_entry(
    name: str, repeats: int = DEFAULT_REPEATS, backend: Optional[str] = None
) -> Dict[str, Any]:
    """Full config sweep for one entry: noopt, opt, and opt with each
    pass individually disabled (the per-pass contribution).

    The repeats are *interleaved* — every config runs once per round —
    so slow drift in machine load is spread evenly across configs
    instead of penalizing whichever ran last.
    """
    facts = extract_facts(corpus_entry(name).build())
    sweep: List[tuple] = [
        ("noopt", False, None),
        ("opt", True, None),
    ]
    sweep.extend(
        (f"opt-no-{pass_name}", True, [pass_name])
        for pass_name in PASS_NAMES
    )
    best: Dict[str, float] = {label: float("inf") for label, _, _ in sweep}
    last: Dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for label, optimize, disabled in sweep:
            seconds, result = _timed_run(facts, optimize, disabled, backend)
            best[label] = min(best[label], seconds)
            last[label] = result
    configs: Dict[str, Any] = {
        label: _config_record(last[label], best[label])
        for label, _, _ in sweep
    }
    # Replace counts are compared in *expanded* form (fused superops
    # count as their primitives), so the fuse pass — which hides
    # replaces inside rel_prod_replace ops — does not inflate the
    # reduction the rename-elimination passes earn.
    opt_replace = expand_fused(configs["opt"]["executed"]).get("replace", 0)
    noopt_replace = expand_fused(configs["noopt"]["executed"]).get(
        "replace", 0
    )
    reduction = 0.0
    if noopt_replace:
        reduction = round(100.0 * (1.0 - opt_replace / noopt_replace), 1)
    # Per-pass contribution: how many extra replace executions appear
    # when the pass is removed from the pipeline.
    contributions = {
        pass_name: expand_fused(
            configs[f"opt-no-{pass_name}"]["executed"]
        ).get("replace", 0)
        - opt_replace
        for pass_name in PASS_NAMES
    }
    return {
        "name": name,
        "configs": configs,
        "replace_opt": opt_replace,
        "replace_noopt": noopt_replace,
        "replace_reduction_pct": reduction,
        "wall_opt": configs["opt"]["seconds"],
        "wall_noopt": configs["noopt"]["seconds"],
        "pass_contribution_replace": contributions,
    }


def run_plan_bench(
    names: Optional[Sequence[str]] = None,
    repeats: int = DEFAULT_REPEATS,
    backend: Optional[str] = None,
    verbose: bool = True,
) -> Dict[str, Any]:
    """Benchmark every entry; returns the ``BENCH_plan.json`` payload."""
    if names is None:
        names = corpus_names(small=True)
    entries = []
    for name in names:
        record = bench_entry(name, repeats=repeats, backend=backend)
        entries.append(record)
        if verbose:
            print(
                f"  [{name}: replace {record['replace_noopt']} -> "
                f"{record['replace_opt']} "
                f"(-{record['replace_reduction_pct']}%), wall "
                f"{record['wall_noopt']}s -> {record['wall_opt']}s]",
                flush=True,
            )
    return {
        "workload": "algorithm3",
        "repeats": repeats,
        "passes": list(PASS_NAMES),
        "entries": entries,
        "summary": {
            "entries_over_30pct": sum(
                1 for e in entries if e["replace_reduction_pct"] >= 30.0
            ),
            "wall_no_worse_everywhere": all(
                e["wall_opt"] <= e["wall_noopt"] for e in entries
            ),
        },
    }


# ----------------------------------------------------------------------
# The programs fence: every other plan the system runs
# ----------------------------------------------------------------------

#: Entries the programs fence executes on (the two smallest of the
#: small subset; all of them solve in a few seconds).
PROGRAM_ENTRIES = ("freetts", "jetty")

#: Variables and methods asked per entry in the demand program's
#: executed counts (spread evenly over the ordinals).
_DEMAND_GOALS = 8


def _ci_program(fragments=(), type_filtering=True, discover=True):
    def solve(name, facts, graph, backend):
        return ContextInsensitiveAnalysis(
            facts=facts,
            type_filtering=type_filtering,
            discover_call_graph=discover,
            query_fragments=fragments,
            backend=backend,
            optimize=True,
        ).run().solver
    return solve


def _cs_program(analysis, fragments=()):
    def solve(name, facts, graph, backend):
        return analysis(
            facts=facts, call_graph=graph, query_fragments=fragments,
            backend=backend, optimize=True,
        ).run().solver
    return solve


def _escape_program(name, facts, graph, backend):
    return ThreadEscapeAnalysis(
        facts=facts, call_graph=graph, backend=backend, optimize=True
    ).run().solver


def _demand_program(name, facts, graph, backend):
    """The magic-rewritten demand program, driven by a fixed goal set:
    points-to of evenly spread variables, then mod-ref of evenly spread
    methods."""
    from ..serve import compile_database
    from ..serve.demand import DemandEvaluator

    db = compile_database(corpus_entry(name).build(), backend=backend)
    evaluator = DemandEvaluator(db, backend=backend)
    for dom, ask in (("V", evaluator.points_to), ("M", evaluator.mod_ref)):
        size = facts.sizes[dom]
        for ordinal in range(0, size, max(1, size // _DEMAND_GOALS)):
            ask(ordinal)
    return evaluator.solver


#: Program label -> ``solve(name, facts, graph, backend)`` returning the
#: solved solver.  ``graph`` is the entry's Algorithm 3 call graph.
PROGRAMS: Dict[str, Callable] = {
    "algorithm1": _ci_program(type_filtering=False, discover=False),
    "algorithm2": _ci_program(discover=False),
    "algorithm3_nofilter": _ci_program(type_filtering=False),
    "algorithm3+query_casts": _ci_program(["query_casts"]),
    "algorithm3+query_devirt": _ci_program(["query_devirt"]),
    "algorithm3+query_refinement_ci": _ci_program(["query_refinement_ci"]),
    "algorithm5": _cs_program(ContextSensitiveAnalysis),
    "algorithm5+query_modref": _cs_program(
        ContextSensitiveAnalysis, ["query_modref"]
    ),
    "algorithm5+query_refinement_cs_pointer": _cs_program(
        ContextSensitiveAnalysis, ["query_refinement_cs_pointer"]
    ),
    "algorithm6": _cs_program(ContextSensitiveTypeAnalysis),
    "algorithm6+query_refinement_cs_type": _cs_program(
        ContextSensitiveTypeAnalysis, ["query_refinement_cs_type"]
    ),
    "algorithm7": _escape_program,
    "demand": _demand_program,
}


def _program_runs(names: Sequence[str], backend: Optional[str]):
    """Yield ``(entry, label, solver)`` for every program on every entry."""
    for name in names:
        facts = extract_facts(corpus_entry(name).build())
        graph = ContextInsensitiveAnalysis(
            facts=facts, backend=backend, optimize=True
        ).run().discovered_call_graph
        for label, solve in PROGRAMS.items():
            yield name, label, solve(name, facts, graph, backend)


def program_counts(
    names: Sequence[str] = PROGRAM_ENTRIES, backend: Optional[str] = None
) -> Dict[str, Any]:
    """The ``programs`` section of the baseline: per program, its static
    per-kind op counts and its executed counts on each entry."""
    out: Dict[str, Any] = {}
    for name, label, solver in _program_runs(names, backend):
        record = out.setdefault(
            label,
            {"static_opt": dict(sorted(solver.plan_op_counts().items())),
             "executed": {}},
        )
        record["executed"][name] = dict(sorted(solver.stats.plan_ops.items()))
    return out


def plan_counts_payload(
    bench: Dict[str, Any], programs: Dict[str, Any]
) -> Dict[str, Any]:
    """The regression baseline: per-entry executed op counts (optimized
    and unoptimized) distilled from a ``run_plan_bench`` payload, plus
    the :func:`program_counts` section."""
    return {
        "workload": bench["workload"],
        "entries": {
            e["name"]: {
                "opt": e["configs"]["opt"]["executed"],
                "noopt": e["configs"]["noopt"]["executed"],
                "static_opt": e["configs"]["opt"]["static"],
            }
            for e in bench["entries"]
        },
        "programs": programs,
    }


def _compare_counts(
    where: str,
    executed: Dict[str, int],
    static: Dict[str, int],
    want_executed: Dict[str, int],
    want_static: Dict[str, int],
) -> List[str]:
    """Regressions of one solve against its baseline record: more
    executed ``replace``/``rel_prod`` ops, or any change in the static
    per-kind op counts."""
    problems: List[str] = []
    # Compare executed ops in expanded form so the gate is indifferent
    # to whether either side fused its ops.
    got_ops = expand_fused(executed)
    want_ops = expand_fused(want_executed)
    for kind in ("replace", "rel_prod"):
        got = got_ops.get(kind, 0)
        want = want_ops.get(kind, 0)
        if got > want:
            problems.append(
                f"{where}: executed {kind} count regressed {want} -> {got}"
            )
    changed = [
        f"{kind} {want_static.get(kind, 0)} -> {static.get(kind, 0)}"
        for kind in sorted(set(static) | set(want_static))
        if static.get(kind, 0) != want_static.get(kind, 0)
    ]
    if changed:
        problems.append(
            f"{where}: static op counts changed: {', '.join(changed)}"
        )
    return problems


def check_plan_counts(
    baseline_path: str, backend: Optional[str] = None, verbose: bool = True
) -> List[str]:
    """Recompute executed and static op counts and compare against the
    committed baseline.  Returns a list of human-readable regressions
    (empty means the optimizer still earns its keep on every entry and
    no plan changed)."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    problems: List[str] = []
    for name, expected in sorted(baseline["entries"].items()):
        current = solve_entry(name, optimize=True, backend=backend)
        problems += _compare_counts(
            name, current["executed"], current["static"],
            expected["opt"], expected["static_opt"],
        )
        if verbose:
            got = expand_fused(current["executed"]).get("replace", 0)
            want = expand_fused(expected["opt"]).get("replace", 0)
            print(
                f"  [{name}: executed replace {got} (baseline {want})]",
                flush=True,
            )
    programs = baseline["programs"]
    for label in sorted(set(programs) - set(PROGRAMS)):
        problems.append(f"{label}: in the baseline but no longer built")
    entries = sorted(
        {name for record in programs.values() for name in record["executed"]}
    )
    for name, label, solver in _program_runs(entries, backend):
        expected = programs.get(label)
        if expected is None or name not in expected["executed"]:
            problems.append(f"{label} on {name}: not in the baseline")
            continue
        executed = dict(solver.stats.plan_ops)
        problems += _compare_counts(
            f"{label} on {name}", executed, solver.plan_op_counts(),
            expected["executed"][name], expected["static_opt"],
        )
        if verbose:
            print(
                f"  [{label} on {name}: executed replace "
                f"{expand_fused(executed).get('replace', 0)}]",
                flush=True,
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--entries", metavar="NAME,NAME",
        help="corpus entries (default: the small subset)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, metavar="N",
        help="wall-clock repeats per config, best kept (default %(default)s)",
    )
    parser.add_argument(
        "--backend", metavar="NAME", help="BDD kernel backend"
    )
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--check", metavar="BASELINE.json", nargs="?",
        const="results/PLAN_COUNTS.json",
        help="regression mode: recompute executed op counts and fail if "
        "any entry's replace count exceeds the baseline",
    )
    args = parser.parse_args(argv)

    if args.check:
        print(f"Plan-count regression check vs {args.check}", flush=True)
        problems = check_plan_counts(args.check, backend=args.backend)
        for problem in problems:
            print(f"REGRESSION: {problem}")
        print("plan counts OK" if not problems else "PLAN REGRESSION FOUND")
        return 1 if problems else 0

    names = None
    if args.entries:
        names = [n.strip() for n in args.entries.split(",") if n.strip()]
    print("Plan-optimizer benchmark (Algorithm 3):", flush=True)
    bench = run_plan_bench(names=names, repeats=args.repeats,
                           backend=args.backend)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench_path = out / "BENCH_plan.json"
    bench_path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    counts_path = out / "PLAN_COUNTS.json"
    print("Programs fence (static and executed op counts):", flush=True)
    payload = plan_counts_payload(bench, program_counts(backend=args.backend))
    counts_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {bench_path} and {counts_path}")
    summary = bench["summary"]
    print(
        f"entries with >=30% replace reduction: "
        f"{summary['entries_over_30pct']}/{len(bench['entries'])}; "
        f"wall-clock no worse everywhere: "
        f"{summary['wall_no_worse_everywhere']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
