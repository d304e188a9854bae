"""Microbenchmarks for the pluggable BDD kernels (-> BENCH_kernel.json).

Two layers of measurement, both run under every backend being compared:

* **Per-op microbenchmarks** on synthetic transition-relation workloads
  (the shape the solver actually produces: a relation ``R(x, x')`` over
  interleaved variables, frontier sets ``S(x)``, and the
  ``rel_prod`` / ``replace`` / ``exist`` loop of semi-naive iteration).
  Each op is measured in two regimes: ``cold`` (operation caches cleared
  before every call — the full recursive build) and ``warm`` (the same
  call repeated — the public-entry + cache-probe path that dominates
  once the fixpoint loop revisits stable relations).
* **Whole-solve wall clock**: the context-sensitive analysis
  (Algorithm 5) on real corpus entries.

The JSON artifact records the measured seconds and the
reference/<backend> speedup ratio for every cell; nothing is projected
or extrapolated.  Run with::

    python -m repro.bench.kernel_bench --out results
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bdd.api import BddKernel, create_kernel

__all__ = ["bench_ops", "bench_solves", "run_kernel_bench", "main"]

DEFAULT_BACKENDS = ("reference", "packed")

# Synthetic workload shape: k-bit state space, R(x, x') interleaved.
_BITS = 12
_EDGES = 220
_SEEDS = (11, 23, 47)


def _levels(bits: int) -> Tuple[List[int], List[int]]:
    """Interleaved x / x' level blocks (x_i at 2i, x'_i at 2i+1)."""
    return [2 * i for i in range(bits)], [2 * i + 1 for i in range(bits)]


def _encode(m: BddKernel, value: int, levels: Sequence[int]) -> int:
    lits = [
        (lvl, bool((value >> (len(levels) - 1 - i)) & 1))
        for i, lvl in enumerate(levels)
    ]
    return m.cube(lits)


def _workload(m: BddKernel, seed: int) -> Dict[str, int]:
    """Build one deterministic transition system in ``m``."""
    rng = random.Random(seed)
    x, xp = _levels(_BITS)
    space = 1 << _BITS
    r = 0
    for _ in range(_EDGES):
        a, b = rng.randrange(space), rng.randrange(space)
        edge = m.and_(_encode(m, a, x), _encode(m, b, xp))
        r = m.or_(r, edge)
    s = 0
    for _ in range(40):
        s = m.or_(s, _encode(m, rng.randrange(space), x))
    return {
        "R": r,
        "S": s,
        "varset": m.varset(x),
        "map": m.replace_map({b: a for a, b in zip(x, xp)}),
    }


def _time(fn, repeat: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return time.perf_counter() - t0


def bench_ops(
    backend: str, cold_repeat: int = 60, warm_budget_s: float = 0.35
) -> Dict[str, Dict[str, float]]:
    """Per-op cold/warm *per-call* seconds for one backend (averaged over
    seeds).  Warm repeats are calibrated per op so an expensive op (e.g.
    the uncached ``sat_count`` walk) does not blow up the wall clock;
    reporting per-call time keeps backends comparable regardless."""
    x, xp = _levels(_BITS)
    totals: Dict[str, Dict[str, List[float]]] = {}

    def record(op: str, regime: str, seconds: float, calls: int) -> None:
        cell = totals.setdefault(op, {})
        sec, n = cell.get(regime, (0.0, 0))
        cell[regime] = (sec + seconds, n + calls)

    for seed in _SEEDS:
        m = create_kernel(num_vars=2 * _BITS, backend=backend)
        w = _workload(m, seed)
        R, S, vs, mp = w["R"], w["S"], w["varset"], w["map"]
        ops = {
            "and": lambda: m.and_(R, S),
            "or": lambda: m.or_(R, S),
            "diff": lambda: m.diff(R, S),
            "exist": lambda: m.exist(R, vs),
            "rel_prod": lambda: m.rel_prod(S, R, vs),
            "replace": lambda: m.replace(m.rel_prod(S, R, vs), mp),
            # The fused superop the optimizer emits: one entry instead
            # of the rel_prod + replace pair above (same result).
            "rel_prod_replace": lambda: m.rel_prod_replace(S, R, vs, mp),
            "sat_count": lambda: m.sat_count(R, x + xp),
        }
        for op, fn in ops.items():
            cold = 0.0
            for _ in range(cold_repeat):
                m.clear_caches()
                cold += _time(fn, 1)
            record(op, "cold", cold, cold_repeat)
            m.clear_caches()
            once = _time(fn, 1)  # prime the caches
            repeat = max(50, min(50_000, int(warm_budget_s / max(once, 1e-7))))
            # Subtract the loop + closure dispatch overhead (timeit
            # style): both backends pay it identically, so leaving it in
            # would only dilute the warm-regime ratio toward 1.
            noop = lambda: None  # noqa: E731
            overhead = _time(noop, repeat)
            record(op, "warm", max(_time(fn, repeat) - overhead, 0.0), repeat)
        # One realistic reachability fixpoint (rel_prod + replace + or
        # until closure), cold per iteration like a growing frontier.
        m.clear_caches()
        t0 = time.perf_counter()
        reach = S
        while True:
            step = m.replace(m.rel_prod(reach, R, vs), mp)
            nxt = m.or_(reach, step)
            if nxt == reach:
                break
            reach = nxt
        record("reach_fixpoint", "cold", time.perf_counter() - t0, 1)
    # Average per-call seconds across the seeds.
    out: Dict[str, Dict[str, float]] = {}
    for op, cell in totals.items():
        out[op] = {
            regime: sec / calls for regime, (sec, calls) in cell.items()
        }
    return out


def _parse_solve_config(config: str):
    """``backend[+nofuse|+noopt]`` -> (backend, optimize, disabled)."""
    backend, _, suffix = config.partition("+")
    if suffix == "nofuse":
        return backend, None, ["fuse"]
    if suffix == "noopt":
        return backend, False, None
    if suffix in ("", "opt"):
        return backend, None, None
    raise ValueError(
        f"bad solve config {config!r}: expected backend, backend+nofuse "
        f"or backend+noopt"
    )


def _analysis_without(disabled: Sequence[str]):
    """Algorithm 5 with the ``disabled`` optimizer passes off in both of
    its solves, call-graph discovery and the cloned solve.  Only the
    solver and Algorithm 3 take a pass switch, so the override goes
    through those two entry points."""
    from ..analysis import ContextInsensitiveAnalysis, ContextSensitiveAnalysis
    from ..analysis.base import load_datalog_source, make_solver

    class Analysis(ContextSensitiveAnalysis):
        def _obtain_call_graph(self):
            return ContextInsensitiveAnalysis(
                facts=self.facts,
                type_filtering=True,
                discover_call_graph=True,
                backend=self.backend,
                optimize=self.optimize,
                disabled_passes=disabled,
            ).run().discovered_call_graph

        def _build_solver(
            self, numbering, graph, order_spec, budget=None, install=True
        ):
            solver = make_solver(
                self.facts,
                load_datalog_source(self.algorithm, self.query_fragments),
                size_overrides={"C": numbering.context_domain_size()},
                order_spec=order_spec,
                budget=budget,
                backend=self.backend,
                optimize=self.optimize,
                disabled_passes=disabled,
            )
            if install:
                self._install_numbering(solver, numbering, graph)
            return solver

    return Analysis


def bench_solves(
    config: str, entries: Sequence[str]
) -> Dict[str, Dict[str, Any]]:
    """Whole-program Algorithm 5 wall clock per corpus entry, plus the
    structural fingerprint of the solved relations: a cell only counts
    if every config under comparison produced the identical result."""
    import hashlib

    from ..analysis import ContextSensitiveAnalysis
    from ..bdd.serialize import dump_bdd_lines
    from ..ir.facts import extract_facts
    from .corpus import corpus_entry

    backend, optimize, disabled = _parse_solve_config(config)
    analysis = (
        _analysis_without(disabled) if disabled else ContextSensitiveAnalysis
    )
    out: Dict[str, Dict[str, Any]] = {}
    for name in entries:
        facts = extract_facts(corpus_entry(name).build())
        t0 = time.monotonic()
        result = analysis(
            facts=facts, backend=backend, optimize=optimize
        ).run()
        seconds = round(time.monotonic() - t0, 3)
        solver = result.solver
        lines = []
        for rel in ("vPC", "hP"):
            chunk, _ = dump_bdd_lines(
                solver.manager, [solver.relation(rel).node]
            )
            lines.extend(chunk)
        out[name] = {
            "seconds": seconds,
            "peak_nodes": result.peak_nodes,
            "vPC": result.relation("vPC").count(),
            "fingerprint": hashlib.sha256(
                "\n".join(lines).encode()
            ).hexdigest()[:16],
        }
        del result
    return out


def _bench_solves_isolated(
    config: str, entries: Sequence[str], repeats: int
) -> Dict[str, Dict[str, Any]]:
    """Run ``bench_solves`` in fresh subprocesses, keeping the fastest
    repeat per entry.  In-process sequential solves pollute each other
    (allocator state, cache residue from earlier configs), so every
    timing comes from a process that has done nothing else."""
    import json
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "from repro.bench.kernel_bench import bench_solves\n"
        "print(json.dumps(bench_solves(sys.argv[1], sys.argv[2].split(','))))\n"
    )
    best: Dict[str, Dict[str, Any]] = {}
    for _ in range(max(1, repeats)):
        proc = subprocess.run(
            [sys.executable, "-c", code, config, ",".join(entries)],
            capture_output=True, text=True,
        )
        if proc.returncode:
            raise RuntimeError(
                f"isolated solve {config!r} failed:\n{proc.stderr[-2000:]}"
            )
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, cell in run.items():
            prev = best.get(name)
            if prev is None:
                best[name] = cell
            elif cell["fingerprint"] != prev["fingerprint"]:
                raise RuntimeError(
                    f"solve {config!r} is nondeterministic on {name!r}: "
                    f"{cell['fingerprint']} != {prev['fingerprint']}"
                )
            elif cell["seconds"] < prev["seconds"]:
                best[name] = cell
    return best


def _ratios(by_backend: Dict[str, float], base: str) -> Dict[str, float]:
    """reference-relative speedups (>1 means faster than ``base``)."""
    ref = by_backend.get(base)
    out = {}
    for be, seconds in by_backend.items():
        if be == base or not seconds or not ref:
            continue
        out[be] = round(ref / seconds, 3)
    return out


def run_kernel_bench(
    backends: Sequence[str] = DEFAULT_BACKENDS,
    entries: Sequence[str] = ("jetty", "gruntspud"),
    cold_repeat: int = 60,
    warm_budget_s: float = 0.35,
    solve_repeats: int = 2,
    verbose: bool = True,
) -> Dict[str, Any]:
    base = backends[0]
    micro: Dict[str, Any] = {}
    raw_ops = {}
    for be in backends:
        if verbose:
            print(f"micro: {be} ...", flush=True)
        raw_ops[be] = bench_ops(be, cold_repeat, warm_budget_s)
    for op in raw_ops[base]:
        micro[op] = {}
        for regime in raw_ops[base][op]:
            # Per-call microseconds, plus the baseline-relative speedup.
            cell = {
                be: round(raw_ops[be][op][regime] * 1e6, 3)
                for be in backends
            }
            cell["speedup"] = _ratios(
                {be: raw_ops[be][op][regime] for be in backends}, base
            )
            micro[op][regime] = cell

    # Whole-solve rows compare the backends under the default (fused)
    # plans against the baseline backend with fusion disabled — the
    # pre-superop execution model.  Each config runs in fresh isolated
    # subprocesses (min of ``solve_repeats``).  Every cell is gated on
    # fingerprint equality: a config that produced a structurally
    # different result would make its timing meaningless, so it fails
    # the run instead.
    solve_base = f"{base}+nofuse"
    solve_configs = [solve_base] + list(backends)
    solves: Dict[str, Any] = {}
    raw_solves = {}
    for cfg in solve_configs:
        if verbose:
            print(f"solve: {cfg} {list(entries)} x{solve_repeats} ...",
                  flush=True)
        raw_solves[cfg] = _bench_solves_isolated(cfg, entries, solve_repeats)
    for name in entries:
        prints = {
            cfg: raw_solves[cfg][name]["fingerprint"]
            for cfg in solve_configs
        }
        if len(set(prints.values())) != 1:
            raise RuntimeError(
                f"solve fingerprints diverged on {name!r}: {prints} — "
                f"timings withheld (fix the kernel, then re-run)"
            )
        cell: Dict[str, Any] = {
            cfg: raw_solves[cfg][name] for cfg in solve_configs
        }
        cell["fingerprints_identical"] = True
        cell["speedup"] = _ratios(
            {
                cfg: raw_solves[cfg][name]["seconds"]
                for cfg in solve_configs
            },
            solve_base,
        )
        solves[name] = cell

    return {
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "config": {
            "backends": list(backends),
            "baseline": base,
            "solve_baseline": solve_base,
            "solve_configs": solve_configs,
            "bits": _BITS,
            "edges": _EDGES,
            "seeds": list(_SEEDS),
            "cold_repeat": cold_repeat,
            "warm_budget_s": warm_budget_s,
            "solve_repeats": solve_repeats,
            "solve_isolation": "fresh subprocess per repeat, min kept",
            "microbench_unit": "microseconds per call",
        },
        "microbench": micro,
        "solves": solves,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--backends", default=",".join(DEFAULT_BACKENDS), metavar="A,B",
        help="backends to compare; the first is the baseline "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--entries", default="jetty,gruntspud", metavar="NAME,NAME",
        help="corpus entries for the whole-solve rows (default: %(default)s)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny repeat counts and the smallest corpus entry (CI)",
    )
    parser.add_argument(
        "--solve-repeats", type=int, default=2, metavar="N",
        help="isolated subprocess runs per solve config, min kept "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    entries = [n.strip() for n in args.entries.split(",") if n.strip()]
    kwargs: Dict[str, Any] = {"solve_repeats": args.solve_repeats}
    if args.smoke:
        kwargs = {"cold_repeat": 3, "warm_budget_s": 0.02, "solve_repeats": 1}
        entries = ["freetts"]
    data = run_kernel_bench(backends=backends, entries=entries, **kwargs)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifact = out / "BENCH_kernel.json"
    artifact.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {artifact}")
    for op, regimes in data["microbench"].items():
        for regime, cell in regimes.items():
            print(f"  {op:<14} {regime:<5} {cell}")
    for name, cell in data["solves"].items():
        print(f"  solve {name}: {cell}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
