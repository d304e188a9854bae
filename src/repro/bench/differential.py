"""Differential testing of BddKernel backends (the pluggable-kernel proof).

Every registered backend must be *observationally identical*: same
relations, same tuple counts, same canonical BDD serialization, and —
because the ``.ptdb`` pipeline is backend-agnostic — the same ``db_id``
for a compiled database.  This module runs corpus entries through the
paper's Algorithms 1–7 (context-insensitive variants, context-sensitive
pointer and type analyses, thread-escape) under each backend and
compares structural fingerprints, not just scalar summaries.

The same machinery covers the plan optimizer: a *config* is
``backend[+opt|+noopt]``, and the default matrix crosses both backends
with the optimizer on and off.  The optimizer only rewrites evaluation
plans — never domain encodings or variable orders — so every config must
fingerprint bit-identically.

Usage::

    python -m repro.bench.differential --entries gruntspud --out results
    python -m repro.bench.differential --configs reference+opt,reference+noopt

Exit code 0 means every fingerprint matched; 1 means a divergence was
found (the JSON artifact then pins down which algorithm/relation).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    ContextInsensitiveAnalysis,
    ContextSensitiveAnalysis,
    ContextSensitiveTypeAnalysis,
    ThreadEscapeAnalysis,
)
from ..bdd.serialize import dump_bdd_lines
from ..callgraph import cha_call_graph
from ..ir.facts import extract_facts
from .corpus import corpus_entry, corpus_names

__all__ = [
    "relation_fingerprint",
    "backend_fingerprint",
    "parse_config",
    "differential_entry",
    "run_differential",
    "main",
]

#: Default comparison matrix: both backends crossed with the plan
#: optimizer on and off.  All four must be bit-identical — the optimized
#: configs additionally exercise the fused superops (``rel_prod_replace``
#: / ``and_exist``).
DEFAULT_CONFIGS = (
    "reference+opt",
    "reference+noopt",
    "packed+opt",
    "packed+noopt",
)


def parse_config(config: str) -> Tuple[str, Optional[bool]]:
    """``backend[+opt|+noopt]`` -> (backend, optimize)."""
    backend, _, suffix = config.partition("+")
    if suffix == "opt":
        return backend, True
    if suffix == "noopt":
        return backend, False
    if suffix:
        raise ValueError(
            f"bad config {config!r}: expected backend, backend+opt "
            f"or backend+noopt"
        )
    return backend, None

#: Relations fingerprinted per algorithm (output relations that exist in
#: every corpus entry's solve).
_ALG_RELATIONS = {
    "alg1": ("vP", "hP"),
    "alg2": ("vP", "hP"),
    "alg3": ("vP", "hP", "IE"),
    "alg5": ("vPC", "hP"),
    "alg6": ("vTC", "fT"),
    "alg7": ("vP",),
}


def relation_fingerprint(solver, name: str) -> Dict[str, Any]:
    """Structural identity of one solved relation.

    The digest hashes the *canonical* serialization (node ids renumbered
    in emission order), so it depends only on the BDD structure under the
    solver's variable order — never on backend handle values.
    """
    rel = solver.relation(name)
    lines, nodes = dump_bdd_lines(solver.manager, [rel.node])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    return {"count": rel.count(), "nodes": nodes, "digest": digest}


def _fingerprint(result, alg: str) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in _ALG_RELATIONS[alg]:
        if name in result.solver.relations:
            out[name] = relation_fingerprint(result.solver, name)
    return out


def backend_fingerprint(
    name: str, backend: str, optimize: Optional[bool] = None
) -> Dict[str, Any]:
    """Run Algorithms 1-7 (and the database compile) on one corpus entry
    under one backend and optimizer setting; return every structural
    fingerprint."""
    from ..serve.database import compile_database

    entry = corpus_entry(name)
    facts = extract_facts(entry.build())
    cha = cha_call_graph(facts)
    out: Dict[str, Any] = {"backend": backend, "optimize": optimize}
    t0 = time.monotonic()

    alg1 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=False, discover_call_graph=False,
        call_graph=cha, backend=backend, optimize=optimize,
    ).run()
    out["alg1"] = _fingerprint(alg1, "alg1")
    del alg1

    alg2 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=True, discover_call_graph=False,
        call_graph=cha, backend=backend, optimize=optimize,
    ).run()
    out["alg2"] = _fingerprint(alg2, "alg2")
    del alg2, cha

    alg3 = ContextInsensitiveAnalysis(
        facts=facts, type_filtering=True, discover_call_graph=True,
        backend=backend, optimize=optimize,
    ).run()
    out["alg3"] = _fingerprint(alg3, "alg3")
    graph = alg3.discovered_call_graph
    del alg3

    alg5 = ContextSensitiveAnalysis(
        facts=facts, call_graph=graph, backend=backend, optimize=optimize,
    ).run()
    out["alg5"] = _fingerprint(alg5, "alg5")
    # Algorithm 4 is the context numbering itself; its observable is the
    # path count the numbering assigns.
    out["alg4"] = {"paths": alg5.max_paths()}
    del alg5

    alg6 = ContextSensitiveTypeAnalysis(
        facts=facts, call_graph=graph, backend=backend, optimize=optimize,
    ).run()
    out["alg6"] = _fingerprint(alg6, "alg6")
    del alg6

    alg7 = ThreadEscapeAnalysis(
        facts=facts, call_graph=graph, backend=backend, optimize=optimize,
    ).run()
    out["alg7"] = {
        "summary": alg7.summary(),
        "escaped": sorted(alg7.escaped_heaps()),
        "captured": sorted(alg7.captured_heaps()),
    }
    del alg7

    db = compile_database(facts=facts, backend=backend, optimize=optimize)
    out["db_id"] = db.db_id
    out["db_backend"] = db.meta["backend"]
    del db

    out["seconds"] = round(time.monotonic() - t0, 3)
    return out


def _strip_volatile(fp: Dict[str, Any]) -> Dict[str, Any]:
    return {
        k: v
        for k, v in fp.items()
        if k not in ("backend", "optimize", "db_backend", "seconds")
    }


def differential_entry(
    name: str, configs: Sequence[str] = DEFAULT_CONFIGS
) -> Dict[str, Any]:
    """Compare every config's fingerprints for one corpus entry."""
    fps = {
        cfg: backend_fingerprint(name, *parse_config(cfg)) for cfg in configs
    }
    base = _strip_volatile(fps[configs[0]])
    mismatches: List[str] = []
    detail: Dict[str, Any] = {}
    for cfg in configs[1:]:
        other = _strip_volatile(fps[cfg])
        for key in sorted(set(base) | set(other)):
            if base.get(key) != other.get(key):
                mismatches.append(f"{cfg}:{key}")
                # Pin the divergence down to the relation and field so
                # the artifact alone identifies the failing kernel path.
                detail[f"{cfg}:{key}"] = _divergence_detail(
                    base.get(key), other.get(key)
                )
    record = {
        "name": name,
        "backends": fps,
        "identical": not mismatches,
        "mismatches": mismatches,
    }
    if detail:
        record["divergence_detail"] = detail
    return record


def _divergence_detail(base: Any, other: Any) -> Any:
    """The smallest differing sub-structure of two fingerprint values.

    For per-algorithm relation maps this descends to the relation and
    then the field (``count`` / ``nodes`` / ``digest``) that diverged,
    reporting baseline vs. got side by side."""
    if isinstance(base, dict) and isinstance(other, dict):
        out = {}
        for key in sorted(set(base) | set(other)):
            if base.get(key) != other.get(key):
                out[key] = _divergence_detail(base.get(key), other.get(key))
        return out
    return {"baseline": base, "got": other}


def run_differential(
    names: Optional[Sequence[str]] = None,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    verbose: bool = True,
) -> Tuple[List[Dict[str, Any]], bool]:
    """Differential-test the given corpus entries; returns
    ``(records, all_identical)``."""
    if names is None:
        names = corpus_names(small=True)
    records = []
    ok = True
    for name in names:
        record = differential_entry(name, configs)
        records.append(record)
        ok = ok and record["identical"]
        if verbose:
            verdict = "identical" if record["identical"] else (
                "DIVERGED: " + ", ".join(record["mismatches"])
            )
            times = " ".join(
                f"{cfg}={fp['seconds']}s"
                for cfg, fp in record["backends"].items()
            )
            print(f"  [{name}: {verdict} ({times})]", flush=True)
    return records, ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--entries", metavar="NAME,NAME",
        help="corpus entries (default: the small subset)",
    )
    parser.add_argument(
        "--configs", default=",".join(DEFAULT_CONFIGS), metavar="A,B",
        help="configs (backend[+opt|+noopt]) to compare "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--backends", metavar="A,B",
        help="shorthand: backends to compare with default optimizer "
        "settings (overrides --configs)",
    )
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args(argv)
    names = None
    if args.entries:
        names = [n.strip() for n in args.entries.split(",") if n.strip()]
    if args.backends:
        configs = [b.strip() for b in args.backends.split(",") if b.strip()]
    else:
        configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    for cfg in configs:
        parse_config(cfg)  # validate before solving anything
    print(f"Differential: configs {configs}", flush=True)
    records, ok = run_differential(names=names, configs=configs)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifact = out / "DIFFERENTIAL.json"
    artifact.write_text(
        json.dumps(
            {"backends": configs, "entries": records, "identical": ok},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {artifact}")
    print("all backends identical" if ok else "DIVERGENCE FOUND")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
