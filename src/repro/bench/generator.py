"""Synthetic workload generator.

The paper's 21 Sourceforge applications are unavailable (and a pure-Python
BDD is far slower per operation than BuDDy), so the corpus is generated:
programs with the structural features that drive the paper's results —

* **layered call diamonds** — every layer multiplies the number of reduced
  call paths, yielding the exponential context counts of Figure 3 (the
  largest corpus members exceed 10^12 paths),
* **virtual dispatch** over a generated class hierarchy with interfaces
  and overrides (what call-graph discovery prunes, Section 3),
* **recursive cliques** — strongly connected components that Algorithm 4
  collapses,
* **shared utility chains** — the `pmd` phenomenon: "many machine-
  generated methods call the same class library routines, leading to a
  particularly egregious exponential blowup",
* **container traffic** through the modeled library (the classic
  motivation for context sensitivity),
* **threads and synchronization** for the escape analysis of Figure 5,
* **over-declared variables** so type refinement (Figure 6) has work to do.

Generation is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..ir.builder import MethodBuilder, ProgramBuilder
from ..ir.program import Program

__all__ = ["WorkloadParams", "generate_program"]


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs for one synthetic application."""

    seed: int = 0
    layers: int = 6              # call-graph depth (diamond layers)
    width: int = 2               # methods per layer
    fanout: int = 2              # calls from each method into the next layer
    hierarchy_groups: int = 1    # independent class hierarchies
    subclasses: int = 2          # concrete subclasses per hierarchy
    recursion_cliques: int = 1   # mutually recursive method pairs
    threads: int = 1             # thread classes (0 = single-threaded)
    allocs_per_method: int = 1
    shared_chain: int = 0        # length of a pmd-style shared utility chain
    use_library: bool = True
    casts: bool = True
    use_exceptions: bool = False  # layer methods may throw through the stack
    use_statics: bool = False     # per-layer static caches (global traffic)
    use_clinit: bool = False      # a class initializer entry point


def generate_program(params: WorkloadParams) -> Program:
    """Build a closed, validated program from ``params``."""
    rng = random.Random(params.seed)
    b = ProgramBuilder()
    if params.use_library:
        from ..ir.frontend import parse_classes
        from ..ir.library import LIBRARY_SOURCE

        for decl in parse_classes(LIBRARY_SOURCE):
            b.program.add_class(decl)

    # ------------------------------------------------------------------
    # Class hierarchies with virtual dispatch.
    # ------------------------------------------------------------------
    hierarchy_classes: List[List[str]] = []
    for g in range(params.hierarchy_groups):
        iface = b.new_interface(f"IWork{g}")
        base = b.new_class(f"Base{g}", implements=[f"IWork{g}"])
        b.abstract_method(iface, "work", params=[("x", "Object")], returns="Object")
        base_m = b.method(base, "work", params=[("x", "Object")], returns="Object")
        base_m.new("r", "Object").ret("r")
        names = [f"Base{g}"]
        for s in range(params.subclasses):
            cls = b.new_class(f"Impl{g}x{s}", extends=f"Base{g}")
            m = b.method(cls, "work", params=[("x", "Object")], returns="Object")
            m.new("r", f"Impl{g}x{s}")  # each override returns its own type
            if s % 2 == 0:
                m.ret("r")
            else:
                m.ret("x")  # flows the argument through
            names.append(f"Impl{g}x{s}")
        hierarchy_classes.append(names)

    # A Box class carried through the layers (field traffic).
    box = b.new_class("DataBox")
    b.field(box, "payload", "Object")
    b.field(box, "link", "DataBox")
    b.field(box, "special", "Object")  # typed thread payloads land here

    if params.use_exceptions:
        b.new_class("WorkError")
    if params.use_statics or params.use_clinit:
        registry = b.new_class("Registry")
        b.field(registry, "cache", "Object", static=True)
        if params.use_clinit:
            clinit = b.static_method(registry, "clinit")
            clinit.new("seed", "Object")
            clinit.static_store("Registry", "cache", "seed")

    # ------------------------------------------------------------------
    # Shared utility chain (the pmd phenomenon).
    # ------------------------------------------------------------------
    util = b.new_class("Util")
    # A shared identity helper: every layer method funnels a typed object
    # through it, so a context-insensitive analysis conflates the types of
    # all callers while the cloned analysis keeps them apart (the Figure 6
    # precision gap).
    ident = b.static_method(util, "id", params=[("o", "Object")], returns="Object")
    ident.ret("o")
    for k in range(params.shared_chain):
        m = b.static_method(
            util, f"step{k}", params=[("b", "DataBox")], returns="Object"
        )
        if k + 1 < params.shared_chain:
            m.invoke_static("Util", f"step{k + 1}", ["b"], dst="r")
        else:
            m.load("r", "b", "payload")
        m.ret("r")

    # ------------------------------------------------------------------
    # Layered worker methods.
    # ------------------------------------------------------------------
    layer_cls = b.new_class("Layers")
    method_names: List[List[str]] = []
    for layer in range(params.layers):
        row = []
        for j in range(params.width):
            row.append(f"m{layer}x{j}")
        method_names.append(row)

    for layer in range(params.layers - 1, -1, -1):
        for j, name in enumerate(method_names[layer]):
            m = b.static_method(
                layer_cls, name, params=[("b", "DataBox")], returns="Object"
            )
            for a in range(params.allocs_per_method):
                m.new(f"o{a}", "Object")
            m.store("b", "payload", "o0")
            # Calls into the next layer: the diamond structure.
            if layer + 1 < params.layers:
                targets = [
                    method_names[layer + 1][rng.randrange(params.width)]
                    for _ in range(params.fanout)
                ]
                for t_idx, target in enumerate(targets):
                    m.invoke_static("Layers", target, ["b"], dst=f"c{t_idx}")
            # Virtual dispatch through a hierarchy.
            if hierarchy_classes:
                group = rng.randrange(len(hierarchy_classes))
                concrete = hierarchy_classes[group][
                    rng.randrange(len(hierarchy_classes[group]))
                ]
                m.local("w", f"Base{group}")
                m.new("w", concrete)
                m.invoke("w", "work", ["o0"], dst="v")
                # Funnel through the shared helper: CI conflates `held`
                # with every other caller's type, CS does not.
                m.local("held", f"Base{group}")
                m.invoke_static("Util", "id", ["w"], dst="anon")
                m.cast("held", f"Base{group}", "anon")
                if params.casts:
                    # Down-cast the conflated helper result: with type
                    # filtering `narrow` holds one type, without it the
                    # whole conflated set leaks through (Figure 6's
                    # no-filter column).
                    m.local("narrow", concrete)
                    m.cast("narrow", concrete, "anon")
            # pmd-style shared chain entry.
            if params.shared_chain:
                m.invoke_static("Util", "step0", ["b"], dst="u")
            if layer % 4 == 0:
                # Field-sensitive pointer analysis sees nothing here (no
                # DataBox reaching `b` has `special` set); the field-based
                # type analysis (rule 22/23) reports the thread payloads.
                m.load("spec", "b", "special")
            if params.use_exceptions and layer % 3 == 0:
                m.begin_if()
                m.new("err", "WorkError")
                m.throw("err")
                m.end_if()
            if params.use_statics and layer % 2 == 0:
                m.static_store("Registry", "cache", "o0")
                m.static_load("cached", "Registry", "cache")
            m.load("got", "b", "payload")
            m.ret("got")

    # ------------------------------------------------------------------
    # Recursive cliques.
    # ------------------------------------------------------------------
    rec_cls = b.new_class("Recursion")
    for k in range(params.recursion_cliques):
        ping = b.static_method(
            rec_cls, f"ping{k}", params=[("b", "DataBox")], returns="Object"
        )
        ping.new("o", "Object")
        ping.begin_if().ret("o").end_if()
        ping.invoke_static("Recursion", f"pong{k}", ["b"], dst="r")
        ping.ret("r")
        pong = b.static_method(
            rec_cls, f"pong{k}", params=[("b", "DataBox")], returns="Object"
        )
        pong.begin_if()
        pong.invoke_static("Recursion", f"ping{k}", ["b"], dst="r")
        pong.ret("r")
        pong.end_if()
        pong.load("p", "b", "payload")
        pong.ret("p")

    # ------------------------------------------------------------------
    # Threads.
    # ------------------------------------------------------------------
    shared_holder = b.new_class("SharedState")
    b.field(shared_holder, "channel", "Object", static=True)
    for t in range(params.threads):
        worker = b.new_class(f"Worker{t}", extends="Thread")
        run = b.method(worker, "run")
        # Typed payload: the field-merging type analysis (rule 22/23)
        # smears it across every DataBox, the pointer analysis does not.
        group0 = hierarchy_classes[0] if hierarchy_classes else ["Object"]
        mine_cls = group0[1 + t % max(1, len(group0) - 1)] if len(group0) > 1 else group0[0]
        run.new("mine", mine_cls)
        run.new("box", "DataBox")       # private: typed payload stays here
        run.store("box", "special", "mine")
        run.static_load("seen", "SharedState", "channel")
        run.sync("seen")
        run.sync("mine")
        if method_names:
            run.new("workbox", "DataBox")
            run.new("plain", "Object")
            run.store("workbox", "payload", "plain")
            run.invoke_static("Layers", method_names[0][0], ["workbox"], dst="x")

    # ------------------------------------------------------------------
    # Main: drives the top layer, the cliques, the library, the threads.
    # ------------------------------------------------------------------
    main_cls = b.new_class("Main")
    main = b.static_method(main_cls, "main")
    main.new("box", "DataBox")
    main.new("seed", "Object")
    main.store("box", "payload", "seed")
    for name in method_names[0]:
        main.invoke_static("Layers", name, ["box"], dst=f"r_{name}")
    for k in range(params.recursion_cliques):
        main.invoke_static("Recursion", f"ping{k}", ["box"], dst=f"rec{k}")
    if params.use_library:
        main.new("list", "ArrayList")
        main.new("elem", "Object")
        main.invoke("list", "add", ["elem"])
        main.invoke("list", "get", dst="fetched")
        main.new("key", "String")
        main.invoke("key", "toCharArray", dst="chars")
        main.new("spec", "PBEKeySpec")
        main.invoke("spec", "init", ["chars"])
        main.local("general", "Object")
        main.new("general", "String")  # over-declared: refinable
    main.new("published", "Object")
    main.static_store("SharedState", "channel", "published")
    main.sync("published")
    for t in range(params.threads):
        main.new(f"w{t}", f"Worker{t}")
        main.invoke(f"w{t}", "start")
    return b.build(main="Main")
