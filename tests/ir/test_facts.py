"""Tests for fact extraction (the Joeq-replacement layer)."""

import pytest

from repro.ir import GLOBAL, NULL_NAME, extract_facts, parse_program


def facts_for(source, **kwargs):
    return extract_facts(parse_program(source, include_library=False), **kwargs)


BASIC = """
class Box {
    field item : Object;
}
class Main {
    static method main() {
        b = new Box;
        o = new Object;
        b.item = o;
        x = b.item;
    }
}
"""


class TestDomains:
    def test_h_is_prefix_of_i(self):
        facts = facts_for(BASIC)
        h_names = facts.maps["H"]
        i_names = facts.maps["I"]
        assert i_names[: len(h_names)] == h_names

    def test_global_in_both_h_and_i(self):
        facts = facts_for(BASIC)
        assert GLOBAL in facts.maps["H"]
        assert facts.maps["I"][facts.global_site] == GLOBAL

    def test_sizes_cover_maps(self):
        facts = facts_for(BASIC)
        for dom in "VHFTIMN":
            assert facts.sizes[dom] >= 1
        assert facts.sizes["Z"] >= 1

    def test_type_domain_contains_all_classes(self):
        facts = facts_for(BASIC)
        for cls in ("Object", "Thread", "Box", "Main"):
            assert cls in facts.maps["T"]

    def test_null_name_present(self):
        facts = facts_for(BASIC)
        assert NULL_NAME in facts.maps["N"]


class TestCoreRelations:
    def test_vp0_from_allocations(self):
        facts = facts_for(BASIC)
        b = facts.var_id("Main.main", "b")
        o = facts.var_id("Main.main", "o")
        heaps = {v: h for v, h in facts.relations["vP0"]}
        assert "new Box" in facts.name_of("H", heaps[b])
        assert "new Object" in facts.name_of("H", heaps[o])

    def test_store_load(self):
        facts = facts_for(BASIC)
        b = facts.var_id("Main.main", "b")
        o = facts.var_id("Main.main", "o")
        x = facts.var_id("Main.main", "x")
        item = facts.id_of("F", "Box.item")
        assert (b, item, o) in facts.relations["store"]
        assert (b, item, x) in facts.relations["load"]

    def test_ht_types(self):
        facts = facts_for(BASIC)
        box_t = facts.id_of("T", "Box")
        box_sites = [
            h for h, name in enumerate(facts.maps["H"])
            if name.endswith(":new Box")
        ]
        assert box_sites
        for h in box_sites:
            assert (h, box_t) in facts.relations["hT"]

    def test_at_reflexive_and_transitive(self):
        facts = facts_for(BASIC)
        t_obj = facts.id_of("T", "Object")
        t_box = facts.id_of("T", "Box")
        at = set(facts.relations["aT"])
        assert (t_box, t_box) in at
        assert (t_obj, t_box) in at
        assert (t_box, t_obj) not in at

    def test_field_resolution_through_superclass(self):
        facts = facts_for(
            """
class Base {
    field f : Object;
}
class Derived extends Base {
}
class Main {
    static method main() {
        d = new Derived;
        o = new Object;
        d.f = o;
    }
}
"""
        )
        assert "Base.f" in facts.maps["F"]

    def test_statics_through_global(self):
        facts = facts_for(
            """
class Main {
    static field cache : Object;
    static method main() {
        o = new Object;
        Main.cache = o;
        x = Main.cache;
    }
}
"""
        )
        g = facts.id_of("V", GLOBAL)
        f = facts.id_of("F", "Main.cache")
        o = facts.var_id("Main.main", "o")
        x = facts.var_id("Main.main", "x")
        assert (g, f, o) in facts.relations["store"]
        assert (g, f, x) in facts.relations["load"]
        # The global variable points to the global heap object initially.
        gh = facts.id_of("H", GLOBAL)
        assert (g, gh) in facts.relations["vP0"]


CALLS = """
class A {
    method id(x : Object) returns Object {
        return x;
    }
}
class B extends A {
    method id(x : Object) returns Object {
        y = new Object;
        return y;
    }
}
class Main {
    static method mk() returns A {
        a = new B;
        return a;
    }
    static method main() {
        var a : A;
        a = Main.mk();
        o = new Object;
        r = a.id(o);
    }
}
"""


class TestCallRelations:
    def test_actual_formal(self):
        facts = facts_for(CALLS)
        # Virtual call a.id(o): receiver at z=0, o at z=1.
        a = facts.var_id("Main.main", "a")
        o = facts.var_id("Main.main", "o")
        actuals = facts.relations["actual"]
        sites = {i for i, z, v in actuals if z == 0 and v == a}
        assert len(sites) == 1
        site = sites.pop()
        assert (site, 1, o) in actuals
        # Formals of A.id: this at 0, x at 1.
        m = facts.method_id("A.id")
        this_v = facts.var_id("A.id", "this")
        x_v = facts.var_id("A.id", "x")
        formals = facts.relations["formal"]
        assert (m, 0, this_v) in formals
        assert (m, 1, x_v) in formals

    def test_static_call_ie0_and_null_name(self):
        facts = facts_for(CALLS)
        mk = facts.method_id("Main.mk")
        ie0 = facts.relations["IE0"]
        assert any(m == mk for _, m in ie0)
        null_n = facts.id_of("N", NULL_NAME)
        static_sites = {i for i, m in ie0}
        for m_id, i, n in facts.relations["mI"]:
            if i in static_sites:
                assert n == null_n

    def test_virtual_site_has_name(self):
        facts = facts_for(CALLS)
        id_n = facts.id_of("N", "id")
        assert any(n == id_n for _, _, n in facts.relations["mI"])

    def test_returns(self):
        facts = facts_for(CALLS)
        m = facts.method_id("A.id")
        x = facts.var_id("A.id", "x")
        assert (m, x) in facts.relations["Mret"]
        r = facts.var_id("Main.main", "r")
        assert any(v == r for _, v in facts.relations["Iret"])

    def test_cha_includes_override(self):
        facts = facts_for(CALLS)
        cha = facts.relations["cha"]
        t_a, t_b = facts.id_of("T", "A"), facts.id_of("T", "B")
        n_id = facts.id_of("N", "id")
        m_a, m_b = facts.method_id("A.id"), facts.method_id("B.id")
        assert (t_a, n_id, m_a) in cha
        assert (t_b, n_id, m_b) in cha

    def test_site_method_map(self):
        facts = facts_for(CALLS)
        main_id = facts.method_id("Main.main")
        # Two invocation sites in main (the static and the virtual call).
        sites = [i for i, m in facts.site_method.items() if m == main_id]
        # main also has allocation sites (new Object).
        assert len(sites) >= 3


class TestFactoring:
    def test_copy_chain_factored(self):
        facts = facts_for(
            """
class Main {
    static method main() {
        a = new Object;
        b = a;
        c = b;
    }
}
"""
        )
        a = facts.var_id("Main.main", "a")
        assert facts.var_id("Main.main", "b") == a
        assert facts.var_id("Main.main", "c") == a
        assert facts.relations["assign0"] == []

    def test_multi_def_not_factored(self):
        facts = facts_for(
            """
class Main {
    static method main() {
        a = new Object;
        b = new Object;
        b = a;
    }
}
"""
        )
        a = facts.var_id("Main.main", "a")
        b = facts.var_id("Main.main", "b")
        assert a != b
        assert (b, a) in facts.relations["assign0"]

    def test_factoring_disabled(self):
        facts = facts_for(
            """
class Main {
    static method main() {
        a = new Object;
        b = a;
    }
}
""",
            factor_locals=False,
        )
        a = facts.var_id("Main.main", "a")
        b = facts.var_id("Main.main", "b")
        assert a != b
        assert (b, a) in facts.relations["assign0"]

    def test_different_types_not_factored(self):
        facts = facts_for(
            """
class Box { }
class Main {
    static method main() {
        var a : Box;
        var b : Object;
        a = new Box;
        b = a;
    }
}
"""
        )
        assert facts.var_id("Main.main", "a") != facts.var_id("Main.main", "b")

    def test_cast_edge_kept_with_type(self):
        facts = facts_for(
            """
class Box { }
class Main {
    static method main() {
        var o : Object;
        o = new Box;
        b = (Box) o;
    }
}
"""
        )
        o = facts.var_id("Main.main", "o")
        b = facts.var_id("Main.main", "b")
        assert (b, o) in facts.relations["assign0"]
        box_t = facts.id_of("T", "Box")
        assert (b, box_t) in facts.relations["vT"]


class TestMiscRelations:
    def test_sync(self):
        facts = facts_for(
            """
class Main {
    static method main() {
        o = new Object;
        sync o;
    }
}
"""
        )
        o = facts.var_id("Main.main", "o")
        assert (o,) in facts.relations["sync"]

    def test_mv_covers_locals(self):
        facts = facts_for(BASIC)
        m = facts.method_id("Main.main")
        vars_of_main = {v for mm, v in facts.relations["mV"] if mm == m}
        for name in ("b", "o", "x"):
            assert facts.var_id("Main.main", name) in vars_of_main

    def test_alloc_sites_per_method(self):
        facts = facts_for(BASIC)
        m = facts.method_id("Main.main")
        assert len(facts.alloc_sites[m]) == 2

    def test_thread_start_site_is_virtual_run_dispatch(self):
        facts = facts_for(
            """
class Worker extends Thread {
    method run() {
        o = new Object;
    }
}
class Main {
    static method main() {
        w = new Worker;
        w.start();
    }
}
"""
        )
        t_w = facts.id_of("T", "Worker")
        n_start = facts.id_of("N", "start")
        m_run = facts.method_id("Worker.run")
        assert (t_w, n_start, m_run) in facts.relations["cha"]
