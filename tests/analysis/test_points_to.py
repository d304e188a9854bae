"""End-to-end tests for Algorithms 1, 2, 3 and 5 on small programs with
known exact answers."""

import pytest

from repro.ir import parse_program, extract_facts
from repro.callgraph import cha_call_graph
from repro.analysis import (
    ContextInsensitiveAnalysis,
    ContextSensitiveAnalysis,
)


CONFLATION = """
class Box {
    field item : Object;
}
class Helper {
    static method put(b : Box, o : Object) {
        b.item = o;
    }
    static method get(b : Box) returns Object {
        r = b.item;
        return r;
    }
}
class Main {
    static method main() {
        b1 = new Box;
        b2 = new Box;
        o1 = new Object;
        o2 = new Object;
        Helper.put(b1, o1);
        Helper.put(b2, o2);
        x1 = Helper.get(b1);
        x2 = Helper.get(b2);
    }
}
"""


@pytest.fixture(scope="module")
def conflation_program():
    return parse_program(CONFLATION, include_library=False)


@pytest.fixture(scope="module")
def ci_result(conflation_program):
    return ContextInsensitiveAnalysis(program=conflation_program).run()

@pytest.fixture(scope="module")
def cs_result(conflation_program):
    return ContextSensitiveAnalysis(program=conflation_program).run()


class TestBasicPointsTo:
    def test_allocation_flows_to_variable(self, ci_result):
        assert ci_result.points_to("Main.main", "b1") == {"Main.main@0:new Box"}
        assert ci_result.points_to("Main.main", "b2") == {"Main.main@1:new Box"}

    def test_parameter_passing(self, ci_result):
        got = ci_result.points_to("Helper.put", "o")
        assert got == {"Main.main@2:new Object", "Main.main@3:new Object"}

    def test_heap_points_to(self, ci_result):
        facts = ci_result.facts
        item = facts.id_of("F", "Box.item")
        hp = ci_result.relation_tuples("hP")
        box1 = facts.id_of("H", "Main.main@0:new Box")
        o1 = facts.id_of("H", "Main.main@2:new Object")
        assert (box1, item, o1) in hp

    def test_ci_conflates_contexts(self, ci_result):
        both = {"Main.main@2:new Object", "Main.main@3:new Object"}
        assert ci_result.points_to("Main.main", "x1") == both
        assert ci_result.points_to("Main.main", "x2") == both

    def test_cs_distinguishes_contexts(self, cs_result):
        assert cs_result.points_to("Main.main", "x1") == {"Main.main@2:new Object"}
        assert cs_result.points_to("Main.main", "x2") == {"Main.main@3:new Object"}

    def test_cs_context_counts(self, cs_result):
        assert cs_result.num_contexts("Main.main") == 1
        # put and get are each called twice from distinct sites.
        assert cs_result.num_contexts("Helper.put") == 2
        assert cs_result.num_contexts("Helper.get") == 2

    def test_points_to_in_context(self, cs_result):
        per_ctx = [
            cs_result.points_to_in_context("Helper.get", "r", c) for c in (1, 2)
        ]
        assert {"Main.main@2:new Object"} in per_ctx
        assert {"Main.main@3:new Object"} in per_ctx

    def test_cs_projection_subset_of_ci(self, ci_result, cs_result):
        """Soundness + precision: the projected CS result never contains a
        points-to pair the CI result lacks."""
        ci_vp = ci_result.relation_tuples("vP")
        cs_vp = set(cs_result.vPC.project("variable", "heap").tuples())
        assert cs_vp <= ci_vp

    def test_may_alias(self, ci_result):
        assert ci_result.may_alias("Main.main", "x1", "Main.main", "x2")
        assert not ci_result.may_alias("Main.main", "b1", "Main.main", "b2")


TYPED = """
class Animal { }
class Dog extends Animal { }
class Cat extends Animal { }
class Main {
    static method pick(a : Animal, b : Animal) returns Animal {
        if (*) { return a; } else { return b; }
    }
    static method main() {
        var d : Dog;
        var c : Cat;
        var dogOnly : Dog;
        d = new Dog;
        c = new Cat;
        any = Main.pick(d, c);
        dogOnly = (Dog) any;
    }
}
"""


class TestTypeFiltering:
    def test_filter_removes_impossible_targets(self):
        prog = parse_program(TYPED, include_library=False)
        with_filter = ContextInsensitiveAnalysis(program=prog).run()
        # dogOnly is declared Dog; the cast filters out the Cat object.
        got = with_filter.points_to("Main.main", "dogOnly")
        assert got == {"Main.main@0:new Dog"}

    def test_algorithm1_keeps_impossible_targets(self):
        prog = parse_program(TYPED, include_library=False)
        no_filter = ContextInsensitiveAnalysis(
            program=prog, type_filtering=False, discover_call_graph=False
        ).run()
        got = no_filter.points_to("Main.main", "dogOnly")
        assert got == {"Main.main@0:new Dog", "Main.main@1:new Cat"}

    def test_filter_strictly_more_precise(self):
        prog = parse_program(TYPED, include_library=False)
        facts = extract_facts(prog)
        a1 = ContextInsensitiveAnalysis(
            facts=facts, type_filtering=False, discover_call_graph=False
        ).run()
        a2 = ContextInsensitiveAnalysis(
            facts=facts, type_filtering=True, discover_call_graph=False
        ).run()
        assert a2.relation_tuples("vP") <= a1.relation_tuples("vP")


VIRTUAL = """
class Animal {
    method noise() returns Object {
        o = new Object;
        return o;
    }
}
class Dog extends Animal {
    method noise() returns Object {
        bark = new Object;
        return bark;
    }
}
class Cat extends Animal {
    method noise() returns Object {
        meow = new Object;
        return meow;
    }
}
class Main {
    static method main() {
        var a : Animal;
        a = new Dog;
        n = a.noise();
    }
}
"""


class TestCallGraphDiscovery:
    def test_cha_includes_all_subtypes(self):
        prog = parse_program(VIRTUAL, include_library=False)
        facts = extract_facts(prog)
        graph = cha_call_graph(facts)
        noise_site = [
            i for i, m in facts.site_method.items()
            if i >= len(facts.maps["H"]) and m == facts.method_id("Main.main")
        ][0]
        targets = {facts.maps["M"][t] for t in graph.call_targets(noise_site)}
        # CHA: declared type Animal -> all three implementations.
        assert targets == {"Animal.noise", "Dog.noise", "Cat.noise"}

    def test_discovery_narrows_to_actual_type(self):
        prog = parse_program(VIRTUAL, include_library=False)
        result = ContextInsensitiveAnalysis(program=prog).run()
        targets = result.call_targets("Main.main", 0)
        assert targets == {"Dog.noise"}

    def test_discovered_points_to_more_precise(self):
        prog = parse_program(VIRTUAL, include_library=False)
        facts = extract_facts(prog)
        onfly = ContextInsensitiveAnalysis(facts=facts).run()
        cha = ContextInsensitiveAnalysis(
            facts=facts, discover_call_graph=False
        ).run()
        assert onfly.relation_tuples("vP") <= cha.relation_tuples("vP")
        # Only the Dog bark flows through the virtual call.
        assert onfly.points_to("Main.main", "n") == {"Dog.noise@0:new Object"}

    def test_discovery_iterations_counted(self):
        prog = parse_program(VIRTUAL, include_library=False)
        result = ContextInsensitiveAnalysis(program=prog).run()
        assert result.iterations >= 2


RECURSIVE = """
class Node {
    field next : Node;
    field payload : Object;
}
class Builder {
    static method chain(n : Node, depth : Object) returns Node {
        m = new Node;
        n.next = m;
        if (*) { return m; }
        r = Builder.chain(m, depth);
        return r;
    }
}
class Main {
    static method main() {
        root = new Node;
        p = new Object;
        root.payload = p;
        last = Builder.chain(root, p);
    }
}
"""


class TestRecursion:
    def test_recursive_program_converges(self):
        prog = parse_program(RECURSIVE, include_library=False)
        result = ContextInsensitiveAnalysis(program=prog).run()
        got = result.points_to("Builder.chain", "m")
        assert got == {"Builder.chain@0:new Node"}

    def test_recursive_cs_single_context_for_scc(self):
        prog = parse_program(RECURSIVE, include_library=False)
        cs = ContextSensitiveAnalysis(program=prog).run()
        # Builder.chain is self-recursive: one SCC, one context per
        # entering path (only main calls it).
        assert cs.num_contexts("Builder.chain") == 1
        assert cs.points_to("Main.main", "last") == {"Builder.chain@0:new Node"}


class TestInfrastructure:
    def test_run_analysis_facade(self, conflation_program):
        import repro

        result = repro.analyze(conflation_program)
        assert result.points_to("Main.main", "b1") == {"Main.main@0:new Box"}
        cs = repro.analyze(conflation_program, context_sensitive=True)
        assert cs.points_to("Main.main", "x1") == {"Main.main@2:new Object"}

    def test_naive_mode_same_result(self, conflation_program):
        facts = extract_facts(conflation_program)
        naive = ContextInsensitiveAnalysis(facts=facts).run()
        semi = ContextInsensitiveAnalysis(facts=facts, seminaive=True).run()
        assert naive.relation_tuples("vP") == semi.relation_tuples("vP")

    def test_cs_with_cha_graph(self, conflation_program):
        facts = extract_facts(conflation_program)
        cs = ContextSensitiveAnalysis(
            facts=facts, call_graph=cha_call_graph(facts)
        ).run()
        assert cs.points_to("Main.main", "x1") == {"Main.main@2:new Object"}

    def test_context_cap_still_sound(self, conflation_program):
        capped = ContextSensitiveAnalysis(
            program=conflation_program, truncate_cap=1
        ).run_rung("truncated")
        # With all contexts merged the result degrades toward CI but must
        # remain sound (x1 sees at least its own object).
        assert "Main.main@2:new Object" in capped.points_to("Main.main", "x1")

    def test_stats_exposed(self, cs_result):
        assert cs_result.peak_nodes > 0
        assert cs_result.peak_bytes == cs_result.peak_nodes * 16
        assert cs_result.seconds > 0
        assert cs_result.max_paths() >= 1

    def test_contexts_of_fact(self, cs_result):
        ctxs = cs_result.contexts_of_fact(
            "Helper.get", "r", "Main.main@2:new Object"
        )
        assert len(ctxs) == 1
