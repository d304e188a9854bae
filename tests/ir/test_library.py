"""Tests analyzing programs against the modeled class library."""

import pytest

from repro.analysis import ContextInsensitiveAnalysis, ContextSensitiveAnalysis
from repro.ir import extract_facts, parse_program
from repro.ir.types import TypeHierarchy


def analyze_ci(source):
    return ContextInsensitiveAnalysis(program=parse_program(source)).run()


class TestContainers:
    def test_arraylist_roundtrip(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        list = new ArrayList;
        o = new Object;
        list.add(o);
        got = list.get();
    }
}
"""
        )
        assert "Main.main@1:new Object" in result.points_to("Main.main", "got")

    def test_two_lists_conflated_ci_separated_cs(self):
        source = """
class Main {
    static method main() {
        l1 = new ArrayList;
        l2 = new ArrayList;
        a = new Object;
        b = new Object;
        l1.add(a);
        l2.add(b);
        x = l1.get();
        y = l2.get();
    }
}
"""
        prog = parse_program(source)
        facts = extract_facts(prog)
        ci = ContextInsensitiveAnalysis(facts=facts).run()
        # CI: the shared ArrayList.add/get conflate both lists' contents.
        assert len(ci.points_to("Main.main", "x")) == 2
        cs = ContextSensitiveAnalysis(
            facts=facts, call_graph=ci.discovered_call_graph
        ).run()
        # CS: each list's element stays separate (field-sensitivity plus
        # per-context `this` binding).
        assert cs.points_to("Main.main", "x") == {"Main.main@2:new Object"}
        assert cs.points_to("Main.main", "y") == {"Main.main@3:new Object"}

    def test_linked_list_push_pop(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        list = new LinkedList;
        o = new Object;
        list.push(o);
        got = list.pop();
    }
}
"""
        )
        assert "Main.main@1:new Object" in result.points_to("Main.main", "got")

    def test_stack_delegates_to_linked_list(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        s = new Stack;
        backing = new LinkedList;
        s.items = backing;
        o = new Object;
        s.push(o);
        got = s.pop();
    }
}
"""
        )
        assert "Main.main@3:new Object" in result.points_to("Main.main", "got")

    def test_hashmap(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        m = new HashMap;
        k = new Object;
        v = new Object;
        m.put(k, v);
        got = m.get(k);
    }
}
"""
        )
        assert "Main.main@2:new Object" in result.points_to("Main.main", "got")

    def test_iterator_reads_backing_list(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        list = new ArrayList;
        o = new Object;
        list.add(o);
        it = list.iterator();
        got = it.next();
    }
}
"""
        )
        assert "Main.main@1:new Object" in result.points_to("Main.main", "got")


class TestStringsAndJCE:
    def test_string_methods_return_strings(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        s = new String;
        t = s.concat(s);
        u = t.substring();
        i = u.intern();
    }
}
"""
        )
        for var in ("t", "u", "i"):
            got = result.points_to("Main.main", var)
            assert got, f"{var} empty"
            # Everything a String method returns is (transitively) a String.
            assert all("String" in h or "new String" in h for h in got)

    def test_stringbuilder_fluent_this(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        sb = new StringBuilder;
        o = new Object;
        sb2 = sb.append(o);
        s = sb2.build();
    }
}
"""
        )
        assert result.points_to("Main.main", "sb2") == {
            "Main.main@0:new StringBuilder"
        }

    def test_secret_key_pipeline(self):
        result = analyze_ci(
            """
class Main {
    static method main() {
        chars = new CharArray;
        spec = new PBEKeySpec;
        spec.init(chars);
        factory = new SecretKeyFactory;
        key = factory.generateSecret(spec);
        cipher = new Cipher;
        cipher.initKey(key);
    }
}
"""
        )
        got = result.points_to("Main.main", "key")
        assert len(got) == 1 and "new SecretKey" in next(iter(got))

    def test_exception_classes_in_hierarchy(self):
        prog = parse_program(
            "class Main { static method main() { e = new RuntimeException; } }"
        )
        assert TypeHierarchy(prog).is_assignable("Exception", "RuntimeException")
