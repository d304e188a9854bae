"""Tests for order-spec parsing and level assignment."""

import pytest

from repro.bdd import BDD, BDDError, Domain
from repro.bdd.domain import equality_relation
from repro.bdd.ordering import assign_levels, parse_order


class TestParseOrder:
    def test_single_group(self):
        assert parse_order("V0") == [["V0"]]

    def test_sequential_groups(self):
        assert parse_order("A_B_C") == [["A"], ["B"], ["C"]]

    def test_interleaved(self):
        assert parse_order("C0xC1_V0xV1xV2") == [["C0", "C1"], ["V0", "V1", "V2"]]

    def test_empty_group_rejected(self):
        with pytest.raises(BDDError):
            parse_order("A__B")


class TestAssignLevels:
    def test_sequential_layout(self):
        levels = assign_levels("A_B", {"A": 2, "B": 3})
        assert levels["A"] == [0, 1]
        assert levels["B"] == [2, 3, 4]

    def test_interleaved_layout(self):
        levels = assign_levels("AxB", {"A": 3, "B": 3})
        assert levels["A"] == [0, 2, 4]
        assert levels["B"] == [1, 3, 5]

    def test_interleaved_unequal_widths(self):
        levels = assign_levels("AxB", {"A": 2, "B": 4})
        # A's bits pair with B's first bits; B's tail follows.
        assert levels["A"] == [0, 2]
        assert levels["B"] == [1, 3, 4, 5]

    def test_levels_increase_within_domain(self):
        levels = assign_levels("AxBxC_D", {"A": 5, "B": 2, "C": 7, "D": 3})
        for name in "ABCD":
            assert levels[name] == sorted(levels[name])

    def test_total_level_count(self):
        bits = {"A": 5, "B": 2, "C": 7}
        levels = assign_levels("AxB_C", bits)
        all_levels = [lv for ls in levels.values() for lv in ls]
        assert sorted(all_levels) == list(range(sum(bits.values())))

    def test_mismatched_domains_rejected(self):
        with pytest.raises(BDDError):
            assign_levels("A_B", {"A": 2})
        with pytest.raises(BDDError):
            assign_levels("A", {"A": 2, "B": 1})

    def test_levels_feed_domains(self):
        bits = {"V0": 4, "V1": 4}
        levels = assign_levels("V0xV1", bits)
        mgr = BDD(num_vars=8)
        v0 = Domain(mgr, "V0", 16, levels["V0"])
        v1 = Domain(mgr, "V1", 16, levels["V1"])
        # Rename across interleaved equal-width domains hits the fast path
        # and preserves values.
        node = v0.eq_const(9)
        renamed = mgr.replace(node, v0.replace_map_to(v1))
        got = {v1.decode(b) for b in mgr.iter_assignments(renamed, v1.levels)}
        assert got == {9}


    def test_interleaving_beats_concatenation(self):
        """The paper's Section 2.4.2 example: equal-value pair relations are
        tiny when attribute bits are interleaved, large when concatenated."""

        def nodes(spec):
            levels = assign_levels(spec, {"A": 10, "B": 10})
            mgr = BDD(num_vars=20)
            a = Domain(mgr, "A", 1024, levels["A"])
            b = Domain(mgr, "B", 1024, levels["B"])
            equality_relation(a, b)
            return mgr.node_count()

        assert nodes("AxB") < nodes("A_B")
