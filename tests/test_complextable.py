"""Unit tests for the canonical complex table (DD weight interning)."""

import math

from repro.dd.complextable import ComplexTable


class TestLookup:
    def test_near_zero_collapses_to_exact_zero(self):
        t = ComplexTable()
        assert t.lookup(1e-14 + 1e-13j) == 0j
        assert t.lookup(0j) == 0j
        assert t.lookup(-0.0 - 0.0j) == 0j

    def test_identical_values_share_representative(self):
        t = ComplexTable()
        a = t.lookup(0.3 + 0.4j)
        b = t.lookup(0.3 + 0.4j)
        assert a is b

    def test_values_within_tolerance_collapse(self):
        t = ComplexTable()
        a = t.lookup(1 / math.sqrt(2))
        b = t.lookup(1 / math.sqrt(2) + 1e-13)
        assert a == b

    def test_distinct_values_stay_distinct(self):
        t = ComplexTable()
        a = t.lookup(0.5)
        b = t.lookup(0.5 + 1e-6)
        assert a != b

    def test_seeded_constants_are_canonical(self):
        t = ComplexTable()
        assert t.lookup(1.0 + 0j) == 1.0
        assert t.lookup(-1.0 + 0j) == -1.0
        assert t.lookup(1j) == 1j

    def test_signed_zero_buckets_merge(self):
        t = ComplexTable()
        assert t.lookup(complex(-0.0, 5e-11)) == t.lookup(complex(0.0, 0.0))


class TestStatistics:
    def test_entry_count_grows_only_on_new_values(self):
        t = ComplexTable()
        base = t.entry_count
        t.lookup(0.123 + 0.456j)
        assert t.entry_count == base + 1
        t.lookup(0.123 + 0.456j)
        assert t.entry_count == base + 1

    def test_hits_and_misses_tracked(self):
        t = ComplexTable()
        t.lookup(0.77)
        misses = t.misses
        t.lookup(0.77)
        assert t.misses == misses
        assert t.hits >= 1

    def test_len_matches_entry_count(self):
        t = ComplexTable()
        t.lookup(2.5 + 0.5j)
        assert len(t) == t.entry_count
