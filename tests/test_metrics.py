"""Unit tests for metrics: memory model and statistics."""

import math

import numpy as np
import pytest

from repro.common.config import (
    AMPLITUDE_BYTES,
    CTABLE_ENTRY_BYTES,
    MNODE_BYTES,
    VNODE_BYTES,
)
from repro.dd import DDPackage, single_qubit_gate, vector_from_array
from repro.metrics import (
    MemoryMeter,
    array_bytes,
    dd_bytes,
    geometric_mean,
    normalize,
    ratio_string,
    speedups,
    state_array_bytes,
)

from tests.conftest import random_state


class TestMemoryModel:
    def test_dd_bytes_counts_nodes_and_weights(self):
        pkg = DDPackage(4)
        base = dd_bytes(pkg)
        vector_from_array(pkg, random_state(4, seed=0))
        grown = dd_bytes(pkg)
        assert grown > base
        expected_v = pkg.vector_node_count * VNODE_BYTES
        expected_m = pkg.matrix_node_count * MNODE_BYTES
        expected_c = pkg.ctable.entry_count * CTABLE_ENTRY_BYTES
        assert grown == expected_v + expected_m + expected_c

    def test_matrix_nodes_priced_larger(self):
        pkg = DDPackage(4)
        before = dd_bytes(pkg)
        single_qubit_gate(pkg, np.array([[0, 1], [1, 0]]), 2)
        per_node = (dd_bytes(pkg) - before) / max(pkg.matrix_node_count, 1)
        assert per_node > 0
        assert MNODE_BYTES > VNODE_BYTES

    def test_array_bytes(self):
        a = np.zeros(8, dtype=np.complex128)
        assert array_bytes(a) == 8 * 16
        assert array_bytes(a, None, a) == 2 * 8 * 16

    def test_state_array_bytes(self):
        assert state_array_bytes(10) == (1 << 10) * AMPLITUDE_BYTES

    def test_meter_tracks_peak(self):
        meter = MemoryMeter(baseline=100)
        meter.sample(50)
        meter.sample(400)
        meter.sample(10)
        assert meter.peak_bytes == 500
        assert meter.last_bytes == 110
        assert meter.peak_mb == pytest.approx(500 / 2**20)


class TestStats:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([7]) == pytest.approx(7.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_speedups(self):
        assert speedups([10, 4], [5, 8]) == [2.0, 0.5]
        with pytest.raises(ValueError):
            speedups([1], [1, 2])

    def test_normalize_default_reference(self):
        assert normalize([2.0, 4.0, 8.0]) == [1.0, 2.0, 4.0]

    def test_normalize_explicit_reference(self):
        assert normalize([3.0], reference=1.5) == [2.0]
        with pytest.raises(ValueError):
            normalize([1.0], reference=0.0)

    def test_ratio_string_matches_paper_format(self):
        assert ratio_string(34.814) == "34.81x"


class TestPackageStats:
    def test_counts_table_activity(self):
        from repro.dd.operations import mv_multiply

        pkg = DDPackage(3)
        state = vector_from_array(pkg, random_state(3, seed=1))
        x = single_qubit_gate(pkg, np.array([[0, 1], [1, 0]]), 0)
        assert pkg.stats.unique_misses > 0
        mv_multiply(pkg, x, state)
        assert pkg.stats.compute_misses > 0
        # Identical multiply hits the compute table.
        before = pkg.stats.compute_hits
        mv_multiply(pkg, x, state)
        assert pkg.stats.compute_hits > before

    def test_gc_counters(self):
        pkg = DDPackage(4)
        v = vector_from_array(pkg, random_state(4, seed=2))
        pkg.collect_garbage([v])
        assert pkg.stats.gc_runs == 1
        d = pkg.stats.as_dict()
        assert set(d) == {
            "unique_hits", "unique_misses", "compute_hits",
            "compute_misses", "gc_runs", "gc_nodes_reclaimed",
            "identity_mv_skips", "identity_mm_skips",
            "identity_passthrough_skips", "identity_lift_steps",
            "add_same_node",
        }


class TestObsRegistryIntegration:
    def test_snapshot_is_plain_data(self):
        import json

        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.25)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_gauge_tracks_extremes(self):
        from repro.obs import MetricsRegistry

        g = MetricsRegistry().gauge("x")
        for v in (4.0, -1.0, 9.0):
            g.set(v)
        assert (g.min, g.max, g.value) == (-1.0, 9.0, 9.0)
