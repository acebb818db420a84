"""Unit tests for static qubit-order planning (repro.core.reorder).

The plan is a pure function of gate *structure*: the same circuit always
gets the same plan, bound and template instances agree, and a selected
order is never worse than natural under the span metric.  The
permute/unpermute pair must round-trip statevectors exactly.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.circuits.circuit import Circuit
from repro.circuits.gates import UnitaryGate
from repro.core.simulator import FlatDDSimulator
from repro.core.reorder import (
    ReorderPlan,
    interaction_weights,
    permute_circuit,
    plan_qubit_order,
    span_cost,
    unpermute_axes,
)
from repro.verify.fuzz.oracles import TOLERANCE_LADDER


def _ladder(n=5):
    """Nearest-neighbour ladder: already optimally ordered."""
    c = Circuit(n, name="ladder")
    for q in range(n - 1):
        c.cx(q, q + 1)
    return c


def _long_range(n=6):
    """Every two-qubit gate spans the full register: reorder can't help
    every pair, but the greedy arrangement should beat natural."""
    c = Circuit(n, name="long-range")
    for _ in range(3):
        c.cx(0, n - 1)
        c.cx(1, n - 2)
        c.cx(0, n - 2)
    return c


class TestInteractionWeights:
    def test_single_qubit_gates_ignored(self):
        c = Circuit(3).h(0).h(1).h(2)
        assert interaction_weights(c) == {}

    def test_two_qubit_gates_counted_per_pair(self):
        c = Circuit(3).cx(0, 2).cx(0, 2).cx(1, 2)
        w = interaction_weights(c)
        assert w == {(0, 2): 2, (1, 2): 1}

    def test_controls_count_like_targets(self):
        c = Circuit(3)
        c.ccx(0, 1, 2)
        w = interaction_weights(c)
        assert w == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


class TestSpanCost:
    def test_adjacent_pair_costs_weight(self):
        assert span_cost({(0, 1): 3}, (0, 1, 2)) == 3.0

    def test_distant_pair_scales_with_span(self):
        assert span_cost({(0, 2): 3}, (0, 1, 2)) == 6.0


class TestPlanQubitOrder:
    def test_natural_mode_is_identity(self):
        plan = plan_qubit_order(_long_range(), "natural")
        assert plan.is_natural
        assert plan.cost_selected == plan.cost_natural

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="qubit order mode"):
            plan_qubit_order(_ladder(), "zigzag")

    @pytest.mark.parametrize("mode", ["interaction", "sift"])
    def test_selected_never_worse_than_natural(self, mode):
        for circ in (_ladder(), _long_range(), get_circuit("qft", 6),
                     get_circuit("supremacy", 6)):
            plan = plan_qubit_order(circ, mode)
            assert plan.cost_selected <= plan.cost_natural
            # the order is a permutation of range(n)
            assert sorted(plan.order) == list(range(circ.num_qubits))

    def test_already_optimal_circuit_stays_natural(self):
        # A nearest-neighbour ladder has span cost n-1; no permutation
        # beats it strictly, so the fallback keeps the identity order.
        plan = plan_qubit_order(_ladder(), "sift")
        assert plan.is_natural

    def test_long_range_circuit_improves(self):
        plan = plan_qubit_order(_long_range(), "interaction")
        assert plan.cost_selected < plan.cost_natural

    @pytest.mark.parametrize("mode", ["interaction", "sift"])
    def test_plan_is_deterministic(self, mode):
        a = plan_qubit_order(_long_range(), mode)
        b = plan_qubit_order(_long_range(), mode)
        assert a == b

    def test_template_and_bound_agree(self):
        # Parameter values must not influence the plan (sweep grouping
        # and checkpoint resume depend on this).
        tpl = Circuit(4, name="tpl")
        for q in range(4):
            tpl.ry(0.0, q)
        tpl.cx(0, 3).cx(1, 3).cx(0, 2)
        bound = tpl.bind((0.3, -1.2, 2.7, 0.01))
        for mode in ("interaction", "sift"):
            assert (
                plan_qubit_order(tpl, mode).order
                == plan_qubit_order(bound, mode).order
            )

    def test_sift_reports_moves(self):
        plan = plan_qubit_order(get_circuit("supremacy", 6), "sift")
        assert isinstance(plan, ReorderPlan)
        assert plan.sift_moves >= 0


class TestPermuteUnpermute:
    def test_permute_relabels_gates(self):
        c = Circuit(3).cx(0, 2)
        p = permute_circuit(c, (2, 1, 0))
        g = p.gates[0]
        assert g.controls == (2,)
        assert g.targets == (0,)

    def test_permute_keeps_explicit_matrix(self):
        c = get_circuit("qvolume", 4)
        p = permute_circuit(c, (3, 0, 2, 1))
        for g, q in zip(c.gates, p.gates):
            assert isinstance(q, UnitaryGate)
            assert q.targets == tuple((3, 0, 2, 1)[t] for t in g.targets)
            assert np.array_equal(q.matrix(), g.matrix())

    def test_unpermute_axes_identity(self):
        assert unpermute_axes((0, 1, 2)) == (0, 1, 2)

    @pytest.mark.parametrize("order", [(1, 0, 2), (2, 0, 1), (2, 1, 0)])
    def test_statevector_round_trip(self, order):
        # Simulating the permuted circuit and un-permuting its amplitudes
        # must reproduce the canonical statevector exactly.
        from repro.backends.statevector import StatevectorSimulator

        rng = np.random.default_rng(7)
        c = Circuit(3, name="rt")
        for q in range(3):
            c.ry(float(rng.uniform(-np.pi, np.pi)), q)
        c.cx(0, 1).cx(1, 2).cx(0, 2)
        for q in range(3):
            c.rz(float(rng.uniform(-np.pi, np.pi)), q)
        sim = StatevectorSimulator()
        canonical = sim.run(c).state
        permuted = sim.run(permute_circuit(c, order)).state
        n = 3
        restored = permuted.reshape([2] * n).transpose(
            unpermute_axes(order)
        ).reshape(1 << n)
        np.testing.assert_allclose(restored, canonical, atol=1e-12)


class TestReorderedExplicitMatrixGates:
    """A circuit of explicit-matrix gates (quantum volume's random SU(4)
    blocks) under a reordered DD phase matches the natural order on the
    tolerance ladder's tightest rung, in ``run()`` and in a sweep."""

    TIGHT = dict(TOLERANCE_LADDER)["tight"]

    @pytest.mark.parametrize("convert_at", [None, 4])
    @pytest.mark.parametrize("mode", ["interaction", "sift"])
    def test_run_matches_natural(self, mode, convert_at):
        c = get_circuit("qvolume", 6)
        natural, reordered = (
            FlatDDSimulator(
                threads=2, qubit_order=order, force_convert_at=convert_at
            ).run(c)
            for order in ("natural", mode)
        )
        assert reordered.metadata["reorder"]["applied"]
        assert np.max(np.abs(reordered.state - natural.state)) <= self.TIGHT

    @pytest.mark.parametrize("mode", ["interaction", "sift"])
    def test_sweep_matches_natural(self, mode):
        c = get_circuit("qvolume", 6)
        for q in range(c.num_qubits):
            c.ry(0.0, q)
        rng = np.random.default_rng(3)
        rows = [
            tuple(rng.uniform(-np.pi, np.pi, c.num_param_slots))
            for _ in range(3)
        ]
        natural, reordered = (
            FlatDDSimulator(
                threads=2, qubit_order=order, force_convert_at=8
            ).simulate_sweep(c, rows)
            for order in ("natural", mode)
        )
        assert reordered.metadata["reorder_applied"]
        assert np.max(
            np.abs(reordered.states - natural.states)
        ) <= self.TIGHT
