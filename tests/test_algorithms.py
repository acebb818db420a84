"""Semantic tests for the algorithm circuit generators.

Each family's defining output property is checked, and every family is
cross-validated between the DD and array backends (including the explicit
SU(4) unitary gates of quantum volume).
"""

import numpy as np
import pytest

from repro.backends import DDSimulator, StatevectorSimulator
from repro.circuits import get_circuit
from repro.circuits.generators.algorithms import UnitaryGate
from repro.common.errors import CircuitError
from repro.sampling import most_likely

from tests.conftest import reference_state


class TestGrover:
    @pytest.mark.parametrize("marked", [0, 3, 13])
    def test_marked_item_amplified(self, marked):
        c = get_circuit("grover", 4, marked=marked)
        state = reference_state(c)
        probs = np.abs(state) ** 2
        assert int(np.argmax(probs)) == marked
        # Optimal iterations reach high success probability.
        assert probs[marked] > 0.9

    def test_iteration_count_default(self):
        c = get_circuit("grover", 4)
        # 3 iterations for n=4 (floor(pi/4 * 4) = 3).
        assert c.gate_counts["h"] == 4 + 3 * 8

    def test_single_iteration_partial_amplification(self):
        c = get_circuit("grover", 4, marked=5, iterations=1)
        probs = np.abs(reference_state(c)) ** 2
        assert probs[5] > 2 / 16  # above uniform, below certainty
        assert probs[5] < 0.9


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", [0b1, 0b1010, 0b1111])
    def test_secret_recovered_deterministically(self, secret):
        c = get_circuit("bv", 4, secret=secret)
        state = reference_state(c)
        probs = np.abs(state) ** 2
        data_marginal = {}
        for idx, p in enumerate(probs):
            data_marginal[idx & 0b1111] = data_marginal.get(idx & 0b1111, 0) + p
        best = max(data_marginal, key=data_marginal.get)
        assert best == secret
        assert data_marginal[best] == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_secret_rejected(self):
        with pytest.raises(CircuitError):
            get_circuit("bv", 3, secret=8)


class TestDeutschJozsa:
    def test_constant_oracle_returns_zero(self):
        c = get_circuit("dj", 4, balanced=False)
        state = reference_state(c)
        probs = np.abs(state) ** 2
        p_zero = sum(probs[i] for i in range(32) if (i & 0b1111) == 0)
        assert p_zero == pytest.approx(1.0, abs=1e-9)

    def test_balanced_oracle_never_returns_zero(self):
        c = get_circuit("dj", 4, balanced=True)
        state = reference_state(c)
        probs = np.abs(state) ** 2
        p_zero = sum(probs[i] for i in range(32) if (i & 0b1111) == 0)
        assert p_zero == pytest.approx(0.0, abs=1e-9)


class TestQPE:
    @pytest.mark.parametrize("phase", [0.25, 0.3125, 0.5, 0.8125])
    def test_exact_phase_readout(self, phase):
        n_counting = 4
        c = get_circuit("qpe", n_counting, phase=phase)
        state = reference_state(c)
        probs = np.abs(state) ** 2
        hot = int(np.argmax(probs))
        counting = hot & ((1 << n_counting) - 1)
        assert counting / (1 << n_counting) == pytest.approx(phase)
        assert probs[hot] == pytest.approx(1.0, abs=1e-9)

    def test_inexact_phase_concentrates_nearby(self):
        n_counting = 4
        c = get_circuit("qpe", n_counting, phase=0.3)  # not 4-bit exact
        state = reference_state(c)
        probs = np.abs(state) ** 2
        hot = int(np.argmax(probs)) & 0b1111
        assert abs(hot / 16 - 0.3) < 1 / 16

    def test_bad_phase_rejected(self):
        with pytest.raises(CircuitError):
            get_circuit("qpe", 3, phase=1.5)


class TestQuantumVolume:
    def test_unitary_gates_are_unitary(self):
        c = get_circuit("qvolume", 4, depth=3)
        for g in c.gates:
            assert isinstance(g, UnitaryGate)
            u = g.matrix()
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(4), atol=1e-10
            )

    def test_backends_agree_on_unitary_gates(self):
        c = get_circuit("qvolume", 5, depth=4)
        dd = DDSimulator().run(c)
        sv = StatevectorSimulator().run(c)
        assert dd.fidelity(sv) == pytest.approx(1.0, abs=1e-8)

    def test_flatdd_handles_qv(self):
        from repro import FlatDDSimulator

        c = get_circuit("qvolume", 6, depth=5)
        ref = reference_state(c)
        r = FlatDDSimulator(threads=2).run(c)
        assert abs(np.vdot(r.state, ref)) ** 2 == pytest.approx(
            1.0, abs=1e-8
        )

    def test_distinct_layers_have_distinct_matrices(self):
        c = get_circuit("qvolume", 4, depth=2)
        mats = [g.matrix() for g in c.gates]
        assert not np.allclose(mats[0], mats[-1])

    def test_same_seed_builds_share_a_fingerprint(self):
        # The matrices, not a build counter, identify the gates, so a
        # repeated build is one result-cache entry.
        first, again = get_circuit("qvolume", 5), get_circuit("qvolume", 5)
        assert first.fingerprint() == again.fingerprint()
        assert first.fingerprint() != get_circuit(
            "qvolume", 5, seed=24
        ).fingerprint()

    def test_template_binds_and_sweeps(self, capsys):
        from repro import FlatDDSimulator
        from repro.cli import main

        c = get_circuit("qvolume", 6)
        assert c.num_param_slots == 0
        assert c.bind([]).fingerprint() == c.fingerprint()
        sim = FlatDDSimulator(threads=2, force_convert_at=0)
        result = sim.simulate_sweep(c, [(), ()])
        ref = sim.run(c).state
        assert all(np.array_equal(row, ref) for row in result.states)
        assert main([
            "sweep", "--family", "qvolume", "--qubits", "6", "--points", "2",
        ]) == 0

    def test_distinct_unitaries_on_one_pair_apply_their_own_matrix(self):
        from repro import FlatDDSimulator
        from repro.circuits import Circuit

        from tests.conftest import random_unitary

        c = Circuit(5)
        for q in range(5):
            c.h(q)
        for seed in (1, 2):
            c.append(UnitaryGate(random_unitary(4, seed), (4, 1)))
        for threads in (1, 2, 4):
            r = FlatDDSimulator(threads=threads, force_convert_at=4).run(c)
            assert r.metadata["obs"]["counters"]["dmav.gates_tile_local"] == 2
            np.testing.assert_allclose(
                r.state, reference_state(c), atol=1e-12, rtol=0
            )

    def test_norm_preserved(self):
        c = get_circuit("qvolume", 4, depth=4)
        state = reference_state(c)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)


class TestHiddenShift:
    @pytest.mark.parametrize("shift", [0b0001, 0b1010, 0b1111])
    def test_shift_recovered(self, shift):
        c = get_circuit("hiddenshift", 4, shift=shift)
        state = reference_state(c)
        top, p = most_likely(state)[0]
        assert int(top, 2) == shift
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_odd_size_rejected(self):
        with pytest.raises(CircuitError):
            get_circuit("hiddenshift", 5)


class TestCrossBackend:
    @pytest.mark.parametrize(
        "family,n,kwargs",
        [
            ("grover", 4, {}),
            ("bv", 4, {}),
            ("dj", 4, {}),
            ("qpe", 4, {}),
            ("hiddenshift", 4, {}),
        ],
    )
    def test_dd_and_array_agree(self, family, n, kwargs):
        c = get_circuit(family, n, **kwargs)
        dd = DDSimulator().run(c)
        sv = StatevectorSimulator().run(c)
        assert dd.fidelity(sv) == pytest.approx(1.0, abs=1e-8)
