"""Seeded workload generation, provenance and reference states."""

from __future__ import annotations

import numpy as np
import pytest

import workloads as W
from repro import StatevectorSimulator, get_circuit


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_circuits(name):
    a, b = W.build(name, 7), W.build(name, 7)
    assert a.provenance() == b.provenance()
    assert a.provenance()["seed"] == 7
    assert W.build(name, 8).provenance()["circuits"] != a.provenance()["circuits"]


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        W.build("nope", 1)


def test_sweep_rows_share_all_but_the_last_layer():
    wl = W.build("sweep", 3)
    (case,) = wl.cases
    rows = np.array(case.rows)
    assert rows.shape == (W.SWEEP_ROWS, case.circuit.num_param_slots)
    n = case.circuit.num_qubits
    assert np.all(rows[:, : -2 * n] == rows[0, : -2 * n])
    assert len({tuple(r[-2 * n:]) for r in rows}) == W.SWEEP_ROWS
    assert len(set(case.fingerprints())) == W.SWEEP_ROWS


def _small_regular(rng):
    marked = int(rng.integers(0, 1 << 5))
    a, b = (int(v) for v in rng.integers(0, 1 << 3, size=2))
    x = int(rng.integers(0, 1 << 6))
    return [
        W._named(get_circuit("grover", 5, marked=marked), "grover-5"),
        W._named(W._qft_on_basis(6, x), "qft-6"),
        W._named(get_circuit("adder", 8, a_value=a, b_value=b), "adder-8"),
        W._named(get_circuit("ghz", 6), "ghz-6"),
        W._named(get_circuit("wstate", 6), "wstate-6"),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_references_match_the_array_simulator(seed):
    for case in _small_regular(np.random.default_rng(seed)):
        ref = W._analytic_reference(case)
        state = StatevectorSimulator().run(case.circuit).state
        assert W.state_error(state, ref) is None, case.name


def test_grover_marked_item_is_recovered_from_the_circuit():
    for marked in (0, 5, 31):
        c = get_circuit("grover", 5, marked=marked)
        assert W._grover_marked(c) == marked


def test_every_flatdd_pass_of_a_seed_matches_its_reference():
    wl = W.build("irregular_small", 11)
    W.compute_references(wl)
    for case in wl.cases:
        result = W.flatdd_pass(wl, case)
        assert W.flatdd_error(case, result, 0.0) is None, case.name
        base = W.baseline_pass(wl, case)
        assert W.baseline_error(case, base, 0.0) is None, case.name
