"""The correctness checker counts every kind of failed pass."""

from __future__ import annotations

import numpy as np
import pytest

import workloads as W
from measure import Tally, pass_summary, tail
from repro import FlatDDSimulator, get_circuit


@pytest.fixture(scope="module")
def ghz_case():
    case = W.Case("ghz-6", get_circuit("ghz", 6))
    case.reference = W._analytic_reference(case)
    return case


def _judge(case):
    return lambda r, s: W.flatdd_error(case, r, s)


def test_correct_pass_is_timed_and_not_failed(ghz_case):
    tally = Tally()
    sim = FlatDDSimulator()
    seconds, result = tally.run(
        "ok", lambda: sim.run(ghz_case.circuit), _judge(ghz_case)
    )
    assert seconds is not None and seconds > 0
    assert result is not None
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.failed_frac == 0.0


def test_perturbed_state_and_raising_backend_count_as_failed(ghz_case):
    tally = Tally()
    good = FlatDDSimulator().run(ghz_case.circuit)
    bad = FlatDDSimulator().run(ghz_case.circuit)
    rng = np.random.default_rng(0)
    bad.state = bad.state + 1e-2 * rng.standard_normal(bad.state.shape)
    bad.state /= np.linalg.norm(bad.state)

    def raising():
        raise RuntimeError("backend exploded")

    assert tally.run("good", lambda: good, _judge(ghz_case)) != (None, None)
    assert tally.run("perturbed", lambda: bad, _judge(ghz_case)) == (None, None)
    assert tally.run("raises", raising, _judge(ghz_case)) == (None, None)
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert any("infidelity" in f for f in tally.failures)
    assert any("backend exploded" in f for f in tally.failures)


def test_wrong_norm_and_timeout_fail(ghz_case):
    result = FlatDDSimulator().run(ghz_case.circuit)
    assert W.flatdd_error(ghz_case, result, 0.01) is None
    assert "timed out" in W.flatdd_error(ghz_case, result, W.TIMEOUT_S + 1)
    result.metadata["timed_out"] = True
    assert "timed out" in W.flatdd_error(ghz_case, result, 0.01)
    assert W.state_error(2 * ghz_case.reference, ghz_case.reference)


def test_sweep_rows_must_be_bit_identical():
    ref = [np.ones(4, dtype=complex), np.zeros(4, dtype=complex)]
    same = [r.copy() for r in ref]
    off = [ref[0].copy(), ref[1] + 1e-15]
    assert W._rows_error(same, ref) is None
    assert "row 1" in W._rows_error(off, ref)
    assert W._rows_error(same[:1], ref)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs) == (90.0, 90, 100)
    value, pct, n = tail(xs[:15])
    assert (pct, n) == (33, 15)
    assert sum(x > value for x in xs[:15]) == 10
    assert tail([3.0, 1.0]) == (3.0, 100, 2)


def test_pass_summary_turns_case_samples_into_workload_passes():
    samples = {"fast": [1.0, 1.0, 1.1], "slow": [10.0, 10.0, 12.0]}
    s = pass_summary(samples)
    assert s["p50"] == pytest.approx(11.0)
    assert s["per_case_p50"] == {"fast": 1.0, "slow": 10.0}
    # As workload passes the fast case's outlier reads 11.1 and the slow
    # case's 13.0; pooling raw seconds would report 12.0.
    assert (s["samples"], s["tail_percentile"]) == (6, 100)
    assert s["tail"] == pytest.approx(13.0)
    assert pass_summary({"only": [2.0, 1.0, 3.0]})["tail"] == 3.0
