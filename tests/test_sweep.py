"""Batched parameter-sweep execution (``simulate_sweep``).

The sweep contract is *bit-identity*: every row of the batch must equal
(``np.array_equal``) the state of a single-shot ``run()`` on the
equivalently bound circuit under the same config.  These tests pin that
contract across batch shapes, thread counts, both DMAV kernels, and the
degenerate inputs the API must reject, plus the memory-guard behaviour
mid-sweep.
"""

import base64
import itertools
import os

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.generators.regular import qft
from repro.common.config import DENSE_BLOCK_LEVEL
from repro.common.errors import (
    CheckpointError,
    CircuitError,
    ReproError,
    ResourceExhaustedError,
    SimulationError,
)
from repro.core.simulator import FlatDDSimulator
from repro.resilience.snapshot import decode_array_state, read_snapshot
from repro.verify.fuzz.oracles import phase_aligned_error

from tests.conftest import force_dmav_verdict, reference_state


def _template(n=4, layers=2):
    """Hardware-efficient template with a leading H column.

    The H column gives every bound row an identical gate prefix, so a
    sweep with ``force_convert_at=0`` shares one DD phase per group.
    """
    c = Circuit(n, name="sweep-template")
    for q in range(n):
        c.h(q)
    for _ in range(layers):
        for q in range(n):
            c.ry(0.0, q)
        for q in range(n):
            c.rz(0.0, q)
        for q in range(n - 1):
            c.cx(q, q + 1)
    return c


def _rows(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        tuple(rng.uniform(-np.pi, np.pi, circuit.num_param_slots))
        for _ in range(count)
    ]


def _assert_rows_identical(sim, circuit, rows, result):
    for i, row in enumerate(rows):
        ref = sim.run(circuit.bind(row)).state
        assert np.array_equal(result.states[i], ref), (
            f"row {i} diverged: max|diff|="
            f"{np.max(np.abs(result.states[i] - ref))}"
        )


# ---------------------------------------------------------------------------
# Shape and degenerate-input behaviour
# ---------------------------------------------------------------------------


def test_batch_of_one_matches_single_shot():
    c = _template()
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 1)
    result = sim.simulate_sweep(c, rows)
    assert result.states.shape == (1, 1 << c.num_qubits)
    assert result.num_rows == 1
    _assert_rows_identical(sim, c, rows, result)


def test_empty_param_sets_rejected_with_structured_error():
    sim = FlatDDSimulator(threads=1)
    with pytest.raises(SimulationError) as exc:
        sim.simulate_sweep(_template(), [])
    assert isinstance(exc.value, ReproError)
    assert "at least one parameter set" in str(exc.value)


def test_wrong_row_width_rejected():
    c = _template()
    sim = FlatDDSimulator(threads=1)
    with pytest.raises(CircuitError):
        sim.simulate_sweep(c, [(0.1, 0.2)])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_row_rejected(value):
    c = _template()
    rows = _rows(c, 2)
    rows[1] = (value,) + rows[1][1:]
    sim = FlatDDSimulator(threads=1)
    with pytest.raises(CircuitError, match="non-finite"):
        sim.simulate_sweep(c, rows)


def test_non_parameterized_circuit_sweeps():
    ghz = Circuit(4, name="ghz").h(0)
    for q in range(3):
        ghz.cx(q, q + 1)
    assert ghz.num_param_slots == 0
    sim = FlatDDSimulator(threads=2)
    result = sim.simulate_sweep(ghz, [(), (), ()])
    ref = sim.run(ghz).state
    for i in range(3):
        assert np.array_equal(result.states[i], ref)
    # all three rows are the same circuit: one simulation, fanned out
    assert result.metadata["unique_rows"] == 1


def test_duplicate_rows_deduplicated_and_fanned_out():
    c = _template()
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 3)
    rows = [rows[0], rows[1], rows[0], rows[2], rows[1]]
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["rows"] == 5
    assert result.metadata["unique_rows"] == 3
    assert np.array_equal(result.states[0], result.states[2])
    assert np.array_equal(result.states[1], result.states[4])
    _assert_rows_identical(sim, c, rows, result)


def test_qft_identical_rows_collapse_to_one_group():
    c = qft(5)
    sim = FlatDDSimulator(threads=2)
    row = c.extract_params()
    result = sim.simulate_sweep(c, [row] * 4)
    ref = sim.run(c).state
    for i in range(4):
        assert np.array_equal(result.states[i], ref)
    assert result.metadata["unique_rows"] == 1
    assert result.metadata["obs"]["counters"]["dmav.sweep.groups"] == 1


# ---------------------------------------------------------------------------
# Batch sizes vs thread counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 4, 9])
def test_batch_sizes_straddling_thread_count(batch):
    """Batches below, at, and above the thread count all stay exact."""
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(threads=4, force_convert_at=0)
    rows = _rows(c, batch, seed=batch)
    result = sim.simulate_sweep(c, rows)
    assert result.states.shape == (batch, 16)
    _assert_rows_identical(sim, c, rows, result)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_tile_local_columns_with_degenerate_angles(threads):
    """Gates below the border level are applied from their matrices, one
    row operand stacked per row; rows whose rotations sit at 0 (the
    identity) or pi stay bit-identical to their single-shot runs."""
    c = _template(n=6)
    sim = FlatDDSimulator(threads=threads, force_convert_at=0)
    rows = _rows(c, 4, seed=3)
    rows[1] = (0.0,) * c.num_param_slots
    rows[2] = (np.pi,) * c.num_param_slots
    result = sim.simulate_sweep(c, rows)
    counters = result.metadata["obs"]["counters"]
    assert counters["dmav.gates_tile_local"] > 0
    assert counters["dmav.gates"] == (
        counters["dmav.gates_cached"] + counters["dmav.gates_uncached"]
        + counters["dmav.gates_tile_local"]
    )
    _assert_rows_identical(sim, c, rows, result)


def test_thread_count_invariance():
    """Sweep(t) is bit-equal to run(t); states agree across thread counts.

    Bit-identity is only promised *at the same thread count* (DMAV task
    splits differ across counts, like the existing thread-invariance
    oracle); across counts the states must still agree to 1e-9 up to
    global phase.
    """
    c = _template(n=4, layers=2)
    rows = _rows(c, 5, seed=7)
    per_thread = {}
    for t in (1, 2, 4):
        sim = FlatDDSimulator(threads=t, force_convert_at=0)
        result = sim.simulate_sweep(c, rows)
        _assert_rows_identical(sim, c, rows, result)
        per_thread[t] = result.states
    for t in (2, 4):
        for i in range(len(rows)):
            err = phase_aligned_error(per_thread[1][i], per_thread[t][i])
            assert err <= 1e-9


@pytest.mark.parametrize("dense_level", [-1, 2, DENSE_BLOCK_LEVEL])
def test_rows_bit_identical_across_bottom_out_shapes(dense_level):
    """Every array-kernel shape runs batched and stays exact.

    Eight qubits put qubits above the dense block level, so the kernel
    meets its scale, diagonal, GEMM, 2x2 pair and elementwise shapes; the
    half-zeroed last row turns some of its rotations into identities,
    which batch with the other rows all the same.
    """
    c = _template(n=8, layers=2)
    rows = _rows(c, 4, seed=5)
    rows.append(tuple(0.0 if k % 2 else v for k, v in enumerate(rows[0])))
    sim = FlatDDSimulator(
        threads=4, force_convert_at=0, dense_block_level=dense_level
    )
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["obs"]["counters"]["dmav.sweep.gates_batched"] > 0
    _assert_rows_identical(sim, c, rows, result)


@pytest.mark.parametrize("policy", ["auto", "always", "never"])
def test_cache_policies_bit_identical(monkeypatch, policy):
    """Every row stays bit-identical to run() under the same DMAV
    verdicts.  An unfused tail holds no gate DD, so only a fused sweep,
    which runs each unique row through run(), meets Algorithm 2:
    "always" forces it on every fused gate DD."""
    force_dmav_verdict(monkeypatch, policy)
    c = _template(n=6, layers=2)
    rows = _rows(c, 4, seed=3)
    for threads, use_thread_pool, fusion in itertools.product(
        (2, 4), (False, True), ("none", "cost")
    ):
        sim = FlatDDSimulator(
            threads=threads, force_convert_at=0,
            use_thread_pool=use_thread_pool, fusion=fusion,
        )
        result = sim.simulate_sweep(c, rows)
        _assert_rows_identical(sim, c, rows, result)
        counters = result.metadata["obs"]["counters"]
        cached = sum(
            sim.run(c.bind(row)).metadata["obs"]["counters"][
                "dmav.gates_cached"
            ]
            for row in rows
        )
        assert counters["dmav.gates_cached"] == cached
        if policy == "never" or fusion == "none":
            assert cached == 0
        elif policy == "always":
            assert cached > 0


def _rowloop_template():
    """``h(0) cx(0,1) h(2) ry(theta,3)`` and three rows, one with theta=0."""
    c = Circuit(4, name="rowloop")
    c.h(0).cx(0, 1).h(2).ry(0.0, 3)
    return c, [(0.3,), (0.0,), (1.1,)]


@pytest.mark.parametrize("use_thread_pool", [False, True])
@pytest.mark.parametrize("policy", ["auto", "always", "never"])
def test_incongruent_rows_replay_per_row(
    monkeypatch, policy, use_thread_pool
):
    """ry(0) is the identity, so its gate DD differs in shape from the
    other rows'.  Unfused, the array kernel picks its branch from the
    gate's kind and qubits alone: every column, that one included, runs
    batched under any verdict.  Fused, the sweep replays each row
    through run(), where the verdict decides which fused gate DDs take
    Algorithm 2.  Every row stays bit-identical to its run()."""
    force_dmav_verdict(monkeypatch, policy)
    c, rows = _rowloop_template()
    for fusion in ("none", "cost"):
        sim = FlatDDSimulator(
            threads=2, force_convert_at=0,
            use_thread_pool=use_thread_pool, fusion=fusion,
        )
        result = sim.simulate_sweep(c, rows)
        _assert_rows_identical(sim, c, rows, result)
        counters = result.metadata["obs"]["counters"]
        if fusion == "none":
            assert counters["dmav.sweep.gates_batched"] == 3
            assert counters["dmav.plan.compiles"] == 0
            assert counters["dmav.gates_cached"] == 0
            continue
        assert result.metadata["mode"] == "fallback-fusion"
        assert counters["dmav.sweep.groups"] == len(rows)
        cached = [
            sim.run(c.bind(row)).metadata["obs"]["counters"][
                "dmav.gates_cached"
            ]
            for row in rows
        ]
        assert counters["dmav.gates_cached"] == sum(cached)
        if policy == "always":
            assert min(cached) > 0
        elif policy == "never":
            assert sum(cached) == 0


DMAV_WORK = ("dmav.gates", "dmav.macs", "dmav.gates_cached", "dmav.cache_hits")
IDENTITY_COUNTERS = (
    "dd.identity.mv_skips",
    "dd.identity.mm_skips",
    "dd.identity.passthrough_skips",
    "dd.identity.lift_steps",
)


COUNTER_CASES = [
    pytest.param(policy, template, fusion, id=f"{policy}-{template}{suffix}")
    for fusion, suffix in (("none", ""), ("cost", "-cost"))
    for policy in ("always", "auto", "never")
    for template in ("congruent", "rowloop")
]


@pytest.mark.parametrize("policy,template,fusion", COUNTER_CASES)
def test_sweep_dmav_counters_equal_looped_runs(
    monkeypatch, policy, template, fusion
):
    """A sweep's DMAV work counters are the sums of run()'s over its
    unique rows: batched columns, per-row replays and fusion-fallback
    runs alike."""
    force_dmav_verdict(monkeypatch, policy)
    if template == "congruent":
        c = _template(n=4, layers=2)
        rows = _rows(c, 3, seed=3)
        rows.append(rows[1])
    else:
        c, rows = _rowloop_template()
    sim = FlatDDSimulator(threads=2, force_convert_at=0, fusion=fusion)
    counters = sim.simulate_sweep(c, rows).metadata["obs"]["counters"]
    unique = list(dict.fromkeys(rows))
    looped = [
        sim.run(c.bind(row)).metadata["obs"]["counters"] for row in unique
    ]
    for key in DMAV_WORK:
        assert counters[key] == sum(r[key] for r in looped), key
    if fusion == "none":
        assert counters["dmav.gates"] == len(unique) * (
            counters["dmav.sweep.gates_batched"]
        )
    else:
        assert counters["dmav.sweep.groups"] == len(unique)


def test_sweep_counters_span_every_group():
    """Two groups, each with its own DMAV phase: the work counters add
    up over groups, and neither compiles a plan (an unfused tail holds
    no gate DD)."""
    c = _template(n=4, layers=2)
    rows = _rows(c, 1, seed=3)
    rows.append(tuple(0.0 if k % 2 else 0.7 for k in range(len(rows[0]))))
    sim = FlatDDSimulator(threads=2, force_convert_at=5)
    counters = sim.simulate_sweep(c, rows).metadata["obs"]["counters"]
    assert counters["dmav.sweep.groups"] == 2
    looped = [sim.run(c.bind(row)).metadata["obs"]["counters"] for row in rows]
    assert counters["dmav.gates"] > 0
    for key in DMAV_WORK:
        assert counters[key] == sum(r[key] for r in looped), key
    assert counters["dmav.plan.compiles"] == 0


def test_ewma_timed_sweep_matches_runs():
    """No forced conversion: grouping follows each row's own trigger."""
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(threads=2)
    rows = _rows(c, 3, seed=11)
    result = sim.simulate_sweep(c, rows)
    _assert_rows_identical(sim, c, rows, result)


def test_fusion_falls_back_to_per_row_runs():
    c = _template(n=3, layers=1)
    sim = FlatDDSimulator(threads=2, fusion="koperations")
    rows = _rows(c, 3, seed=5)
    rows.append(rows[0])
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["mode"] == "fallback-fusion"
    _assert_rows_identical(sim, c, rows, result)


# ---------------------------------------------------------------------------
# DD-phase shrinking (identity skip + qubit reorder)
# ---------------------------------------------------------------------------


def _guarded(convert_at):
    """A never-breached memory budget plus a forced conversion point.

    The guard-enabled post-conversion GC then runs on the group leader's
    package before the rows' tail gate DDs are built on it, as it runs
    before each row's own run() builds them.  Points <= 3 lie in the
    template's parameter-free H column (one multi-row group); 5 puts
    every row in its own group.
    """
    return {"memory_budget_bytes": 1 << 40, "force_convert_at": convert_at}


@pytest.mark.parametrize(
    "qubit_order,extra",
    [
        pytest.param("natural", {}, id="True-natural"),
        pytest.param("interaction", {}, id="True-interaction"),
        pytest.param("sift", {}, id="True-sift"),
        pytest.param("natural", _guarded(0), id="True-natural-guard0"),
        pytest.param("natural", _guarded(3), id="natural-guard3"),
        pytest.param("interaction", _guarded(2), id="True-interaction-guard2"),
        pytest.param("sift", _guarded(5), id="sift-guard5"),
        pytest.param("sift", _guarded(1), id="True-sift-guard1"),
    ],
)
def test_dd_shrink_rows_bit_identical(qubit_order, extra):
    """Identity-skipped, reordered sweeps keep the bit-identity contract."""
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(threads=2, qubit_order=qubit_order, **extra)
    rows = _rows(c, 4, seed=13)
    result = sim.simulate_sweep(c, rows)
    _assert_rows_identical(sim, c, rows, result)
    assert result.metadata["qubit_order"] == qubit_order


def test_dd_shrink_rewind_rolls_back_windowed_prefix():
    """Forced mid-prefix conversion replays the permuted, identity-skipped
    DD prefix once per group; bit-identity against single-shot runs proves
    the shared prefix is each row's own."""
    c = _template(n=4, layers=2)
    sim = FlatDDSimulator(threads=2, force_convert_at=2, qubit_order="sift")
    rows = _rows(c, 4, seed=17)
    rows.append(rows[1])  # duplicate exercises the dedup fan-out too
    result = sim.simulate_sweep(c, rows)
    assert result.metadata["obs"]["counters"]["dmav.sweep.groups"] >= 1
    _assert_rows_identical(sim, c, rows, result)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_sweep_metadata_counters():
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(threads=2, force_convert_at=0)
    rows = _rows(c, 4, seed=1)
    result = sim.simulate_sweep(c, rows)
    counters = result.metadata["obs"]["counters"]
    assert counters["dmav.sweep.rows"] == 4
    assert counters["dmav.sweep.unique_rows"] == 4
    assert counters["dmav.sweep.groups"] == 1
    assert counters["dmav.sweep.gates_batched"] > 0
    # The group leader packages' DD counters, as run() reports its own.
    assert counters["dd.nodes_created"] > 0
    assert counters["dd.compute_hits"] + counters["dd.compute_misses"] > 0
    assert 0 < counters["dd.unique_nodes"] <= counters["dd.peak_nodes"]
    assert counters["dd.gc_runs"] >= 0
    assert result.runtime_seconds > 0
    assert result.peak_memory_bytes > 0
    assert result.backend == sim.name
    # A one-row sweep's package counts its identity-rule traffic as the
    # row's own run() does, with a forced conversion and without.
    for convert_at in (0, None):
        one = FlatDDSimulator(threads=2, force_convert_at=convert_at)
        swept = one.simulate_sweep(c, rows[:1]).metadata["obs"]["counters"]
        ran = one.run(c.bind(rows[0])).metadata["obs"]["counters"]
        for key in IDENTITY_COUNTERS:
            assert swept[key] == ran[key], (convert_at, key)


# ---------------------------------------------------------------------------
# Memory guard mid-sweep
# ---------------------------------------------------------------------------


def test_guard_breach_mid_sweep_checkpoints_cleanly(tmp_path):
    """A budget breach in the batched replay writes a sweep snapshot and
    raises the structured error; the snapshot is diagnostic only.  The
    breach comes right after the shared prefix (gate 0), so every row of
    the snapshot's batch is the logical state after it, at any thread
    count."""
    c = _template(n=4, layers=1)
    prefix = reference_state(c[:1])
    rows = _rows(c, 3, seed=2)
    for threads in (2, 4):
        path = os.fspath(tmp_path / f"sweep-{threads}.ckpt")
        sim = FlatDDSimulator(
            threads=threads, force_convert_at=0, memory_budget_bytes=1
        )
        with pytest.raises(ResourceExhaustedError) as exc:
            sim.simulate_sweep(c, rows, checkpoint_path=path)
        err = exc.value
        assert err.phase == "sweep"
        assert err.budget_bytes == 1
        assert err.checkpoint_path == path
        snap = read_snapshot(path)
        assert snap.phase == "sweep"
        assert snap.num_qubits == 4
        assert snap.circuit_fingerprint == c.fingerprint()
        assert snap.data["rows"] == 3
        raw = base64.b64decode(snap.data["states_b64"])
        states = np.frombuffer(raw, dtype=np.complex128).reshape(3, 16)
        for row in states:
            np.testing.assert_allclose(row, prefix, atol=1e-12, rtol=0)
        # sweep snapshots cannot seed a single-shot resume (same config,
        # so the digest pin passes and the phase rejection is what fires)
        with pytest.raises(CheckpointError, match="sweep-phase"):
            sim.run(c, resume_from=path)


def test_guard_breach_in_fused_sweep_writes_the_rows_snapshot(tmp_path):
    """A fused sweep has no batched replay: each unique row runs through
    ``run()``, so a breach is that run's array-phase breach, and
    ``checkpoint_path`` receives the bound row's array-phase snapshot."""
    c = _template(n=4, layers=1)
    path = os.fspath(tmp_path / "fused.ckpt")
    sim = FlatDDSimulator(
        threads=2, fusion="cost", force_convert_at=0, memory_budget_bytes=1
    )
    rows = _rows(c, 3, seed=2)
    with pytest.raises(ResourceExhaustedError) as exc:
        sim.simulate_sweep(c, rows, checkpoint_path=path)
    err = exc.value
    assert err.phase == "array"
    assert err.checkpoint_path == path
    snap = read_snapshot(path)
    assert snap.phase == "array"
    assert snap.gate_cursor == 0
    assert snap.circuit_fingerprint == c.bind(rows[0]).fingerprint()
    np.testing.assert_allclose(
        decode_array_state(snap), reference_state(c[:1]), atol=1e-12, rtol=0
    )


def test_guard_breach_without_checkpoint_path(tmp_path):
    c = _template(n=4, layers=1)
    sim = FlatDDSimulator(
        threads=2, force_convert_at=0, memory_budget_bytes=1
    )
    with pytest.raises(ResourceExhaustedError) as exc:
        sim.simulate_sweep(c, _rows(c, 2))
    assert exc.value.phase == "sweep"
    assert exc.value.checkpoint_path is None
