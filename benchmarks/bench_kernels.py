"""Micro-benchmarks for the core kernels (pytest-benchmark groups).

Not a paper artifact; these watch the building blocks the experiments rest
on: DD gate application, DMAV, conversion, array-backend gate application,
and DD construction (``kernel-gate-build`` times one cold gate-DD build per
branch of the direct builder in :mod:`repro.dd.matrix`).
``kernel-tile-local`` times an unfused gate applied from its matrix by
the array kernel to the pipeline's row-major ``(rows, 2**n)`` batch,
within a tile and across the border level, beside the same gates' warm
planned DMAV steps on one row in ``kernel-dmav-planned``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends import apply_gate_array
from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate, get_circuit
from repro.common.config import FlatDDConfig
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel
from repro.core.dmav import apply_tile_local, dmav_cached, dmav_nocache
from repro.core.plan import PlanCache
from repro.core.simulator import FlatDDSimulator, apply_plan, dmav_phase
from repro.dd import DDPackage, controlled_gate, mv_multiply, vector_from_array
from repro.metrics.memory import MemoryMeter
from repro.obs.metrics import MetricsRegistry
from repro.parallel.arena import BufferArena
from repro.resilience.guard import MemoryGuard

N = 12
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


@pytest.fixture(scope="module")
def setup():
    pkg = DDPackage(N)
    rng = np.random.default_rng(7)
    arr = rng.normal(size=1 << N) + 1j * rng.normal(size=1 << N)
    arr /= np.linalg.norm(arr)
    state_dd = vector_from_array(pkg, arr)
    gates = {"h_high": build_gate_dd(pkg, Gate("h", (N - 1,)))}
    return pkg, arr, state_dd, gates


def _dmav_gates(n: int) -> dict[str, Gate]:
    """One gate per DMAV bottom-out path (``dense_block_level`` 5, 4 threads).

    Every gate DD is windowed, as ``run()`` emits it.  ``rz`` (qubit n/2)
    is a Kronecker collapse over an identity base, ``rz_low`` and
    ``cz_low`` are diagonal windows (tiled to the dense block width),
    ``h_low``/``ry_q0``, ``h_q1`` and ``h_q2`` dense windows 2, 4 and 8
    wide, ``ry_high`` is a dense level above the block level over one
    identity subtree (2x2 matmul), ``cx`` and ``h_high`` act above the
    border level (task splitting), and ``cx_border`` (target n/2, control
    above the border) leaves an X level on the generic branch.
    """
    return {
        "h_low": Gate("h", (0,)),
        "h_q1": Gate("h", (1,)),
        "h_q2": Gate("h", (2,)),
        "h_high": Gate("h", (n - 1,)),
        "cx": Gate("cx", (0,), (n - 1,)),
        "rz": Gate("rz", (n // 2,), params=(0.4,)),
        "rz_low": Gate("rz", (2,), params=(0.4,)),
        "cz_low": Gate("cz", (3,), (1,)),
        "ry_q0": Gate("ry", (0,), params=(0.4,)),
        "ry_high": Gate("ry", (n // 2,), params=(0.4,)),
        "cx_border": Gate("cx", (n // 2,), (n - 1,)),
    }


@pytest.fixture(scope="module", params=[12, 16], ids=lambda n: f"n{n}")
def dmav_setup(request):
    n = request.param
    pkg = DDPackage(n)
    rng = np.random.default_rng(7)
    arr = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    arr /= np.linalg.norm(arr)
    gates = {
        name: build_gate_dd(pkg, gate, windowed=True)
        for name, gate in _dmav_gates(n).items()
    }
    return pkg, arr, gates


@pytest.mark.benchmark(group="kernel-dmav")
@pytest.mark.parametrize("gate", list(_dmav_gates(N)))
def test_dmav_nocache_kernel(benchmark, dmav_setup, gate):
    pkg, arr, gates = dmav_setup
    benchmark(dmav_nocache, pkg, gates[gate], arr, 4)


@pytest.mark.benchmark(group="kernel-dmav")
@pytest.mark.parametrize("gate", ["h_high", "cx"])
def test_dmav_cached_kernel(benchmark, dmav_setup, gate):
    pkg, arr, gates = dmav_setup
    benchmark(dmav_cached, pkg, gates[gate], arr, 4)


def _tile_local_gates(n: int) -> dict[str, Gate]:
    """The array kernel's shapes on perfbench's workloads (4 threads,
    border level n - 3), plus a two-target gate.

    ``sx`` and ``ry`` act on a low qubit (a dense window GEMM) and on the
    qubit under the border (a 2x2 pair), ``rz`` is a diagonal scale,
    ``cx`` and ``cz`` put the control under the target as dnn's and
    supremacy's do (slice views; a diagonal scale), and ``swap`` is a
    two-target dense window GEMM.  Across the border, each one call over
    the batch: ``h_above`` has its target above it (a 2x2 pair matmul
    over the row), ``cx_above`` its control (the slice with the control
    at 0 is copied), ``rz_above`` is a diagonal scale, ``cswap_across``
    swaps a qubit within the tile with one above it, as knn's cswaps do
    (permutation copies), and ``cz_top`` is a cz on the two top qubits,
    so every qubit sits above the border (the half with its control at 0
    is copied, the other half a diagonal scale).  ``cx_below`` puts the
    control under a target above the border and ``fsim_above`` is a
    two-target gate above the dense window: both are sums over target
    patterns, which skip the gate's zero entries.
    """
    return {
        "sx_low": Gate("sx", (0,)),
        "sx_high": Gate("sx", (n - 4,)),
        "ry_low": Gate("ry", (2,), params=(0.4,)),
        "ry_high": Gate("ry", (n - 4,), params=(0.4,)),
        "rz": Gate("rz", (n // 2,), params=(0.4,)),
        "cx": Gate("cx", (n // 2,), (n // 2 - 1,)),
        "cz": Gate("cz", (n // 2,), (n // 2 - 1,)),
        "swap": Gate("swap", (2, 1)),
        "h_above": Gate("h", (n - 1,)),
        "cx_above": Gate("cx", (n // 2,), (n - 1,)),
        "rz_above": Gate("rz", (n - 2,), params=(0.4,)),
        "cswap_across": Gate("cswap", (n // 2, n - 1), (0,)),
        "cz_top": Gate("cz", (n - 2,), (n - 1,)),
        "cx_below": Gate("cx", (n - 1,), (0,)),
        "fsim_above": Gate("fsim", (n // 2, n - 1), params=(0.4, 0.3)),
    }


def _row_gates(proto: Gate, rows: int) -> list[Gate]:
    """``proto`` once per row, a distinct angle per row for rotations."""
    return [
        Gate(
            proto.name, proto.targets, proto.controls,
            params=tuple(p + 0.1 * r for p in proto.params),
        )
        for r in range(rows)
    ]


@pytest.mark.benchmark(group="kernel-dmav-planned")
@pytest.mark.parametrize(
    "gate", list(_dmav_gates(N)) + [f"tl_{g}" for g in _tile_local_gates(N)]
)
def test_dmav_planned_step(benchmark, dmav_setup, gate):
    """One warm ``apply_plan`` step on a gate DD: its compiled plan, the
    cost model's cache verdict, arena buffers.  DMAV applies one gate
    DD's plan to ``run()``'s one row.  ``tl_*`` fixtures are the
    ``kernel-tile-local`` shapes, as gate DDs."""
    pkg, arr, _ = dmav_setup
    n = pkg.num_qubits
    threads = 4
    proto = (
        _tile_local_gates(n)[gate[3:]] if gate.startswith("tl_")
        else _dmav_gates(n)[gate]
    )
    plans = PlanCache(pkg, threads, CostModel(threads))
    row_plans = [plans.get(build_gate_dd(pkg, proto, windowed=True))]
    arena = BufferArena(1 << n)
    v = arr.reshape(1, -1)
    out, _ = arena.output()
    buffers = arena.partials(row_plans[0].assignment.num_buffers)
    benchmark(
        apply_plan, pkg, row_plans, v, out, threads, None, 5,
        buffers=buffers,
    )


@pytest.mark.benchmark(group="kernel-tile-local")
@pytest.mark.parametrize("rows", [1, 8], ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("gate", list(_tile_local_gates(N)))
def test_tile_local_step(benchmark, dmav_setup, gate, rows):
    """One unfused step as ``dmav_phase`` takes it: the gate applied from
    its matrix over the row-major batch (a distinct angle per row for
    the rotations), no gate DD or plan."""
    pkg, arr, _ = dmav_setup
    n = pkg.num_qubits
    threads = 4
    gates = _row_gates(_tile_local_gates(n)[gate], rows)
    v = np.tile(arr, (rows, 1))
    out = np.empty_like(v)
    benchmark(apply_tile_local, gates, v, out, threads, None, 5)


@pytest.fixture(scope="module", params=["supremacy", "dnn"])
def phase_setup(request):
    """A 12-qubit circuit run with conversion at gate 0: its config,
    package, DMAV steps as the run applied them (unfused, every gate as
    itself) and final state."""
    cfg = FlatDDConfig(threads=4, force_convert_at=0)
    result = FlatDDSimulator(cfg).run(
        get_circuit(request.param, N), keep_internals=True
    )
    meta = result.metadata
    return cfg, meta["package"], meta["dmav_steps"], result.state


@pytest.mark.benchmark(group="kernel-dmav-phase")
@pytest.mark.parametrize("rows", [1, 8], ids=lambda r: f"rows{r}")
def test_dmav_phase(benchmark, phase_setup, rows):
    """One ``dmav_phase`` over every emitted gate, as ``run()`` (one row)
    and a sweep group (eight rows repeating the steps) take it: a cold
    plan cache and arena per call, the rows==1 path being the dispatch
    floor of small circuits."""
    cfg, pkg, steps, state = phase_setup
    batch = np.tile(state, (rows, 1))
    # The phase recycles its input as scratch; any unit state times alike.
    benchmark(
        dmav_phase, cfg, pkg, None, batch, [steps] * rows, 0, 0,
        MemoryGuard(None), MemoryMeter(), MetricsRegistry(), {}, None,
    )


@pytest.mark.benchmark(group="kernel-array")
@pytest.mark.parametrize(
    "gate",
    [Gate("h", (0,)), Gate("h", (N - 1,)), Gate("cx", (0,), (N - 1,))],
    ids=["h_low", "h_high", "cx"],
)
def test_array_apply_kernel(benchmark, gate):
    # Own state: apply_gate_array mutates in place, and unitarity keeps the
    # repeated application numerically stable across benchmark rounds.
    rng = np.random.default_rng(11)
    arr = rng.normal(size=1 << N) + 1j * rng.normal(size=1 << N)
    arr /= np.linalg.norm(arr)

    def run():
        apply_gate_array(arr, gate)

    benchmark(run)


@pytest.mark.benchmark(group="kernel-ddmv")
def test_dd_mv_multiply_kernel(benchmark, setup):
    pkg, _, state_dd, gates = setup

    def run():
        pkg.clear_compute_tables()
        return mv_multiply(pkg, gates["h_high"], state_dd)

    benchmark(run)


@pytest.mark.benchmark(group="kernel-convert")
def test_conversion_kernel(benchmark, setup, threads):
    pkg, arr, state_dd, _ = setup
    out, _ = benchmark(convert_parallel, pkg, state_dd, threads)
    np.testing.assert_allclose(out, arr, atol=1e-9)


@pytest.mark.benchmark(group="kernel-build")
def test_vector_from_array_kernel(benchmark):
    rng = np.random.default_rng(9)
    arr = rng.normal(size=1 << N) + 1j * rng.normal(size=1 << N)

    def run():
        pkg = DDPackage(N)
        return vector_from_array(pkg, arr)

    benchmark(run)


@pytest.mark.benchmark(group="kernel-build")
def test_gate_dd_build_kernel(benchmark):
    pkg = DDPackage(N)
    gate = Gate("u3", (3,), params=(0.3, 0.7, 1.1))

    def run():
        return build_gate_dd(pkg, gate)

    benchmark(run)


def _gate_builds(n: int) -> dict:
    """One windowed gate-DD build per branch of the direct builder.

    ``h`` and ``rz_top`` (the root qubit) fold one target; ``cx_down``
    (control above the target) wraps a single entry through its untouched
    and control levels, ``cx_up`` (control below) a 2x2 grid; ``ccx`` has
    a control on each side of its target, ``cswap`` carries a 4x4 grid
    from its middle control through two target folds.  No library gate
    is asymmetric under exchanging its targets, so a random dense 4x4
    (``controlled_gate`` directly) covers both fold orders.
    """
    gates = {
        "h": Gate("h", (n // 2,)),
        "rz_top": Gate("rz", (n - 1,), params=(0.4,)),
        "cx_down": Gate("cx", (1,), (n - 2,)),
        "cx_up": Gate("cx", (n - 2,), (1,)),
        "ccx": Gate("ccx", (n // 2,), (0, n - 1)),
        "cswap": Gate("cswap", (n - 1, 2), (n // 2,)),
    }
    builds = {
        name: (lambda pkg, g=gate: build_gate_dd(pkg, g, windowed=True))
        for name, gate in gates.items()
    }
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    )
    for name, targets in (("u4_hi_lo", (n - 2, 1)), ("u4_lo_hi", (1, n - 2))):
        builds[name] = (
            lambda pkg, t=targets: controlled_gate(pkg, u, t, (), top=n - 2)
        )
    return builds


@pytest.mark.benchmark(group="kernel-gate-build")
@pytest.mark.parametrize("n", [12, 16], ids=lambda n: f"n{n}")
@pytest.mark.parametrize("kind", list(_gate_builds(N)))
def test_gate_dd_build_cold(benchmark, kind, n):
    """One cold windowed build: a fresh package per round, holding only
    the identity chain every run builds first, so each of the gate's own
    nodes is created."""
    build = _gate_builds(n)[kind]

    def fresh_package():
        pkg = DDPackage(n)
        pkg.identity_edge(n - 1)
        return (pkg,), {}

    edge = benchmark.pedantic(build, setup=fresh_package, rounds=100)
    assert not edge.is_zero
