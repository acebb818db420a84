"""Micro-benchmarks for the core kernels (pytest-benchmark groups).

Not a paper artifact; these watch the building blocks the experiments rest
on: DD gate application, DMAV, conversion, array-backend gate application,
and DD construction.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends import apply_gate_array
from repro.backends.gatecache import build_gate_dd
from repro.circuits import Gate
from repro.core.conversion import convert_parallel
from repro.core.cost_model import CostModel
from repro.core.dmav import dmav_cached, dmav_nocache
from repro.core.plan import PlanCache
from repro.core.simulator import apply_plan, plan_uses_cache
from repro.dd import (
    DDPackage,
    mv_multiply,
    vector_from_array,
    vector_to_array,
    zero_state,
)
from repro.parallel.arena import BufferArena

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

    ``rz`` (qubit n/2) is a Kronecker collapse over an identity base,
    ``rz_low`` and ``cz_low`` collapse over a diagonal base, ``h_low`` and
    ``ry_q0`` over a dense base with an all-ones scale, ``ry_high`` is a
    dense level above the block level over one identity subtree (2x2
    matmul), ``cx`` and ``h_high`` act above the border level (task
    splitting), and ``cx_border`` (target n/2, control above the border)
    leaves an X level on the generic branch.
    """
    return {
        "h_low": Gate("h", (0,)),
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
        name: build_gate_dd(pkg, gate)
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


@pytest.mark.benchmark(group="kernel-dmav-planned")
@pytest.mark.parametrize("rows", [1, 8], ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("gate", list(_dmav_gates(N)))
def test_dmav_planned_step(benchmark, dmav_setup, gate, rows):
    """One ``apply_plan`` step, as ``run()`` (one row) and a sweep row
    block (eight rows, a distinct angle per row for the rotations) take
    it: compiled plans, the cost model's cache verdict, arena buffers."""
    pkg, arr, _ = dmav_setup
    n = pkg.num_qubits
    threads = 4
    proto = _dmav_gates(n)[gate]
    plans = PlanCache(pkg, threads, CostModel(threads), 5)
    row_plans = [
        plans.get(build_gate_dd(pkg, Gate(
            proto.name, proto.targets, proto.controls,
            params=tuple(p + 0.1 * r for p in proto.params),
        )))
        for r in range(rows)
    ]
    use_cache = plan_uses_cache("auto", row_plans[0])
    arena = BufferArena(1 << n, rows=rows, tiles=threads)
    v = np.repeat(arr.reshape(threads, 1, -1), rows, axis=1)
    out, _ = arena.output()
    buffers = arena.partials(row_plans[0].assignment.num_buffers)
    benchmark(
        apply_plan, pkg, row_plans, use_cache, v, out, threads, None, 5,
        buffers=buffers,
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
