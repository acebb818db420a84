"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import StatevectorSimulator
from repro.circuits import Circuit, get_circuit
from repro.core.cost_model import CostModel, GateCost
from repro.dd import DDPackage


def pytest_configure(config):
    # Registered in pyproject.toml too; duplicated here so the suite works
    # under a bare pytest invocation that misses the ini (e.g. rootdir
    # confusion in CI sandboxes).
    config.addinivalue_line(
        "markers", "serve: exercises the repro.serve batch simulation service"
    )


def pytest_collection_modifyitems(config, items):
    """Everything not explicitly marked ``slow`` belongs to tier 1.

    Keeping the tier-1 marker implicit means new tests join the fast
    default tier automatically; only opting *out* (``slow``) is explicit.
    ``serve`` tests follow the same rule: fast ones ride in tier 1, and
    the long-running service stress tests carry ``slow`` as well, so the
    default run skips them while ``-m serve`` selects the whole family.
    """
    for item in items:
        if "slow" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def pkg3() -> DDPackage:
    return DDPackage(3)


@pytest.fixture
def pkg4() -> DDPackage:
    return DDPackage(4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_state(n: int, seed: int = 0) -> np.ndarray:
    """A normalized random complex state on n qubits."""
    g = np.random.default_rng(seed)
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, seed: int = 0) -> np.ndarray:
    """A random ``dim x dim`` unitary (the Q factor of a complex matrix)."""
    g = np.random.default_rng(seed)
    q, _ = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    return q


def reference_state(circuit: Circuit) -> np.ndarray:
    """Final state via the simplest baseline (reshape-mode statevector)."""
    return StatevectorSimulator(mode="reshape").run(circuit).state


def assert_states_close(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> None:
    """Exact (not global-phase-free) state comparison."""
    np.testing.assert_allclose(a, b, atol=atol, rtol=0)


@dataclasses.dataclass(frozen=True)
class _ForcedVerdict(GateCost):
    """A gate DD's Eq. 5-6 prices with its DMAV variant fixed."""

    forced: bool = False

    @property
    def use_cache(self) -> bool:
        return self.forced


def force_dmav_verdict(monkeypatch, policy: str) -> None:
    """Fix the simulator's DMAV variant for every gate DD: Algorithm 2
    ("always"), Algorithm 1 ("never"), or Eq. 6's own pick ("auto").

    Patches the plans' cost model only: the C1/C2 prices, fusion and the
    recorded ``dmav_gate_costs`` figures stay the model's, and tile-local
    gates (no gate DD) keep Algorithm 1.  Eq. 6 almost never caches an
    unfused gate DD, so "always" is how a test drives Algorithm 2 there.
    """
    if policy == "auto":
        return
    forced = policy == "always"

    class Forced(CostModel):
        def evaluate_assignment(self, pkg, m, assignment):
            cost = super().evaluate_assignment(pkg, m, assignment)
            return _ForcedVerdict(**dataclasses.asdict(cost), forced=forced)

    monkeypatch.setattr("repro.core.simulator.CostModel", Forced)


def assert_same_quantum_state(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> None:
    """Fidelity-based comparison, insensitive to global phase."""
    fidelity = abs(np.vdot(a, b)) ** 2
    assert fidelity == pytest.approx(1.0, abs=atol)


SMALL_WORKLOADS = [
    ("ghz", 6, {}),
    ("adder", 6, {}),
    ("wstate", 5, {}),
    ("qft", 5, {}),
    ("dnn", 5, {"layers": 3}),
    ("vqe", 5, {}),
    ("supremacy", 6, {"cycles": 6}),
    ("swaptest", 5, {}),
    ("knn", 7, {}),
    ("random", 6, {"gates": 40}),
]


@pytest.fixture(params=SMALL_WORKLOADS, ids=lambda w: f"{w[0]}_n{w[1]}")
def small_circuit(request) -> Circuit:
    family, n, kwargs = request.param
    return get_circuit(family, n, **kwargs)
