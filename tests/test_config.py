"""Tests for configuration objects and the error hierarchy."""

import pytest

from repro.common.config import (
    AMPLITUDE_BYTES,
    CTABLE_ENTRY_BYTES,
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    MNODE_BYTES,
    TOLERANCE,
    VNODE_BYTES,
    FlatDDConfig,
)
from repro.common.errors import (
    CircuitError,
    DDError,
    ParallelError,
    QasmError,
    ReproError,
    SimulationError,
)


class TestFlatDDConfig:
    def test_defaults_match_paper(self):
        cfg = FlatDDConfig()
        assert cfg.beta == DEFAULT_BETA == 0.9
        assert cfg.epsilon == DEFAULT_EPSILON == 2.0
        assert cfg.fusion == "none"

    def test_frozen(self):
        cfg = FlatDDConfig()
        with pytest.raises(AttributeError):
            cfg.threads = 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.1}, {"beta": 1.0}, {"epsilon": 0.0},
            {"qubit_order": "random"}, {"fusion": "maybe"},
            {"force_convert_at": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlatDDConfig(**kwargs)

    def test_valid_customization(self):
        cfg = FlatDDConfig(
            beta=0.5, epsilon=3.0, threads=8, fusion="cost",
            qubit_order="sift", force_convert_at=6,
        )
        assert cfg.threads == 8
        assert cfg.force_convert_at == 6


class TestMemoryConstants:
    def test_struct_sizes_ordered(self):
        # A matrix node (4 edges) must be priced above a vector node (2).
        assert MNODE_BYTES > VNODE_BYTES > 0
        assert AMPLITUDE_BYTES == 16
        assert CTABLE_ENTRY_BYTES > 0

    def test_tolerance_sane(self):
        assert 0 < TOLERANCE < 1e-6


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [CircuitError, DDError, ParallelError, QasmError,
                SimulationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_qasm_error_line_prefix(self):
        err = QasmError("bad token", line=17)
        assert err.line == 17
        assert "line 17" in str(err)

    def test_qasm_error_without_line(self):
        err = QasmError("bad token")
        assert err.line is None
        assert str(err) == "bad token"
