"""Unit tests for the EWMA conversion monitor (Section 3.1.1)."""

import pytest

from repro.core.ewma import EWMAMonitor


class TestEquationFour:
    def test_recurrence_matches_paper(self):
        m = EWMAMonitor(beta=0.5, bias_correction=False, min_size=0)
        m.update(10)  # v1 = 0.5*0 + 0.5*10 = 5
        m.update(20)  # v2 = 0.5*5 + 0.5*20 = 12.5
        assert m.value == pytest.approx(12.5)

    def test_bias_correction_starts_at_first_sample(self):
        m = EWMAMonitor(beta=0.9)
        m.update(100)
        assert m.value == pytest.approx(100.0)

    def test_converges_to_constant_signal(self):
        m = EWMAMonitor(beta=0.9)
        for _ in range(200):
            m.update(50)
        assert m.value == pytest.approx(50.0, rel=1e-6)


class TestTrigger:
    def test_constant_dd_size_never_triggers(self):
        m = EWMAMonitor(beta=0.9, epsilon=2.0)
        assert not any(m.update(100) for _ in range(100))

    def test_linear_growth_never_triggers(self):
        # GHZ-like: s_i = 2i + 1 grows too slowly for epsilon = 2.
        m = EWMAMonitor(beta=0.9, epsilon=2.0)
        assert not any(m.update(2 * i + 1) for i in range(1, 200))

    def test_exponential_growth_triggers(self):
        # DNN-like DD blow-up: s doubles per gate.
        m = EWMAMonitor(beta=0.9, epsilon=2.0)
        fired = [m.update(2 ** i) for i in range(1, 15)]
        assert any(fired)

    def test_min_size_floor_suppresses_tiny_dds(self):
        m = EWMAMonitor(beta=0.9, epsilon=2.0, min_size=32)
        # Doubling but still microscopic: 1, 2, 4, 8, 16 never fire.
        assert not any(m.update(2 ** i) for i in range(5))

    def test_step_jump_triggers_immediately(self):
        m = EWMAMonitor(beta=0.9, epsilon=2.0, min_size=0)
        for _ in range(50):
            m.update(10)
        assert m.update(1000)

    def test_larger_epsilon_is_more_tolerant(self):
        def first_trigger(epsilon):
            m = EWMAMonitor(beta=0.9, epsilon=epsilon)
            for i in range(1, 30):
                if m.update(int(1.6 ** i) + 1):
                    return i
            return None

        tight = first_trigger(1.2)
        loose = first_trigger(4.0)
        assert tight is not None
        assert loose is None or loose >= tight


class TestBookkeeping:
    def test_reset_clears_state(self):
        m = EWMAMonitor()
        m.update(500)
        m.reset()
        assert m.value == 0.0
        # A fresh average starts at its first sample again.
        assert not m.update(500)
        assert m.value == pytest.approx(500.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            from repro.common.config import FlatDDConfig

            FlatDDConfig(beta=1.5)
        with pytest.raises(ValueError):
            from repro.common.config import FlatDDConfig

            FlatDDConfig(epsilon=0)
