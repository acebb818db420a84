"""EWMA-based conversion timing (Section 3.1.1, Equation 4).

While simulating in the DD phase, FlatDD assigns gate ``i`` an EWMA value

    v_i = beta * v_{i-1} + (1 - beta) * s_i

over the state DD's node count ``s_i``, and converts to DMAV at the first
gate where ``epsilon * v_i < s_i`` -- i.e. when the DD size jumps well above
its recent history, signalling that the state has turned irregular.

Implementation note (documented deviation): taken literally with
``v_0 = 0``, Equation 4 gives ``v_1 = (1-beta) * s_1``, so with the paper's
beta=0.9, epsilon=2 *every* circuit would convert at its first gate --
contradicting the paper's own observation that FlatDD never leaves the DD
phase on Adder/GHZ.  We apply the standard startup bias correction from the
EWMA literature the paper cites [59] (divide by ``1 - beta**i``), which
makes the corrected average start at ``s_1`` and reproduces the reported
behaviour: steady or linearly growing DD sizes never trigger, exponential
growth triggers within a few gates.  A ``min_size`` floor additionally
skips conversion while the DD is too small for DMAV to matter.

The monitor keeps no per-gate history: the DD phase records each gate's
DD size and EWMA value on its :class:`~repro.backends.base.GateRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import DEFAULT_BETA, DEFAULT_EPSILON

__all__ = ["EWMAMonitor"]


@dataclass
class EWMAMonitor:
    """Streaming conversion-trigger detector over DD sizes."""

    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    #: Do not trigger while the DD has fewer nodes than this (conversion to
    #: a flat array is pointless for tiny DDs).
    min_size: int = 32
    bias_correction: bool = True
    _v: float = field(default=0.0, init=False, repr=False)
    _i: int = field(default=0, init=False, repr=False)

    def update(self, dd_size: int) -> bool:
        """Feed gate i's DD size; return True if conversion should happen."""
        self._i += 1
        self._v = self.beta * self._v + (1.0 - self.beta) * dd_size
        return dd_size >= self.min_size and self.epsilon * self.value < dd_size

    @property
    def value(self) -> float:
        """Current (bias-corrected) moving average."""
        if self._i == 0:
            return 0.0
        if self.bias_correction:
            return self._v / (1.0 - self.beta ** self._i)
        return self._v

    def reset(self) -> None:
        self._v = 0.0
        self._i = 0

    def state_dict(self) -> dict:
        """Exact internal state for checkpointing (``_v`` as ``float.hex``).

        Trigger decisions after a resume must match the uninterrupted run
        bit for bit, so the accumulator round-trips exactly.
        """
        return {"v": self._v.hex(), "i": self._i}

    def restore_state(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._v = float.fromhex(payload["v"])
        self._i = int(payload["i"])
