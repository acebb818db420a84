"""Measurement utilities: analytic memory model and statistics."""

from repro.metrics.memory import MemoryMeter, array_bytes, dd_bytes, state_array_bytes
from repro.metrics.stats import geometric_mean, normalize, ratio_string, speedups

__all__ = [
    "MemoryMeter",
    "array_bytes",
    "dd_bytes",
    "geometric_mean",
    "normalize",
    "ratio_string",
    "speedups",
    "state_array_bytes",
]
