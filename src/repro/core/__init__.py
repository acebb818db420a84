"""FlatDD core: EWMA trigger, conversion, DMAV, cost model, fusion."""

from repro.core.conversion import (
    ConversionPlan,
    ConversionReport,
    convert_ddsim_scalar,
    convert_parallel,
    convert_sequential,
    plan_conversion,
)
from repro.core.cost_model import (
    CacheAssignment,
    CostModel,
    GateCost,
    assign_cache_tasks,
    mac_count,
)
from repro.core.dmav import (
    DMAVStats,
    assign_tasks,
    dmav_cached,
    dmav_nocache,
    run_border_task_batch,
)
from repro.core.ewma import EWMAMonitor
from repro.core.fusion import (
    FusionResult,
    fuse_cost_aware,
    fuse_k_operations,
    identity_levels,
)
from repro.core.simulator import FlatDDSimulator
from repro.core.sweep import SweepResult, run_sweep

__all__ = [
    "CacheAssignment",
    "ConversionPlan",
    "ConversionReport",
    "CostModel",
    "DMAVStats",
    "EWMAMonitor",
    "FlatDDSimulator",
    "FusionResult",
    "GateCost",
    "SweepResult",
    "assign_cache_tasks",
    "assign_tasks",
    "convert_ddsim_scalar",
    "convert_parallel",
    "convert_sequential",
    "dmav_cached",
    "dmav_nocache",
    "fuse_cost_aware",
    "fuse_k_operations",
    "identity_levels",
    "mac_count",
    "plan_conversion",
    "run_border_task_batch",
    "run_sweep",
]
