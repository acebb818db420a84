"""Per-layer attribution for the traced benchmark run.

:class:`LayerTrace` temporarily replaces the public entry points that the
two orchestrators (``repro.core.simulator`` and ``repro.core.sweep``)
call with timing wrappers, and restores the originals on exit.  Module
functions are patched in the orchestrator's own namespace (they were
imported there by name); methods are patched on their class.  Calls made
from anywhere else -- inside a kernel, or by a baseline backend while no
trace is active -- are not attributed.

Self time uses a call stack: a layer's self time is its wall time minus
the wall time of wrapped calls nested inside it, so nested layers never
count twice and the traced wall splits exactly into layer self times
plus ``unattributed``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

__all__ = ["LAYERS", "LayerTrace", "entry_points", "wrapped_names"]

#: Attribute set on every wrapper, so a stray one can be detected.
MARK = "__perfbench_layer__"

#: Layer name -> entry points, as ``(owner, attribute)`` paths.  An owner is
#: a module (``repro.core.simulator``) or a class (``module:Class``).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "dd.mv": [
        ("repro.core.simulator", "mv_multiply"),
        ("repro.core.sweep", "mv_multiply"),
    ],
    "dd.node_count": [
        ("repro.core.simulator", "node_count"),
        ("repro.core.sweep", "node_count"),
    ],
    "backends.gatecache": [("repro.backends.gatecache:GateDDCache", "get")],
    "core.reorder": [
        ("repro.core.simulator", "plan_qubit_order"),
        ("repro.core.sweep", "plan_qubit_order"),
    ],
    "core.ewma": [("repro.core.ewma:EWMAMonitor", "update")],
    "core.conversion": [
        ("repro.core.simulator", "convert_parallel"),
        ("repro.core.sweep", "convert_parallel"),
    ],
    "core.plan": [("repro.core.plan:PlanCache", "get")],
    "core.dmav": [
        ("repro.core.simulator", "dmav_nocache"),
        ("repro.core.simulator", "dmav_cached"),
        ("repro.core.sweep", "dmav_nocache"),
        ("repro.core.sweep", "dmav_cached"),
        ("repro.core.sweep", "run_border_task_batch"),
    ],
    "obs": [
        ("repro.core.simulator", "build_obs"),
        ("repro.core.simulator", "dd_bytes"),
        ("repro.core.sweep", "dd_bytes"),
    ],
}


def _owner(path: str):
    mod_name, _, cls_name = path.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


def entry_points() -> list[tuple[str, object, str]]:
    """``(layer, owner object, attribute)`` for every wrapped name."""
    return [
        (layer, _owner(path), attr)
        for layer, points in LAYERS.items()
        for path, attr in points
    ]


def _current(owner, attr):
    # Class attributes are read from __dict__ so a method is seen as the
    # plain function stored on the class, not a bound or unbound wrapper.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def wrapped_names() -> list[str]:
    """Entry points currently replaced by a wrapper (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _layer, owner, attr in entry_points()
        if hasattr(_current(owner, attr), MARK)
    ]


def _gatecache_probe(args):
    cache = args[0]
    misses = cache.misses
    return lambda _edge: {"hits": int(cache.misses == misses)}


def _plan_probe(_args):
    return lambda plan: {
        "macs": plan.cost.macs_total,
        "cached": int(plan.cost.use_cache),
    }


#: Layers whose wrapper also reads work counts off the call.  The gate
#: cache reports hits only through its instance counters, and a sweep
#: exposes neither MACs nor cache verdicts, so they are read here from
#: the cache and from the returned plan.
PROBES = {"backends.gatecache": _gatecache_probe, "core.plan": _plan_probe}


class LayerTrace:
    """Context manager: install the wrappers, accumulate, restore."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Extra counts from probes, keyed ``"<layer>.<count>"``.
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        probe = PROBES.get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            finish = probe(args) if probe is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[layer] += dt - child
                calls[layer] += 1
                if stack:
                    stack[-1] += dt
            if finish is not None:
                for key, val in finish(result).items():
                    counts[f"{layer}.{key}"] += val
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def __enter__(self) -> "LayerTrace":
        if self._saved:
            raise RuntimeError("LayerTrace is already installed")
        try:
            for layer, owner, attr in entry_points():
                original = _current(owner, attr)
                if hasattr(original, MARK):
                    raise RuntimeError(f"{owner}.{attr} is already wrapped")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
