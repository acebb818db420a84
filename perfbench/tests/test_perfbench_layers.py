"""Traced-run hygiene and self-time attribution of ``layers.LayerTrace``."""

from __future__ import annotations

import time

import pytest

import layers
import run
from layers import LayerTrace, _current, entry_points, wrapped_names
from repro import FlatDDSimulator, get_circuit


@pytest.fixture(scope="module")
def circuit():
    return get_circuit("supremacy", 10, cycles=8, seed=4)


def _originals():
    return {(id(owner), attr): _current(owner, attr)
            for _layer, owner, attr in entry_points()}


def test_wrappers_installed_only_inside_and_originals_restored(circuit):
    before = _originals()
    assert wrapped_names() == []
    with LayerTrace():
        assert len(wrapped_names()) == len(before)
        FlatDDSimulator().run(circuit)
    after = _originals()
    assert after.keys() == before.keys()
    for key, fn in before.items():
        assert after[key] is fn
    assert wrapped_names() == []


def test_originals_restored_when_the_traced_pass_raises(circuit):
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with LayerTrace():
            1 / 0
    assert _originals() == before


def test_untraced_pass_never_sees_a_wrapper(circuit):
    lt = LayerTrace()
    with lt:
        FlatDDSimulator().run(circuit)
    calls = dict(lt.calls)
    assert calls["dd.mv"] > 0 and calls["core.dmav"] > 0
    FlatDDSimulator().run(circuit)
    FlatDDSimulator().simulate_sweep(circuit, [circuit.extract_params()])
    assert dict(lt.calls) == calls


def test_untraced_timing_refuses_installed_wrappers():
    with LayerTrace():
        with pytest.raises(RuntimeError, match="sees wrappers"):
            run.end_to_end(None, None, None, None, 0.0, 0.0)
        with pytest.raises(RuntimeError, match="sees wrappers"):
            run.per_layer(None, None, None, None, 0.0)


def test_nested_layers_count_self_time_once():
    lt = LayerTrace()
    inner = lt._wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = lt._wrap("outer", body)
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    assert lt.calls == {"outer": 1, "inner": 1}
    assert lt.self_s["inner"] >= 0.02
    assert 0.01 <= lt.self_s["outer"] < 0.02
    assert lt.self_s["outer"] + lt.self_s["inner"] <= wall


def test_probed_counts_match_the_run_public_outputs(circuit):
    with LayerTrace() as lt:
        result = FlatDDSimulator().run(circuit)
    meta = result.metadata
    assert meta["converted"]
    assert lt.calls["core.ewma"] == meta["dd_phase_gates"]
    assert lt.calls["dd.mv"] == meta["dd_phase_gates"]
    assert lt.counts["core.plan.macs"] == meta["dmav_macs_total"]
    assert lt.counts["backends.gatecache.hits"] == meta["gate_dd_cache_hits"]
    assert lt.calls["backends.gatecache"] == (
        meta["gate_dd_cache_hits"] + meta["gate_dd_cache_misses"]
    )
    n_cached = sum(1 for gc in meta["dmav_gate_costs"] if gc[3])
    assert lt.counts["core.plan.cached"] == n_cached


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    rounds = [
        {"wall": 1.0, "self_s": {"dd.mv": 0.5, "core.dmav": 0.25},
         "counts": {"dd.mv.calls": 3}},
        {"wall": 2.0, "self_s": {"dd.mv": 0.5, "obs": 0.5},
         "counts": {"dd.mv.calls": 3}},
    ]
    m = run.layer_metrics(rounds, untraced_wall=1.2, traced_wall=1.5)
    total = sum(m[f"{layer}.self_s"][0] for layer in run.TIMED_LAYERS)
    assert total + m["unattributed_s"][0] == pytest.approx(m["trace.wall_s"][0])
    assert m["trace.wall_s"][0] == pytest.approx(1.5)
    assert m["trace.overhead_frac"][0] == pytest.approx(0.25)
    assert m["dd.mv.calls"][0] == 3


def test_every_layer_has_an_entry_point():
    assert set(layers.LAYERS) == set(run.TIMED_LAYERS)
