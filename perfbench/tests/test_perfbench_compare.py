"""Seed provenance: records of different inputs are never compared."""

from __future__ import annotations

import copy
import json

import pytest

import compare


def _record(**over):
    rec = {
        "workload": "dd_regular",
        "seed": 1,
        "trace": 0,
        "circuits": {"ghz-20": ["aa"], "qft-18": ["bb"]},
        "metrics": {
            "flatdd_s.p50": {"value": 1.0, "unit": "s"},
            "ok_frac": {"value": 1.0, "unit": "ratio"},
        },
        "work": {"ghz-20": {"dd.nodes_created": 40}},
    }
    rec.update(over)
    return rec


BOUNDS = {
    "flatdd_s.p50": {"name": "flatdd_s.p50", "better": "lower", "bound": 0.2},
    "ok_frac": {"name": "ok_frac", "better": "higher", "bound": 0.01},
}


def test_different_fingerprints_are_refused():
    other = _record(circuits={"ghz-20": ["aa"], "qft-18": ["cc"]})
    with pytest.raises(compare.ComparisonRefused, match="qft-18"):
        compare.compare(_record(), other, BOUNDS)


@pytest.mark.parametrize("key,value", [("seed", 2), ("workload", "sweep"),
                                       ("trace", 1)])
def test_different_inputs_are_refused(key, value):
    with pytest.raises(compare.ComparisonRefused, match=key):
        compare.compare(_record(), _record(**{key: value}), BOUNDS)


def test_regression_beyond_the_bound_is_flagged():
    new = copy.deepcopy(_record())
    new["metrics"]["flatdd_s.p50"]["value"] = 1.3
    out = compare.compare(_record(), new, BOUNDS)
    assert out["regressions"] == ["flatdd_s.p50"]
    new["metrics"]["flatdd_s.p50"]["value"] = 1.1
    new["metrics"]["ok_frac"]["value"] = 0.5
    assert compare.compare(_record(), new, BOUNDS)["regressions"] == ["ok_frac"]


def test_cli_exit_codes(tmp_path):
    base, same, drifted, other = (tmp_path / f"{n}.json" for n in "abcd")
    base.write_text(json.dumps(_record()))
    same.write_text(json.dumps(_record()))
    drifted.write_text(
        json.dumps(_record(work={"ghz-20": {"dd.nodes_created": 41}}))
    )
    other.write_text(json.dumps(_record(circuits={"ghz-20": ["zz"]})))
    assert compare.main([str(base), str(same), "--same-code"]) == 0
    assert compare.main([str(base), str(drifted), "--same-code"]) == 3
    assert compare.main([str(base), str(drifted)]) == 0
    assert compare.main([str(base), str(other)]) == 2
