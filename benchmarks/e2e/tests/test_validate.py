"""The manifest validator: the contract's rules and the two-way name check."""

import copy
import json

import pytest

from benchmarks.e2e import metrics, validate


def test_the_committed_manifest_is_valid():
    assert validate.check_manifest() == []


def test_issue_counts():
    assert len(metrics.WORKLOADS) == 5
    assert len(metrics.PER_LAYER) == 59        # 58 + demoted failed_share
    assert "setup_s" in metrics.END_TO_END_NAMES
    assert metrics.manifest()["paths"] == ["benchmarks/e2e"]


def _broken(edit):
    doc = copy.deepcopy(metrics.manifest())
    edit(doc)
    return validate.contract_problems(doc)


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.update(claim=None), "exactly the keys"),
    (lambda d: d["paths"].append("../elsewhere"), "plain relative path"),
    (lambda d: d["paths"].append("benchmarks/missing"), "does not exist"),
    (lambda d: d["command"].append("/usr/bin/env"), "leads out of the repo"),
    (lambda d: d["command"].append("src"), "outside paths"),
    (lambda d: d.update(run_seconds=61), "whole number from 1 to 60"),
    (lambda d: d.update(run_seconds=True), "whole number from 1 to 60"),
    (lambda d: d.update(run_seconds=31), "cannot fit"),
    (lambda d: d.update(workloads=d["workloads"][:1]), "2 to 8"),
    (lambda d: d["workloads"][0].update(why="two\nlines"), "one line"),
    (lambda d: d["workloads"][0].update(extra=1), "exactly the keys"),
    (lambda d: d["end_to_end"][1].update(bound=0.3), "bound of"),
    (lambda d: d["end_to_end"][1].update(bound=0), "bound of"),
    (lambda d: d["end_to_end"].pop(0), "need setup_s"),
    (lambda d: d["per_layer"][0].update(bound=0.1), "exactly the keys"),
    (lambda d: d["per_layer"][0].update(unit="milli seconds"), "unit of"),
    (lambda d: d["per_layer"][0].update(better="faster"), "lower or higher"),
    (lambda d: d["per_layer"][0].update(name="-dash-first"), "malformed"),
    (lambda d: d["per_layer"][0].update(name="x" * 65), "malformed"),
    (lambda d: d["per_layer"][0].update(name="ops_per_s"), "used twice"),
    (lambda d: d.update(per_layer=d["per_layer"] * 3), "1 to 128"),
])
def test_contract_breaches_are_reported(edit, needle):
    problems = _broken(edit)
    assert any(needle in p for p in problems), problems


def test_manifest_that_drifts_from_the_table_is_refused(tmp_path):
    doc = metrics.manifest()
    doc["end_to_end"][1]["bound"] = 0.05
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(doc))
    assert any("differs" in p for p in validate.check_manifest(path))
    path.write_text("{not json")
    assert any("not JSON" in p for p in validate.check_manifest(path))
    path.write_text(json.dumps(doc) + " " * validate.MAX_BYTES)
    assert any("larger" in p for p in validate.check_manifest(path))


def test_interaction_table_names_real_metrics_and_workloads():
    assert validate.table_problems() == []
    for m in metrics.PER_LAYER:
        assert m.moves in metrics.END_TO_END_NAMES
        assert set(m.on) <= set(metrics.WORKLOAD_NAMES)


def _result(names):
    return {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {n: {"value": 1.5, "unit": metrics.UNITS[n]}
                    for n in names},
    }


def test_name_check_is_two_way():
    good = _result(metrics.END_TO_END_NAMES)
    assert validate.result_problems(good, trace=False) == []
    assert validate.result_problems(
        _result(metrics.PER_LAYER_NAMES), trace=True
    ) == []

    missing = _result(metrics.END_TO_END_NAMES[1:])
    assert validate.result_problems(missing, trace=False) == [
        "declared but not printed: setup_s"
    ]
    extra = copy.deepcopy(good)
    extra["metrics"]["surprise"] = {"value": 1, "unit": "s"}
    assert validate.result_problems(extra, trace=False) == [
        "printed but not declared: surprise"
    ]
    wrong_unit = copy.deepcopy(good)
    wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
    assert any("unit" in p
               for p in validate.result_problems(wrong_unit, trace=False))
    zero_attempted = dict(good, attempted=0)
    assert validate.result_problems(zero_attempted, trace=False)
