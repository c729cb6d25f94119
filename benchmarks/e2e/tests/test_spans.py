"""Span self-time arithmetic and adoption of the engine's span tree."""

import json

import pytest

from benchmarks.e2e.spans import SpanRecorder


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    root = rec.add("call", 0.000, 0.010, op=1)
    rec.add("a", 0.001, 0.004, parent=root, op=1)
    rec.add("b", 0.003, 0.006, parent=root, op=1)     # overlaps a by 1 ms
    rec.add("late", 0.009, 0.012, parent=root, op=1)  # clipped to the parent
    own = rec.self_ms()
    # children cover [1,6] and [9,10] of the parent's 10 ms
    assert own[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    by_name = rec.self_ms_by_name()
    assert by_name["b"] == pytest.approx(3.0)


def test_adopted_tree_is_laid_out_in_order_and_sums_to_the_parent():
    rec = SpanRecorder()
    call = rec.add("Database.query", 1.000, 1.020, op=7)
    tree = {
        "operator": "query", "wall_ms": 18.0, "children": [
            {"operator": "DS1", "wall_ms": 5.0},
            {"operator": "AND", "wall_ms": 2.0, "children": [
                {"operator": "DS3", "wall_ms": 1.5},
            ]},
            {"operator": "OUTPUT", "wall_ms": 4.0},
        ],
    }
    rec.adopt(tree, call, op=7)
    names = [s[0] for s in rec.spans]
    assert names == ["Database.query", "query", "DS1", "AND", "DS3", "OUTPUT"]
    assert all(s[4] == 7 for s in rec.spans)
    own = dict(zip(names, rec.self_ms()))
    assert own["Database.query"] == pytest.approx(2.0)   # facade
    assert own["query"] == pytest.approx(18.0 - 11.0)
    assert own["AND"] == pytest.approx(0.5)
    assert own["DS1"] == pytest.approx(5.0)
    assert sum(own.values()) == pytest.approx(20.0)
    # siblings run back to back: AND starts where DS1 ended
    assert rec.spans[3][1] == pytest.approx(rec.spans[2][2])


def test_span_context_manager_and_dump(tmp_path):
    ticks = iter([0.0, 0.5])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("probe.sql.parse", op=1):
        pass
    rec.add("second", 1.0, 1.25, op=2)
    rec.dump(tmp_path / "trace.json", max_ops=1, workload="w")
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["workload"] == "w"
    assert doc["ops_recorded"] == 2 and doc["ops_written"] == 1
    (span,) = doc["spans"]
    assert span["name"] == "probe.sql.parse"
    assert span["self_ms"] == 500.0 and span["parent"] == -1
