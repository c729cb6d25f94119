"""Prometheus text-format conformance for :mod:`repro.exposition`.

A pure-python lint of the rendered exposition: metric/label name legality,
exactly one HELP and one TYPE line per family (before its samples), label
value escaping, cumulative histogram buckets closed by ``le="+Inf"`` with
consistent ``_sum``/``_count``, and byte-stable deterministic ordering. No
external Prometheus dependency — the format spec is asserted directly.
"""

from __future__ import annotations

import math
import re

from repro import MetricsRegistry, render_prometheus

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(slow_query_threshold_ms=5.0)
    for wall, strategy, encoding in (
        (0.5, "em-parallel", "rle"),
        (2.0, "lm-parallel", "dictionary"),
        (80.0, "lm-pipelined", "rle"),
    ):
        reg.observe_query(
            strategy=strategy,
            wall_ms=wall,
            simulated_ms=wall * 3,
            rows=10,
            description='SELECT "quoted" FROM t\nWHERE x < 1 \\ y',
            encodings=(encoding,),
            queue_wait_ms=1.5,
            degraded=True,
        )
    reg.counter("serving.rejected_total").inc(3)
    reg.register_collector(
        "admission_queue",
        lambda: {
            "depth": 2,
            "max_depth": 64,
            "per_class": {"interactive": 1, "normal": 1, "batch": 0},
            "closed": False,
        },
    )
    reg.register_collector(
        "buffer_pool",
        lambda: {"hits": 5, "misses": 2, "resident_bytes": 1024},
    )
    return reg


def _render() -> str:
    serving = {
        "sessions": 3,
        "workers": 4,
        "active": 1,
        "draining": False,
        "uptime_s": 12.5,
        "admission": {
            "per_class": {"interactive": 1, "normal": 0, "batch": 2},
            "admitted": 9,
            "taken": 8,
            "rejected": 1,
            "peak_depth": 3,
            "max_depth": 64,
        },
    }
    return render_prometheus(_populated_registry().export(), serving=serving)


def _parse(text: str):
    """Split exposition text into comments and parsed samples per family."""
    helps: dict[str, int] = {}
    types: dict[str, str] = {}
    samples = []  # (family-line name, labels dict, value string, line no)
    for i, line in enumerate(text.rstrip("\n").split("\n")):
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            helps[name] = helps.get(name, 0) + 1
            continue
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(" ", 3)
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = mtype
            continue
        assert not line.startswith("#"), f"unknown comment line: {line}"
        m = SAMPLE_LINE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        labels = dict(LABEL_PAIR.findall(m.group("labels") or ""))
        samples.append((m.group("name"), labels, m.group("value"), i))
    return helps, types, samples


class TestConformance:
    def test_metric_and_label_names_legal(self):
        helps, types, samples = _parse(_render())
        for family in types:
            assert METRIC_NAME.match(family), family
        for name, labels, _value, _i in samples:
            assert METRIC_NAME.match(name), name
            for label in labels:
                assert LABEL_NAME.match(label), label
                assert not label.startswith("__"), label

    def test_every_family_has_one_help_and_type(self):
        helps, types, samples = _parse(_render())
        assert set(helps) == set(types)
        assert all(count == 1 for count in helps.values())
        base_of = {}
        for name, _labels, _value, _i in samples:
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            family = name if name in types else base
            assert family in types, f"sample {name} has no TYPE"
            base_of[name] = family

    def test_every_value_parses_as_float(self):
        _helps, _types, samples = _parse(_render())
        for _name, _labels, value, _i in samples:
            parsed = float(value)  # "+Inf"/"NaN" parse too
            assert not math.isnan(parsed) or value == "NaN"

    def test_counter_families_end_in_total(self):
        _helps, types, _samples = _parse(_render())
        for family, mtype in types.items():
            if mtype == "counter":
                assert family.endswith("_total"), family

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter('queries.strategy.we"ird\\enc\noding').inc()
        text = render_prometheus(reg.export())
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_queries_by_strategy_total{")
        )
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        # The rendered text itself holds no raw newline inside a sample.
        assert all("\n" not in l for l in text.splitlines())

    def test_histogram_buckets_cumulative_and_closed(self):
        _helps, types, samples = _parse(_render())
        hist_families = [f for f, t in types.items() if t == "histogram"]
        assert "repro_query_wall_ms" in hist_families
        for family in hist_families:
            buckets = [
                (labels, float(value))
                for name, labels, value, _i in samples
                if name == f"{family}_bucket"
            ]
            assert buckets, f"{family} has no _bucket series"
            # Group by the non-le labels.
            series: dict = {}
            for labels, value in buckets:
                key = tuple(sorted(
                    (k, v) for k, v in labels.items() if k != "le"
                ))
                series.setdefault(key, []).append((labels["le"], value))
            counts = {
                name_labels: float(value)
                for name, name_labels_d, value, _i in samples
                if name == f"{family}_count"
                for name_labels in [tuple(sorted(name_labels_d.items()))]
            }
            for key, entries in series.items():
                les = [le for le, _ in entries]
                assert les[-1] == "+Inf", f"{family}{key} not closed"
                values = [v for _, v in entries]
                assert values == sorted(values), (
                    f"{family}{key} buckets not cumulative"
                )
                numeric = [float(le) for le in les[:-1]]
                assert numeric == sorted(numeric), (
                    f"{family}{key} le bounds out of order"
                )
                assert counts[key] == values[-1], (
                    f"{family}{key} _count != +Inf bucket"
                )

    def test_rendering_is_deterministic(self):
        assert _render() == _render()

    def test_families_sorted(self):
        text = _render()
        families = [
            line.split(" ", 3)[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert families == sorted(families)

    def test_serving_stats_exposed(self):
        text = _render()
        assert 'repro_serving_queue_depth{priority="interactive"} 1' in text
        assert 'repro_serving_queue_depth{priority="batch"} 2' in text
        assert "repro_serving_rejected_total 1" in text
        assert "repro_serving_active_queries 1" in text
        assert "repro_serving_draining 0" in text
        assert "repro_serving_uptime_seconds 12.5" in text

    def test_collectors_flattened_to_gauges(self):
        text = _render()
        assert "repro_buffer_pool_hits 5" in text
        assert (
            'repro_admission_queue_depth_by_priority{priority="normal"} 1'
            in text
        )
        assert "repro_admission_queue_closed 0" in text

    def test_ends_with_single_newline(self):
        text = _render()
        assert text.endswith("\n") and not text.endswith("\n\n")
