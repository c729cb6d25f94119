"""Prometheus text-format exposition of the metrics registry.

:func:`render_prometheus` turns a :meth:`repro.metrics.MetricsRegistry.export`
dump (plus optional serving-layer stats) into the Prometheus text exposition
format, version 0.0.4 — pure string assembly, no client library.

Conformance rules this module enforces (and the exposition tests lint):

* metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label names match
  ``[a-zA-Z_][a-zA-Z0-9_]*`` (anything else is sanitized to ``_``);
* every family is introduced by exactly one ``# HELP`` and one ``# TYPE``
  line before its samples;
* label values escape backslash, double-quote and newline;
* counters end in ``_total``; histograms emit cumulative
  ``_bucket{le="..."}`` series closed by ``le="+Inf"`` plus ``_sum`` and
  ``_count``;
* output ordering is deterministic: families sorted by name, samples
  sorted by label value — so two renders of the same state are
  byte-identical (scrape diffing, golden tests).

Dotted registry names map onto labelled families: a three-part name
``<base>.<dimension>.<value>`` (e.g. ``queries.strategy.em-parallel`` or
``query_wall_ms.encoding.rle``) becomes one family per (base, dimension)
pair — ``repro_queries_by_strategy_total{strategy="em-parallel"}`` — so the
per-strategy/per-encoding breakdowns the registry keeps as separate
instruments scrape as proper label dimensions. Collector dicts (buffer
pool, decoded cache, admission queue, query log, ...) flatten to gauges,
with the admission queue's ``per_class`` map becoming a ``priority`` label.
"""

from __future__ import annotations

import re

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SANITIZE_LABEL = re.compile(r"[^a-zA-Z0-9_]")

#: HELP text per family; families not listed get a generic line.
_HELP = {
    "repro_queries_total": "Queries finished (any outcome) by the engine.",
    "repro_queries_slow_total":
        "Queries recorded in the slow-query ring buffer.",
    "repro_queries_by_strategy_total":
        "Queries finished, by resolved materialization strategy.",
    "repro_queries_by_encoding_total":
        "Queries finished, by per-column encoding override.",
    "repro_query_wall_ms": "Query wall-clock latency in milliseconds.",
    "repro_query_wall_ms_by_strategy":
        "Query wall-clock latency by materialization strategy.",
    "repro_query_wall_ms_by_encoding":
        "Query wall-clock latency by encoding override.",
    "repro_query_sim_ms_by_strategy":
        "Analytical-model simulated query time by strategy.",
    "repro_slow_queries_resident":
        "Entries currently held in the slow-query ring buffer.",
    "repro_serving_queue_depth":
        "Queries waiting in the admission queue, by priority class.",
    "repro_serving_active_queries":
        "Queries currently executing on worker threads.",
    "repro_serving_sessions": "Connected client sessions.",
    "repro_serving_draining":
        "1 while the server is draining for shutdown, else 0.",
    "repro_serving_uptime_seconds": "Seconds since the server started.",
}


def _sanitize_name(name: str) -> str:
    name = _SANITIZE.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _sanitize_label(name: str) -> str:
    name = _SANITIZE_LABEL.sub("_", name)
    if not name or not _LABEL_OK.match(name):
        name = "_" + name
    return name


def _escape_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        return repr(round(value, 6))
    return str(value)


class _Family:
    """One metric family: HELP/TYPE header plus its samples."""

    def __init__(self, name: str, mtype: str, help_text: str | None = None):
        self.name = name
        self.type = mtype
        self.help = help_text or _HELP.get(name) or f"repro metric {name}."
        self.samples: list[tuple[str, dict, object]] = []

    def add(self, value, labels: dict | None = None, suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), value))

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.type}",
        ]

        def sample_key(sample):
            suffix, labels, _ = sample
            le = labels.get("le")
            # Keep each bucket series in ascending-le order with +Inf last.
            le_key = (
                float("inf") if le in (None, "+Inf") else float(le)
            )
            return (
                suffix,
                sorted((k, v) for k, v in labels.items() if k != "le"),
                le_key,
            )

        for suffix, labels, value in sorted(self.samples, key=sample_key):
            label_text = ""
            if labels:
                pairs = ",".join(
                    f'{_sanitize_label(k)}="{_escape_value(v)}"'
                    for k, v in sorted(labels.items())
                )
                label_text = "{" + pairs + "}"
            lines.append(f"{self.name}{suffix}{label_text} {_fmt(value)}")
        return lines


class _Exposition:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.families: dict[str, _Family] = {}

    def family(self, name: str, mtype: str, help_text=None) -> _Family:
        name = _sanitize_name(f"{self.prefix}_{name}")
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = _Family(name, mtype, help_text)
        return fam

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(self.families):
            lines.extend(self.families[name].render())
        return "\n".join(lines) + "\n"


def _split_dotted(name: str):
    """``queries.strategy.em-parallel`` → (base, dimension, value) or None."""
    parts = name.split(".")
    if len(parts) == 3 and all(parts):
        return parts[0], parts[1], parts[2]
    return None


def _add_counter(exp: _Exposition, name: str, value) -> None:
    dotted = _split_dotted(name)
    if dotted:
        base, dimension, dim_value = dotted
        fam_base = _sanitize_name(base)
        if fam_base.endswith("_total"):
            fam_base = fam_base[: -len("_total")]
        fam = exp.family(
            f"{fam_base}_by_{_sanitize_name(dimension)}_total", "counter"
        )
        fam.add(value, labels={_sanitize_label(dimension): dim_value})
    else:
        fam_name = _sanitize_name(name)
        if not fam_name.endswith("_total"):
            fam_name += "_total"
        exp.family(fam_name, "counter").add(value)


def _add_histogram(exp: _Exposition, name: str, export: dict) -> None:
    dotted = _split_dotted(name)
    labels: dict = {}
    if dotted:
        base, dimension, dim_value = dotted
        fam_name = f"{_sanitize_name(base)}_by_{_sanitize_name(dimension)}"
        labels = {_sanitize_label(dimension): dim_value}
    else:
        fam_name = _sanitize_name(name)
    fam = exp.family(fam_name, "histogram")
    bounds = export.get("bounds", ())
    counts = export.get("counts", ())
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        fam.add(
            cumulative,
            labels={**labels, "le": _fmt(float(bound))},
            suffix="_bucket",
        )
    # Overflow bucket (observations past the last bound) closes at +Inf.
    total = export.get("count", sum(counts))
    fam.add(total, labels={**labels, "le": "+Inf"}, suffix="_bucket")
    fam.add(float(export.get("sum_ms", 0.0)), labels=labels, suffix="_sum")
    fam.add(total, labels=labels, suffix="_count")


def _add_collector(exp: _Exposition, collector: str, payload: dict) -> None:
    if not isinstance(payload, dict):
        return
    base = _sanitize_name(collector)
    for key, value in payload.items():
        if key == "error":
            exp.family(f"{base}_collector_error", "gauge").add(1)
            continue
        if key == "per_class" and isinstance(value, dict):
            fam = exp.family(
                f"{base}_depth_by_priority",
                "gauge",
                help_text=f"Queued entries in {collector} by priority class.",
            )
            for cls, depth in value.items():
                if isinstance(depth, (int, float)):
                    fam.add(depth, labels={"priority": str(cls)})
            continue
        if isinstance(value, dict):
            for sub, sub_value in value.items():
                if isinstance(sub_value, (int, float, bool)):
                    exp.family(
                        f"{base}_{_sanitize_name(key)}_"
                        f"{_sanitize_name(sub)}",
                        "gauge",
                    ).add(sub_value)
            continue
        if isinstance(value, (int, float, bool)):
            exp.family(f"{base}_{_sanitize_name(key)}", "gauge").add(value)
        # strings/lists (seeds, partition names) have no numeric sample


def render_prometheus(export: dict, serving: dict | None = None,
                      prefix: str = "repro") -> str:
    """Render a registry export (and optional serving stats) as Prometheus
    text format.

    Args:
        export: a :meth:`repro.metrics.MetricsRegistry.export` dict.
        serving: a ``QueryServer.stats()`` dict; adds
            ``repro_serving_*`` families (queue depth per priority class,
            in-flight queries, rejections, drain state, uptime).
        prefix: family-name prefix (default ``repro``).

    Returns:
        The exposition text, newline-terminated, byte-stable for a given
        input (families sorted by name, samples by label).
    """
    exp = _Exposition(prefix)
    for name, value in (export.get("counters") or {}).items():
        _add_counter(exp, name, value)
    for name, hist in (export.get("histograms") or {}).items():
        _add_histogram(exp, name, hist)
    slow = export.get("slow_queries")
    if slow is not None:
        exp.family("slow_queries_resident", "gauge").add(len(slow))
    reserved = {"counters", "histograms", "slow_queries"}
    for collector, payload in export.items():
        if collector in reserved:
            continue
        _add_collector(exp, collector, payload)
    if serving:
        _add_serving(exp, serving)
    return exp.render()


def _add_serving(exp: _Exposition, stats: dict) -> None:
    admission = stats.get("admission") or {}
    fam = exp.family("serving_queue_depth", "gauge")
    for cls, depth in (admission.get("per_class") or {}).items():
        fam.add(depth, labels={"priority": str(cls)})
    for key, fam_name in (
        ("admitted", "serving_admitted_total"),
        ("taken", "serving_taken_total"),
        ("rejected", "serving_rejected_total"),
    ):
        if key in admission:
            exp.family(fam_name, "counter").add(admission[key])
    if "peak_depth" in admission:
        exp.family("serving_queue_peak_depth", "gauge").add(
            admission["peak_depth"]
        )
    if "max_depth" in admission:
        exp.family("serving_queue_max_depth", "gauge").add(
            admission["max_depth"]
        )
    for key, fam_name in (
        ("active", "serving_active_queries"),
        ("sessions", "serving_sessions"),
        ("workers", "serving_workers"),
    ):
        if key in stats:
            exp.family(fam_name, "gauge").add(stats[key])
    if "draining" in stats:
        exp.family("serving_draining", "gauge").add(
            bool(stats["draining"])
        )
    if "uptime_s" in stats:
        exp.family("serving_uptime_seconds", "gauge").add(
            float(stats["uptime_s"])
        )
