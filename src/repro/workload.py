"""Workload analysis and replay over captured query logs.

:func:`summarize_log` folds a :mod:`repro.qlog` record stream into a
:class:`WorkloadSummary` — per-template counts, exact latency percentiles,
strategy/encoding/outcome mixes, and column-touch frequencies — the durable
workload statistics ROADMAP item 1's physical-design advisor consumes.

:func:`replay_log` is the sixth differential-style axis: it re-executes a
captured log against a database, pinning each query to its **recorded**
resolved strategy (executions are deterministic per (data, strategy,
encodings), so row order reproduces exactly), and with ``check=True``
asserts the re-computed :func:`repro.qlog.result_hash` is bit-identical to
the one captured at record time. A log captured on one engine build that
replays hash-clean on another is end-to-end evidence that storage, the four
materialization strategies, compressed execution, and the serving path all
still agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ReproError, UnsupportedOperationError
from .metrics import exact_percentile
from .qlog import record_plan, result_hash


def _bump(counts: dict, key, n=1) -> None:
    counts[key] = counts.get(key, 0) + n


def _mix_lines(**mixes: dict) -> list[str]:
    """One ``label  key=count, ...`` report line per non-empty mix."""
    return [
        f"{label:<14} " + ", ".join(f"{k}={v}" for k, v in sorted(mix.items()))
        for label, mix in mixes.items()
        if mix
    ]


def _wall_percentiles(samples: list[float]) -> dict:
    """p50/p90/p99 of wall-time samples, rounded to microseconds."""
    ordered = sorted(samples)
    return {
        name: round(exact_percentile(ordered, q), 3)
        for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
    }


@dataclass
class TemplateStats:
    """Aggregated observations for one query fingerprint."""

    fingerprint: str
    template: str
    kind: str
    count: int = 0
    outcomes: dict = field(default_factory=dict)
    strategies: dict = field(default_factory=dict)
    origins: dict = field(default_factory=dict)
    rows_total: int = 0
    wall_ms_total: float = 0.0
    simulated_ms_total: float = 0.0
    queue_wait_ms_total: float = 0.0
    selectivities: list = field(default_factory=list)
    wall_samples: list = field(default_factory=list)
    #: Resolved-projection mix (``{projection_name: count}``) over records
    #: that carried one — what the advisor's drop analysis keys on.
    projections: dict = field(default_factory=dict)
    #: Full query dict of the first ok/degraded observation: a concrete
    #: representative the advisor can re-cost against hypothetical designs.
    example_query: dict | None = None
    #: Model-residual accounting, populated when :func:`summarize_log` is
    #: given a database to predict against. ``residual_ms_total`` is
    #: ``predicted - measured`` summed over exactly the records counted in
    #: ``predicted_count``; ``measured_on_predicted_ms_total`` is the
    #: measured simulated-ms sum over that same subset, so
    #: ``residual_ms_total == predicted_ms_total -
    #: measured_on_predicted_ms_total`` holds identically.
    predicted_count: int = 0
    predicted_ms_total: float = 0.0
    measured_on_predicted_ms_total: float = 0.0
    residual_ms_total: float = 0.0

    def percentiles(self) -> dict:
        return _wall_percentiles(self.wall_samples)

    def to_dict(self) -> dict:
        d = {
            "fingerprint": self.fingerprint,
            "template": self.template,
            "kind": self.kind,
            "count": self.count,
            "outcomes": dict(self.outcomes),
            "strategies": dict(self.strategies),
            "origins": dict(self.origins),
            "rows_total": self.rows_total,
            "wall_ms_total": round(self.wall_ms_total, 3),
            "simulated_ms_total": round(self.simulated_ms_total, 3),
            "queue_wait_ms_total": round(self.queue_wait_ms_total, 3),
            "latency_ms": self.percentiles(),
        }
        if self.selectivities:
            d["selectivity_avg"] = round(
                sum(self.selectivities) / len(self.selectivities), 6
            )
        if self.projections:
            d["projections"] = dict(self.projections)
        if self.predicted_count:
            d["predicted_count"] = self.predicted_count
            d["predicted_ms_total"] = round(self.predicted_ms_total, 3)
            d["residual_ms_total"] = round(self.residual_ms_total, 3)
        return d


@dataclass
class WorkloadSummary:
    """Whole-log aggregate: the advisor's input, the operator's overview."""

    total: int = 0
    by_outcome: dict = field(default_factory=dict)
    by_strategy: dict = field(default_factory=dict)
    by_origin: dict = field(default_factory=dict)
    by_encoding: dict = field(default_factory=dict)
    column_touches: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)
    wall_ms_total: float = 0.0
    simulated_ms_total: float = 0.0
    queue_wait_ms_total: float = 0.0
    partitions_scanned: int = 0
    partitions_pruned: int = 0
    counters: dict = field(default_factory=dict)
    wall_samples: list = field(default_factory=list)

    def top_templates(self, n: int = 10) -> list[TemplateStats]:
        """Templates by descending total wall time (then count)."""
        return sorted(
            self.templates.values(),
            key=lambda t: (-t.wall_ms_total, -t.count, t.fingerprint),
        )[:n]

    def latency_percentiles(self) -> dict:
        return _wall_percentiles(self.wall_samples)

    def to_dict(self, top: int = 10) -> dict:
        return {
            "total": self.total,
            "by_outcome": dict(self.by_outcome),
            "by_strategy": dict(self.by_strategy),
            "by_origin": dict(self.by_origin),
            "by_encoding": dict(self.by_encoding),
            "column_touches": dict(
                sorted(
                    self.column_touches.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ),
            "wall_ms_total": round(self.wall_ms_total, 3),
            "simulated_ms_total": round(self.simulated_ms_total, 3),
            "queue_wait_ms_total": round(self.queue_wait_ms_total, 3),
            "latency_ms": self.latency_percentiles(),
            "partitions": {
                "scanned": self.partitions_scanned,
                "pruned": self.partitions_pruned,
            },
            "counters": dict(self.counters),
            "distinct_templates": len(self.templates),
            "top_templates": [t.to_dict() for t in self.top_templates(top)],
        }

    def render(self, top: int = 10) -> str:
        """Plain-text report for the ``repro workload`` CLI."""
        lines = [
            f"records        {self.total}",
            f"templates      {len(self.templates)}",
        ]
        lines += _mix_lines(
            outcomes=self.by_outcome,
            strategies=self.by_strategy,
            origins=self.by_origin,
        )
        pct = self.latency_percentiles()
        lines.append(
            f"latency ms     p50={pct['p50']} p90={pct['p90']} "
            f"p99={pct['p99']}"
        )
        lines.append(
            f"wall/sim ms    {self.wall_ms_total:.1f} / "
            f"{self.simulated_ms_total:.1f} "
            f"(queue wait {self.queue_wait_ms_total:.1f})"
        )
        if self.partitions_scanned or self.partitions_pruned:
            lines.append(
                f"partitions     scanned={self.partitions_scanned} "
                f"pruned={self.partitions_pruned}"
            )
        if self.column_touches:
            hot = sorted(
                self.column_touches.items(), key=lambda kv: (-kv[1], kv[0])
            )[:8]
            lines.append(
                "hot columns    "
                + ", ".join(f"{c}×{n}" for c, n in hot)
            )
        lines.append("")
        lines.append(f"top {min(top, len(self.templates))} templates by total wall time:")
        for t in self.top_templates(top):
            pt = t.percentiles()
            lines.append(
                f"  [{t.fingerprint}] ×{t.count:<5d} "
                f"wall={t.wall_ms_total:8.1f}ms p50={pt['p50']:<8g} "
                f"{t.template[:90]}"
            )
        return "\n".join(lines)


def price_record(db, record, cache: dict, constants):
    """Predicted ms of a logged select's plan under *constants*.

    The plan is :func:`repro.qlog.record_plan`'s: the recorded strategy and,
    while the catalog still has it, the recorded projection (else the one
    the planner resolves now under *constants*) — the plan the measurement
    came from, so a prediction against it is a true model residual rather
    than a plan-choice delta. Memoised in *cache* per (fingerprint,
    strategy, projection, literal query), so repeated templates are priced
    once; None when the record is not a select carrying its query and
    strategy, or does not price cleanly against the catalog.
    """
    if record.get("kind") != "select":
        return None
    if not record.get("query") or not record.get("strategy"):
        return None
    key = (
        record.get("fingerprint", "-"),
        record["strategy"],
        record.get("projection"),
        json.dumps(record["query"], sort_keys=True),
    )
    if key not in cache:
        from .model import predict_select
        from .planner.projection_choice import resolve_projection
        from .planner.strategies import Strategy

        try:
            query, strategy, pinned = record_plan(record, db.catalog)
            if pinned is not None:
                projection = db.catalog.get(pinned)
            else:
                projection = resolve_projection(
                    db.catalog, query, constants=constants
                )
            cache[key] = predict_select(
                projection, query, Strategy.from_name(strategy),
                constants=constants,
            ).total_ms
        except (ReproError, ValueError):
            cache[key] = None
    return cache[key]


def summarize_log(records, db=None, constants=None) -> WorkloadSummary:
    """Fold an iterable of query-log records into a :class:`WorkloadSummary`.

    When *db* is given, each ok/degraded select record is additionally
    costed through the analytical model (against the recorded projection
    and strategy, with *constants* defaulting to ``db.constants``) and the
    per-template predicted-vs-measured simulated-ms residuals are
    accumulated on :class:`TemplateStats` — the advisor's what-if inputs.
    Without *db* the summary is purely observational, as before.
    """
    if db is not None and constants is None:
        constants = db.constants
    prediction_cache: dict = {}

    summary = WorkloadSummary()
    for record in records:
        summary.total += 1
        outcome = record.get("outcome", "ok")
        _bump(summary.by_outcome, outcome)
        origin = record.get("origin", "embedded")
        _bump(summary.by_origin, origin)
        strategy = record.get("strategy")
        if strategy:
            _bump(summary.by_strategy, strategy)
        for enc in (record.get("encodings") or {}).values():
            _bump(summary.by_encoding, enc)
        for col in record.get("columns", ()):
            _bump(summary.column_touches, col)
        wall = float(record.get("wall_ms", 0.0))
        sim = float(record.get("simulated_ms", 0.0))
        wait = float(record.get("queue_wait_ms", 0.0))
        summary.wall_ms_total += wall
        summary.simulated_ms_total += sim
        summary.queue_wait_ms_total += wait
        parts = record.get("partitions")
        if parts:
            summary.partitions_scanned += int(parts.get("scanned", 0))
            summary.partitions_pruned += int(parts.get("pruned", 0))
        for name, value in (record.get("counters") or {}).items():
            _bump(summary.counters, name, value)

        fp = record.get("fingerprint")
        if fp is None:  # turned away before binding: no query, no template
            continue
        tmpl = summary.templates.get(fp)
        if tmpl is None:
            tmpl = TemplateStats(
                fingerprint=fp,
                template=record.get("template", ""),
                kind=record.get("kind", "select"),
            )
            summary.templates[fp] = tmpl
        tmpl.count += 1
        _bump(tmpl.outcomes, outcome)
        if strategy:
            _bump(tmpl.strategies, strategy)
        _bump(tmpl.origins, origin)
        tmpl.rows_total += int(record.get("rows", 0))
        tmpl.wall_ms_total += wall
        tmpl.simulated_ms_total += sim
        tmpl.queue_wait_ms_total += wait
        if "selectivity" in record:
            tmpl.selectivities.append(float(record["selectivity"]))
        proj = record.get("projection")
        if proj:
            _bump(tmpl.projections, proj)
        if outcome in ("ok", "degraded"):
            tmpl.wall_samples.append(wall)
            summary.wall_samples.append(wall)
            if tmpl.example_query is None and record.get("query"):
                tmpl.example_query = record["query"]
            if db is not None:
                predicted = price_record(
                    db, record, prediction_cache, constants
                )
                if predicted is not None:
                    tmpl.predicted_count += 1
                    tmpl.predicted_ms_total += predicted
                    tmpl.measured_on_predicted_ms_total += sim
                    # Derived, not independently accumulated, so the
                    # documented identity holds bit-exactly.
                    tmpl.residual_ms_total = (
                        tmpl.predicted_ms_total
                        - tmpl.measured_on_predicted_ms_total
                    )
    return summary


# --------------------------------------------------------------------------
# Replay: the sixth differential axis
# --------------------------------------------------------------------------


@dataclass
class ReplayMismatch:
    """One record whose replayed result hash differed from the captured one."""

    seq: int
    fingerprint: str
    template: str
    strategy: str
    recorded_hash: str
    replayed_hash: str
    recorded_rows: int
    replayed_rows: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ReplayReport:
    """Outcome of :func:`replay_log`."""

    total: int = 0            # records in the input log
    eligible: int = 0         # ok records carrying a query + result hash
    replayed: int = 0         # eligible records actually re-executed
    matched: int = 0
    mismatched: int = 0
    skipped: int = 0          # non-ok / hashless / unsupported-on-this-db
    errors: int = 0           # replays that raised
    strategies: dict = field(default_factory=dict)
    origins: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    error_detail: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.mismatched == 0 and self.errors == 0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "eligible": self.eligible,
            "replayed": self.replayed,
            "matched": self.matched,
            "mismatched": self.mismatched,
            "skipped": self.skipped,
            "errors": self.errors,
            "strategies": dict(self.strategies),
            "origins": dict(self.origins),
            "ok": self.ok,
            "mismatches": [m.to_dict() for m in self.mismatches[:20]],
            "error_detail": self.error_detail[:20],
        }

    def render(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        lines = [
            f"replay         {status}",
            f"records        {self.total} total, {self.eligible} eligible",
            f"replayed       {self.replayed} "
            f"(matched={self.matched} mismatched={self.mismatched} "
            f"errors={self.errors} skipped={self.skipped})",
        ]
        lines += _mix_lines(strategies=self.strategies, origins=self.origins)
        for m in self.mismatches[:5]:
            lines.append(
                f"  seq {m.seq} [{m.fingerprint}] {m.strategy}: "
                f"recorded {m.recorded_hash}/{m.recorded_rows} rows, "
                f"replayed {m.replayed_hash}/{m.replayed_rows} rows"
            )
        for e in self.error_detail[:5]:
            lines.append(f"  seq {e['seq']} raised {e['type']}: {e['message']}")
        return "\n".join(lines)


def replay_log(db, records, check: bool = True,
               limit: int | None = None) -> ReplayReport:
    """Re-execute a captured query log against *db*.

    Only ``ok`` records carrying the full query dict are replayed, each
    pinned to its recorded resolved strategy — and, for selects whose
    record carries the resolved projection name and the target catalog
    still has it, to that projection — so tuple order reproduces exactly
    even after the advisor has built or dropped anchored projections.
    With ``check=True`` every record must also carry a
    ``result_hash`` (every ``ok`` record a :class:`~repro.qlog.QueryLog`
    writes has one) and the replayed result's hash is compared bit for bit.

    Queries the target database cannot run (e.g. a projection or encoding
    that doesn't exist there, or an unsupported strategy/encoding pair)
    count as ``skipped``; any other exception counts as an error. The
    report's :attr:`ReplayReport.ok` is True iff nothing mismatched and
    nothing errored.
    """
    report = ReplayReport()
    for record in records:
        report.total += 1
        if record.get("outcome") != "ok" or not record.get("query"):
            report.skipped += 1
            continue
        if check and "result_hash" not in record:
            report.skipped += 1
            continue
        report.eligible += 1
        if limit is not None and report.replayed >= limit:
            report.skipped += 1
            continue
        # Pin the replay to the recorded strategy and, while the catalog
        # still serves the query from it, the recorded projection, so tuple
        # order (and therefore the hash) reproduces even if the advisor has
        # since changed the candidate set.
        try:
            query, strategy, pinned = record_plan(record, db.catalog)
            result = db.query(query, strategy=strategy,
                              pin_projection=pinned)
        except UnsupportedOperationError:
            report.skipped += 1
            continue
        except ReproError as exc:
            report.errors += 1
            report.error_detail.append({
                "seq": record.get("seq", -1),
                "type": type(exc).__name__,
                "message": str(exc)[:200],
            })
            continue
        report.replayed += 1
        _bump(report.strategies, result.strategy)
        _bump(report.origins, record.get("origin", "embedded"))
        if check:
            replayed = result_hash(result.tuples)
            if replayed == record["result_hash"]:
                report.matched += 1
            else:
                report.mismatched += 1
                report.mismatches.append(ReplayMismatch(
                    seq=record.get("seq", -1),
                    fingerprint=record.get("fingerprint", "-"),
                    template=record.get("template", ""),
                    strategy=result.strategy,
                    recorded_hash=record["result_hash"],
                    replayed_hash=replayed,
                    recorded_rows=int(record.get("rows", -1)),
                    replayed_rows=result.n_rows,
                ))
        else:
            report.matched += 1
    return report
