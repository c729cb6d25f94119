"""Candidate physical designs distilled from a workload summary.

The generator reads the advisor-grade :class:`~repro.workload.
WorkloadSummary` — per-template counts, example queries, predicate and
column-touch statistics — and proposes projection builds: for each hot
predicate column that no existing candidate of its table is sorted on,
a projection sorted by that column, covering exactly the columns the
predicated templates touch, with encodings and a partition count chosen
from the column's statistics. Scoring (and the decision to recommend
anything at all) happens in :mod:`repro.advisor.plan` via what-if costing;
this module only enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import CatalogError
from ..storage.stats import ColumnHistogram

#: Expected sorted-run length above which the sort column also stores an
#: RLE representation (runs shorter than this decode slower than they
#: save).
_RLE_RUN_THRESHOLD = 2.0

#: Sorted rows above which a range-predicated sort column is worth
#: range-partitioning (below it, zone maps cannot prune enough blocks to
#: pay for the fan-out).
_PARTITION_MIN_ROWS = 100_000

_RANGE_OPS = ("<", "<=", ">", ">=")


@dataclass
class CandidateDesign:
    """One enumerable build: a projection that does not exist yet."""

    name: str
    anchor: str
    columns: tuple
    sort_keys: tuple
    encodings: dict = field(default_factory=dict)
    partitions: int = 1
    #: Workload weight (ok-query count) behind the sort column's
    #: predicates — the enumeration order, not the score.
    weight: int = 0
    reason: str = ""


def sorted_runs(histogram, n: int) -> tuple[int, float]:
    """``(distinct values, run length)`` of *n* values sorted first: one
    run per distinct value. Without a histogram every value is distinct."""
    distinct = (
        histogram.n_distinct
        if histogram is not None and histogram.n_values
        else max(n, 1)
    )
    return distinct, n / max(distinct, 1)


class ColumnStats(NamedTuple):
    """One column's statistics over a whole projection: what candidate
    encodings and what-if synthesis are chosen from."""

    n_values: int
    histogram: ColumnHistogram | None
    lo: float
    hi: float


def column_stats(source, col: str) -> ColumnStats:
    """*col*'s statistics over every row of *source*: its file's header
    and block ranges, or for a partitioned source every partition's, with
    the histogram an unpartitioned build would write built over the
    values of all partitions."""
    parts = [part.open() for part in source.partitions] or [source]
    files = [part.column(col).file() for part in parts]
    histogram = files[0].histogram if len(files) == 1 else (
        ColumnHistogram.build(source.read_column_values(col))
    )
    descriptors = [d for f in files for d in f.descriptors]
    return ColumnStats(
        n_values=sum(f.n_values for f in files),
        histogram=histogram,
        lo=min((d.min_value for d in descriptors), default=0.0),
        hi=max((d.max_value for d in descriptors), default=0.0),
    )


def _anchor_of(catalog, table: str) -> str | None:
    """Resolve a query's projection field to its logical table name."""
    if table in catalog:
        proj = catalog.get(table)
        return proj.anchor or proj.name
    if catalog.has(table):
        return table
    return None


def _template_weight(template) -> int:
    return template.outcomes.get("ok", 0) + template.outcomes.get(
        "degraded", 0
    )


def _existing_sort_columns(catalog, anchor: str) -> set:
    """Primary sort keys already served by some candidate of *anchor*."""
    out = set()
    for proj in catalog.candidates(anchor):
        if proj.sort_keys:
            out.add(proj.sort_keys[0])
    return out


def covering_source(catalog, anchor: str, columns):
    """A real projection of *anchor* holding every one of *columns*, which
    a build reads its rows (and the what-if its statistics) from; None
    when no projection covers them. Partitioned or not: both read whole
    columns (:meth:`~repro.storage.projection.Projection.read_column_values`,
    :func:`column_stats`)."""
    needed = set(columns)
    for proj in catalog.candidates(anchor):
        if needed <= set(proj.column_names):
            return proj
    return None


def weighted_queries(summary) -> list[tuple]:
    """``(fingerprint, weight, query)`` for every scoreable template: a
    select with ok or degraded executions whose example query rebuilds
    (:func:`~repro.serving.protocol.query_from_dict`)."""
    from ..serving.protocol import query_from_dict

    out = []
    for fp, template in sorted(summary.templates.items()):
        if template.kind != "select" or template.example_query is None:
            continue
        weight = _template_weight(template)
        if weight == 0:
            continue
        try:
            query = query_from_dict(template.example_query)
        except Exception:
            continue
        out.append((fp, weight, query))
    return out


def generate_candidates(
    catalog, summary, max_candidates: int = 12
) -> list[CandidateDesign]:
    """Enumerate build candidates from observed predicate statistics:
    every predicate of the WHERE clause, conjunctive or in an OR group."""
    # (anchor, predicate column) -> accumulated evidence.
    evidence: dict[tuple, dict] = {}
    for _fp, weight, query in weighted_queries(summary):
        anchor = _anchor_of(catalog, query.projection)
        if anchor is None:
            continue
        touched = set(query.all_columns)
        for pred in query.all_predicates:
            entry = evidence.setdefault(
                (anchor, pred.column),
                {"weight": 0, "columns": set(), "range_weight": 0},
            )
            entry["weight"] += weight
            entry["columns"].update(touched)
            if getattr(pred, "op", None) in _RANGE_OPS:
                entry["range_weight"] += weight

    candidates = []
    for (anchor, col), entry in evidence.items():
        if col in _existing_sort_columns(catalog, anchor):
            continue
        columns = entry["columns"] | {col}
        source = covering_source(catalog, anchor, columns)
        if source is None:
            # Drop columns the anchor cannot serve from one projection
            # and retry with the core.
            source = covering_source(catalog, anchor, {col})
            if source is None:
                continue
            columns = columns & set(source.column_names)
        # float64 columns cannot be written back (Projection.create
        # rejects them); leave them to the projections that have them.
        columns = {
            c
            for c in columns
            if source.schema(c).ctype.name != "float64"
        }
        if col not in columns:
            continue
        try:
            histogram = column_stats(source, col).histogram
        except CatalogError:
            continue
        n_rows = source.n_rows
        run_length = sorted_runs(histogram, n_rows)[1]
        encodings = {
            c: ("uncompressed",) for c in sorted(columns) if c != col
        }
        if run_length >= _RLE_RUN_THRESHOLD:
            encodings[col] = ("rle", "uncompressed")
        else:
            encodings[col] = ("uncompressed",)
        partitions = 1
        if (
            entry["range_weight"] > entry["weight"] / 2
            and n_rows >= _PARTITION_MIN_ROWS
        ):
            partitions = 4
        candidates.append(
            CandidateDesign(
                name=f"{anchor}_adv_{col}",
                anchor=anchor,
                columns=tuple(sorted(columns)),
                sort_keys=(col,),
                encodings=encodings,
                partitions=partitions,
                weight=entry["weight"],
                reason=(
                    f"{entry['weight']} ok queries predicate on "
                    f"{col!r}, which no projection of {anchor!r} is "
                    "sorted on"
                ),
            )
        )
    candidates.sort(key=lambda c: (-c.weight, c.name))
    return candidates[:max_candidates]
