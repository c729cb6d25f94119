"""Per-partition execution of selections over range-partitioned projections.

The stored part of a partitioned plan has two stages, both visible in the
span tree:

* **PRUNE** — intersect the query's predicates with each partition's zone
  maps (:class:`~repro.storage.partition.ZoneMap`) and keep only the
  partitions that could contain matches. Pruning is *conservative*: a
  partition is skipped only when its zone map provably excludes every
  matching row (``overlaps_range`` is false), so pruned execution returns
  exactly the unpruned result.
* **PARTITION** (one span per survivor) — run the ordinary operator core
  (:func:`repro.planner.plans.run_core`) over the partition's child
  projection. Survivors fan out through the scan scheduler when one is
  configured, each leaf with private stats and tracer merged back in
  partition order, so counters and spans are deterministic however threads
  interleave.

Each partition runs :func:`~repro.planner.nodes.stored_query` (AVG split
into mergeable SUM + COUNT partials), and the plan's one COMBINE
(:func:`repro.planner.plans.execute_select`) folds the partials — with the
pending writes' partial, if any — before HAVING / ORDER BY / LIMIT and the
output drain run exactly once. The stages are the nodes
:func:`repro.planner.nodes.plan_outline` lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from ..operators import ExecutionContext, TupleSet
from ..storage.partition import PartitionInfo
from ..storage.projection import Projection
from .logical import SelectQuery
from .nodes import PlanFacts, grouped_predicates, partition_errors
from .plans import run_core
from .strategies import Strategy


@dataclass(frozen=True)
class _QuarantineSkip:
    """Sentinel a degraded partition task returns instead of a TupleSet."""

    partition: str
    error: str


def _zone_overlaps(part: PartitionInfo, predicates) -> bool:
    """Could this partition hold a row satisfying the whole conjunction?"""
    for col, pred in grouped_predicates(predicates).items():
        zone = part.zone_maps.get(col)
        if zone is not None and not pred.overlaps_range(
            zone.min_value, zone.max_value
        ):
            return False
    return True


def partition_may_match(part: PartitionInfo, query: SelectQuery) -> bool:
    """Zone-map admission test for one partition.

    Conjunctions survive only when every column predicate overlaps the
    partition's zone map; a disjunction survives when *any* of its
    conjunction groups does. Both directions are conservative — compound
    per-column predicates use :meth:`ColumnConjunction.overlaps_range`,
    which never rules out a satisfiable partition.
    """
    if query.disjuncts:
        return any(_zone_overlaps(part, group) for group in query.disjuncts)
    return _zone_overlaps(part, query.predicates)


def prune_partitions(
    projection: Projection, query: SelectQuery
) -> tuple[list[PartitionInfo], int]:
    """Partitions that may contain matches, plus the total partition count."""
    survivors = [
        part
        for part in projection.partitions
        if partition_may_match(part, query)
    ]
    return survivors, len(projection.partitions)


def _partition_task(
    projection: Projection,
    part: PartitionInfo,
    query: SelectQuery,
    strategy: Strategy,
):
    """One scan-scheduler task: the operator core over one partition.

    Storage-level failures (missing directory or column file, unreadable
    header) are translated to a :class:`~repro.errors.CatalogError` naming
    the partition (:func:`~repro.planner.nodes.partition_errors`).

    Under ``on_error="degrade"`` the task instead *contains* any storage
    failure: the partition's span subtree is truncated in place, the
    partition is quarantined for the session, and a :class:`_QuarantineSkip`
    sentinel is returned so the combine stage can complete over the
    survivors.
    """

    def task(ctx: ExecutionContext) -> TupleSet | _QuarantineSkip:
        span = ctx.begin("PARTITION")
        try:
            with partition_errors(projection, part):
                facts = PlanFacts(part.open(), query)
                result = run_core(ctx, facts, facts.core(strategy))
        except (StorageError, OSError) as exc:
            if ctx.on_error != "degrade":
                raise
            if ctx.quarantine is not None:
                ctx.quarantine.record(projection.name, part.name, exc)
            ctx.abort(span, exc, partition=part.name, quarantined=True)
            return _QuarantineSkip(part.name, f"{type(exc).__name__}: {exc}")
        if span is not None:
            ctx.end(span, partition=part.name, rows=result.n_tuples)
        return result

    return task


def run_partitions(
    ctx: ExecutionContext,
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
) -> list[TupleSet]:
    """PRUNE, then *query*'s operator core over every surviving partition:
    the partials, in partition order."""
    span = ctx.begin("PRUNE")
    survivors, total = prune_partitions(projection, query)
    # Under degraded execution, partitions already quarantined this session
    # are taken out of the fan-out up front — the query completes over the
    # rest and is marked degraded. In fail mode the quarantine is never
    # consulted, preserving the all-or-nothing contract bit-for-bit.
    pre_skipped: list[str] = []
    if ctx.on_error == "degrade" and ctx.quarantine is not None:
        active = []
        for part in survivors:
            if ctx.quarantine.is_quarantined(projection.name, part.name):
                pre_skipped.append(part.name)
            else:
                active.append(part)
        survivors = active
    extra = ctx.stats.extra
    extra["partitions_total"] = extra.get("partitions_total", 0) + total
    extra["partitions_scanned"] = (
        extra.get("partitions_scanned", 0) + len(survivors)
    )
    extra["partitions_pruned"] = (
        extra.get("partitions_pruned", 0) + (total - len(survivors) - len(pre_skipped))
    )
    if span is not None:
        detail = dict(
            partitions=total,
            scanned=len(survivors),
            pruned=total - len(survivors) - len(pre_skipped),
            survivors=[p.name for p in survivors],
        )
        if pre_skipped:
            detail["quarantined"] = pre_skipped
        ctx.end(span, **detail)
    results = ctx.map_leaves(
        [_partition_task(projection, part, query, strategy) for part in survivors]
    )
    partials = [r for r in results if not isinstance(r, _QuarantineSkip)]
    newly_failed = [r for r in results if isinstance(r, _QuarantineSkip)]
    skipped = pre_skipped + [s.partition for s in newly_failed]
    if skipped:
        ctx.skipped_partitions.extend(skipped)
        extra["partitions_quarantined"] = (
            extra.get("partitions_quarantined", 0) + len(newly_failed)
        )
        extra["partitions_skipped"] = (
            extra.get("partitions_skipped", 0) + len(skipped)
        )
    return partials
