"""Per-partition execution of selections over range-partitioned projections.

The pipeline has three stages, all visible in the span tree:

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
* **COMBINE** — stitch the partial results back together. Selections
  concatenate in partition order (partitions are contiguous chunks of the
  globally sorted rows, so this reproduces the unpartitioned output order
  exactly); aggregates re-combine partial aggregates by group key using the
  same AVG -> SUM+COUNT rewrite the writable-store merge uses
  (:func:`repro.delta.internal_query` / :func:`repro.delta.merge_aggregates`).

HAVING / ORDER BY / LIMIT and the output drain run exactly once, over the
combined result, matching the unpartitioned tail. The stages are the nodes
:func:`repro.planner.nodes.plan_outline` lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..delta import internal_query, merge_aggregates
from ..errors import StorageError
from ..operators import ExecutionContext, TupleSet
from ..storage.partition import PartitionInfo
from ..storage.projection import Projection
from .logical import SelectQuery
from .nodes import PlanFacts, grouped_predicates, partition_errors, plan_outline
from .plans import run_core, run_tail
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


def execute_partitioned_select(
    ctx: ExecutionContext,
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
) -> TupleSet:
    """Prune, fan out, and re-combine a selection over a partitioned projection."""
    outline = plan_outline(projection, query, strategy)
    span = ctx.begin("PRUNE")
    survivors = [node.partition for node in outline if node.op == "PARTITION"]
    total = len(projection.partitions)
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
    # The same rewrite the writable-store merge uses: strip ORDER BY / LIMIT
    # / HAVING (applied once, after the combine) and expand AVG into
    # mergeable SUM + COUNT partials. Idempotent, so a query the delta path
    # already rewrote passes through unchanged.
    sub_query, plan = internal_query(query)
    results = ctx.map_leaves(
        [
            _partition_task(projection, part, sub_query, strategy)
            for part in survivors
        ]
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
    merged = _combine(ctx, query, sub_query, plan, partials)
    return run_tail(ctx, query, merged)


def _combine(
    ctx: ExecutionContext,
    query: SelectQuery,
    sub_query: SelectQuery,
    plan: dict,
    partials: list[TupleSet],
) -> TupleSet:
    """Deterministically merge per-partition results (partition order)."""
    if not partials:
        return TupleSet.empty(tuple(query.select))
    if not query.aggregates:
        if len(partials) == 1:
            return partials[0]
        return TupleSet.concat(partials)
    span = ctx.begin("COMBINE")
    # Partial aggregates re-combine by group key exactly like stored-plus-
    # pending results do; the recombination touches every partial row once.
    ctx.stats.tuple_iterations += sum(p.n_tuples for p in partials)
    rest = (
        TupleSet.concat(partials[1:])
        if len(partials) > 1
        else TupleSet.empty(partials[0].columns)
    )
    merged = merge_aggregates(
        partials[0],
        rest,
        list(sub_query.group_columns),
        list(sub_query.aggregates),
        plan,
        list(query.select),
    )
    if span is not None:
        ctx.end(span, partitions=len(partials), rows=merged.n_tuples)
    return merged
