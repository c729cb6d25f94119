"""Physical plan execution for the four strategies and the join.

:func:`execute_select` runs the nodes :func:`repro.planner.nodes.plan_nodes`
builds — the operator trees of the paper's Figures 7 and 8, and the outline
around them — in order, column-at-a-time, one span per traced node;
:func:`execute_join` runs a join's, its two sides through the same walk.
Every plan ends by draining the rows it returns, once (charging the output
iteration the paper includes in both model and measurements).
"""

from __future__ import annotations

import numpy as np

from ..multicolumn import MiniColumn, MultiColumn
from ..operators import (
    ExecutionContext,
    TupleSet,
    aggregate_tuples,
    aggregate_units,
    aggregate_vectors,
    and_positions,
    drain,
    ds1_scan,
    ds2_scan,
    ds3_filter,
    ds3_gather,
    ds4_extend,
    gather_values,
    merge_columns,
    spc_scan,
)
from ..operators.aggregate import fold_partials, group_reduce, partial_specs
from ..operators.and_op import and_groups
from ..operators.joins import (
    fetch_right_columns,
    join_materialized,
    join_multicolumn,
    join_single_column,
    merge_fetch_left,
)
from ..delta import PendingWrites, delta_select, multiset_subtract
from ..errors import ExecutionError, PlanError
from ..positions import ListedPositions, RangePositions, union_all
from ..storage.column_file import ColumnFile
from ..storage.projection import Projection
from .logical import JoinQuery, SelectQuery
from .nodes import JoinFacts, PlanFacts, PlanNode, stored_query
from .strategies import RightTableStrategy, Strategy


def execute_select(
    ctx: ExecutionContext,
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
    pending: PendingWrites | None = None,
) -> TupleSet:
    """Run *query* over *projection* and its table's *pending* writes with
    the given materialization strategy, as
    :func:`~repro.planner.nodes.plan_outline` lists the nodes: the stored
    part, GHOST and DELTA, COMBINE, then the tail."""
    sub_query = stored_query(projection, query, pending)
    if projection.is_partitioned:
        # Range-partitioned projections fan out per partition after zone-map
        # pruning; each partition runs its own operator core (run_core).
        from .partitioned import run_partitions

        partials = run_partitions(ctx, projection, sub_query, strategy)
    else:
        facts = PlanFacts(projection, sub_query)
        partials = [run_core(ctx, facts, facts.core(strategy))]
    if pending:
        partials = _fold_pending(ctx, projection, query, sub_query, pending, partials)
    elif not projection.is_partitioned:  # one core: nothing to combine
        return run_tail(ctx, query, partials[0])
    return run_tail(ctx, query, _combine(ctx, query, partials, pending))


def _fold_pending(ctx, projection, query, sub_query, pending, partials):
    """GHOST, then DELTA: the stored partials without the rows pending
    deletion, then the pending inserts' partial.

    Deleted rows still sit inside the stored projection, so GHOST subtracts
    the delete multiset from the stored rows (an aggregation fetched rows
    for it), charged a tuple iteration per row compared and a constructed
    tuple per tuple it keeps. DELTA runs the predicates over the inserts.
    """
    specs = partial_specs(query.aggregates)[0]
    groups = query.group_columns

    def partial(rows, stats=None) -> TupleSet:
        """Surviving rows, shaped like a stored partial of *query*."""
        if specs:
            return TupleSet.stitch(
                group_reduce({c: rows[c] for c in groups}, rows, specs)
            )
        return TupleSet.stitch({c: rows[c] for c in query.select}, stats=stats)

    if pending.n_deletes:
        span = ctx.begin("GHOST")
        names = sub_query.select
        stored = TupleSet.concat(partials) if partials else TupleSet.empty(names)
        rows = {col: stored.column(col) for col in names}
        ghosts = delta_select(sub_query, pending.deletes)
        keep, unmatched = multiset_subtract(rows, ghosts, names)
        if unmatched:
            raise ExecutionError(
                f"delete multiset for {projection.anchor or query.projection!r}"
                f" names rows the stored projection {projection.name!r} does "
                "not hold (writable store out of sync with the read store)"
            )
        n_ghosts = len(ghosts[names[0]])
        ctx.stats.tuple_iterations += stored.n_tuples + n_ghosts
        partials = [partial({col: v[keep] for col, v in rows.items()})]
        ctx.stats.tuples_constructed += partials[0].n_tuples
        ctx.end(span, rows=partials[0].n_tuples, ghosts=n_ghosts)
    span = ctx.begin("DELTA")
    rows = delta_select(sub_query, pending.inserts)
    n_pending = len(next(iter(rows.values())))
    ctx.stats.tuple_iterations += n_pending
    delta = partial(rows, ctx.stats)
    ctx.end(span, rows=delta.n_tuples, pending=n_pending)
    return partials + [delta]


def _combine(ctx, query, partials: list[TupleSet], pending) -> TupleSet:
    """COMBINE: the partials as one result — the stored ones (one per
    partition), then the pending rows' if *pending*. Selections concatenate
    (partitions are contiguous chunks of the sorted rows); aggregations
    fold with one :func:`~repro.operators.aggregate.fold_partials`, charged
    a tuple iteration per partial row."""
    if not partials:
        return TupleSet.empty(tuple(query.select))
    if not query.aggregates:
        return partials[0] if len(partials) == 1 else TupleSet.concat(partials)
    span = ctx.begin("COMBINE")
    ctx.stats.tuple_iterations += sum(p.n_tuples for p in partials)
    rows = TupleSet.concat(partials)
    folded = fold_partials(
        query.group_columns,
        {c: rows.column(c) for c in rows.columns},
        query.aggregates,
    )
    merged = TupleSet.stitch(folded).select(list(query.select))
    ctx.end(span, partitions=len(partials) - bool(pending), rows=merged.n_tuples)
    return merged


def run_tail(ctx: ExecutionContext, query: SelectQuery, tuples: TupleSet) -> TupleSet:
    """The tail nodes (:func:`~repro.planner.nodes.tail_ops`), once per
    query: HAVING, ORDER BY (stable lexicographic sort), LIMIT and the
    output drain."""
    if query.having:
        mask = np.ones(tuples.n_tuples, dtype=bool)
        for pred in query.having:
            mask &= pred.mask(tuples.column(pred.column))
        ctx.stats.tuple_iterations += tuples.n_tuples
        tuples = tuples.filter(mask)
    if query.order_by:
        n = tuples.n_tuples
        keys = []
        # np.lexsort treats the last key as primary, so feed them reversed;
        # descending order negates the key.
        for col, descending in reversed(query.order_by):
            arr = tuples.column(col)
            keys.append(-arr if descending else arr)
        order = np.lexsort(keys)
        if n > 1:
            ctx.stats.function_calls += int(n * max(np.log2(n), 1.0))
        tuples = TupleSet(columns=tuples.columns, data=tuples.data[order])
    if query.limit is not None:
        tuples = TupleSet(
            columns=tuples.columns, data=tuples.data[: query.limit]
        )
    return drain(ctx, tuples)


def run_core(
    ctx: ExecutionContext, facts: PlanFacts, nodes: list[PlanNode]
) -> TupleSet:
    """Execute an operator core in node order; the result is the last
    node's output, projected to the select list."""
    return _walk(ctx, facts, nodes).select(list(facts.query.select))


def _walk(ctx: ExecutionContext, facts: PlanFacts, nodes: list[PlanNode]):
    """Run *nodes* — an operator core, or one side of a join — in order
    over *facts*' columns; the last node's output."""
    query, files = facts.query, facts.files
    full = RangePositions(0, facts.projection.n_rows)  # no predicate ran
    out: dict[int, object] = {}
    # An output is dropped as its last consumer runs, so a pipeline keeps
    # only the intermediates it still needs alive.
    last_use = {j: i for i, node in enumerate(nodes) for j in node.inputs}
    minicolumns: dict[str, MiniColumn] = {}
    expanded = None  # the positions every aggregation gather shares
    for i, node in enumerate(nodes):
        if i in out:
            continue
        op, col = node.op, node.column
        args = [out.pop(j) if last_use[j] == i else out[j] for j in node.inputs]
        if op == "DS1":
            # Independent DS1 leaves — no data dependencies (paper Figure
            # 5) — run concurrently when the context has a scan scheduler;
            # results are consumed in plan order either way.
            batch = [j for j, n in enumerate(nodes) if n.case == "leaf" and j >= i]
            batch = batch if node.case == "leaf" else [i]
            results = ctx.map_leaves([
                lambda c, n=nodes[j]: ds1_scan(
                    c, files[n.column], n.predicate,
                    facts.projection.column(n.column).index,
                )
                for j in batch
            ])
            for j, (positions, mini) in zip(batch, results):
                out[j] = positions
                if mini is not None:
                    minicolumns.setdefault(nodes[j].column, mini)
        elif op == "AND":
            out[i] = and_positions(ctx, args)
        elif op == "UNION":
            groups = [and_groups(s) for s in args]
            ctx.stats.column_iterations += sum(groups)
            ctx.stats.function_calls += max(groups, default=0)
            out[i] = union_all(args)
        elif op == "DS3+filter":
            # Extract only at surviving positions and filter.
            out[i] = ds3_filter(ctx, files[col], args[0], node.predicate)
        elif op == "DS3" and node.case == "key":
            # A join's outer key at the surviving positions: the positions
            # and the keys go into JOIN together.
            span = ctx.begin("DS3")
            positions = (
                args[0].to_array() if args
                else np.arange(facts.projection.n_rows, dtype=np.int64)
            )
            keys = gather_values(
                ctx, files[col], positions, minicolumn=minicolumns.get(col)
            )
            ctx.end(span, column=col, positions=len(positions))
            out[i] = positions, keys
        elif op == "DS3" and node.case == "extract":
            out[i] = ds3_gather(
                ctx, files[col], (args or [full])[0], minicolumns.get(col)
            )
        elif op == "DS3":
            if expanded is None:
                # Expanded once; the gathers take it as sorted by construction.
                positions = (args or [full])[0]
                array = positions.to_array()
                if not isinstance(positions, RangePositions):
                    positions = ListedPositions(array, assume_sorted=True)
                expanded = (positions, array)
            out[i] = _gather(
                ctx, query, node, files[col], minicolumns.get(col), *expanded
            )
        elif op == "AGG" and node.case == "tuple":
            out[i] = aggregate_tuples(
                ctx, args[0], query.group_columns, query.aggregates
            )
        elif op == "AGG":
            groups, columns = {}, {}
            for j, value in zip(node.inputs, args):
                into = groups if nodes[j].case == "group" else columns
                into[nodes[j].column] = value
            name, units = next(iter(groups.items()))
            out[i] = (  # units: the one group column, as runs or codes
                aggregate_units(ctx, name, *units, columns, query.aggregates)
                if isinstance(units, tuple)
                else aggregate_vectors(ctx, groups, columns, query.aggregates)
            )
        elif op == "MERGE":
            out[i] = merge_columns(
                ctx, {nodes[j].column: v for j, v in zip(node.inputs, args)}
            )
        elif op == "SPC":
            preds = [pred for _col, pred, _sf in facts.where[0]]
            out[i] = spc_scan(ctx, files, preds)
        elif op == "DS2":
            out[i] = ds2_scan(ctx, files[col], node.predicate)
        elif op == "DS4":
            out[i] = ds4_extend(ctx, files[col], node.predicate, args[0])
        elif op == "PIN":
            span = ctx.begin("PIN")
            out[i] = _pin_multicolumn(ctx, files)
            ctx.end(span, columns=list(files), rows=facts.projection.n_rows)
        else:  # pragma: no cover - plan_nodes builds no other core node
            raise PlanError(f"no executor for {op}")
        del args
    return out[len(nodes) - 1]


def _gather(ctx, query, node, cf, minicolumn, positions, array):
    """LM aggregation input: a value column gathered per row, or the group
    column per RLE run / dictionary code (operating directly on compressed
    data) when it is the only one and the aggregates allow it."""
    span = ctx.begin("DS3")
    units = (
        node.case == "group"
        and len(query.group_columns) == 1
        and ctx.compressed
        and (cf.encoding.supports_runs or cf.encoding.name == "dictionary")
    )
    if units and any(s.func == "count_distinct" for s in query.aggregates):
        # count_distinct needs per-row values: expanding a kernel-capable
        # group column is a morph.
        ctx.stats.morphs += 1
        units = False
    if units:
        from ..compressed.kernels import group_ids

        value = group_ids(ctx, cf, array, minicolumn)
    else:
        value = gather_values(ctx, cf, positions, minicolumn=minicolumn)
        ctx.stats.column_iterations += len(array)
    via = None
    if node.case == "group":
        via = ("runs" if cf.encoding.supports_runs else "codes") if units else "rows"
    ctx.end(span, column=node.column, positions=len(array), group=via)
    return value


# ---------------------------------------------------------------- Join plans


def _pin_multicolumn(
    ctx: ExecutionContext, files: dict[str, ColumnFile]
) -> MultiColumn:
    """Read the given columns fully, pinning payloads into a multi-column."""
    n_rows = max(cf.n_values for cf in files.values())
    mc = MultiColumn(start=0, stop=n_rows, descriptor=RangePositions(0, n_rows))
    for cf in files.values():
        mini = MiniColumn(cf)
        for desc in cf.descriptors:
            mini.pin(desc, ctx.read_block(cf, desc.index))
        mc.attach(mini)
    return mc


def execute_join(
    ctx: ExecutionContext,
    left_projection: Projection,
    right_projection: Projection,
    query: JoinQuery,
    right_strategy: RightTableStrategy,
    pending: dict[str, int] | None = None,
) -> TupleSet:
    """Run the FK-PK join with the chosen inner-table materialization, as
    :class:`~repro.planner.nodes.JoinFacts` lists its nodes: the outer core
    and the inner input through the selection walk, then JOIN, the
    fetches, MERGE or AGG, and the output drain."""
    facts = JoinFacts(left_projection, right_projection, query, pending)
    nodes = facts.core(right_strategy)
    k = facts.n_outer
    outer = _walk(ctx, facts.outer, nodes[:k])
    inner = _walk(ctx, facts.inner, nodes[k:k + 1])
    if facts.early:
        # EM outer input: the left tuples are constructed up front; the
        # join carries whole rows and "positions" are just row ordinals.
        left_positions = np.arange(outer.n_tuples, dtype=np.int64)
        left_keys = outer.column(query.left_key)
    else:
        left_positions, left_keys = outer
    right_cols = list(query.right_select)
    left_values, right_values = {}, {}
    for node in nodes[k + 1:]:
        if node.op == "JOIN" and node.case == "materialized":
            positions, matched = join_materialized(
                ctx, left_keys, left_positions, inner, query.right_key
            )
            right_values = {c: matched.column(c) for c in right_cols}
        elif node.op == "JOIN" and node.case == "multi-column":
            positions, right_values = join_multicolumn(
                ctx, left_keys, left_positions, inner, facts.inner.files,
                query.right_key, right_cols,
            )
        elif node.op == "JOIN":
            joined = join_single_column(ctx, left_keys, left_positions, inner)
            positions = joined.left_positions
        elif node.op == "FETCH":
            span = ctx.begin("FETCH")
            if node.case == "right":
                right_values = fetch_right_columns(
                    ctx, joined, facts.inner.files, right_cols
                )
            elif facts.early:
                # The surviving rows already carry every left value.
                rows = outer.data[positions]
                ctx.stats.tuple_iterations += len(positions)
                left_values = {
                    c: rows[:, outer.column_index(c)]
                    for c in query.left_select
                }
            else:
                left_values = merge_fetch_left(
                    ctx, positions, facts.outer.files, list(query.left_select)
                )
            ctx.end(span, side=node.case, positions=len(positions))
        elif node.op == "AGG":
            # Vector aggregation over the joined columns: only summary
            # tuples are constructed — the paper's aggregated-join rule.
            stitched = _stitch(query, left_values, right_values)
            tuples = aggregate_vectors(
                ctx,
                {c: stitched[c] for c in query.group_columns},
                stitched,
                query.aggregates,
            ).select(list(query.output_columns))
        elif node.op == "MERGE":
            tuples = merge_columns(ctx, _stitch(query, left_values, right_values))
    return drain(ctx, tuples)  # OUTPUT, the last node


def _stitch(query: JoinQuery, left_values: dict, right_values: dict) -> dict:
    """The joined columns in output order: the left select list, then the
    right one."""
    stitched = {c: left_values[c] for c in query.left_select}
    stitched.update({c: right_values[c] for c in query.right_select})
    return stitched
