"""Physical plan construction and execution for the four strategies.

Each builder assembles the operator tree from the paper's Figures 7 and 8 and
runs it column-at-a-time. All builders end by draining the result (charging
the output iteration the paper includes in both model and measurements).
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from ..multicolumn import MiniColumn, MultiColumn
from ..operators import (
    AndOp,
    DS1Scan,
    DS2Scan,
    DS3Gather,
    DS4Scan,
    ExecutionContext,
    MergeOp,
    SPCScan,
    TupleSet,
    drain,
    gather_values,
)
from ..operators.aggregate import AggregateEM, AggregateLM
from ..operators.base import repeat_by_run
from ..operators.joins import (
    fetch_right_columns,
    join_materialized,
    join_multicolumn,
    join_single_column,
    merge_fetch_left,
)
from ..positions import ListedPositions, RangePositions
from ..predicates import Predicate, combine_column_predicates
from ..storage.column_file import ColumnFile
from ..storage.projection import Projection
from .estimate import estimate_selectivity
from .logical import JoinQuery, SelectQuery
from .strategies import LeftTableStrategy, RightTableStrategy, Strategy


def _column_files(
    projection: Projection, query: SelectQuery | JoinQuery, columns: list[str]
) -> dict[str, ColumnFile]:
    enc = query.encoding_map
    return {
        col: projection.column(col).file(enc.get(col)) for col in columns
    }


def _grouped_predicates(predicates) -> dict[str, Predicate]:
    """One (possibly compound) predicate per column, in first-seen order."""
    by_column: dict[str, list[Predicate]] = {}
    for pred in predicates:
        by_column.setdefault(pred.column, []).append(pred)
    return {
        col: combine_column_predicates(preds) for col, preds in by_column.items()
    }


def _selectivity_order(
    files: dict[str, ColumnFile], col_preds: dict[str, Predicate]
) -> list[str]:
    """Predicate columns ordered most-selective-first (pipelined plans)."""
    return sorted(
        col_preds,
        key=lambda col: estimate_selectivity(files[col], col_preds[col]),
    )


def execute_select(
    ctx: ExecutionContext,
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
) -> TupleSet:
    """Run *query* over *projection* with the given materialization strategy."""
    if projection.is_partitioned:
        # Range-partitioned projections fan out per partition after zone-map
        # pruning; the per-partition sub-plans run build_select below.
        from .partitioned import execute_partitioned_select

        return execute_partitioned_select(ctx, projection, query, strategy)
    result = build_select(ctx, projection, query, strategy)
    result = _apply_having(ctx, result, query)
    result = _order_and_limit(ctx, result, query)
    return drain(ctx, result)


def build_select(
    ctx: ExecutionContext,
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
) -> TupleSet:
    """The operator-tree core of a selection: everything up to (but not
    including) HAVING, ORDER BY, LIMIT, and the output drain.

    Per-partition execution runs this once per surviving partition and
    applies the shared tail exactly once over the merged result, so output
    iteration is never double-charged.
    """
    files = _column_files(projection, query, query.all_columns)
    if query.disjuncts:
        # Disjunctive WHERE clauses run on the position-set union path:
        # "the positions matching a predicate can be derived by ORing
        # together the appropriate bitmaps" (paper §2.1.1). Late
        # materialization is the natural home for OR, whatever strategy the
        # caller named.
        return _lm_disjunction(ctx, projection, files, query)
    col_preds = _grouped_predicates(query.predicates)
    if strategy is Strategy.EM_PARALLEL:
        return _em_parallel(ctx, files, col_preds, query)
    if strategy is Strategy.EM_PIPELINED:
        return _em_pipelined(ctx, files, col_preds, query)
    if strategy is Strategy.LM_PARALLEL:
        return _lm_parallel(ctx, projection, files, col_preds, query)
    if strategy is Strategy.LM_PIPELINED:
        return _lm_pipelined(ctx, projection, files, col_preds, query)
    raise PlanError(f"unknown strategy {strategy}")  # pragma: no cover


def _apply_having(
    ctx: ExecutionContext, tuples: TupleSet, query: SelectQuery
) -> TupleSet:
    """Filter aggregated output rows (the HAVING clause)."""
    if not query.having:
        return tuples
    mask = np.ones(tuples.n_tuples, dtype=bool)
    for pred in query.having:
        mask &= pred.mask(tuples.column(pred.column))
    ctx.stats.tuple_iterations += tuples.n_tuples
    return tuples.filter(mask)


def _order_and_limit(
    ctx: ExecutionContext, tuples: TupleSet, query: SelectQuery
) -> TupleSet:
    """Apply ORDER BY (stable lexicographic sort) and LIMIT to the output."""
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
    return tuples


# ---------------------------------------------------------------- EM plans


def _em_finish(ctx: ExecutionContext, tuples: TupleSet, query: SelectQuery) -> TupleSet:
    """Aggregate (if requested) and project an EM tuple stream."""
    if query.aggregates:
        agg = AggregateEM(ctx, query.group_by, list(query.aggregates))
        tuples = agg.execute(tuples)
    return tuples.select(list(query.select))


def _em_parallel(
    ctx: ExecutionContext,
    files: dict[str, ColumnFile],
    col_preds: dict[str, Predicate],
    query: SelectQuery,
) -> TupleSet:
    spc = SPCScan(ctx, files, list(col_preds.values()))
    return _em_finish(ctx, spc.execute(), query)


def _em_pipelined(
    ctx: ExecutionContext,
    files: dict[str, ColumnFile],
    col_preds: dict[str, Predicate],
    query: SelectQuery,
) -> TupleSet:
    ordered = _selectivity_order(files, col_preds)
    value_only = [c for c in query.value_columns if c not in col_preds]
    if ordered:
        first = ordered[0]
        tuples = DS2Scan(ctx, files[first], col_preds[first]).execute()
        rest = ordered[1:]
    else:
        if not value_only:
            raise PlanError("query touches no columns")
        first, *value_only = value_only
        tuples = DS2Scan(ctx, files[first], None).execute()
        rest = []
    for col in rest:
        tuples = DS4Scan(ctx, files[col], col_preds[col], tuples).execute()
    for col in value_only:
        tuples = DS4Scan(ctx, files[col], None, tuples).execute()
    return _em_finish(ctx, tuples, query)


# ---------------------------------------------------------------- LM plans


def _extract_columns(
    ctx: ExecutionContext,
    files: dict[str, ColumnFile],
    columns: list[str],
    positions,
    minicolumns: dict[str, MiniColumn],
) -> dict[str, np.ndarray]:
    """DS3-extract each column's values at the final position list."""
    out = {}
    for col in columns:
        result = DS3Gather(
            ctx, files[col], positions, minicolumn=minicolumns.get(col)
        ).execute()
        out[col] = result.values
    return out


def _rle_group_runs(
    ctx: ExecutionContext,
    column_file: ColumnFile,
    positions: np.ndarray,
    minicolumn: MiniColumn | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map each position to its RLE run: returns (run_values, run_id per row).

    Lets the LM aggregator reduce per run instead of per row — operating
    directly on the compressed group column.
    """
    stats = ctx.stats
    run_value_parts: list[np.ndarray] = []
    id_parts: list[np.ndarray] = []
    cursor = 0
    run_base = 0  # runs appended so far across loaded blocks
    n = len(positions)
    for desc in column_file.descriptors:
        if cursor >= n:
            break
        hi = int(np.searchsorted(positions, desc.end_pos, side="left"))
        if hi <= cursor:
            stats.blocks_skipped += 1
            continue
        if minicolumn is not None and minicolumn.has_block(desc.index):
            payload = minicolumn.payload(desc.index)
            stats.block_iterations += 1
        else:
            payload = ctx.read_block(column_file, desc.index)
        values, starts, _lengths = ctx.run_table(column_file, desc, payload)
        run_ids = np.arange(run_base, run_base + len(values), dtype=np.int64)
        run_value_parts.append(values)
        id_parts.append(repeat_by_run(starts, positions[cursor:hi], run_ids))
        run_base += len(values)
        cursor = hi
    if not run_value_parts:
        return (
            np.empty(0, dtype=column_file.dtype),
            np.empty(0, dtype=np.int64),
        )
    return np.concatenate(run_value_parts), np.concatenate(id_parts)


def _lm_finish(
    ctx: ExecutionContext,
    files: dict[str, ColumnFile],
    query: SelectQuery,
    positions,
    minicolumns: dict[str, MiniColumn],
) -> TupleSet:
    """Shared tail of LM plans: extract values, aggregate or merge."""
    if query.aggregates:
        pos_array = positions.to_array()
        if not isinstance(positions, RangePositions):
            # Expanded once; the gathers below take it as sorted by construction.
            positions = ListedPositions(pos_array, assume_sorted=True)
        value_cols = [
            spec.column
            for spec in query.aggregates
            if spec.func != "count"
        ]
        columns = {}
        for col in dict.fromkeys(value_cols):
            columns[col] = gather_values(
                ctx, files[col], positions, minicolumn=minicolumns.get(col)
            )
            ctx.stats.column_iterations += len(pos_array)
        group_cols = list(query.group_columns)
        agg = AggregateLM(ctx, group_cols, list(query.aggregates))
        single = group_cols[0] if len(group_cols) == 1 else None
        plain_funcs = all(
            s.func != "count_distinct" for s in query.aggregates
        )
        if (
            single is not None
            and files[single].encoding.supports_runs
            and ctx.compressed
            and plain_funcs
        ):
            run_values, run_ids = _rle_group_runs(
                ctx, files[single], pos_array, minicolumns.get(single)
            )
            tuples = agg.execute_runs(run_values, run_ids, columns)
        elif (
            single is not None
            and files[single].encoding.name == "dictionary"
            and ctx.compressed
            and plain_funcs
        ):
            # The group column stays in the code domain: the aggregator
            # reduces over dense code ids (a per-block code histogram) and
            # only the distinct arrays are ever widened.
            from ..compressed.kernels import dictionary_group_codes

            code_values, code_ids = dictionary_group_codes(
                ctx, files[single], pos_array, minicolumns.get(single)
            )
            tuples = agg.execute_runs(code_values, code_ids, columns)
        else:
            if (
                single is not None
                and ctx.compressed
                and not plain_funcs
                and (
                    files[single].encoding.supports_runs
                    or files[single].encoding.name == "dictionary"
                )
            ):
                # A kernel-capable group column forced to the row path
                # (count_distinct needs per-row values): that expansion is
                # a morph.
                ctx.stats.morphs += 1
            groups = {}
            for col in group_cols:
                groups[col] = gather_values(
                    ctx,
                    files[col],
                    positions,
                    minicolumn=minicolumns.get(col),
                )
                ctx.stats.column_iterations += len(pos_array)
            tuples = agg.execute(groups, columns)
        return tuples.select(list(query.select))
    values = _extract_columns(
        ctx, files, query.value_columns, positions, minicolumns
    )
    tuples = MergeOp(ctx).execute(values)
    return tuples.select(list(query.select))


def _lm_parallel(
    ctx: ExecutionContext,
    projection: Projection,
    files: dict[str, ColumnFile],
    col_preds: dict[str, Predicate],
    query: SelectQuery,
) -> TupleSet:
    minicolumns: dict[str, MiniColumn] = {}
    # Independent DS1 leaves — one per predicate column, no data
    # dependencies (paper Figure 5) — run concurrently when the context has
    # a scan scheduler; results are consumed in plan order either way.
    items = list(col_preds.items())
    results = ctx.map_leaves(
        [
            (
                lambda leaf_ctx, col=col, pred=pred: DS1Scan(
                    leaf_ctx,
                    files[col],
                    pred,
                    index=projection.column(col).index,
                ).execute()
            )
            for col, pred in items
        ]
    )
    position_sets = []
    for (col, _pred), result in zip(items, results):
        position_sets.append(result.positions)
        if result.minicolumn is not None:
            minicolumns[col] = result.minicolumn
    if position_sets:
        positions = AndOp(ctx).execute_positions(position_sets)
    else:
        positions = RangePositions(0, projection.n_rows)
    return _lm_finish(ctx, files, query, positions, minicolumns)


def _lm_disjunction(
    ctx: ExecutionContext,
    projection: Projection,
    files: dict[str, ColumnFile],
    query: SelectQuery,
) -> TupleSet:
    """OR of conjunction groups: per-group AND, then a position-set union."""
    from ..positions import union_all

    minicolumns: dict[str, MiniColumn] = {}
    group_sets = []
    for group in query.disjuncts:
        col_preds = _grouped_predicates(group)
        sets = []
        for col, pred in col_preds.items():
            result = DS1Scan(
                ctx, files[col], pred, index=projection.column(col).index
            ).execute()
            sets.append(result.positions)
            if result.minicolumn is not None:
                minicolumns.setdefault(col, result.minicolumn)
        group_sets.append(
            AndOp(ctx).execute_positions(sets) if len(sets) > 1 else sets[0]
        )
    from ..operators.and_op import and_groups

    ctx.stats.column_iterations += sum(and_groups(s) for s in group_sets)
    ctx.stats.function_calls += max(
        (and_groups(s) for s in group_sets), default=0
    )
    positions = union_all(group_sets)
    return _lm_finish(ctx, files, query, positions, minicolumns)


def _lm_pipelined(
    ctx: ExecutionContext,
    projection: Projection,
    files: dict[str, ColumnFile],
    col_preds: dict[str, Predicate],
    query: SelectQuery,
) -> TupleSet:
    ordered = _selectivity_order(files, col_preds)
    minicolumns: dict[str, MiniColumn] = {}
    if not ordered:
        positions = RangePositions(0, projection.n_rows)
    else:
        first = ordered[0]
        result = DS1Scan(
            ctx,
            files[first],
            col_preds[first],
            index=projection.column(first).index,
        ).execute()
        if result.minicolumn is not None:
            minicolumns[first] = result.minicolumn
        positions = result.positions
        for col in ordered[1:]:
            # DS3 with a predicate: extract only at surviving positions and
            # filter — this is where bit-vector columns are rejected.
            step = DS3Gather(
                ctx, files[col], positions, predicate=col_preds[col]
            ).execute()
            positions = step.positions
    return _lm_finish(ctx, files, query, positions, minicolumns)


# ---------------------------------------------------------------- Join plans


def _pin_multicolumn(
    ctx: ExecutionContext, files: dict[str, ColumnFile], columns: list[str]
) -> MultiColumn:
    """Read the given columns fully, pinning payloads into a multi-column."""
    n_rows = max(files[c].n_values for c in columns)
    mc = MultiColumn(start=0, stop=n_rows, descriptor=RangePositions(0, n_rows))
    for col in columns:
        cf = files[col]
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
) -> TupleSet:
    """Run the FK-PK join with the chosen inner-table materialization."""
    left_cols = [query.left_key] + [
        c for c in query.left_select if c != query.left_key
    ]
    for pred in query.left_predicates:
        if pred.column not in left_cols:
            left_cols.append(pred.column)
    right_cols = [query.right_key] + [
        c for c in query.right_select if c != query.right_key
    ]
    left_files = _column_files(left_projection, query, left_cols)
    right_files = _column_files(right_projection, query, right_cols)
    col_preds = _grouped_predicates(query.left_predicates)
    left_strategy = LeftTableStrategy.from_name(query.left_strategy)

    left_tuples = None
    if left_strategy is LeftTableStrategy.EARLY:
        # EM outer input: construct the left tuples up front; the join then
        # carries whole rows and "positions" are just row ordinals.
        left_tuples = SPCScan(
            ctx, left_files, list(col_preds.values())
        ).execute()
        left_keys = left_tuples.column(query.left_key)
        left_positions = np.arange(left_tuples.n_tuples, dtype=np.int64)
    # Outer side (LM): filter on the left predicates, keep positions + keys.
    elif col_preds:
        sets = []
        minis: dict[str, MiniColumn] = {}
        for col, pred in col_preds.items():
            res = DS1Scan(
                ctx,
                left_files[col],
                pred,
                index=left_projection.column(col).index,
            ).execute()
            sets.append(res.positions)
            if res.minicolumn is not None:
                minis[col] = res.minicolumn
        left_positions_set = (
            AndOp(ctx).execute_positions(sets) if len(sets) > 1 else sets[0]
        )
        left_positions = left_positions_set.to_array()
        left_keys = gather_values(
            ctx,
            left_files[query.left_key],
            left_positions,
            minicolumn=minis.get(query.left_key),
        )
    else:
        left_positions = np.arange(left_projection.n_rows, dtype=np.int64)
        left_keys = gather_values(
            ctx, left_files[query.left_key], left_positions
        )

    right_value_cols = list(query.right_select)
    if right_strategy is RightTableStrategy.MATERIALIZED:
        spc = SPCScan(ctx, right_files, [])
        right_tuples = spc.execute()
        out_positions, matched = join_materialized(
            ctx, left_keys, left_positions, right_tuples, query.right_key
        )
        right_values = {c: matched.column(c) for c in right_value_cols}
    elif right_strategy is RightTableStrategy.MULTI_COLUMN:
        mc = _pin_multicolumn(ctx, right_files, right_cols)
        out_positions, extracted = join_multicolumn(
            ctx,
            left_keys,
            left_positions,
            mc,
            right_files,
            query.right_key,
            right_value_cols,
        )
        right_values = {c: extracted[c] for c in right_value_cols}
    elif right_strategy is RightTableStrategy.SINGLE_COLUMN:
        full = RangePositions(0, right_projection.n_rows)
        key_scan = DS3Gather(ctx, right_files[query.right_key], full).execute()
        join_out = join_single_column(
            ctx, left_keys, left_positions, key_scan.values
        )
        out_positions = join_out.left_positions
        right_values = fetch_right_columns(
            ctx, join_out, right_files, right_value_cols
        )
    else:  # pragma: no cover - enum is closed
        raise PlanError(f"unknown right-table strategy {right_strategy}")

    if left_tuples is not None:
        # EM outer input: the surviving rows already carry every left value.
        rows = left_tuples.data[out_positions]
        ctx.stats.tuple_iterations += len(out_positions)
        left_values = {
            c: rows[:, left_tuples.column_index(c)] for c in query.left_select
        }
    else:
        left_values = merge_fetch_left(
            ctx, out_positions, left_files, list(query.left_select)
        )
    stitched = {c: left_values[c] for c in query.left_select}
    stitched.update({c: right_values[c] for c in query.right_select})
    if query.aggregates:
        # Vector aggregation over the joined columns: only summary tuples
        # are constructed — the paper's aggregated-join rule in action.
        group_cols = list(query.group_columns)
        agg = AggregateLM(ctx, group_cols, list(query.aggregates))
        groups = {c: stitched[c] for c in group_cols}
        columns = {
            spec.column: stitched[spec.column]
            for spec in query.aggregates
            if spec.func != "count"
        }
        tuples = agg.execute(groups, columns)
        return drain(ctx, tuples.select(list(query.output_columns)))
    tuples = MergeOp(ctx).execute(stitched)
    return drain(ctx, tuples)
