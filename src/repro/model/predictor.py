"""A-priori end-to-end plan cost prediction.

Composes the per-operator formulas of :mod:`repro.model.cost` into whole-plan
predictions for each materialization strategy, mirroring how Section 3.5's
example plans chain DS/AND/MERGE/SPC operators. Selectivities come from the
header-only estimator; nothing here reads block payloads.

The join predictor extends the paper's model (which stops at selection /
aggregation plans) with the obvious per-strategy terms; DESIGN.md lists it as
an extension.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..planner.estimate import (
    estimate_block_fragments,
    estimate_read_fraction,
    estimate_selectivity,
)
from ..errors import CatalogError, StorageError
from ..predicates import combine_column_predicates
from ..planner.logical import JoinQuery, SelectQuery
from ..planner.strategies import RightTableStrategy, Strategy
from ..storage.projection import Projection
from .constants import PAPER_CONSTANTS, ModelConstants
from .cost import (
    AndCost,
    ColumnMeta,
    OperatorCost,
    and_cost,
    ds_case1_cost,
    ds_case2_cost,
    ds_case3_cost,
    ds_case4_cost,
    merge_cost,
    output_cost,
    spc_cost,
)

_BITMAP_WORD = 64


@dataclass
class PlanPrediction:
    """Predicted cost of one strategy for one query."""

    strategy: str
    steps: list[tuple[str, OperatorCost]] = field(default_factory=list)

    def add(self, name: str, cost: OperatorCost) -> None:
        self.steps.append((name, cost))

    @property
    def cpu_ms(self) -> float:
        return sum(c.cpu_us for _n, c in self.steps) / 1000.0

    @property
    def io_ms(self) -> float:
        return sum(c.io_us for _n, c in self.steps) / 1000.0

    @property
    def total_ms(self) -> float:
        return self.cpu_ms + self.io_ms

    def breakdown(self) -> dict[str, float]:
        return {name: cost.total_us / 1000.0 for name, cost in self.steps}


def _position_run_length(meta: ColumnMeta, sf: float) -> float:
    """Estimated RLp of the positions a DS1 scan of this column produces.

    Predicates over run-length encoded columns pass or fail whole runs, so
    surviving positions inherit the column's run structure. Dense survivor
    sets over fine-grained columns become bitmaps (64 positions per word);
    sparse ones degrade to per-position lists.
    """
    if meta.run_length > 1.0:
        return meta.run_length
    return float(_BITMAP_WORD) if sf > 1.0 / _BITMAP_WORD else 1.0


def _query_metadata(
    projection: Projection, query: SelectQuery, resident: float
) -> tuple[dict[str, ColumnMeta], dict[str, float], list[str]]:
    enc = query.encoding_map
    files = {
        col: projection.column(col).file(enc.get(col))
        for col in query.all_columns
    }
    metas = {
        col: ColumnMeta.from_file(cf, resident=resident)
        for col, cf in files.items()
    }
    sfs: dict[str, float] = {}
    ordered: list[tuple[str, float]] = []
    by_column: dict[str, list] = {}
    for pred in query.predicates:
        by_column.setdefault(pred.column, []).append(pred)
    fragments = None
    fractions: dict[str, float] = {}
    indexed: dict[str, bool] = {}
    for col, preds in by_column.items():
        cf = files[col]
        combined = combine_column_predicates(preds)
        sf = 1.0
        for p in preds:
            sf *= estimate_selectivity(cf, p)
        sfs[col] = sf
        fractions[col] = estimate_read_fraction(cf, combined)
        indexed[col] = projection.column(col).index is not None and all(
            getattr(p, "in_values", None) is not None or p.op != "!="
            for p in preds
        )
        ordered.append((col, sf))
    ordered.sort(key=lambda item: item[1])
    ordered_names = [col for col, _sf in ordered]
    if ordered_names:
        first = ordered_names[0]
        fragments = estimate_block_fragments(
            files[first], combine_column_predicates(by_column[first])
        )
    return metas, sfs, ordered_names, fragments, fractions, indexed


def _estimated_groups(projection: Projection, query: SelectQuery, survivors: float) -> float:
    """Crude distinct-group estimate for aggregate output sizing."""
    bound = 1.0
    for col in query.group_columns:
        cf = projection.column(col).file(query.encoding_map.get(col))
        bound *= cf.total_runs if cf.encoding.supports_runs else cf.n_values
    return min(bound, survivors)


def predict_select(
    projection: Projection,
    query: SelectQuery,
    strategy: Strategy,
    constants: ModelConstants = PAPER_CONSTANTS,
    resident: float = 0.0,
) -> PlanPrediction:
    """Predict the end-to-end cost of *query* under *strategy*.

    Args:
        resident: the model's F for first-access columns (0 = cold cache).
    """
    return predict_strategies(
        projection, query, (strategy,), constants, resident
    )[strategy]


def predict_strategies(
    projection: Projection,
    query: SelectQuery,
    strategies: Iterable[Strategy],
    constants: ModelConstants = PAPER_CONSTANTS,
    resident: float = 0.0,
) -> dict[Strategy, PlanPrediction]:
    """Predict *query* under each of *strategies* from one metadata pass.

    Selectivities, column metadata and the pruned partition set do not
    depend on the strategy, so they are estimated once (per surviving
    partition) and every strategy is priced from them; each prediction is
    exactly what pricing that strategy alone gives.
    """
    strategies = tuple(strategies)
    if projection.is_partitioned:
        return _predict_partitioned(
            projection, query, strategies, constants, resident
        )
    k = constants
    metas, sfs, ordered, fragments, fractions, indexed = _query_metadata(
        projection, query, resident
    )

    def ds1(col):
        """DS1 prediction: index-derived positions when available."""
        if indexed.get(col):
            # Binary search over the index: no blocks touched at all.
            return OperatorCost(cpu_us=16 * k.fc, io_us=0.0)
        return ds_case1_cost(
            metas[col], sfs[col], k, read_fraction=fractions.get(col)
        )
    n = projection.n_rows
    sf_total = math.prod(sfs.values()) if sfs else 1.0
    survivors = sf_total * n

    value_cols = query.value_columns
    if query.aggregates:
        out_tuples = _estimated_groups(projection, query, survivors)
    else:
        out_tuples = survivors

    predictions = {}
    for strategy in strategies:
        pred = predictions[strategy] = PlanPrediction(strategy=strategy.value)
        if strategy is Strategy.LM_PARALLEL:
            rlp_out = math.inf
            for col in ordered:
                pred.add(f"DS1({col})", ds1(col))
                rlp_out = min(rlp_out, _position_run_length(metas[col], sfs[col]))
            if not ordered:
                rlp_out = float(n)
            if len(ordered) > 1:
                inputs = [
                    AndCost(
                        poslist=int(sfs[col] * n),
                        run_length=_position_run_length(metas[col], sfs[col]),
                    )
                    for col in ordered
                ]
                pred.add("AND", and_cost(inputs, k))
            for col in value_cols:
                # Scanned earlier -> pinned mini-column; index-derived positions
                # never touched the column, so its extraction is a first access.
                reaccess = col in sfs and not indexed.get(col)
                # Extraction from run-length columns jumps per run, not per
                # position, whatever the position representation.
                extraction_rl = max(rlp_out, metas[col].run_length)
                pred.add(
                    f"DS3({col})",
                    ds_case3_cost(
                        metas[col],
                        int(survivors),
                        extraction_rl,
                        k,
                        reaccess=reaccess,
                        seek_fragments=fragments,
                    ),
                )
            pred.add(*_lm_tail(query, survivors, out_tuples, len(value_cols), k))
        elif strategy is Strategy.LM_PIPELINED:
            running = float(n)
            rlp = float(n)
            for i, col in enumerate(ordered):
                if i == 0:
                    pred.add(f"DS1({col})", ds1(col))
                    rlp = _position_run_length(metas[col], sfs[col])
                else:
                    cost = ds_case3_cost(
                        metas[col], int(running), rlp, k, seek_fragments=fragments
                    )
                    extra = OperatorCost(cpu_us=running * k.fc, io_us=0.0)
                    pred.add(f"DS3+pred({col})", cost + extra)
                    rlp = min(rlp, _position_run_length(metas[col], sfs[col]))
                running *= sfs[col]
            for col in value_cols:
                reaccess = (
                    bool(ordered) and col == ordered[0] and not indexed.get(col)
                )
                extraction_rl = max(rlp, metas[col].run_length)
                pred.add(
                    f"DS3({col})",
                    ds_case3_cost(
                        metas[col],
                        int(survivors),
                        extraction_rl,
                        k,
                        reaccess=reaccess,
                        seek_fragments=fragments,
                    ),
                )
            pred.add(*_lm_tail(query, survivors, out_tuples, len(value_cols), k))
        elif strategy is Strategy.EM_PIPELINED:
            running = float(n)
            cols = ordered or value_cols[:1]
            first = cols[0]
            pred.add(
                f"DS2({first})",
                ds_case2_cost(
                    metas[first],
                    sfs.get(first, 1.0),
                    k,
                    read_fraction=fractions.get(first),
                ),
            )
            running *= sfs.get(first, 1.0)
            remaining = cols[1:] + [c for c in value_cols if c not in cols]
            for col in remaining:
                pred.add(
                    f"DS4({col})",
                    ds_case4_cost(metas[col], int(running), sfs.get(col, 1.0), k),
                )
                running *= sfs.get(col, 1.0)
            pred.add(*_em_tail(query, survivors, out_tuples, k))
        elif strategy is Strategy.EM_PARALLEL:
            spc_cols = ordered + [c for c in value_cols if c not in ordered]
            pred.add(
                "SPC",
                spc_cost(
                    [metas[c] for c in spc_cols],
                    [sfs.get(c, 1.0) for c in spc_cols],
                    k,
                ),
            )
            pred.add(*_em_tail(query, survivors, out_tuples, k))
    return predictions


def _predict_partitioned(
    projection: Projection,
    query: SelectQuery,
    strategies: tuple[Strategy, ...],
    constants: ModelConstants,
    resident: float,
) -> dict[Strategy, PlanPrediction]:
    """Partitioned prediction: the sum over surviving partitions.

    Each survivor is predicted as an independent sub-plan over its child
    projection (whose block counts, run lengths and histograms describe
    exactly the rows the executor will touch), so the whole-query prediction
    — and EXPLAIN's per-step attribution — stays exact under pruning. A
    fully pruned query predicts (and costs) zero.
    """
    from ..planner.partitioned import prune_partitions

    survivors, _total = prune_partitions(projection, query)
    preds = {s: PlanPrediction(strategy=s.value) for s in strategies}
    for part in survivors:
        try:
            children = predict_strategies(
                part.open(), query, strategies, constants, resident
            )
        except CatalogError:
            raise
        except (StorageError, OSError) as exc:
            # Prediction reads block headers; a lost partition file must
            # surface as a catalog failure naming the partition here too.
            raise CatalogError(
                f"partition {part.name!r} of projection "
                f"{projection.name!r} is unreadable: {exc}"
            ) from exc
        for strategy, child in children.items():
            preds[strategy].steps.extend(
                (f"{part.name}:{name}", cost) for name, cost in child.steps
            )
    return preds


def _lm_tail(
    query: SelectQuery,
    survivors: float,
    out_tuples: float,
    degree: int,
    k: ModelConstants,
) -> tuple[str, OperatorCost]:
    """Aggregation-or-merge plus output for LM plans."""
    if query.aggregates:
        agg = OperatorCost(cpu_us=survivors * k.ticcol, io_us=0.0)
        tail = agg + merge_cost(int(out_tuples), degree, k) + output_cost(
            int(out_tuples), k
        )
        return "aggregate+output", tail
    tail = merge_cost(int(survivors), degree, k) + output_cost(int(out_tuples), k)
    return "merge+output", tail


def _em_tail(
    query: SelectQuery, survivors: float, out_tuples: float, k: ModelConstants
) -> tuple[str, OperatorCost]:
    """Aggregation (tuple-iterator input) plus output for EM plans."""
    if query.aggregates:
        agg = OperatorCost(cpu_us=survivors * k.tictup, io_us=0.0)
        return "aggregate+output", agg + output_cost(int(out_tuples), k)
    return "output", output_cost(int(out_tuples), k)


def predict_join(
    left_projection: Projection,
    right_projection: Projection,
    query: JoinQuery,
    right_strategy: RightTableStrategy,
    constants: ModelConstants = PAPER_CONSTANTS,
    resident: float = 0.0,
) -> PlanPrediction:
    """Predict join cost per inner-table strategy (our model extension)."""
    k = constants
    enc = query.encoding_map
    pred = PlanPrediction(strategy=right_strategy.value)
    n_left = left_projection.n_rows
    n_right = right_projection.n_rows

    left_key_file = left_projection.column(query.left_key).file(
        enc.get(query.left_key)
    )
    sf = 1.0
    for p in query.left_predicates:
        sf *= estimate_selectivity(left_key_file, p)
    matches = sf * n_left

    left_meta = ColumnMeta.from_file(left_key_file, resident=resident)
    pred.add("DS1(left key)", ds_case1_cost(left_meta, sf, k))
    rlp = _position_run_length(left_meta, sf)
    pred.add(
        "DS3(left key)", ds_case3_cost(left_meta, int(matches), rlp, k, reaccess=True)
    )

    right_metas = {
        c: ColumnMeta.from_file(
            right_projection.column(c).file(enc.get(c)), resident=resident
        )
        for c in (query.right_key, *query.right_select)
    }
    probe = OperatorCost(
        cpu_us=n_right * k.ticcol + n_right * k.fc + matches * k.fc, io_us=0.0
    )
    if right_strategy is RightTableStrategy.MATERIALIZED:
        pred.add(
            "SPC(right)",
            spc_cost(list(right_metas.values()), [1.0] * len(right_metas), k),
        )
        pred.add("probe+emit", probe + OperatorCost(cpu_us=matches * k.tictup))
    elif right_strategy is RightTableStrategy.MULTI_COLUMN:
        io = sum(
            (m.blocks / k.pf * k.seek + m.blocks * k.read) * (1 - m.resident)
            for m in right_metas.values()
        )
        cpu = sum(m.blocks * k.bic for m in right_metas.values())
        pred.add("pin(right)", OperatorCost(cpu_us=cpu, io_us=io))
        extract = OperatorCost(
            cpu_us=matches * (len(query.right_select)) * (k.fc + k.ticcol)
        )
        pred.add("probe+extract", probe + extract)
    else:
        key_meta = right_metas[query.right_key]
        pred.add("DS3(right key)", ds_case3_cost(key_meta, n_right, n_right, k))
        # Out-of-order positional fetch: sort the match positions, then one
        # jump per match per column — the pure-LM penalty.
        log_n = math.log2(max(matches, 2.0))
        sort = OperatorCost(cpu_us=matches * log_n * k.fc)
        fetch = OperatorCost(
            cpu_us=matches
            * len(query.right_select)
            * (k.ticcol + 2 * k.fc)
        )
        io = sum(
            (m.blocks / k.pf * k.seek + m.blocks * k.read) * (1 - m.resident)
            for c, m in right_metas.items()
            if c != query.right_key
        )
        pred.add("probe", probe)
        pred.add("fetch out-of-order", sort + fetch + OperatorCost(io_us=io))

    fetch_left = ds_case3_cost(
        ColumnMeta.from_file(
            left_projection.column(query.left_select[0]).file(
                enc.get(query.left_select[0])
            ),
            resident=resident,
        )
        if query.left_select
        else left_meta,
        int(matches),
        rlp,
        k,
    )
    pred.add("DS3(left values)", fetch_left)
    pred.add(
        "merge+output",
        merge_cost(
            int(matches), len(query.left_select) + len(query.right_select), k
        )
        + output_cost(int(matches), k),
    )
    return pred
