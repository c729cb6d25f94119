"""A-priori end-to-end plan cost prediction.

Prices the nodes :func:`repro.planner.nodes.plan_nodes` builds — the very
operator tree the executor runs — by attaching the per-operator formulas of
:mod:`repro.model.cost` to each node, the way Section 3.5's example plans
chain DS/AND/MERGE/SPC operators. Selectivities come from the header-only
estimator; nothing here reads block payloads.

Kept on purpose, so predictions stay what they were (inputs for a host
cost model): a one-input AND is executed but not priced; OUTPUT is priced
with each (sub)plan's last operator, so once per partition, though it runs
once after COMBINE; COMBINE, UNION, GHOST and DELTA are not priced; and
the predictor ignores the ``use_indexes`` / ``use_multicolumns`` ablations.

A join's outer core is priced as a selection core is; its inner input,
JOIN and fetches get the join extension's terms (the paper's model stops
at selection / aggregation plans; DESIGN.md lists it as an extension).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import UnsupportedOperationError
from ..planner.estimate import estimate_block_fragments, estimate_read_fraction
from ..planner.logical import JoinQuery, SelectQuery
from ..planner.nodes import (
    JoinFacts,
    PlanFacts,
    PlanNode,
    partition_facts,
    stored_query,
    uses_index,
)
from ..planner.strategies import RightTableStrategy, Strategy
from ..storage.projection import Projection
from .constants import PAPER_CONSTANTS, ModelConstants
from .cost import (
    AndCost,
    ColumnMeta,
    OperatorCost,
    and_cost,
    disk_reads,
    ds_case1_cost,
    ds_case2_cost,
    ds_case3_cost,
    ds_case4_cost,
    merge_cost,
    output_cost,
    price,
    spc_cost,
)

_BITMAP_WORD = 64


@dataclass
class PlanPrediction:
    """One strategy's predicted event counts per step, for one query."""

    strategy: str
    steps: list[tuple[str, OperatorCost]] = field(default_factory=list)
    constants: ModelConstants = PAPER_CONSTANTS

    @property
    def events(self) -> OperatorCost:
        """The event counts of every step, summed in step order."""
        return sum((cost for _name, cost in self.steps), OperatorCost())

    @property
    def cpu_ms(self) -> float:
        return price(self.events, self.constants)[0] / 1000.0

    @property
    def io_ms(self) -> float:
        return price(self.events, self.constants)[1] / 1000.0

    @property
    def total_ms(self) -> float:
        cpu_us, io_us = price(self.events, self.constants)
        return cpu_us / 1000.0 + io_us / 1000.0

    def breakdown(self) -> dict[str, float]:
        return {
            name: sum(price(cost, self.constants)) / 1000.0
            for name, cost in self.steps
        }


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


def _estimated_groups(files, group_columns, survivors: float) -> float:
    """Crude distinct-group estimate for aggregate output sizing."""
    bound = 1.0
    for col in group_columns:
        cf = files[col]
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

    Raises:
        UnsupportedOperationError: the strategy cannot run the query.
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
    pending=None,
) -> dict[Strategy, PlanPrediction]:
    """Predict *query* under each of *strategies* from one metadata pass.

    Column metadata, selectivities and the pruned partition set do not
    depend on the strategy, so they are gathered once (per surviving
    partition) and each strategy's plan nodes are priced from them; each
    prediction is exactly what pricing that strategy alone gives. A
    strategy whose plan cannot run the query is left out, and when none can
    the executor's error is raised. A partitioned prediction is the sum
    over the surviving partitions' sub-plans, each step prefixed with its
    partition's name; a fully pruned query predicts (and costs) zero. Over
    *pending* writes, the stored part of the plan is what is priced. A
    :class:`~repro.planner.logical.JoinQuery` is priced over its ``(left,
    right)`` pair *projection*, per inner-table strategy.
    """
    strategies = tuple(strategies)
    if not strategies:
        return {}
    if isinstance(query, JoinQuery):
        facts = JoinFacts(*projection, query, pending)
        outer = _Inputs(facts.outer, resident)
        inner = _Inputs(facts.inner, resident)
        return {
            strategy: PlanPrediction(strategy.value, _price_join(
                facts, outer, inner.metas, facts.core(strategy), constants.pf
            ), constants)
            for strategy in strategies
        }
    sub_query = stored_query(projection, query, pending)
    if projection.is_partitioned:
        from ..planner.partitioned import prune_partitions

        scopes = [
            (f"{part.name}:", partition_facts(projection, part, sub_query))
            for part in prune_partitions(projection, sub_query)[0]
        ]
    else:
        scopes = [("", PlanFacts(projection, sub_query))]
    scopes = [(prefix, f, _Inputs(f, resident)) for prefix, f in scopes]
    predictions: dict[Strategy, PlanPrediction] = {}
    error = None
    for strategy in strategies:
        prediction = PlanPrediction(strategy.value, constants=constants)
        try:
            for prefix, facts, inputs in scopes:
                prediction.steps.extend(
                    (prefix + name, cost)
                    for name, cost in _price(
                        facts, inputs, facts.core(strategy), constants.pf
                    )
                )
        except UnsupportedOperationError as exc:
            error = exc
            continue
        predictions[strategy] = prediction
    if error is not None and not predictions:
        raise error
    return predictions


class _Inputs:
    """What pricing needs from a plan's metadata beyond the nodes, worked
    out once for every strategy priced from the same :class:`PlanFacts`."""

    def __init__(self, facts: PlanFacts, resident: float):
        query, projection = facts.query, facts.projection
        files, n = facts.files, projection.n_rows
        self.metas = {
            c: ColumnMeta.from_file(cf, resident=resident) for c, cf in files.items()
        }
        self.conds = [cond for group in facts.where for cond in group]
        self.fractions = {
            (c, p): estimate_read_fraction(files[c], p) for c, p, _sf in self.conds
        }
        if query.disjuncts:
            miss = math.prod(
                1.0 - math.prod(sf for *_, sf in g) for g in facts.where
            )
            self.survivors = (1.0 - miss) * n
        else:
            self.survivors = math.prod((sf for *_, sf in self.conds), start=1.0) * n
        self.out_tuples = int(
            _estimated_groups(files, query.group_columns, self.survivors)
            if query.aggregates else self.survivors
        )
        # With no predicate the positions are one full-range slab, which
        # a gather reads sequentially, as DS1 reads the column.
        self.fragments = 1.0
        if self.conds:
            col, pred, _sf = min(self.conds, key=lambda cond: cond[2])
            self.fragments = estimate_block_fragments(files[col], pred)


def _price(
    facts: PlanFacts, inputs: _Inputs, nodes: list[PlanNode], pf: int
) -> list[tuple[str, OperatorCost]]:
    """The prediction steps of one operator core.

    Nodes are priced in execution order, composed as the paper's Section 3.5
    plans are: an AND lists its DS1 operands most-selective-first, then
    itself (priced only with two or more); SPC applies its predicates
    most-selective-first; the DS3 extractions feeding MERGE / AGG are priced
    once per value column, then that operator together with the output.
    """
    steps, tail, pinned, rlp = _price_scans(facts, inputs, nodes, pf)
    survivors, out_tuples = inputs.survivors, inputs.out_tuples
    value_cols = facts.query.value_columns
    output = output_cost(out_tuples)
    if tail is None:
        return steps + [("output", output)]
    if tail.case == "tuple":
        agg = OperatorCost(tuple_iterations=survivors)
        return steps + [("aggregate+output", agg + output)]
    steps += [
        (f"DS3({col})", _extraction(facts, inputs, col, rlp, pinned, pf))
        for col in value_cols
    ]
    if tail.op == "AGG":
        agg = OperatorCost(column_iterations=survivors)
        merge = merge_cost(out_tuples, len(value_cols))
        return steps + [("aggregate+output", agg + merge + output)]
    merge = merge_cost(int(survivors), len(value_cols))
    return steps + [("merge+output", merge + output)]


def _extraction(facts, inputs, col, rlp, pinned, pf) -> OperatorCost:
    """DS3 of *col* at a core's surviving positions, whose run length is
    *rlp* (infinite when no predicate ran)."""
    meta = inputs.metas[col]
    rlp = float(facts.projection.n_rows) if rlp == math.inf else rlp
    # Extraction from run-length columns jumps per run, not per position,
    # whatever the position representation.
    return ds_case3_cost(
        meta, int(inputs.survivors), max(rlp, meta.run_length), pf,
        reaccess=col in pinned, seek_fragments=inputs.fragments,
    )


def _price_scans(facts: PlanFacts, inputs: _Inputs, nodes, pf: int):
    """The steps of a core's scans (DS1, AND, DS3+filter, DS2, DS4, SPC)
    in execution order, then what the operators after them are priced
    from: the MERGE / AGG node (None when there is none), the columns a
    DS1 scan pinned for re-access and the surviving positions' run
    length."""
    query, projection, n = facts.query, facts.projection, facts.projection.n_rows
    metas, conds, fragments = inputs.metas, inputs.conds, inputs.fragments
    pinned = set()  # columns a DS1 scan pins for re-access
    operands = {j for node in nodes if node.op == "AND" for j in node.inputs}
    steps, deferred, tail = [], {}, None
    running, rlp = float(n), math.inf  # surviving tuples; positions' run length
    for i, node in enumerate(nodes):
        op, col, sf = node.op, node.column, node.sf
        if op == "DS1":
            if uses_index(projection, node):
                # Binary search over the index: no blocks touched at all.
                cost = OperatorCost(function_calls=16)
            else:
                pinned.add(col)
                fraction = inputs.fractions[col, node.predicate]
                cost = ds_case1_cost(metas[col], sf, read_fraction=fraction)
            if i in operands:
                deferred[i] = (f"DS1({col})", cost)
            else:
                steps.append((f"DS1({col})", cost))
        elif op == "AND":
            ordered = sorted(node.inputs, key=lambda j: nodes[j].sf)
            steps += [deferred.pop(j) for j in ordered]
            if len(ordered) > 1:
                steps.append(("AND", and_cost([
                    AndCost(
                        poslist=int(nodes[j].sf * n),
                        run_length=_position_run_length(
                            metas[nodes[j].column], nodes[j].sf
                        ),
                    )
                    for j in ordered
                ])))
        elif op == "DS3+filter":
            cost = ds_case3_cost(
                metas[col], int(running), rlp, pf, seek_fragments=fragments
            )
            extra = OperatorCost(function_calls=running)
            steps.append((f"DS3+pred({col})", cost + extra))
        elif op == "DS2":
            fraction = inputs.fractions.get((col, node.predicate))
            steps.append((
                f"DS2({col})",
                ds_case2_cost(metas[col], sf, read_fraction=fraction),
            ))
        elif op == "DS4":
            steps.append(
                (f"DS4({col})", ds_case4_cost(metas[col], int(running), sf))
            )
        elif op == "SPC":
            sfs = {c: f for c, _p, f in sorted(conds, key=lambda cond: cond[2])}
            cols = list(sfs) + [c for c in query.value_columns if c not in sfs]
            steps.append(("SPC", spc_cost(
                [metas[c] for c in cols], [sfs.get(c, 1.0) for c in cols]
            )))
        elif op in ("MERGE", "AGG"):
            tail = node
        if op in ("DS1", "DS3+filter"):
            rlp = min(rlp, _position_run_length(metas[col], sf))
        running *= sf
    return steps, tail, pinned, rlp


def predict_join(
    left_projection: Projection,
    right_projection: Projection,
    query: JoinQuery,
    right_strategy: RightTableStrategy,
    constants: ModelConstants = PAPER_CONSTANTS,
    resident: float = 0.0,
) -> PlanPrediction:
    """Predict *query* under one inner-table strategy (our model
    extension); :func:`predict_strategies` over the ``(left, right)``
    pair."""
    return predict_strategies(
        (left_projection, right_projection), query, (right_strategy,),
        constants, resident,
    )[right_strategy]


def _price_join(
    facts: JoinFacts,
    inputs: _Inputs,
    metas: dict[str, ColumnMeta],
    nodes: list[PlanNode],
    pf: int,
) -> list[tuple[str, OperatorCost]]:
    """The prediction steps of a join's nodes.

    The outer core is priced as a selection core from its *inputs* (SPC,
    or the DS1 leaves and their AND, then the left key's DS3 extraction).
    The rest get the join extension's terms, from the inner columns'
    *metas*: the inner input, the probe (a build pass over the inner keys
    and one lookup per outer row), the fetches (the right values at
    unordered positions: a sort, then one jump per match per column), then
    MERGE, or AGG priced as a selection's vector aggregation, with the
    output. Every outer survivor is assumed to find its key (FK-PK).
    """
    query, n_outer = facts.query, facts.n_outer
    steps, _tail, pinned, rlp = _price_scans(
        facts.outer, inputs, nodes[:n_outer], pf
    )
    if not facts.early:
        steps.append(("DS3(left key)", _extraction(
            facts.outer, inputs, query.left_key, rlp, pinned, pf
        )))
    n_right = facts.inner.projection.n_rows
    matches = inputs.survivors
    right_cols = query.right_select
    fetched = matches * len(right_cols)  # right values, one per match

    def read_all(columns) -> OperatorCost:
        """Every block of *columns*, iterated and read (a seek per PF)."""
        total = OperatorCost()
        for c in columns:
            blocks = metas[c].blocks
            total += OperatorCost(
                block_iterations=blocks,
                **disk_reads(metas[c], blocks, blocks / pf),
            )
        return total

    probe = OperatorCost(
        column_iterations=n_right, function_calls=n_right + matches
    )
    for node in nodes[n_outer:]:
        op, case = node.op, node.case
        if op == "SPC":
            steps.append(("SPC(right)", spc_cost(
                list(metas.values()), [1.0] * len(metas)
            )))
        elif op == "PIN":
            steps.append(("pin(right)", read_all(metas)))
        elif op == "DS3":
            steps.append(("DS3(right key)", ds_case3_cost(
                metas[query.right_key], n_right, n_right, pf
            )))
        elif op == "JOIN" and case == "materialized":
            emit = OperatorCost(tuple_iterations=matches)
            steps.append(("probe+emit", probe + emit))
        elif op == "JOIN" and case == "multi-column":
            extract = OperatorCost(
                column_iterations=fetched, function_calls=fetched
            )
            steps.append(("probe+extract", probe + extract))
        elif op == "JOIN":
            steps.append(("probe", probe))
        elif op == "FETCH" and case == "right":
            # Out-of-order positional fetch: sort the match positions, then
            # one jump per match per column — the pure-LM penalty.
            log_n = math.log2(max(matches, 2.0))
            sort = OperatorCost(function_calls=matches * log_n)
            fetch = OperatorCost(
                column_iterations=fetched, function_calls=2 * fetched
            )
            io = read_all([c for c in metas if c != query.right_key])
            io = io._replace(block_iterations=0.0)
            steps.append(("fetch out-of-order", sort + fetch + io))
        elif op == "FETCH" and facts.early:
            # The surviving outer rows, picked out of the outer tuples.
            rows = OperatorCost(tuple_iterations=matches)
            steps.append(("left rows", rows))
        elif op == "FETCH":
            key = inputs.metas[query.left_key]
            first = query.left_select[0] if query.left_select else None
            meta = inputs.metas[first] if first else key
            sf = matches / max(facts.outer.projection.n_rows, 1)
            steps.append(("DS3(left values)", ds_case3_cost(
                meta, int(matches), _position_run_length(key, sf), pf
            )))
        elif op == "AGG":
            files = {**facts.outer.files, **facts.inner.files}
            groups = int(
                _estimated_groups(files, query.group_columns, matches)
            )
            value_cols = dict.fromkeys([
                *query.group_columns,
                *(s.column for s in query.aggregates if s.func != "count"),
            ])
            agg = OperatorCost(column_iterations=matches)
            merge = merge_cost(groups, len(value_cols))
            output = output_cost(groups)
            steps.append(("aggregate+output", agg + merge + output))
        elif op == "MERGE":
            merge = merge_cost(
                int(matches), len(query.left_select) + len(right_cols)
            )
            output = output_cost(int(matches))
            steps.append(("merge+output", merge + output))
    return steps
