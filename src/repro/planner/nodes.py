"""The operator nodes of a plan, built once from column metadata.

The paper's Section 3 model prices exactly the operator tree each strategy
builds, so that tree is written down once, here: :func:`plan_nodes` lists
its operators in execution order — a selection's (pending writes fold in
through ``GHOST``, ``DELTA`` and the plan's one ``COMBINE``) or a join's
(:class:`JoinFacts`: the outer core, the inner input, ``JOIN``, the
fetches, ``MERGE`` or ``AGG``) — and three views read the same list — the
executor (:mod:`repro.planner.plans`) runs them, one span per traced node;
the predictor (:mod:`repro.model.predictor`) attaches a
:mod:`repro.model.cost` formula to each; EXPLAIN
(:func:`repro.planner.describe.describe_plan`) renders them. Building them
reads only metadata (encodings and header-only selectivity estimates), and
a strategy that cannot run the query raises the executor's error here, so
every view agrees on what runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

from ..delta import expand_avg
from ..errors import (
    CatalogError,
    CorruptBlockError,
    ExecutionError,
    PlanError,
    StorageError,
    UnsupportedOperationError,
)
from ..predicates import Predicate, combine_column_predicates
from .estimate import estimate_selectivity
from .logical import JoinQuery, SelectQuery
from .strategies import LeftTableStrategy, RightTableStrategy, Strategy


class PlanNode(NamedTuple):
    """One operator application.

    ``op`` is named as its span is. ``inputs`` index the nodes it consumes
    within its operator core (the outline around the cores — PRUNE,
    PARTITION, GHOST, DELTA, COMBINE — and the tail consume the result so
    far). ``case`` says which variant runs: DS1 ``leaf`` (an independent
    LM-parallel leaf), DS3 ``extract`` / ``gather`` / ``group`` / ``key``
    (a join's outer key at the surviving positions), AGG ``tuple`` /
    ``vector``, COMBINE ``aggregate`` / ``concat``, JOIN the inner-table
    strategy, FETCH the join side it fetches (``left`` / ``right``).
    ``partition`` is set on a PARTITION node and on the nodes of its
    sub-plan.
    """

    op: str
    column: str | None = None
    predicate: Predicate | None = None
    sf: float = 1.0  # the predicate's estimated selectivity
    inputs: tuple[int, ...] = ()
    case: str = ""
    partition: object = None

    @property
    def traced(self) -> bool:
        """Whether executing this node opens a span."""
        if self.op == "COMBINE":
            return self.case == "aggregate"
        return self.op not in ("UNION", "HAVING", "ORDER BY", "LIMIT")


def grouped_predicates(predicates) -> dict[str, Predicate]:
    """One (possibly compound) predicate per column, in first-seen order."""
    by_column: dict[str, list[Predicate]] = {}
    for pred in predicates:
        by_column.setdefault(pred.column, []).append(pred)
    return {
        col: combine_column_predicates(preds) for col, preds in by_column.items()
    }


def uses_index(projection, node: PlanNode) -> bool:
    """Whether a DS1 node is answered from the column's clustered index: no
    block is read and nothing is pinned for later extraction."""
    parts = getattr(node.predicate, "predicates", (node.predicate,))
    return projection.column(node.column).indexed and all(
        getattr(p, "in_values", None) is not None or p.op != "!=" for p in parts
    )


def executed_strategy(query, strategy):
    """The strategy whose plan runs: a disjunction always runs the
    position-set union, which is the LM-parallel plan."""
    if isinstance(query, SelectQuery) and query.disjuncts:
        return Strategy.LM_PARALLEL
    return strategy


def tail_ops(query) -> list[str]:
    """What runs once per query over the result so far: after the operator
    core, or after COMBINE on a partitioned projection."""
    ops = ["HAVING"] if query.having else []
    ops += ["ORDER BY"] if query.order_by else []
    ops += ["LIMIT"] if query.limit is not None else []
    return ops + ["OUTPUT"]


class PlanFacts:
    """The metadata one unpartitioned operator core is built from: the
    column file of every column the query touches (``files``) and, per
    conjunction group (one unless the query is a disjunction), ``(column,
    predicate, estimated selectivity)`` in first-seen order (``where``)."""

    def __init__(self, projection, query):
        self.projection = projection
        self.query = query
        enc = query.encoding_map
        self.files = {
            col: projection.column(col).file(enc.get(col))
            for col in query.all_columns
        }
        self.where = [
            tuple(
                (col, pred, estimate_selectivity(self.files[col], pred))
                for col, pred in grouped_predicates(group).items()
            )
            for group in (query.disjuncts or (query.predicates,))
        ]

    def core(self, strategy: Strategy) -> list[PlanNode]:
        """The operator core *strategy* runs: everything before the tail."""
        query = self.query
        nodes: list[PlanNode] = []

        def add(op, column=None, predicate=None, sf=1.0, inputs=(), case=""):
            nodes.append(PlanNode(op, column, predicate, sf, tuple(inputs), case))
            return len(nodes) - 1

        # Pipelined plans apply the most selective predicate first.
        by_sf = sorted(self.where[0], key=lambda cond: cond[2])
        source = None  # the node producing the positions LM extracts at
        if query.disjuncts:
            # "The positions matching a predicate can be derived by ORing
            # together the appropriate bitmaps" (paper §2.1.1): per-group
            # AND, then a union, whatever strategy the caller named.
            groups = []
            for group in self.where:
                leaves = [add("DS1", *cond) for cond in group]
                groups.append(
                    add("AND", inputs=leaves) if len(leaves) > 1 else leaves[0]
                )
            source = add("UNION", inputs=groups)
        elif strategy is Strategy.LM_PARALLEL:
            leaves = [add("DS1", *cond, case="leaf") for cond in self.where[0]]
            source = add("AND", inputs=leaves) if leaves else None
        elif strategy is Strategy.LM_PIPELINED:
            for cond in by_sf:
                encoding = self.files[cond[0]].encoding
                if source is None:
                    source = add("DS1", *cond)
                elif not encoding.supports_position_filtering:
                    raise UnsupportedOperationError(
                        f"DS3 cannot position-filter a {encoding.name} column"
                    )
                else:
                    source = add("DS3+filter", *cond, inputs=(source,))
        else:
            if strategy is Strategy.EM_PARALLEL:
                top = add("SPC")
            else:
                filtered = {cond[0] for cond in by_sf}
                chain = by_sf + [
                    (c, None, 1.0) for c in query.value_columns if c not in filtered
                ]
                if not chain:
                    raise PlanError("query touches no columns")
                top = add("DS2", *chain[0])
                for cond in chain[1:]:
                    top = add("DS4", *cond, inputs=(top,))
            if query.aggregates:
                add("AGG", inputs=(top,), case="tuple")
            return nodes
        # Late materialization's top: DS3 at the final positions, then MERGE,
        # or vector aggregation over the gathered value and group columns.
        inputs = () if source is None else (source,)
        if not query.aggregates:
            extracts = [
                add("DS3", c, inputs=inputs, case="extract")
                for c in query.value_columns
            ]
            add("MERGE", inputs=extracts)
            return nodes
        gathered = dict.fromkeys(
            s.column for s in query.aggregates if s.func != "count"
        )
        columns = [add("DS3", c, inputs=inputs, case="gather") for c in gathered]
        columns += [
            add("DS3", c, inputs=inputs, case="group") for c in query.group_columns
        ]
        add("AGG", inputs=columns, case="vector")
        return nodes


def stored_overrides(projection, encodings) -> tuple:
    """The ``(column, encoding)`` overrides of *encodings* that
    *projection* stores: the ones a join side reads its columns with."""
    names = set(projection.column_names)
    return tuple(
        (col, enc) for col, enc in encodings
        if col in names and enc in projection.physical_column(col).encodings
    )


class JoinFacts:
    """The metadata a join's nodes are built from: the :class:`PlanFacts`
    of its two sides, each read as a selection — the outer one (``outer``)
    of the left key, the left select list and the predicate columns, the
    inner one (``inner``) of the right key and the right select list. An
    encoding override applies to each side that stores the column in that
    encoding.

    A join's nodes are its outer core (``n_outer`` nodes: EM-parallel's
    SPC for an EARLY outer input; for a LATE one the DS1 leaves, their AND
    when there are two or more, then the DS3 gather of the left key), then
    one inner input node, then ``JOIN`` and what follows it.

    Raises:
        ExecutionError: a side has *pending* writes (``{table: count}``);
            joins read the read store only.
        CatalogError: neither side stores an overridden column in its
            override's encoding.
    """

    def __init__(self, left, right, query: JoinQuery, pending=None):
        if pending:
            table, count = next(iter(pending.items()))
            raise ExecutionError(
                f"table {table!r} has {count} pending writes; call "
                "Database.merge() before joining"
            )
        outer_enc = stored_overrides(left, query.encodings)
        inner_enc = stored_overrides(right, query.encodings)
        for col, enc in query.encodings:
            if (col, enc) not in outer_enc + inner_enc:
                raise CatalogError(
                    f"column {col!r} has no {enc!r} encoding in "
                    f"{query.left!r} or {query.right!r}"
                )
        self.query = query
        self.outer = PlanFacts(left, SelectQuery(
            projection=query.left,
            select=tuple(dict.fromkeys((query.left_key, *query.left_select))),
            predicates=query.left_predicates,
            encodings=outer_enc,
        ))
        self.inner = PlanFacts(right, SelectQuery(
            projection=query.right,
            select=tuple(dict.fromkeys((query.right_key, *query.right_select))),
            encodings=inner_enc,
        ))
        self.early = (
            LeftTableStrategy.from_name(query.left_strategy)
            is LeftTableStrategy.EARLY
        )
        if self.early:
            self.outer_nodes = self.outer.core(Strategy.EM_PARALLEL)
        else:
            nodes = [
                PlanNode("DS1", *cond, case="leaf")
                for cond in self.outer.where[0]
            ]
            if len(nodes) > 1:
                nodes.append(PlanNode("AND", inputs=tuple(range(len(nodes)))))
            source = (len(nodes) - 1,) if nodes else ()
            nodes.append(
                PlanNode("DS3", query.left_key, inputs=source, case="key")
            )
            self.outer_nodes = nodes

    @property
    def n_outer(self) -> int:
        """How many nodes the outer core is; the inner input follows."""
        return len(self.outer_nodes)

    def core(self, strategy: RightTableStrategy) -> list[PlanNode]:
        """Every node the join runs with the *strategy* inner input."""
        nodes = list(self.outer_nodes)

        def add(op, column=None, inputs=(), case=""):
            nodes.append(PlanNode(op, column, inputs=tuple(inputs), case=case))
            return len(nodes) - 1

        outer = len(nodes) - 1
        if strategy is RightTableStrategy.MATERIALIZED:
            inner = add("SPC")
        elif strategy is RightTableStrategy.MULTI_COLUMN:
            inner = add("PIN")
        else:
            inner = add("DS3", self.query.right_key, case="extract")
        join = add("JOIN", inputs=(outer, inner), case=strategy.value)
        # Single-column's JOIN outputs positions only: the right values are
        # fetched at its unordered right positions.
        fetches = (
            [add("FETCH", inputs=(join,), case="right")]
            if strategy is RightTableStrategy.SINGLE_COLUMN else []
        )
        fetches.append(add("FETCH", inputs=(join,), case="left"))
        top = "AGG" if self.query.aggregates else "MERGE"
        add(top, inputs=(join, *fetches))
        return nodes + [PlanNode("OUTPUT")]


def stored_query(projection, query, pending=None):
    """The one planner rule for the query the stored part of a plan runs.

    *query* itself unless COMBINE folds partials (a partitioned projection,
    or a :class:`~repro.delta.PendingWrites` snapshot in *pending*). Then
    HAVING / ORDER BY / LIMIT wait for the tail, AVG becomes SUM + COUNT
    partials (:func:`~repro.delta.expand_avg`), an aggregation under
    pending deletes fetches rows for GHOST instead, and count(distinct)
    raises: its partials cannot be combined.
    """
    if not pending and not projection.is_partitioned:
        return query
    if any(s.func == "count_distinct" for s in query.aggregates):
        if pending:
            raise ExecutionError(
                "count(distinct) cannot merge with pending writes; call "
                "Database.merge() first"
            )
        raise UnsupportedOperationError(
            "count(distinct) partials cannot be re-combined across "
            "partitions; query an unpartitioned projection instead"
        )
    specs = expand_avg(query.aggregates)[0]
    tail = dict(order_by=(), limit=None, having=())
    if not specs:
        return replace(query, **tail)
    groups = query.group_columns
    if pending and pending.n_deletes:
        rows = dict.fromkeys([*groups, *(s.column for s in specs if s.column)])
        return replace(
            query, select=tuple(rows), aggregates=(), group_by=None, **tail
        )
    select = (*groups, *(s.output_name for s in specs))
    return replace(query, select=select, aggregates=tuple(specs), **tail)


def plan_outline(
    projection, query, strategy: Strategy, pending=None
) -> list[PlanNode]:
    """:func:`plan_nodes` without the partitions' sub-plans: the stored
    part (the operator core of :func:`stored_query`, or PRUNE and one
    PARTITION per surviving partition), then over *pending* writes GHOST
    (if rows are pending deletion) and DELTA, then one COMBINE of every
    partial, then the tail. The executor builds each sub-plan inside its
    PARTITION span, where a partition's failures belong."""
    tail = [PlanNode(op) for op in tail_ops(query)]
    sub_query = stored_query(projection, query, pending)
    survivors = ()
    if not projection.is_partitioned:
        stored = PlanFacts(projection, sub_query).core(strategy)
        if not pending:
            return stored + tail
    else:
        from .partitioned import prune_partitions

        survivors, _total = prune_partitions(projection, sub_query)
        stored = [PlanNode("PRUNE")]
        stored += [PlanNode("PARTITION", partition=p) for p in survivors]
    if pending:
        stored += [PlanNode("GHOST")] if pending.n_deletes else []
        stored.append(PlanNode("DELTA"))
    folds = query.aggregates and (pending or survivors)
    case = "aggregate" if folds else "concat"
    return stored + [PlanNode("COMBINE", case=case)] + tail


@contextmanager
def partition_errors(projection, part):
    """Storage failures inside *part* surface as a
    :class:`~repro.errors.CatalogError` naming it — a partitioned query
    never silently returns the other partitions' rows. A
    :class:`~repro.errors.CorruptBlockError` keeps its own type."""
    try:
        yield
    except (CorruptBlockError, CatalogError):
        raise
    except (StorageError, OSError) as exc:
        raise CatalogError(
            f"partition {part.name!r} of projection "
            f"{projection.name!r} is unreadable: {exc}"
        ) from exc


def partition_facts(projection, part, query) -> PlanFacts:
    """:class:`PlanFacts` of one partition's child projection."""
    with partition_errors(projection, part):
        return PlanFacts(part.open(), query)


def plan_nodes(
    projection, query, strategy: Strategy, pending=None
) -> list[PlanNode]:
    """The ordered operator nodes *query* runs under *strategy* and over
    *pending* writes (None when its table has none).

    The order is execution order, so a traced execution's pre-order spans
    are the traced nodes' ``(op, column)``. Each PARTITION node is followed
    by its partition's operator core, built for :func:`stored_query`. A
    :class:`~repro.planner.logical.JoinQuery` reads the ``(left, right)``
    pair *projection* under a
    :class:`~repro.planner.strategies.RightTableStrategy` (see
    :class:`JoinFacts`).

    Raises:
        UnsupportedOperationError: *strategy* cannot run *query*.
        ExecutionError: *query* cannot merge with *pending* writes.
    """
    if isinstance(query, JoinQuery):
        return JoinFacts(*projection, query, pending).core(strategy)
    sub_query = stored_query(projection, query, pending)
    nodes = []
    for node in plan_outline(projection, query, strategy, pending):
        nodes.append(node)
        if node.op == "PARTITION":
            part = node.partition
            facts = partition_facts(projection, part, sub_query)
            nodes += [n._replace(partition=part) for n in facts.core(strategy)]
    return nodes
