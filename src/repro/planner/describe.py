"""Textual physical-plan rendering (EXPLAIN, with and without executing).

Two renderers live here:

* :func:`describe_plan` renders the nodes :func:`repro.planner.nodes.plan_nodes`
  builds — the plan the executor runs, a selection's or a join's —
  annotated with the physical facts the strategy decision rests on:
  encodings, block counts, run lengths, estimated selectivities, index
  availability.
* :func:`render_span_tree` renders a *measured* execution — the span tree
  EXPLAIN ANALYZE produces — with per-operator wall-clock, simulated-time
  attribution and cache interactions.
"""

from __future__ import annotations

from ..storage.projection import Projection
from .logical import JoinQuery, SelectQuery
from .nodes import (
    JoinFacts,
    executed_strategy,
    grouped_predicates,
    plan_nodes,
    stored_query,
    tail_ops,
    uses_index,
)

#: detail keys already surfaced elsewhere on a span line.
_SKIP_DETAIL = frozenset(
    {"rows", "tuples", "tuples_out", "positions", "positions_out", "matches"}
)


def _span_label(span) -> str:
    """One-line operator label: name plus the interesting detail items."""
    bits = []
    for key, value in span.detail.items():
        if key in _SKIP_DETAIL or value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        bits.append(f"{key}={value}")
    label = span.name
    if span.status == "error":
        label += " !ERROR"
    if bits:
        label += " (" + " ".join(bits) + ")"
    return label


def _span_measurements(span, constants) -> str:
    """The measured half of a span line: rows, times, cache interactions."""
    bits = []
    if span.rows_out is not None:
        bits.append(f"rows={span.rows_out}")
    bits.append(f"wall={span.wall_ms:.3f}ms")
    if constants is not None:
        bits.append(f"sim={span.simulated_ms(constants):.3f}ms")
        bits.append(f"self={span.self_simulated_ms(constants):.3f}ms")
    s = span.stats
    if s.block_reads or s.buffer_hits:
        bits.append(f"io={s.block_reads}r/{s.buffer_hits}h")
    if s.decode_hits or s.decode_misses:
        bits.append(f"decode={s.decode_hits}h/{s.decode_misses}m")
    if s.blocks_skipped:
        bits.append(f"skipped={s.blocks_skipped}")
    return "  [" + " ".join(bits) + "]"


def render_span_tree(span, constants=None) -> str:
    """ASCII EXPLAIN ANALYZE tree for a measured execution.

    Each line shows one operator span: its detail, output cardinality,
    wall-clock, cumulative and *self* simulated time (per-span self times
    sum to the whole query's model replay), and its buffer-pool /
    decoded-cache interactions.
    """
    lines = [_span_label(span) + _span_measurements(span, constants)]

    def walk(node, prefix: str) -> None:
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            lines.append(
                prefix + "+- " + _span_label(child)
                + _span_measurements(child, constants)
            )
            walk(child, prefix + ("   " if last else "|  "))

    walk(span, "")
    return "\n".join(lines)


def _column_note(projection: Projection, query: SelectQuery, col: str) -> str:
    cf = projection.column(col).file(query.encoding_map.get(col))
    bits = [cf.encoding.name, f"{cf.n_blocks} blocks"]
    if cf.avg_run_length > 1.05:
        bits.append(f"runs~{cf.avg_run_length:.0f}")
    if projection.column(col).indexed:
        bits.append("indexed")
    return ", ".join(bits)


def _annotation(node, query: SelectQuery) -> str | None:
    """The header line of a node that is not drawn in the tree."""
    if node.op == "AGG":
        outputs = ", ".join(s.output_name for s in query.aggregates)
        return f"Aggregate({outputs} GROUP BY {', '.join(query.group_columns)})"
    if node.op == "HAVING":
        return f"Having({' AND '.join(str(p) for p in query.having)})"
    if node.op == "ORDER BY":
        keys = ", ".join(f"{c}{' DESC' if d else ''}" for c, d in query.order_by)
        return f"OrderBy({keys})"
    if node.op == "LIMIT":
        return f"Limit({query.limit})"
    return None


def _render(nodes, projection, query, depth: int) -> list[str]:
    """One operator core (plus its tail, if any): the annotations, then the
    tree from the core's last operator down."""
    pinned = {
        n.column for n in nodes
        if n.op == "DS1" and not uses_index(projection, n)
    }

    def note(col: str) -> str:
        return _column_note(projection, query, col)

    def tree(i: int, depth: int, parent: str | None) -> list[str]:
        node = nodes[i]
        op, col, pad = node.op, node.column, "  " * depth
        if op == "AGG" and node.case == "tuple":
            return tree(node.inputs[0], depth, parent)
        if op == "PIN":
            cols = ", ".join(f"{c} [{note(c)}]" for c in query.all_columns)
            return [
                f"{pad}PIN(every block into one multi-column)",
                f"{pad}  pin: {cols}",
            ]
        if op in ("AND", "UNION"):
            lines = [pad + ("AND" if op == "AND" else "UNION of position sets")]
            return lines + [x for j in node.inputs for x in tree(j, depth + 1, op)]
        if op == "DS1":
            sf = f", SF~{node.sf:.3f}" if parent in ("AND", "UNION") else ""
            return [f"{pad}DS1({node.predicate}) [{note(col)}{sf}]"]
        if op == "SPC":
            preds = grouped_predicates(query.predicates).values()
            cols = ", ".join(f"{c} [{note(c)}]" for c in query.all_columns)
            return [
                f"{pad}SPC({', '.join(str(p) for p in preds) or 'true'})",
                f"{pad}  scan all blocks of: {cols}",
            ]
        if op in ("MERGE", "AGG"):
            extracted = [nodes[j].column for j in node.inputs]
            lines = [pad + (
                "vector aggregation input (no tuples constructed before groups)"
                if op == "AGG" else f"Merge({', '.join(extracted)})"
            )]
            for c in extracted:
                reaccess = " [re-access via pinned mini-column]" if c in pinned else ""
                lines.append(f"{pad}  DS3({c}) [{note(c)}]{reaccess}")
            source = nodes[node.inputs[0]].inputs
            if source:
                return lines + tree(source[0], depth + 1, "DS3")
            return lines + [pad + "  full position range (no predicates)"]
        label = node.predicate
        if label is None:
            label = f"{'scan' if op == 'DS2' else 'fetch'} {col}"
        lines = [f"{pad}{op}({label}) [{note(col)}]"]
        return lines + [x for j in node.inputs for x in tree(j, depth + 1, op)]

    lines = [
        "  " * depth + text for node in nodes
        if (text := _annotation(node, query)) is not None
    ]
    top = max(i for i, n in enumerate(nodes) if n.op not in tail_ops(query))
    return lines + tree(top, depth, None)


def _describe_join(facts: JoinFacts, strategy) -> str:
    """A join's plan, from the top: MERGE or AGG, the fetches, JOIN, then
    the outer core and the inner input as selection cores are drawn."""
    query, k = facts.query, facts.n_outer
    nodes = facts.core(strategy)
    left, right = query.left_select, query.right_select
    lines = [
        f"{strategy.value} join plan: {facts.outer.projection.name!r} "
        f"({query.left_strategy} outer input) x "
        f"{facts.inner.projection.name!r}"
    ]
    for node in reversed(nodes[k + 1:]):
        if node.op == "AGG":
            lines.append("  " + _annotation(node, query))
        elif node.op == "MERGE":
            lines.append(f"  Merge({', '.join((*left, *right))})")
        elif node.op == "FETCH" and node.case == "right":
            lines.append(
                f"  Fetch right({', '.join(right)}) at unordered join "
                "positions (sort, jump per match)"
            )
        elif node.op == "FETCH":
            lines.append(f"  Fetch left({', '.join(left)}) " + (
                "from the outer tuples" if facts.early
                else "at ordered join positions (merge join on position)"
            ))
        elif node.op == "JOIN":
            lines.append(
                f"  Join({query.left_key} = {query.right_key}, "
                f"{node.case} inner input)"
            )
    lines.append("    outer:")
    lines += _render(nodes[:k], facts.outer.projection, facts.outer.query, 3)
    lines.append("    inner:")
    lines += _render(
        nodes[k:k + 1], facts.inner.projection, facts.inner.query, 3
    )
    return "\n".join(lines)


def describe_plan(projection, query, strategy, pending=None) -> str:
    """Render the physical operator tree for *query* under *strategy*.

    A plan that combines partials renders the tail that runs once, then
    COMBINE, DELTA and GHOST over *pending* writes, then the stored part:
    the operator core, or on a partitioned projection the zone-map pruning
    outcome and each surviving partition's sub-plan. A
    :class:`~repro.planner.logical.JoinQuery` renders over its ``(left,
    right)`` pair *projection*.

    Raises:
        UnsupportedOperationError: *strategy* cannot run *query*.
        ExecutionError: *query* cannot merge with *pending* writes.
    """
    if isinstance(query, JoinQuery):
        return _describe_join(JoinFacts(*projection, query, pending), strategy)
    strategy = executed_strategy(query, strategy)
    nodes = plan_nodes(projection, query, strategy, pending)
    header = f"{strategy.value} plan over projection {projection.name!r}"
    if not projection.is_partitioned and not pending:
        return "\n".join([header] + _render(nodes, projection, query, 1))
    sub_query = stored_query(projection, query, pending)
    parts = [n.partition for n in nodes if n.op == "PARTITION"]
    tail = tail_ops(query)
    if projection.is_partitioned:
        header = (
            f"{strategy.value} plan over range-partitioned projection "
            f"{projection.name!r} ({len(parts)}/{len(projection.partitions)} "
            "partitions after zone-map pruning)"
        )
    lines = [header] + [
        "  " + text for node in nodes
        if node.op in tail and (text := _annotation(node, query))
    ]
    if query.aggregates and (parts or pending):
        groups = ", ".join(query.group_columns)
        lines.append(f"  Combine(re-aggregate GROUP BY {groups})")
    elif parts or pending:
        order = "in partition order" if parts else "stored rows"
        then = ", then pending rows" if pending else ""
        lines.append(f"  Combine(concatenate {order}{then})")
    if pending:
        lines.append(f"  Delta(filter {pending.n_inserts} pending inserts)")
    if pending and pending.n_deletes:
        lines.append(f"  Ghost(subtract {pending.n_deletes} pending deletes)")
    if not projection.is_partitioned:
        merge = ("GHOST", "DELTA", "COMBINE", *tail)
        core = [n for n in nodes if n.op not in merge]
        return "\n".join(lines + _render(core, projection, sub_query, 2))
    if not parts:
        lines.append("  all partitions pruned: zone maps exclude every predicate")
    for part in parts:
        lines.append(f"    {part.name} ({part.n_rows} rows)")
        core = [n for n in nodes if n.partition is part and n.op != "PARTITION"]
        lines += _render(core, part.open(), sub_query, 3)
    return "\n".join(lines)
