"""Self-contained figure reproduction (the CLI's ``repro reproduce``).

Regenerates any of the paper's evaluation figures from a fresh TPC-H-style
database, printing the same series the paper plots. The pytest artefact
benches (``benchmarks/bench_*.py``) share its sweep (:func:`sweep_table`,
:func:`format_table`) and its figure queries (:func:`selection_query`,
:func:`aggregation_query`, :func:`join_query`) and assert each figure's
shape; this module makes the installed package
able to reproduce the figures on its own::

    repro reproduce 11a --scale 0.05
    repro reproduce 12b
    repro reproduce 13
"""

from __future__ import annotations

import tempfile
from functools import partial

from .engine import Database
from .errors import ReproError, UnsupportedOperationError
from .operators.aggregate import AggSpec
from .planner import JoinQuery, RightTableStrategy, SelectQuery, Strategy
from .predicates import Predicate
from .tpch import SHIPDATE_MAX, SHIPDATE_MIN, load_tpch

SWEEP = (0.02, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.98)

FIGURES = {
    "11a": ("selection", "uncompressed"),
    "11b": ("selection", "rle"),
    "11c": ("selection", "bitvector"),
    "12a": ("aggregation", "uncompressed"),
    "12b": ("aggregation", "rle"),
    "12c": ("aggregation", "bitvector"),
    "13": ("join", None),
}


def shipdate_constant(selectivity: float) -> int:
    """The shipdate constant X giving roughly the requested selectivity."""
    return int(
        SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN)
    )


def selection_query(selectivity: float, encoding: str) -> SelectQuery:
    """The paper's selection query (Section 4.1), LINENUM in *encoding*."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=_predicates(selectivity),
        encodings=(("linenum", encoding),),
    )


def aggregation_query(selectivity: float, encoding: str) -> SelectQuery:
    """The paper's aggregation query (Section 4.2), LINENUM in *encoding*."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "sum(linenum)"),
        predicates=_predicates(selectivity),
        group_by="shipdate",
        aggregates=(AggSpec("sum", "linenum"),),
        encodings=(("linenum", encoding),),
    )


def _predicates(selectivity: float) -> tuple:
    return (
        Predicate("shipdate", "<", shipdate_constant(selectivity)),
        Predicate("linenum", "<", 7),
    )


def join_query(db: Database, selectivity: float) -> JoinQuery:
    """The paper's FK-PK join (Section 4.3): orders with a custkey below
    the *selectivity* quantile of customer, joined to their customer."""
    n_customer = db.projection("customer").n_rows
    return JoinQuery(
        left="orders",
        right="customer",
        left_key="custkey",
        right_key="custkey",
        left_select=("shipdate",),
        right_select=("nationcode",),
        left_predicates=(
            Predicate(
                "custkey", "<", max(int(selectivity * n_customer) + 1, 1)
            ),
        ),
    )


def sweep_table(db: Database, make_query, strategies, selectivities=SWEEP) -> dict:
    """Run each strategy cold over the selectivity sweep; returns
    ``{strategy_name: [(sel, wall_ms, sim_ms), ...]}``.

    A point the strategy cannot run (UnsupportedOperationError, e.g.
    LM-pipelined over bit-vectors) is ``(sel, None, None)``; any other
    error propagates, so a broken point never passes for a missing one.
    """
    table: dict[str, list] = {}
    for strategy in strategies:
        series = []
        for sel in selectivities:
            try:
                result = db.query(make_query(sel), strategy=strategy, cold=True)
            except UnsupportedOperationError:
                series.append((sel, None, None))
                continue
            series.append((sel, result.wall_ms, result.simulated_ms))
        table[getattr(strategy, "value", str(strategy))] = series
    return table


def format_table(title: str, table: dict, metric: int = 2) -> str:
    """Render a sweep as the paper-style series table.

    Args:
        metric: 1 for wall-clock ms, 2 for simulated (model-replay) ms.
    """
    names = list(table)
    lines = [title, f"{'selectivity':>12} " + " ".join(f"{n:>14}" for n in names)]
    sels = [row[0] for row in table[names[0]]]
    for i, sel in enumerate(sels):
        cells = []
        for n in names:
            value = table[n][i][metric]
            cells.append(f"{value:>14.1f}" if value is not None else f"{'n/a':>14}")
        lines.append(f"{sel:>12.2f} " + " ".join(cells))
    return "\n".join(lines)


def reproduce_figure(
    figure: str, scale: float = 0.05, seed: int = 42, out=print
) -> dict:
    """Run one figure's sweep; returns {series: [(sel, wall_ms, sim_ms)]}.

    Args:
        figure: one of ``11a 11b 11c 12a 12b 12c 13``.
        scale: TPC-H scale factor (0.05 = 300 K lineitem rows).
        seed: generator seed.
        out: line sink for the printed table (``print`` by default).
    """
    key = figure.lower().lstrip("fig").lstrip("ure").strip()
    if key not in FIGURES:
        raise ReproError(
            f"unknown figure {figure!r}; choose from {sorted(FIGURES)}"
        )
    kind, encoding = FIGURES[key]
    db = Database(tempfile.mkdtemp(prefix=f"repro_fig{key}_"))
    out(f"loading TPC-H-style data at scale {scale}...")
    load_tpch(db.catalog, scale=scale, seed=seed)

    if kind == "join":
        strategies, make = list(RightTableStrategy), partial(join_query, db)
    else:
        figure_query = selection_query if kind == "selection" else aggregation_query
        strategies, make = list(Strategy), partial(figure_query, encoding=encoding)
    table = sweep_table(db, make, strategies)
    title = (
        f"Figure {key}: {kind}"
        + (f", LINENUM {encoding}" if encoding else "")
        + " (model-replay ms)"
    )
    out(format_table(title, table))
    return table
