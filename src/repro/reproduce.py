"""Self-contained figure reproduction (the CLI's ``repro reproduce``).

Regenerates any of the paper's evaluation figures from a fresh TPC-H-style
database, printing the same series the paper plots. The pytest artefact
benches (``benchmarks/bench_*.py``) share its sweep and its figure queries
(:func:`selection_query`, :func:`aggregation_query`, :func:`join_query`)
and assert each figure's shape; this module makes the installed package
able to reproduce the figures on its own::

    repro reproduce 11a --scale 0.05
    repro reproduce 12b
    repro reproduce 13
"""

from __future__ import annotations

import tempfile

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
        series_keys = [s for s in RightTableStrategy]
        run = lambda sel, s: db.query(join_query(db, sel), strategy=s, cold=True)
    else:
        series_keys = list(Strategy)
        make = selection_query if kind == "selection" else aggregation_query
        run = lambda sel, s: db.query(
            make(sel, encoding), strategy=s, cold=True
        )

    table: dict[str, list] = {}
    for strategy in series_keys:
        series = []
        for sel in SWEEP:
            try:
                result = run(sel, strategy)
            except UnsupportedOperationError:
                series.append((sel, None, None))
                continue
            series.append((sel, result.wall_ms, result.simulated_ms))
        table[strategy.value] = series

    title = (
        f"Figure {key}: {kind}"
        + (f", LINENUM {encoding}" if encoding else "")
        + " (model-replay ms)"
    )
    out(title)
    names = list(table)
    out(f"{'sel':>6} " + " ".join(f"{n:>14}" for n in names))
    for i, sel in enumerate(SWEEP):
        cells = []
        for name in names:
            sim = table[name][i][2]
            cells.append(f"{sim:>14.1f}" if sim is not None else f"{'n/a':>14}")
        out(f"{sel:>6.2f} " + " ".join(cells))
    return table
