"""Shared benchmark harness.

Builds the benchmark database (TPC-H-style, scale from ``REPRO_BENCH_SCALE``,
default 0.05 = 300 K lineitem rows), runs selectivity sweeps, and prints /
records the per-figure tables in the same form the paper plots them: runtime
as a function of the shipdate predicate's selectivity, one series per
materialization strategy.

Two runtimes are reported for every point:

* ``wall``  — actual wall-clock milliseconds of this Python substrate;
* ``sim``   — the analytical model replayed over observed execution counters
  (block reads/seeks through the simulated disk, iterator steps, tuples
  constructed), which is the apples-to-apples number against the paper's
  C++/disk testbed (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro import (
    AggSpec,
    Database,
    Predicate,
    SelectQuery,
    load_tpch,
)
# The selectivity sweep (the paper sweeps 0..1) and the shipdate constant
# for a selectivity are shared with ``repro reproduce``.
from repro.reproduce import SWEEP, shipdate_constant

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
RESULTS_DIR = Path(__file__).parent / "results"

#: Coarse sweep for the per-point pytest-benchmark cases.
POINTS = (0.05, 0.5, 0.95)


def build_database(root) -> Database:
    """Create and load the benchmark database under *root*."""
    db = Database(root)
    load_tpch(db.catalog, scale=BENCH_SCALE, seed=42)
    return db


def selection_query(
    selectivity: float, linenum_encoding: str, linenum_max: int = 7
) -> SelectQuery:
    """The paper's selection query (Section 4.1)."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", linenum_max),
        ),
        encodings=(("linenum", linenum_encoding),),
    )


def aggregation_query(
    selectivity: float, linenum_encoding: str, linenum_max: int = 7
) -> SelectQuery:
    """The paper's aggregation query (Section 4.2)."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "sum(linenum)"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", linenum_max),
        ),
        group_by="shipdate",
        aggregates=(AggSpec("sum", "linenum"),),
        encodings=(("linenum", linenum_encoding),),
    )


def run_point(db: Database, query, strategy) -> dict:
    """Execute one (query, strategy) point cold and return its metrics."""
    result = db.query(query, strategy=strategy, cold=True)
    return {
        "wall_ms": result.wall_ms,
        "sim_ms": result.simulated_ms,
        "rows": result.n_rows,
        "stats": result.stats,
    }


def sweep_table(
    db: Database,
    make_query,
    strategies,
    selectivities=SWEEP,
) -> dict:
    """Run a full sweep; returns {strategy_name: [(sel, wall, sim), ...]}."""
    table: dict[str, list] = {}
    for strategy in strategies:
        name = getattr(strategy, "value", str(strategy))
        series = []
        for sel in selectivities:
            try:
                point = run_point(db, make_query(sel), strategy)
            except Exception:
                series.append((sel, None, None))
                continue
            series.append((sel, point["wall_ms"], point["sim_ms"]))
        table[name] = series
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


def record(name: str, text: str, table: dict | None = None) -> None:
    """Print a figure table and persist it under benchmarks/results/.

    When *table* (a sweep dict) is given, a machine-readable CSV with wall
    and simulated columns per series is written alongside the text table.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    if table is not None:
        csv_path = RESULTS_DIR / f"{name}.csv"
        names = list(table)
        header = ["selectivity"]
        for n in names:
            header += [f"{n}_wall_ms", f"{n}_sim_ms"]
        lines = [",".join(header)]
        for i, (sel, *_rest) in enumerate(table[names[0]]):
            cells = [f"{sel}"]
            for n in names:
                _s, wall, sim = table[n][i]
                cells.append("" if wall is None else f"{wall:.3f}")
                cells.append("" if sim is None else f"{sim:.3f}")
            lines.append(",".join(cells))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")


def crossover(table: dict, a: str, b: str, metric: int = 2):
    """First selectivity at which series *a* stops beating series *b*."""
    for (sel, *_), row_a, row_b in zip(
        table[a], table[a], table[b]
    ):
        va, vb = row_a[metric], row_b[metric]
        if va is None or vb is None:
            continue
        if va > vb:
            return sel
    return None


def geometric_mean_ratio(table: dict, a: str, b: str, metric: int = 2) -> float:
    """Geomean of series a / series b across the sweep (skipping n/a)."""
    ratios = []
    for row_a, row_b in zip(table[a], table[b]):
        va, vb = row_a[metric], row_b[metric]
        if va and vb:
            ratios.append(va / vb)
    return float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")
