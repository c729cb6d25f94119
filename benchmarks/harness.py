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

from repro import Database, load_tpch
# The selectivity sweep (the paper sweeps 0..1), the shipdate constant for
# a selectivity, the sweep itself and its table are shared with ``repro
# reproduce``, as are the figure queries, which the benches import from
# there.
from repro.reproduce import SWEEP, format_table, shipdate_constant, sweep_table

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
RESULTS_DIR = Path(__file__).parent / "results"

#: Coarse sweep for the per-point pytest-benchmark cases.
POINTS = (0.05, 0.5, 0.95)


def build_database(root) -> Database:
    """Create and load the benchmark database under *root*."""
    db = Database(root)
    load_tpch(db.catalog, scale=BENCH_SCALE, seed=42)
    return db


def run_point(db: Database, query, strategy) -> dict:
    """Execute one (query, strategy) point cold and return its metrics."""
    result = db.query(query, strategy=strategy, cold=True)
    return {
        "wall_ms": result.wall_ms,
        "sim_ms": result.simulated_ms,
        "rows": result.n_rows,
        "stats": result.stats,
    }


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
