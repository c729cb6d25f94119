"""Ablation: the multi-column optimization (paper Section 3.6).

LM plans re-access their predicate columns to extract surviving values. With
multi-columns, the scan pins the blocks it read and extraction never touches
the buffer pool again — I/O-free *by construction*, not just
probably-cached. Without them, re-access goes back through the pool, which
is harmless while the pool holds the working set but turns into real disk
reads under memory pressure. This ablation runs the same LM-parallel query
both ways, with a generous pool and with a pool smaller than the scanned
columns (the situation Section 3.6's "even if the column size is larger than
available memory" sentence describes).
"""

from __future__ import annotations

import pytest

from repro import Database, Strategy
from repro.reproduce import selection_query
from repro.storage.block import BLOCK_SIZE

from .harness import (
    SWEEP,
    build_database,
    format_table,
    record,
    run_point,
)


@pytest.fixture(scope="module")
def pressured_db(tmp_path_factory):
    """The bench database opened with a pool of only a few blocks."""
    db = build_database(tmp_path_factory.mktemp("mc_db"))
    return Database(
        db.catalog.root, pool_capacity_bytes=4 * BLOCK_SIZE
    )


@pytest.mark.parametrize("use_multicolumns", [True, False], ids=["mc", "no-mc"])
def test_lm_parallel_under_memory_pressure(
    benchmark, pressured_db, use_multicolumns
):
    query = selection_query(0.5, "uncompressed")
    pressured_db.use_multicolumns = use_multicolumns
    try:
        point = benchmark.pedantic(
            run_point,
            args=(pressured_db, query, Strategy.LM_PARALLEL),
            rounds=3,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        pressured_db.use_multicolumns = True
    benchmark.extra_info["simulated_ms"] = round(point["sim_ms"], 2)
    benchmark.extra_info["block_reads"] = point["stats"].block_reads


def test_multicolumn_report(benchmark, pressured_db):
    def sweep_both():
        out = {}
        for flag, name in ((True, "with multi-columns"), (False, "without")):
            pressured_db.use_multicolumns = flag
            series = []
            for sel in SWEEP:
                point = run_point(
                    pressured_db,
                    selection_query(sel, "uncompressed"),
                    Strategy.LM_PARALLEL,
                )
                series.append((sel, point["wall_ms"], point["sim_ms"]))
            out[name] = series
        pressured_db.use_multicolumns = True
        return out

    table = benchmark.pedantic(sweep_both, rounds=1, iterations=1)
    record(
        "ablation_multicolumn",
        format_table(
            "Ablation: LM-parallel with vs without multi-columns, pool of 4"
            " blocks (model-replay ms)",
            table,
        ),
    )
    # The optimization never loses, and once the position list spans more
    # blocks than the pool holds, re-access without pinning pays real I/O.
    for with_mc, without in zip(
        table["with multi-columns"], table["without"]
    ):
        assert with_mc[2] <= without[2] * 1.05
    assert table["without"][-1][2] > 1.2 * table["with multi-columns"][-1][2]
