"""Figure 12: aggregation query, four strategies x three LINENUM encodings.

    SELECT shipdate, SUM(linenum) FROM lineitem
    WHERE shipdate < X AND linenum < 7
    GROUP BY shipdate

Expected shapes (paper Section 4.2): the EM curves track their Figure 11
counterparts (the output-iteration cost just moves into the aggregator),
while every LM curve drops well below — the aggregator radically reduces the
number of tuples ever constructed, and on compressed data it aggregates runs
directly.
"""

from __future__ import annotations

import pytest

from repro import Strategy
from repro.errors import UnsupportedOperationError
from repro.reproduce import aggregation_query, selection_query

from .harness import (
    POINTS,
    format_table,
    geometric_mean_ratio,
    record,
    run_point,
    sweep_table,
)

ENCODINGS = ("uncompressed", "rle", "bitvector")
PANEL = {"uncompressed": "a", "rle": "b", "bitvector": "c"}


@pytest.mark.parametrize("selectivity", POINTS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_fig12_point(benchmark, bench_db, encoding, strategy, selectivity):
    query = aggregation_query(selectivity, encoding)
    try:
        point = benchmark.pedantic(
            run_point,
            args=(bench_db, query, strategy),
            rounds=3,
            iterations=1,
            warmup_rounds=1,
        )
    except UnsupportedOperationError:
        pytest.skip("LM-pipelined cannot position-filter bit-vector data")
    benchmark.extra_info["simulated_ms"] = round(point["sim_ms"], 2)
    benchmark.extra_info["groups"] = point["rows"]


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_fig12_series(benchmark, bench_db, encoding):
    table = benchmark.pedantic(
        sweep_table,
        args=(
            bench_db,
            lambda sel: aggregation_query(sel, encoding),
            list(Strategy),
        ),
        rounds=1,
        iterations=1,
    )
    panel = PANEL[encoding]
    record(
        f"fig12{panel}_aggregation_{encoding}",
        format_table(
            f"Figure 12({panel}): aggregation, LINENUM {encoding} "
            "(model-replay ms per strategy)",
            table,
        )
        + "\n"
        + format_table("  (wall-clock ms)", table, metric=1),
        table=table,
    )

    # The LM strategies must beat the EM strategies across the sweep — the
    # aggregation headline of the paper.
    assert geometric_mean_ratio(table, "lm-parallel", "em-parallel") < 0.95
    assert geometric_mean_ratio(table, "lm-parallel", "em-pipelined") < 0.95
    # At high selectivity the gap is substantial (aggregation avoids most
    # tuple construction entirely).
    last_lm = table["lm-parallel"][-1][2]
    last_em = table["em-parallel"][-1][2]
    assert last_lm < 0.75 * last_em


def test_fig12_em_curves_track_fig11(benchmark, bench_db):
    """Paper: 'the EM strategies perform similarly to their counterpart in
    Figure 11' — the aggregator absorbs the output-iteration cost."""

    def both():
        sel = 0.75
        plain = run_point(
            bench_db, selection_query(sel, "uncompressed"), Strategy.EM_PARALLEL
        )
        agg = run_point(
            bench_db, aggregation_query(sel, "uncompressed"), Strategy.EM_PARALLEL
        )
        return plain, agg

    plain, agg = benchmark.pedantic(both, rounds=1, iterations=1)
    assert agg["sim_ms"] == pytest.approx(plain["sim_ms"], rel=0.25)
