"""Figure 11: selection query, four strategies x three LINENUM encodings.

    SELECT shipdate, linenum FROM lineitem
    WHERE shipdate < X AND linenum < 7

Sweeping X across the shipdate domain. Expected shapes (paper Section 4.1):

* (a) uncompressed: LM-pipelined wins at low selectivity (block skipping);
  EM-parallel wins at high selectivity and consistently beats LM-parallel.
* (b) RLE: both LM strategies beat both EM strategies (EM must decompress to
  construct tuples; LM operates on compressed data until the final merge).
* (c) bit-vector: LM-pipelined inapplicable (no DS3 position filtering);
  EM-parallel and LM-parallel perform similarly (decompression dominates).
"""

from __future__ import annotations

import pytest

from repro import Strategy
from repro.errors import UnsupportedOperationError
from repro.reproduce import selection_query

from .harness import (
    POINTS,
    crossover,
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
def test_fig11_point(benchmark, bench_db, encoding, strategy, selectivity):
    query = selection_query(selectivity, encoding)
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
    benchmark.extra_info["rows"] = point["rows"]


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_fig11_series(benchmark, bench_db, encoding):
    """Regenerate one panel of Figure 11 and check its qualitative shape."""
    table = benchmark.pedantic(
        sweep_table,
        args=(
            bench_db,
            lambda sel: selection_query(sel, encoding),
            list(Strategy),
        ),
        rounds=1,
        iterations=1,
    )
    panel = PANEL[encoding]
    record(
        f"fig11{panel}_selection_{encoding}",
        format_table(
            f"Figure 11({panel}): selection, LINENUM {encoding} "
            "(model-replay ms per strategy)",
            table,
        )
        + "\n"
        + format_table("  (wall-clock ms)", table, metric=1),
        table=table,
    )

    lm_par = "lm-parallel"
    em_par = "em-parallel"
    if encoding == "uncompressed":
        # LM-pipelined leads at the lowest selectivity...
        first = {n: table[n][0][2] for n in table}
        assert first["lm-pipelined"] <= min(first.values()) * 1.15
        # ...EM-parallel wins at the highest, and beats LM-parallel throughout.
        last = {n: table[n][-1][2] for n in table}
        assert last[em_par] == min(v for v in last.values() if v is not None)
        assert geometric_mean_ratio(table, em_par, lm_par) < 1.0
        # The pipelined advantage crosses over somewhere inside the sweep.
        assert crossover(table, "lm-pipelined", em_par) is not None
    elif encoding == "rle":
        # Both LM strategies beat both EM strategies across the sweep.
        assert geometric_mean_ratio(table, lm_par, em_par) < 1.0
        assert geometric_mean_ratio(table, "lm-pipelined", "em-pipelined") < 1.0
    else:
        # EM-parallel ~ LM-parallel: decompression dominates both.
        ratio = geometric_mean_ratio(table, lm_par, em_par)
        assert 0.7 < ratio < 1.4
        # LM-pipelined is absent for most of the sweep.
        missing = sum(1 for row in table["lm-pipelined"] if row[2] is None)
        assert missing >= len(table["lm-pipelined"]) - 2
