"""Ablation: operating on compressed data vs MonetDB-style eager decompression.

The paper's related work (Section 5) contrasts its multi-columns with
MonetDB/X100's selection vectors: "data is decompressed in the cache,
precluding the potential performance benefits of operating directly on
compressed data both on position descriptors and on column values". This
ablation runs the RLE selection and aggregation queries with eager
decompression on and off: with it on, scans and extraction are charged per
value instead of per run and the run-aware aggregation path is disabled —
the LM advantage of Figures 11(b)/12(b) shrinks accordingly.
"""

from __future__ import annotations

import pytest

from repro import Strategy
from repro.reproduce import aggregation_query, selection_query

from .harness import SWEEP, format_table, record, run_point


@pytest.mark.parametrize("eager", [False, True], ids=["compressed", "eager"])
@pytest.mark.parametrize(
    "strategy",
    [Strategy.LM_PARALLEL, Strategy.EM_PARALLEL],
    ids=lambda s: s.value,
)
def test_selection_vectors_point(benchmark, bench_db, strategy, eager):
    bench_db.decompress_eagerly = eager
    try:
        point = benchmark.pedantic(
            run_point,
            args=(bench_db, selection_query(0.5, "rle"), strategy),
            rounds=3,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        bench_db.decompress_eagerly = False
    benchmark.extra_info["simulated_ms"] = round(point["sim_ms"], 2)


def test_selection_vectors_report(benchmark, bench_db):
    def sweep():
        out = {}
        for eager, label in ((False, "on-compressed"), (True, "eager-decomp")):
            bench_db.decompress_eagerly = eager
            for kind, make in (
                ("select", selection_query),
                ("agg", aggregation_query),
            ):
                series = []
                for sel in SWEEP:
                    point = run_point(
                        bench_db, make(sel, "rle"), Strategy.LM_PARALLEL
                    )
                    series.append((sel, point["wall_ms"], point["sim_ms"]))
                out[f"{kind}/{label}"] = series
        bench_db.decompress_eagerly = False
        return out

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record(
        "ablation_selection_vectors",
        format_table(
            "Ablation: LM-parallel over RLE, operating on compressed data vs"
            " MonetDB-style eager decompression (model-replay ms)",
            table,
        ),
    )
    # Eager decompression must never win, and the gap must be material at
    # the dense end (whole runs vs per-value work).
    for kind in ("select", "agg"):
        for compressed, eager in zip(
            table[f"{kind}/on-compressed"], table[f"{kind}/eager-decomp"]
        ):
            assert compressed[2] <= eager[2] * 1.02
        assert (
            table[f"{kind}/eager-decomp"][-1][2]
            > 1.05 * table[f"{kind}/on-compressed"][-1][2]
        )
