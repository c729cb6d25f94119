"""Ablation: model-driven strategy selection (paper Section 6).

The paper proposes using the analytical model inside a query optimizer to
choose the materialization strategy. This ablation compares, across the
selectivity sweep and every encoding, the strategy the model picks against
the best strategy found by exhaustive execution — reporting regret (chosen /
best observed runtime).
"""

from __future__ import annotations

import pytest

from repro import Strategy, choose_strategy
from repro.errors import UnsupportedOperationError
from repro.reproduce import selection_query

from .harness import SWEEP, record, run_point


def optimizer_regret(db, encoding):
    projection = db.projection("lineitem")
    rows = []
    for sel in SWEEP:
        query = selection_query(sel, encoding)
        chosen, _ = choose_strategy(projection, query)
        observed = {}
        for strategy in Strategy:
            try:
                observed[strategy] = run_point(db, query, strategy)["sim_ms"]
            except UnsupportedOperationError:
                continue
        best = min(observed, key=observed.get)
        rows.append(
            (
                sel,
                chosen.value,
                best.value,
                observed[chosen],
                observed[best],
            )
        )
    return rows


@pytest.mark.parametrize("encoding", ["uncompressed", "rle", "bitvector"])
def test_optimizer_regret(benchmark, bench_db, encoding):
    rows = benchmark.pedantic(
        optimizer_regret, args=(bench_db, encoding), rounds=1, iterations=1
    )
    lines = [
        f"Ablation: optimizer regret, LINENUM {encoding}",
        f"{'sel':>5} {'chosen':>14} {'best':>14} {'chosen ms':>10} "
        f"{'best ms':>9} {'regret':>7}",
    ]
    regrets = []
    for sel, chosen, best, chosen_ms, best_ms in rows:
        regret = chosen_ms / best_ms if best_ms else 1.0
        regrets.append(regret)
        lines.append(
            f"{sel:>5.2f} {chosen:>14} {best:>14} {chosen_ms:>10.1f} "
            f"{best_ms:>9.1f} {regret:>7.2f}"
        )
    worst = max(regrets)
    mean = sum(regrets) / len(regrets)
    lines.append(f"mean regret {mean:.2f}, worst {worst:.2f}")
    record(f"ablation_optimizer_{encoding}", "\n".join(lines))
    # The model's pick should rarely cost more than ~2x the best strategy.
    assert mean < 1.5
    assert worst < 2.5
