"""Figure 10: predicted vs. actual runtime for the selection query.

The paper validates its analytical model by plotting, for LM (a) and EM (b)
strategies, the model's predicted runtime against the C-Store prototype's
measured runtime across the selectivity sweep (RLE-encoded columns).

Our equivalent of "actual" is the model replayed over *observed* execution
counters (the simulated time every benchmark reports); "predicted" is the
a-priori :func:`repro.model.predictor.predict_select` from column metadata
and estimated selectivities — no execution involved. The validation claim is
that the a-priori curves track the observed curves in level and shape.
"""

from __future__ import annotations

import pytest

from repro import Strategy
from repro.model.predictor import predict_select
from repro.reproduce import selection_query

from .harness import SWEEP, record, run_point

LM = (Strategy.LM_PIPELINED, Strategy.LM_PARALLEL)
EM = (Strategy.EM_PIPELINED, Strategy.EM_PARALLEL)


def _series(db, strategies):
    projection = db.projection("lineitem")
    rows = []
    for sel in SWEEP:
        query = selection_query(sel, "rle")
        for strategy in strategies:
            predicted = predict_select(projection, query, strategy).total_ms
            observed = run_point(db, query, strategy)
            rows.append(
                (sel, strategy.value, predicted, observed["sim_ms"],
                 observed["wall_ms"])
            )
    return rows


def _format(title, rows):
    lines = [title]
    lines.append(
        f"{'sel':>5} {'strategy':>14} {'model ms':>10} {'observed ms':>12} "
        f"{'wall ms':>9}"
    )
    for sel, name, predicted, simulated, wall in rows:
        lines.append(
            f"{sel:>5.2f} {name:>14} {predicted:>10.1f} {simulated:>12.1f} "
            f"{wall:>9.1f}"
        )
    return "\n".join(lines)


@pytest.mark.parametrize(
    "strategy", list(Strategy), ids=lambda s: s.value
)
def test_fig10_point_accuracy(benchmark, bench_db, strategy):
    """At mid selectivity the a-priori prediction lands near the observation."""
    query = selection_query(0.5, "rle")
    projection = bench_db.projection("lineitem")
    observed = benchmark.pedantic(
        run_point, args=(bench_db, query, strategy), rounds=3, iterations=1
    )
    predicted = predict_select(projection, query, strategy).total_ms
    benchmark.extra_info["predicted_ms"] = round(predicted, 2)
    benchmark.extra_info["observed_ms"] = round(observed["sim_ms"], 2)
    assert predicted == pytest.approx(observed["sim_ms"], rel=0.6)


def test_fig10a_lm_validation(benchmark, bench_db):
    rows = benchmark.pedantic(
        _series, args=(bench_db, LM), rounds=1, iterations=1
    )
    record(
        "fig10a_model_validation_lm",
        _format("Figure 10(a): LM predicted vs observed (selection, RLE)", rows),
    )
    _assert_tracking(rows)


def test_fig10b_em_validation(benchmark, bench_db):
    rows = benchmark.pedantic(
        _series, args=(bench_db, EM), rounds=1, iterations=1
    )
    record(
        "fig10b_model_validation_em",
        _format("Figure 10(b): EM predicted vs observed (selection, RLE)", rows),
    )
    _assert_tracking(rows)


def _assert_tracking(rows):
    """Prediction and observation must rise together and stay within 2x."""
    by_strategy: dict[str, list] = {}
    for sel, name, predicted, simulated, _wall in rows:
        by_strategy.setdefault(name, []).append((sel, predicted, simulated))
    for name, series in by_strategy.items():
        for _sel, predicted, simulated in series[2:]:
            assert predicted < 2.5 * simulated + 5.0, (name, series)
            assert simulated < 2.5 * predicted + 5.0, (name, series)
        # Monotone-ish growth in both curves across the sweep.
        assert series[-1][1] > series[0][1]
        assert series[-1][2] > series[0][2]
