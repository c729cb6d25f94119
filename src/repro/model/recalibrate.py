"""Online recalibration: re-fit Table-2 constants from query-log traces.

:func:`repro.model.calibrate.calibrate_constants` measures the CPU
constants with synthetic micro-benchmarks; this module instead fits them
to *observed* workload: for every ok select record in a query log it asks
the predictor how many of each priced event (block iterations, column
iterations, tuple iterations, function calls, seeks, block reads) the
recorded plan performs (one prediction's summed events) and solves the
least-squares system

    features · k  ≈  measured simulated_ms

for the six per-event prices ``k``. The replayed ``simulated_ms`` is
linear in them, so the fit leaves out ``and_cost``'s ``m·TICCOL·FC``
term, which prices no executor counter.

Fitted values are clamped positive and finite — a non-finite,
non-positive, or wildly out-of-range component is held at its baseline
value and the others are re-solved without it — and the fit is only
*adopted* when its mean absolute prediction error over the trace is no
worse than the baseline constants', so ``repro calibrate --from-log`` can
never regress what-if scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ModelConstants
from .cost import EVENT_PRICES

#: The events priced by one constant each, and the constants fitted from
#: traces. ``pf`` is held at its baseline value: it is an integer prefetch
#: window that changes *which* seeks the model counts, not a per-event price.
_FITTED_EVENTS = [(e, c) for e, (c, *rest) in EVENT_PRICES if not rest]
FITTED_FIELDS = tuple(constant for _event, constant in _FITTED_EVENTS)

#: Per-component sanity band around the baseline: a fitted price outside
#: ``[baseline/CLAMP, baseline*CLAMP]`` reverts to the baseline value.
_CLAMP = 1000.0

#: Below this many usable records the fit is underdetermined noise; keep
#: the baseline outright.
_MIN_RECORDS = 6


def _record_features(db, record, baseline: ModelConstants, cache):
    """Per-record feature row: predicted ms per unit price of each constant,
    from one prediction's events under *baseline*.

    Priced against the record's logged plan
    (:func:`repro.workload.price_record`), so the features describe the
    plan that produced the measurement. Returns an
    ``len(FITTED_FIELDS)``-vector or None when the record is not a usable
    ok select trace.
    """
    if record.get("outcome") != "ok" or "simulated_ms" not in record:
        return None
    from ..workload import price_record
    from .predictor import predict_select

    def features(projection, query, strategy):
        events = predict_select(projection, query, strategy, baseline).events
        row = [getattr(events, event) for event, _ in _FITTED_EVENTS]
        return np.array(row, dtype=np.float64) / 1000.0

    return price_record(db, record, cache, features)


@dataclass
class CalibrationReport:
    """Outcome of :func:`recalibrate_from_log`."""

    #: The constants to use: the fitted set when it predicted the trace at
    #: least as well as the baseline, otherwise the baseline unchanged.
    constants: ModelConstants
    #: The raw (clamped) least-squares fit, regardless of adoption.
    fitted: ModelConstants
    baseline: ModelConstants
    #: Usable ok-select records the fit was computed over.
    n_records: int
    #: Mean absolute error (ms) of each constant set's linear prediction
    #: against the measured simulated_ms over the trace.
    mae_fitted_ms: float
    mae_baseline_ms: float
    used_fitted: bool

    def to_dict(self) -> dict:
        return {
            "constants": self.constants.as_dict(),
            "fitted": self.fitted.as_dict(),
            "baseline": self.baseline.as_dict(),
            "n_records": self.n_records,
            "mae_fitted_ms": round(self.mae_fitted_ms, 6),
            "mae_baseline_ms": round(self.mae_baseline_ms, 6),
            "used_fitted": self.used_fitted,
        }

    def render(self) -> str:
        lines = [
            f"records        {self.n_records}",
            f"mae ms         fitted={self.mae_fitted_ms:.4f} "
            f"baseline={self.mae_baseline_ms:.4f}",
            f"adopted        "
            f"{'fitted' if self.used_fitted else 'baseline'}",
            "",
            f"{'constant':>10} {'baseline':>12} {'fitted':>12} "
            f"{'adopted':>12}",
        ]
        base, fit, use = (
            self.baseline.as_dict(),
            self.fitted.as_dict(),
            self.constants.as_dict(),
        )
        for name in base:
            lines.append(
                f"{name:>10} {base[name]:>12g} {fit[name]:>12g} "
                f"{use[name]:>12g}"
            )
        return "\n".join(lines)


def _clamped_fit(baseline: ModelConstants, A, y) -> ModelConstants:
    """Least-squares prices for ``A · k ≈ y``, each within its sanity band.

    A component solved out of its band (or not finite) is held at its
    baseline and the rest are re-solved against ``y − A_held · k_held``,
    so its events' time is fitted by the free components, not dropped.
    Each round holds one more component at least: at most six solves.
    """
    start = np.array([getattr(baseline, name) for name in FITTED_FIELDS])
    prices, free = start.copy(), np.ones(len(start), dtype=bool)
    while free.any():
        solution, *_ = np.linalg.lstsq(
            A[:, free], y - A[:, ~free] @ start[~free], rcond=None
        )
        base = start[free]
        # NaN and infinities fail the comparisons too.
        sane = (0.0 < solution) & (base / _CLAMP <= solution) & (
            solution <= base * _CLAMP
        )
        prices[free] = np.where(sane, solution, base)
        if sane.all():
            break
        free[free] = sane
    return baseline.with_overrides(**dict(zip(FITTED_FIELDS,
                                              prices.tolist())))


def recalibrate_from_log(
    db, records, constants: ModelConstants | None = None
) -> CalibrationReport:
    """Fit Table-2 constants to a query-log trace captured on *db*.

    *records* is an iterable of query-log dicts (e.g. from
    :func:`repro.qlog.read_query_log`); only ok select records that still
    cost cleanly against the catalog participate. *constants* is the
    baseline (default ``db.constants``). The result always carries
    positive, finite constants, and ``constants`` only differs from the
    baseline when the fit's trace MAE is no worse.
    """
    baseline = constants if constants is not None else db.constants
    cache: dict = {}
    rows, targets = [], []
    for record in records:
        row = _record_features(db, record, baseline, cache)
        if row is not None:
            rows.append(row)
            targets.append(float(record["simulated_ms"]))
    A, y = np.array(rows), np.array(targets, dtype=np.float64)

    def mae(k: ModelConstants) -> float:
        if not rows:
            return 0.0
        prices = [getattr(k, name) for name in FITTED_FIELDS]
        return float(np.mean(np.abs(A @ prices - y)))

    fitted, used_fitted = baseline, False
    if len(rows) >= _MIN_RECORDS:
        fitted = _clamped_fit(baseline, A, y)
        used_fitted = mae(fitted) <= mae(baseline)
    return CalibrationReport(
        constants=fitted if used_fitted else baseline,
        fitted=fitted,
        baseline=baseline,
        n_records=len(rows),
        mae_fitted_ms=mae(fitted),
        mae_baseline_ms=mae(baseline),
        used_fitted=used_fitted,
    )
