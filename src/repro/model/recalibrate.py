"""Online recalibration: re-fit Table-2 constants from query-log traces.

:func:`repro.model.calibrate.calibrate_constants` measures the CPU
constants with synthetic micro-benchmarks; this module instead fits them
to *observed* workload: for every ok select record in a query log it asks
the predictor how many of each priced event (block iterations, column
iterations, tuple iterations, function calls, seeks, block reads) the
recorded plan performs, and solves the least-squares system

    features · k  ≈  measured simulated_ms

for the six per-event prices ``k``. The trick that makes feature
extraction cheap is that :func:`repro.model.predictor.predict_select` is
*linear* in the constants (holding ``PF`` fixed): evaluating it six times
with one-hot constants — e.g. ``bic=1`` and every other price zero —
yields exactly the coefficient of each constant in milliseconds per unit
price. (The one non-linear term, ``and_cost``'s ``m·TICCOL·FC`` cross
term, vanishes under a one-hot basis and is negligible at Table-2
magnitudes.)

Fitted values are clamped positive and finite — any non-finite,
non-positive, or wildly out-of-range component falls back to its baseline
value — and the fit is only *adopted* when its mean absolute prediction
error over the trace is no worse than the baseline constants', so
``repro calibrate --from-log`` can never regress what-if scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ModelConstants

#: The constants fitted from traces, in ModelConstants field order. ``pf``
#: is held at its baseline value: it is an integer prefetch window that
#: changes *which* seeks the model counts, not a per-event price.
FITTED_FIELDS = ("bic", "ticcol", "tictup", "fc", "seek", "read")

#: Per-component sanity band around the baseline: a fitted price outside
#: ``[baseline/CLAMP, baseline*CLAMP]`` reverts to the baseline value.
_CLAMP = 1000.0

#: Below this many usable records the fit is underdetermined noise; keep
#: the baseline outright.
_MIN_RECORDS = 6


def _basis(baseline: ModelConstants) -> list[ModelConstants]:
    """One-hot constants: field i priced at 1 µs, every other at 0."""
    out = []
    for name in FITTED_FIELDS:
        overrides = {f: 0.0 for f in FITTED_FIELDS}
        overrides[name] = 1.0
        out.append(baseline.with_overrides(**overrides))
    return out


def _record_features(db, record, basis, cache):
    """Per-record feature row: predicted ms per unit price of each constant.

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
        return np.array(
            [
                predict_select(projection, query, strategy, constants=k)
                .total_ms
                for k in basis
            ],
            dtype=np.float64,
        )

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


def _clamped(baseline: ModelConstants, solution) -> ModelConstants:
    """Fold a raw solution vector into positive, finite, sane constants."""
    overrides = {}
    for name, value in zip(FITTED_FIELDS, solution):
        default = getattr(baseline, name)
        value = float(value)
        if (
            not np.isfinite(value)
            or value <= 0.0
            or value < default / _CLAMP
            or value > default * _CLAMP
        ):
            value = default
        overrides[name] = value
    return baseline.with_overrides(**overrides)


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
    basis = _basis(baseline)
    cache: dict = {}
    rows, targets = [], []
    for record in records:
        row = _record_features(db, record, basis, cache)
        if row is None:
            continue
        rows.append(row)
        targets.append(float(record["simulated_ms"]))

    n = len(rows)
    base_vec = np.array(
        [getattr(baseline, f) for f in FITTED_FIELDS], dtype=np.float64
    )
    if n == 0:
        return CalibrationReport(
            constants=baseline, fitted=baseline, baseline=baseline,
            n_records=0, mae_fitted_ms=0.0, mae_baseline_ms=0.0,
            used_fitted=False,
        )
    A = np.vstack(rows)
    y = np.array(targets, dtype=np.float64)
    mae_baseline = float(np.mean(np.abs(A @ base_vec - y)))
    if n < _MIN_RECORDS:
        return CalibrationReport(
            constants=baseline, fitted=baseline, baseline=baseline,
            n_records=n, mae_fitted_ms=mae_baseline,
            mae_baseline_ms=mae_baseline, used_fitted=False,
        )
    solution, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = _clamped(baseline, solution)
    fit_vec = np.array(
        [getattr(fitted, f) for f in FITTED_FIELDS], dtype=np.float64
    )
    mae_fitted = float(np.mean(np.abs(A @ fit_vec - y)))
    used_fitted = mae_fitted <= mae_baseline
    return CalibrationReport(
        constants=fitted if used_fitted else baseline,
        fitted=fitted,
        baseline=baseline,
        n_records=n,
        mae_fitted_ms=mae_fitted,
        mae_baseline_ms=mae_baseline,
        used_fitted=used_fitted,
    )
