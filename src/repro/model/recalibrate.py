"""Recalibration: fit Table 2's CPU constants to this host's wall time.

The paper obtained Table 2 by timing the code that performs each event.
Here the timed code is the executor itself: every ok query-log record
carries the query's measured ``wall_ms`` and the Table 1 events it
performed (its ``counters``). Over a trace this module solves the
least-squares system

    counters · k  ≈  wall_ms

for the four CPU prices ``k`` the counters price: BIC, TICCOL, TICTUP
and FC. PF, SEEK and READ stay at their baseline values: they describe
the simulated disk, whose time the disk model charges as a counter
(``simulated_io_us``) without ever sleeping, so no wall time carries it.

Fitted values are clamped positive and finite — a non-finite,
non-positive, or wildly out-of-range component is held at its baseline
value and the others are re-solved without it — and the fit is only
*adopted* when it moved some component and its mean absolute error over
the trace is no worse than the baseline constants', so ``repro
calibrate`` can never regress what-if scoring on the trace it read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..qlog import own_records
from .constants import ModelConstants
from .cost import REPLAYED_EVENTS

#: The logged counters fitted, each with the one constant that prices it.
_FITTED_EVENTS = [(event, constant) for event, (constant,) in REPLAYED_EVENTS]
FITTED_FIELDS = tuple(constant for _event, constant in _FITTED_EVENTS)

#: Per-component sanity band around the baseline: a fitted price outside
#: ``[baseline/CLAMP, baseline*CLAMP]`` reverts to the baseline value.
_CLAMP = 1000.0

#: Below this many usable records the fit is underdetermined noise; keep
#: the baseline outright.
_MIN_RECORDS = 6


def wall_trace(records) -> tuple[np.ndarray, np.ndarray]:
    """``(A, y)`` of a trace: one row per ok record that logged every
    fitted counter, ``A`` its counters in thousands (so prices in µs give
    ms) in :data:`FITTED_FIELDS` order, ``y`` its ``wall_ms``."""
    rows, walls = [], []
    for record in records:
        counters = record.get("counters") or {}
        if (record.get("outcome") != "ok" or "wall_ms" not in record
                or any(event not in counters for event, _ in _FITTED_EVENTS)):
            continue
        rows.append([counters[event] for event, _ in _FITTED_EVENTS])
        walls.append(float(record["wall_ms"]))
    A = np.array(rows, dtype=np.float64).reshape(-1, len(FITTED_FIELDS))
    return A / 1000.0, np.array(walls, dtype=np.float64)


@dataclass
class CalibrationReport:
    """Outcome of :func:`recalibrate_from_log`."""

    #: The constants to use: the fitted set when it predicted the trace at
    #: least as well as the baseline, otherwise the baseline unchanged.
    constants: ModelConstants
    #: The raw (clamped) least-squares fit, regardless of adoption.
    fitted: ModelConstants
    baseline: ModelConstants
    #: Usable ok records the fit was computed over.
    n_records: int
    #: Mean absolute error (ms) of each constant set's pricing of the
    #: logged counters against the logged wall_ms over the trace.
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
    Each round holds one more component at least: at most four solves.
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
    """Fit Table 2's CPU constants to a query-log trace captured on *db*.

    *records* is an iterable of query-log dicts (e.g. from
    :func:`repro.qlog.read_query_log`), or None for *db*'s own log; only
    ok records carrying their counters participate. *constants* is the
    baseline (default ``db.constants``). The result always carries
    positive, finite constants, and ``constants`` only differs from the
    baseline when the fit moved some component and its trace MAE is no
    worse.
    """
    baseline = constants if constants is not None else db.constants
    if records is None:
        records = own_records(db, "recalibrate_from_log")
    A, y = wall_trace(records)

    def mae(k: ModelConstants) -> float:
        if not len(y):
            return 0.0
        prices = [getattr(k, name) for name in FITTED_FIELDS]
        return float(np.mean(np.abs(A @ prices - y)))

    fitted, used_fitted = baseline, False
    if len(y) >= _MIN_RECORDS:
        fitted = _clamped_fit(baseline, A, y)
        # A fit that held every component is the baseline, not an adoption.
        used_fitted = fitted != baseline and mae(fitted) <= mae(baseline)
    return CalibrationReport(
        constants=fitted if used_fitted else baseline,
        fitted=fitted,
        baseline=baseline,
        n_records=len(y),
        mae_fitted_ms=mae(fitted),
        mae_baseline_ms=mae(baseline),
        used_fitted=used_fitted,
    )
