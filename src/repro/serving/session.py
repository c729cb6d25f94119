"""Per-connection session state: default knobs and query history.

A :class:`Session` is created when a client connects and lives until the
connection closes. It holds the client's default execution knobs (strategy,
priority class, timeout, tracing, decoded output) — individual requests may
override any of them — plus a bounded history of recent operations and the
set of in-flight cancel tokens, so a disconnect cancels everything the
session still has running.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..serving.admission import PRIORITIES

#: Knobs a session (or an individual request) may set, with defaults.
DEFAULT_KNOBS: dict = {
    "strategy": "auto",      # materialization strategy ("auto" = model)
    "priority": "normal",    # admission class: interactive | normal | batch
    "timeout_ms": None,      # per-query deadline (None = unlimited)
    "trace": False,          # EXPLAIN ANALYZE span tree on every query
    "decoded": False,        # return decoded (logical) values, not stored
}

HISTORY_CAPACITY = 64


def _checked(key: str, value):
    """*value* as knob *key* holds it; raises ``ValueError`` when the knob
    is unknown or the value out of its domain."""
    if key not in DEFAULT_KNOBS:
        raise ValueError(
            f"unknown session knob {key!r} (known: {sorted(DEFAULT_KNOBS)})"
        )
    if key == "priority" and value not in PRIORITIES:
        raise ValueError(
            f"unknown priority {value!r} (use one of {PRIORITIES})"
        )
    if key == "timeout_ms" and value is not None:
        value = float(value)
        if value < 0:
            raise ValueError("timeout_ms must be >= 0")
    if key in ("trace", "decoded"):
        value = bool(value)
    return value


class Session:
    """One client connection's serving state."""

    def __init__(self, session_id: int, knobs: dict | None = None):
        self.session_id = session_id
        self.created_at = time.time()
        self.knobs = dict(DEFAULT_KNOBS)
        if knobs:
            self.set_knobs(knobs)
        self.history: deque = deque(maxlen=HISTORY_CAPACITY)
        self.queries = 0
        self.errors = 0
        self.rejected = 0
        self._lock = threading.Lock()
        self._inflight: set = set()

    # ----------------------------------------------------------------- knobs

    def set_knobs(self, updates: dict) -> dict:
        """Validate and apply knob *updates*; returns the effective knobs."""
        for key, value in updates.items():
            self.knobs[key] = _checked(key, value)
        return dict(self.knobs)

    def effective(self, request: dict) -> dict:
        """Session knobs with any per-request overrides applied, each
        checked and coerced as :meth:`set_knobs` would."""
        knobs = dict(self.knobs)
        for key in DEFAULT_KNOBS:
            if key in request:
                knobs[key] = _checked(key, request[key])
        return knobs

    # --------------------------------------------------------------- history

    def record(self, op: str, ok: bool, wall_ms: float | None = None,
               detail: str = "") -> None:
        """Append one finished operation to the bounded history."""
        self.queries += 1
        if not ok:
            self.errors += 1
        self.history.append(
            {
                "op": op,
                "ok": ok,
                "wall_ms": None if wall_ms is None else round(wall_ms, 3),
                "detail": detail[:120],
                "ts": time.time(),
            }
        )

    # -------------------------------------------------------- cancellation

    def track(self, token) -> None:
        """Register an in-flight cancel token for disconnect cleanup."""
        with self._lock:
            self._inflight.add(token)

    def untrack(self, token) -> None:
        with self._lock:
            self._inflight.discard(token)

    def cancel_inflight(self, reason: str = "client disconnected") -> int:
        """Trip every in-flight token (the disconnect path); returns count."""
        with self._lock:
            tokens = list(self._inflight)
        for token in tokens:
            token.cancel(reason)
        return len(tokens)

    # ------------------------------------------------------------- reporting

    def describe(self) -> dict:
        """JSON-safe session summary for the ``session`` op."""
        return {
            "session_id": self.session_id,
            "created_at": self.created_at,
            "knobs": dict(self.knobs),
            "queries": self.queries,
            "errors": self.errors,
            "rejected": self.rejected,
            "history": list(self.history),
        }
