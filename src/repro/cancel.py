"""Cooperative cancellation and per-query deadlines.

A :class:`CancelToken` is a tiny thread-safe flag shared between whoever
wants a query stopped (a serving-layer timeout, a disconnecting client, an
operator Ctrl-C handler) and the execution engine. The engine checks the
token at block-access granularity — :meth:`ExecutionContext.read_block
<repro.operators.base.ExecutionContext.read_block>` calls :meth:`check` on
every buffer-pool access, warm or cold — so cancellation is prompt (a block
is the engine's smallest unit of work) without instrumenting every operator
inner loop.

The contract is all-or-nothing: a cancelled query raises
:class:`~repro.errors.QueryCancelledError` (or its subclass
:class:`~repro.errors.QueryTimeoutError` for deadline expiry) out of
``Database.query``; the engine's error path truncates the span tree cleanly
(``exc.spans`` when traced), and no partial :class:`~repro.engine.QueryResult`
ever escapes. Deadlines are measured from token construction, so a token
created at admission time naturally charges queue wait against the budget.
"""

from __future__ import annotations

import time

from .errors import QueryCancelledError, QueryTimeoutError


class CancelToken:
    """Shared cancel/deadline flag for one query execution.

    Args:
        timeout_ms: optional deadline, in milliseconds from construction.
            ``None`` means no deadline (the token only trips if
            :meth:`cancel` is called).
        clock: monotonic time source, injectable for tests.

    Thread-safety: :meth:`cancel` may be called from any thread while the
    query runs on another; the flag is a single attribute write (atomic
    under the GIL) and :meth:`check` only reads, so no lock is needed on
    the per-block hot path.
    """

    __slots__ = ("_cancelled", "_reason", "_clock", "_start", "timeout_ms")

    def __init__(self, timeout_ms: float | None = None, clock=time.monotonic):
        self._cancelled = False
        self._reason: str | None = None
        self._clock = clock
        self._start = clock()
        self.timeout_ms = timeout_ms

    # --------------------------------------------------------------- control

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; every subsequent :meth:`check` raises."""
        self._reason = reason
        self._cancelled = True

    # --------------------------------------------------------------- queries

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (deadline not consulted)."""
        return self._cancelled

    def elapsed_ms(self) -> float:
        """Milliseconds since the token was created."""
        return (self._clock() - self._start) * 1000.0

    def expired(self) -> bool:
        """Whether the deadline (if any) has passed."""
        return (
            self.timeout_ms is not None
            and self.elapsed_ms() > self.timeout_ms
        )

    def check(self) -> None:
        """Raise if the token is tripped or the deadline has passed.

        The engine calls this at every block access; anything else doing
        long cancellable work can call it at its own natural boundaries.
        """
        if self._cancelled:
            raise QueryCancelledError(
                f"query cancelled: {self._reason or 'cancelled'}"
            )
        if self.expired():
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout_ms:g} ms deadline "
                f"({self.elapsed_ms():.1f} ms elapsed)"
            )
