"""Structured execution spans: the engine's EXPLAIN ANALYZE substrate.

Every operator application (DS1-DS4, SPC, AND, MERGE, JOIN, AGG, OUTPUT —
the paper's Section 3 operator set) is recorded as a :class:`Span` in a tree
rooted at one ``query`` span. A span captures four things:

* **wall-clock time** — measured around the operator's execution;
* **simulated-time attribution** — the span's share of the analytical
  model's Table 1 terms, obtained by snapshotting the query's
  :class:`~repro.metrics.QueryStats` counters at span entry and exit.  The
  *cumulative* delta includes nested child spans; :meth:`Span.self_stats`
  subtracts the children so per-span *self* simulated times always sum
  (exactly, modulo float association) to the whole query's
  :func:`~repro.model.cost.simulated_time_ms`;
* **cardinalities** — rows / positions / tuples produced, from the
  operator-specific ``detail`` mapping;
* **cache interactions** — buffer-pool hits, decoded-cache hits/misses and
  physical reads, all of which are ``QueryStats`` counters and therefore
  attributed per span by the same snapshot mechanism.

Tracing is strictly opt-in: with no tracer on the
:class:`~repro.operators.base.ExecutionContext`, ``ctx.begin`` returns
``None`` without allocating and operators skip their ``ctx.end`` call, so
the hot path is untouched (the e2e benchmark's
``driver.trace_overhead_share`` measures what tracing costs when on).

Error behaviour: when an operator raises mid-span (e.g. a
:class:`~repro.errors.CorruptBlockError` from a scan), the tracer's
:meth:`SpanTracer.finish` closes every open span bottom-up with
``status="error"``, yielding a truncated-but-valid tree — no dangling open
spans, even for scheduler-parallelised leaves (the scan scheduler adopts
each leaf's spans, finished, in deterministic task order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .metrics import COUNTER_FIELDS, QueryStats

#: ``detail`` keys probed (in order) for a span's output cardinality.
_ROWS_KEYS = ("rows", "tuples", "tuples_out", "positions", "positions_out",
              "matches")


@dataclass
class Span:
    """One operator application in the EXPLAIN ANALYZE tree.

    ``stats`` is the *cumulative* QueryStats delta over the span's lifetime,
    including every child span; :meth:`self_stats` gives the exclusive share.
    ``status`` is ``"open"`` while executing, then ``"ok"`` or ``"error"``
    (the span was truncated by an exception).
    """

    name: str
    detail: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    wall_ms: float = 0.0
    stats: QueryStats = field(default_factory=QueryStats)
    status: str = "open"

    # ------------------------------------------------------------- analysis

    @property
    def rows_out(self) -> int | None:
        """Output cardinality, if the operator reported one."""
        for key in _ROWS_KEYS:
            value = self.detail.get(key)
            if value is not None:
                return int(value)
        return None

    def self_stats(self) -> QueryStats:
        """Counter delta exclusive to this span (cumulative minus children)."""
        own = QueryStats()
        own.merge(self.stats)
        for child in self.children:
            for name in COUNTER_FIELDS:
                setattr(
                    own, name, getattr(own, name) - getattr(child.stats, name)
                )
            for key, value in child.stats.extra.items():
                own.extra[key] = own.extra.get(key, 0) - value
        own.extra = {k: v for k, v in own.extra.items() if v}
        return own

    def simulated_ms(self, constants) -> float:
        """Model-replay milliseconds of the span including its children."""
        from .model.cost import simulated_time_ms

        return simulated_time_ms(self.stats, constants)

    def self_simulated_ms(self, constants) -> float:
        """Model-replay milliseconds exclusive to this span.

        Summing this over every span of a tree reconstructs the whole
        query's ``simulated_time_ms`` (children are never double-counted).
        """
        from .model.cost import simulated_time_ms

        return simulated_time_ms(self.self_stats(), constants)

    # ------------------------------------------------------------ traversal

    def walk(self):
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All spans named *name* in this subtree, pre-order."""
        return [s for s in self.walk() if s.name == name]

    def open_spans(self) -> list["Span"]:
        """Spans still marked ``open`` (must be empty after finish())."""
        return [s for s in self.walk() if s.status == "open"]

    # --------------------------------------------------------------- export

    def to_dict(self, constants=None) -> dict:
        """JSON-safe representation of the subtree (for ``--json`` export)."""
        out = {
            "operator": self.name,
            "status": self.status,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
            "wall_ms": round(self.wall_ms, 4),
            "rows_out": self.rows_out,
            "counters": {
                k: v for k, v in self.stats.as_dict().items() if v
            },
        }
        if constants is not None:
            out["simulated_ms"] = round(self.simulated_ms(constants), 4)
            out["self_simulated_ms"] = round(
                self.self_simulated_ms(constants), 4
            )
        if self.children:
            out["children"] = [c.to_dict(constants) for c in self.children]
        return out


def _jsonable(value):
    """Coerce numpy scalars and other oddities to plain JSON types."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class SpanTracer:
    """Builds the span tree for one query execution.

    Construction opens the root ``query`` span against the given
    :class:`QueryStats` instance (the one every operator mutates in place).
    Operators call :meth:`begin` / :meth:`end` in LIFO order;
    :meth:`finish` closes whatever remains open — the normal end-of-query
    path closes just the root, the error path also closes truncated
    operator spans with ``status="error"``.
    """

    def __init__(self, stats: QueryStats, clock=time.perf_counter):
        self.stats = stats
        self.clock = clock
        self.root = Span(name="query")
        self._stack: list[tuple[Span, float, tuple, dict]] = [
            (self.root, clock(), self._snapshot(), dict(stats.extra))
        ]

    def _snapshot(self) -> tuple:
        stats = self.stats
        return tuple(getattr(stats, name) for name in COUNTER_FIELDS)

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> Span:
        """Open a child span of the innermost open span."""
        span = Span(name=name)
        self._stack[-1][0].children.append(span)
        self._stack.append(
            (span, self.clock(), self._snapshot(), dict(self.stats.extra))
        )
        return span

    def end(self, span: Span, **detail) -> None:
        """Close *span* (which must be the innermost open span)."""
        entry = self._stack.pop()
        if entry[0] is not span:  # pragma: no cover - operator bug guard
            self._stack.append(entry)
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost open is {entry[0].name!r})"
            )
        self._close(entry, detail, status="ok")

    def _close(self, entry, detail: dict, status: str) -> None:
        span, t0, snap0, extra0 = entry
        span.wall_ms = (self.clock() - t0) * 1000.0
        now = self._snapshot()
        for name, before, after in zip(COUNTER_FIELDS, snap0, now):
            setattr(span.stats, name, after - before)
        for key, value in self.stats.extra.items():
            delta = value - extra0.get(key, 0)
            if delta:
                span.stats.extra[key] = delta
        span.detail.update(detail)
        span.status = status

    # ----------------------------------------------------------- completion

    def finish(self, error: BaseException | None = None) -> Span:
        """Close every remaining open span (idempotent) and return the root.

        Spans other than the root are only still open when an exception cut
        execution short; they are closed bottom-up with ``status="error"``
        and the error's type recorded, producing a truncated-but-valid tree.
        """
        while self._stack:
            entry = self._stack.pop()
            span = entry[0]
            if span is self.root:
                self._close(
                    entry,
                    {"error": type(error).__name__} if error else {},
                    status="error" if error else "ok",
                )
            else:
                self._close(
                    entry,
                    {"error": type(error).__name__ if error else "truncated"},
                    status="error",
                )
        return self.root

    def unwind(self, span: Span, error: BaseException, **detail) -> None:
        """Close every open span up to and including *span* as errored.

        The degraded-execution path catches a storage failure *inside* a
        partition's task and keeps executing; whatever spans the failure cut
        short (a DS1 scan, a RETRY, the PARTITION span itself) are closed
        bottom-up with ``status="error"`` — the partitioned analogue of
        :meth:`finish`'s error path, but scoped to one subtree so the query
        span stays open for the surviving partitions.
        """
        while self._stack:
            entry = self._stack.pop()
            if entry[0] is span:
                self._close(
                    entry,
                    {**detail, "error": type(error).__name__},
                    status="error",
                )
                return
            self._close(
                entry, {"error": type(error).__name__}, status="error"
            )
        raise RuntimeError(  # pragma: no cover - operator bug guard
            f"span {span.name!r} was not open; cannot unwind to it"
        )

    def adopt(self, leaf: "SpanTracer", error: BaseException | None = None) -> None:
        """Graft a leaf context's spans under the innermost open span.

        The scan scheduler calls this once per parallel leaf, in task order,
        after the barrier — so adopted spans land deterministically however
        the threads interleaved. The leaf tracer is finished first (closing
        any span its task left open when it raised *error*); its synthetic
        root is discarded and only the operator spans are kept.
        """
        leaf.finish(error)
        parent = self._stack[-1][0] if self._stack else self.root
        parent.children.extend(leaf.root.children)
