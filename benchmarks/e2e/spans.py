"""The benchmark's own span recorder.

A span is ``[name, start, end, parent, op]``: times are ``perf_counter``
seconds, ``parent`` is the index of the span that caused it (-1 for none) and
``op`` is shared by all spans of one operation. The benchmark opens a span
around each call into a layer; the engine's public ``QueryResult.spans`` tree
(which carries durations but no clock times) is adopted underneath the call's
span, laid out back to back in execution order. Spans stay in memory until
:meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []

    def add(self, name: str, start: float, end, parent: int = -1,
            op: int = 0) -> int:
        """Record one span; returns its index (usable as a ``parent``)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: int = 0, parent: int = -1):
        index = self.add(name, self.clock(), None, parent, op)
        try:
            yield index
        finally:
            self.spans[index][END] = self.clock()

    def adopt(self, tree: dict, parent: int, op: int, start=None) -> None:
        """Graft an engine span tree (``Span.to_dict()`` shape) under *parent*.

        The tree has durations only, so each span is placed at its parent's
        start plus the durations of the siblings that ran before it, and
        clipped to the parent's end.
        """
        p_start, p_end = self.spans[parent][START], self.spans[parent][END]
        begin = p_start if start is None else start
        end = min(begin + tree["wall_ms"] / 1000.0, p_end)
        me = self.add(tree["operator"], begin, end, parent, op)
        cursor = begin
        for child in tree.get("children", ()):
            self.adopt(child, me, op, start=min(cursor, end))
            cursor += child["wall_ms"] / 1000.0

    def self_ms(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span[PARENT] >= 0:
                children.setdefault(span[PARENT], []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            start, end = span[START], span[END]
            covered, reach = 0.0, start
            for child in sorted(children.get(index, ()), key=lambda s: s[START]):
                lo, hi = max(child[START], reach), min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start - covered) * 1000.0)
        return out

    def self_ms_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_ms()):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def dump(self, path, max_ops: int | None = None, **header) -> None:
        """Write the spans of the first *max_ops* operations, with self times."""
        ops = list(dict.fromkeys(span[OP] for span in self.spans))
        keep = set(ops if max_ops is None else ops[:max_ops])
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            {
                "id": index,
                "name": span[NAME],
                "start_ms": round((span[START] - origin) * 1000.0, 4),
                "end_ms": round((span[END] - origin) * 1000.0, 4),
                "self_ms": round(own, 4),
                "parent": span[PARENT],
                "op": span[OP],
            }
            for index, (span, own) in enumerate(zip(self.spans, self.self_ms()))
            if span[OP] in keep
        ]
        document = dict(header, spans_recorded=len(self.spans),
                        ops_recorded=len(ops), ops_written=len(keep))
        with open(path, "w", encoding="utf-8") as handle:
            # One span per line: the file diffs and greps well.
            handle.write(json.dumps(document)[:-1] + ', "spans": [\n')
            handle.write(",\n".join(json.dumps(row) for row in rows))
            handle.write("\n]}\n")
