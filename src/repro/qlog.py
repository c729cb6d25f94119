"""The workload flight recorder: a persistent, replayable query log.

Every query the engine finishes (or aborts) is appended to a size-rotated
segment file under ``<database root>/_qlog/``. A record carries everything
the workload-adaptive advisor needs as durable input — a normalized
**query fingerprint** (template hash with literals stripped), the resolved
strategy and encoding overrides, observed selectivity, partition
scan/prune counts, cache and kernel counters, queue wait / wall /
simulated milliseconds, and the outcome (``ok`` / ``degraded`` /
``error`` / ``cancelled`` / ``timeout`` / ``rejected``) — plus the full
logical query dict and a hash of the result tuples, which is what makes a
captured log *replayable*: ``repro replay --check`` re-executes each record
under its recorded strategy and asserts the re-computed hash matches bit
for bit (see :mod:`repro.workload`).

**The line format (version 2).** A segment is JSON lines of three kinds:

* a **header**, ``{"qlog":2,"counters":[...]}``, first in every segment
  and first in every writer session appended to one; it names the counter
  fields once;
* a **definition**, ``{"def":<id>,...}``, written the first time a
  distinct query (keyed by value) is recorded in a writer session or
  segment: its fingerprint, kind, template, columns, query dict and
  encoding overrides, under an id hashed from them;
* a **record**: ``seq``, ``ts``, the definition id ``q`` (absent for a
  request rejected before it was bound), the counters as one positional
  list ``c`` (ok and degraded records), and the fields that vary per
  execution. Fields at their default — ``outcome`` ``"ok"``, ``origin``
  ``"embedded"``, ``queue_wait_ms`` 0 — are left out. A record's
  definition is an earlier line of its own segment.

:func:`read_query_log` expands every record into one flat dict with the
static fields inlined and ``counters`` keyed by name — the dict a version-1
line (one self-describing JSON object per query, written before the
format had headers) held, which is still read: lines before a segment's
first header are version 1.

Each log directory open in a process has one writer
(:class:`_SegmentWriter`), however many :class:`QueryLog` handles share
it: one thread serializes and appends every handle's records, in one
``seq``; a query pays one CRC over its result tuples and one queue
hand-off. :meth:`QueryLog.flush` drains the directory's whole backlog, as
does :meth:`QueryLog.close` (which ``Database.close`` calls) before it
releases the writer, and so does interpreter exit. Segments are read by
the JSON-lines reader the WAL shares (:mod:`repro.storage.jsonlines`): the
writer flushes line-by-line, so a crash can tear at most the final line of
the active segment; :func:`read_query_log` skips exactly that torn tail
and the writer, on re-open, truncates it. A bad line anywhere else, a
torn line in a sealed segment, or a record naming a definition its
segment lacks raises :class:`~repro.errors.LogLineError` naming the file
and line. A segment is sealed at :data:`SEGMENT_BYTES` and the next
numbered one opened; a monotonically increasing ``seq`` stamped on every
record makes cross-segment ordering checkable.

The recorder is **always on** by default (``Database(query_log=True)``).
Every workload of the e2e benchmark (``benchmarks/e2e``) runs with the
recorder on, so its cost is inside every end-to-end number there.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import queue
import threading
import time
import zlib
from base64 import urlsafe_b64encode
from functools import lru_cache
from hashlib import blake2b
from pathlib import Path

from .errors import CatalogError, LogLineError
from .metrics import COUNTER_FIELDS
from .storage.jsonlines import read_json_lines, truncate_torn_tail

logger = logging.getLogger(__name__)

#: Byte budget per segment file before rotation.
SEGMENT_BYTES = 8 * 1024 * 1024

#: How long the writer thread lets a batch accumulate before draining.
_BATCH_DELAY_S = 0.02

_SEGMENT_GLOB = "qlog-*.jsonl"

#: The ``counters`` of an ok record: every numeric :class:`QueryStats`
#: field except ``tuples_output`` (the record's ``rows``).
_COUNTER_FIELDS = tuple(
    name for name in COUNTER_FIELDS if name != "tuples_output"
)

#: Compact JSON for one line; one encoder, not one per ``json.dumps`` call.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: The first line of every segment and of every writer session: the line
#: format's version and the names of the positional counters ``c``.
_HEADER = _encode({"qlog": 2, "counters": list(_COUNTER_FIELDS)})

#: The fields of a :class:`_Definition`, in order.
_STATIC_FIELDS = ("fingerprint", "kind", "template", "columns", "query",
                  "encodings")

#: A read record's fields, in the order a version-1 line held them.
_RECORD_FIELDS = (
    "ts", "origin", "session", *_STATIC_FIELDS[:-1], "strategy",
    "encodings", "outcome", "error", "rows", "wall_ms", "simulated_ms",
    "queue_wait_ms", "counters", "projection", "selectivity", "partitions",
    "skipped_partitions", "result_hash", "seq",
)

#: Record fields left out of a line when they hold these values.
_DEFAULTS = {"origin": "embedded", "outcome": "ok", "queue_wait_ms": 0.0}


def _segment_name(index: int) -> str:
    return f"qlog-{index:08d}.jsonl"


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


# --------------------------------------------------------------------------
# Fingerprints and templates
# --------------------------------------------------------------------------


def _predicate_shape(pred) -> list:
    """A predicate with its literal stripped (column and operator only)."""
    if hasattr(pred, "in_values"):
        return [pred.column, "in"]
    return [pred.column, pred.op]


def _template_payload(query) -> dict:
    """The literal-stripped canonical structure of a logical query.

    Two queries that differ only in their predicate constants (or LIMIT
    value) share a payload — and therefore a fingerprint — while anything
    physical or structural (columns, operators, grouping, ordering, stored-
    encoding overrides, join shape) keeps them distinct.
    """
    kind = type(query).__name__
    if kind == "SelectQuery":
        return {
            "kind": "select",
            "projection": query.projection,
            "select": list(query.select),
            "predicates": [_predicate_shape(p) for p in query.predicates],
            "disjuncts": [
                [_predicate_shape(p) for p in group]
                for group in query.disjuncts
            ],
            "group_by": list(query.group_columns),
            "aggregates": [[a.func, a.column] for a in query.aggregates],
            "order_by": [[c, bool(d)] for c, d in query.order_by],
            "limit": query.limit is not None,
            "having": [_predicate_shape(p) for p in query.having],
            "encodings": sorted(list(pair) for pair in query.encodings),
        }
    if kind == "JoinQuery":
        return {
            "kind": "join",
            "left": query.left,
            "right": query.right,
            "on": [query.left_key, query.right_key],
            "select": [list(query.left_select), list(query.right_select)],
            "predicates": [
                _predicate_shape(p) for p in query.left_predicates
            ],
            "group_by": list(query.group_by) if query.group_by else [],
            "aggregates": [[a.func, a.column] for a in query.aggregates],
            "left_strategy": query.left_strategy,
            "encodings": sorted(list(pair) for pair in query.encodings),
        }
    return {"kind": kind}


def query_fingerprint(query) -> str:
    """Stable hex hash of the query's literal-stripped template."""
    payload = json.dumps(
        _template_payload(query), sort_keys=True, separators=(",", ":")
    )
    return blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def query_template(query) -> str:
    """Human-readable SQL-ish template with ``?`` in literal positions."""

    def pred_text(pred) -> str:
        if hasattr(pred, "in_values"):
            return f"{pred.column} IN (?)"
        return f"{pred.column}{pred.op}?"

    kind = type(query).__name__
    if kind == "SelectQuery":
        parts = [f"SELECT {', '.join(query.select)} FROM {query.projection}"]
        if query.disjuncts:
            groups = [
                " AND ".join(pred_text(p) for p in group)
                for group in query.disjuncts
            ]
            parts.append("WHERE (" + ") OR (".join(groups) + ")")
        elif query.predicates:
            parts.append(
                "WHERE " + " AND ".join(pred_text(p) for p in query.predicates)
            )
        if query.group_columns:
            parts.append("GROUP BY " + ", ".join(query.group_columns))
        if query.having:
            parts.append(
                "HAVING " + " AND ".join(pred_text(p) for p in query.having)
            )
        if query.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    f"{c} DESC" if d else c for c, d in query.order_by
                )
            )
        if query.limit is not None:
            parts.append("LIMIT ?")
        return " ".join(parts)
    if kind == "JoinQuery":
        cols = ", ".join(list(query.left_select) + list(query.right_select))
        text = (
            f"SELECT {cols} FROM {query.left} JOIN {query.right} "
            f"ON {query.left_key}={query.right_key}"
        )
        if query.left_predicates:
            text += " WHERE " + " AND ".join(
                pred_text(p) for p in query.left_predicates
            )
        if query.group_by:
            text += " GROUP BY " + ", ".join(query.group_by)
        return text
    return repr(query)[:120]


def _touched_columns(query) -> list[str]:
    """Every column the query reads — the advisor's column-touch signal."""
    kind = type(query).__name__
    if kind == "SelectQuery":
        return sorted(set(query.all_columns))
    if kind == "JoinQuery":
        cols = {query.left_key, query.right_key}
        cols.update(query.left_select)
        cols.update(query.right_select)
        cols.update(p.column for p in query.left_predicates)
        return sorted(cols)
    return []


class _Definition:
    """A query's definition: the record fields that don't vary across
    executions (``facts``, in :data:`_STATIC_FIELDS` order), serialized as
    a ``def`` line on first use, by the writer thread.

    The line's id is a hash of the facts, so one query has the same id in
    every segment and every writer session.
    """

    __slots__ = ("facts", "_encoded")

    def __init__(self, facts: dict):
        self.facts = facts
        self._encoded = None

    def encoded(self) -> tuple:
        """``(id, line)``, computed once."""
        if self._encoded is None:
            payload = _encode(self.facts)
            qid = urlsafe_b64encode(
                blake2b(payload.encode("utf-8"), digest_size=6).digest()
            ).decode("ascii")
            self._encoded = (qid, f'{{"def":"{qid}",{payload[1:]}')
        return self._encoded


@lru_cache(maxsize=512)
def _query_static(query) -> _Definition:
    """The query's :class:`_Definition`, cached by the query's **value**
    (logical queries are frozen dataclasses, so two structurally identical
    queries — e.g. rebuilt per request on the serving path — share one
    entry, and its line is serialized once)."""
    from .serving.protocol import query_to_dict

    kind = "join" if type(query).__name__ == "JoinQuery" else "select"
    try:
        qdict = query_to_dict(query)
    except TypeError:
        qdict = None
    return _Definition(dict(zip(_STATIC_FIELDS, (
        query_fingerprint(query),
        kind,
        query_template(query),
        _touched_columns(query),
        qdict,
        dict(getattr(query, "encodings", ()) or ()),
    ))))


def result_hash(tuples) -> str:
    """Order-sensitive hash of a result :class:`~repro.operators.TupleSet`.

    Hashes the column names plus the raw int64 tuple block, so two results
    are equal iff they carry the same columns and the same rows in the same
    order — executions are deterministic per (data, strategy, encodings),
    which is what makes the replay ``--check`` comparison sound.

    CRC32 rather than a cryptographic hash: the recorder runs inside every
    ``Database.query`` call and the warm-overhead bar is 5%, so the hash
    must be near-free on large results. The check defends against engine
    divergence, not an adversary — any single differing byte flips the CRC,
    and the header (columns + dtype + shape) is folded in separately.
    """
    data = tuples.data
    header = "|".join(tuples.columns) + f";{data.dtype.str};{data.shape}"
    head_crc = zlib.crc32(header.encode("utf-8"))
    buf = data if data.flags.c_contiguous else data.tobytes()
    return f"{head_crc:08x}{zlib.crc32(buf):08x}"


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------


#: The writer of each log directory open in this process, by resolved path.
_WRITERS: dict = {}
_WRITERS_LOCK = threading.Lock()


class _SegmentWriter:
    """The one writer of a log directory within a process: the backlog,
    the thread that drains it, the ``seq`` counter, the active segment and
    its rotation.

    Every :class:`QueryLog` handle on the directory shares it, by
    reference count, so :meth:`flush` drains every handle's records, two
    handles never repeat a ``seq`` and neither appends to a segment the
    other has rotated past. Handles in different processes are not
    supported: each process would have its own writer.
    """

    def __init__(self, directory: Path, key: Path):
        self.directory = directory
        self._key = key
        self._refs = 0
        self.seen = 0         # records handed to the writer
        self.dropped = 0      # records lost to write errors
        self._seen_lock = threading.Lock()
        self._fh = None
        self.size = 0  # bytes in the active segment
        # The ids of the definitions written in the active scope (this
        # writer's part of the active segment); None until the scope has
        # its header line.
        self._defs: set | None = None
        self._open_active()
        # Records are serialized and written by one thread per directory,
        # so a query pays one result hash and one enqueue of its varying
        # fields with its cached definition — what keeps the always-on
        # recorder under the 5% warm-overhead bar. FIFO hand-off preserves
        # ``seq`` ordering.
        self._queue: queue.Queue = queue.Queue()
        self._drain_now = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="qlog-writer", daemon=True
        )
        self._thread.start()
        # The thread is a daemon, so a process that exits without
        # Database.close() (one-shot CLI commands, scripts) would drop its
        # last batch; drain at interpreter shutdown instead.
        atexit.register(self._sync)

    @classmethod
    def acquire(cls, directory: Path) -> "_SegmentWriter":
        """The directory's writer, opened (and recovered) on first use."""
        key = directory.resolve()
        with _WRITERS_LOCK:
            writer = _WRITERS.get(key)
            if writer is None:
                writer = _WRITERS[key] = cls(directory, key)
            writer._refs += 1
            return writer

    def release(self) -> None:
        """Drop one handle's reference. The last one drains the backlog,
        stops the thread and seals the active segment before the directory
        can be acquired again, so a new writer never recovers a segment
        this one is still appending to."""
        with _WRITERS_LOCK:
            self._refs -= 1
            if self._refs:
                return
            del _WRITERS[self._key]
            atexit.unregister(self._sync)
            self._queue.put(None)  # sentinel: the thread exits after it
            self._drain_now.set()
            self._thread.join()
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def _open_active(self) -> None:
        """Continue the newest segment, cutting a torn tail off first (its
        query's caller never saw that record acknowledged)."""
        segments = sorted(self.directory.glob(_SEGMENT_GLOB))
        if not segments:
            self._index = 1
            self.size = 0
            self._next_seq = 0
        else:
            active = segments[-1]
            self._index = _segment_index(active)
            records, log = _read_segment(active, torn_tail_ok=True)
            if log.torn is not None:
                truncate_torn_tail(log)
            # A crash right after rotation can leave the active segment
            # without an intact record: the sequence continues from the
            # newest sealed segment that has one.
            for sealed in reversed(segments[:-1]):
                if records:
                    break
                records = _read_segment(sealed, torn_tail_ok=False)[0]
            last_seq = -1
            for record in records:
                last_seq = int(record.get("seq", last_seq + 1))
            self._next_seq = last_seq + 1
            self.size = active.stat().st_size
        self._open_segment()

    def _open_segment(self) -> None:
        """Append to segment ``self._index`` in a new scope, whose first
        line will be a header."""
        self._fh = open(
            self.directory / _segment_name(self._index),
            "a",
            encoding="utf-8",
        )
        self._defs = None

    def _write(self, definition, record: dict, counters) -> None:
        """Append one record, stamped with the next ``seq``, rotating
        first when it would push the active segment past
        :data:`SEGMENT_BYTES`."""
        record = {"seq": self._next_seq, **record}
        if counters is not None:
            record["c"] = [
                round(v, 3) if isinstance(v, float) else v for v in counters
            ]
        text = self._lines(definition, record)
        if self.size + len(text) > SEGMENT_BYTES and self.size:
            # Seal the full segment durably before rotating: once the next
            # segment exists, readers treat this one as immutable history.
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._index += 1
            self.size = 0
            self._open_segment()
            text = self._lines(definition, record)
        self._fh.write(text)
        self._fh.flush()
        # Only now are the scope's header and the definition on disk.
        if self._defs is None:
            self._defs = set()
        if "q" in record:
            self._defs.add(record["q"])
        # json.dumps escapes to ASCII: chars = bytes
        self.size += len(text)
        self._next_seq += 1

    def _lines(self, definition, record: dict) -> str:
        """The lines that append *record* to the active scope: its header
        and the query's definition first when the scope lacks them."""
        lines = [_HEADER] if self._defs is None else []
        if definition is not None:
            record["q"], line = definition.encoded()
            if record["q"] not in (self._defs or ()):
                lines.append(line)
        lines.append(_encode(record))
        return "\n".join(lines) + "\n"

    def put(self, item: tuple) -> None:
        """Hand one record to the writer thread."""
        with self._seen_lock:
            self.seen += 1
        self._queue.put(item)

    def flush(self) -> None:
        """Block until every record handed over so far is on disk."""
        self._drain_now.set()
        self._queue.join()
        self._drain_now.clear()

    def _sync(self) -> None:
        """Drain the backlog and make the active segment durable."""
        self.flush()
        os.fsync(self._fh.fileno())

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            # Let a batch accumulate so the thread wakes — and contends
            # with query threads for the GIL — once per interval, not once
            # per record. flush() and release() skip the pause.
            self._drain_now.wait(_BATCH_DELAY_S)
            batch = [item]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            for item in batch:
                if item is None:
                    continue
                try:
                    self._write(*item)
                except Exception:
                    logger.exception("query-log write failed; record dropped")
                    self.dropped += 1
            for _ in batch:
                self._queue.task_done()
            if batch[-1] is None:
                return

    def metrics(self) -> dict:
        return {
            "seen": self.seen,
            "dropped": self.dropped,
            "pending": self._queue.qsize(),
            "segments": len(list(self.directory.glob(_SEGMENT_GLOB))),
            "active_segment_bytes": self.size,
        }


class QueryLog:
    """A handle on a size-rotated JSONL query log (thread-safe append).

    Handles on one directory within a process share its one
    :class:`_SegmentWriter`; a handle holds a reference to it and turns
    finished queries into records. Handles on one directory in different
    processes are not supported.
    """

    def __init__(self, directory: str | Path):
        """Open (or continue) the log under *directory*, created if
        missing. Re-opening an existing log truncates a torn final line
        (the WAL recovery contract) and appends to the newest segment.

        Every ``ok`` record (not a degraded one) carries its
        :func:`result_hash`, so the log is checkably replayable.
        """
        # Warm the query-serialization import now so the first observed
        # query doesn't pay the serving-package import inside the hot path.
        from .serving import protocol as _protocol  # noqa: F401

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._writer: _SegmentWriter | None = _SegmentWriter.acquire(
            self.directory
        )

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Drain the directory's backlog and release the writer
        (idempotent)."""
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.flush()
            writer.release()

    def flush(self) -> None:
        """Block until every record handed to the directory's writer so
        far, by any handle, is on disk."""
        if self._writer is not None:
            self._writer.flush()

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- writing

    def _enqueue(self, query, record: dict, counters=None) -> None:
        """Hand *record* (its varying fields) to the writer with the
        query's cached definition; *query* is ``None`` for a request
        turned away before it was bound. A closed handle records nothing."""
        writer = self._writer
        if writer is None:
            return
        definition = None
        if query is not None:
            try:
                definition = _query_static(query)
            except TypeError:  # unhashable query object: compute uncached
                definition = _query_static.__wrapped__(query)
        writer.put((definition, record, counters))

    @staticmethod
    def _base_record(origin: str, session, queue_wait_ms) -> dict:
        """Timestamp, provenance and queue wait, defaults left out."""
        record = {"ts": round(time.time(), 3)}
        if origin != _DEFAULTS["origin"]:
            record["origin"] = origin
        if session is not None:
            record["session"] = session
        queue_wait_ms = round(float(queue_wait_ms or 0.0), 3)
        if queue_wait_ms:
            record["queue_wait_ms"] = queue_wait_ms
        return record

    def observe(self, query, result, origin: str = "embedded",
                session=None) -> None:
        """Record one finished query.

        The record is a view of ``result.summary()`` plus the query's
        definition, every :class:`QueryStats` counter, the resolved
        projection, the observed selectivity and the result hash.
        """
        summary = result.summary()
        record = self._base_record(origin, session, summary["queue_wait_ms"])
        record.update(
            strategy=summary["strategy"],
            rows=summary["rows"],
            wall_ms=round(summary["wall_ms"], 3),
            simulated_ms=round(summary["simulated_ms"], 3),
        )
        if "degraded" in summary:
            record["outcome"] = "degraded"
        if result.projection is not None:
            record["projection"] = result.projection
        if result.base_rows and not getattr(query, "aggregates", ()):
            record["selectivity"] = round(summary["rows"] / result.base_rows, 6)
        for key in ("partitions", "skipped_partitions"):
            if key in summary:
                record[key] = summary[key]
        if "degraded" not in summary:
            record["result_hash"] = result_hash(result.tuples)
        stats = result.stats
        self._enqueue(
            query, record, [getattr(stats, n) for n in _COUNTER_FIELDS]
        )

    def observe_error(
        self,
        query,
        exc: BaseException,
        wall_ms: float,
        queue_wait_ms=None,
        origin: str = "embedded",
        session=None,
    ) -> None:
        """Record an aborted query (error / cancelled / timeout outcome)."""
        from .errors import QueryCancelledError, QueryTimeoutError

        if isinstance(exc, QueryTimeoutError):
            outcome = "timeout"
        elif isinstance(exc, QueryCancelledError):
            outcome = "cancelled"
        else:
            outcome = "error"
        self._observe_failure(
            query, outcome, type(exc).__name__, str(exc), wall_ms,
            queue_wait_ms, origin, session,
        )

    def observe_rejected(self, query, reason: str,
                         origin: str = "served", session=None) -> None:
        """Record a query the admission queue (or drain) turned away.

        *query* is ``None`` for a request turned away before it was bound;
        that record carries the outcome and provenance only, so the workload
        summary counts it without inventing a template for it.
        """
        self._observe_failure(
            query, "rejected", "Rejected", reason, 0.0, 0.0, origin, session
        )

    def _observe_failure(self, query, outcome, error_type, message, wall_ms,
                         queue_wait_ms, origin, session) -> None:
        record = self._base_record(origin, session, queue_wait_ms)
        record.update(
            outcome=outcome,
            error={"type": error_type, "message": message[:200]},
            wall_ms=round(wall_ms, 3),
        )
        self._enqueue(query, record)

    def metrics(self) -> dict:
        """Collector payload for :class:`~repro.metrics.MetricsRegistry`:
        the directory writer's counts."""
        return self._writer.metrics()


def read_query_log(path: str | Path) -> list[dict]:
    """Read every record from a query log, tolerating a torn tail.

    *path* may be the log directory or a single segment file. Segments are
    read oldest-first; a torn (half-written or unterminated) final line of
    the **final** segment is skipped with a warning — the crash case the
    writer's line-by-line flush permits. A bad line anywhere else is real
    corruption and raises :class:`~repro.errors.LogLineError` naming the
    file and line. Unlike the writer's recovery, reading never mutates the
    log, so it is safe against a live database.
    """
    path = Path(path)
    if path.is_dir():
        segments = sorted(path.glob(_SEGMENT_GLOB))
        if not segments:
            raise CatalogError(f"{path}: no query-log segments found")
    elif path.is_file():
        segments = [path]
    else:
        raise CatalogError(f"{path}: no such query log")
    records: list[dict] = []
    for segment in segments:
        part, log = _read_segment(
            segment, torn_tail_ok=segment == segments[-1]
        )
        if log.torn is not None:
            logger.warning("%s: skipping torn final query-log line: %s",
                           segment, log.torn)
        records.extend(part)
    return records


def own_records(db, caller: str) -> list[dict]:
    """Every record of *db*'s own query log, flushed first: what a
    function taking ``records=None`` reads. Raises
    :class:`~repro.errors.CatalogError` naming *caller* when the database
    has no query log.
    """
    if db.qlog is None:
        raise CatalogError(
            f"{caller} needs records: the database has no query log "
            "(pass records= or open with query_log=True)"
        )
    db.qlog.flush()
    return read_query_log(db.qlog.directory)


def _read_segment(path: Path, torn_tail_ok: bool) -> tuple:
    """``(records, log)`` of one segment file, *log* as
    :func:`~repro.storage.jsonlines.read_json_lines` read it.

    Every record is expanded to its flat dict (:func:`_expand`); lines
    before the first header are version-1 records, already flat. A record
    naming a definition no earlier line defines raises
    :class:`~repro.errors.LogLineError`, as a corrupt line does.
    """
    log = read_json_lines(path, "query-log", torn_tail_ok)
    records = []
    counters, defs = None, {}  # the last header's names; definitions
    for number, (obj, line) in enumerate(zip(log.records, log.lines), 1):
        if "qlog" in obj:
            if obj["qlog"] != 2:
                raise LogLineError(
                    path, number, f"query-log line {number}: unknown line "
                    f"format version {obj['qlog']!r}"
                )
            counters = obj["counters"]
        elif "def" in obj:
            defs[obj["def"]] = line.decode()  # str parses faster than bytes
        elif counters is None and "q" not in obj:
            records.append(obj)
        else:
            try:
                records.append(_expand(obj, counters, defs))
            except ValueError as exc:
                raise LogLineError(
                    path, number, f"query-log line {number}: {exc}"
                ) from None
    return records, log


def _expand(line: dict, counters, defs: dict) -> dict:
    """A version-2 record line as the flat dict a version-1 line held:
    its definition inlined, ``counters`` keyed by the header's names, the
    defaults restored, in version-1 field order."""
    fields = {**_DEFAULTS, **line}
    q, values = fields.pop("q", None), fields.pop("c", None)
    encodings = {}
    if q is not None:
        if q not in defs:
            raise ValueError(f"record names definition {q!r}, "
                             "which no earlier line defines")
        static = json.loads(defs[q])  # parsed per record: dicts unshared
        del static["def"]
        encodings = static.pop("encodings", {})
        fields.update(static)
    if values is not None:
        if counters is None or len(values) != len(counters):
            raise ValueError("counter list does not match the header's")
        fields["counters"] = dict(zip(counters, values))
        fields["encodings"] = encodings
    out = {k: fields.pop(k) for k in _RECORD_FIELDS if k in fields}
    out.update(fields)
    return out


def record_plan(record: dict, catalog) -> tuple:
    """``(query, strategy, pinned projection)`` a logged record ran under.

    The logical query is rebuilt from the record's query dict (raising
    :class:`~repro.errors.ReproError` or ``ValueError`` when it cannot be),
    the strategy is the recorded resolved strategy name (``None`` when
    absent, which executes as ``auto``), and the pinned projection is the
    name of the projection a select resolved to — kept only while *catalog*
    still serves the query's table from it, ``None`` otherwise (joins,
    older records, or a design that has since dropped it), in which case
    the caller routes afresh. Replay and the workload summary's model
    residuals both read records through this one helper, so they price
    and re-execute the same physical plan.
    """
    from .serving.protocol import query_from_dict

    qdict = record["query"]
    query = query_from_dict(qdict)
    pinned = record.get("projection")
    if not (
        pinned
        and qdict.get("kind", "select") == "select"
        and pinned in catalog
        and pinned in {
            p.name for p in catalog.candidates(qdict.get("projection", ""))
        }
    ):
        pinned = None
    return query, record.get("strategy"), pinned
