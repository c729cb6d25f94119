"""The workload flight recorder: a persistent, replayable query log.

Every query the engine finishes (or aborts) is appended as one JSON line to
a size-rotated segment file under ``<database root>/_qlog/``. The record
carries everything ROADMAP item 1's workload-adaptive advisor needs as
durable input — a normalized **query fingerprint** (template hash with
literals stripped), the resolved strategy and encoding overrides, observed
selectivity, partition scan/prune counts, cache and kernel counters, queue
wait / wall / simulated milliseconds, and the outcome (``ok`` / ``degraded``
/ ``error`` / ``cancelled`` / ``timeout`` / ``rejected``) — plus the full
logical query dict and a hash of the result tuples, which is what makes a
captured log *replayable*: ``repro replay --check`` re-executes each record
under its recorded strategy and asserts the re-computed hash matches bit
for bit (the sixth differential-style axis; see :mod:`repro.workload`).

Records are serialized and appended by a dedicated writer thread (the hot
path pays one sample test, one CRC over the result tuples, and one queue
hand-off); :meth:`QueryLog.flush` — and :meth:`QueryLog.close`, which
``Database.close`` calls — drains the backlog. Durability follows the WAL
pattern from :mod:`repro.delta`: the writer flushes line-by-line, a crash
can tear at most the final line of the active segment, and both the writer
(on re-open) and :func:`read_query_log`
tolerate exactly that torn tail — mid-file corruption anywhere else raises
:class:`~repro.errors.CatalogError` naming the file and line. Rotation
seals the active segment and opens the next numbered one; a monotonically
increasing ``seq`` stamped on every written record makes cross-segment
ordering checkable.

The recorder is **always on** by default (``Database(query_log=True)``)
and sampled (``QueryLog(directory, sample=...)``): the deterministic
counter-based sampler keeps exactly ``floor(n * sample)`` of the first *n*
finished queries, so two runs over the same workload log the same subset.
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
from functools import lru_cache
from hashlib import blake2b
from pathlib import Path

from .errors import CatalogError

logger = logging.getLogger(__name__)

#: Default byte budget per segment file before rotation.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: How long the writer thread lets a batch accumulate before draining.
_BATCH_DELAY_S = 0.02

_SEGMENT_GLOB = "qlog-*.jsonl"


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


@lru_cache(maxsize=512)
def _query_static(query) -> tuple:
    """The per-query record fields that don't vary across executions.

    Keyed by the query's **value** (logical queries are frozen dataclasses,
    so two structurally identical queries — e.g. rebuilt per request on the
    serving path — share one cache entry). The returned query dict is
    embedded in every record and must never be mutated.
    """
    from .serving.protocol import query_to_dict

    kind = "join" if type(query).__name__ == "JoinQuery" else "select"
    try:
        qdict = query_to_dict(query)
    except TypeError:
        qdict = None
    return (
        query_fingerprint(query),
        kind,
        query_template(query),
        tuple(_touched_columns(query)),
        qdict,
    )


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


class QueryLog:
    """Size-rotated, sampled JSONL query log (thread-safe append)."""

    def __init__(
        self,
        directory: str | Path,
        sample: float = 1.0,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        result_hashes: bool = True,
    ):
        """Open (or continue) the log under *directory*.

        Args:
            directory: segment directory, created if missing. Re-opening an
                existing log truncates a torn final line (the WAL recovery
                contract) and appends to the newest segment.
            sample: fraction of finished queries to record, in (0, 1].
                Deterministic: of the first *n* observed queries, exactly
                ``floor(n * sample)`` are written.
            max_segment_bytes: rotation threshold; a record that would push
                the active segment past it opens the next segment first.
            result_hashes: stamp each ``ok`` record with
                :func:`result_hash` so the log is checkably replayable.
        """
        if not (0.0 < sample <= 1.0):
            raise ValueError(f"sample must be in (0, 1], got {sample}")
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be positive")
        # Warm the query-serialization import now so the first observed
        # query doesn't pay the serving-package import inside the hot path.
        from .serving import protocol as _protocol  # noqa: F401

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sample = sample
        self.max_segment_bytes = max_segment_bytes
        self.result_hashes = result_hashes
        self._lock = threading.Lock()
        self._seen = 0        # observe() calls, for the sampler
        self._written = 0     # records accepted into the log (this open)
        self._dropped = 0     # records lost to write errors (this open)
        self._closed = False
        self._fh = None
        self._open_active()
        # Records are serialized and written by a dedicated thread so the
        # engine's per-query cost is one sample test, one result hash, and
        # one enqueue — what keeps the always-on recorder under the 5%
        # warm-overhead bar. FIFO hand-off preserves ``seq`` ordering;
        # :meth:`flush` / :meth:`close` drain the queue.
        self._queue: queue.Queue = queue.Queue()
        self._drain_now = threading.Event()
        self._writer = threading.Thread(
            target=self._writer_loop, name="qlog-writer", daemon=True
        )
        self._writer.start()
        # The writer is a daemon thread, so a process that exits without
        # Database.close() (one-shot CLI commands, scripts) would drop its
        # final batch; drain at interpreter shutdown instead.
        atexit.register(self.close)

    # ------------------------------------------------------------- lifecycle

    def _open_active(self) -> None:
        """Continue the newest segment, recovering a torn tail first."""
        segments = sorted(self.directory.glob(_SEGMENT_GLOB))
        if not segments:
            self._index = 1
            self._size = 0
            self._next_seq = 0
        else:
            active = segments[-1]
            self._index = _segment_index(active)
            last_seq = self._recover_segment(active)
            self._next_seq = last_seq + 1
            self._size = active.stat().st_size
        self._fh = open(
            self.directory / _segment_name(self._index),
            "a",
            encoding="utf-8",
        )

    @staticmethod
    def _recover_segment(path: Path) -> int:
        """Truncate a torn final line; return the last intact record's seq.

        Mirrors :meth:`repro.delta.DeltaStore._recover`: the only write is
        an append, so a crash can tear at most the final line. That tail is
        dropped (the query's caller never saw the record acknowledged); a
        malformed line anywhere earlier is real corruption and raises.
        """
        lines = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    lines.append(line)
        last_seq = -1
        torn = False
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    torn = True
                    logger.warning(
                        "%s: truncating torn final query-log line "
                        "(%d intact records kept): %s",
                        path, len(lines) - 1, exc,
                    )
                    break
                raise CatalogError(
                    f"{path}: corrupt query-log line {i + 1} of "
                    f"{len(lines)} (not the torn-tail case): {exc}"
                ) from exc
            last_seq = int(record.get("seq", last_seq + 1))
        if torn:
            with open(path, "w", encoding="utf-8") as f:
                for line in lines[:-1]:
                    f.write(line + "\n")
                f.flush()
        return last_seq

    def close(self) -> None:
        """Drain the writer and release the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)  # sentinel: writer exits after the backlog
        self._drain_now.set()
        self._writer.join()
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
        atexit.unregister(self.close)

    def flush(self) -> None:
        """Block until every record enqueued so far is on disk."""
        self._drain_now.set()
        try:
            self._queue.join()
        finally:
            if not self._closed:
                self._drain_now.clear()

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- writing

    def _sampled_in(self) -> bool:
        """Deterministic counter-based sampler (exact at every prefix)."""
        if self._closed:
            return False
        self._seen += 1
        return int(self._seen * self.sample) > int(
            (self._seen - 1) * self.sample
        )

    def _writer_loop(self) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                self._queue.task_done()
                return
            # Let a batch accumulate so the writer wakes — and contends
            # with query threads for the GIL — once per interval, not once
            # per record. flush()/close() skip the pause via _drain_now.
            self._drain_now.wait(_BATCH_DELAY_S)
            batch = [record]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            stop = False
            for rec in batch:
                if rec is None:
                    stop = True
                    continue
                try:
                    self._write(rec)
                except Exception:
                    logger.exception(
                        "query-log write failed; record dropped"
                    )
                    self._dropped += 1
            for _ in batch:
                self._queue.task_done()
            if stop:
                return

    def _write(self, record: dict) -> None:
        if self._fh is None:
            return
        record["seq"] = self._next_seq
        line = json.dumps(record, separators=(",", ":")) + "\n"
        payload = line.encode("utf-8")
        if self._size + len(payload) > self.max_segment_bytes and self._size:
            # Seal the full segment durably before rotating: once the next
            # segment exists, readers treat this one as immutable history.
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._index += 1
            self._size = 0
            self._fh = open(
                self.directory / _segment_name(self._index),
                "a",
                encoding="utf-8",
            )
        self._fh.write(line)
        self._fh.flush()
        self._size += len(payload)
        self._next_seq += 1

    def _enqueue(self, record: dict) -> None:
        self._written += 1
        self._queue.put(record)

    def _base_record(self, query, origin: str, session) -> dict:
        try:
            fingerprint, kind, template, columns, qdict = _query_static(query)
        except TypeError:  # unhashable query object: compute uncached
            fingerprint, kind, template, columns, qdict = (
                _query_static.__wrapped__(query)
            )
        record = {
            "ts": round(time.time(), 3),
            "fingerprint": fingerprint,
            "kind": kind,
            "template": template,
            "origin": origin,
            "columns": list(columns),
        }
        if session is not None:
            record["session"] = session
        record["query"] = qdict
        return record

    def observe(self, query, result, origin: str = "embedded",
                session=None) -> bool:
        """Record one finished query; returns whether it was sampled in."""
        with self._lock:
            if not self._sampled_in():
                return False
            record = self._base_record(query, origin, session)
            stats = result.stats
            record.update(
                strategy=result.strategy,
                encodings=dict(getattr(query, "encodings", ()) or ()),
                outcome="degraded" if result.degraded else "ok",
                rows=result.n_rows,
                wall_ms=round(result.wall_ms, 3),
                simulated_ms=round(result.simulated_ms, 3),
                queue_wait_ms=round(result.queue_wait_ms, 3),
                counters={
                    "block_reads": stats.block_reads,
                    "disk_seeks": stats.disk_seeks,
                    "buffer_hits": stats.buffer_hits,
                    "decode_hits": stats.decode_hits,
                    "decode_misses": stats.decode_misses,
                    "blocks_skipped": stats.blocks_skipped,
                    "compressed_scans": stats.compressed_scans,
                    "morphs": stats.morphs,
                    "io_retries": stats.io_retries,
                    "io_gave_up": stats.io_gave_up,
                    "values_scanned": stats.values_scanned,
                    "tuples_constructed": stats.tuples_constructed,
                    "positions_intersected": stats.positions_intersected,
                    "block_iterations": stats.block_iterations,
                    "column_iterations": stats.column_iterations,
                    "tuple_iterations": stats.tuple_iterations,
                    "function_calls": stats.function_calls,
                    "simulated_io_us": round(stats.simulated_io_us, 3),
                },
            )
            resolved = getattr(result, "projection", None)
            if resolved is not None:
                record["projection"] = resolved
            if result.base_rows and not getattr(query, "aggregates", ()):
                record["selectivity"] = round(
                    result.n_rows / result.base_rows, 6
                )
            extra = stats.extra
            if "partitions_total" in extra:
                record["partitions"] = {
                    "total": extra["partitions_total"],
                    "scanned": extra.get("partitions_scanned", 0),
                    "pruned": extra.get("partitions_pruned", 0),
                }
            if result.degraded:
                record["skipped_partitions"] = list(
                    result.skipped_partitions
                )
            if self.result_hashes and not result.degraded:
                record["result_hash"] = result_hash(result.tuples)
            self._enqueue(record)
            return True

    def observe_error(
        self,
        query,
        exc: BaseException,
        wall_ms: float,
        queue_wait_ms=None,
        origin: str = "embedded",
        session=None,
    ) -> bool:
        """Record an aborted query (error / cancelled / timeout outcome)."""
        from .errors import QueryCancelledError, QueryTimeoutError

        if isinstance(exc, QueryTimeoutError):
            outcome = "timeout"
        elif isinstance(exc, QueryCancelledError):
            outcome = "cancelled"
        else:
            outcome = "error"
        with self._lock:
            if not self._sampled_in():
                return False
            record = self._base_record(query, origin, session)
            record.update(
                outcome=outcome,
                error={
                    "type": type(exc).__name__,
                    "message": str(exc)[:200],
                },
                wall_ms=round(wall_ms, 3),
                queue_wait_ms=round(float(queue_wait_ms or 0.0), 3),
            )
            self._enqueue(record)
            return True

    def observe_rejected(self, query, reason: str,
                         origin: str = "served", session=None) -> bool:
        """Record a query the admission queue (or drain) turned away."""
        with self._lock:
            if not self._sampled_in():
                return False
            record = self._base_record(query, origin, session)
            record.update(
                outcome="rejected",
                error={"type": "Rejected", "message": reason[:200]},
                wall_ms=0.0,
                queue_wait_ms=0.0,
            )
            self._enqueue(record)
            return True

    # --------------------------------------------------------------- reading

    def segments(self) -> list[Path]:
        """Segment files, oldest first."""
        return sorted(self.directory.glob(_SEGMENT_GLOB))

    def metrics(self) -> dict:
        """Collector payload for :class:`~repro.metrics.MetricsRegistry`."""
        with self._lock:
            return {
                "seen": self._seen,
                "written": self._written,
                "dropped": self._dropped,
                "pending": self._queue.qsize(),
                "sample": self.sample,
                "segments": len(self.segments()),
                "active_segment_bytes": self._size,
            }


def read_query_log(path: str | Path) -> list[dict]:
    """Read every record from a query log, tolerating a torn tail.

    *path* may be the log directory or a single segment file. Segments are
    read oldest-first; a torn (half-written) final line of the **final**
    segment is skipped with a warning — the crash case the writer's
    line-by-line flush permits. A malformed line anywhere else is real
    corruption and raises :class:`~repro.errors.CatalogError` naming the
    file and line. Unlike the writer's recovery, reading never mutates the
    log, so it is safe against a live database.
    """
    path = Path(path)
    if path.is_dir():
        segments = sorted(path.glob(_SEGMENT_GLOB))
        if not segments and not list(path.glob("*.jsonl")):
            raise CatalogError(f"{path}: no query-log segments found")
    elif path.is_file():
        segments = [path]
    else:
        raise CatalogError(f"{path}: no such query log")
    records: list[dict] = []
    for si, segment in enumerate(segments):
        final_segment = si == len(segments) - 1
        lines = []
        with open(segment, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    lines.append(line)
        for i, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if final_segment and i == len(lines) - 1:
                    logger.warning(
                        "%s: skipping torn final query-log line: %s",
                        segment, exc,
                    )
                    break
                raise CatalogError(
                    f"{segment}: corrupt query-log line {i + 1} of "
                    f"{len(lines)} (not the torn-tail case): {exc}"
                ) from exc
    return records
