"""Exception hierarchy for the repro column store.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses separate storage-format problems from query
construction problems from executor-state problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """A column file, block, or catalog is malformed or unreadable."""


class CorruptBlockError(StorageError):
    """A block failed checksum or structural validation on read.

    The message always names the column file path and the block index, so
    operators (and the scrubber) can locate the damaged bytes without a
    stack trace.
    """


class TransientIOError(StorageError):
    """A block read failed in a way a retry may fix (simulated flaky I/O).

    Raised by the fault-injection layer (:mod:`repro.faults`) to model the
    transient device errors a production column store retries through. Like
    :class:`CorruptBlockError`, the message always names the column file
    path and block index.
    """


class QuarantinedPartitionError(StorageError):
    """A partition was quarantined after exhausting its error budget.

    Recorded (not raised) when ``Database(on_error="degrade")`` takes a
    partition out of service for the rest of the session; queries keep
    completing over the surviving partitions with ``degraded=True``. The
    recorded entries are readable via ``Database.quarantine.entries()``.
    """

    def __init__(self, projection: str, partition: str, cause: str):
        super().__init__(
            f"partition {partition!r} of projection {projection!r} is "
            f"quarantined: {cause}"
        )
        self.projection = projection
        self.partition = partition
        self.cause = cause


class EncodingError(StorageError):
    """Values cannot be encoded/decoded with the requested encoding."""


class CatalogError(StorageError):
    """A projection or column is missing from, or duplicated in, the catalog."""


class MetadataError(CatalogError):
    """A metadata file the store cannot trust: the catalog manifest, a
    ``projection.json`` or a column-file header is unreadable, lacks a
    field, or holds one its data contradicts.

    Raised by the one decoder of each format (the catalog open,
    :meth:`~repro.storage.projection.Projection.open`,
    :meth:`~repro.storage.column_file.ColumnFile.open`); the message names
    the file and the field (:class:`~repro.storage.metadata.MetadataReader`),
    and the scrubber reports it verbatim."""


class LogLineError(CatalogError):
    """A bad line of a WAL or query-log segment, other than a torn final
    one (:mod:`repro.storage.jsonlines`). The message names the file and
    the line, which ``path`` and ``line`` also carry; the scrubber reports
    it verbatim."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
        self.line = line


class WalRecordError(CatalogError):
    """A write-ahead-log record its table cannot hold: an unknown op, a
    missing key, a side naming an unknown column or lacking a table
    column, ragged columns, or a value its column type (or, for a
    dictionary-coded column, its dictionary) cannot represent.

    Raised by :func:`repro.delta.decode_wal_record`; recovery re-raises it
    naming the WAL file and line, the scrubber reports its message."""


class PlanError(ReproError):
    """A logical query cannot be turned into a physical plan."""


class UnsupportedOperationError(PlanError):
    """The requested operator/encoding combination is not supported.

    The canonical example from the paper: positional filtering (DS3) on a
    bit-vector encoded column is impossible because one cannot know a priori
    which bit-string holds a given position's value.
    """


class ExecutionError(ReproError):
    """An operator tree entered an inconsistent state during execution."""


class QueryCancelledError(ReproError):
    """A query was cooperatively cancelled before it completed.

    Raised from :meth:`repro.cancel.CancelToken.check`, which the execution
    context consults on every block access — so cancellation lands at a
    block boundary, never mid-operator. When the query was traced, the
    truncated-but-valid span tree is attached as ``exc.spans`` (the same
    contract as storage failures): either a complete result is returned or
    the whole execution is abandoned. There is no partial result.
    """


class QueryTimeoutError(QueryCancelledError):
    """A query exceeded its deadline (per-query ``timeout_ms``).

    The deadline covers the query's whole life, including any time spent in
    a serving-layer admission queue — a query that waited out its budget is
    cancelled before execution even starts.
    """


class SQLError(ReproError):
    """The SQL front-end could not tokenize, parse, or bind a statement."""
