"""The writable store: inserts, updates, deletes, and the tuple mover.

C-Store pairs its read-optimized store (RS — the sorted, compressed
projections everything else in this library implements) with a small
writable store (WS) holding recent changes, plus a "tuple mover" that
periodically folds WS into RS. This module reproduces that architecture at
the scale this library needs:

* :class:`DeltaStore` — an in-memory WS keyed by logical table, columnar
  on both sides: pending *inserted* rows and the multiset of *deleted*
  stored rows (the delete-bitmap analogue for a store whose projections
  are rebuilt, not patched, by the mover) are per-table column arrays.
  Appends land in chunk lists that are concatenated once, on the next
  read, and cached until the next write. Updates are delete+insert in one
  atomic WAL record.
* :func:`multiset_subtract` — the one kernel every consumer of the delete
  multiset shares (reads over pending deletes, and through them
  update/delete matching; removal of pending rows; the tuple mover):
  subtract a multiset of full rows from a set of columns, duplicates
  cancelling one-for-one, with numpy primitives only.
* query-time merge — a select reads one :class:`PendingWrites` snapshot,
  which its plan folds in (``GHOST``, ``DELTA`` and ``COMBINE`` in
  :func:`repro.planner.nodes.plan_outline`, through :func:`delta_select`
  and the aggregation algebra of :mod:`repro.operators.aggregate`); joins
  require a merge first, as
  C-Store's early releases did.
* :meth:`Database.merge` — the tuple mover: rebuilds every projection of a
  table from (stored − deleted) + pending rows and publishes all the
  rebuilds in one atomic manifest commit, and only then truncates the WAL.
  The surviving stored rows are already in sort-key order, so only the
  pending rows are sorted and merged in (:func:`merge_sorted`); encoding,
  indexing and one histogram per column follow in
  :meth:`~repro.storage.projection.Projection.create`.

WAL format: one JSON line per write call, each side of it columnar. An
insert is ``{"_op": "insert", "columns": {col: [...]}}`` with the values
already schema-encoded and type-checked; a delete is ``{"_op": "delete",
"stored": {col: [...]}, "pending": {col: [...]}}`` — the full matched rows,
so recovery replays it without consulting the read store — and an update
is a delete record plus the ``"assignments"`` its re-inserted rows take.
Logs written before the columnar format still replay: a line without
``_op`` is one inserted row, and delete/update records may carry their
sides as row lists (an update then also lists its re-inserted ``"rows"``).
:func:`decode_wal_record` is the one reader of every shape, typed against
the table's schemas: recovery replays what it returns and the scrubber
(:mod:`repro.scrub`) reports what it refuses, so a record the table
cannot hold (an unknown or missing column, ragged sides, a value its
column type cannot represent) stops the open, naming file and line,
instead of failing every later read. Recovery never rewrites a log: it
cuts a torn final line off (that write was never acknowledged, so a torn
insert drops its whole batch; :mod:`repro.storage.jsonlines`) and skips
the records a committed merge already folded in (the catalog's
``wal_applied`` marker), which makes a crash between manifest commit and
WAL unlink harmless. A WAL whose table has no projection left has nothing
to be typed against and stays on disk, unreplayed.

Durability: with ``durability="fsync"`` (the default) every append is
fsynced — one fsync per accepted write call, charged to the simulated disk
clock; ``"flush"`` restores the old buffered behaviour for callers that
prefer speed over crash-durability of the last few writes.
"""

from __future__ import annotations

import json
import logging
import os
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import CatalogError, EncodingError, WalRecordError
from .operators.aggregate import fuse_keys
from .storage.atomic import fsync_dir
from .storage.jsonlines import read_json_lines, truncate_torn_tail

if TYPE_CHECKING:  # the planner imports this module
    from .planner.logical import SelectQuery

#: Accepted values of the ``Database(durability=...)`` knob.
DURABILITY_MODES = ("fsync", "flush")


def _is_plain_row(record) -> bool:
    """A WAL line without ``_op`` is one inserted row (the original format)."""
    return isinstance(record, dict) and "_op" not in record


class WalRecord(NamedTuple):
    """One decoded WAL record as typed column arrays: the rows it deletes
    from the read store (*stored*) and from the writable store
    (*pending*), and the rows it inserts (None for a delete). A side that
    holds no rows is ``{}``."""

    stored: dict[str, np.ndarray]
    pending: dict[str, np.ndarray]
    inserts: dict[str, np.ndarray] | None


#: Per op, the keys of which a record must carry at least one.
_REQUIRED_KEYS = {"insert": ("columns", "rows"), "delete": (),
                  "update": ("assignments", "rows")}


def decode_wal_record(record, schemas: dict) -> WalRecord:
    """Decode one parsed WAL line against its table's column *schemas*.

    The one reader of the record format, shared by recovery and the
    scrubber. Every shape ever written decodes: a plain row line, sides
    as column lists or as row lists, an update carrying its re-inserted
    ``rows`` or the ``assignments`` they take. Every side must name
    exactly the table's columns, and every value must fit its column's
    type (:meth:`~repro.dtypes.ColumnType.validate`) and, for a
    dictionary-coded column, its dictionary.

    Raises:
        WalRecordError: the record is something the table cannot hold.
    """
    if not isinstance(record, dict):
        raise WalRecordError(
            f"WAL record is a JSON {type(record).__name__}, not an object"
        )
    if _is_plain_row(record):
        return WalRecord({}, {}, _side("insert", "row", [record], schemas))
    op = record["_op"]
    if op not in _REQUIRED_KEYS:
        raise WalRecordError(f"unknown WAL record op {op!r}")
    required = _REQUIRED_KEYS[op]
    if required and not any(key in record for key in required):
        raise WalRecordError(f"{op} record carries none of {list(required)}")
    if op == "insert":
        key = "columns" if "columns" in record else "rows"
        return WalRecord({}, {}, _side(op, key, record[key], schemas))
    stored = _side(op, "stored", record.get("stored", []), schemas)
    pending = _side(op, "pending", record.get("pending", []), schemas)
    inserts = None
    if op == "update" and "rows" in record:
        inserts = _side(op, "rows", record["rows"], schemas)
    elif op == "update":
        assignments = record["assignments"]
        if not isinstance(assignments, dict):
            raise WalRecordError(
                "update record's 'assignments' is not an object"
            )
        _refuse_unknown(op, "assignments", assignments, schemas)
        inserts = _assigned(stored, pending, {
            col: _typed(op, "assignments", col, [value], schemas[col])[0]
            for col, value in assignments.items()
        })
    return WalRecord(stored, pending, inserts)


def _refuse_unknown(op: str, key: str, names, schemas: dict) -> None:
    unknown = sorted(set(names) - schemas.keys())
    if unknown:
        raise WalRecordError(
            f"{op} record names unknown column(s) {unknown} in {key!r}"
        )


def _side(op: str, key: str, side, schemas: dict) -> dict[str, np.ndarray]:
    """One side of a record, a column dict or (as logs written before the
    columnar format hold it) a list of row dicts, as typed arrays."""
    if isinstance(side, list):
        if not all(isinstance(row, dict) for row in side):
            raise WalRecordError(f"{op} record's {key!r} rows are not objects")
        side = {
            col: [row[col] for row in side if col in row]
            for col in set().union(*side)
        }
    if not isinstance(side, dict):
        raise WalRecordError(f"{op} record's {key!r} is not columns or rows")
    if not side:
        return {}
    _refuse_unknown(op, key, side, schemas)
    lengths = {
        len(values) if isinstance(values, list) else -1
        for values in side.values()
    }
    if -1 in lengths or len(lengths) > 1:
        raise WalRecordError(
            f"{op} record's {key!r} columns are not lists of one length"
        )
    missing = sorted(schemas.keys() - side.keys())
    if missing:
        raise WalRecordError(f"{op} record's {key!r} lacks column(s) {missing}")
    return {
        col: _typed(op, key, col, side[col], schema)
        for col, schema in schemas.items()
    }


def _typed(op: str, key: str, col: str, values: list, schema) -> np.ndarray:
    """*values* as one array of *schema*'s type, or a WalRecordError."""
    where = f"{op} record's {key!r} column {col!r}"
    try:
        arr = np.asarray(values)
    except ValueError:  # nested lists of uneven length
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "biuf":
        raise WalRecordError(f"{where} holds values that are not numbers")
    try:
        arr = schema.ctype.validate(arr)
    except EncodingError as exc:
        raise WalRecordError(f"{where}: {exc}") from None
    size = len(schema.dictionary)
    if size and len(arr) and not 0 <= arr.min() <= arr.max() < size:
        raise WalRecordError(
            f"{where} holds codes outside its dictionary of {size} values"
        )
    return arr


def _n_rows(columns: dict[str, np.ndarray]) -> int:
    return len(next(iter(columns.values()))) if columns else 0


def _wal_json(columns: dict[str, np.ndarray]) -> dict[str, list]:
    return {col: values.tolist() for col, values in columns.items()}


def _assigned(stored: dict, pending: dict, assignments: dict) -> dict:
    """An update's re-inserted rows: every matched row, stored ones first,
    with *assignments* (column -> encoded value) applied."""
    sides = [side for side in (stored, pending) if _n_rows(side)]
    if not sides:
        return {}
    n = sum(_n_rows(side) for side in sides)
    return {
        col: np.full(n, assignments[col]) if col in assignments
        else np.concatenate([side[col] for side in sides])
        for col in sides[0]
    }


class _ColumnBuffer:
    """One table's buffered rows as per-column arrays.

    Appends land in per-column chunk lists; the first read after a write
    concatenates each list once, and the schema-typed arrays handed out
    are cached (read-only) until the next write. The first batch buffered
    names the columns; every later batch must carry them all.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self.n = 0
        self._chunks: dict[str, list[np.ndarray]] = {c: [] for c in self.names}
        self._typed: dict[tuple[str, str], np.ndarray] = {}

    def append(self, columns: dict[str, np.ndarray]) -> None:
        for col in self.names:
            self._chunks[col].append(np.array(columns[col]))  # own copy
        self.n += len(columns[self.names[0]])
        self._typed.clear()

    def raw(self, col: str) -> np.ndarray:
        """All buffered values of *col*, in arrival order."""
        chunks = self._chunks[col]
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def typed(self, col: str, ctype) -> np.ndarray:
        """Column *col* as *ctype*'s dtype; raises if a value does not fit."""
        key = (col, ctype.name)
        values = self._typed.get(key)
        if values is None:
            values = ctype.validate(self.raw(col))
            values.flags.writeable = False
            self._typed[key] = values
        return values

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where *mask* is False."""
        for col in self.names:
            self._chunks[col] = [self.raw(col)[mask]]
        self.n = int(np.count_nonzero(mask))
        self._typed.clear()


class PendingWrites(NamedTuple):
    """One read's snapshot of a table's writable store: the pending
    inserted rows and the delete multiset, as :meth:`DeltaStore.columns` /
    :meth:`DeltaStore.deleted_columns` return them."""

    inserts: dict[str, np.ndarray]
    deletes: dict[str, np.ndarray]

    @property
    def n_inserts(self) -> int:
        return _n_rows(self.inserts)

    @property
    def n_deletes(self) -> int:
        return _n_rows(self.deletes)


class DeltaStore:
    """Writable store: pending changes per logical table, with a WAL.

    When constructed with a directory (and the catalog whose tables the
    logs belong to), every accepted change is appended to a per-table
    write-ahead log before it becomes visible, and pending changes are
    recovered from the logs on startup. The tuple mover
    truncates a table's log only after the catalog has committed the merged
    projections (see :meth:`mark_applied`).
    """

    def __init__(self, wal_directory=None, catalog=None, disk=None,
                 durability: str = "fsync", crash=None):
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        #: Pending inserted rows per table.
        self._pending: dict[str, _ColumnBuffer] = {}
        #: Multiset of stored rows deleted ahead of the next merge, as full
        #: encoded rows (captured at delete time so every projection —
        #: whatever column subset it carries — can subtract them).
        self._deleted: dict[str, _ColumnBuffer] = {}
        #: WAL record-line count per table (the merge marker's unit).
        self._records: dict[str, int] = {}
        self._catalog = catalog
        self._disk = disk
        self._durability = durability
        self._crash = crash
        self._wal_dir = Path(wal_directory) if wal_directory else None
        if self._wal_dir is not None:
            self._wal_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    def _wal_path(self, table: str):
        return self._wal_dir / f"{table}.wal" if self._wal_dir else None

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Replay per-table logs; recovery never rewrites one.

        Each log is read by :func:`~repro.storage.jsonlines.read_json_lines`:
        a torn final line (never acknowledged) is cut off, any other bad
        line raises naming file and line, and so does a live record
        :func:`decode_wal_record` refuses, before the log is touched. A
        table with no projection left keeps its records on disk,
        unreplayed, with a warning.

        A ``wal_applied`` marker counts the records a committed merge
        already folded in before it crashed short of the unlink. Recovery
        skips them and keeps file and marker: :meth:`wal_records` counts
        every intact line, so the next merge's marker covers the prefix.
        Only a fully applied log is finished, by :meth:`mark_applied`.
        """
        markers = dict(self._catalog.wal_applied)
        for path in sorted(self._wal_dir.glob("*.wal")):
            table = path.stem
            log = read_json_lines(path, "WAL")
            applied = min(markers.pop(table, 0), len(log.records))
            live = log.records[applied:]
            decoded = self._decode(log, applied)
            if applied and not live:
                self.mark_applied(table)
                continue
            if log.torn is not None:
                truncate_torn_tail(log, crash=self._crash, disk=self._disk)
            # Consecutive plain rows (one insert batch or many, as logs
            # written before the columnar format hold them) enter the
            # column buffers as one chunk, not one per line.
            for plain, group in groupby(
                zip(live, decoded), key=lambda pair: _is_plain_row(pair[0])
            ):
                group = [record for _raw, record in group]
                if plain:
                    self._extend(self._pending, table, {
                        col: np.concatenate([r.inserts[col] for r in group])
                        for col in group[0].inserts
                    })
                else:
                    for record in group:
                        self._apply(table, *record)
            if log.records:
                self._records[table] = len(log.records)
        # A marker for a table whose WAL is already gone means the crash
        # hit between the log unlink and the marker-clearing commit.
        for table in markers:
            self._catalog.set_wal_applied(table, 0)

    def _decode(self, log, applied: int) -> list[WalRecord]:
        """*log*'s records past *applied* decoded against its table's
        schemas, or none when no projection of the table is left."""
        path, live = log.path, log.records[applied:]
        n_lines = len(log.records) + (log.torn is not None)
        table = path.stem
        if not self._catalog.has(table):
            if live:
                logging.getLogger(__name__).warning(
                    "%s: no projection of table %r is in the catalog; its "
                    "%d WAL records stay on disk, not replayed",
                    path, table, len(live),
                )
            return []
        schemas = self._catalog.table_schemas(table)
        decoded = []
        for line, record in enumerate(live, start=applied + 1):
            try:
                decoded.append(decode_wal_record(record, schemas))
            except WalRecordError as exc:
                raise WalRecordError(
                    f"{path}: WAL record at line {line} of {n_lines}: {exc}"
                ) from None
        return decoded

    def _apply(self, table: str, stored: dict, pending: dict,
               inserted: dict | None) -> None:
        """One decoded record: a delete (``inserted`` None), an update, or
        an insert (both delete sides empty), as column arrays."""
        self._remove_pending(table, pending)
        self._extend(self._deleted, table, stored)
        if inserted is not None:
            self._extend(self._pending, table, inserted)

    @staticmethod
    def _extend(store: dict, table: str, columns: dict) -> None:
        if not _n_rows(columns):
            return
        buffer = store.get(table)
        if buffer is None:
            buffer = store[table] = _ColumnBuffer(columns)
        buffer.append(columns)

    def _remove_pending(self, table: str, targets: dict) -> None:
        buffer = self._pending.get(table)
        if not _n_rows(targets) or buffer is None or not buffer.n:
            return
        # A target matching no pending row is already gone (idempotent
        # replay), so the kernel's unmatched count is deliberately unused.
        keep, _already_gone = multiset_subtract(
            {col: buffer.raw(col) for col in buffer.names},
            targets,
            buffer.names,
        )
        buffer.keep(keep)

    # ---------------------------------------------------------------- write

    def _append(self, table: str, record: dict) -> None:
        """Log one write call as one WAL line (fsynced per durability)."""
        path = self._wal_path(table)
        if path is not None:
            payload = json.dumps(record, separators=(",", ":")) + "\n"
            if self._crash is not None:
                self._crash.hook("wal.append", path)
            with open(path, "a", encoding="utf-8") as f:
                if self._crash is not None and self._crash.check(
                    "wal.torn", str(path)
                ):
                    # The crash landed mid-append: a prefix of the line
                    # reaches disk, torn. The write was never acknowledged;
                    # recovery drops the torn tail, whole batch and all.
                    f.write(payload[: max(1, len(payload) // 2)])
                    f.flush()
                    os.fsync(f.fileno())
                    raise self._crash.crash("wal.torn", str(path))
                f.write(payload)
                f.flush()
                if self._durability == "fsync":
                    if self._crash is not None:
                        self._crash.hook("wal.fsync", path)
                    os.fsync(f.fileno())
                    if self._disk is not None:
                        self._disk.charge_fsync()
        self._records[table] = self._records.get(table, 0) + 1

    def insert(self, table: str, rows: list[dict], schemas: dict) -> int:
        """Validate, log and buffer *rows* (each a column->value dict).

        The batch is encoded and type-checked column by column before
        anything is logged, so a value that does not fit its column raises
        :class:`~repro.errors.EncodingError` and leaves no trace; an empty
        batch logs nothing. Returns the number of rows inserted.

        Args:
            table: logical table (anchor) name.
            rows: one dict per row; every table column must be present.
            schemas: column name -> :class:`~repro.dtypes.ColumnSchema`;
                values are encoded through the schema (dates, dictionary
                strings) exactly as the loader encodes bulk data.
        """
        if not rows:
            return 0
        try:
            values = {col: [row[col] for row in rows] for col in schemas}
        except KeyError:
            values = None
        # Every table column present and no other: exactly len(schemas) keys.
        if values is None or any(len(row) != len(schemas) for row in rows):
            expected = schemas.keys()
            row = next(row for row in rows if row.keys() != expected)
            raise CatalogError(
                f"insert into {table!r} must provide exactly columns "
                f"{sorted(expected)} (missing {sorted(expected - row.keys())}"
                f", unexpected {sorted(row.keys() - expected)})"
            ) from None
        columns = {
            col: schema.encode_column(values[col])
            for col, schema in schemas.items()
        }
        self._append(table, {"_op": "insert", "columns": _wal_json(columns)})
        self._extend(self._pending, table, columns)
        return len(rows)

    def delete(self, table: str, stored: dict[str, np.ndarray],
               pending: dict[str, np.ndarray]) -> int:
        """Log and apply one delete: *stored* (full encoded rows matched in
        the read store, subtracted at query time and dropped at merge
        time) plus *pending* (matches in this store, removed immediately),
        both as column arrays. One WAL record, so the delete is atomic."""
        return self._log_and_apply(table, "delete", stored, pending)

    def update(self, table: str, stored: dict[str, np.ndarray],
               pending: dict[str, np.ndarray], assignments: dict) -> int:
        """Log and apply one update as delete+insert in a single record:
        every matched row re-enters the store with the (already encoded)
        *assignments* applied."""
        return self._log_and_apply(table, "update", stored, pending,
                                   assignments)

    def _log_and_apply(self, table, op, stored, pending, assignments=None):
        matched = _n_rows(stored) + _n_rows(pending)
        if not matched:
            return 0  # nothing to log
        record = {"_op": op, "stored": _wal_json(stored),
                  "pending": _wal_json(pending)}
        inserted = None
        if op == "update":
            record["assignments"] = assignments
            inserted = _assigned(stored, pending, assignments)
        self._append(table, record)
        self._apply(table, stored, pending, inserted)
        return matched

    # ----------------------------------------------------------------- read

    def count(self, table: str) -> int:
        buffer = self._pending.get(table)
        return buffer.n if buffer is not None else 0

    def deleted_count(self, table: str) -> int:
        """How many stored rows are pending deletion for *table*."""
        buffer = self._deleted.get(table)
        return buffer.n if buffer is not None else 0

    def dirty(self, table: str) -> bool:
        """True when *table* has any pending change (inserts or deletes)."""
        return bool(self.count(table) or self.deleted_count(table))

    def wal_records(self, table: str) -> int:
        """WAL record lines currently logged for *table* (the merge
        marker's unit — see :meth:`Catalog.set_wal_applied`)."""
        return self._records.get(table, 0)

    def columns(self, table: str, schemas: dict) -> dict[str, np.ndarray]:
        """Pending inserted rows as column arrays (typed per schema).

        The arrays are the store's cache — read-only, shared between
        callers, valid until the next write to *table*."""
        return self._typed_columns(self._pending.get(table), schemas)

    def deleted_columns(
        self, table: str, schemas: dict
    ) -> dict[str, np.ndarray]:
        """Pending deleted rows as column arrays (typed per schema); same
        sharing contract as :meth:`columns`."""
        return self._typed_columns(self._deleted.get(table), schemas)

    def snapshot(self, table: str, schemas: dict) -> PendingWrites:
        """Both sides of *table*'s pending changes at once, for one read."""
        return PendingWrites(
            self.columns(table, schemas), self.deleted_columns(table, schemas)
        )

    @staticmethod
    def _typed_columns(buffer, schemas: dict) -> dict[str, np.ndarray]:
        if buffer is None or not buffer.n:
            return {
                col: np.empty(0, dtype=schema.ctype.numpy_dtype)
                for col, schema in schemas.items()
            }
        return {
            col: buffer.typed(col, schema.ctype)
            for col, schema in schemas.items()
        }

    # ------------------------------------------------------------ lifecycle

    def mark_applied(self, table: str) -> None:
        """Truncate *table*'s WAL after the catalog committed its merge.

        Called strictly after :meth:`Catalog.commit_merge`: the manifest
        already both publishes the merged projections and records how many
        WAL records they absorbed, so whether the crash hits before the
        unlink, between unlink and marker clear, or never, recovery
        converges on the same state.
        """
        path = self._wal_path(table)
        if path is not None and path.exists():
            if self._crash is not None:
                self._crash.hook("wal.truncate", path)
            path.unlink()
            fsync_dir(self._wal_dir, crash=self._crash, disk=self._disk)
        self._pending.pop(table, None)
        self._deleted.pop(table, None)
        self._records.pop(table, None)
        if self._catalog is not None:
            self._catalog.set_wal_applied(table, 0)

    def tables(self) -> list[str]:
        return sorted(
            t for t in self._pending.keys() | self._deleted.keys()
            if self.dirty(t)
        )


def multiset_subtract(
    columns: dict[str, np.ndarray],
    ghosts: dict[str, np.ndarray],
    names,
) -> tuple[np.ndarray, int]:
    """Subtract the row multiset *ghosts* from the rows of *columns*.

    Rows are compared on *names* only (a projection or a query result may
    carry a subset of the table's columns, the ghosts the full rows). Each
    ghost cancels at most one equal row, duplicates cancelling one-for-one,
    and within a run of equal rows the *first* ones are dropped. Returns
    ``(keep_mask, n_unmatched)``: which rows survive, and how many ghosts
    found no row to cancel.

    Built from columnar primitives only: rows become int64 keys
    (:func:`_row_keys`), the ghosts' distinct keys are searched for every
    row's key, and only the rows that hit one — the candidates — are
    sorted to rank them within their run.
    """
    names = list(names)
    stored = [np.asarray(columns[c]) for c in names]
    ghost = [np.asarray(ghosts[c]) for c in names]
    n = len(stored[0]) if names else 0
    g = len(ghost[0]) if names else 0
    keep = np.ones(n, dtype=bool)
    if n == 0 or g == 0:
        return keep, g
    row_keys, ghost_keys = _row_keys(stored, ghost)
    distinct, counts = np.unique(ghost_keys, return_counts=True)
    slot = np.searchsorted(distinct, row_keys)
    slot[slot == len(distinct)] = 0
    candidates = np.flatnonzero(distinct[slot] == row_keys)
    slot = slot[candidates]
    order = np.argsort(slot, kind="stable")  # by ghost key, row order within
    slot = slot[order]
    run_start = np.searchsorted(slot, np.arange(len(distinct)))
    rank = np.arange(len(slot)) - run_start[slot]
    dropped = candidates[order[rank < counts[slot]]]
    keep[dropped] = False
    return keep, g - len(dropped)


def merge_sorted(
    stored: dict[str, np.ndarray],
    pending: dict[str, np.ndarray],
    sort_keys,
) -> dict[str, np.ndarray]:
    """*stored* ++ *pending* in the order a stable ``np.lexsort`` on
    *sort_keys* gives the concatenation — the tuple mover's kernel.

    *stored* holds a projection's surviving rows, already in key order, so
    only the pending rows are stable-sorted; one ``searchsorted`` with
    ``side="right"`` over the fused key (:func:`fuse_keys`) then places
    each after the stored rows it ties with, pending ties keeping arrival
    order. A key that does not fuse, or stored rows that turn out not to be
    in key order, take the full lexsort.
    """
    sort_keys = list(sort_keys)
    sides = [side for side in (stored, pending) if _n_rows(side)]
    fused = None
    if sort_keys and sides:
        fused = fuse_keys(*[[side[k] for k in sort_keys] for side in sides])
    if fused is not None:
        keys = fused[0]
        stored_key = keys[0] if _n_rows(stored) else keys[0][:0]
        pending_key = keys[-1] if _n_rows(pending) else keys[-1][:0]
        if np.all(stored_key[1:] >= stored_key[:-1]):
            order = np.argsort(pending_key, kind="stable")
            slots = np.searchsorted(
                stored_key, pending_key[order], side="right"
            ) + np.arange(len(order))
            from_stored = np.ones(len(stored_key) + len(order), dtype=bool)
            from_stored[slots] = False
            merged = {}
            for col in stored:
                out = np.empty(
                    len(from_stored),
                    dtype=np.result_type(stored[col], pending[col]),
                )
                out[from_stored] = stored[col]
                out[slots] = pending[col][order]
                merged[col] = out
            return merged
    data = {col: np.concatenate((stored[col], pending[col])) for col in stored}
    if not sort_keys:
        return data
    order = np.lexsort([data[k] for k in reversed(sort_keys)])
    return {col: values[order] for col, values in data.items()}


def _row_keys(
    stored: list[np.ndarray], ghost: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """int64 keys for both sides, equal exactly where whole rows are equal.

    Integer columns whose combined value ranges fit are fused into one
    mixed-radix key (:func:`~repro.operators.aggregate.fuse_keys`).
    Anything else takes the exact fallback: only rows whose every value
    occurs in the matching ghost column can equal a ghost, so those
    candidates and the ghosts are lexsorted together and numbered by run;
    every other row gets -1, which no ghost carries.
    """
    fused = fuse_keys(stored, ghost)
    if fused is not None:
        (row_keys, ghost_keys), _lows, _spans = fused
        return row_keys, ghost_keys
    possible = np.ones(len(stored[0]), dtype=bool)
    for s, gh in zip(stored, ghost):
        possible &= np.isin(s, gh)
    candidates = np.flatnonzero(possible)
    both = [np.concatenate((s[candidates], gh)) for s, gh in zip(stored, ghost)]
    order = np.lexsort(both[::-1])
    boundary = np.zeros(len(order), dtype=bool)
    boundary[0] = True
    for col in both:
        ordered = col[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    run = np.empty(len(order), dtype=np.int64)
    run[order] = np.cumsum(boundary) - 1
    row_keys = np.full(len(stored[0]), -1, dtype=np.int64)
    row_keys[candidates] = run[: len(candidates)]
    return row_keys, run[len(candidates):]


def delta_select(
    query: SelectQuery, columns: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate the query's predicates over pending rows; return survivors."""
    if not columns:
        return {}
    n = len(next(iter(columns.values())))
    mask = np.zeros(n, dtype=bool)
    for group in query.disjuncts or (query.predicates,):
        group_mask = np.ones(n, dtype=bool)
        for pred in group:
            group_mask &= pred.mask(columns[pred.column])
        mask |= group_mask
    return {col: values[mask] for col, values in columns.items()}
