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
  multiset shares (reads over pending deletes, update/delete matching,
  removal of pending rows, the tuple mover): subtract a multiset of full
  rows from a set of columns, duplicates cancelling one-for-one, with
  numpy primitives only.
* query-time merge — `Database.query` transparently folds pending changes
  into selection and aggregation results (see :func:`delta_select` /
  :func:`merge_aggregates`); joins require a merge first, as C-Store's
  early releases did.
* :meth:`Database.merge` — the tuple mover: rebuilds every projection of a
  table from (stored − deleted) + pending rows (re-sorting, re-encoding,
  re-indexing), publishes all the rebuilds in one atomic manifest commit,
  and only then truncates the WAL.

WAL format: one JSON line per record. A plain object is a single inserted
row (already schema-encoded), unchanged since the WAL was introduced;
``{"_op": "delete", ...}`` / ``{"_op": "update", ...}`` records carry the
full matched rows so recovery can replay them without consulting the read
store. Recovery tolerates a torn final line (that record was never
acknowledged) and honours the catalog's ``wal_applied`` marker: records a
committed merge already folded into the read store are discarded, which is
what makes a crash between manifest commit and WAL truncation harmless.

Durability: with ``durability="fsync"`` (the default) every append is
fsynced — one fsync per accepted batch, charged to the simulated disk
clock; ``"flush"`` restores the old buffered behaviour for callers that
prefer speed over crash-durability of the last few writes.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import CatalogError, ExecutionError
from .operators.aggregate import (
    AggSpec, _grouped_reduce, factorize_groups, fuse_keys,
)
from .operators.tuples import TupleSet
from .planner.logical import SelectQuery
from .storage.atomic import fsync_dir

#: Accepted values of the ``Database(durability=...)`` knob.
DURABILITY_MODES = ("fsync", "flush")


def _is_plain_row(record) -> bool:
    """A WAL line without ``_op`` is one inserted row (the original format)."""
    return not (isinstance(record, dict) and "_op" in record)


def _row_columns(rows: list[dict], names) -> dict[str, np.ndarray]:
    """Row dicts (WAL shape) as one value array per column of *names*."""
    return {col: np.array([row[col] for row in rows]) for col in names}


def _row_dicts(columns: dict[str, np.ndarray]) -> list[dict]:
    """Column arrays as JSON-ready row dicts (the WAL record shape)."""
    names = list(columns)
    return [
        dict(zip(names, values))
        for values in zip(*(columns[col].tolist() for col in names))
    ]


class _ColumnBuffer:
    """One table's buffered rows as per-column arrays.

    Appends land in per-column chunk lists; the first read after a write
    concatenates each list once, and the schema-typed arrays handed out
    are cached (read-only) until the next write. The first row buffered
    names the columns; every later row must carry them all.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self.n = 0
        self._chunks: dict[str, list[np.ndarray]] = {c: [] for c in self.names}
        self._typed: dict[tuple[str, str], np.ndarray] = {}

    def append(self, rows: list[dict]) -> None:
        for col, values in _row_columns(rows, self.names).items():
            self._chunks[col].append(values)
        self.n += len(rows)
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


class DeltaStore:
    """Writable store: pending changes per logical table, with a WAL.

    When constructed with a directory, every accepted change is appended to
    a per-table write-ahead log before it becomes visible, and pending
    changes are recovered from the logs on startup. The tuple mover
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
        """Replay per-table logs, tolerating a torn final line.

        A crash mid-append can leave the last JSON line incomplete; that
        tail is skipped with a warning (the change never returned, so it
        was never acknowledged) and every complete record is recovered. A
        malformed line anywhere *before* the tail is real corruption and
        still raises.

        If the catalog carries a ``wal_applied`` marker for a table, a
        committed merge already folded that many records into the read
        store but crashed before truncating the log: the applied prefix is
        discarded, the log rewritten to the remainder, and the marker
        cleared — after which a re-merge is a no-op instead of a
        double-apply.
        """
        markers = dict(self._catalog.wal_applied) if self._catalog else {}
        for path in sorted(self._wal_dir.glob("*.wal")):
            table = path.stem
            lines = []
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        lines.append(line)
            records = []
            torn = False
            for i, line in enumerate(lines):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    if i == len(lines) - 1:
                        torn = True
                        logging.getLogger(__name__).warning(
                            "%s: skipping torn final WAL line "
                            "(%d complete records recovered): %s",
                            path, len(records), exc,
                        )
                        break
                    raise CatalogError(
                        f"{path}: corrupt WAL line {i + 1} of {len(lines)} "
                        f"(not the torn-tail case): {exc}"
                    ) from exc
            applied = min(markers.pop(table, 0), len(records))
            live = records[applied:]
            if (torn or applied) and not live:
                # Nothing survives: the log is exactly the state a
                # completed merge would have left, so finish its unlink.
                path.unlink()
            elif torn or applied:
                # Drop the torn bytes (so later appends cannot land after
                # a malformed line) and the already-merged prefix, keeping
                # the surviving lines byte-identical.
                with open(path, "w", encoding="utf-8") as f:
                    for line in lines[applied:len(records)]:
                        f.write(line + "\n")
                    f.flush()
            if applied and self._catalog is not None:
                self._catalog.set_wal_applied(table, 0)
            try:
                # Consecutive plain rows (one insert batch or many) enter
                # the column buffers as one chunk, not one per line.
                for plain, group in groupby(live, key=_is_plain_row):
                    if plain:
                        self._extend(self._pending, table, list(group))
                    else:
                        for record in group:
                            self._apply_record(table, record)
            except CatalogError:
                raise
            except (LookupError, TypeError, ValueError) as exc:
                raise CatalogError(
                    f"{path}: malformed WAL record: {exc}"
                ) from exc
            if live:
                self._records[table] = len(live)
        # A marker for a table whose WAL is already gone means the crash
        # hit between the log unlink and the marker-clearing commit.
        if self._catalog is not None:
            for table in markers:
                self._catalog.set_wal_applied(table, 0)

    def _apply_record(self, table: str, record: dict) -> None:
        op = record["_op"]
        if op == "insert":
            self._extend(self._pending, table, record["rows"])
        elif op in ("delete", "update"):
            self._remove_pending(table, record.get("pending", []))
            self._extend(self._deleted, table, record.get("stored", []))
            if op == "update":
                self._extend(self._pending, table, record["rows"])
        else:
            raise CatalogError(f"unknown WAL record op {op!r}")

    @staticmethod
    def _extend(store: dict, table: str, rows: list[dict]) -> None:
        if not rows:
            return
        buffer = store.get(table)
        if buffer is None:
            buffer = store[table] = _ColumnBuffer(rows[0])
        buffer.append(rows)

    def _remove_pending(self, table: str, targets: list[dict]) -> None:
        buffer = self._pending.get(table)
        if not targets or buffer is None or not buffer.n:
            return
        # A target matching no pending row is already gone (idempotent
        # replay), so the kernel's unmatched count is deliberately unused.
        keep, _already_gone = multiset_subtract(
            {col: buffer.raw(col) for col in buffer.names},
            _row_columns(targets, buffer.names),
            buffer.names,
        )
        buffer.keep(keep)

    # ---------------------------------------------------------------- write

    def _append_records(self, table: str, records: list[dict]) -> None:
        path = self._wal_path(table)
        if path is not None:
            payload = "".join(json.dumps(r) + "\n" for r in records)
            if self._crash is not None:
                self._crash.hook("wal.append", path)
            with open(path, "a", encoding="utf-8") as f:
                if self._crash is not None and self._crash.check(
                    "wal.torn", str(path)
                ):
                    # The crash landed mid-append: an arbitrary prefix of
                    # the payload reaches disk, its final line torn. The
                    # change was never acknowledged; recovery drops the
                    # torn tail.
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
        self._records[table] = self._records.get(table, 0) + len(records)

    def insert(self, table: str, rows: list[dict], schemas: dict) -> int:
        """Validate and buffer *rows* (each a column->value dict).

        Args:
            table: logical table (anchor) name.
            rows: one dict per row; every table column must be present.
            schemas: column name -> :class:`~repro.dtypes.ColumnSchema`;
                values are encoded through the schema (dates, dictionary
                strings) exactly as the loader encodes bulk data.
        """
        expected = set(schemas)
        encoded_rows = []
        for row in rows:
            if set(row) != expected:
                missing = expected - set(row)
                extra = set(row) - expected
                raise CatalogError(
                    f"insert into {table!r} must provide exactly columns "
                    f"{sorted(expected)} (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)})"
                )
            encoded_rows.append(
                {col: schemas[col].encode_value(row[col]) for col in row}
            )
        self._append_records(table, encoded_rows)
        self._extend(self._pending, table, encoded_rows)
        return len(encoded_rows)

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
        stored_rows, pending_rows = _row_dicts(stored), _row_dicts(pending)
        matched = stored_rows + pending_rows
        if not matched:
            return 0  # nothing to log
        record = {"_op": op, "stored": stored_rows, "pending": pending_rows}
        if op == "update":
            record["rows"] = [dict(row, **assignments) for row in matched]
        self._append_records(table, [record])
        self._apply_record(table, record)
        return len(matched)

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

    def clear(self, table: str) -> None:
        """Discard *table*'s pending changes and WAL (compat alias)."""
        self.mark_applied(table)

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


def expand_avg(specs: tuple[AggSpec, ...]) -> tuple[list[AggSpec], dict]:
    """Rewrite AVG into mergeable partials (SUM + COUNT).

    Returns the internal spec list (deduplicated) and a mapping from each
    original output name to how it is reconstructed after merging.
    """
    internal: list[AggSpec] = []
    plan: dict[str, tuple] = {}

    def ensure(spec: AggSpec) -> str:
        for existing in internal:
            if existing == spec:
                return existing.output_name
        internal.append(spec)
        return spec.output_name

    for spec in specs:
        if spec.func == "avg":
            s = ensure(AggSpec("sum", spec.column))
            c = ensure(AggSpec("count", spec.column))
            plan[spec.output_name] = ("avg", s, c)
        else:
            name = ensure(spec)
            plan[spec.output_name] = ("direct", name)
    return internal, plan


def delta_select(
    query: SelectQuery, columns: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate the query's predicates over pending rows; return survivors."""
    if not columns:
        return {}
    n = len(next(iter(columns.values())))
    if query.disjuncts:
        mask = np.zeros(n, dtype=bool)
        for group in query.disjuncts:
            group_mask = np.ones(n, dtype=bool)
            for pred in group:
                group_mask &= pred.mask(columns[pred.column])
            mask |= group_mask
    else:
        mask = np.ones(n, dtype=bool)
        for pred in query.predicates:
            mask &= pred.mask(columns[pred.column])
    return {col: values[mask] for col, values in columns.items()}


def delta_aggregate(
    internal_specs: list[AggSpec],
    group_columns: list[str],
    survivors: dict[str, np.ndarray],
) -> TupleSet:
    """Aggregate pending survivors into the same shape as a stored result."""
    group_arrays = [survivors[c].astype(np.int64) for c in group_columns]
    value_columns = {
        spec.column: survivors[spec.column].astype(np.int64)
        for spec in internal_specs
        if spec.func != "count"
    }
    reduced = _grouped_reduce(
        group_arrays, group_columns, value_columns, internal_specs
    )
    return TupleSet.stitch(reduced)


def merge_aggregates(
    stored: TupleSet,
    pending: TupleSet,
    group_columns: list[str],
    internal_specs: list[AggSpec],
    plan: dict,
    select: list[str],
) -> TupleSet:
    """Combine stored-side and delta-side partial aggregates by group."""
    both = TupleSet.concat([stored, pending])
    keys, inverse = factorize_groups(
        [both.column(c) for c in group_columns]
    )
    k = len(keys[0]) if keys else 0
    merged: dict[str, np.ndarray] = dict(zip(group_columns, keys))
    for spec in internal_specs:
        partial = both.column(spec.output_name)
        if spec.func in ("sum", "count"):
            merged[spec.output_name] = np.bincount(
                inverse, weights=partial, minlength=k
            ).astype(np.int64)
        elif spec.func in ("min", "max"):
            fill = (
                np.iinfo(np.int64).max
                if spec.func == "min"
                else np.iinfo(np.int64).min
            )
            acc = np.full(k, fill, dtype=np.int64)
            ufunc = np.minimum if spec.func == "min" else np.maximum
            ufunc.at(acc, inverse, partial)
            merged[spec.output_name] = acc
        else:  # pragma: no cover - internal specs never contain avg
            raise ExecutionError(f"unmergeable partial {spec.func}")
    out: dict[str, np.ndarray] = dict(zip(group_columns, keys))
    for output, how in plan.items():
        if how[0] == "avg":
            sums = merged[how[1]]
            counts = merged[how[2]]
            out[output] = sums // np.maximum(counts, 1)
        else:
            out[output] = merged[how[1]]
    result = TupleSet.stitch(out)
    return result.select(select)


def internal_query(query: SelectQuery) -> tuple[SelectQuery, dict]:
    """The stored-side query to run when pending rows must be merged in.

    Strips ORDER BY / LIMIT (applied after the merge) and rewrites AVG into
    mergeable partials. Returns the rewritten query plus the reconstruction
    plan (empty for plain selections).
    """
    if not query.aggregates:
        return replace(query, order_by=(), limit=None), {}
    internal_specs, plan = expand_avg(query.aggregates)
    select = tuple(query.group_columns) + tuple(
        s.output_name for s in internal_specs
    )
    rewritten = replace(
        query,
        select=select,
        aggregates=tuple(internal_specs),
        order_by=(),
        limit=None,
        having=(),  # applied after the merge, over final aggregates
    )
    return rewritten, plan
