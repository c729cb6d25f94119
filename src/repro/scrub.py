"""Offline storage scrubber: checksum + structural verification.

Production column stores do not wait for a query to trip over bit rot — a
background *scrubber* walks the stored bytes and reports damage so operators
can repair (re-replicate, re-merge, restore) before the data is needed.
``Database.scrub()`` / ``repro scrub`` is that path here: it walks every
catalog projection, partition, column file and block **directly on disk**
(bypassing the buffer pool and any fault injector — the scrubber verifies
what is actually stored, not what a cache or schedule says), checking

* the column-file header opens and parses (magic, JSON, schema names);
* structural invariants of the descriptor table: block positions start at
  zero, chain contiguously, and sum to the header's value count; payload
  extents lie inside the physical file;
* every block payload's length and CRC32 checksum;
* optionally (``deep=True``) that each payload *decodes* to exactly the
  descriptor's value count and respects its min/max bounds — catching
  damage that checksums alone cannot see (e.g. a stale-but-valid block);
* partitioned parents: every child opens, and child row counts sum to the
  parent's;
* the write path: the manifest, staging debris, ``wal_applied`` markers,
  and every WAL line, each record decoded by the reader recovery uses
  (:func:`repro.delta.decode_wal_record`), so scrub reports exactly the
  records the next open would refuse, at their line, with its message.

The result is a machine-readable :class:`ScrubReport` naming each corrupt
file and block, so the repair-detection path is independent of query
traffic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .delta import decode_wal_record
from .errors import ReproError, StorageError, WalRecordError
from .storage.column_file import ColumnFile


@dataclass(frozen=True)
class ScrubIssue:
    """One verified defect: where it is and what is wrong."""

    projection: str
    file: str
    error: str
    partition: str | None = None
    column: str | None = None
    encoding: str | None = None
    block: int | None = None
    line: int | None = None

    def to_json(self) -> dict:
        return {
            "projection": self.projection,
            "partition": self.partition,
            "column": self.column,
            "encoding": self.encoding,
            "file": self.file,
            "block": self.block,
            "line": self.line,
            "error": self.error,
        }


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over a catalog."""

    projections_scanned: int = 0
    files_scanned: int = 0
    blocks_scanned: int = 0
    issues: list[ScrubIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "projections_scanned": self.projections_scanned,
            "files_scanned": self.files_scanned,
            "blocks_scanned": self.blocks_scanned,
            "issues": [issue.to_json() for issue in self.issues],
        }


def scrub_catalog(catalog, deep: bool = False) -> ScrubReport:
    """Verify every projection/partition/column file/block under *catalog*.

    Never raises on damaged data — every defect becomes a
    :class:`ScrubIssue` and the walk continues, so one corrupt block cannot
    hide another.
    """
    report = ScrubReport()
    for name in catalog.names():
        projection = catalog.get(name)
        report.projections_scanned += 1
        if projection.is_partitioned:
            _scrub_partitioned(projection, report, deep)
        else:
            _scrub_columns(projection, report, deep, partition=None)
    _scrub_write_path(catalog, report)
    return report


#: Synthetic projection name for issues in the catalog's shared write-path
#: files (manifest, staging debris) rather than any one projection.
CATALOG_SCOPE = "(catalog)"


def _scrub_write_path(catalog, report: ScrubReport) -> None:
    """Verify the write path: manifest, staging debris, and WAL segments.

    The manifest must parse and every projection it names must exist;
    ``tmp-*`` staging directories (and a staged manifest copy) are
    uncommitted debris a crash left behind; each per-table WAL must be
    line-by-line valid JSON — only its *final* line may be torn (that
    case is recoverable and reported as such) — and every record must
    decode against its table's schemas through
    :func:`~repro.delta.decode_wal_record`, the reader recovery uses, so
    a record scrub passes is one the next open replays. A WAL whose table
    has no projection left is reported once: recovery keeps it unreplayed.
    A ``wal_applied`` marker exceeding the WAL's record count would make
    recovery discard the whole log, so it is flagged too.
    """
    root = getattr(catalog, "root", None)
    if root is None:  # what-if views have no write path
        return
    _scrub_manifest(catalog, report)
    for path in sorted(root.glob("tmp-*")) + sorted(
        root.glob("manifest.json.tmp")
    ):
        report.issues.append(
            ScrubIssue(
                projection=CATALOG_SCOPE,
                file=str(path),
                error=(
                    "orphaned staging path left by an interrupted commit "
                    "(reopening the database garbage-collects it)"
                ),
            )
        )
    wal_dir = root / "_wal"
    if wal_dir.is_dir():
        for path in sorted(wal_dir.glob("*.wal")):
            _scrub_wal(catalog, path, report)


def _scrub_manifest(catalog, report: ScrubReport) -> None:
    import json

    from .storage.projection import META_FILE

    path = catalog.root / "manifest.json"
    report.files_scanned += 1
    if not path.exists():
        report.issues.append(
            ScrubIssue(
                projection=CATALOG_SCOPE,
                file=str(path),
                error="catalog manifest missing",
            )
        )
        return
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        report.issues.append(
            ScrubIssue(
                projection=CATALOG_SCOPE,
                file=str(path),
                error=f"corrupt catalog manifest: {exc}",
            )
        )
        return
    if not isinstance(data, dict) or not isinstance(
        data.get("projections"), dict
    ):
        report.issues.append(
            ScrubIssue(
                projection=CATALOG_SCOPE,
                file=str(path),
                error="corrupt catalog manifest: missing projections map",
            )
        )
        return
    if not isinstance(data.get("generation"), int) or data["generation"] < 0:
        report.issues.append(
            ScrubIssue(
                projection=CATALOG_SCOPE,
                file=str(path),
                error=(
                    "corrupt catalog manifest: generation is "
                    f"{data.get('generation')!r}"
                ),
            )
        )
    for name, dirname in sorted(data["projections"].items()):
        meta = catalog.root / str(dirname) / META_FILE
        if not meta.exists():
            report.issues.append(
                ScrubIssue(
                    projection=name,
                    file=str(meta),
                    error=(
                        f"manifest names projection {name!r} at "
                        f"{dirname!r} but its metadata is missing"
                    ),
                )
            )
    for table, count in sorted(data.get("wal_applied", {}).items()):
        wal = catalog.root / "_wal" / f"{table}.wal"
        if not isinstance(count, int) or count < 0:
            report.issues.append(
                ScrubIssue(
                    projection=table,
                    file=str(path),
                    error=(
                        f"corrupt wal_applied marker for {table!r}: "
                        f"{count!r}"
                    ),
                )
            )
        elif count and not wal.exists():
            # Legal mid-recovery state (crash between WAL unlink and the
            # marker-clearing commit) — reported so operators see it, and
            # self-healing on the next open.
            report.issues.append(
                ScrubIssue(
                    projection=table,
                    file=str(wal),
                    error=(
                        f"wal_applied marker is {count} but the WAL is "
                        "gone (recoverable: the next open clears it)"
                    ),
                )
            )


def _scrub_wal(catalog, path, report: ScrubReport) -> None:
    import json

    report.files_scanned += 1
    table = path.stem
    schemas = catalog.table_schemas(table) if catalog.has(table) else None
    if schemas is None:
        report.issues.append(
            ScrubIssue(
                projection=table,
                file=str(path),
                error=(
                    f"no projection of table {table!r} is in the catalog "
                    "to type its WAL records: they stay on disk, not "
                    "replayed"
                ),
            )
        )
    lines = []
    with open(path, encoding="utf-8") as f:
        for raw in f:
            raw = raw.strip()
            if raw:
                lines.append(raw)
    records = 0
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                report.issues.append(
                    ScrubIssue(
                        projection=table,
                        file=str(path),
                        line=i + 1,
                        error=(
                            "torn final WAL line (recoverable: dropped on "
                            f"the next open): {exc}"
                        ),
                    )
                )
            else:
                report.issues.append(
                    ScrubIssue(
                        projection=table,
                        file=str(path),
                        line=i + 1,
                        error=(
                            f"corrupt WAL record (line {i + 1} of "
                            f"{len(lines)}): {exc}"
                        ),
                    )
                )
            continue
        records += 1
        if schemas is None:
            continue
        try:
            decode_wal_record(record, schemas)
        except WalRecordError as exc:
            report.issues.append(
                ScrubIssue(
                    projection=table,
                    file=str(path),
                    line=i + 1,
                    error=str(exc),
                )
            )
    marker = getattr(catalog, "wal_applied", {}).get(table, 0)
    if marker > records:
        report.issues.append(
            ScrubIssue(
                projection=table,
                file=str(path),
                error=(
                    f"wal_applied marker is {marker} but the WAL holds "
                    f"only {records} records"
                ),
            )
        )


def _scrub_partitioned(projection, report: ScrubReport, deep: bool) -> None:
    child_rows = 0
    for part in projection.partitions:
        try:
            child = part.open()
        except ReproError as exc:
            report.issues.append(
                ScrubIssue(
                    projection=projection.name,
                    partition=part.name,
                    file=str(part.directory / "projection.json"),
                    error=str(exc),
                )
            )
            continue
        child_rows += child.n_rows
        _scrub_columns(child, report, deep, partition=part.name,
                       parent=projection)
        if deep:
            try:
                zone_problems = part.verify_zone_maps()
            except ReproError as exc:
                zone_problems = [f"cannot verify zone maps: {exc}"]
            for problem in zone_problems:
                report.issues.append(
                    ScrubIssue(
                        projection=projection.name,
                        partition=part.name,
                        file=str(part.directory / "projection.json"),
                        error=problem,
                    )
                )
    if child_rows != projection.n_rows and not report.issues:
        report.issues.append(
            ScrubIssue(
                projection=projection.name,
                file=str(projection.directory / "projection.json"),
                error=(
                    f"partition row counts sum to {child_rows}, parent "
                    f"metadata says {projection.n_rows}"
                ),
            )
        )


def _scrub_columns(
    projection, report: ScrubReport, deep: bool,
    partition: str | None, parent=None
) -> None:
    owner = parent.name if parent is not None else projection.name
    for col in projection.column_names:
        pc = projection.column(col)
        for encoding, path in sorted(pc.files.items()):
            report.files_scanned += 1
            where = dict(
                projection=owner, partition=partition,
                column=col, encoding=encoding, file=str(path),
            )
            try:
                cf = ColumnFile.open(path)
            except (ReproError, OSError, ValueError, KeyError) as exc:
                report.issues.append(
                    ScrubIssue(error=f"cannot open column file: {exc}", **where)
                )
                continue
            _scrub_structure(cf, report, where)
            _scrub_blocks(cf, report, where, deep)


def _scrub_structure(cf: ColumnFile, report: ScrubReport, where: dict) -> None:
    """Descriptor-table invariants that need no payload bytes."""
    try:
        file_size = os.path.getsize(cf.path)
    except OSError as exc:  # pragma: no cover - file vanished mid-scrub
        report.issues.append(ScrubIssue(error=str(exc), **where))
        return
    expected_pos = 0
    covered = 0
    for d in cf.descriptors:
        if d.start_pos != expected_pos:
            report.issues.append(
                ScrubIssue(
                    block=d.index,
                    error=(
                        f"block positions not contiguous: block {d.index} "
                        f"starts at {d.start_pos}, expected {expected_pos}"
                    ),
                    **where,
                )
            )
        if d.offset + d.nbytes > file_size:
            report.issues.append(
                ScrubIssue(
                    block=d.index,
                    error=(
                        f"block {d.index} extends to byte "
                        f"{d.offset + d.nbytes} but the file holds only "
                        f"{file_size}"
                    ),
                    **where,
                )
            )
        expected_pos = d.end_pos
        covered += d.n_values
    if covered != cf.n_values:
        report.issues.append(
            ScrubIssue(
                error=(
                    f"descriptors cover {covered} values, header says "
                    f"{cf.n_values}"
                ),
                **where,
            )
        )


def _scrub_blocks(
    cf: ColumnFile, report: ScrubReport, where: dict, deep: bool
) -> None:
    """Length + checksum per block; value-level checks when *deep*."""
    for d in cf.descriptors:
        report.blocks_scanned += 1
        try:
            payload = cf.read_payload(d.index)
        except (StorageError, OSError) as exc:
            report.issues.append(
                ScrubIssue(block=d.index, error=str(exc), **where)
            )
            continue
        if not deep:
            continue
        try:
            values = cf.encoding.decode(payload, d, cf.dtype)
        except ReproError as exc:
            report.issues.append(
                ScrubIssue(
                    block=d.index, error=f"undecodable payload: {exc}",
                    **where,
                )
            )
            continue
        if len(values) != d.n_values:
            report.issues.append(
                ScrubIssue(
                    block=d.index,
                    error=(
                        f"block {d.index} decodes to {len(values)} values, "
                        f"descriptor says {d.n_values}"
                    ),
                    **where,
                )
            )
        elif len(values) and (
            values.min() < d.min_value or values.max() > d.max_value
        ):
            report.issues.append(
                ScrubIssue(
                    block=d.index,
                    error=(
                        f"block {d.index} values "
                        f"[{values.min()}, {values.max()}] escape the "
                        f"descriptor bounds [{d.min_value}, {d.max_value}]"
                    ),
                    **where,
                )
            )
