"""Offline storage scrubber: the open's decoders plus checksums, from disk.

Production column stores do not wait for a query to trip over bit rot — a
background *scrubber* walks the stored bytes and reports damage so
operators can repair (re-replicate, re-merge, restore) before the data is
needed. :func:`scrub_catalog` / ``repro scrub`` is that path here: it reads
the files under a database root **directly on disk**, bypassing the buffer
pool, any fault injector and any open handle's cached metadata, checking

* every metadata file through the one decoder the open uses — the
  manifest, each ``projection.json`` (partitions and zone maps included),
  each column-file header and its block descriptors — so an issue carries
  exactly the :class:`~repro.errors.MetadataError` message the open (or a
  column file's first open) would raise;
* every block payload's length and CRC32 checksum;
* optionally (``deep=True``) that each payload *decodes* to exactly the
  descriptor's value count within its min/max bounds, and that zone maps
  bound the stored values — damage checksums alone cannot see;
* the write path: staging debris, ``wal_applied`` markers, every WAL
  line and record, read and decoded as recovery does, and the query log,
  read by :func:`repro.qlog.read_query_log`.

The result is a machine-readable :class:`ScrubReport` naming each corrupt
file and block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .delta import decode_wal_record
from .errors import (
    LogLineError,
    MetadataError,
    ReproError,
    StorageError,
    WalRecordError,
)
from .qlog import _SEGMENT_GLOB, read_query_log
from .storage.catalog import (
    MANIFEST_FILE,
    Manifest,
    read_manifest,
    table_schemas,
)
from .storage.column_file import ColumnFile
from .storage.jsonlines import read_json_lines
from .storage.projection import META_FILE, Projection


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


def scrub_catalog(root: str | Path, deep: bool = False) -> ScrubReport:
    """Verify the database stored under *root*, straight from disk.

    Every metadata file goes through the decoder the open uses
    (:func:`~repro.storage.catalog.read_manifest`,
    :meth:`~repro.storage.projection.Projection.open`, and
    :meth:`~repro.storage.projection.ProjectionColumn.file` for each
    column-file header), so an issue's message is exactly what the open,
    or the first read, would raise. Never raises on damaged data — every
    defect becomes a :class:`ScrubIssue` and the walk continues, so one
    corrupt block cannot hide another.
    """
    root = Path(root)
    report = ScrubReport()
    manifest = _decoded_manifest(root, report)
    dirnames = manifest.projections if manifest else {
        meta.parent.name: meta.parent.name
        for meta in root.glob(f"*/{META_FILE}")
    }
    projections = {}
    for name, dirname in sorted(dirnames.items()):
        report.projections_scanned += 1
        try:
            projection = Projection.open(root / dirname)
        except MetadataError as exc:
            report.issues.append(ScrubIssue(
                projection=name, file=str(root / dirname / META_FILE),
                error=str(exc),
            ))
            continue
        projections[name] = projection
        if projection.is_partitioned:
            _scrub_partitioned(projection, report, deep)
        else:
            _scrub_columns(projection, report, deep, partition=None,
                           owner=name)
    _scrub_write_path(root, projections, manifest, report)
    return report


#: Synthetic projection name for issues in the catalog's shared write-path
#: files (manifest, staging debris, query log) rather than any one
#: projection.
CATALOG_SCOPE = "(catalog)"


def _decoded_manifest(root: Path, report: ScrubReport) -> Manifest | None:
    """The decoded manifest, or None (and an issue) when it is missing or
    refused; the walk then covers every projection directory instead."""
    path = root / MANIFEST_FILE
    report.files_scanned += 1
    if not path.exists():
        error = "catalog manifest missing"
    else:
        try:
            return read_manifest(path)
        except MetadataError as exc:
            error = str(exc)
    report.issues.append(
        ScrubIssue(projection=CATALOG_SCOPE, file=str(path), error=error)
    )
    return None


def _scrub_write_path(
    root: Path, projections: dict, manifest: Manifest | None,
    report: ScrubReport,
) -> None:
    """Staging debris, ``wal_applied`` markers, WAL files and the query log.

    Only a WAL's *final* line may be torn (recoverable, and reported as
    such); every other line must be intact and its record must decode
    against its table's schemas, as recovery reads and decodes it. A WAL
    whose table has no projection left is reported once (recovery keeps
    it unreplayed), and so is a marker past the WAL's record count
    (recovery would discard the whole log).
    """
    for path in sorted(root.glob("tmp-*")) + sorted(
        root.glob(f"{MANIFEST_FILE}.tmp")
    ):
        report.issues.append(ScrubIssue(
            projection=CATALOG_SCOPE, file=str(path),
            error="orphaned staging path left by an interrupted commit "
                  "(reopening the database garbage-collects it)",
        ))
    markers = manifest.wal_applied if manifest else {}
    wal_dir = root / "_wal"
    for table, count in sorted(markers.items()):
        wal = wal_dir / f"{table}.wal"
        if count and not wal.exists():
            # Legal mid-recovery state (crash between WAL unlink and the
            # marker-clearing commit) — reported so operators see it, and
            # self-healing on the next open.
            report.issues.append(ScrubIssue(
                projection=table, file=str(wal),
                error=f"wal_applied marker is {count} but the WAL is gone "
                      "(recoverable: the next open clears it)",
            ))
    for path in sorted(wal_dir.glob("*.wal")):
        schemas = table_schemas(projections, path.stem) or None
        _scrub_wal(path, schemas, markers.get(path.stem, 0), report)
    _scrub_query_log(root / "_qlog", report)


def _scrub_wal(path: Path, schemas: dict | None, marker: int,
               report: ScrubReport) -> None:
    report.files_scanned += 1
    table = path.stem

    def issue(error: str, line: int | None = None) -> None:
        report.issues.append(ScrubIssue(
            projection=table, file=str(path), line=line, error=error,
        ))

    if schemas is None:
        issue(f"no projection of table {table!r} is in the catalog to type "
              "its WAL records: they stay on disk, not replayed")
    try:
        log = read_json_lines(path, "WAL")
    except LogLineError as exc:
        issue(str(exc), exc.line)
        return
    records = len(log.records)
    if log.torn is not None:
        issue("torn final WAL line (recoverable: dropped on the next open): "
              f"{log.torn}", records + 1)
    for line, record in enumerate(log.records if schemas else (), 1):
        try:
            decode_wal_record(record, schemas)
        except WalRecordError as exc:
            issue(str(exc), line)
    if marker > records:
        issue(f"wal_applied marker is {marker} but the WAL holds only "
              f"{records} records")


def _scrub_query_log(directory: Path, report: ScrubReport) -> None:
    """The query log's segments, read as :func:`~repro.qlog.read_query_log`
    reads them; a missing or empty log is not an issue."""
    segments = sorted(directory.glob(_SEGMENT_GLOB))
    if not segments:
        return
    report.files_scanned += len(segments)
    try:
        read_query_log(directory)
    except LogLineError as exc:
        report.issues.append(ScrubIssue(projection=CATALOG_SCOPE,
                                        file=exc.path, line=exc.line,
                                        error=str(exc)))


def _scrub_partitioned(projection, report: ScrubReport, deep: bool) -> None:
    for part in projection.partitions:
        where = dict(projection=projection.name, partition=part.name,
                     file=str(part.directory / META_FILE))
        try:
            child = part.open()
        except MetadataError as exc:
            report.issues.append(ScrubIssue(error=str(exc), **where))
            continue
        _scrub_columns(child, report, deep, partition=part.name,
                       owner=projection.name)
        if deep:
            try:
                zone_problems = part.verify_zone_maps()
            except ReproError as exc:
                zone_problems = [f"cannot verify zone maps: {exc}"]
            for problem in zone_problems:
                report.issues.append(ScrubIssue(error=problem, **where))


def _scrub_columns(
    projection, report: ScrubReport, deep: bool, partition: str | None,
    owner: str,
) -> None:
    for col in projection.column_names:
        pc = projection.column(col)
        for encoding, path in sorted(pc.files.items()):
            report.files_scanned += 1
            where = dict(
                projection=owner, partition=partition,
                column=col, encoding=encoding, file=str(path),
            )
            try:
                cf = pc.file(encoding)
            except MetadataError as exc:
                report.issues.append(ScrubIssue(error=str(exc), **where))
                continue
            _scrub_blocks(cf, report, where, deep)


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
