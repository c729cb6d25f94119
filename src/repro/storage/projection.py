"""C-Store projections: groups of columns stored in a common sort order.

A projection is a subset of a table's columns, all sorted by the same
(possibly compound) sort key, each column in its own file. One logical column
may be stored redundantly under several encodings — the paper stores LINENUM
as uncompressed, RLE, and bit-vector simultaneously — so a query can pick the
physical representation to scan.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from ..dtypes import ColumnSchema, type_by_name
from ..errors import CatalogError, MetadataError
from .column_file import ColumnFile, write_column
from .encoding import encoding_by_name
from .index import ClusteredIndex
from .metadata import MetadataReader
from .partition import (
    PARTITION_DIR_FORMAT,
    PartitionInfo,
    ZoneMap,
    partition_boundaries,
)
from .stats import ColumnHistogram

META_FILE = "projection.json"


@dataclass
class ProjectionColumn:
    """One logical column of a projection and its physical encodings.

    A column of a design held only in memory (what-if costing) maps each
    encoding to no path, and its files come already open: see
    :meth:`in_memory`.
    """

    schema: ColumnSchema
    files: dict[str, Path | None]
    index_path: Path | None = None
    #: Whether the column has a clustered index (a stored projection's
    #: primary sort key, or a what-if design's). Planning and pricing read
    #: this flag; only execution loads the index itself.
    indexed: bool = False
    #: The owning stored projection's row count, which every file opened
    #: here must hold; ``None`` for a column with no stored projection.
    n_rows: int | None = None
    _open_files: dict[str, ColumnFile] = field(default_factory=dict)
    _index: ClusteredIndex | None = field(default=None, repr=False)
    #: Guards the lazy ``_open_files`` / ``_index`` population: concurrent
    #: queries share one ProjectionColumn, and an unsynchronized
    #: check-then-act here would open duplicate handles (wasting the
    #: buffer pool's per-file accounting) or double-load the index.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.index_path is not None:
            self.indexed = True

    @classmethod
    def in_memory(
        cls, schema: ColumnSchema, files: dict[str, ColumnFile],
        indexed: bool = False,
    ) -> "ProjectionColumn":
        """A column over already-built :class:`ColumnFile` records, with
        no directory behind it."""
        return cls(
            schema=schema,
            files={enc: cf.path for enc, cf in files.items()},
            indexed=indexed,
            _open_files=dict(files),
        )

    @property
    def index(self) -> ClusteredIndex | None:
        """The column's clustered index, if one was built (sort-key columns)."""
        if self.index_path is None:
            return None
        with self._lock:
            if self._index is None:
                self._index = ClusteredIndex.load(self.index_path)
            return self._index

    @property
    def encodings(self) -> list[str]:
        return sorted(self.files)

    #: Default-encoding preference, cheapest to scan first. ``file(None)``
    #: walks this tuple in order; anything not listed loses alphabetically.
    DEFAULT_ENCODING_ORDER: ClassVar[tuple[str, ...]] = (
        "rle",
        "dictionary",
        "for",
        "uncompressed",
        "bitvector",
    )

    def file(self, encoding: str | None = None) -> ColumnFile:
        """Open (and cache) the column file for *encoding*.

        With ``encoding=None`` the cheapest stored representation is chosen
        by walking :data:`DEFAULT_ENCODING_ORDER`: RLE when available, then
        dictionary, then frame-of-reference, then uncompressed, and
        bit-vector only as a last resort (its per-value materialization is
        the costliest decode path).

        Raises:
            MetadataError: :meth:`ColumnFile.open` refuses the header, or
                its ``n_values`` is not :attr:`n_rows` (checked on first
                open: an RLE open reads every payload to count runs).
        """
        if not self.files:
            raise CatalogError(
                f"column {self.schema.name!r} has no physical files here "
                "(partitioned projections store data in their partitions)"
            )
        if encoding is None:
            for preferred in self.DEFAULT_ENCODING_ORDER:
                if preferred in self.files:
                    encoding = preferred
                    break
            else:
                encoding = next(iter(sorted(self.files)))
        if encoding not in self.files:
            raise CatalogError(
                f"column {self.schema.name!r} has no {encoding!r} encoding "
                f"(available: {self.encodings})"
            )
        with self._lock:
            if encoding not in self._open_files:
                cf = ColumnFile.open(self.files[encoding])
                if self.n_rows is not None and cf.n_values != self.n_rows:
                    raise MetadataReader(
                        cf.path, "cannot open column file"
                    ).bad("n_values", f"is {cf.n_values} but "
                          f"{cf.path.parent / META_FILE} has 'n_rows' "
                          f"{self.n_rows}")
                self._open_files[encoding] = cf
            return self._open_files[encoding]


@dataclass
class Projection:
    """A sorted column group persisted under one directory.

    A projection may be **range-partitioned**: its sorted rows split into
    contiguous chunks, each a child projection under ``partNNNN/``, with
    per-partition zone maps held in :attr:`partitions`. A partitioned parent
    keeps only schemas — its :class:`ProjectionColumn` entries have no files
    — and execution fans out over the children (see
    :mod:`repro.planner.partitioned`).
    """

    name: str
    #: ``None`` for a design held only in memory (what-if costing).
    directory: Path | None
    n_rows: int
    sort_keys: list[str]
    columns: dict[str, ProjectionColumn]
    anchor: str | None = None
    partitions: list[PartitionInfo] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        directory: str | Path,
        name: str,
        data: dict[str, np.ndarray],
        schemas: dict[str, ColumnSchema],
        sort_keys: list[str],
        encodings: dict[str, list[str]],
        presorted: bool = False,
        anchor: str | None = None,
        partitions: int = 1,
    ) -> "Projection":
        """Sort *data* by *sort_keys* and write one file per column encoding.

        Args:
            directory: target directory (created if missing).
            name: projection name.
            data: column name -> value array; all arrays the same length.
            schemas: column name -> schema (must cover every data column).
            sort_keys: ordered sort-key column names (may be empty).
            encodings: column name -> list of encoding names to store.
            presorted: skip sorting when the caller already ordered the rows.
            anchor: logical table this projection belongs to. C-Store stores
                one table as several differently-sorted projections; queries
                naming the anchor are routed to the best-fitting projection.
            partitions: number of horizontal range partitions. Values above
                one split the sorted rows into that many contiguous chunks
                (clamped to the row count), each stored as a child
                projection with its own zone maps.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lengths = {len(v) for v in data.values()}
        if len(lengths) > 1:
            raise CatalogError(f"columns of {name!r} differ in length: {lengths}")
        for col in data:
            if schemas[col].ctype.name == "float64":
                raise CatalogError(
                    f"column {col!r}: float64 columns are not supported yet "
                    "(the tuple pipeline is integer-typed; dictionary- or "
                    "fixed-point-encode real-valued data)"
                )
        n_rows = lengths.pop() if lengths else 0

        if sort_keys and not presorted and n_rows:
            order = np.lexsort([data[k] for k in reversed(sort_keys)])
            data = {col: np.ascontiguousarray(v[order]) for col, v in data.items()}

        if partitions > 1 and n_rows > 1:
            return cls._create_partitioned(
                directory,
                name,
                data,
                schemas,
                sort_keys,
                encodings,
                anchor,
                partitions,
                n_rows,
            )

        columns: dict[str, ProjectionColumn] = {}
        # A clustered index is possible exactly for the primary sort key —
        # the only globally sorted column (paper Section 2.1.1).
        indexed = sort_keys[0] if sort_keys and n_rows else None
        for col, values in data.items():
            schema = schemas[col]
            values = schema.ctype.validate(values)
            histogram = ColumnHistogram.build(values)  # one per column
            files: dict[str, Path] = {}
            for enc_name in encodings.get(col, ["uncompressed"]):
                encoding = encoding_by_name(enc_name)
                path = directory / f"{col}.{enc_name}.col"
                write_column(path, values, schema.ctype, encoding,
                             column_name=col, histogram=histogram)
                files[enc_name] = path
            index_path = None
            if col == indexed:
                index_path = directory / f"{col}.idx"
                ClusteredIndex.build(values).save(index_path)
            columns[col] = ProjectionColumn(
                schema=schema, files=files, index_path=index_path,
                n_rows=n_rows,
            )

        proj = cls(
            name=name,
            directory=directory,
            n_rows=n_rows,
            sort_keys=list(sort_keys),
            columns=columns,
            anchor=anchor,
        )
        proj._write_meta()
        return proj

    @classmethod
    def _create_partitioned(
        cls,
        directory: Path,
        name: str,
        data: dict[str, np.ndarray],
        schemas: dict[str, ColumnSchema],
        sort_keys: list[str],
        encodings: dict[str, list[str]],
        anchor: str | None,
        n_partitions: int,
        n_rows: int,
    ) -> "Projection":
        """Write the already-sorted rows as contiguous child projections.

        Each chunk becomes a full projection (files, block descriptors,
        clustered index) in its own ``partNNNN/`` subdirectory; the parent
        keeps schema-only columns plus per-partition zone maps in its
        metadata.
        """
        infos: list[PartitionInfo] = []
        for i, (start, stop) in enumerate(
            partition_boundaries(n_rows, n_partitions)
        ):
            part_name = PARTITION_DIR_FORMAT.format(index=i)
            chunk = {
                col: np.ascontiguousarray(values[start:stop])
                for col, values in data.items()
            }
            child = cls.create(
                directory / part_name,
                f"{name}/{part_name}",
                chunk,
                schemas,
                sort_keys,
                encodings,
                presorted=True,  # chunks of a sorted array stay sorted
                anchor=None,
            )
            zone_maps = {
                col: ZoneMap(int(values.min()), int(values.max()))
                for col, values in chunk.items()
            }
            infos.append(
                PartitionInfo(
                    name=part_name,
                    directory=directory / part_name,
                    n_rows=stop - start,
                    zone_maps=zone_maps,
                    _projection=child,
                )
            )
        proj = cls(
            name=name,
            directory=directory,
            n_rows=n_rows,
            sort_keys=list(sort_keys),
            columns={
                col: ProjectionColumn(schema=schemas[col], files={})
                for col in data
            },
            anchor=anchor,
            partitions=infos,
        )
        proj._write_meta()
        return proj

    def _write_meta(self) -> None:
        meta = {
            "name": self.name,
            "n_rows": self.n_rows,
            "sort_keys": self.sort_keys,
            "anchor": self.anchor,
            "partitions": [p.as_dict() for p in self.partitions],
            "columns": {
                col: {
                    "dtype": pc.schema.ctype.name,
                    "dictionary": list(pc.schema.dictionary),
                    "files": {
                        enc: path.name for enc, path in pc.files.items()
                    },
                    "index": pc.index_path.name if pc.index_path else None,
                }
                for col, pc in self.columns.items()
            },
        }
        # Write-then-replace so a crash mid-dump can never leave a
        # half-written metadata file where a valid one used to be.
        from .atomic import write_file_atomic

        write_file_atomic(
            self.directory / META_FILE, json.dumps(meta, indent=2)
        )

    @classmethod
    def open(cls, directory: str | Path) -> "Projection":
        """Load a projection from its directory: the one decoder of
        ``projection.json``, partitions and zone maps included.

        Column files are not opened here (see :meth:`ProjectionColumn.file`).

        Raises:
            MetadataError: the metadata is missing, unparseable, lacks a
                field, names an unknown column type or encoding, holds a
                zone map for no column or with min above max, or claims
                more or fewer rows than its partitions hold; the message
                names the file and the field.
        """
        directory = Path(directory)
        meta_path = directory / META_FILE
        if not meta_path.exists():
            raise MetadataError(f"{meta_path}: projection metadata is missing")
        r = MetadataReader(meta_path, "corrupt projection metadata")
        meta = r.parse(meta_path.read_bytes())
        n_rows = r.field(meta, "n_rows", "count")
        columns = {}
        for col, info in r.field(meta, "columns", "object").items():
            at = f"columns.{col}"
            info = r.value(info, "object", at)
            files = {}
            for enc, fname in r.field(info, "files", "object", at).items():
                r.known(enc, encoding_by_name, "encoding", f"{at}.files")
                files[enc] = directory / r.value(fname, "text",
                                                 f"{at}.files.{enc}")
            index_name = r.field(info, "index", "text?", at, None)
            columns[col] = ProjectionColumn(
                schema=ColumnSchema(
                    name=col,
                    ctype=r.known(r.field(info, "dtype", "text", at),
                                  type_by_name, "column type", f"{at}.dtype"),
                    dictionary=tuple(r.field(info, "dictionary", "list", at)),
                ),
                files=files,
                index_path=directory / index_name if index_name else None,
                n_rows=n_rows,
            )
        sort_keys = r.field(meta, "sort_keys", "list")
        if not all(isinstance(k, str) and k in columns for k in sort_keys):
            raise r.bad("sort_keys", f"is {sort_keys!r}, not a list of the "
                        "projection's columns")
        partitions = [
            PartitionInfo.from_dict(p, directory, r, f"partitions[{i}]",
                                    columns)
            for i, p in enumerate(r.field(meta, "partitions", "list",
                                          default=[]))
        ]
        held = sum(p.n_rows for p in partitions)
        if partitions and held != n_rows:
            raise r.bad("n_rows", f"is {n_rows} but its partitions hold "
                        f"{held} rows")
        return cls(
            name=r.field(meta, "name", "text"),
            directory=directory,
            n_rows=n_rows,
            sort_keys=sort_keys,
            columns=columns,
            anchor=r.field(meta, "anchor", "text?", default=None),
            partitions=partitions,
        )

    # --------------------------------------------------------- partitioning

    @property
    def is_partitioned(self) -> bool:
        return bool(self.partitions)

    def partition(self, name: str) -> PartitionInfo:
        for part in self.partitions:
            if part.name == name:
                return part
        raise CatalogError(
            f"projection {self.name!r} has no partition {name!r}"
        )

    def physical_column(self, name: str) -> ProjectionColumn:
        """The column's physical incarnation: own files, or the first
        partition's (every partition shares schemas and encodings, so any
        one answers metadata questions — encodings, block shape, run
        lengths — for the whole projection)."""
        if self.partitions:
            return self.partitions[0].open().column(name)
        return self.column(name)

    def read_column_values(self, name: str, encoding: str | None = None):
        """All stored values of one column, concatenated across partitions."""
        if not self.partitions:
            return self.column(name).file(encoding).read_all_values()
        return np.concatenate(
            [
                part.open().column(name).file(encoding).read_all_values()
                for part in self.partitions
            ]
        )

    def column(self, name: str) -> ProjectionColumn:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"projection {self.name!r} has no column {name!r}"
            ) from None

    def schema(self, name: str) -> ColumnSchema:
        return self.column(name).schema

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def storage_report(self) -> dict:
        """Physical-design summary: per column/encoding sizes and structure.

        Returns ``{column: {encoding: {bytes, blocks, avg_run_length,
        compression_ratio}}}`` where the ratio is stored bytes over the raw
        fixed-width footprint (lower is better). For a partitioned
        projection the figures are summed over every partition (run lengths
        averaged, weighted by blocks).
        """
        if self.partitions:
            return self._partitioned_storage_report()
        report: dict = {}
        for col, pc in self.columns.items():
            raw_bytes = max(self.n_rows * pc.schema.ctype.itemsize, 1)
            per_encoding = {}
            for enc in pc.encodings:
                cf = pc.file(enc)
                per_encoding[enc] = {
                    "bytes": cf.size_bytes(),
                    "blocks": cf.n_blocks,
                    "avg_run_length": round(cf.avg_run_length, 2),
                    "compression_ratio": round(cf.size_bytes() / raw_bytes, 3),
                }
            report[col] = per_encoding
        return report

    def _partitioned_storage_report(self) -> dict:
        report: dict = {}
        for part in self.partitions:
            for col, per_encoding in part.open().storage_report().items():
                merged = report.setdefault(col, {})
                raw_bytes = max(self.n_rows * self.schema(col).ctype.itemsize, 1)
                for enc, entry in per_encoding.items():
                    acc = merged.setdefault(
                        enc,
                        {"bytes": 0, "blocks": 0, "_rl_weighted": 0.0},
                    )
                    acc["bytes"] += entry["bytes"]
                    acc["blocks"] += entry["blocks"]
                    acc["_rl_weighted"] += (
                        entry["avg_run_length"] * entry["blocks"]
                    )
                    acc["compression_ratio"] = round(
                        acc["bytes"] / raw_bytes, 3
                    )
        for per_encoding in report.values():
            for acc in per_encoding.values():
                blocks = max(acc["blocks"], 1)
                acc["avg_run_length"] = round(
                    acc.pop("_rl_weighted") / blocks, 2
                )
        return report
