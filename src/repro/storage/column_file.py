"""Column file format: header + sequence of encoded 64 KB blocks.

Layout::

    magic "RCOL0001" | uint32 header_len | header JSON | block payloads...

The header carries the column schema, encoding name, and one descriptor per
block (offset, length, position coverage, min/max). Descriptors live in the
header so that block skipping never touches payload bytes.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dtypes import ColumnType, type_by_name
from ..errors import CorruptBlockError, StorageError
from .block import BlockDescriptor
from .encoding import Encoding, encoding_by_name
from .metadata import MetadataReader
from .stats import ColumnHistogram

MAGIC = b"RCOL0001"


def _count_runs(path: Path, encoding: Encoding, descriptors,
                n_values: int) -> int:
    """The model's run count: per-block runs for run-aware encodings,
    one per value otherwise."""
    if not encoding.supports_runs:
        return n_values
    total = 0
    with open(path, "rb") as f:
        for d in descriptors:
            f.seek(d.offset)
            total += encoding.stats_run_count(f.read(d.nbytes), d)
    return total


def write_column(
    path: str | Path,
    values: np.ndarray,
    ctype: ColumnType,
    encoding: Encoding,
    column_name: str = "",
    histogram: ColumnHistogram | None = None,
) -> "ColumnFile":
    """Encode *values* with *encoding* and write a column file at *path*.

    *histogram* is the values' :class:`ColumnHistogram` when the caller
    already built it (one column stored under several encodings shares
    one); it is built here otherwise.
    """
    path = Path(path)
    values = ctype.validate(values)
    blocks = list(encoding.encode(values, ctype.numpy_dtype))
    descriptors = []
    offset = 0  # relative to payload area; rebased after header is sized
    total_runs = 0
    for index, blk in enumerate(blocks):
        descriptors.append(
            BlockDescriptor(
                index=index,
                offset=offset,
                nbytes=len(blk.payload),
                start_pos=blk.start_pos,
                n_values=blk.n_values,
                min_value=blk.min_value,
                max_value=blk.max_value,
                crc32=zlib.crc32(blk.payload),
            )
        )
        offset += len(blk.payload)
    if histogram is None:
        histogram = ColumnHistogram.build(values)
    header = {
        "column": column_name or path.stem,
        "dtype": ctype.name,
        "encoding": encoding.name,
        "n_values": int(len(values)),
        "histogram": histogram.to_json(),
        "blocks": [d.to_json() for d in descriptors],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    base = len(MAGIC) + 4 + len(header_bytes)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(4, "little"))
        f.write(header_bytes)
        for blk in blocks:
            f.write(blk.payload)
    # Rebase descriptor offsets to absolute file offsets.
    rebased = [
        BlockDescriptor(
            index=d.index,
            offset=d.offset + base,
            nbytes=d.nbytes,
            start_pos=d.start_pos,
            n_values=d.n_values,
            min_value=d.min_value,
            max_value=d.max_value,
            crc32=d.crc32,
        )
        for d in descriptors
    ]
    for blk, desc in zip(blocks, rebased):
        total_runs += encoding.stats_run_count(blk.payload, desc)
    return ColumnFile(
        path=path,
        column=header["column"],
        ctype=ctype,
        encoding=encoding,
        n_values=len(values),
        descriptors=rebased,
        total_runs=total_runs,
        histogram=histogram,
    )


@dataclass(frozen=True)
class ColumnFile:
    """One encoding of one column: its metadata, and payload access.

    The metadata (|C|, block descriptors, run count, histogram) is all the
    cost model reads. A file with no ``path`` is a record of a design that
    was never built — what-if costing synthesizes one per encoding — and
    reading a payload from it raises :class:`StorageError`.
    """

    path: Path | None
    column: str
    ctype: ColumnType
    encoding: Encoding
    n_values: int
    descriptors: list[BlockDescriptor]
    total_runs: int
    histogram: ColumnHistogram | None = None

    @classmethod
    def open(cls, path: str | Path) -> "ColumnFile":
        """Open a column file: the one decoder of its header.

        The block descriptors are checked before any payload is read: they
        must chain from position 0 without gaps, cover exactly the
        header's ``n_values``, and lie inside the file. Only then does a
        run-aware encoding read its payloads to count runs.

        Raises:
            MetadataError: the file is missing or unreadable, or its header
                lacks a field or holds one its descriptors contradict; the
                message names the file and the field.
        """
        path = Path(path)
        r = MetadataReader(path, "cannot open column file")
        try:
            with open(path, "rb") as f:
                size = os.fstat(f.fileno()).st_size
                magic = f.read(len(MAGIC))
                header_len = int.from_bytes(f.read(4), "little")
                raw = f.read(header_len)
        except OSError as exc:
            raise r.error(exc.strerror or str(exc)) from None
        if magic != MAGIC:
            raise r.bad("magic", f"is {magic!r}, not {MAGIC!r}")
        header = r.parse(raw)
        ctype = r.known(r.field(header, "dtype", "text"), type_by_name,
                        "column type", "dtype")
        encoding = r.known(r.field(header, "encoding", "text"),
                           encoding_by_name, "encoding", "encoding")
        n_values = r.field(header, "n_values", "count")
        base = len(MAGIC) + 4 + header_len
        descriptors = []
        covered = 0
        for i, d in enumerate(r.field(header, "blocks", "list")):
            at = f"blocks[{i}]"
            d = r.value(d, "object", at)
            index, offset, nbytes, start, count = (
                r.field(d, key, "count", at)
                for key in ("index", "offset", "nbytes", "start_pos",
                            "n_values")
            )
            end = base + offset + nbytes
            if index != i:
                raise r.bad(f"{at}.index", f"is {index}, not {i}")
            if start != covered:
                raise r.bad(f"{at}.start_pos", f"is {start}, not {covered}: "
                            "block positions must chain from 0 without gaps")
            if end > size:
                raise r.bad(f"{at}.nbytes", f"ends block {i} at byte {end} "
                            f"but the file holds only {size}")
            covered += count
            descriptors.append(BlockDescriptor(
                i, base + offset, nbytes, start, count,
                min_value=r.field(d, "min_value", "number", at),
                max_value=r.field(d, "max_value", "number", at),
                crc32=r.field(d, "crc32", "int?", at, default=None),
            ))
        if covered != n_values:
            raise r.bad(
                "n_values",
                f"is {n_values} but the blocks cover {covered} values",
            )
        histogram = r.field(header, "histogram", "object", default=None)
        try:
            histogram = (
                ColumnHistogram.from_json(histogram) if histogram else None
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise r.bad("histogram", f"does not decode: {exc!r}") from None
        return cls(
            path=path,
            column=r.field(header, "column", "text"),
            ctype=ctype,
            encoding=encoding,
            n_values=n_values,
            descriptors=descriptors,
            total_runs=_count_runs(path, encoding, descriptors, n_values),
            histogram=histogram,
        )

    @property
    def n_blocks(self) -> int:
        return len(self.descriptors)

    @property
    def dtype(self) -> np.dtype:
        return self.ctype.numpy_dtype

    @property
    def avg_run_length(self) -> float:
        """The model's RL: average sorted-run length (1.0 when uncompressed)."""
        if self.total_runs == 0:
            return 1.0
        return self.n_values / self.total_runs

    def read_payload(self, index: int) -> bytes:
        """Read one block payload straight from disk (bypassing any pool)."""
        if self.path is None:
            raise StorageError(
                f"column {self.column!r} ({self.encoding.name}) is a what-if "
                "record with no stored file: it has no payloads to read"
            )
        d = self.descriptors[index]
        with open(self.path, "rb") as f:
            f.seek(d.offset)
            payload = f.read(d.nbytes)
        if len(payload) != d.nbytes:
            raise StorageError(
                f"{self.path}: short read on block {index} "
                f"({len(payload)} of {d.nbytes} bytes)"
            )
        if d.crc32 is not None and zlib.crc32(payload) != d.crc32:
            raise CorruptBlockError(
                f"{self.path}: block {index} failed checksum validation"
            )
        return payload

    def read_all_values(self) -> np.ndarray:
        """Decode the whole column to a value array (bulk maintenance path)."""
        parts = [
            self.encoding.decode(self.read_payload(d.index), d, self.dtype)
            for d in self.descriptors
        ]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def size_bytes(self) -> int:
        return os.path.getsize(self.path)
