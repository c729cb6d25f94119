"""Horizontal range partitions of a projection.

A partitioned projection splits its (globally sorted) rows into N contiguous
chunks, each stored as a full child projection under ``partNNNN/`` inside the
parent's directory. Because the split respects the sort order, every
partition covers a contiguous sort-key range, and the per-partition,
per-column min/max **zone maps** recorded here let the planner discard whole
partitions before any DS operator runs — the partition-level analogue of the
per-block min/max skipping in :mod:`repro.storage.stats`.

Zone maps are persisted inside the parent's ``projection.json``; the child
projections carry their own column files, block descriptors, and clustered
indexes, so per-partition execution reuses the ordinary operator stack
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .metadata import MetadataReader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .projection import Projection

#: Child-directory naming scheme; the zero padding keeps partition order
#: and lexicographic order identical.
PARTITION_DIR_FORMAT = "part{index:04d}"


@dataclass(frozen=True)
class ZoneMap:
    """Closed [min, max] interval of one column's values inside a partition."""

    min_value: int
    max_value: int

    def as_dict(self) -> dict:
        return {"min": self.min_value, "max": self.max_value}


@dataclass
class PartitionInfo:
    """One horizontal range partition: its location, size, and zone maps."""

    name: str
    directory: Path
    n_rows: int
    zone_maps: dict[str, ZoneMap]
    _projection: "Projection | None" = field(default=None, repr=False)

    def open(self) -> "Projection":
        """Open (and cache) the child projection backing this partition.

        A missing or corrupt child surfaces as the
        :class:`~repro.errors.MetadataError` of its decoder, whose path
        names the partition's directory, never as a partial result; so
        does a child holding other than :attr:`n_rows` rows.
        """
        if self._projection is None:
            from .projection import META_FILE, Projection

            child = Projection.open(self.directory)
            if child.n_rows != self.n_rows:
                raise MetadataReader(
                    self.directory / META_FILE, "corrupt projection metadata"
                ).bad("n_rows", f"is {child.n_rows} but the parent's "
                      f"partition {self.name!r} holds {self.n_rows} rows")
            self._projection = child
        return self._projection

    def verify_zone_maps(self) -> list[str]:
        """Deep-verify recorded zone maps against the child's actual values.

        Decodes every zoned column and checks the stored [min, max] really
        bounds the data — a mismatch means the parent metadata and the child
        files have diverged (e.g. a partial overwrite). Returns one message
        per violated column; the scrubber folds these into its report.
        """
        problems: list[str] = []
        child = self.open()
        for col, zm in sorted(self.zone_maps.items()):
            cf = child.column(col).file()
            lo = hi = None
            for d in cf.descriptors:
                values = cf.encoding.decode(cf.read_payload(d.index), d,
                                            cf.dtype)
                if not len(values):
                    continue
                lo = int(values.min()) if lo is None else min(
                    lo, int(values.min()))
                hi = int(values.max()) if hi is None else max(
                    hi, int(values.max()))
            if lo is None:
                continue
            if lo < zm.min_value or hi > zm.max_value:
                problems.append(
                    f"zone map for column {col!r} records "
                    f"[{zm.min_value}, {zm.max_value}] but the partition "
                    f"holds [{lo}, {hi}]"
                )
        return problems

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n_rows": self.n_rows,
            "zone_maps": {
                col: zm.as_dict() for col, zm in self.zone_maps.items()
            },
        }

    @classmethod
    def from_dict(cls, data, parent_directory: Path, r: MetadataReader,
                  field: str, columns) -> "PartitionInfo":
        """Decode one ``partitions`` entry of a parent's metadata (read by
        *r*, reported as *field*): every zone map must name one of
        *columns* and hold min <= max."""
        data = r.value(data, "object", field)
        name = r.field(data, "name", "text", field)
        zone_maps = {}
        for col, zm in r.field(data, "zone_maps", "object", field).items():
            at = f"{field}.zone_maps.{col}"
            if col not in columns:
                raise r.bad(at, "names no column of the projection")
            zm = r.value(zm, "object", at)
            lo, hi = r.field(zm, "min", "int", at), r.field(zm, "max", "int", at)
            if lo > hi:
                raise r.bad(at, f"has min {lo} above max {hi}")
            zone_maps[col] = ZoneMap(lo, hi)
        return cls(
            name=name,
            directory=parent_directory / name,
            n_rows=r.field(data, "n_rows", "count", field),
            zone_maps=zone_maps,
        )


def partition_boundaries(n_rows: int, n_partitions: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` row ranges covering *n_rows*."""
    k = max(1, min(n_partitions, n_rows))
    cuts = [round(i * n_rows / k) for i in range(k + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(k)]
