"""Database catalog: a directory of projections behind an atomic manifest.

The catalog's on-disk source of truth is ``manifest.json`` at the database
root: a generation-numbered map from projection name to the directory
holding its current build, plus per-table ``wal_applied`` markers the tuple
mover uses to make WAL truncation restartable. Every mutation — create,
replace, drop, and the tuple mover's multi-projection merge — stages new
files under ``tmp-<generation>-*/``, fsyncs them, renames them into place,
and commits with a single ``os.replace`` of the manifest (see
:mod:`repro.storage.atomic`). A crash at any boundary leaves either the old
manifest (staged debris is garbage-collected on the next open) or the new
one (superseded directories become the debris) — never a half-visible
catalog.

Roots created before the manifest existed are adopted on first open: the
legacy directory glob discovers their projections and a generation-0
manifest is committed over them.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..dtypes import ColumnSchema
from ..errors import CatalogError
from .atomic import fsync_dir, fsync_tree, rename_dir, write_file_atomic
from .metadata import MetadataReader
from .projection import META_FILE, Projection

#: The commit point: whichever build set this file names is the catalog.
MANIFEST_FILE = "manifest.json"

#: Staging-directory prefix; anything matching ``tmp-*`` at the root is an
#: uncommitted build and is deleted on open.
STAGING_PREFIX = "tmp-"


class Manifest(NamedTuple):
    """A decoded ``manifest.json``: see :func:`read_manifest`."""

    generation: int
    #: Projection name -> directory name under the root.
    projections: dict[str, str]
    #: Table -> WAL records a committed merge already folded in.
    wal_applied: dict[str, int]


def read_manifest(path: Path) -> Manifest:
    """Decode the catalog manifest at *path*: the one reader of the format
    :meth:`Catalog._write_manifest` writes, shared by the open and the
    scrubber.

    Raises:
        MetadataError: the file is unparseable, ``generation`` is not a
            non-negative integer, ``projections`` not a map of names to
            directory names, or a ``wal_applied`` count not a
            non-negative integer; the message names the file and the field.
    """
    r = MetadataReader(path, "corrupt catalog manifest")
    data = r.parse(path.read_bytes())
    generation = r.field(data, "generation", "count")
    projections = r.field(data, "projections", "object")
    for name, dirname in projections.items():
        r.value(dirname, "text", f"projections.{name}")
    wal_applied = r.field(data, "wal_applied", "object", default={})
    for table, count in wal_applied.items():
        r.value(count, "count", f"wal_applied.{table}")
    return Manifest(generation, projections, wal_applied)


def candidates(projections: dict[str, Projection], name: str
               ) -> list[Projection]:
    """Projections usable for *name*: its own, or those anchored to it."""
    out = [projections[name]] if name in projections else []
    return out + [
        proj for proj in projections.values()
        if proj.anchor == name and proj.name != name
    ]


def table_schemas(projections: dict[str, Projection], table: str
                  ) -> dict[str, ColumnSchema]:
    """Column schemas of logical *table* (``{}`` when no projection is
    *table* or anchored to it): the union over its :func:`candidates`, the
    first projection naming a column winning. What writes encode against,
    and what WAL recovery and the scrubber type each logged record
    against."""
    schemas: dict[str, ColumnSchema] = {}
    for proj in candidates(projections, table):
        for col in proj.column_names:
            schemas.setdefault(col, proj.schema(col))
    return schemas


class Catalog:
    """Tracks every projection stored under one database root directory."""

    def __init__(self, root: str | Path, crash=None, disk=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._crash = crash
        self._disk = disk
        self._projections: dict[str, Projection] = {}
        #: Projection name -> directory name under the root (versioned as
        #: ``<name>.g<generation>`` once a build has been replaced).
        self._dirnames: dict[str, str] = {}
        self.generation = 0
        #: Table -> count of WAL records already folded into the read
        #: store by a committed merge whose WAL truncation has not been
        #: confirmed yet (see :meth:`set_wal_applied`).
        self.wal_applied: dict[str, int] = {}
        self._gc_staging()
        if self.manifest_path.exists():
            self._load_manifest()
            self._gc_unreferenced()
        else:
            self._discover()
            # Adopt legacy (or brand-new) roots under a generation-0
            # manifest so every later mutation has a commit point.
            self._write_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_FILE

    # ------------------------------------------------------------- recovery

    def _gc_staging(self) -> None:
        """Delete uncommitted debris left by a crash mid-mutation."""
        for path in sorted(self.root.glob(f"{STAGING_PREFIX}*")):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        # A crash between staging and replacing the manifest leaves its
        # staged copy behind; the committed manifest is still the truth.
        (self.root / f"{MANIFEST_FILE}.tmp").unlink(missing_ok=True)

    def _load_manifest(self) -> None:
        manifest = read_manifest(self.manifest_path)
        self.generation = manifest.generation
        self.wal_applied = dict(manifest.wal_applied)
        for name, dirname in sorted(manifest.projections.items()):
            self._projections[name] = Projection.open(self.root / dirname)
            self._dirnames[name] = dirname

    def _gc_unreferenced(self) -> None:
        """Delete projection directories the manifest no longer names.

        A crash after the manifest commit but before post-commit cleanup
        leaves the superseded build (or a dropped projection's files) on
        disk; the manifest decides, so they go.
        """
        referenced = set(self._dirnames.values())
        for meta in sorted(self.root.glob(f"*/{META_FILE}")):
            if meta.parent.name not in referenced:
                shutil.rmtree(meta.parent, ignore_errors=True)

    def _discover(self) -> None:
        # Single-level glob on purpose: partition children live one level
        # deeper (<projection>/partNNNN/) and are reachable only through
        # their parent's metadata, never as catalog entries of their own.
        for meta in sorted(self.root.glob(f"*/{META_FILE}")):
            proj = Projection.open(meta.parent)
            self._projections[proj.name] = proj
            self._dirnames[proj.name] = meta.parent.name

    # --------------------------------------------------------------- commit

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {
                "generation": self.generation,
                "projections": dict(sorted(self._dirnames.items())),
                "wal_applied": {
                    t: n for t, n in sorted(self.wal_applied.items()) if n
                },
            },
            indent=2,
            sort_keys=True,
        )
        write_file_atomic(
            self.manifest_path, payload, crash=self._crash, disk=self._disk
        )

    def _final_dirname(self, name: str, generation: int) -> str:
        """Where a build of *name* committed at *generation* should live."""
        if name not in self._dirnames and not (self.root / name).exists():
            return name
        return f"{name}.g{generation}"

    def _commit_builds(
        self, builds: list[dict], wal_marker: tuple[str, int] | None = None
    ) -> list[Projection]:
        """Stage, fsync, rename, and manifest-commit a set of builds.

        Each entry of *builds* holds ``Projection.create`` keyword
        arguments plus ``name``. All builds land in ONE manifest commit,
        which is what makes the tuple mover's multi-projection merge
        atomic; *wal_marker* ``(table, records)`` rides in the same commit
        so recovery can tell a merged-but-untruncated WAL from a live one.
        """
        generation = self.generation + 1
        staged: list[tuple[str, str, str | None]] = []
        for build in builds:
            name = build["name"]
            staging = self.root / f"{STAGING_PREFIX}{generation}-{name}"
            Projection.create(
                staging,
                name,
                build["data"],
                build["schemas"],
                build["sort_keys"],
                build["encodings"],
                presorted=build.get("presorted", False),
                anchor=build.get("anchor"),
                partitions=build.get("partitions", 1),
            )
            fsync_tree(staging, crash=self._crash, disk=self._disk)
            dirname = self._final_dirname(name, generation)
            rename_dir(staging, self.root / dirname, crash=self._crash)
            staged.append((name, dirname, self._dirnames.get(name)))
        fsync_dir(self.root, crash=self._crash, disk=self._disk)

        self.generation = generation
        for name, dirname, _old in staged:
            self._dirnames[name] = dirname
        if wal_marker is not None:
            table, records = wal_marker
            self.wal_applied[table] = records
        self._write_manifest()  # <- the commit point

        out: list[Projection] = []
        for name, dirname, old in staged:
            self._projections[name] = Projection.open(self.root / dirname)
            out.append(self._projections[name])
            if old is not None and old != dirname:
                if self._crash is not None:
                    self._crash.hook("rmtree", self.root / old)
                shutil.rmtree(self.root / old, ignore_errors=True)
        return out

    def set_wal_applied(self, table: str, records: int) -> None:
        """Commit the per-table merged-WAL marker (0 clears it).

        The tuple mover sets the marker in the same commit that publishes
        the merged projections, unlinks the WAL, then clears it here;
        recovery clears it only once the log is fully applied or already
        gone. Either way the clear is itself a manifest commit, so the
        marker can never disagree with the files.
        """
        if records == 0 and not self.wal_applied.get(table):
            self.wal_applied.pop(table, None)
            return
        if records:
            self.wal_applied[table] = records
        else:
            self.wal_applied.pop(table, None)
        self.generation += 1
        self._write_manifest()

    # ------------------------------------------------------------ mutations

    def create_projection(
        self,
        name: str,
        data: dict[str, np.ndarray],
        schemas: dict[str, ColumnSchema],
        sort_keys: list[str],
        encodings: dict[str, list[str]],
        presorted: bool = False,
        anchor: str | None = None,
        partitions: int = 1,
    ) -> Projection:
        """Create and register a new projection (fails if the name exists).

        ``partitions`` above one range-partitions the projection on its sort
        order: contiguous row chunks become child projections with zone maps
        (see :mod:`repro.storage.partition`). The build is staged and
        manifest-committed, so a crash mid-create leaves no trace.
        """
        if name in self._projections:
            raise CatalogError(f"projection {name!r} already exists")
        return self._commit_builds(
            [
                dict(
                    name=name,
                    data=data,
                    schemas=schemas,
                    sort_keys=sort_keys,
                    encodings=encodings,
                    presorted=presorted,
                    anchor=anchor,
                    partitions=partitions,
                )
            ]
        )[0]

    def commit_merge(
        self, table: str, builds: list[dict], wal_records: int
    ) -> list[Projection]:
        """Publish every projection of *table* rebuilt by the tuple mover.

        One manifest commit covers all the builds plus the
        ``wal_applied[table] = wal_records`` marker; the caller truncates
        the WAL strictly afterwards and then clears the marker via
        :meth:`set_wal_applied`.
        """
        return self._commit_builds(builds, wal_marker=(table, wal_records))

    def drop_projection(self, name: str) -> None:
        """Delete a projection: manifest-commit the removal, then its files.

        Ordering matters — a crash before the commit resurrects the
        projection (the drop was never acknowledged); a crash after it
        leaves an unreferenced directory the next open garbage-collects.
        """
        proj = self.get(name)
        del self._projections[name]
        del self._dirnames[name]
        self.generation += 1
        self._write_manifest()
        if self._crash is not None:
            self._crash.hook("rmtree", proj.directory)
        shutil.rmtree(proj.directory, ignore_errors=True)

    # -------------------------------------------------------------- lookups

    def candidates(self, name: str) -> list[Projection]:
        """See :func:`candidates`."""
        return candidates(self._projections, name)

    def table_schemas(self, table: str) -> dict[str, ColumnSchema]:
        """See :func:`table_schemas`.

        Raises:
            CatalogError: no projection is *table* or anchored to it.
        """
        schemas = table_schemas(self._projections, table)
        if not schemas:
            raise CatalogError(f"unknown projection or table {table!r}")
        return schemas

    def has(self, name: str) -> bool:
        """True when *name* is a projection or an anchor table name."""
        return bool(self.candidates(name))

    def get(self, name: str) -> Projection:
        try:
            return self._projections[name]
        except KeyError:
            raise CatalogError(f"unknown projection {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._projections

    def names(self) -> list[str]:
        return sorted(self._projections)
