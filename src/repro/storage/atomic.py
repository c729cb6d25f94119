"""fsync/rename primitives for the catalog's atomic commit protocol.

Every multi-file mutation of the read store (tuple-mover merges, projection
creates/drops, advisor applies) follows the classic staged-commit recipe:

1. build the new files under a ``tmp-<generation>-*/`` staging directory;
2. fsync every staged file, then every staged directory (children first);
3. rename the staging directory to its versioned final name;
4. fsync the parent directory so the rename is durable;
5. commit by ``os.replace`` of the generation-numbered manifest — the
   single atomic switch that makes the new files *the* catalog state;
6. only then delete superseded directories and unlink the WAL.

A crash anywhere before step 5 leaves the old manifest pointing at the old
files; the staged/renamed debris is garbage-collected on the next open. A
crash after step 5 leaves the new state committed with at most some
deletable debris. This module provides steps 2–5 as free functions so the
catalog and the delta store share one implementation — and one set of
:class:`~repro.faults.CrashInjector` hooks, which is what lets the crash
differential enumerate every boundary deterministically; the append-only
logs' torn-tail repair (:mod:`repro.storage.jsonlines`) fsyncs through
:func:`fsync_file` too.

Each function takes an optional ``crash`` injector (consulted *before* the
real I/O: "the process died just as it was about to …") and an optional
``disk`` model so fsyncs are charged to the simulated disk clock.
"""

from __future__ import annotations

import os
from pathlib import Path


def _hook(crash, op: str, path) -> None:
    if crash is not None:
        crash.hook(op, str(path))


def _charge(disk) -> None:
    if disk is not None:
        disk.charge_fsync()


def fsync_file(path: str | Path, crash=None, disk=None) -> None:
    """fsync one file's contents to stable storage."""
    _hook(crash, "file.fsync", path)
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _charge(disk)


def fsync_dir(path: str | Path, crash=None, disk=None) -> None:
    """fsync one directory so its entries (renames, unlinks) are durable."""
    _hook(crash, "dir.fsync", path)
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _charge(disk)


def fsync_tree(root: str | Path, crash=None, disk=None) -> None:
    """fsync every file, then every directory, under *root* (root last).

    The walk order is sorted so the boundary sequence — and therefore the
    crash differential's step numbering — is identical run over run.
    """
    root = Path(root)
    dirs: list[Path] = []
    for dirpath, dirnames, filenames in os.walk(root, topdown=True):
        dirnames.sort()
        dirs.append(Path(dirpath))
        for fname in sorted(filenames):
            fsync_file(Path(dirpath) / fname, crash=crash, disk=disk)
    # Children before parents, so a directory is synced only after the
    # entries it records are themselves durable.
    for directory in reversed(dirs):
        fsync_dir(directory, crash=crash, disk=disk)


def rename_dir(src: str | Path, dst: str | Path, crash=None) -> None:
    """Rename a staged directory to its final name (same filesystem)."""
    _hook(crash, "rename", dst)
    os.rename(str(src), str(dst))


def replace_file(tmp: str | Path, final: str | Path, crash=None) -> None:
    """Atomically swap *final* to the contents staged at *tmp*."""
    _hook(crash, "replace", final)
    os.replace(str(tmp), str(final))


def write_file_atomic(
    path: str | Path, text: str, crash=None, disk=None
) -> None:
    """Write *text* so *path* only ever holds the old or the new contents.

    The write-fsync-replace-fsync dance: stage at ``<path>.tmp``, fsync the
    staged bytes, ``os.replace`` into place, fsync the parent directory.
    Used for the catalog manifest (where the replace IS the commit point)
    and for projection metadata.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    _hook(crash, "file.write", path)
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
    fsync_file(tmp, crash=crash, disk=disk)
    replace_file(tmp, path, crash=crash)
    fsync_dir(path.parent, crash=crash, disk=disk)
