"""The one reader of the store's JSON-lines logs, and the one tail repair.

A table's write-ahead log (:mod:`repro.delta`) and each query-log segment
(:mod:`repro.qlog`) are written by appends of one JSON object per line,
and read under one rule. A line exists once its ``\n`` is on disk and it
parses. Only the final line may be torn: unterminated (even if its bytes
parse, for that append never returned) or unparseable. Any other bad line
raises one :class:`~repro.errors.LogLineError` naming file and line.

:func:`truncate_torn_tail` cuts a torn tail off with ``os.truncate`` and
fsyncs the file through :func:`~repro.storage.atomic.fsync_file`, crash
hook included. Intact bytes are never rewritten.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import NamedTuple

from ..errors import LogLineError
from .atomic import fsync_file

logger = logging.getLogger(__name__)


class JsonLines(NamedTuple):
    """One log file as :func:`read_json_lines` read it."""

    path: Path
    #: The parsed object of every intact line, in file order.
    records: list
    #: The intact lines' bytes (without ``\n``), parallel to *records*.
    lines: list[bytes]
    #: Byte length of the intact lines: where a torn tail starts.
    intact_bytes: int
    #: Why the final line is torn, or None when the log ends intact.
    torn: str | None


def read_json_lines(
    path: str | Path, kind: str, torn_tail_ok: bool = True
) -> JsonLines:
    """Read *path* under the log rule; never writes.

    *kind* names the log in a refusal (``"WAL"``, ``"query-log"``). With
    *torn_tail_ok* False (a sealed query-log segment) the final line must
    be intact too.
    """
    path = Path(path)
    *lines, tail = path.read_bytes().split(b"\n")
    total = len(lines) + bool(tail)  # a torn final line included
    records, torn = [], "no trailing newline" if tail else None
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError as exc:  # UnicodeDecodeError included
            torn = str(exc)
            break
    bad = len(records) + 1
    if torn is not None and not (torn_tail_ok and bad == total):
        raise LogLineError(path, bad, f"corrupt {kind} line {bad} of "
                           f"{total} (not the torn-tail case): {torn}")
    lines = lines[:len(records)]
    return JsonLines(path, records, lines, sum(map(len, lines)) + len(lines),
                     torn)


def truncate_torn_tail(log: JsonLines, crash=None, disk=None) -> None:
    """Cut *log*'s torn final line off its file and make the cut durable."""
    logger.warning(
        "%s: truncating torn final line (%d intact lines kept): %s",
        log.path, len(log.records), log.torn,
    )
    os.truncate(log.path, log.intact_bytes)
    fsync_file(log.path, crash=crash, disk=disk)
