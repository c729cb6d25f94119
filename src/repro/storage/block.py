"""The 64 KB storage block.

C-Store stores each column as a series of 64 KB blocks; all I/O, buffering,
and model accounting happens at block granularity. A block's descriptor keeps
the position range it covers and the min/max value it contains, enabling both
positional block skipping (LM re-access, DS3/DS4) and value-based block
skipping (selective predicates over sorted columns).
"""

from __future__ import annotations

from dataclasses import dataclass

BLOCK_SIZE = 64 * 1024
"""Maximum payload bytes per storage block."""


@dataclass(frozen=True)
class BlockDescriptor:
    """Catalog entry for one block of a column file.

    Attributes:
        index: ordinal of the block within its file.
        offset: byte offset of the payload within the file.
        nbytes: payload length in bytes.
        start_pos: position (row ordinal) of the first value covered.
        n_values: number of column positions covered by the block.
        min_value: smallest value stored in the block.
        max_value: largest value stored in the block.
        crc32: checksum of the payload bytes (None for legacy files).
    """

    index: int
    offset: int
    nbytes: int
    start_pos: int
    n_values: int
    min_value: float
    max_value: float
    crc32: int | None = None

    @property
    def end_pos(self) -> int:
        """One past the last position covered (half-open)."""
        return self.start_pos + self.n_values

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "start_pos": self.start_pos,
            "n_values": self.n_values,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "crc32": self.crc32,
        }
