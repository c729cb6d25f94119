"""Disk cost model.

Charges the analytical model's I/O terms for every physical block access:
``SEEK`` whenever the head must move (a non-sequential block request, at most
once per prefetch window) and ``READ`` per block transferred. Defaults come
from Table 2 of the paper (2500 us seek, 1000 us per 64 KB block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics import QueryStats


@dataclass
class DiskModel:
    """Accounting-only disk: real bytes come from the OS, time from the model.

    Attributes:
        seek_us: cost of one head movement (Table 2 SEEK).
        read_us: cost of transferring one 64 KB block (Table 2 READ).
        prefetch_blocks: the model's PF — consecutive blocks fetched per seek.
        fsync_us: cost of one durable flush (WAL append, staged-commit
            fsync); a seek plus device cache flush on 2006 hardware.
    """

    seek_us: float = 2500.0
    read_us: float = 1000.0
    prefetch_blocks: int = 1
    fsync_us: float = 3000.0

    total_seeks: int = field(default=0, init=False)
    total_reads: int = field(default=0, init=False)
    total_fsyncs: int = field(default=0, init=False)

    @classmethod
    def hdd_2006(cls, prefetch_blocks: int = 1) -> "DiskModel":
        """The paper's testbed: a 2006 spinning disk (Table 2 values)."""
        return cls(seek_us=2500.0, read_us=1000.0,
                   prefetch_blocks=prefetch_blocks)

    @classmethod
    def sata_ssd(cls, prefetch_blocks: int = 1) -> "DiskModel":
        """A SATA SSD: ~60 us access latency, ~500 MB/s (64 KB in ~130 us)."""
        return cls(seek_us=60.0, read_us=130.0,
                   prefetch_blocks=prefetch_blocks)

    @classmethod
    def nvme_ssd(cls, prefetch_blocks: int = 1) -> "DiskModel":
        """An NVMe SSD: ~15 us access latency, ~5 GB/s (64 KB in ~13 us)."""
        return cls(seek_us=15.0, read_us=13.0,
                   prefetch_blocks=prefetch_blocks)

    def charge_read(self, stats: QueryStats, sequential: bool) -> None:
        """Charge one block read; a seek too unless it follows the previous block."""
        self.total_reads += 1
        stats.block_reads += 1
        stats.simulated_io_us += self.read_us
        if not sequential:
            self.total_seeks += 1
            stats.disk_seeks += 1
            stats.simulated_io_us += self.seek_us

    def charge_fsync(self) -> None:
        """Charge one durable flush to the simulated clock (write path)."""
        self.total_fsyncs += 1

    def reset(self) -> None:
        self.total_seeks = 0
        self.total_reads = 0
        self.total_fsyncs = 0
