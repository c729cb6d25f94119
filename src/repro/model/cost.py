"""Per-operator cost formulas (paper Figures 1-6) and stats replay.

Every function returns an :class:`OperatorCost` with separate CPU and I/O
microsecond components, computed exactly as the paper's figures specify. The
notation follows Table 1:

=============  =====================================================
``|C|``        number of disk blocks of a column      (``meta.blocks``)
``||C||``      number of tuples in a column           (``meta.tuples``)
``RL``         average run length (1 if uncompressed) (``meta.run_length``)
``F``          fraction of the column in the pool     (``meta.resident``)
``SF``         predicate selectivity factor
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import QueryStats
from .constants import ModelConstants


@dataclass(frozen=True)
class ColumnMeta:
    """The model's per-column inputs."""

    blocks: int
    tuples: int
    run_length: float = 1.0
    resident: float = 0.0  # the model's F

    @classmethod
    def from_file(cls, column_file, resident: float = 0.0) -> "ColumnMeta":
        return cls(
            blocks=column_file.n_blocks,
            tuples=column_file.n_values,
            run_length=column_file.avg_run_length,
            resident=resident,
        )


@dataclass(frozen=True)
class OperatorCost:
    """CPU and I/O microseconds for one operator application."""

    cpu_us: float = 0.0
    io_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.cpu_us + self.io_us

    def __add__(self, other: "OperatorCost") -> "OperatorCost":
        return OperatorCost(self.cpu_us + other.cpu_us, self.io_us + other.io_us)


def _scan_io(
    meta: ColumnMeta,
    k: ModelConstants,
    block_fraction: float = 1.0,
    sequential: bool = True,
):
    """The model's I/O term, matched to the executor's disk accounting.

    The paper writes ``(|C|/PF * SEEK + f*|C| * READ) * (1 - F)``; our disk
    model (like any properly pipelined scan) pays a seek only when the head
    actually moves, so sequential scans pay one seek per scan while scattered
    positional access pays one per touched block group.
    """
    blocks_read = block_fraction * meta.blocks
    if blocks_read <= 0:
        return 0.0
    seeks = max(blocks_read / k.pf, 1.0) if not sequential else 1.0
    return (seeks * k.seek + blocks_read * k.read) * (1.0 - meta.resident)


def _scan_read_fraction(meta: ColumnMeta, sf: float) -> float:
    """Fraction of blocks a predicate scan must read.

    Columns with substantial run structure are (semi-)sorted, so matches are
    localized and min/max block skipping prunes the rest — the effect that
    lets pipelined plans "skip entire LINENUM blocks" at low selectivity.
    """
    if meta.blocks == 0:
        return 0.0
    if meta.run_length > 4.0:
        return min(1.0, sf + 2.0 / meta.blocks)
    return 1.0


def ds_case1_cost(
    meta: ColumnMeta,
    sf: float,
    k: ModelConstants,
    read_fraction: float | None = None,
) -> OperatorCost:
    """DS_Scan-Case1 (Figure 1): scan + predicate -> positions.

    ``read_fraction`` overrides the run-length clusteredness heuristic with
    an exact block-overlap measurement when the caller has descriptors.
    """
    fraction = (
        read_fraction if read_fraction is not None
        else _scan_read_fraction(meta, sf)
    )
    cpu = (
        meta.blocks * k.bic
        + fraction * meta.tuples * (k.ticcol + k.fc) / meta.run_length
        + sf * meta.tuples * k.fc
    )
    return OperatorCost(cpu_us=cpu, io_us=_scan_io(meta, k, block_fraction=fraction))


def ds_case2_cost(
    meta: ColumnMeta,
    sf: float,
    k: ModelConstants,
    read_fraction: float | None = None,
) -> OperatorCost:
    """DS_Scan-Case2: as Case 1 but step 5 emits (pos, value) pair tuples."""
    fraction = (
        read_fraction if read_fraction is not None
        else _scan_read_fraction(meta, sf)
    )
    cpu = (
        meta.blocks * k.bic
        + fraction * meta.tuples * (k.ticcol + k.fc) / meta.run_length
        + sf * meta.tuples * (k.tictup + k.fc)
    )
    return OperatorCost(cpu_us=cpu, io_us=_scan_io(meta, k, block_fraction=fraction))


def ds_case3_cost(
    meta: ColumnMeta,
    poslist: int,
    pos_run_length: float,
    k: ModelConstants,
    reaccess: bool = False,
    seek_fragments: float | None = None,
) -> OperatorCost:
    """DS_Scan-Case3 (Figure 2): position-filtered value extraction.

    ``reaccess=True`` is the multi-column / pipelined case: the column's
    blocks were already touched earlier in the plan, so F = 1 and I/O -> 0.
    ``poslist`` approximates the SF * |C| block-read lower bound of step 2.
    ``seek_fragments`` caps the seek count when the positions are known to be
    localized into that many contiguous slabs (predicates over sorted
    columns; 1 for a full-range extraction, which then reads like a DS1
    scan); by default every touched block is assumed to need a seek.
    """
    groups = poslist / max(pos_run_length, 1.0)
    cpu = meta.blocks * k.bic + groups * k.ticcol + groups * (k.ticcol + k.fc)
    if reaccess or meta.tuples == 0:
        return OperatorCost(cpu_us=cpu, io_us=0.0)
    blocks_read = min(poslist / meta.tuples, 1.0) * meta.blocks
    if blocks_read <= 0:
        return OperatorCost(cpu_us=cpu, io_us=0.0)
    seeks = max(blocks_read / k.pf, 1.0)
    if seek_fragments is not None:
        seeks = min(seeks, max(float(seek_fragments), 1.0))
    io = (seeks * k.seek + blocks_read * k.read) * (1.0 - meta.resident)
    return OperatorCost(cpu_us=cpu, io_us=io)


def ds_case4_cost(
    meta: ColumnMeta, em_tuples: int, sf: float, k: ModelConstants
) -> OperatorCost:
    """DS_Scan-Case4 (Figure 3): extend EM tuples through a column."""
    cpu = (
        meta.blocks * k.bic
        + em_tuples * k.tictup
        + em_tuples * ((k.fc + k.tictup) + k.fc)
        + sf * em_tuples * k.tictup
    )
    # Input positions are ascending, so only blocks covering them are read
    # (in order) — EM-pipelined's block-skipping advantage.
    fraction = min(em_tuples / meta.tuples, 1.0) if meta.tuples else 0.0
    return OperatorCost(
        cpu_us=cpu, io_us=_scan_io(meta, k, block_fraction=fraction)
    )


@dataclass(frozen=True)
class AndCost:
    """Inputs for one AND operand: positions and their average run length."""

    poslist: int
    run_length: float = 1.0


def and_cost(inputs: list[AndCost], k: ModelConstants) -> OperatorCost:
    """AND (Figure 4): streaming intersection of k position lists.

    For bit-string inputs pass ``run_length=32`` (or 64): the paper's Case 2
    replaces ``||inpos||/RL`` with ``||inpos||/wordsize``.
    """
    groups = [i.poslist / max(i.run_length, 1.0) for i in inputs]
    m = max(groups, default=0.0)
    cpu = (
        sum(k.ticcol * g for g in groups)
        + m * (len(inputs) - 1) * k.fc
        + m * k.ticcol * k.fc
    )
    return OperatorCost(cpu_us=cpu, io_us=0.0)


def merge_cost(n_tuples: int, degree: int, k: ModelConstants) -> OperatorCost:
    """MERGE (Figure 5): stitch k value vectors into n k-ary tuples."""
    cpu = n_tuples * degree * k.fc + n_tuples * degree * k.fc
    return OperatorCost(cpu_us=cpu, io_us=0.0)


def spc_cost(
    metas: list[ColumnMeta], sfs: list[float], k: ModelConstants
) -> OperatorCost:
    """SPC (Figure 6): scan all columns, short-circuit predicates, construct.

    ``metas[i]`` and ``sfs[i]`` must be ordered as the predicates are applied;
    columns without a predicate carry ``sf = 1``.
    """
    cpu = 0.0
    io = 0.0
    running_sf = 1.0
    for meta, sf in zip(metas, sfs):
        cpu += meta.blocks * k.bic
        cpu += meta.tuples * k.fc * running_sf
        io += _scan_io(meta, k)
        running_sf *= sf
    if metas:
        cpu += metas[-1].tuples * k.tictup * running_sf
    return OperatorCost(cpu_us=cpu, io_us=io)


def output_cost(n_tuples: int, k: ModelConstants) -> OperatorCost:
    """Final result iteration: numOutTuples * TICTUP (Section 3.7)."""
    return OperatorCost(cpu_us=n_tuples * k.tictup, io_us=0.0)


def simulated_time_ms(stats: QueryStats, k: ModelConstants) -> float:
    """Replay observed execution counters through the model's constants.

    This is the "simulated time" benchmarks report alongside wall-clock: the
    model's per-unit costs applied to what the executor actually did (blocks
    read, iterator steps taken, tuples stitched), rather than to a-priori
    estimates.
    """
    cpu_us = (
        stats.block_iterations * k.bic
        + stats.column_iterations * k.ticcol
        + stats.tuple_iterations * k.tictup
        + stats.function_calls * k.fc
    )
    return (cpu_us + stats.simulated_io_us) / 1000.0


def replay_breakdown(stats: QueryStats, k: ModelConstants) -> dict[str, float]:
    """Per-term milliseconds of the simulated-time replay.

    The EXPLAIN ANALYZE renderer uses this to show *which* Table 1 term a
    span's simulated time comes from; the values sum to
    :func:`simulated_time_ms` exactly.
    """
    return {
        "BIC_ms": stats.block_iterations * k.bic / 1000.0,
        "TICCOL_ms": stats.column_iterations * k.ticcol / 1000.0,
        "TICTUP_ms": stats.tuple_iterations * k.tictup / 1000.0,
        "FC_ms": stats.function_calls * k.fc / 1000.0,
        "IO_ms": stats.simulated_io_us / 1000.0,
    }
