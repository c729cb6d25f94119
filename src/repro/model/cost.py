"""Per-operator cost formulas (paper Figures 1-6) and stats replay.

Every formula counts the Table 1 events its figure specifies and returns
them as an :class:`OperatorCost`; :func:`price` is the one place a count
meets its Table 2 constant, for predictions and replay alike. The notation
follows Table 1:

=============  =====================================================
``|C|``        number of disk blocks of a column      (``meta.blocks``)
``||C||``      number of tuples in a column           (``meta.tuples``)
``RL``         average run length (1 if uncompressed) (``meta.run_length``)
``F``          fraction of the column in the pool     (``meta.resident``)
``SF``         predicate selectivity factor
=============  =====================================================
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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


class OperatorCost(NamedTuple):
    """The Table 1 events one operator application performs.

    Each count is named after the :class:`~repro.metrics.QueryStats`
    counter it predicts; the disk counts already carry the ``(1 - F)``
    factor. ``and_products`` counts Figure 4's ``m·TICCOL·FC`` term, priced
    at the product of two constants.
    """

    block_iterations: float = 0.0
    column_iterations: float = 0.0
    tuple_iterations: float = 0.0
    function_calls: float = 0.0
    and_products: float = 0.0
    disk_seeks: float = 0.0
    block_reads: float = 0.0

    def __add__(self, other: "OperatorCost") -> "OperatorCost":
        return tuple.__new__(OperatorCost, map(operator.add, self, other))


#: Each event and the :class:`ModelConstants` fields whose product prices
#: one occurrence of it, in :class:`OperatorCost` field order, CPU events
#: first, then the disk events.
EVENT_PRICES = (
    ("block_iterations", ("bic",)),
    ("column_iterations", ("ticcol",)),
    ("tuple_iterations", ("tictup",)),
    ("function_calls", ("fc",)),
    ("and_products", ("ticcol", "fc")),
    ("disk_seeks", ("seek",)),
    ("block_reads", ("read",)),
)
assert tuple(name for name, _ in EVENT_PRICES) == OperatorCost._fields


@functools.lru_cache(maxsize=64)
def _unit_prices(k: ModelConstants) -> tuple[float, ...]:
    """Microseconds per occurrence of each event under *k*."""
    return tuple(math.prod(getattr(k, c) for c in constants)
                 for _name, constants in EVENT_PRICES)


def price(events: OperatorCost, k: ModelConstants) -> tuple[float, float]:
    """``(cpu_us, io_us)`` of *events* under *k*: the dot product of the
    counts with their :data:`EVENT_PRICES`, summed in table order."""
    terms = map(operator.mul, events, _unit_prices(k))
    bic, ticcol, tictup, fc, and_products, seek, read = terms
    return bic + ticcol + tictup + fc + and_products, seek + read


def disk_reads(meta: ColumnMeta, blocks: float, seeks: float = 1.0) -> dict:
    """:class:`OperatorCost` keywords for reading *blocks* of a column in
    *seeks* head movements, less the fraction F the pool already holds.

    The paper writes ``(|C|/PF * SEEK + f*|C| * READ) * (1 - F)``; our disk
    model (like any properly pipelined scan) pays a seek only when the head
    actually moves, so a sequential scan pays one seek (the default).
    """
    if blocks <= 0:
        return {}
    cold = 1.0 - meta.resident
    return {"disk_seeks": seeks * cold, "block_reads": blocks * cold}


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
    meta: ColumnMeta, sf: float, read_fraction: float | None = None
) -> OperatorCost:
    """DS_Scan-Case1 (Figure 1): scan + predicate -> positions.

    ``read_fraction`` overrides the run-length clusteredness heuristic with
    an exact block-overlap measurement when the caller has descriptors.
    """
    fraction = (
        read_fraction if read_fraction is not None
        else _scan_read_fraction(meta, sf)
    )
    steps = fraction * meta.tuples / meta.run_length
    return OperatorCost(
        block_iterations=meta.blocks,
        column_iterations=steps,
        function_calls=steps + sf * meta.tuples,
        **disk_reads(meta, fraction * meta.blocks),
    )


def ds_case2_cost(
    meta: ColumnMeta, sf: float, read_fraction: float | None = None
) -> OperatorCost:
    """DS_Scan-Case2: as Case 1 but step 5 emits (pos, value) pair tuples."""
    case1 = ds_case1_cost(meta, sf, read_fraction)
    return case1._replace(tuple_iterations=sf * meta.tuples)


def ds_case3_cost(
    meta: ColumnMeta,
    poslist: int,
    pos_run_length: float,
    pf: int,
    reaccess: bool = False,
    seek_fragments: float | None = None,
) -> OperatorCost:
    """DS_Scan-Case3 (Figure 2): position-filtered value extraction.

    ``reaccess=True`` is the multi-column / pipelined case: the column's
    blocks were already touched earlier in the plan, so F = 1 and I/O -> 0.
    ``poslist`` approximates the SF * |C| block-read lower bound of step 2.
    Scattered blocks pay a seek per prefetch window of *pf* blocks;
    ``seek_fragments`` caps the seek count when the positions are known to
    be localized into that many contiguous slabs (predicates over sorted
    columns; 1 for a full-range extraction, which then reads like a DS1
    scan).
    """
    groups = poslist / max(pos_run_length, 1.0)
    cpu = OperatorCost(
        block_iterations=meta.blocks,
        column_iterations=2 * groups,
        function_calls=groups,
    )
    if reaccess or meta.tuples == 0:
        return cpu
    blocks_read = min(poslist / meta.tuples, 1.0) * meta.blocks
    seeks = max(blocks_read / pf, 1.0)
    if seek_fragments is not None:
        seeks = min(seeks, max(float(seek_fragments), 1.0))
    return cpu._replace(**disk_reads(meta, blocks_read, seeks))


def ds_case4_cost(meta: ColumnMeta, em_tuples: int, sf: float) -> OperatorCost:
    """DS_Scan-Case4 (Figure 3): extend EM tuples through a column."""
    # Input positions are ascending, so only blocks covering them are read
    # (in order) — EM-pipelined's block-skipping advantage.
    fraction = min(em_tuples / meta.tuples, 1.0) if meta.tuples else 0.0
    return OperatorCost(
        block_iterations=meta.blocks,
        tuple_iterations=(2 + sf) * em_tuples,
        function_calls=2 * em_tuples,
        **disk_reads(meta, fraction * meta.blocks),
    )


@dataclass(frozen=True)
class AndCost:
    """Inputs for one AND operand: positions and their average run length."""

    poslist: int
    run_length: float = 1.0


def and_cost(inputs: list[AndCost]) -> OperatorCost:
    """AND (Figure 4): streaming intersection of k position lists.

    For bit-string inputs pass ``run_length=32`` (or 64): the paper's Case 2
    replaces ``||inpos||/RL`` with ``||inpos||/wordsize``.
    """
    groups = [i.poslist / max(i.run_length, 1.0) for i in inputs]
    m = max(groups, default=0.0)
    return OperatorCost(
        column_iterations=sum(groups),
        function_calls=m * (len(inputs) - 1),
        and_products=m,
    )


def merge_cost(n_tuples: int, degree: int) -> OperatorCost:
    """MERGE (Figure 5): stitch k value vectors into n k-ary tuples."""
    return OperatorCost(function_calls=2 * n_tuples * degree)


def spc_cost(metas: list[ColumnMeta], sfs: list[float]) -> OperatorCost:
    """SPC (Figure 6): scan all columns, short-circuit predicates, construct.

    ``metas[i]`` and ``sfs[i]`` must be ordered as the predicates are applied;
    columns without a predicate carry ``sf = 1``.
    """
    total = OperatorCost()
    running_sf = 1.0
    for meta, sf in zip(metas, sfs):
        total += OperatorCost(
            block_iterations=meta.blocks,
            function_calls=meta.tuples * running_sf,
            **disk_reads(meta, meta.blocks),
        )
        running_sf *= sf
    if metas:
        total += OperatorCost(tuple_iterations=metas[-1].tuples * running_sf)
    return total


def output_cost(n_tuples: int) -> OperatorCost:
    """Final result iteration: numOutTuples * TICTUP (Section 3.7)."""
    return OperatorCost(tuple_iterations=n_tuples)


#: The CPU events a finished query's :class:`QueryStats` counts; its disk
#: time is ``simulated_io_us``, priced by the disk model as the query ran.
REPLAYED_EVENTS = EVENT_PRICES[:4]


def simulated_time_ms(stats: QueryStats, k: ModelConstants) -> float:
    """Replay observed execution counters through the model's constants.

    This is the "simulated time" benchmarks report alongside wall-clock: the
    model's per-unit costs applied to what the executor actually did (blocks
    read, iterator steps taken, tuples stitched), rather than to a-priori
    estimates.
    """
    counts = {name: getattr(stats, name) for name, _ in REPLAYED_EVENTS}
    cpu_us, _ = price(OperatorCost(**counts), k)
    return (cpu_us + stats.simulated_io_us) / 1000.0


def replay_breakdown(stats: QueryStats, k: ModelConstants) -> dict[str, float]:
    """Per-term milliseconds of the simulated-time replay: which Table 1
    term a span's simulated time comes from. The values sum to
    :func:`simulated_time_ms`.
    """
    out = {}
    for name, (constant,) in REPLAYED_EVENTS:
        cpu_us, _ = price(OperatorCost(**{name: getattr(stats, name)}), k)
        out[f"{constant.upper()}_ms"] = cpu_us / 1000.0
    out["IO_ms"] = stats.simulated_io_us / 1000.0
    return out
