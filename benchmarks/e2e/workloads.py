"""The five workloads. ``README.md`` says why each exists.

Every layer is driven from outside, through public functions of ``repro``;
nothing here reaches into ``src/``. All randomness derives from ``--seed``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro import (
    AggSpec,
    Database,
    JoinQuery,
    MetricsRegistry,
    Predicate,
    RightTableStrategy,
    SelectQuery,
    Strategy,
    choose_strategy,
    load_tpch,
)
from repro.dtypes import int_to_date
from repro.model.predictor import predict_join, predict_select
from repro.serving import AsyncQueryClient, query_from_dict, query_to_dict
from repro.sql import bind, parse
from repro.tpch.generator import (
    RETURNFLAG_DICTIONARY,
    SHIPDATE_MAX,
    SHIPDATE_MIN,
    generate_customer,
    generate_lineitem,
    generate_orders,
)
from repro.tpch.loader import lineitem_rows_for_scale

from . import stats
from .harness import (
    ROOT,
    Cycle,
    Op,
    Workload,
    answer_hash,
    cache_and_qlog_values,
    peak_rss_mb,
    timed_call,
    timed_cycles,
    tree_bytes,
)
from .spans import END, START

#: lineitem is range-partitioned so prune-then-fan is always on the path.
PARTITIONS = 4
ENCODINGS = ("uncompressed", "rle", "bitvector")
TABLES = ("lineitem", "orders", "customer")
#: The most conservative way to run a read: the reference answers' config.
REFERENCE_CONFIG = dict(
    compressed_execution=False, decoded_cache_bytes=0, query_log=False
)


def shipdate_constant(selectivity: float) -> int:
    """Shipdates are uniform, so X = min + sel * range selects ~sel of them."""
    return int(SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN))


def table_sizes(scale: float) -> tuple[int, int, int]:
    """(lineitem, orders, customer) rows ``load_tpch`` creates at *scale*."""
    n_lineitem = lineitem_rows_for_scale(scale)
    n_orders = max(n_lineitem // 4, 1)
    return n_lineitem, n_orders, max(n_orders // 10, 1)


def user_bytes(db: Database) -> int:
    """Rows x declared column widths, over the three tables."""
    total = 0
    for table in TABLES:
        proj = db.projection(table)
        width = sum(proj.schema(c).ctype.itemsize for c in proj.column_names)
        total += proj.n_rows * width
    return total


def reference_strategy(query) -> str:
    return "materialized" if isinstance(query, JoinQuery) else "em-pipelined"


# Run in the helper process (``Workload.in_helper``), so they are plain
# functions of picklable arguments.

def load_database(root, scale: float, seed: int) -> float:
    """Generate the three tables and store them; returns the seconds taken."""
    t0 = time.perf_counter()
    db = Database(root, query_log=False, metrics=MetricsRegistry())
    load_tpch(db.catalog, scale=scale, seed=seed, partitions=PARTITIONS)
    db.close()
    return time.perf_counter() - t0


def generation_seconds(scale: float, seed: int) -> float:
    """What of ``load_database`` is data generation (as ``load_tpch`` seeds
    it)."""
    sizes = table_sizes(scale)
    t0 = time.perf_counter()
    generate_lineitem(sizes[0], seed=seed)
    generate_orders(sizes[1], sizes[2], seed=seed + 1)
    generate_customer(sizes[2], seed=seed + 2)
    return time.perf_counter() - t0


def lineitem_columns(n_rows: int, seed: int) -> dict:
    return generate_lineitem(n_rows, seed=seed).as_columns()


def reference_answers(root, reads: list) -> tuple[list[str], int]:
    """The fingerprint of each of *reads* (a query, or SQL text to bind),
    run the most conservative way, and the database's user bytes."""
    ref = Database(root, metrics=MetricsRegistry(), **REFERENCE_CONFIG)
    try:
        hashes = []
        for read in reads:
            query = (bind(parse(read), ref.catalog) if isinstance(read, str)
                     else read)
            result = ref.query(query, strategy=reference_strategy(query),
                               cold=True)
            hashes.append(
                answer_hash(result.tuples.columns, result.tuples.data)
            )
        return hashes, user_bytes(ref)
    finally:
        ref.close()


def selection_query(selectivity: float, encoding: str) -> SelectQuery:
    """The paper's Section 4.1 selection query."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", 7),
        ),
        encodings=(("linenum", encoding),),
    )


def aggregation_query(selectivity: float, encoding: str) -> SelectQuery:
    """The paper's Section 4.2 aggregation query."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "sum(linenum)"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", 7),
        ),
        group_by="shipdate",
        aggregates=(AggSpec("sum", "linenum"),),
        encodings=(("linenum", encoding),),
    )


def returnflag_query() -> SelectQuery:
    """GROUP BY over the dictionary-coded, RLE-stored returnflag column."""
    return SelectQuery(
        projection="lineitem",
        select=("returnflag", "sum(quantity)"),
        predicates=(Predicate("shipdate", "<", shipdate_constant(0.5)),),
        group_by="returnflag",
        aggregates=(AggSpec("sum", "quantity"),),
    )


def join_query(selectivity: float, n_customer: int) -> JoinQuery:
    """The paper's Section 4.3 FK-PK join, orders x customer."""
    return JoinQuery(
        left="orders",
        right="customer",
        left_key="custkey",
        right_key="custkey",
        left_select=("shipdate",),
        right_select=("nationcode",),
        left_predicates=(
            Predicate("custkey", "<", max(int(selectivity * n_customer) + 1, 1)),
        ),
    )


class TpchWorkload(Workload):
    """Set-up shared by all five: the paper's three tables via ``load_tpch``."""

    def load(self, root) -> None:
        self.root = root
        self.load_s = self.in_helper(load_database, root,
                                     self.effective_scale, self.seed)

    def probe(self) -> None:
        generate_s = self.in_helper(generation_seconds, self.effective_scale,
                                    self.seed)
        self.values["tpch.generate_s"] = generate_s
        # load_tpch generates and stores in one call; what is not
        # generation is create_projection.
        self.values["storage.create_projection_s"] = self.load_s - generate_s


class LibraryWorkload(TpchWorkload):
    """Embedded, single-threaded: one ``Database`` handle on the data."""

    #: Pool and decoded cache each hold this share of the stored bytes
    #: (``None`` keeps the defaults, which hold everything).
    cache_share: float | None = None

    def open(self) -> None:
        config = {}
        if self.cache_share is not None:
            budget = int(tree_bytes(self.root) * self.cache_share)
            config = dict(pool_capacity_bytes=budget,
                          decoded_cache_bytes=budget)
        t0 = time.perf_counter()
        self.db = Database(self.root, metrics=MetricsRegistry(),
                           durability="fsync", **config)
        self.values["storage.open_ms"] = (time.perf_counter() - t0) * 1000.0
        self.queries_logged = 0

    def close(self) -> None:
        self.db.close()

    def read(self, query, strategy: str, verify, traced: bool,
             tag: str = "") -> Op:
        """One ``Database.query`` call, timed, checked and (if asked) traced."""
        self.queries_logged += 1
        result, error, t0, t1, cpu_s = timed_call(
            self.db.query, query, strategy=strategy, trace=traced
        )
        op = Op("read", (t1 - t0) * 1000.0, cpu_s,
                ok=error is None and verify(result), tag=tag)
        if result is not None:
            op.wall_ms = result.wall_ms
            op.sim_ms = result.simulated_ms
            if traced:
                op.counters = result.stats.as_dict()
                op_id = self.op_id()
                call = self.recorder.add("Database.query", t0, t1, op=op_id)
                self.recorder.adopt(result.spans.to_dict(), call, op_id)
        return op

    def snapshot(self) -> None:
        self.db.qlog.flush()
        total = tree_bytes(self.root)
        qlog = tree_bytes(self.root / "_qlog")
        self.end_to_end["stored_bytes_per_user_byte"] = (
            total / user_bytes(self.db)
        )
        self.values["storage.stored_bytes"] = float(total - qlog)
        self.values["qlog.bytes_per_query"] = qlog / self.queries_logged

    def finish(self, cycles) -> list:
        self.values.update(cache_and_qlog_values(self.db.metrics.snapshot()))
        self.end_to_end["peak_rss_mb"] = peak_rss_mb()
        self.db.close()
        return []


@dataclass(frozen=True)
class Template:
    query: object
    strategy: str
    answer: str    # templates with one answer share one reference


class TemplateWorkload(LibraryWorkload):
    """A read-only cycle: every template once, in seeded order."""

    def templates(self) -> list[Template]:
        raise NotImplementedError

    def reference(self) -> None:
        self.schedule = self.templates()
        random.Random(self.seed).shuffle(self.schedule)
        distinct = {t.answer: t.query for t in self.schedule}
        hashes, _ = self.in_helper(reference_answers, self.root,
                                   list(distinct.values()))
        self.expected: dict[str, str] = dict(zip(distinct, hashes))

    def verify(self, answer: str):
        expected = self.expected[answer]
        return lambda result: answer_hash(
            result.tuples.columns, result.tuples.data
        ) == expected

    def cycle(self, traced: bool) -> Cycle:
        ops = [
            self.read(t.query, t.strategy, self.verify(t.answer), traced)
            for t in self.schedule
        ]
        return Cycle.serial(traced, ops)


class ScanWarmSelect(TemplateWorkload):
    name = "scan_warm_select"
    #: The paper sweeps selectivity from 0 to 1. Six points, not ISSUE 12's
    #: four {0.02, 0.1, 0.5, 0.9}: with four, half the templates select <= 0.1
    #: and half >= 0.5, so the median latency fell in the empty stretch
    #: between the two groups and jumped by 25% from seed to seed.
    selectivities = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)

    def templates(self) -> list[Template]:
        out = []
        for strategy in Strategy:
            for encoding in ENCODINGS:
                if (strategy is Strategy.LM_PIPELINED
                        and encoding == "bitvector"):
                    # DS3 cannot position-filter a bit-vector column; the
                    # paper leaves this cell out too. No operation may fail.
                    continue
                for sel in self.selectivities:
                    out.append(Template(
                        selection_query(sel, encoding), strategy.value,
                        f"select-{sel}",
                    ))
        return out


class ScanColdStarved(ScanWarmSelect):
    name = "scan_cold_starved"
    cache_share = 1.0 / 16.0


class JoinAggMix(TemplateWorkload):
    name = "join_agg_mix"

    def templates(self) -> list[Template]:
        n_customer = table_sizes(self.effective_scale)[2]
        out = []
        for strategy in (Strategy.EM_PARALLEL, Strategy.LM_PARALLEL):
            for encoding in ENCODINGS:
                for sel in (0.1, 0.5, 0.9):
                    out.append(Template(
                        aggregation_query(sel, encoding), strategy.value,
                        f"agg-{sel}",
                    ))
            out.append(Template(returnflag_query(), strategy.value,
                                "agg-returnflag"))
        for strategy in RightTableStrategy:
            for sel in (0.05, 0.5, 0.95):
                out.append(Template(
                    join_query(sel, n_customer), strategy.value,
                    f"join-{sel}",
                ))
        return out


# --------------------------------------------------------------------- HTAP

_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "=": np.equal}
LINEITEM_COLUMNS = ("returnflag", "shipdate", "linenum", "quantity")
LINEITEM_ROW_BYTES = 1 + 4 + 4 + 4


def sorted_rows(block: np.ndarray) -> np.ndarray:
    """Rows of a 2-D block in lexicographic order (a multiset's canon)."""
    if block.shape[0] == 0:
        return block
    return block[np.lexsort(block.T[::-1])]


class ShadowTable:
    """The driver's own copy of lineitem, kept in step with every write."""

    def __init__(self, columns: dict):
        self.columns = {c: np.asarray(v, dtype=np.int64)
                        for c, v in columns.items()}

    def mask(self, predicates) -> np.ndarray:
        mask = np.ones(len(self.columns["shipdate"]), dtype=bool)
        for pred in predicates:
            mask &= _COMPARE[pred.op](self.columns[pred.column], pred.value)
        return mask

    def insert(self, rows: dict) -> None:
        for c in self.columns:
            self.columns[c] = np.concatenate((self.columns[c], rows[c]))

    def update(self, predicates, column: str, value: int) -> int:
        mask = self.mask(predicates)
        self.columns[column][mask] = value
        return int(mask.sum())

    def delete(self, predicates) -> int:
        mask = self.mask(predicates)
        for c in self.columns:
            self.columns[c] = self.columns[c][~mask]
        return int(mask.sum())

    def answer(self, query: SelectQuery) -> np.ndarray:
        """What *query* must return, as canonically ordered rows."""
        mask = self.mask(query.predicates)
        if not query.aggregates:
            return sorted_rows(np.column_stack(
                [self.columns[c][mask] for c in query.select]
            ))
        (group,) = query.group_columns
        keys, inverse = np.unique(self.columns[group][mask],
                                  return_inverse=True)
        out = [keys]
        for spec in query.aggregates:
            if spec.func == "count":
                out.append(np.bincount(inverse, minlength=len(keys)))
            else:  # sum
                totals = np.zeros(len(keys), dtype=np.int64)
                np.add.at(totals, inverse, self.columns[spec.column][mask])
                out.append(totals)
        return np.column_stack(out).astype(np.int64)


class HtapIngestRead(LibraryWorkload):
    """One harness cycle is an *epoch*: N 20-op cycles, then a merge."""

    name = "htap_ingest_read"
    scale = 0.05
    min_cycles = 3     # three merges (traced ones, when tracing) per run
    batch_rows = 64
    #: 12 inserts, 1 update, 1 delete, 6 reads. Reads before the update see
    #: pending inserts only (in an epoch's first cycle); later ones also
    #: see a non-empty delete multiset.
    cycle_shape = "IIIIRRRIIIIUIIIIDRRR"

    @property
    def cycles_per_merge(self) -> int:
        return 2 if self.smoke else 8

    def reference(self) -> None:
        n_rows = table_sizes(self.effective_scale)[0]
        self.base = self.in_helper(lineitem_columns, n_rows, self.seed)

    def open(self) -> None:
        super().open()
        self.shadow = ShadowTable(self.base)
        self.epoch = 0
        self.checks: list[Op] = []

    # ------------------------------------------------------------ operations

    def _read_query(self, rng, shape: int) -> tuple[SelectQuery, str]:
        lo = int(rng.integers(SHIPDATE_MIN, SHIPDATE_MAX - 60))
        window = (Predicate("shipdate", ">=", lo),
                  Predicate("shipdate", "<", lo + 50))     # ~2% of the days
        if shape == 0:
            return SelectQuery(
                "lineitem", ("shipdate", "linenum"),
                window + (Predicate("linenum", "<", 7),),
            ), "lm-parallel"
        if shape == 1:
            return SelectQuery(
                "lineitem", ("shipdate", "sum(linenum)"), window,
                group_by="shipdate", aggregates=(AggSpec("sum", "linenum"),),
            ), "em-parallel"
        flag = int(rng.integers(0, len(RETURNFLAG_DICTIONARY)))
        return SelectQuery(       # prunes to one returnflag's partitions
            "lineitem", ("linenum", "count(quantity)", "sum(quantity)"),
            (Predicate("returnflag", "=", flag),
             Predicate("shipdate", "<", shipdate_constant(0.05))),
            group_by="linenum",
            aggregates=(AggSpec("count", "quantity"),
                        AggSpec("sum", "quantity")),
        ), "lm-parallel"

    def _checked_read(self, query, strategy, traced, tag="") -> Op:
        expected = self.shadow.answer(query)
        return self.read(
            query, strategy,
            lambda result: np.array_equal(
                sorted_rows(result.tuples.data), expected
            ),
            traced, tag=tag,
        )

    def _write(self, kind: str, fn, *args, expect: int, traced: bool) -> Op:
        fsyncs = self.db.disk.total_fsyncs
        count, error, t0, t1, cpu_s = timed_call(fn, *args)
        if traced:
            self.recorder.add(f"Database.{kind}", t0, t1, op=self.op_id())
        return Op(
            kind, (t1 - t0) * 1000.0, cpu_s,
            ok=error is None and count == expect,
            extra={"fsyncs": self.db.disk.total_fsyncs - fsyncs,
                   "rows": expect,
                   "pending": self.db.pending("lineitem")},
        )

    def _insert(self, rng, traced: bool) -> Op:
        n = self.batch_rows
        rows = {
            "returnflag": rng.integers(0, len(RETURNFLAG_DICTIONARY), n),
            "shipdate": rng.integers(SHIPDATE_MIN, SHIPDATE_MAX + 1, n),
            "linenum": rng.integers(1, 8, n),
            "quantity": rng.integers(1, 51, n),
        }
        payload = [
            {"returnflag": RETURNFLAG_DICTIONARY[int(rows["returnflag"][i])],
             **{c: int(rows[c][i]) for c in LINEITEM_COLUMNS[1:]}}
            for i in range(n)
        ]
        self.shadow.insert(rows)
        return self._write("insert", self.db.insert, "lineitem", payload,
                           expect=n, traced=traced)

    def _day_and_line(self, rng) -> tuple:
        return (
            Predicate("shipdate", "=",
                      int(rng.integers(SHIPDATE_MIN, SHIPDATE_MAX + 1))),
            Predicate("linenum", "=", int(rng.integers(1, 8))),
        )

    def _update(self, rng, traced: bool) -> Op:
        predicates = self._day_and_line(rng)
        quantity = int(rng.integers(1, 51))
        expect = self.shadow.update(predicates, "quantity", quantity)
        return self._write("update", self.db.update, "lineitem", predicates,
                           {"quantity": quantity}, expect=expect,
                           traced=traced)

    def _delete(self, rng, traced: bool) -> Op:
        predicates = self._day_and_line(rng)
        expect = self.shadow.delete(predicates)
        return self._write("delete", self.db.delete, "lineitem", predicates,
                           expect=expect, traced=traced)

    def _small_cycle(self, rng, traced: bool) -> list:
        ops, shape = [], 0
        for letter in self.cycle_shape:
            if letter == "I":
                ops.append(self._insert(rng, traced))
            elif letter == "U":
                ops.append(self._update(rng, traced))
            elif letter == "D":
                ops.append(self._delete(rng, traced))
            else:
                deletes = self.db.delta.deleted_count("lineitem") > 0
                query, strategy = self._read_query(rng, shape % 3)
                ops.append(self._checked_read(
                    query, strategy, traced,
                    tag="deletes" if deletes else "pending",
                ))
                shape += 1
        return ops

    def _check_whole_table(self) -> None:
        """count/sum per returnflag over everything, against the shadow."""
        query = SelectQuery(
            "lineitem",
            ("returnflag", "count(quantity)", "sum(quantity)",
             "sum(shipdate)"),
            group_by="returnflag",
            aggregates=(AggSpec("count", "quantity"),
                        AggSpec("sum", "quantity"),
                        AggSpec("sum", "shipdate")),
        )
        self.checks.append(
            self._checked_read(query, "lm-parallel", traced=False, tag="check")
        )

    def cycle(self, traced: bool) -> Cycle:
        rng = np.random.default_rng([self.seed, self.epoch])
        self.epoch += 1
        ops = []
        for _ in range(self.cycles_per_merge):
            ops.extend(self._small_cycle(rng, traced))
        wal_bytes = tree_bytes(self.root / "_wal")
        moved = self.db.pending("lineitem")
        merge = self._write("merge", self.db.merge, "lineitem",
                            expect=moved, traced=traced)
        merge.extra["wal_bytes"] = wal_bytes
        ops.append(merge)
        self._check_whole_table()
        return Cycle.serial(traced, ops)

    # --------------------------------------------------------------- results

    def finish(self, cycles) -> list:
        timed = timed_cycles(cycles)
        ops = [op for c in timed for op in c.ops]
        first = timed[0].ops

        def p50(kind, tag=None):
            return stats.median([
                op.latency_ms for op in ops
                if op.kind == kind and (tag is None or op.tag == tag)
            ])

        writes = [op for op in first if op.kind in ("insert", "update",
                                                    "delete")]
        merges = [op for op in ops if op.kind == "merge"]
        self.values.update({
            "engine.read_pending_ms_p50": p50("read", "pending"),
            "engine.read_deletes_ms_p50": p50("read", "deletes"),
            "engine.merge_ms_p50": p50("merge"),
            "engine.merge_count": float(len(merges)),
            "engine.merge_stall_share":
                sum(op.latency_ms for op in merges) / 1000.0
                / sum(c.busy_s for c in timed),
            "delta.insert_ms_p50": p50("insert"),
            "delta.update_ms_p50": p50("update"),
            "delta.delete_ms_p50": p50("delete"),
            "delta.fsyncs_per_write_op":
                sum(op.extra["fsyncs"] for op in writes) / len(writes),
            "delta.wal_bytes_per_user_byte":
                first[-1].extra["wal_bytes"]
                / (sum(op.extra["rows"] for op in writes)
                   * LINEITEM_ROW_BYTES),
            "delta.pending_rows_max":
                float(max(op.extra["pending"] for op in writes)),
        })
        self._reopen_check()
        return super().finish(cycles) + self.checks

    def _reopen_check(self) -> None:
        """Leave writes pending, close, reopen, and read everything back.

        Every insert, update and delete was acknowledged under
        ``durability="fsync"``; a fresh ``Database(root)`` must serve them
        from the WAL (merge-on-read) and fold them in on merge. Surviving a
        power cut is the crash differential's job, not this check's.
        """
        rng = np.random.default_rng([self.seed, self.epoch, 1])
        self.checks.extend(self._small_cycle(rng, traced=False))
        # LibraryWorkload.finish() reads the metrics of the handle it closes.
        self.db.close()
        t0 = time.perf_counter()
        self.db = Database(self.root, metrics=MetricsRegistry(),
                           durability="fsync")
        self.values["storage.open_ms"] = (time.perf_counter() - t0) * 1000.0
        pending = self.db.pending("lineitem") > 0
        self.checks.append(Op("check", 0.0, 0.0, ok=pending, tag="wal"))
        for shape in range(3):
            query, strategy = self._read_query(rng, shape)
            self.checks.append(
                self._checked_read(query, strategy, traced=False, tag="check")
            )
        self.db.merge("lineitem")
        self._check_whole_table()


# ------------------------------------------------------------------ serving

def zipf_schedule(n_statements: int, n_requests: int, theta: float,
                  rng: random.Random) -> list[int]:
    """*n_requests* statement indices in exact Zipf(theta) proportions.

    Rank k gets its share of the requests by largest remainder, then the
    order is shuffled: the mix is the same for every seed and only the
    order differs, so two seeds measure the same traffic.
    """
    weights = [1.0 / (k ** theta) for k in range(1, n_statements + 1)]
    shares = [w / sum(weights) * n_requests for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(n_statements),
                          key=lambda i: shares[i] - counts[i], reverse=True)
    for i in by_remainder[: n_requests - sum(counts)]:
        counts[i] += 1
    schedule = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(schedule)
    return schedule


def sql_corpus(seed: int, n_customer: int, size: int = 32) -> list[str]:
    """*size* SQL texts, most popular first.

    A statement's rank fixes its shape and rough selectivity; the seed only
    jitters the literals, so the popular head costs the same for every seed.
    """
    rng = random.Random(seed)

    def day(selectivity: float) -> str:
        jitter = rng.uniform(-0.01, 0.01)
        return int_to_date(shipdate_constant(selectivity + jitter)).isoformat()

    shapes = (
        lambda s: ("SELECT shipdate, linenum FROM lineitem WHERE shipdate < "
                   f"'{day(s)}' AND linenum < 7 LIMIT 1024"),
        lambda s: ("SELECT shipdate, SUM(linenum) FROM lineitem WHERE "
                   f"shipdate < '{day(s)}' AND linenum < 7 GROUP BY shipdate"),
        lambda s: ("SELECT shipdate, quantity FROM lineitem WHERE shipdate > "
                   f"'{day(1 - s)}' AND quantity < {rng.randint(8, 12)} "
                   "LIMIT 1024"),
        lambda s: ("SELECT returnflag, SUM(quantity) FROM lineitem WHERE "
                   f"shipdate < '{day(s)}' GROUP BY returnflag"),
        lambda s: ("SELECT returnflag, shipdate, quantity FROM lineitem WHERE "
                   f"returnflag = 'R' AND shipdate > '{day(1 - s)}' "
                   "LIMIT 1024"),
        lambda s: ("SELECT linenum, AVG(quantity) FROM lineitem WHERE "
                   f"shipdate > '{day(1 - s)}' GROUP BY linenum"),
    )
    selectivities = (0.1, 0.02, 0.3, 0.05, 0.5, 0.2, 0.7)
    corpus = []
    for rank in range(size):
        if rank == 3:   # the one join
            bound = max(int(0.005 * n_customer), 2) + rng.randint(0, 3)
            corpus.append(
                "SELECT o.shipdate, c.nationcode FROM orders o, customer c "
                f"WHERE o.custkey = c.custkey AND o.custkey < {bound}"
            )
        else:
            corpus.append(shapes[rank % len(shapes)](
                selectivities[rank % len(selectivities)]
            ))
    return corpus


class ServeSqlZipf(TpchWorkload):
    """``repro serve`` as a subprocess, driven by 2 closed-loop connections."""

    name = "serve_sql_zipf"
    #: Small on purpose: execution should not drown out what this workload
    #: is here to expose (parse, bind, plan, admission, protocol, sockets).
    scale = 0.05
    connections = 2          # = nproc of the sandbox
    workers = 2
    theta = 1.1

    @property
    def requests_per_connection(self) -> int:
        return 32 if self.smoke else 256

    @property
    def trace_every(self) -> int:
        """In a traced cycle every 4th request asks for the server's span
        tree: a traced reply is a third larger and, traced every time, costs
        the one shared interpreter ~20% throughput; sampled it stays under
        10%. Smoke cycles are too short to sample."""
        return 1 if self.smoke else 4

    def reference(self) -> None:
        self.corpus = sql_corpus(
            self.seed, table_sizes(self.effective_scale)[2]
        )
        self.schedules = [
            zipf_schedule(len(self.corpus), self.requests_per_connection,
                          self.theta, random.Random(self.seed * 10_007 + i))
            for i in range(self.connections)
        ]
        # The data is read-only here, so its user bytes are fixed for the run.
        self.expected, self.user_bytes = self.in_helper(
            reference_answers, self.root, self.corpus
        )

    def probe(self) -> None:
        """Time the layers a served request crosses before execution."""
        super().probe()
        rec = self.recorder
        db = Database(self.root, query_log=False, metrics=MetricsRegistry())
        n = len(self.corpus)
        with rec.span("probe.sql.parse") as parse_span:
            trees = [parse(text) for text in self.corpus]
        with rec.span("probe.sql.bind") as bind_span:
            queries = [bind(tree, db.catalog) for tree in trees]
        with rec.span("probe.serving.protocol") as protocol_span:
            for query in queries:
                query_from_dict(json.loads(json.dumps(query_to_dict(query))))
        selects = [q for q in queries if isinstance(q, SelectQuery)]
        with rec.span("probe.planner.choose_strategy") as choose_span:
            for query in selects:
                choose_strategy(db.projection(query.projection), query,
                                constants=db.constants)
        predictions = 0
        with rec.span("probe.model.predict") as predict_span:
            for query in queries:
                if isinstance(query, SelectQuery):
                    proj = db.projection(query.projection)
                    for strategy in Strategy:
                        predict_select(proj, query, strategy,
                                       constants=db.constants)
                        predictions += 1
                else:
                    for strategy in RightTableStrategy:
                        predict_join(db.projection(query.left),
                                     db.projection(query.right), query,
                                     strategy, constants=db.constants)
                        predictions += 1

        def span_us(index: int) -> float:
            return (rec.spans[index][END] - rec.spans[index][START]) * 1e6

        self.values.update({
            "sql.parse_us_per_stmt": span_us(parse_span) / n,
            "sql.bind_us_per_stmt": span_us(bind_span) / n,
            "serving.protocol_us_per_query": span_us(protocol_span) / n,
            "planner.choose_ms_per_query":
                span_us(choose_span) / 1000.0 / len(selects),
            "model.predict_ms_per_query":
                span_us(predict_span) / 1000.0 / predictions,
            "planner.auto_regret_ratio": self._auto_regret(db, queries),
        })
        db.close()

    @staticmethod
    def _auto_regret(db: Database, queries) -> float:
        """Median over statements of wall(auto's pick) / wall(best fixed)."""
        ratios = []
        for query in queries:
            fixed = (RightTableStrategy if isinstance(query, JoinQuery)
                     else Strategy)
            picked = db.query(query, strategy="auto").strategy
            walls = {
                s.value: stats.median([
                    db.query(query, strategy=s).wall_ms for _ in range(3)
                ])
                for s in fixed
            }
            ratios.append(walls[picked] / min(walls.values()))
        return stats.median(ratios)

    # ---------------------------------------------------------------- server

    def open(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", str(self.root),
             "--port", "0", "--workers", str(self.workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        try:
            banner = self.server.stdout.readline()
            match = re.search(r" on ([\d.]+):(\d+) ", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.loop = asyncio.new_event_loop()
            self.client_metrics = MetricsRegistry()
            self.clients = [
                self.loop.run_until_complete(AsyncQueryClient.connect(
                    match.group(1), int(match.group(2)),
                    metrics=self.client_metrics,
                ))
                for _ in range(self.connections)
            ]
        except BaseException:
            self._stop_server()
            raise
        self.values["storage.open_ms"] = (time.perf_counter() - t0) * 1000.0
        self.requests_sent = 0

    def _server_cpu_s(self) -> float:
        with open(f"/proc/{self.server.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _stop_server(self) -> None:
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)   # drain, then exit
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()

    def close(self) -> None:
        try:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.close()
        finally:
            self._stop_server()

    async def _connection(self, client, schedule, traced: bool) -> list:
        """One closed loop: only request and response, nothing else, so the
        loop the two connections share never keeps the server waiting.
        Returns ``(statement, t0, t1, reply)`` per request."""
        exchanges = []
        for position, index in enumerate(schedule):
            payload = {"op": "sql", "sql": self.corpus[index]}
            if traced and position % self.trace_every == 0:
                payload["trace"] = True
            t0 = time.perf_counter()
            try:
                reply = await client.request(payload)
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                reply = {"ok": False, "error": {"type": type(exc).__name__}}
            exchanges.append((index, t0, time.perf_counter(), reply))
        return exchanges

    async def _all(self, traced: bool) -> list:
        return await asyncio.gather(*(
            self._connection(client, schedule, traced)
            for client, schedule in zip(self.clients, self.schedules)
        ))

    def _checked(self, index: int, t0: float, t1: float, reply: dict) -> Op:
        """The operation one exchange was, its reply checked and sized."""
        ok = bool(reply.get("ok")) and answer_hash(
            reply["columns"],
            np.array(reply["rows"], dtype=np.int64).reshape(
                reply["n_rows"], len(reply["columns"])
            ),
        ) == self.expected[index]
        op = Op("read", (t1 - t0) * 1000.0, 0.0, ok,
                wall_ms=reply.get("wall_ms", 0.0),
                sim_ms=reply.get("simulated_ms", 0.0),
                extra={"queue_wait_ms": reply.get("queue_wait_ms", 0.0),
                       "rejected": bool(reply.get("rejected"))})
        if "trace" in reply:
            op.counters = reply["trace"]["counters"]
            # The line the server sent, re-encoded.
            op.extra["reply_bytes"] = len(json.dumps(reply)) + 1
            op_id = self.op_id()
            call = self.recorder.add("AsyncQueryClient.request", t0, t1,
                                     op=op_id)
            self.recorder.adopt(reply["trace"], call, op_id)
        return op

    def cycle(self, traced: bool) -> Cycle:
        cpu0 = self._server_cpu_s()
        t0 = time.perf_counter()
        per_connection = self.loop.run_until_complete(self._all(traced))
        busy_s = time.perf_counter() - t0
        cpu_s = self._server_cpu_s() - cpu0
        ops = [self._checked(*exchange)
               for exchanges in per_connection for exchange in exchanges]
        self.requests_sent += len(ops)
        return Cycle(traced, ops, busy_s, cpu_s)

    def snapshot(self) -> None:
        # The server's recorder writes from its own thread; give the last
        # batch time to land, since only the server can flush it.
        time.sleep(0.1)
        total = tree_bytes(self.root)
        qlog = tree_bytes(self.root / "_qlog")
        self.end_to_end["stored_bytes_per_user_byte"] = total / self.user_bytes
        self.values["storage.stored_bytes"] = float(total - qlog)
        self.values["qlog.bytes_per_query"] = qlog / self.requests_sent

    def finish(self, cycles) -> list:
        timed = timed_cycles(cycles)
        ops = [op for c in timed for op in c.ops]
        try:
            reply = self.loop.run_until_complete(
                self.clients[0].metrics(format="json")
            )
            self.end_to_end["peak_rss_mb"] = peak_rss_mb(self.server.pid)
        finally:
            self.close()
        admission = reply["stats"]["admission"]
        sized = [op.extra["reply_bytes"] for op in ops
                 if "reply_bytes" in op.extra]
        self.values.update({
            "serving.engine_ms_p50": stats.median([op.wall_ms for op in ops]),
            "serving.queue_wait_ms_p50":
                stats.median([op.extra["queue_wait_ms"] for op in ops]),
            # Round trip minus the server's own total (queue wait +
            # execution): protocol encode/decode, sockets, client JSON.
            "serving.transport_self_ms_p50": stats.median([
                op.latency_ms - op.wall_ms - op.extra["queue_wait_ms"]
                for op in ops
            ]),
            "serving.reply_bytes_per_op":
                sum(sized) / len(sized) if sized else 0.0,
            "serving.rejected_share":
                sum(op.extra["rejected"] for op in ops) / len(ops),
            "serving.queue_depth_max": float(admission["peak_depth"]),
            "serving.reconnects": float(
                self.client_metrics.counter("serving.reconnects_total").value
            ),
            # What the facade adds around execution happens inside the
            # server process, where this client cannot see it.
            "engine.facade_overhead_ms_p50": 0.0,
            **cache_and_qlog_values(reply["metrics"]),
        })
        return []


WORKLOADS = {
    cls.name: cls
    for cls in (ScanWarmSelect, ScanColdStarved, JoinAggMix, ServeSqlZipf,
                HtapIngestRead)
}
