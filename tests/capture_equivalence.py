"""Counter/answer equivalence capture for wall-clock-only changes.

A change that only swaps the numpy underneath the operators must leave every
result block, every ``QueryStats`` counter (``extra`` included) and
``simulated_ms`` exactly as they were. Run this on the parent commit and on
the change and compare the two captures::

    PYTHONPATH=<parent>/src python tests/capture_equivalence.py /tmp/parent.json
    PYTHONPATH=src           python tests/capture_equivalence.py /tmp/change.json
    PYTHONPATH=src           python tests/capture_equivalence.py --compare /tmp/parent.json /tmp/change.json

It sweeps seeds x {1, 4} partitions x engine configurations over the paper's
Section 4.1 selection (4 strategies x 3 ``linenum`` encodings x 6
selectivities), the Section 4.2 aggregations, and the Section 4.3 join under
all three right-table strategies and both left-table strategies, plus a
predicate-free selection, a disjunction and an all-columns projection.
Selections also run under ``auto`` (the chosen strategy is recorded), each
selection's ``Database.explain`` records the chosen strategy and every
strategy's predicted steps, and each query's last strategy (``auto`` for
selections) records SHA-256 digests of the JSON a served reply would carry
(``rows()`` and ``decoded_rows()``, dates as ISO strings) — once per seed,
unpartitioned and in the default configuration, since the block digest
already pins the same block everywhere else. The
grouping and join kernels have a direct-address branch for dense integer
domains and a sorting branch for the rest; TPC-H keys are all dense, so the
capture also groups over wide compound keys (1-D unique and int64-overflow
branches) and joins against ``sparse_customer``, a small right table of
every 97th customer built here, on its sparse ``custkey`` and on its dense
but descending ``revkey`` (both take the join's sort branch). Not a pytest
module (nothing here is collected): it compares two trees, which one test
process cannot hold.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.errors import UnsupportedOperationError
from repro.metrics import MetricsRegistry
from repro.planner.logical import AggSpec, JoinQuery
from repro.dtypes import INT32, INT64, ColumnSchema
from repro.planner.strategies import RightTableStrategy, Strategy
from repro.tpch import SHIPDATE_MAX, SHIPDATE_MIN

SEEDS = (1, 2)
PARTITIONS = (1, 4)
SCALE = 0.05
ENCODINGS = ("uncompressed", "rle", "bitvector")
SELECTIVITIES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)
CONFIGS = {
    "default": {},
    "no-decoded-cache": {"decoded_cache_bytes": 0},
    "no-compressed": {"compressed_execution": False},
    "no-multicolumns": {"use_multicolumns": False, "use_indexes": False},
}


SPARSE_STRIDE = 97


def _add_sparse_customer(catalog, n_customer: int) -> None:
    """A small right table whose keys span far more values than it has rows.

    ``widekey`` scales the key by 10**12, so grouping on it together with
    ``custkey`` overflows an int64 mixed-radix key; ``revkey`` numbers the
    rows ``m..1``, a dense domain out of order (not a sorted dense primary
    key, so the join cannot address it directly).
    """
    keys = np.arange(SPARSE_STRIDE, n_customer + 1, SPARSE_STRIDE, dtype=np.int64)
    catalog.create_projection(
        "sparse_customer",
        {
            "custkey": keys,
            "nationcode": (keys % 25).astype(np.int32),
            "widekey": keys * 10**12,
            "revkey": np.arange(len(keys), 0, -1, dtype=np.int64),
        },
        schemas={
            "custkey": ColumnSchema("custkey", INT64),
            "nationcode": ColumnSchema("nationcode", INT32),
            "widekey": ColumnSchema("widekey", INT64),
            "revkey": ColumnSchema("revkey", INT64),
        },
        sort_keys=["custkey"],
        encodings={
            "custkey": ["uncompressed"],
            "nationcode": ["uncompressed"],
            "widekey": ["uncompressed"],
            "revkey": ["uncompressed"],
        },
        presorted=True,
    )


def _shipdate(selectivity: float) -> int:
    """Shipdates are uniform, so this constant selects ~*selectivity*."""
    return int(SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN))


def _queries(db: Database) -> list[tuple[str, object, list[str]]]:
    """``(label, query, strategy names)`` for everything the capture runs."""
    select_strategies = [s.value for s in Strategy] + ["auto"]
    out: list[tuple[str, object, list[str]]] = []
    for enc in ENCODINGS:
        for sel in SELECTIVITIES:
            preds = (
                Predicate("shipdate", "<", _shipdate(sel)),
                Predicate("linenum", "<", 7),
            )
            out.append((
                f"select/{enc}/{sel}",
                SelectQuery(
                    projection="lineitem", select=("shipdate", "linenum"),
                    predicates=preds, encodings=(("linenum", enc),),
                ),
                select_strategies,
            ))
            if sel in (0.1, 0.5, 0.9):
                out.append((
                    f"agg/{enc}/{sel}",
                    SelectQuery(
                        projection="lineitem",
                        select=("shipdate", "sum(linenum)"),
                        predicates=preds, group_by="shipdate",
                        aggregates=(AggSpec("sum", "linenum"),),
                        encodings=(("linenum", enc),),
                    ),
                    select_strategies,
                ))
    half = _shipdate(0.5)
    out.append((
        "agg/returnflag",
        SelectQuery(
            projection="lineitem", select=("returnflag", "sum(quantity)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by="returnflag", aggregates=(AggSpec("sum", "quantity"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/compound",
        SelectQuery(
            projection="lineitem",
            select=("returnflag", "linenum", "sum(quantity)", "min(quantity)",
                    "max(shipdate)", "avg(quantity)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by=("returnflag", "linenum"),
            aggregates=(AggSpec("sum", "quantity"), AggSpec("min", "quantity"),
                        AggSpec("max", "shipdate"), AggSpec("avg", "quantity")),
        ),
        select_strategies,
    ))
    out.append((
        "agg/count-distinct",
        SelectQuery(
            projection="lineitem",
            select=("returnflag", "count(distinct linenum)", "count(linenum)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by="returnflag",
            aggregates=(AggSpec("count_distinct", "linenum"),
                        AggSpec("count", "linenum")),
        ),
        select_strategies,
    ))
    # Wide domains: custkey x shipdate spans far more than 4n + 1024 values.
    out.append((
        "agg/wide-compound",
        SelectQuery(
            projection="orders", select=("custkey", "shipdate", "count(shipdate)"),
            group_by=("custkey", "shipdate"),
            aggregates=(AggSpec("count", "shipdate"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/wide-count-distinct",
        SelectQuery(
            projection="orders",
            select=("custkey", "count(distinct shipdate)"),
            group_by="custkey",
            aggregates=(AggSpec("count_distinct", "shipdate"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/int64-overflow",
        SelectQuery(
            projection="sparse_customer",
            select=("widekey", "custkey", "count(nationcode)"),
            group_by=("widekey", "custkey"),
            aggregates=(AggSpec("count", "nationcode"),),
        ),
        select_strategies,
    ))
    out.append((
        "select/no-predicate",
        SelectQuery(projection="lineitem", select=("linenum", "quantity")),
        select_strategies,
    ))
    out.append((
        "select/all-columns",
        SelectQuery(
            projection="lineitem",
            select=("quantity", "returnflag", "shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", _shipdate(0.05)),
                Predicate("quantity", ">", 10),
            ),
        ),
        select_strategies,
    ))
    out.append((
        "select/disjunction",
        SelectQuery(
            projection="lineitem", select=("shipdate", "linenum"),
            disjuncts=(
                (Predicate("shipdate", "<", _shipdate(0.1)),),
                (Predicate("linenum", "=", 3), Predicate("quantity", "<", 5)),
            ),
        ),
        ["lm-parallel"],
    ))
    n_customer = db.projection("customer").n_rows
    for sel in (0.05, 0.5, 0.95):
        for left in ("late", "early"):
            out.append((
                f"join/{left}/{sel}",
                JoinQuery(
                    left="orders", right="customer",
                    left_key="custkey", right_key="custkey",
                    left_select=("shipdate",), right_select=("nationcode",),
                    left_predicates=(
                        Predicate("custkey", "<", max(int(sel * n_customer) + 1, 1)),
                    ),
                    left_strategy=left,
                ),
                [s.value for s in RightTableStrategy],
            ))
    for (label, right_key), left in itertools.product(
        (("sparse", "custkey"), ("descending", "revkey")), ("late", "early")
    ):
        out.append((
            f"join/{label}/{left}",
            JoinQuery(
                left="orders", right="sparse_customer",
                left_key="custkey", right_key=right_key,
                left_select=("shipdate",), right_select=("nationcode",),
                left_predicates=(
                    Predicate("custkey", "<", int(0.8 * n_customer)),
                ),
                left_strategy=left,
            ),
            [s.value for s in RightTableStrategy],
        ))
    out.append((
        "join/aggregated",
        JoinQuery(
            left="orders", right="customer",
            left_key="custkey", right_key="custkey",
            left_select=("shipdate",), right_select=("nationcode",),
            group_by="nationcode", aggregates=(AggSpec("count", "shipdate"),),
        ),
        [s.value for s in RightTableStrategy],
    ))
    return out


def _sha256_json(value) -> str:
    # Dates go out as ISO strings, as the server sends decoded replies.
    text = json.dumps(value, default=lambda v: v.isoformat())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reply_digests(result) -> dict:
    """What a served reply would carry: raw rows and decoded rows as JSON."""
    return {
        "rows_json_sha256": _sha256_json(result.rows()),
        "decoded_json_sha256": _sha256_json(result.decoded_rows()),
    }


def _explain_record(db: Database, query: SelectQuery) -> dict:
    """The optimizer's choice and every strategy's predicted steps."""
    report = db.explain(query)
    return {
        "chosen": report["chosen"],
        "steps": {
            strategy.value: [
                [name, cost.cpu_us, cost.io_us]
                for name, cost in prediction.steps
            ]
            for strategy, prediction in report["details"].items()
        },
        "partitions": report.get("partitions"),
    }


def capture() -> dict:
    records: dict[str, dict] = {}
    for seed in SEEDS:
        for partitions in PARTITIONS:
            with tempfile.TemporaryDirectory() as root:
                loader = Database(root, query_log=False, metrics=MetricsRegistry())
                load_tpch(loader.catalog, scale=SCALE, seed=seed,
                          partitions=partitions)
                _add_sparse_customer(
                    loader.catalog, loader.projection("customer").n_rows
                )
                loader.close()
                for config_name, config in CONFIGS.items():
                    db = Database(root, query_log=False,
                                  metrics=MetricsRegistry(), **config)
                    for label, query, strategies in _queries(db):
                        for strategy in strategies:
                            key = (f"seed{seed}/p{partitions}/{config_name}/"
                                   f"{label}/{strategy}")
                            try:
                                result = db.query(query, strategy=strategy)
                            except UnsupportedOperationError as exc:
                                records[key] = {"unsupported": str(exc)}
                                continue
                            block = np.ascontiguousarray(result.tuples.data)
                            records[key] = {
                                "columns": list(result.tuples.columns),
                                "shape": list(block.shape),
                                "dtype": str(block.dtype),
                                "sha256": hashlib.sha256(
                                    block.tobytes()
                                ).hexdigest(),
                                "stats": result.stats.as_dict(),
                                "simulated_ms": result.simulated_ms,
                                "strategy": result.strategy,
                            }
                            if (config_name == "default" and partitions == 1
                                    and strategy == strategies[-1]):
                                records[key].update(_reply_digests(result))
                        if (config_name == "default"
                                and isinstance(query, SelectQuery)):
                            key = f"seed{seed}/p{partitions}/{label}/explain"
                            records[key] = _explain_record(db, query)
                    db.close()
    return records


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in bad[:20]:
        print("DIFF", key)
        ra, rb = a.get(key) or {}, b.get(key) or {}
        for field in sorted(ra.keys() | rb.keys()):
            if ra.get(field) != rb.get(field):
                print("   ", field, ra.get(field), "!=", rb.get(field))
    print(f"{len(a)} vs {len(b)} records, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    Path(sys.argv[1]).write_text(json.dumps(capture(), sort_keys=True))
