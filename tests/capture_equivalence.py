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
predicate-free selection, a disjunction and an all-columns projection. Not a
pytest module (nothing here is collected): it compares two trees, which one
test process cannot hold.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.errors import UnsupportedOperationError
from repro.metrics import MetricsRegistry
from repro.planner.logical import AggSpec, JoinQuery
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


def _shipdate(selectivity: float) -> int:
    """Shipdates are uniform, so this constant selects ~*selectivity*."""
    return int(SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN))


def _queries(db: Database) -> list[tuple[str, object, list[str]]]:
    """``(label, query, strategy names)`` for everything the capture runs."""
    select_strategies = [s.value for s in Strategy]
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


def capture() -> dict:
    records: dict[str, dict] = {}
    for seed in SEEDS:
        for partitions in PARTITIONS:
            with tempfile.TemporaryDirectory() as root:
                loader = Database(root, query_log=False, metrics=MetricsRegistry())
                load_tpch(loader.catalog, scale=SCALE, seed=seed,
                          partitions=partitions)
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
                            }
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
