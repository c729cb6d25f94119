"""repro: a reproduction of "Materialization Strategies in a Column-Oriented
DBMS" (Abadi, Myers, DeWitt, Madden — ICDE 2007).

A C-Store-style column engine built from scratch in Python: 64 KB block
storage with uncompressed/RLE/bit-vector encodings, a cost-accounted buffer
pool, position-set algebra, multi-column intermediate results, the paper's
operator set (DS1-DS4, AND, MERGE, SPC, aggregates, joins), the four
materialization strategies (EM/LM x pipelined/parallel), the analytical cost
model of Section 3, and a TPC-H-style workload generator.

Quickstart::

    from repro import Database, SelectQuery, Predicate, load_tpch

    db = Database("./mydb")
    load_tpch(db.catalog, scale=0.005)
    result = db.query(
        SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(Predicate("shipdate", "<", 8700),
                        Predicate("linenum", "<", 7)),
        ),
        strategy="auto",
    )
    print(result.strategy, result.n_rows, result.wall_ms)
"""

from .dtypes import (
    DATE,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    ColumnSchema,
    ColumnType,
)
from .cancel import CancelToken
from .engine import Database, QueryResult
from .errors import (
    CatalogError,
    CorruptBlockError,
    EncodingError,
    ExecutionError,
    PlanError,
    QuarantinedPartitionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    SQLError,
    StorageError,
    TransientIOError,
    UnsupportedOperationError,
)
from .faults import (
    NO_RETRY,
    FaultInjector,
    FaultRule,
    PartitionQuarantine,
    RetryPolicy,
)
from .scrub import ScrubIssue, ScrubReport, scrub_catalog
from .metrics import REGISTRY, MetricsRegistry, QueryStats
from .model import (
    PAPER_CONSTANTS,
    CalibrationReport,
    ModelConstants,
    recalibrate_from_log,
)
from .advisor import AdvisorAction, AdvisorPlan, advise, apply_plan
from .observe import Span, SpanTracer
from .operators.aggregate import AggSpec
from .planner import (
    JoinQuery,
    LeftTableStrategy,
    RightTableStrategy,
    SelectQuery,
    Strategy,
    choose_strategy,
)
from .predicates import InPredicate, Predicate
from .exposition import render_prometheus
from .qlog import QueryLog, query_fingerprint, query_template, read_query_log
from .workload import (
    ReplayReport,
    WorkloadSummary,
    replay_log,
    summarize_log,
)
from .tpch import load_tpch

__version__ = "0.1.0"

__all__ = [
    "Database",
    "QueryResult",
    "QueryStats",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "SpanTracer",
    "SelectQuery",
    "JoinQuery",
    "Strategy",
    "LeftTableStrategy",
    "RightTableStrategy",
    "Predicate",
    "InPredicate",
    "AggSpec",
    "load_tpch",
    "choose_strategy",
    "ModelConstants",
    "PAPER_CONSTANTS",
    "CalibrationReport",
    "recalibrate_from_log",
    "AdvisorAction",
    "AdvisorPlan",
    "advise",
    "apply_plan",
    "ColumnSchema",
    "ColumnType",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "FLOAT64",
    "DATE",
    "ReproError",
    "StorageError",
    "EncodingError",
    "CatalogError",
    "CorruptBlockError",
    "TransientIOError",
    "QuarantinedPartitionError",
    "PlanError",
    "UnsupportedOperationError",
    "ExecutionError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "CancelToken",
    "SQLError",
    "FaultInjector",
    "FaultRule",
    "RetryPolicy",
    "NO_RETRY",
    "PartitionQuarantine",
    "ScrubIssue",
    "ScrubReport",
    "scrub_catalog",
    "QueryLog",
    "read_query_log",
    "query_fingerprint",
    "query_template",
    "WorkloadSummary",
    "summarize_log",
    "ReplayReport",
    "replay_log",
    "render_prometheus",
]
