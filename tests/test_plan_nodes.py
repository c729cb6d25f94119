"""One plan, three views: the executor runs it, the model prices it, EXPLAIN
prints it.

Each bug test here pins a place where the three used to disagree: the
model pricing a plan that never runs, the optimizer and the executor
deciding applicability differently, or EXPLAIN printing operators the
executor does not run.
"""

import numpy as np
import pytest

from repro import (
    AggSpec,
    Database,
    JoinQuery,
    Predicate,
    RightTableStrategy,
    SelectQuery,
    Strategy,
    load_tpch,
)
from repro.errors import UnsupportedOperationError
from repro.model.predictor import predict_join, predict_select
from repro.planner import choose_strategy

from .reference import full_column


@pytest.fixture(scope="module")
def lineitem(tpch_db):
    return tpch_db.projection("lineitem")


@pytest.fixture(scope="module")
def partitioned_db(tmp_path_factory):
    db = Database(tmp_path_factory.mktemp("p4"), query_log=False)
    load_tpch(db.catalog, scale=0.002, seed=7, partitions=4)
    return db


def _shipdate_at(lineitem, quantile: float) -> int:
    return int(np.quantile(full_column(lineitem, "shipdate"), quantile))


def _pair(lineitem, quantile: float, linenum_pred, encoding="bitvector"):
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", _shipdate_at(lineitem, quantile)),
            linenum_pred,
        ),
        encodings=(("linenum", encoding),),
    )


def _disjunction(lineitem) -> SelectQuery:
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        disjuncts=(
            (Predicate("shipdate", "<", _shipdate_at(lineitem, 0.1)),),
            (Predicate("linenum", "=", 3), Predicate("quantity", "<", 5)),
        ),
    )


class TestDisjunctionPricing:
    def test_or_query_priced_as_the_union_plan(self, tpch_db, lineitem):
        query = _disjunction(lineitem)
        report = tpch_db.explain(query)
        no_where = tpch_db.explain(
            SelectQuery(projection="lineitem", select=("shipdate", "linenum"))
        )
        # Every strategy runs the one union plan, so every price is the same
        # and none of them is the predicate-free scan's.
        assert len(set(report["predictions"].values())) == 1
        assert report["predictions"]["lm-parallel"] != pytest.approx(
            no_where["predictions"]["lm-parallel"]
        )
        steps = [name for name, _c in report["details"][Strategy.LM_PARALLEL].steps]
        assert steps[:4] == ["DS1(shipdate)", "DS1(quantity)", "DS1(linenum)", "AND"]

    def test_explain_reports_the_strategy_that_runs(self, tpch_db, lineitem):
        query = _disjunction(lineitem)
        assert tpch_db.explain(query)["chosen"] == "lm-parallel"
        assert tpch_db.query(query, strategy="em-parallel").strategy == "lm-parallel"


class TestOneApplicabilityRule:
    def test_bitvector_scanned_first_keeps_lm_pipelined(self, tpch_db, lineitem):
        # linenum = 1 is the more selective predicate, so LM-pipelined scans
        # the bit-vector column with DS1 and position-filters shipdate.
        query = _pair(lineitem, 0.9, Predicate("linenum", "=", 1))
        _best, predictions = choose_strategy(lineitem, query)
        assert Strategy.LM_PIPELINED in predictions
        ran = tpch_db.query(query, strategy="lm-pipelined")
        reference = tpch_db.query(query, strategy="em-parallel")
        assert sorted(ran.rows()) == sorted(reference.rows())

    def test_rejected_plan_is_not_priced(self, tpch_db, lineitem):
        # Here the bit-vector column is filtered second: the executor
        # rejects the plan, so the model must not price it either.
        query = _pair(lineitem, 0.5, Predicate("linenum", "<", 7))
        with pytest.raises(UnsupportedOperationError):
            tpch_db.query(query, strategy="lm-pipelined")
        with pytest.raises(UnsupportedOperationError):
            predict_select(lineitem, query, Strategy.LM_PIPELINED)
        with pytest.raises(UnsupportedOperationError):
            tpch_db.describe(query, Strategy.LM_PIPELINED)

    def test_partitioned_count_distinct_rejected_everywhere(self, partitioned_db):
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "count(distinct linenum)"),
            group_by="returnflag",
            aggregates=(AggSpec("count_distinct", "linenum"),),
        )
        with pytest.raises(UnsupportedOperationError):
            partitioned_db.query(query, strategy="lm-parallel")
        with pytest.raises(UnsupportedOperationError):
            partitioned_db.explain(query)
        with pytest.raises(UnsupportedOperationError):
            partitioned_db.describe(query, Strategy.LM_PARALLEL)


def test_join_left_predicate_estimated_on_its_own_column(tpch_db):
    orders = tpch_db.projection("orders")
    customer = tpch_db.projection("customer")
    cutoff = int(np.quantile(full_column(orders, "shipdate"), 0.1))

    def predict(predicates):
        query = JoinQuery(
            left="orders", right="customer",
            left_key="custkey", right_key="custkey",
            left_select=("shipdate",), right_select=("nationcode",),
            left_predicates=predicates,
        )
        return predict_join(
            orders, customer, query, RightTableStrategy.MATERIALIZED
        ).total_ms

    # A shipdate cutoff keeping a tenth of the orders is priced as such, not
    # estimated against the custkey file (where it keeps every row).
    assert predict((Predicate("shipdate", "<", cutoff),)) < predict(())


class TestExplainShowsTheExecutedPlan:
    def test_one_predicate_lm_parallel_shows_its_and(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate",),
            predicates=(Predicate("shipdate", "<", 8800),),
        )
        text = tpch_db.describe(query, Strategy.LM_PARALLEL)
        ran = tpch_db.query(query, strategy="lm-parallel", trace=True)
        assert len(ran.spans.find("AND")) == 1
        assert "    AND\n      DS1(shipdate < 8800)" in text

    def test_partitioned_tail_runs_once_after_combine(self, partitioned_db):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "sum(linenum)"),
            predicates=(Predicate("linenum", "<", 7),),
            group_by="shipdate",
            aggregates=(AggSpec("sum", "linenum"),),
            order_by=(("shipdate", True),),
            limit=3,
        )
        text = partitioned_db.describe(query, Strategy.LM_PARALLEL)
        assert text.count("OrderBy(") == 1
        assert text.count("Limit(") == 1
        assert text.index("Limit(") < text.index("Combine(")
        assert text.count("Aggregate(") == text.count(" rows)") >= 2


class TestSpansEqualNodes:
    def test_lm_aggregation_gathers_have_ds3_spans(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "sum(quantity)"),
            predicates=(Predicate("shipdate", "<", 8800),),
            group_by="returnflag",
            aggregates=(AggSpec("sum", "quantity"),),
        )
        ran = tpch_db.query(query, strategy="lm-parallel", trace=True)
        columns = [span.detail["column"] for span in ran.spans.find("DS3")]
        assert columns == ["quantity", "returnflag"]

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("partitioned", [False, True])
    def test_spans_are_the_traced_nodes(
        self, tpch_db, partitioned_db, lineitem, strategy, partitioned
    ):
        from repro.planner import plan_nodes

        db = partitioned_db if partitioned else tpch_db
        queries = [
            _pair(lineitem, 0.3, Predicate("linenum", "<", 7), "rle"),
            SelectQuery(
                projection="lineitem",
                select=("linenum", "avg(quantity)"),
                predicates=(Predicate("shipdate", "<", 8800),),
                group_by="linenum",
                aggregates=(AggSpec("avg", "quantity"),),
                order_by=(("linenum", False),),
            ),
            _disjunction(lineitem),
        ]
        for query in queries:
            result = db.query(query, strategy=strategy, trace=True)
            spans = [(s.name, s.detail.get("column")) for s in result.spans.walk()]
            nodes = plan_nodes(
                db.projection("lineitem"),
                query,
                Strategy.from_name(result.strategy),
            )
            assert spans[1:] == [(n.op, n.column) for n in nodes if n.traced]


def _pending_db(root, partitions: int) -> Database:
    db = Database(root, query_log=False)
    load_tpch(db.catalog, scale=0.002, seed=7, partitions=partitions)
    db.insert("lineitem", [
        {"shipdate": 8700 + i, "linenum": i % 7 + 1, "quantity": i + 1,
         "returnflag": "ANR"[i % 3]}
        for i in range(10)
    ])
    return db


class TestPendingWritesArePlanNodes:
    """Reads over pending writes run, price and print one plan too: the
    stored part, GHOST, DELTA, one COMBINE and the tail."""

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_spans_are_the_traced_nodes(self, tmp_path, partitions):
        from .differential import check_span_invariants, plan_divergence

        db = _pending_db(tmp_path / "db", partitions)
        queries = [
            SelectQuery(
                projection="lineitem",
                select=("shipdate", "linenum"),
                predicates=(Predicate("linenum", "<", 7),),
                order_by=(("shipdate", True),),
                limit=5,
            ),
            SelectQuery(
                projection="lineitem",
                select=("linenum", "avg(quantity)"),
                predicates=(Predicate("shipdate", "<", 8800),),
                group_by="linenum",
                aggregates=(AggSpec("avg", "quantity"),),
                having=(Predicate("avg(quantity)", ">", 2),),
            ),
            SelectQuery(
                projection="lineitem",
                select=("returnflag", "min(shipdate)", "count(linenum)"),
                group_by="returnflag",
                aggregates=(AggSpec("min", "shipdate"),
                            AggSpec("count", "linenum")),
            ),
        ]
        for deletes in (False, True):
            if deletes:
                assert db.delete("lineitem", (Predicate("linenum", "=", 3),))
            for query in queries:
                for strategy in Strategy:
                    try:
                        result = db.query(query, strategy=strategy, trace=True)
                    except UnsupportedOperationError:
                        continue
                    check_span_invariants(result, db.constants)
                    assert plan_divergence(db, query, result) is None
                    names = [span.name for span in result.spans.children]
                    assert ("GHOST" in names) == deletes
                    assert names.count("DELTA") == 1
                    assert names.count("OUTPUT") == 1

    def test_limit_outputs_the_rows_it_returns(self, tmp_path):
        db = _pending_db(tmp_path / "db", 1)
        query = SelectQuery(
            projection="lineitem", select=("shipdate", "linenum"), limit=5
        )
        result = db.query(query, strategy="lm-parallel", trace=True)
        assert result.n_rows == result.stats.tuples_output == 5
        (output,) = result.spans.find("OUTPUT")
        assert output.rows_out == 5

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_explain_describe_and_auto_agree(self, tmp_path, partitions):
        db = _pending_db(tmp_path / "db", partitions)
        db.delete("lineitem", (Predicate("linenum", "=", 3),))
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "sum(quantity)"),
            predicates=(Predicate("shipdate", "<", 8800),),
            group_by="returnflag",
            aggregates=(AggSpec("sum", "quantity"),),
        )
        chosen = db.explain(query)["chosen"]
        assert db.query(query, strategy="auto").strategy == chosen
        text = db.describe(query)
        assert text.startswith(f"{chosen} plan over")
        assert "Combine(re-aggregate GROUP BY returnflag)" in text
        assert "Delta(" in text and "Ghost(" in text


def _join(orders, **fields) -> JoinQuery:
    cutoff = int(np.quantile(full_column(orders, "custkey"), 0.5))
    return JoinQuery(
        left="orders", right="customer",
        left_key="custkey", right_key="custkey",
        left_select=("shipdate",), right_select=("nationcode",),
        left_predicates=(
            Predicate("custkey", "<", cutoff),
            Predicate("shipdate", "<", 9000),
        ),
        **fields,
    )


class TestJoinsArePlanNodes:
    """A join runs, prices and prints one node list too: the outer core,
    the inner input, JOIN, the fetches, MERGE or AGG, and OUTPUT."""

    @pytest.mark.parametrize("left", ["late", "early"])
    @pytest.mark.parametrize("aggregated", [False, True])
    def test_spans_are_the_traced_nodes(self, tpch_db, left, aggregated):
        from .differential import check_span_invariants, plan_divergence

        extra = dict(
            group_by="nationcode", aggregates=(AggSpec("count", "shipdate"),)
        ) if aggregated else {}
        query = _join(
            tpch_db.projection("orders"), left_strategy=left, **extra
        )
        for strategy in RightTableStrategy:
            result = tpch_db.query(query, strategy=strategy, trace=True)
            check_span_invariants(result, tpch_db.constants)
            assert plan_divergence(tpch_db, query, result) is None
            names = [span.name for span in result.spans.children]
            # Nothing runs untraced: the outer key gather, the pin and
            # both fetches are spans of their own.
            assert ("DS3" in names) == (left == "late" or strategy.value
                                        == "single-column")
            assert ("PIN" in names) == (strategy.value == "multi-column")
            assert names.count("FETCH") == (
                2 if strategy.value == "single-column" else 1
            )
            assert names[-2:] == ["AGG" if aggregated else "MERGE", "OUTPUT"]

    def test_auto_runs_the_models_pick(self, tpch_db):
        query = _join(tpch_db.projection("orders"))
        tpch_db.clear_cache()  # explain prices a cold pool by default
        assert (
            tpch_db.query(query, strategy="auto").strategy
            == tpch_db.explain(query)["chosen"]
        )

    def test_early_and_late_outer_inputs_are_priced_apart(self, tpch_db):
        orders = tpch_db.projection("orders")
        late, early = (
            tpch_db.explain(_join(orders, left_strategy=side))["predictions"]
            for side in ("late", "early")
        )
        assert all(late[s] != early[s] for s in late)

    def test_pending_writes_refused_everywhere(self, tmp_path):
        from repro.errors import ExecutionError

        db = Database(tmp_path / "db", query_log=False)
        load_tpch(db.catalog, scale=0.002, seed=7)
        db.insert("orders", [{"shipdate": 8700, "custkey": 1}])
        query = _join(db.projection("orders"))
        with pytest.raises(ExecutionError, match="before joining"):
            db.query(query, strategy="materialized")
        with pytest.raises(ExecutionError, match="before joining"):
            db.query(query)
        with pytest.raises(ExecutionError, match="before joining"):
            db.explain(query)
        with pytest.raises(ExecutionError, match="before joining"):
            db.describe(query)

    def test_describe_draws_the_join(self, tpch_db):
        query = _join(tpch_db.projection("orders"))
        text = tpch_db.describe(query, RightTableStrategy.SINGLE_COLUMN)
        assert text.startswith("single-column join plan: 'orders'")
        for line in ("Merge(shipdate, nationcode)", "Fetch right(nationcode)",
                     "Fetch left(shipdate)", "Join(custkey = custkey",
                     "AND", "DS1(custkey <", "inner:"):
            assert line in text

    def test_override_no_side_stores_raises_everywhere(self, tpch_db):
        from repro.errors import CatalogError

        stored = {
            enc for side in ("orders", "customer")
            for enc in tpch_db.projection(side).physical_column(
                "custkey"
            ).encodings
        }
        missing = next(e for e in ("rle", "bitvector", "dictionary")
                       if e not in stored)
        query = _join(tpch_db.projection("orders"),
                      encodings=(("custkey", missing),))
        with pytest.raises(CatalogError, match="'orders' or 'customer'"):
            tpch_db.query(query, strategy="materialized")
        with pytest.raises(CatalogError, match="'orders' or 'customer'"):
            tpch_db.explain(query)
