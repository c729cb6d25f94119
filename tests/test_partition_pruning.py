"""Property tests: zone-map pruning is sound and purely physical.

Two obligations, checked with hypothesis-driven random predicates:

* **transparency** — a range-partitioned projection answers every query
  identically to an unpartitioned copy of the same data, under every
  strategy (pruning may skip partitions but never rows);
* **soundness** — a partition is pruned only when its zone maps *provably*
  exclude the predicates: re-scanning a pruned partition's raw values must
  find zero matching rows.

Plus structural properties of :func:`partition_boundaries` (contiguous,
covering, near-equal).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, Predicate, SelectQuery, Strategy
from repro.dtypes import INT32, ColumnSchema
from repro.errors import UnsupportedOperationError
from repro.operators.aggregate import AggSpec
from repro.planner.partitioned import partition_may_match, prune_partitions
from repro.predicates import InPredicate
from repro.storage.partition import partition_boundaries

N_ROWS = 12_000
N_PARTITIONS = 5
COLUMNS = ("a", "b", "c")

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _build(root, partitions: int) -> Database:
    # Same seed in both layouts -> identical logical data.
    rng = np.random.default_rng(3)
    db = Database(root)
    a = np.sort(rng.integers(0, 300, size=N_ROWS)).astype(np.int32)
    b = rng.integers(0, 12, size=N_ROWS).astype(np.int32)
    c = rng.integers(-40, 40, size=N_ROWS).astype(np.int32)
    db.catalog.create_projection(
        "t",
        {"a": a, "b": b, "c": c},
        schemas={
            "a": ColumnSchema("a", INT32),
            "b": ColumnSchema("b", INT32),
            "c": ColumnSchema("c", INT32),
        },
        sort_keys=["a"],
        encodings={
            "a": ["rle", "uncompressed"],
            "b": ["uncompressed", "bitvector"],
            "c": ["uncompressed"],
        },
        presorted=True,
        partitions=partitions,
    )
    return db


@pytest.fixture(scope="module")
def db_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("prune_prop")
    return _build(root / "plain", 1), _build(root / "part", N_PARTITIONS)


predicate_st = st.one_of(
    st.builds(
        Predicate,
        st.sampled_from(COLUMNS),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.integers(-60, 320),
    ),
    st.builds(
        InPredicate,
        st.sampled_from(COLUMNS),
        st.lists(st.integers(-5, 320), min_size=1, max_size=4).map(tuple),
    ),
)

predicates_st = st.lists(predicate_st, min_size=0, max_size=3).map(tuple)


class TestPruningTransparency:
    """Partitioned and unpartitioned layouts agree on every answer."""

    @_SETTINGS
    @given(predicates=predicates_st)
    def test_selection_identical_across_layouts(self, db_pair, predicates):
        plain, partitioned = db_pair
        query = SelectQuery(
            projection="t", select=COLUMNS, predicates=predicates
        )
        for strategy in Strategy:
            try:
                expected = sorted(plain.query(query, strategy=strategy).rows())
                got = sorted(partitioned.query(query, strategy=strategy).rows())
            except UnsupportedOperationError:
                continue
            assert got == expected

    @_SETTINGS
    @given(
        predicates=predicates_st,
        group=st.sampled_from(COLUMNS),
        func=st.sampled_from(["sum", "count", "min", "max", "avg"]),
    )
    def test_aggregates_identical_across_layouts(
        self, db_pair, predicates, group, func
    ):
        # Partial per-partition aggregates recombined by group key must
        # equal the single-pass unpartitioned aggregation.
        plain, partitioned = db_pair
        agg_col = next(c for c in COLUMNS if c != group)
        spec = AggSpec(func, agg_col)
        query = SelectQuery(
            projection="t",
            select=(group, spec.output_name),
            predicates=predicates,
            group_by=group,
            aggregates=(spec,),
        )
        expected = sorted(plain.query(query).rows())
        got = sorted(partitioned.query(query).rows())
        assert got == expected


class TestPruningSoundness:
    """A partition is skipped only when it provably holds no matches."""

    @_SETTINGS
    @given(predicates=predicates_st)
    def test_pruned_partitions_hold_no_matching_rows(
        self, db_pair, predicates
    ):
        _, partitioned = db_pair
        projection = partitioned.projection("t")
        query = SelectQuery(
            projection="t", select=COLUMNS, predicates=predicates
        )
        survivors, total = prune_partitions(projection, query)
        assert total == N_PARTITIONS
        surviving = {part.name for part in survivors}
        for part in projection.partitions:
            if part.name in surviving:
                continue
            child = part.open()
            mask = np.ones(child.n_rows, dtype=bool)
            for pred in predicates:
                mask &= pred.mask(child.read_column_values(pred.column))
            assert not mask.any(), (
                f"partition {part.name} was pruned but holds "
                f"{int(mask.sum())} matching rows for {predicates}"
            )

    def test_no_predicates_prunes_nothing(self, db_pair):
        _, partitioned = db_pair
        projection = partitioned.projection("t")
        query = SelectQuery(projection="t", select=("a",))
        survivors, total = prune_partitions(projection, query)
        assert len(survivors) == total == N_PARTITIONS

    def test_sort_key_point_predicate_prunes(self, db_pair):
        # The sort key's zone maps are disjoint ranges, so a point predicate
        # must exclude every partition whose range misses the constant.
        _, partitioned = db_pair
        projection = partitioned.projection("t")
        for part in projection.partitions:
            zone = part.zone_maps["a"]
            inside = SelectQuery(
                projection="t",
                select=("a",),
                predicates=(Predicate("a", "=", zone.min_value),),
            )
            assert partition_may_match(part, inside)
            outside = SelectQuery(
                projection="t",
                select=("a",),
                predicates=(Predicate("a", ">", zone.max_value),),
            )
            assert not partition_may_match(part, outside)

    def test_disjunction_prunes_conservatively(self, db_pair):
        # OR groups: a partition survives when any disjunct overlaps it.
        _, partitioned = db_pair
        projection = partitioned.projection("t")
        first = projection.partitions[0]
        last = projection.partitions[-1]
        query = SelectQuery(
            projection="t",
            select=("a",),
            disjuncts=(
                (Predicate("a", "<=", first.zone_maps["a"].max_value),),
                (Predicate("a", ">=", last.zone_maps["a"].min_value),),
            ),
        )
        assert partition_may_match(first, query)
        assert partition_may_match(last, query)
        survivors, _ = prune_partitions(projection, query)
        assert {p.name for p in survivors} >= {first.name, last.name}


class TestPruningPaysOff:
    def test_selective_sort_key_predicate_halves_simulated_time(
        self, tmp_path
    ):
        """Zone maps prune at least half of 4 lineitem partitions, which at
        least halves the parallel strategies' replayed time.

        ``returnflag = 'R'`` is the last quarter of the sort order; the
        shipdate cut keeps the output small and ``quantity != -1`` makes the
        parallel strategies scan the uncompressed quantity column, fully on
        the unpartitioned layout and only in surviving partitions otherwise.
        Scale 0.1 (600 K rows) is where saved block reads outweigh the extra
        per-partition seeks; at 0.01 the partitioned layout is slower.
        """
        from repro import MetricsRegistry, load_tpch
        from repro.reproduce import shipdate_constant
        from repro.tpch.generator import RETURNFLAG_DICTIONARY

        layouts = {}
        for name, partitions in (("plain", 1), ("partitioned", 4)):
            db = Database(tmp_path / name, metrics=MetricsRegistry(),
                          query_log=False)
            load_tpch(db.catalog, scale=0.1, seed=42, partitions=partitions)
            layouts[name] = db
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "quantity"),
            predicates=(
                Predicate("returnflag", "=", RETURNFLAG_DICTIONARY.index("R")),
                Predicate("shipdate", "<", shipdate_constant(0.05)),
                Predicate("quantity", "!=", -1),
            ),
        )
        plain, partitioned = layouts["plain"], layouts["partitioned"]
        try:
            for strategy in Strategy:
                full = plain.query(query, strategy=strategy, cold=True)
                pruned = partitioned.query(query, strategy=strategy, cold=True)
                assert sorted(pruned.rows()) == sorted(full.rows())
                if strategy in (Strategy.EM_PARALLEL, Strategy.LM_PARALLEL):
                    assert full.simulated_ms >= 2.0 * pruned.simulated_ms, (
                        strategy, full.simulated_ms, pruned.simulated_ms
                    )
            parts = partitioned.query(
                query, strategy="em-parallel", trace=True
            ).summary()["partitions"]
            assert parts["total"] == 4
            assert parts["pruned"] >= 2, parts
        finally:
            plain.close()
            partitioned.close()


class TestPartitionBoundaries:
    @given(
        n_rows=st.integers(0, 100_000),
        n_partitions=st.integers(1, 32),
    )
    def test_boundaries_cover_contiguously(self, n_rows, n_partitions):
        bounds = partition_boundaries(n_rows, n_partitions)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n_rows
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    @given(
        n_rows=st.integers(1, 100_000),
        n_partitions=st.integers(1, 32),
    )
    def test_partitions_nonempty_and_balanced(self, n_rows, n_partitions):
        bounds = partition_boundaries(n_rows, n_partitions)
        assert len(bounds) == min(n_partitions, n_rows)
        sizes = [stop - start for start, stop in bounds]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
