"""SQL detail tests: aliases on single tables, dates in BETWEEN/IN, report."""

from datetime import date

import pytest

from repro.errors import SQLError

from .reference import full_column


class TestSingleTableAliases:
    def test_alias_qualified_columns(self, tpch_db):
        r = tpch_db.sql(
            "SELECT l.linenum FROM lineitem l WHERE l.linenum < 3"
        )
        lin = full_column(tpch_db.projection("lineitem"), "linenum")
        assert r.n_rows == int((lin < 3).sum())

    def test_table_name_as_qualifier(self, tpch_db):
        r = tpch_db.sql(
            "SELECT lineitem.linenum FROM lineitem "
            "WHERE lineitem.linenum = 7"
        )
        assert r.n_rows > 0

    def test_unknown_qualifier_rejected(self, tpch_db):
        with pytest.raises(SQLError):
            tpch_db.sql("SELECT x.linenum FROM lineitem l WHERE x.linenum < 3")


class TestDateLiterals:
    def test_between_dates(self, tpch_db):
        lineitem = tpch_db.projection("lineitem")
        ship = full_column(lineitem, "shipdate")
        from repro.dtypes import date_to_int

        lo = date_to_int(date(1993, 1, 1))
        hi = date_to_int(date(1994, 12, 31))
        r = tpch_db.sql(
            "SELECT shipdate FROM lineitem "
            "WHERE shipdate BETWEEN '1993-01-01' AND '1994-12-31'"
        )
        assert r.n_rows == int(((ship >= lo) & (ship <= hi)).sum())
        decoded = {d for (d,) in r.decoded_rows()}
        assert min(decoded) >= date(1993, 1, 1)
        assert max(decoded) <= date(1994, 12, 31)

    def test_in_dates(self, tpch_db):
        lineitem = tpch_db.projection("lineitem")
        ship = full_column(lineitem, "shipdate")
        from repro.dtypes import date_to_int

        targets = [date(1995, 6, 1), date(1995, 6, 2)]
        encoded = [date_to_int(d) for d in targets]
        r = tpch_db.sql(
            "SELECT shipdate FROM lineitem "
            "WHERE shipdate IN ('1995-06-01', '1995-06-02')"
        )
        import numpy as np

        assert r.n_rows == int(np.isin(ship, encoded).sum())

    def test_equality_on_date(self, tpch_db):
        r = tpch_db.sql(
            "SELECT shipdate FROM lineitem WHERE shipdate = '1995-06-01'"
        )
        assert all(d == date(1995, 6, 1) for (d,) in r.decoded_rows())


class TestQueryReport:
    def test_report_contains_key_facts(self, tpch_db):
        r = tpch_db.sql(
            "SELECT linenum FROM lineitem WHERE linenum < 3",
            strategy="lm-parallel",
            cold=True,
        )
        text = r.report()
        assert "strategy       lm-parallel" in text
        assert f"rows           {r.n_rows}" in text
        assert "model replay" in text
        assert "block reads" in text

    def test_report_includes_trace_when_enabled(self, tpch_db):
        from repro import Predicate, SelectQuery

        q = SelectQuery(
            projection="lineitem",
            select=("linenum",),
            predicates=(Predicate("linenum", "<", 3),),
        )
        r = tpch_db.query(q, strategy="lm-parallel", trace=True, cold=True)
        text = r.report()
        assert "operators:" in text
        assert "DS1" in text


def _row_loop_decoded(result):
    """Per-cell reference for ``QueryResult.decoded_rows``."""
    columns = result.tuples.columns
    return [
        tuple(
            result.decoders[col](value) if col in result.decoders else value
            for col, value in zip(columns, row)
        )
        for row in result.rows()
    ]


class TestDecodedRows:
    @pytest.mark.parametrize("sql", [
        "SELECT returnflag, shipdate, quantity FROM lineitem "
        "WHERE linenum < 3",
        "SELECT quantity, returnflag FROM lineitem WHERE shipdate = '1995-06-01'",
        "SELECT returnflag, SUM(quantity) FROM lineitem GROUP BY returnflag",
        "SELECT shipdate FROM lineitem WHERE linenum = 1 LIMIT 3",
        "SELECT returnflag, shipdate, quantity FROM lineitem WHERE linenum > 99",
    ])
    def test_equals_the_row_loop(self, tpch_db, sql):
        result = tpch_db.sql(sql)
        decoded = result.decoded_rows()
        assert decoded == _row_loop_decoded(result)
        assert all(type(row) is tuple for row in decoded)
        for row in decoded:
            for col, value in zip(result.tuples.columns, row):
                if col == "returnflag":
                    assert isinstance(value, str)
                elif col == "shipdate":
                    assert type(value) is date
                else:
                    assert type(value) is int

    def test_empty_result(self, tpch_db):
        result = tpch_db.sql(
            "SELECT returnflag, shipdate FROM lineitem WHERE linenum > 99"
        )
        assert result.n_rows == 0
        assert result.decoded_rows() == []
