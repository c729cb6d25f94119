"""Serving layer: protocol, sessions, admission, timeouts, drain, loadgen.

These tests stand a real server up (background event loop via
``ServerThread``) around the shared TPC-H fixture and talk to it over TCP —
no mocked transport — so they cover the same path the concurrency
differential and the serving benchmark exercise.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import (
    Database,
    MetricsRegistry,
    Predicate,
    QueryResult,
    SelectQuery,
    load_tpch,
)
from repro.operators.aggregate import AggSpec
from repro.predicates import InPredicate
from repro.planner import JoinQuery
from repro.serving import (
    AsyncQueryClient,
    ServerThread,
    query_from_dict,
    query_to_dict,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def served(tpch_db):
    """One server over the shared fixture for the whole module."""
    with ServerThread(tpch_db, workers=2, max_queue=32) as server:
        yield tpch_db, server


SQL = "SELECT shipdate, linenum FROM lineitem WHERE shipdate < 9000"


class TestProtocolRoundtrip:
    def test_select_query_roundtrip(self):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", 9000),
                InPredicate("linenum", (1, 3, 5)),
            ),
            encodings=(("linenum", "rle"),),
            order_by=(("shipdate", True),),
            limit=10,
        )
        assert query_from_dict(query_to_dict(query)) == query

    def test_disjuncts_and_having_roundtrip(self):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate",),
            disjuncts=(
                (Predicate("shipdate", "<", 9000),),
                (Predicate("linenum", "=", 3),),
            ),
        )
        assert query_from_dict(query_to_dict(query)) == query
        agg = SelectQuery(
            projection="lineitem",
            select=("linenum", "sum(quantity)"),
            group_by="linenum",
            aggregates=(AggSpec("sum", "quantity"),),
            having=(Predicate("sum(quantity)", ">", 100),),
        )
        assert query_from_dict(query_to_dict(agg)) == agg

    def test_join_query_roundtrip(self):
        query = JoinQuery(
            left="lineitem",
            right="orders",
            left_key="orderkey",
            right_key="orderkey",
            left_select=("linenum",),
            right_select=("orderdate",),
            left_predicates=(Predicate("linenum", "<", 4),),
        )
        assert query_from_dict(query_to_dict(query)) == query

    def test_json_roundtrip_is_exact(self):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate",),
            predicates=(Predicate("shipdate", "<=", 2**31 - 1),),
        )
        wire = json.loads(json.dumps(query_to_dict(query)))
        assert query_from_dict(wire) == query


class TestServerBasics:
    def test_sql_matches_direct_execution(self, served):
        db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.sql(SQL, strategy="em-pipelined")
            await client.close()
            return response

        response = run(go())
        assert response["ok"]
        direct = db.sql(SQL, strategy="em-pipelined")
        assert response["n_rows"] == direct.n_rows
        assert sorted(tuple(r) for r in response["rows"]) == sorted(
            direct.rows()
        )
        assert response["strategy"] == "em-pipelined"
        assert response["queue_wait_ms"] >= 0.0
        assert response["total_ms"] >= response["wall_ms"]

    def test_logical_query_op(self, served):
        db, server = served
        query = SelectQuery(
            projection="lineitem",
            select=("linenum",),
            predicates=(Predicate("linenum", "<", 4),),
        )

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.query(query, strategy="lm-parallel")
            await client.close()
            return response

        response = run(go())
        assert response["ok"]
        direct = db.query(query, strategy="lm-parallel")
        assert sorted(tuple(r) for r in response["rows"]) == sorted(
            direct.rows()
        )

    def test_ping_session_knobs_history(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            assert client.greeting["ok"] and client.session_id
            assert (await client.ping())["pong"]
            knobs = await client.set_knobs(strategy="em-parallel", trace=True)
            assert knobs["knobs"]["strategy"] == "em-parallel"
            bad = await client.set_knobs(nonsense=1)
            assert not bad["ok"] and "nonsense" in bad["error"]["message"]
            response = await client.sql(SQL)
            assert response["ok"]
            # session default strategy applied, trace rode along
            assert response["strategy"] == "em-parallel"
            assert response["trace"]["operator"] == "query"
            info = await client.session()
            await client.close()
            return info["session"]

        session = run(go())
        assert session["queries"] >= 1
        assert session["history"][-1]["ok"]

    def test_decoded_rows_knob(self, served):
        db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.sql(
                "SELECT returnflag FROM lineitem WHERE linenum = 1",
                decoded=True,
            )
            await client.close()
            return response

        response = run(go())
        assert response["ok"]
        direct = db.sql("SELECT returnflag FROM lineitem WHERE linenum = 1")
        assert [tuple(r) for r in response["rows"]] == direct.decoded_rows()

    def test_decoded_dates_are_iso_strings(self, served):
        db, server = served
        statement = "SELECT shipdate FROM lineitem WHERE linenum = 1 LIMIT 3"

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.sql(statement, decoded=True)
            alive = await client.ping()
            await client.close()
            return response, alive

        response, alive = run(go())
        assert response["ok"], response
        direct = db.sql(statement, strategy=response["strategy"])
        assert response["rows"] == [
            [day.isoformat()] for (day,) in direct.decoded_rows()
        ]
        assert alive["pong"]

    def test_unserialisable_reply_becomes_error_response(
        self, served, monkeypatch
    ):
        _db, server = served
        monkeypatch.setattr(
            QueryResult, "decoded_rows", lambda self: [(object(),)]
        )

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.sql(SQL, decoded=True)
            alive = await client.ping()
            await client.close()
            return response, alive

        response, alive = run(go())
        assert not response["ok"]
        assert response["error"]["type"] == "TypeError"
        assert alive["pong"]

    def test_unknown_op_and_malformed_line(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            unknown = await client.request({"op": "frobnicate"})
            # Malformed JSON must produce an error response, not kill the
            # connection.
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            garbled = json.loads(await client._reader.readline())
            alive = await client.ping()
            await client.close()
            return unknown, garbled, alive

        unknown, garbled, alive = run(go())
        assert not unknown["ok"] and "frobnicate" in unknown["error"]["message"]
        assert not garbled["ok"]
        assert alive["pong"]

    def test_explain_analyze_over_the_wire(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.explain(SQL)
            plain = await client.explain(SQL, analyze=False)
            await client.close()
            return response, plain

        response, plain = run(go())
        assert response["ok"]
        report = response["explain"]
        assert report["queue_wait_ms"] > 0.0  # real queue, real wait
        assert report["total_ms"] == pytest.approx(
            report["queue_wait_ms"] + report["wall_ms"]
        )
        assert "QUEUE" in report["text"] or any(
            child["operator"] == "QUEUE"
            for child in report["json"].get("children", ())
        )
        assert plain["ok"] and "predictions" in plain["explain"]


class TestLatencyDecomposition:
    """Satellite: serving latency decomposes into wait + execute."""

    def test_wait_plus_execute_approximates_end_to_end(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            # Warm once so the measured request is steady-state.
            await client.sql(SQL)
            t0 = time.perf_counter()
            response = await client.sql(SQL)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            await client.close()
            return response, elapsed_ms

        response, elapsed_ms = run(go())
        assert response["ok"]
        total = response["queue_wait_ms"] + response["wall_ms"]
        assert response["total_ms"] == pytest.approx(total)
        # wait + execute can never (meaningfully) exceed what the client
        # measured, and must account for the bulk of it — the remainder is
        # JSON encode/decode and loopback transport.
        assert total <= elapsed_ms + 5.0
        assert elapsed_ms - total <= max(250.0, 0.9 * elapsed_ms)

    def test_report_and_explain_surface_queue_wait(self, tpch_db):
        query = SelectQuery(projection="lineitem", select=("linenum",))
        result = tpch_db.query(query, queue_wait_ms=7.5, trace=True)
        assert result.queue_wait_ms == 7.5
        assert "queue wait" in result.report()
        assert len(result.spans.find("QUEUE")) == 1
        report = tpch_db.explain(query, analyze=True, queue_wait_ms=7.5)
        assert report["queue_wait_ms"] == 7.5
        assert report["total_ms"] == pytest.approx(7.5 + report["wall_ms"])


class SlowDB(Database):
    """A Database whose queries take a fixed minimum wall time."""

    SLEEP_S = 0.05

    def query(self, *args, **kwargs):  # noqa: D102 - test shim
        time.sleep(self.SLEEP_S)
        return super().query(*args, **kwargs)


@pytest.fixture(scope="module")
def slow_db(tmp_path_factory):
    db = SlowDB(tmp_path_factory.mktemp("slow") / "db")
    load_tpch(db.catalog, scale=0.001, seed=7)
    yield db
    db.close()


class TestAdmissionControl:
    def test_backpressure_rejects_when_saturated(self, slow_db):
        # 1 worker x 50 ms queries, queue bound 2, 8 concurrent clients:
        # at least 8 - (2 queued + 1 running) must be rejected up front.
        with ServerThread(slow_db, workers=1, max_queue=2) as server:

            async def one():
                client = await AsyncQueryClient.connect(
                    server.host, server.port
                )
                response = await client.sql(
                    "SELECT linenum FROM lineitem WHERE linenum < 3"
                )
                await client.close()
                return response

            async def go():
                return await asyncio.gather(*(one() for _ in range(8)))

            responses = run(go())
        ok = [r for r in responses if r.get("ok")]
        rejected = [r for r in responses if r.get("rejected")]
        assert ok, "some queries must be admitted"
        assert rejected, "a full admission queue must reject, not buffer"
        for r in rejected:
            assert not r["ok"]
            assert "queue full" in r["error"]["message"]

    def test_priority_classes_accepted(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            out = []
            for priority in ("interactive", "normal", "batch"):
                out.append(
                    await client.sql(
                        "SELECT linenum FROM lineitem WHERE linenum = 2",
                        priority=priority,
                    )
                )
            bad = await client.sql(SQL, priority="vip")
            await client.close()
            return out, bad

        out, bad = run(go())
        assert all(r["ok"] for r in out)
        assert not bad["ok"]

    def test_timeout_produces_timeout_response(self, served):
        _db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            response = await client.sql(SQL, timeout_ms=0)
            alive = await client.sql(SQL)  # session survives the timeout
            await client.close()
            return response, alive

        response, alive = run(go())
        assert not response["ok"]
        assert response.get("timeout")
        assert response["error"]["type"] == "QueryTimeoutError"
        assert alive["ok"]

    def test_graceful_drain_completes_admitted_work(self, slow_db):
        server_thread = ServerThread(slow_db, workers=1, max_queue=16)
        with server_thread as server:

            async def go():
                clients = [
                    await AsyncQueryClient.connect(server.host, server.port)
                    for _ in range(4)
                ]
                responses = await asyncio.gather(
                    *(
                        c.sql("SELECT linenum FROM lineitem WHERE linenum < 2")
                        for c in clients
                    )
                )
                for c in clients:
                    await c.close()
                return responses

            responses = run(go())
            assert all(r["ok"] for r in responses)
        # __exit__ drained: everything admitted was taken and executed.
        admission = server_thread.server.admission
        assert admission.depth() == 0
        assert admission.taken == admission.admitted
        assert server_thread.server._active_count() == 0

    def test_serving_metrics_recorded(self, tmp_path):
        registry = MetricsRegistry()
        db = Database(tmp_path / "db", metrics=registry)
        load_tpch(db.catalog, scale=0.001, seed=7)
        with ServerThread(db, workers=1, max_queue=8) as server:

            async def go():
                client = await AsyncQueryClient.connect(
                    server.host, server.port
                )
                for _ in range(3):
                    await client.sql(
                        "SELECT linenum FROM lineitem WHERE linenum < 5"
                    )
                stats = await client.stats()
                await client.close()
                return stats

            stats = run(go())
            snapshot = registry.snapshot()
            # While the server lives, its admission queue is a collector.
            assert snapshot["admission_queue"]["admitted"] >= 3
        assert stats["stats"]["admission"]["taken"] >= 3
        assert snapshot["counters"]["serving.queries_total"] == 3
        assert snapshot["histograms"]["serving.queue_wait_ms"]["count"] == 3
        assert snapshot["histograms"]["serving.total_ms"]["count"] == 3
        db.close()


class TestLoadgen:
    def test_loadgen_smoke_and_cli(self, tpch_db, capsys):
        from repro.cli import main
        from repro.serving import run_loadgen

        report = run_loadgen(
            tpch_db, clients=2, duration_s=0.5, think_ms=5.0, workers=2,
            corpus_size=8, seed=7,
        )
        assert report.ok > 0
        assert report.errors == 0 and report.timeouts == 0
        assert report.max_ms >= report.p99_ms >= report.p95_ms
        assert report.p95_ms >= report.p50_ms >= 0.0
        d = report.to_dict()
        assert json.dumps(d)  # JSON-safe
        assert d["rejection_rate"] == 0.0

        code = main(
            [
                "loadgen", str(tpch_db.catalog.root),
                "--clients", "2", "--duration", "0.4", "--think-ms", "5",
                "--corpus", "6", "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out

    def test_zipfian_cdf_is_skewed(self):
        from repro.serving import zipfian_cdf

        cdf = zipfian_cdf(16, theta=1.1)
        assert len(cdf) == 16
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf[0] > 1.0 / 16  # rank 1 carries more than uniform share
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))


class TestTransientReconnect:
    def test_idempotent_request_survives_server_side_close(self, served):
        db, server = served

        async def go():
            registry = MetricsRegistry()
            client = await AsyncQueryClient.connect(
                server.host, server.port, metrics=registry
            )
            first_session = client.session_id
            # The close op makes the server drop this connection after
            # replying — the next request hits a dead socket.
            await client.request({"op": "close"})
            response = await client.ping()
            reconnects = registry.counter(
                "serving.reconnects_total"
            ).value
            new_session = client.session_id
            await client.close()
            return response, reconnects, first_session, new_session

        response, reconnects, first, new = run(go())
        assert response["ok"] and response["pong"]
        assert reconnects == 1
        assert new != first  # the retry runs on a fresh session

    def test_query_retried_and_answer_identical(self, served):
        db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            await client.request({"op": "close"})
            response = await client.sql(SQL)
            await client.close()
            return response

        response = run(go())
        assert response["ok"]
        assert response["n_rows"] == db.sql(SQL).n_rows

    def test_non_idempotent_op_is_never_replayed(self, served):
        db, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            await client.request({"op": "close"})
            with pytest.raises(ConnectionError):
                await client.set_knobs(strategy="em-pipelined")

        run(go())

    def test_backoff_is_capped_exponential(self, served):
        from repro.serving.client import (
            RECONNECT_BACKOFF_BASE,
            RECONNECT_BACKOFF_CAP,
        )

        _, server = served

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            await client.request({"op": "close"})
            client._consecutive_resets = 10  # far past the cap
            t0 = time.monotonic()
            await client.ping()
            elapsed = time.monotonic() - t0
            await client.close()
            return elapsed

        elapsed = run(go())
        assert RECONNECT_BACKOFF_BASE < RECONNECT_BACKOFF_CAP <= 1.0
        assert elapsed >= RECONNECT_BACKOFF_CAP  # slept the capped backoff
