"""Tests for the command-line interface."""

import json
import socket

import pytest

from repro import Database
from repro.cli import _render_top_frame, main
from repro.metrics import LatencyHistogram, MetricsRegistry
from repro.serving import ServerThread

LOGGED_SQL = (
    "SELECT shipdate, linenum FROM lineitem "
    "WHERE shipdate < '1994-01-01' AND linenum < 7",
    "SELECT shipdate, linenum FROM lineitem "
    "WHERE shipdate < '1995-06-01' AND linenum < 4",
    "SELECT returnflag, sum(quantity) FROM lineitem GROUP BY returnflag",
)
LOGGED_STRATEGIES = ("em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel")


@pytest.fixture(scope="module")
def cli_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_db")
    assert main(["load-tpch", str(root), "--scale", "0.001"]) == 0
    return root


@pytest.fixture(scope="module")
def logged_db(tmp_path_factory):
    """A small database whose own query log holds 12 ok select records."""
    root = tmp_path_factory.mktemp("logged_db")
    assert main(["load-tpch", str(root), "--scale", "0.001"]) == 0
    with Database(root, metrics=MetricsRegistry()) as db:
        for sql in LOGGED_SQL:
            for strategy in LOGGED_STRATEGIES:
                db.sql(sql, strategy=strategy)
    return root


@pytest.fixture(scope="module")
def served(cli_db):
    """A ServerThread whose registry has seen one lm-parallel query."""
    db = Database(cli_db, metrics=MetricsRegistry(), query_log=False)
    db.sql(LOGGED_SQL[0], strategy="lm-parallel")
    with ServerThread(db) as server:
        yield server
    db.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestLoadAndInfo:
    def test_info_lists_projections(self, cli_db, capsys):
        assert main(["info", str(cli_db)]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "bitvector, rle, uncompressed" in out
        assert "[indexed]" in out

    def test_info_empty_db(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "empty")]) == 0
        assert "no projections" in capsys.readouterr().out


class TestQuery:
    def test_select(self, cli_db, capsys):
        code = main(
            [
                "query",
                str(cli_db),
                "SELECT shipdate, linenum FROM lineitem "
                "WHERE shipdate < '1994-01-01' AND linenum < 7",
                "--strategy",
                "lm-parallel",
                "--limit",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shipdate | linenum" in out
        assert "strategy=lm-parallel" in out
        assert "more rows" in out

    def test_raw_vs_decoded(self, cli_db, capsys):
        main(
            [
                "query",
                str(cli_db),
                "SELECT returnflag FROM lineitem WHERE returnflag = 'A'",
                "--limit",
                "1",
            ]
        )
        decoded = capsys.readouterr().out
        assert "\nA\n" in decoded
        main(
            [
                "query",
                str(cli_db),
                "SELECT returnflag FROM lineitem WHERE returnflag = 'A'",
                "--limit",
                "1",
                "--raw",
            ]
        )
        raw = capsys.readouterr().out
        assert "\n0\n" in raw

    def test_encoding_override(self, cli_db, capsys):
        code = main(
            [
                "query",
                str(cli_db),
                "SELECT linenum FROM lineitem WHERE linenum < 3",
                "--encoding",
                "linenum=bitvector",
                "--cold",
            ]
        )
        assert code == 0

    def test_bad_encoding_syntax(self, cli_db):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    str(cli_db),
                    "SELECT linenum FROM lineitem",
                    "--encoding",
                    "oops",
                ]
            )

    def test_sql_error_returns_nonzero(self, cli_db, capsys):
        code = main(["query", str(cli_db), "SELECT nope FROM lineitem"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExplain:
    def test_lists_all_strategies(self, cli_db, capsys):
        code = main(
            [
                "explain",
                str(cli_db),
                "SELECT shipdate, linenum FROM lineitem "
                "WHERE shipdate < '1994-01-01' AND linenum < 7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "<- chosen" in out
        for name in ("em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel"):
            assert name in out

    def test_join_explain_lists_inner_strategies(self, cli_db, capsys):
        code = main(
            [
                "explain",
                str(cli_db),
                "SELECT o.shipdate, c.nationcode FROM orders o, customer c "
                "WHERE o.custkey = c.custkey AND o.custkey < 50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("materialized", "multi-column", "single-column"):
            assert name in out
        assert "<- chosen" in out

    def test_join_explain_plan_prints_the_join(self, cli_db, capsys):
        code = main(
            [
                "explain",
                str(cli_db),
                "SELECT o.shipdate, c.nationcode FROM orders o, customer c "
                "WHERE o.custkey = c.custkey AND o.custkey < 50",
                "--plan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        chosen = next(
            line.split(":")[0].strip() for line in out.splitlines()
            if "<- chosen" in line
        )
        assert f"{chosen} join plan: 'orders'" in out
        assert "Join(custkey = custkey" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestLogCommands:
    def test_workload(self, logged_db, capsys):
        assert main(["workload", str(logged_db / "_qlog")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "records        12"
        assert lines[1] == "templates      2"
        assert lines[2] == "outcomes       ok=12"
        assert lines[3] == (
            "strategies     em-parallel=3, em-pipelined=3, lm-parallel=3, "
            "lm-pipelined=3"
        )
        assert lines[4] == "origins        embedded=12"
        assert "top 2 templates by total wall time:" in lines
        assert main(
            ["workload", str(logged_db / "_qlog"), "--json", "--db",
             str(logged_db)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 12
        assert payload["by_outcome"] == {"ok": 12}
        assert payload["distinct_templates"] == 2
        assert all(
            t["predicted_count"] == t["count"]
            for t in payload["top_templates"]
        )

    def test_advise(self, logged_db, capsys):
        assert main(["advise", str(logged_db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "records        12"
        assert lines[1].startswith("templates      2 (")
        assert lines[2].startswith("predicted ms   ")
        assert lines[3].startswith("advice         ")
        assert main(["advise", str(logged_db), "--json"]) == 0
        assert "actions" in json.loads(capsys.readouterr().out)

    def test_replay_check(self, logged_db, capsys):
        code = main(
            ["replay", str(logged_db), str(logged_db / "_qlog"), "--check"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "replay         OK",
            "records        12 total, 12 eligible",
            "replayed       12 (matched=12 mismatched=0 errors=0 skipped=0)",
        ]

    def test_calibrate_from_log(self, logged_db, capsys):
        assert main(["calibrate", str(logged_db)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "records        12"
        assert lines[1].startswith("mae ms         fitted=")
        assert lines[2] in ("adopted        fitted", "adopted        baseline")
        assert lines[4].split() == ["constant", "baseline", "fitted", "adopted"]
        assert main(["calibrate", str(logged_db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_records"] == 12
        for disk in ("PF", "SEEK", "READ"):
            assert report["constants"][disk] == report["baseline"][disk]
        # --from-log names the log; bare, it is the database's own.
        for log in ([str(logged_db / "_qlog")], []):
            assert main(["calibrate", str(logged_db), "--from-log", *log,
                         "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == report

    def test_calibrate_from_log_needs_db(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["calibrate", "--from-log"])
        assert exit_.value.code == 2
        assert "required: db" in capsys.readouterr().err


class TestServerCommands:
    def test_metrics(self, served, capsys):
        port = str(served.port)
        assert main(["metrics", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_queries_total 1" in out.splitlines()
        assert main(["metrics", "--port", port, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"metrics", "stats"}
        assert payload["metrics"]["counters"]["queries_total"] == 1

    def test_top_one_frame(self, served, capsys):
        code = main(
            ["top", "--port", str(served.port), "--count", "1", "--no-clear"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("repro top — up ")
        assert lines[1].startswith("queue   depth 0 (peak 0, bound 64)")
        assert lines[2] == "queries 1 total"
        assert lines[3].startswith("latency p50<=")
        assert lines[3].endswith("(n=1)")
        assert lines[4] == "mix     lm-parallel=1"
        assert len(lines) == 5

    @pytest.mark.parametrize("command", ["metrics", "top"])
    def test_unreachable_server(self, command, capsys):
        assert main([command, "--port", str(_free_port())]) == 1
        assert "error: cannot reach 127.0.0.1:" in capsys.readouterr().err


class TestTopFrame:
    def test_overflow_percentile_is_the_registry_max(self):
        # Two 0.5 ms queries and one past the last bucket bound (671 s).
        bounds = list(LatencyHistogram.BOUNDS)
        counts = [0] * (len(bounds) + 1)
        counts[6] = 2  # (0.32, 0.64] ms
        counts[-1] = 1
        hist = {"bounds": bounds, "counts": counts, "count": 3,
                "sum_ms": 3e6 + 1.0, "max_ms": 3e6}
        live = LatencyHistogram()
        for ms in (0.5, 0.5, 3e6):
            live.record(ms)
        assert live.export() == {**hist, "sum_ms": live.sum_ms}
        payload = {
            "stats": {
                "uptime_s": 12.5, "sessions": 2, "active": 1, "workers": 4,
                "admission": {"depth": 1, "peak_depth": 3, "max_depth": 64,
                              "rejected": 0, "per_class": {"interactive": 1}},
            },
            "metrics": {
                "counters": {"queries_total": 3,
                             "queries.strategy.lm-parallel": 2,
                             "queries.strategy.spc": 1},
                "histograms": {"query_wall_ms": hist},
                "slow_queries": [{"wall_ms": 3e6, "queue_wait_ms": 1.5,
                                  "strategy": "spc", "query": "q",
                                  "degraded": True}],
            },
        }
        frame, carried = _render_top_frame(
            payload, {"queries_total": 1}, 2.0
        )
        assert frame.splitlines() == [
            "repro top — up     12.5s   sessions 2   active 1/4 workers",
            "queue   depth 1 (peak 3, bound 64)   interactive=1  normal=0  "
            "batch=0   rejected 0",
            "queries 3 total        1.0 qps",
            "latency p50<=0.64 ms  p90<=3e+06 ms  p99<=3e+06 ms  (n=3)",
            "mix     lm-parallel=2  spc=1",
            "slow queries (last 1):",
            "  3000000.00 ms (queue    1.50 ms)           spc q  DEGRADED",
        ]
        assert live.percentile(0.99) == 3e6
        assert carried == {"queries_total": 3}
