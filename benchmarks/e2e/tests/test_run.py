"""Every workload in smoke mode, the CLI plumbing, and a failing oracle."""

import ctypes
import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import harness, metrics, report, validate
from benchmarks.e2e.workloads import (
    HtapIngestRead,
    ScanWarmSelect,
    ServeSqlZipf,
    zipf_schedule,
)

SEED = 3


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke`` over all workloads: (process, out dir, seconds)."""
    out = tmp_path_factory.mktemp("e2e_out")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(report.RUN_PY), "--smoke", "--seed", str(SEED),
         "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    return proc, out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs(smoke):
    proc, out, _ = smoke
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads((out / f"run-{SEED}.json").read_text())
    assert doc["claim"] is None and doc["smoke"] is True
    assert doc["seed"] == SEED and doc["durability"] == "fsync"
    return doc["workloads"]


def value(runs, workload, metric):
    part = "end_to_end" if metric in metrics.END_TO_END_NAMES else "per_layer"
    return runs[workload][part]["metrics"][metric]["value"]


def test_smoke_prints_every_metric_by_name_with_its_unit(smoke, runs):
    proc, _, elapsed = smoke
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert f"\n{m.name} " in proc.stdout and f" {m.unit} " in proc.stdout
    assert "durability=fsync" in proc.stdout
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"   # ~13 s here


def test_smoke_has_the_full_output_schema_and_no_failures(runs):
    assert set(runs) == set(metrics.WORKLOAD_NAMES)
    for name, parts in runs.items():
        for part, trace in (("end_to_end", False), ("per_layer", True)):
            result = parts[part]
            assert validate.result_problems(result, trace) == []
            assert result["correct"] and result["failed"] == 0, (name, part)
        for metric in metrics.END_TO_END_NAMES:
            assert value(runs, name, metric) > 0, (name, metric)
        assert value(runs, name, "driver.failed_share") == 0.0


def test_workloads_separate_the_layers(runs):
    library = metrics.LIBRARY
    served_only = [n for n in metrics.PER_LAYER_NAMES
                   if n.startswith(("sql.", "serving."))
                   and n not in ("serving.rejected_share",
                                 "serving.reconnects")]
    for name in served_only:
        assert all(value(runs, w, name) == 0 for w in library), name
        assert value(runs, "serve_sql_zipf", name) > 0, name
    write_side = [n for n in metrics.PER_LAYER_NAMES
                  if n.startswith("delta.")] + ["engine.merge_count"]
    for name in write_side:
        for w in metrics.WORKLOAD_NAMES:
            assert (value(runs, w, name) > 0) == (w == "htap_ingest_read")
    for w in metrics.WORKLOAD_NAMES:
        assert (value(runs, w, "operators.join_self_ms_per_op") > 0) == (
            w in ("join_agg_mix", "serve_sql_zipf")
        )
    # Warm: everything is served decoded. Starved: only what one query
    # touches twice (DS1 then DS3 on the few-block RLE columns) still hits;
    # 0.14-0.16 here, so ISSUE 12's "<= 0.05" cannot hold with a cache of
    # 1/16 of the data and 0.2 is the line (README, "A/A evidence").
    assert value(runs, "scan_warm_select", "buffer.decoded_hit_share") >= 0.8
    assert value(runs, "scan_cold_starved", "buffer.decoded_hit_share") <= 0.2
    assert value(runs, "scan_cold_starved", "buffer.pool_hit_share") <= 0.2
    assert value(runs, "scan_warm_select", "buffer.block_reads_per_op") == 0
    assert value(runs, "scan_cold_starved", "buffer.block_reads_per_op") > 0


def test_trace_files_hold_spans_with_parents_and_op_ids(smoke, runs):
    _, out, _ = smoke
    for name in metrics.WORKLOAD_NAMES:
        doc = json.loads((out / f"trace-{name}.json").read_text())
        assert doc["workload"] == name and doc["seed"] == SEED
        spans = doc["spans"]
        by_id = {s["id"]: s for s in spans}
        calls = [s for s in spans if s["parent"] == -1]
        assert calls and len(spans) > len(calls)
        for s in spans:
            assert s["end_ms"] >= s["start_ms"] and s["self_ms"] >= -1e-6
            if s["parent"] != -1:
                assert by_id[s["parent"]]["op"] == s["op"]


def test_seed_and_workload_flags_are_honoured(runs, tmp_path):
    again = report.run_child("scan_warm_select", SEED, 1, True, smoke=True)
    other = report.run_child("scan_warm_select", SEED + 1, 1, True, smoke=True)
    differs = False
    for name in metrics.EXACT_NAMES:
        same_seed = again["metrics"][name]["value"]
        assert same_seed == value(runs, "scan_warm_select", name), name
        differs |= other["metrics"][name]["value"] != same_seed
    assert differs, "another seed must give other data"
    assert not list(tmp_path.iterdir())   # nothing written without --out


PR_SET_CHILD_SUBREAPER = 36


@pytest.mark.parametrize("workload", ["scan_warm_select", "serve_sql_zipf"])
def test_a_run_leaves_no_process_behind(workload):
    """As a subreaper this process inherits whatever outlives the run's own
    process (a ``multiprocessing`` resource tracker did), alive or not."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        report.run_child(workload, SEED, 1, False, smoke=True)
        with pytest.raises(ChildProcessError):   # "no child processes"
            os.waitpid(-1, os.WNOHANG)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_the_helper_has_ended_when_its_block_is_left():
    with harness.Helper() as helper:
        assert helper.call(os.getpid) == helper.proc.pid
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            helper.call(divmod, 1, 0)
        assert helper.call(divmod, 7, 2) == (3, 1)    # and it carries on
    assert helper.proc.returncode == 0
    with pytest.raises(KeyboardInterrupt), harness.Helper() as helper:
        raise KeyboardInterrupt
    assert helper.proc.returncode is not None


def test_zipf_schedule_has_exact_proportions_in_seeded_order():
    import random

    one = zipf_schedule(32, 256, 1.1, random.Random(1))
    two = zipf_schedule(32, 256, 1.1, random.Random(2))
    assert len(one) == 256 and sorted(one) == sorted(two) and one != two
    counts = [one.count(i) for i in range(32)]
    assert counts == sorted(counts, reverse=True) and counts[0] > 60


class LyingScan(ScanWarmSelect):
    def reference(self):
        super().reference()
        self.expected["select-0.5"] = "a deliberately wrong answer"


class LyingHtap(HtapIngestRead):
    def open(self):
        super().open()
        self.shadow.columns["quantity"][0] += 1    # the driver's copy drifts


class LyingServe(ServeSqlZipf):
    def reference(self):
        super().reference()
        self.expected[0] = "a deliberately wrong answer"


@pytest.mark.parametrize("cls", [LyingScan, LyingHtap, LyingServe])
def test_a_wrong_answer_counts_as_failed(cls, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")
    result = harness.run_workload(cls, seed=5, seconds=1, trace=False,
                                  smoke=True)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    if cls is LyingScan:    # 11 of the 66 templates share that answer
        assert (result["failed"], result["attempted"]) == (11, 66)
    assert not (tmp_path / "work").exists()       # cleaned up after itself
