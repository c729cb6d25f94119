"""Extension experiment: do the paper's conclusions survive modern storage?

The paper's disk constants (SEEK 2.5 ms, READ 1 ms per 64 KB) describe a
2006 spinning disk. This experiment re-runs the Figure 11(a) and 11(b)
endpoints under SSD profiles: seeks collapse by ~40-150x, so the I/O side of
the trade-off (block skipping, re-access) fades and the CPU side (tuples
constructed, values touched, runs processed) decides. Expected outcome: the
paper's *qualitative* conclusions persist — LM still wins on compressed data
and at low selectivity, EM-parallel still wins high-selectivity uncompressed
selection — because they are CPU conclusions; only the absolute I/O floor
moves.
"""

from __future__ import annotations

import pytest

from repro import Database, Strategy
from repro.buffer import DiskModel
from repro.model import PAPER_CONSTANTS
from repro.reproduce import selection_query

from .harness import BENCH_SCALE, format_table, record, run_point

PROFILES = {
    "hdd-2006": DiskModel.hdd_2006,
    "sata-ssd": DiskModel.sata_ssd,
    "nvme-ssd": DiskModel.nvme_ssd,
}


@pytest.fixture(scope="module")
def profile_dbs(tmp_path_factory, bench_db):
    """The bench catalog opened under each disk profile."""
    dbs = {}
    for name, factory in PROFILES.items():
        disk = factory()
        dbs[name] = Database(
            bench_db.catalog.root,
            disk=disk,
            constants=PAPER_CONSTANTS.with_overrides(
                seek=disk.seek_us, read=disk.read_us
            ),
        )
    return dbs


@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize(
    "strategy",
    [Strategy.EM_PARALLEL, Strategy.LM_PIPELINED],
    ids=lambda s: s.value,
)
def test_modern_storage_point(benchmark, profile_dbs, profile, strategy):
    point = benchmark.pedantic(
        run_point,
        args=(profile_dbs[profile], selection_query(0.5, "rle"), strategy),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["simulated_ms"] = round(point["sim_ms"], 2)


def test_modern_storage_report(benchmark, profile_dbs):
    def sweep():
        out = {}
        for profile, db in profile_dbs.items():
            for encoding, sel, strategies in (
                ("uncompressed", 0.98,
                 (Strategy.EM_PARALLEL, Strategy.LM_PARALLEL)),
                ("uncompressed", 0.02,
                 (Strategy.EM_PARALLEL, Strategy.LM_PIPELINED)),
                ("rle", 0.98,
                 (Strategy.EM_PARALLEL, Strategy.LM_PARALLEL)),
            ):
                for strategy in strategies:
                    point = run_point(
                        db, selection_query(sel, encoding), strategy
                    )
                    key = f"{encoding}@{sel}/{strategy.value}"
                    out.setdefault(key, []).append(
                        (hash(profile) % 100, point["wall_ms"], point["sim_ms"])
                    )
        return out

    raw = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Re-key rows by profile for the printed table.
    profiles = list(profile_dbs)
    lines = [
        "Extension: paper conclusions under modern storage (model-replay ms)",
        f"{'case':>34} " + " ".join(f"{p:>10}" for p in profiles),
    ]
    for key, rows in raw.items():
        cells = " ".join(f"{sim:>10.1f}" for _p, _w, sim in rows)
        lines.append(f"{key:>34} {cells}")
    record("ext_modern_storage", "\n".join(lines))

    def sim(case: str, profile: str) -> float:
        return raw[case][profiles.index(profile)][2]

    for profile in profiles:
        # CPU conclusions persist on every medium:
        # (1) high-selectivity uncompressed selection -> EM-parallel wins;
        assert sim("uncompressed@0.98/em-parallel", profile) < sim(
            "uncompressed@0.98/lm-parallel", profile
        )
        # (2) low selectivity -> LM-pipelined wins;
        assert sim("uncompressed@0.02/lm-pipelined", profile) < sim(
            "uncompressed@0.02/em-parallel", profile
        )
        # (3) RLE data -> LM wins.
        assert sim("rle@0.98/lm-parallel", profile) < sim(
            "rle@0.98/em-parallel", profile
        )
    # And the I/O floor collapses across profiles.
    assert sim("uncompressed@0.02/lm-pipelined", "nvme-ssd") < 0.3 * sim(
        "uncompressed@0.02/lm-pipelined", "hdd-2006"
    )
