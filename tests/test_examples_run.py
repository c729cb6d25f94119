"""Smoke-run the example scripts (documentation that executes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST = ["quickstart.py", "writable_store.py", "join_strategies.py"]
HEAVY = [
    "materialization_tradeoffs.py",
    "custom_dataset.py",
    "strategy_advisor.py",
    "projection_design.py",
    "observability.py",
]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", FAST)
def test_fast_examples(name):
    proc = run_example(name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", HEAVY)
@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_ALL_EXAMPLES"),
    reason="set REPRO_RUN_ALL_EXAMPLES=1 to smoke-run the heavier examples",
)
def test_heavy_examples(name):
    args = ("0.005",) if name in (
        "materialization_tradeoffs.py", "join_strategies.py"
    ) else ()
    proc = run_example(name, *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
