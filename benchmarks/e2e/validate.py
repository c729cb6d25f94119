"""Check ``BENCHMARK.json`` against the driver's contract and ``metrics.py``.

Run first by the benchmark command and by the self-tests, because a manifest
the driver refuses costs the whole PR. ``python -m benchmarks.e2e.validate
--write`` renders the manifest from ``metrics.py``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from . import metrics

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}\Z")
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25
#: The driver makes 4 + 22 x workloads runs inside this many seconds.
TOTAL_SECONDS = 3420


def _leaves_repo(text: str) -> bool:
    return text.startswith("/") or ".." in Path(text).parts


def _entries(doc, key, lo, hi, fields, problems) -> list:
    items = doc.get(key)
    if not isinstance(items, list) or not lo <= len(items) <= hi:
        problems.append(f"{key}: need a list of {lo} to {hi} entries")
        return []
    good = []
    for item in items:
        if not isinstance(item, dict) or set(item) != fields:
            problems.append(f"{key}: entry {item!r} must have exactly the "
                            f"keys {sorted(fields)}")
        else:
            good.append(item)
    return good


def contract_problems(doc: dict, root: Path = ROOT) -> list[str]:
    """Every way *doc* breaks the driver's contract (empty when it holds)."""
    problems: list[str] = []
    if not isinstance(doc, dict) or set(doc) != KEYS:
        return [f"top level must have exactly the keys {sorted(KEYS)}"]

    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths: need 1 to 16 directories")
        paths = []
    for path in paths:
        if not (isinstance(path, str) and PATH.match(path)) or _leaves_repo(
            path
        ):
            problems.append(f"paths: {path!r} is not a plain relative path")
        elif not (root / path).is_dir():
            problems.append(f"paths: {path!r} does not exist")

    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and all(
        isinstance(arg, str) and len(arg) <= 200 for arg in command
    )):
        problems.append("command: need at most 32 strings of at most 200 "
                        "characters")
        command = []
    for arg in command:
        if _leaves_repo(arg):
            problems.append(f"command: {arg!r} leads out of the repo")
        elif (root / arg).exists() and not any(
            Path(p) == Path(arg) or Path(p) in Path(arg).parents
            for p in paths if isinstance(p, str)
        ):
            problems.append(f"command: {arg!r} is outside paths")

    seconds = doc["run_seconds"]
    workloads = _entries(doc, "workloads", 2, 8, {"name", "why"}, problems)
    if not (isinstance(seconds, int) and not isinstance(seconds, bool)
            and 1 <= seconds <= 60):
        problems.append("run_seconds: need a whole number from 1 to 60")
    elif (4 + 22 * len(workloads)) * seconds > TOTAL_SECONDS:
        problems.append("run_seconds: the driver's runs cannot fit in "
                        f"{TOTAL_SECONDS} s")
    for w in workloads:
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200
                and "\n" not in why):
            problems.append(f"workloads: why of {w['name']!r} must be one "
                            "line of at most 200 characters")

    end_to_end = _entries(doc, "end_to_end", 1, 16,
                          {"name", "unit", "better", "bound"}, problems)
    per_layer = _entries(doc, "per_layer", 1, 128,
                         {"name", "unit", "better"}, problems)
    for m in end_to_end:
        bound = m["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                and 0 < bound <= MAX_BOUND):
            problems.append(f"end_to_end: bound of {m['name']!r} must be in "
                            f"(0, {MAX_BOUND}]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in end_to_end):
        problems.append("end_to_end: need setup_s with unit s, better lower")
    for m in end_to_end + per_layer:
        if not (isinstance(m["unit"], str) and UNIT.match(m["unit"])):
            problems.append(f"unit of {m['name']!r} is malformed")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"better of {m['name']!r} must be lower or higher")

    seen: set = set()
    for item in workloads + end_to_end + per_layer:
        name = item["name"]
        if not (isinstance(name, str) and NAME.match(name)):
            problems.append(f"name {name!r} is malformed")
        elif name in seen:
            problems.append(f"name {name!r} is used twice")
        else:
            seen.add(name)
    return problems


def table_problems() -> list[str]:
    """Ways ``metrics.py``'s interaction table is inconsistent with itself."""
    problems = []
    for m in metrics.PER_LAYER:
        if m.moves not in metrics.END_TO_END_NAMES:
            problems.append(f"{m.name}: moves unknown metric {m.moves!r}")
        unknown = set(m.on) - set(metrics.WORKLOAD_NAMES)
        if unknown or not m.on:
            problems.append(f"{m.name}: names no or unknown workloads "
                            f"{sorted(unknown)}")
    return problems


def check_manifest(path: Path = MANIFEST) -> list[str]:
    """All problems with the manifest on disk; empty means valid."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if len(raw) > MAX_BYTES:
        return [f"{path.name} is larger than {MAX_BYTES} bytes"]
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        return [f"{path.name} is not JSON: {exc}"]
    problems = contract_problems(doc, path.parent) + table_problems()
    if not problems and doc != metrics.manifest():
        problems.append(f"{path.name} differs from metrics.py; run "
                        "python -m benchmarks.e2e.validate --write")
    return problems


def result_problems(result: dict, trace: bool) -> list[str]:
    """Ways one run's result line differs from what the manifest declares.

    The name check is two-way: a declared metric that was not printed and a
    printed metric that was not declared are both problems.
    """
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result has keys {sorted(result)}"]
    declared = set(
        metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    )
    printed = set(result["metrics"])
    for name in sorted(declared - printed):
        problems.append(f"declared but not printed: {name}")
    for name in sorted(printed - declared):
        problems.append(f"printed but not declared: {name}")
    for name in sorted(printed & declared):
        entry = result["metrics"][name]
        if entry.get("unit") != metrics.UNITS[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r} differs")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        MANIFEST.write_text(
            json.dumps(metrics.manifest(), indent=2) + "\n", encoding="utf-8"
        )
    problems = check_manifest()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{MANIFEST.name}: {'INVALID' if problems else 'valid'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
