"""Whole-benchmark modes: the report of every metric, and the A/A check.

Each (workload, trace) pair runs in its own fresh child process, one after
another, through the same command line the driver uses, so peak RSS and
caches never leak from one workload into the next.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from . import stats, validate
from .metrics import (
    AA_GAP_BOUND,
    END_TO_END,
    EXACT_NAMES,
    LIBRARY,
    PER_LAYER,
    WORKLOAD_NAMES,
)

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: The contract's cap on one run (the first may build; nothing here builds).
CHILD_TIMEOUT_S = 180


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, out: Path | None = None) -> dict:
    """One run of the contract command; returns its checked result line."""
    command = [
        sys.executable, str(RUN_PY), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    if out is not None:
        command += ["--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} (trace {int(trace)}) exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = validate.result_problems(result, trace)
    if problems:
        raise RuntimeError(f"{workload}: " + "; ".join(problems))
    return result


def run_all(seed: int, seconds: float, smoke: bool,
            out: Path | None = None) -> dict:
    """Every workload, untraced then traced: ``{workload: {...}}``."""
    runs = {}
    for name in WORKLOAD_NAMES:
        print(f"  running {name} ...", file=sys.stderr, flush=True)
        runs[name] = {
            "end_to_end": run_child(name, seed, seconds, False, smoke),
            "per_layer": run_child(name, seed, seconds, True, smoke, out),
        }
    return runs


def _value(run: dict, part: str, metric: str) -> float:
    return run[part]["metrics"][metric]["value"]


def print_report(runs: dict) -> None:
    """Every metric by name with its unit, one column per workload."""
    width = max(len(m.name) for m in PER_LAYER) + 1
    header = f"{'metric':<{width}}{'unit':<7}" + "".join(
        f"{name[:16]:>17}" for name in WORKLOAD_NAMES
    )
    for title, part, table in (("end to end", "end_to_end", END_TO_END),
                               ("per layer", "per_layer", PER_LAYER)):
        print(f"\n== {title} ==\n{header}")
        for m in table:
            cells = "".join(
                f"{_value(runs[name], part, m.name):>17.6g}"
                for name in WORKLOAD_NAMES
            )
            print(f"{m.name:<{width}}{m.unit:<7}{cells}")
    print()
    for name in WORKLOAD_NAMES:
        for part in ("end_to_end", "per_layer"):
            r = runs[name][part]
            print(f"{name:<20}{part:<11} attempted {r['attempted']:>6}  "
                  f"failed {r['failed']:>3}  correct {r['correct']}")


def _write(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"[written to {path}]")


def _header(seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "seed": seed, "seconds": seconds, "smoke": smoke,
        "durability": "fsync",
        # This benchmark's own PR claims nothing; these numbers are the
        # baseline later issues are measured against.
        "claim": None,
    }


def run_report(seed: int, seconds: float, smoke: bool, out: Path) -> int:
    runs = run_all(seed, seconds, smoke, out)
    print_report(runs)
    print("flush policy: durability=fsync; latencies are this sandbox's "
          "(OS-cached reads, cheap fsync)")
    _write(out / f"run-{seed}.json",
           dict(_header(seed, seconds, smoke), workloads=runs))
    correct = all(r[part]["correct"] for r in runs.values() for part in r)
    return 0 if correct else 1


def compare_sets(a: list, b: list, metric) -> dict:
    """Two sets of one metric's values: medians, quartiles, spread, gap.

    Two rules, two limits. The *gap* between the sets' medians is ISSUE
    12's A/A criterion and is held to ``AA_GAP_BOUND`` (or the metric's own
    bound where that is tighter). The *spread* inside a set is held to the
    manifest's bound, because the driver refuses a benchmark whose spread
    passes it — on every metric but ``setup_s``: a run has only
    ``SETUP_REPEATS`` set-ups to take a median of, so the driver holds
    set-up time to the gap alone, and so does this. A spread wider than the
    gap limit is never hidden: the metric is listed as *unresolved*, meaning
    a difference of that size between two commits cannot be told from noise.
    """
    qa, qb = stats.quartiles(a), stats.quartiles(b)
    # Whichever set ran "first" is arbitrary in A/A, so take the worse way.
    gap = max(stats.worsening(qa[1], qb[1], metric.better),
              stats.worsening(qb[1], qa[1], metric.better))
    spread = max(stats.spread(a), stats.spread(b))
    gap_bound = min(metric.bound, AA_GAP_BOUND)
    breaches = []
    if gap > gap_bound:
        breaches.append("gap")
    if spread > metric.bound and metric.name != "setup_s":
        breaches.append("spread")
    return {
        "a": a, "b": b, "quartiles_a": qa, "quartiles_b": qb,
        "spread": spread, "gap": gap, "bound": metric.bound,
        "gap_bound": gap_bound, "breaches": breaches,
        "unresolved": spread > gap_bound,
    }


def run_aa(n: int, seed: int, seconds: float, smoke: bool, out: Path) -> int:
    """Two alternating sets of *n* runs (seeds seed..seed+n-1) of one code.

    Per end-to-end metric and workload, the gap between the sets' medians
    and the spread inside each set are held to the limits ``compare_sets``
    explains; and every exact count must be identical between the two runs
    of a seed on the library workloads.
    """
    sets: dict[str, list] = {"a": [], "b": []}
    for i in range(n):
        for side in ("ab" if i % 2 == 0 else "ba"):
            print(f"A/A seed {seed + i} set {side}", file=sys.stderr)
            sets[side].append(run_all(seed + i, seconds, smoke))

    comparisons, breaches, unresolved, mismatches = {}, [], [], []
    print(f"\n{'workload':<20}{'metric':<28}{'median A':>12}{'median B':>12}"
          f"{'spread':>9}{'bound':>7}{'gap':>9}{'limit':>7}")
    for name in WORKLOAD_NAMES:
        for m in END_TO_END:
            a = [_value(r[name], "end_to_end", m.name) for r in sets["a"]]
            b = [_value(r[name], "end_to_end", m.name) for r in sets["b"]]
            c = comparisons.setdefault(name, {})[m.name] = compare_sets(
                a, b, m
            )
            flag = ""
            if c["breaches"]:
                flag = "  BREACH " + "+".join(c["breaches"])
            elif c["unresolved"]:
                flag = "  unresolved"
            print(f"{name:<20}{m.name:<28}{c['quartiles_a'][1]:>12.5g}"
                  f"{c['quartiles_b'][1]:>12.5g}{c['spread']:>9.4f}"
                  f"{m.bound:>7.2f}{c['gap']:>9.4f}{c['gap_bound']:>7.2f}"
                  f"{flag}")
            breaches += [f"{name}.{m.name}: {kind}" for kind in c["breaches"]]
            if c["unresolved"]:
                unresolved.append(
                    f"{name}.{m.name}: spread {c['spread']:.3f} > "
                    f"{c['gap_bound']:.2f}"
                )
        if name in LIBRARY:
            for metric in EXACT_NAMES:
                for ra, rb in zip(sets["a"], sets["b"]):
                    va = _value(ra[name], "per_layer", metric)
                    vb = _value(rb[name], "per_layer", metric)
                    if va != vb:
                        mismatches.append(f"{name}.{metric}: {va} != {vb}")
    failed = sum(r[name][part]["failed"] for side in sets.values()
                 for r in side for name in r for part in r[name])
    print("\nspread is held to the manifest's bound, except on setup_s, which "
          "the driver exempts; gap is held to the limit")
    print(f"bound breaches: {len(breaches)}; exact-count mismatches: "
          f"{len(mismatches)}; failed operations: {failed}; unresolved "
          f"(spread wider than the gap limit): {len(unresolved)}")
    for line in breaches + mismatches + unresolved:
        print("  " + line)
    _write(out / "aa.json", dict(
        _header(seed, seconds, smoke), n=n, comparisons=comparisons,
        breaches=breaches, unresolved=unresolved,
        exact_count_mismatches=mismatches, failed_operations=failed,
    ))
    return 1 if breaches or mismatches or failed else 0
