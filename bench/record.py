"""Run every workload, print every metric, and write a results entry.

Usage, from the root of a checkout::

    python3 bench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 --out bench/results/BENCH_1.json

For each workload this runs ``bench/run.py`` once per seed untraced and
twice traced on the first seed, each in its own process.  It prints each
end-to-end metric's median and quartile spread over the seeds against
the bound in ``BENCHMARK.json``, and the traced per-layer table.  It then
solves the three ROADMAP heavy-tail instances once each, which are too
slow for the timed runs.  The entry records where every workload comes
from: seeds, generation rule, cells, item and draw counts and expected
verdicts.

Exit code 1 if any item was wrong, if the two traced runs disagree on a
count, or if a heavy-tail instance fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

import run
import workloads

HEADER = re.compile(r"^workload \S+ seed \S+: (\d+) items, (\d+) draws")
#: Per-layer metrics that must repeat exactly between two traced runs.
EXACT = re.compile(r"\.calls$|^contract\.ops$|^conjugacy\.(circuits|arrows_at_per_circuit)$")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    items, draws = HEADER.match(lines[0]).groups()
    result.update(exit_code=proc.returncode, items=int(items), draws=int(draws))
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_workload(spec, seeds, seconds, bounds) -> tuple[dict, bool]:
    runs = [bench_run(spec.name, s, seconds, 0) for s in seeds]
    traced = [bench_run(spec.name, seeds[0], seconds, 1) for _ in range(2)]
    ok = all(r["correct"] and r["exit_code"] == 0 for r in runs + traced)
    end_to_end = {}
    print(f"\n{spec.name}: {len(seeds)} runs of {seconds} s")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        row = {"unit": unit, "median": statistics.median(values), "values": values}
        if len(values) >= 2:
            row["iqr_over_median"] = spread(values)
        end_to_end[name] = row
        print(f"  {name:<14} {row['median']:>12.6g} {unit:<4} spread "
              f"{row.get('iqr_over_median', float('nan')):.3f} (bound {bound})")
    first, second = (t["metrics"] for t in traced)
    differ = [k for k in first if EXACT.search(k) and first[k] != second[k]]
    if differ:
        print(f"  traced runs disagree on {differ}")
        ok = False
    print(f"  per layer, seed {seeds[0]}, {traced[0]['attempted']} items:")
    for name, m in first.items():
        print(f"    {name:<38} {m['value']:>14.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    verdict = "conjugate" if spec.name != "nonconj" else "not-conjugate"
    return {
        "why": spec.why,
        "rule": spec.rule,
        "cells": [list(c) for c in spec.cells],
        "seeds": seeds,
        "items_per_run": [r["items"] for r in runs],
        "draws_per_run": [r["draws"] for r in runs],
        "expected": {verdict: attempted},
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "traced_items": traced[0]["attempted"],
        "per_layer": {k: m["value"] for k, m in first.items()},
    }, ok


def record_heavy_tail() -> tuple[list, bool]:
    g = run.load_garside()
    solve = run.cli_solver(g)
    gen = workloads.Generator(g, {n: g.braid_context(n) for n in (7, 8, 9)})
    rows, ok = [], True
    print("\nROADMAP heavy-tail instances (one solve each):")
    for (n, ell, seed), words in workloads.ROADMAP_INSTANCES.items():
        item = workloads.roadmap_instance(gen, n, ell, seed)
        same = (item.x, item.y) == words
        elapsed, outcome = run.attempt(solve, item)
        good = same and run.check(item, outcome)
        ok = ok and good
        rows.append({"n": n, "l": ell, "seed": seed, "x": item.x, "y": item.y,
                     "regenerated": same, "correct": good, "solve_s": elapsed,
                     "contract_calls": outcome.contract_calls})
        print(f"  B{n} l={ell} seed {seed}: {elapsed:.2f} s, "
              f"{outcome.contract_calls} contract calls, correct {good}")
    return rows, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    started = time.time()
    entry = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}",
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in workloads.WORKLOADS:
        entry["workloads"][name], good = record_workload(
            workloads.WORKLOADS[name], seeds, spec["run_seconds"], bounds)
        ok = ok and good
    entry["roadmap_instances"], good = record_heavy_tail()
    ok = ok and good
    entry["wall_s"] = time.time() - started
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"\nwrote {args.out}; all correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
