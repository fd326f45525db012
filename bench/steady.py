"""Steadiness check: repeat each workload over several seeds and compare the
run-to-run spread of every end-to-end metric with its bound.

Usage, from the repository root:

    python3 bench/steady.py --runs 10 --out first.json
    python3 bench/steady.py --runs 10 --baseline first.json

Each run is a fresh ``bench/run.py`` process of run_seconds, seeds 1, 2,
..., every workload of BENCHMARK.json, workloads interleaved within a seed.
For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
A spread above the bound fails; below a third of the bound counts as
steady.  With --baseline, a median worse
than the baseline's by more than the bound fails too.  Exit code 1 on any
failure or incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 180


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (at least 2)")
    parser.add_argument("--out", type=Path, help="write the raw values as JSON")
    parser.add_argument("--baseline", type=Path, help="raw values of an earlier pass to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    declared = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in declared} for w in names}
    ok = True
    for seed in range(1, args.runs + 1):
        for w in names:
            start = time.perf_counter()
            result = run_once(w, seed)
            if not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: {time.perf_counter() - start:.1f} s wall", file=sys.stderr)
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  status")
    for w in names:
        for m in declared:
            s = summarize(values[w][m["name"]])
            if s["spread"] > m["bound"]:
                status, ok = "WIDE", False
            else:
                status = "steady" if s["spread"] < m["bound"] / 3 else "within bound"
            before = baseline.get(w, {}).get(m["name"])
            if before:
                old = statistics.median(before)
                worse = (s["median"] - old) / old if m["better"] == "lower" else (old - s["median"]) / old
                status += f", {worse:+.1%} vs baseline"
                if worse > m["bound"]:
                    status, ok = status + " REGRESSED", False
            print(
                f"{w:<16}{m['name']:<16}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                f"{s['spread']:>9.3f}{m['bound']:>7.2f}  {status}"
            )
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
