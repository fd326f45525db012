"""Alternating parent/change pairs of the benchmark, summed up per metric.

Run from any directory, with two checkouts of the repository:

    python3 tests/bench_pairs.py PARENT CHANGE --workload all --seed 1 --pairs 10

Pair i runs ``bench/run.py --workload W --seed S`` once in each checkout,
each in a new process, the parent first in odd pairs and the change first
in even ones, so that a slow spell of the machine falls on both sides
alike.  The last line of each run's standard output is its JSON result.
For every workload and metric the table gives the parent's median and
quartiles, the change's median, the change of the medians in percent and
the number of pairs in which the change did better (in the direction that
the change's BENCHMARK.json declares for the metric), then the failed and
attempted ops of each side.  ``--log FILE`` also writes every run's result
as one JSON line.  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float | None, trace: int) -> dict:
    """{workload: result} from one run of checkout's bench/run.py."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(command)} in {checkout} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["workloads"] if "workloads" in result else {workload: result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """The table's lines for runs = {"parent": [...], "change": [...]}, one
    {workload: result} per pair and side."""
    lines = []
    header = f"{'metric':<40} {'parent q1':>11} {'median':>11} {'q3':>11} {'change':>11} {'change %':>9} {'won':>6}"
    for workload in runs["parent"][0]:
        lines += [f"== {workload}", header]
        pairs = list(zip(runs["parent"], runs["change"]))
        for metric in runs["parent"][0][workload]["metrics"]:
            old = [p[workload]["metrics"][metric]["value"] for p, _ in pairs]
            new = [c[workload]["metrics"][metric]["value"] for _, c in pairs]
            q1, median, q3 = quartiles(old)
            changed = statistics.median(new)
            percent = 100.0 * (changed - median) / median if median else float("nan")
            sign = 1 if better.get(metric, "lower") == "higher" else -1
            won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            lines.append(
                f"{metric:<40} {q1:>11.5g} {median:>11.5g} {q3:>11.5g} {changed:>11.5g} {percent:>+8.1f}% {won:>3}/{len(pairs)}"
            )
        for side in ("parent", "change"):
            failed = sum(r[workload]["failed"] for r in runs[side])
            attempted = sum(r[workload]["attempted"] for r in runs[side])
            lines.append(f"failed ops, {side}: {failed} of {attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, default=None, help="write every run's result here, one JSON line each")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    runs = {"parent": [], "change": []}
    log = args.log.open("w") if args.log else None
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run(checkouts[side], args.workload, args.seed, args.seconds, args.trace)
            runs[side].append(result)
            if log:
                log.write(json.dumps({"pair": pair, "side": side, "result": result}) + "\n")
                log.flush()
            print(f"bench_pairs: pair {pair}/{args.pairs}, {side} done", file=sys.stderr)
    if log:
        log.close()
    print("\n".join(summary(runs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
