"""qegraph benchmark: one client, closed loop, seeded graphs, checked verdicts.

Usage, from the repository root:

    python3 bench/run.py --workload theta-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30            # table
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1  # layers

Without tracing, a run measures the workload for --seconds and reports the
end-to-end metrics of BENCHMARK.json.  With tracing, it measures untraced for
half of --seconds, replays the same operations traced, and reports the
per-layer metrics.  Before the result it prints the environment, the sample
counts, the failed ratio and the unscaled timings, then a table with one row
per workload (one row per metric for the per-layer set).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"} for a single workload, or one such object per workload under
"workloads" for --workload all.  With --workload all, each workload runs in
a fresh process of its own, so peak_rss_mb is that workload's own peak and
no state carries over from one workload to the next.  Exit code 2 means the
package or BENCHMARK.json could not be found.

Timings are scaled to a reference machine speed.  On a shared machine the
same work runs up to half again as long for tens of seconds at a time, so
a short speed probe runs between operations, and each operation's latency
(and each set-up sample) is multiplied by REFERENCE_PROBE_S over the probe
times around it.  Package code never runs inside the probe, so a change to
the package moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # one client in one thread; at most nproc on any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
PROBE_EVERY_S = 0.2
# the speed probe's median time on an idle vCPU of the machine the baseline
# was measured on (2-CPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4)
REFERENCE_PROBE_S = 1.8e-3
MAX_FAILURE_REPORTS = 5


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        _fail(f"cannot read BENCHMARK.json: {err}")


def _import_package() -> None:
    if not (SRC / "qegraph" / "__init__.py").is_file():
        _fail(f"no qegraph package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qegraph

    if Path(qegraph.__file__).resolve().parent != (SRC / "qegraph").resolve():
        _fail(f"imported qegraph from {qegraph.__file__}, not from {SRC}")


def _setup_probe() -> float:
    """Wall time of a fresh interpreter that imports qegraph and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qegraph"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def _speed_probe() -> float:
    """Seconds for a fixed slice of interpreter and small-array work, the
    kind the package does, with garbage collection held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = np.eye(8)
        total = 0
        for i in range(400):
            col = a[:, i % 8].copy()
            a[:, (i + 1) % 8] = 0.5 * col + 0.5 * a[:, (i + 1) % 8]
            for j in range(40):
                total += (i * j) % 7
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Run:
    """Samples of one measured run, with the machine speed around each.

    A speed probe runs between operations every PROBE_EVERY_S seconds and
    around each set-up probe.  ``scaled`` multiplies a sample by
    REFERENCE_PROBE_S over the median of the probes around it (two before,
    two after), which turns it into seconds at the reference speed.
    """

    def __init__(self):
        self.speeds = [_speed_probe()]
        self.last_probe = time.perf_counter()
        self.latencies: list[tuple[float, int]] = []  # (seconds, last speed probe)
        self.setups: list[tuple[float, int]] = []
        self.failures: list[str] = []

    def probe_speed(self, due_only: bool = False) -> None:
        if not due_only or time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.speeds.append(_speed_probe())
            self.last_probe = time.perf_counter()

    def scaled(self, samples) -> list[float]:
        return [
            seconds * REFERENCE_PROBE_S / statistics.median(self.speeds[max(0, i - 1) : i + 3])
            for seconds, i in samples
        ]


def _measure(operation, items, budget: float | None = None, count: int | None = None, setups: int = 0) -> Run:
    """Run operations back to back for budget seconds (or count operations).

    With setups > 0, a set-up probe runs before the first operation and
    again at even intervals of the budget, between operations and outside
    their timing, so set-up is sampled across the whole run.
    """
    run = Run()
    start = time.perf_counter()
    while (count is None or len(run.latencies) < count) and (
        budget is None or time.perf_counter() - start < budget
    ):
        if len(run.setups) < setups and time.perf_counter() - start >= len(run.setups) * budget / setups:
            run.probe_speed()
            run.setups.append((_setup_probe(), len(run.speeds) - 1))
            run.probe_speed()
        run.probe_speed(due_only=True)
        item = next(items)
        t0 = time.perf_counter()
        try:
            operation(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            run.failures.append(f"{item.kind} n={item.n} legs={item.legs}: {type(exc).__name__}: {exc}")
        run.latencies.append((time.perf_counter() - t0, len(run.speeds) - 1))
    run.probe_speed()
    return run


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, when numpy bundles one."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "seed": seed,
        "commit": _commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload; returns the result object and run details."""
    import workloads

    operation = workloads.OPERATIONS[name]
    if not trace:
        _setup_probe()  # writes the bytecode cache the timed probes read
    # one untimed operation fills lazy state (imports, bytecode, allocator)
    _measure(operation, workloads.stream(name, seed + 1_000_003), count=1)
    run = _measure(
        operation,
        workloads.stream(name, seed),
        budget=seconds / 2 if trace else seconds,
        setups=0 if trace else SETUP_PROBES,
    )
    failures = run.failures
    latencies = run.scaled(run.latencies)
    ops_per_s = (len(latencies) - len(failures)) / sum(latencies)
    p90 = _percentile(latencies, 90)
    raw = [seconds for seconds, _ in run.latencies]
    details = {
        "samples": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "speed_probe_median_s": statistics.median(run.speeds),
        "raw_ops_per_s": (len(raw) - len(failures)) / sum(raw),
        "raw_latency_p50_ms": 1e3 * _percentile(raw, 50),
        "raw_latency_p90_ms": 1e3 * _percentile(raw, 90),
    }
    if trace:
        import tracer

        t = tracer.Tracer()

        def traced_operation(item):
            with t.operation():
                operation(item)

        with t.installed():
            replay = _measure(traced_operation, workloads.stream(name, seed), count=len(latencies))
        failures = failures + replay.failures
        traced = replay.scaled(replay.latencies)
        scales = [x / raw_x for x, (raw_x, _) in zip(traced, replay.latencies)]
        metrics = t.layer_metrics(scales, ops_per_s, (len(traced) - len(replay.failures)) / sum(traced))
        details["traced_samples"] = len(traced)
        attempted = len(latencies) + len(traced)
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": 1e3 * _percentile(latencies, 50),
            "latency_p90_ms": 1e3 * p90,
            "setup_s": statistics.median(run.scaled(run.setups)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details["setup_probes"] = len(run.setups)
        details["raw_setup_s"] = statistics.median(seconds for seconds, _ in run.setups)
        attempted = len(latencies)
    details["failed_ratio"] = len(failures) / attempted
    for message in failures[:MAX_FAILURE_REPORTS]:
        print(f"bench: {name}: failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, details


def _with_units(result: dict, declared: list[dict]) -> dict:
    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return result


def _print_table(rows: dict[str, dict], declared: list[dict]) -> None:
    """One row per workload, one column per metric (name [unit]); the long
    per-layer set is printed the other way round, one row per metric."""
    headers = ["workload", "failed_ratio", "samples"] + [f"{m['name']} [{m['unit']}]" for m in declared]
    if len(declared) > 8:  # the per-layer set is long: one metric per row
        width = max(len(h) for h in headers)
        print(f"{'metric':<{width}}  " + "  ".join(f"{w:>16}" for w in rows))
        for key in ["failed_ratio", "samples"] + [m["name"] for m in declared]:
            cells = []
            for result in rows.values():
                value = result["details"].get(key, result["metrics"].get(key, {}).get("value"))
                cells.append(f"{value:>16.6g}")
            unit = next((m["unit"] for m in declared if m["name"] == key), "")
            print(f"{key + (f' [{unit}]' if unit else ''):<{width}}  " + "  ".join(cells))
        return
    widths = [max(len(h), 12) for h in headers]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for name, result in rows.items():
        cells = [name, f"{result['details']['failed_ratio']:.4g}", str(result["details"]["samples"])]
        cells += [f"{result['metrics'][m['name']]['value']:.6g}" for m in declared]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def _run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh process; its result object with its details."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        _fail(f"{name} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(line[8:]) for line in lines if line.startswith("samples "))
    return dict(json.loads(lines[-1]), details=details[name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _spec()
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.OPERATIONS:
            parser.error(f"unknown workload {name!r}; expected one of {workloads.WORKLOADS} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload == "all":
        rows = {name: _run_child(name, args.seed, seconds, args.trace) for name in names}
    else:
        result, details = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        rows = {args.workload: dict(_with_units(result, declared), details=details)}
    print("environment " + json.dumps(environment(args.seed)))
    print("samples " + json.dumps({name: row["details"] for name, row in rows.items()}))
    _print_table(rows, declared)
    for name, row in rows.items():
        if row["details"]["beyond_p90"] < 10:
            print(f"bench: {name}: only {row['details']['beyond_p90']} samples beyond p90", file=sys.stderr)
    results = {name: {k: v for k, v in row.items() if k != "details"} for name, row in rows.items()}
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
