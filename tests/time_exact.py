"""Best-of-3 wall time of ``classify --method all --mode exact`` on graph
URIs, by default the graphs of about 300 vertices in ROADMAP's end-to-end
table.

Run from any directory, with one or more checkouts of the repository and,
after ``--graphs``, any graph URIs to time instead of the default five:

    python3 tests/time_exact.py PARENT CHANGE
    python3 tests/time_exact.py PARENT CHANGE --graphs cycle:47 theta:1,20,27 theta:2,3,41

Each run is a new process of ``sys.executable -c`` that puts the
checkout's ``src`` first on ``sys.path`` and calls ``qegraph.cli.main``,
so interpreter start-up (about 0.04 s) is inside every time.  The
checkouts take turns, graph by graph and round by round, so that a slow
spell of the machine falls on each alike.  One line per graph gives the
best time of each checkout, in seconds, and the last checkout's ratio to
the first.  ``cycle:1001`` and ``theta:1,500,500`` stay out: exact mode
takes about 100 s on each.  Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

GRAPHS = ("cycle:301", "theta:1,150,150", "theta:1,100,199", "theta:2,3,195", "theta:3,40,60")
REPEAT = 3

SCRIPT = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from qegraph.cli import main\n"
    "sys.exit(main(['classify', sys.argv[1], '--method', 'all', '--mode', 'exact']))\n"
)


def wall_time(checkout: Path, uri: str) -> float:
    """Seconds for one run of exact classify on uri in checkout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SCRIPT, uri], cwd=checkout, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.exit(f"time_exact: classify {uri} in {checkout} exited {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", help="checkouts of the repository")
    parser.add_argument("--graphs", nargs="+", default=GRAPHS, metavar="URI", help="graph URIs to time")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    best = {uri: [float("inf")] * len(checkouts) for uri in args.graphs}
    for _ in range(REPEAT):
        for uri in args.graphs:
            for i, checkout in enumerate(checkouts):
                best[uri][i] = min(best[uri][i], wall_time(checkout, uri))
    header = f"{'graph':<18}" + "".join(f"{c.name:>14}" for c in checkouts)
    print(header + (f"{'ratio':>8}" if len(checkouts) > 1 else ""))
    for uri, times in best.items():
        line = f"{uri:<18}" + "".join(f"{t:>13.2f}s" for t in times)
        print(line + (f"{times[-1] / times[0]:>8.2f}" if len(checkouts) > 1 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
