"""Wall time and in-process time of ``classify --method all`` on graph URIs,
by default in exact mode on the graphs of about 300 vertices in ROADMAP's
end-to-end table.

Run from any directory, with one or more checkouts of the repository and,
after ``--graphs``, any graph URIs (or absolute paths of edge-list files)
to time instead of the default five; ``--mode`` picks the mode:

    python3 tests/time_exact.py PARENT CHANGE
    python3 tests/time_exact.py PARENT CHANGE --graphs cycle:47 theta:1,20,27 theta:2,3,41
    python3 tests/time_exact.py PARENT CHANGE --mode auto --graphs /tmp/tree-300.edges

Each round runs two new processes of ``sys.executable -c`` per checkout
and graph, both with the checkout's ``src`` first on ``sys.path``.  The
wall-time process calls ``qegraph.cli.main`` once, so interpreter
start-up and import (about 0.15 s in all) are inside its time.  The
in-process one imports once, calls ``main`` CALLS times, each on a graph
built anew from the URI, and prints the best of those calls, which is
what resolves a change on graphs small enough that start-up would hide
it.  The checkouts take turns, graph by graph and round by round, so
that a slow spell of the machine falls on each alike.  One line per graph
gives each checkout's best wall time and best in-process time, in
seconds, and the last checkout's ratios to the first.  ``cycle:1001`` and
``theta:1,500,500`` stay out of exact mode: it takes about 100 s on each.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

GRAPHS = ("cycle:301", "theta:1,150,150", "theta:1,100,199", "theta:2,3,195", "theta:3,40,60")
REPEAT = 3
CALLS = 5

# argv: uri, mode, number of calls; with 0 calls, main runs once untimed
SCRIPT = (
    "import contextlib, io, sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "from qegraph.cli import main\n"
    "uri, mode, calls = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
    "argv = ['classify', uri, '--method', 'all', '--mode', mode]\n"
    "if not calls:\n"
    "    sys.exit(main(argv))\n"
    "best = float('inf')\n"
    "for _ in range(calls):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        start = time.perf_counter()\n"
    "        code = main(argv)\n"
    "        best = min(best, time.perf_counter() - start)\n"
    "    if code not in (0, 1):\n"
    "        sys.exit(code)\n"
    "print(best)\n"
)


def run(checkout: Path, uri: str, mode: str, calls: int) -> tuple[float, str]:
    """Seconds for one process of classify on uri in checkout, and its
    standard output."""
    command = [sys.executable, "-c", SCRIPT, uri, mode, str(calls)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.exit(f"time_exact: classify {uri} in {checkout} exited {proc.returncode}")
    return elapsed, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", help="checkouts of the repository")
    parser.add_argument("--graphs", nargs="+", default=GRAPHS, metavar="URI", help="graph URIs to time")
    parser.add_argument("--mode", choices=("float", "exact", "auto"), default="exact")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    wall = {uri: [float("inf")] * len(checkouts) for uri in args.graphs}
    inner = {uri: [float("inf")] * len(checkouts) for uri in args.graphs}
    for _ in range(REPEAT):
        for uri in args.graphs:
            for i, checkout in enumerate(checkouts):
                wall[uri][i] = min(wall[uri][i], run(checkout, uri, args.mode, 0)[0])
                inner[uri][i] = min(inner[uri][i], float(run(checkout, uri, args.mode, CALLS)[1]))
    width = max(18, *(len(uri) + 2 for uri in args.graphs))
    header = f"{'graph':<{width}}" + "".join(f"{c.name + ' wall':>18}{'in process':>14}" for c in checkouts)
    print(header + (f"{'ratio':>8}{'ratio':>8}" if len(checkouts) > 1 else ""))
    for uri in args.graphs:
        line = f"{uri:<{width}}" + "".join(f"{w:>17.3f}s{t:>13.4f}s" for w, t in zip(wall[uri], inner[uri]))
        if len(checkouts) > 1:
            line += f"{wall[uri][-1] / wall[uri][0]:>8.2f}{inner[uri][-1] / inner[uri][0]:>8.2f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
