"""Print the in-process output of a fixed list of CLI commands.

Run from any directory, with no arguments:

    python3 tests/dump_cli.py > dump.txt

The package is imported from the ``src`` directory of the checkout this
file is in, so running the script of two checkouts and diffing the two
dumps shows every byte of CLI output that changed between them.  Each
command is written as its argument line, its exit code, its standard
output and its standard error.  Only timings, in ``sweep``'s summary line and in ``verify``'s
per-check times, differ between two runs of the same code.

The command list: ``classify`` in the three modes as text and as JSON,
``kernel`` in the three modes and ``qec`` as text and as JSON on every
graph below, then ``sweep --max-vertices 14`` in the three modes,
``sweep --max-vertices 22 --format json`` in ``auto`` and ``exact`` (every
theta graph of the benchmark's ``theta-sweep`` workload, with its ``qec``),
and ``verify`` as text and as JSON.  The graphs are builtin thetas, cycles
and a path, and one tree written to an edge-list file in a temporary
directory (named relative to it, so the dump does not depend on where the
directory is).  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qegraph.cli import main  # noqa: E402  (after the path insert above)

TREE_FILE = "tree-17.edges"
GRAPHS = (
    "theta:2,3,9",
    "theta:2,3,21",
    "theta:2,2,7",
    "theta:3,4,5",
    "theta:1,4,7",
    "theta:1,3,8",
    "theta:3,40,60",
    "theta:2,3,41",
    "cycle:7",
    "cycle:8",
    "cycle:25",
    "path:9",
    TREE_FILE,
)
MODES = ("float", "auto", "exact")


def commands() -> list[list[str]]:
    out = []
    for graph in GRAPHS:
        for mode in MODES:
            for fmt in ("text", "json"):
                out.append(["classify", graph, "--mode", mode, "--format", fmt])
        for mode in MODES:
            out.append(["kernel", graph, "--mode", mode])
        for fmt in ("text", "json"):
            out.append(["qec", graph, "--format", fmt])
    for mode in MODES:
        out.append(["sweep", "--max-vertices", "14", "--mode", mode])
    for mode in ("auto", "exact"):
        out.append(["sweep", "--max-vertices", "22", "--mode", mode, "--format", "json"])
    for fmt in ("text", "json"):
        out.append(["verify", "--format", fmt])
    return out


def tree_text(n: int = 17, seed: int = 7) -> str:
    # a random recursive tree: vertex v hangs from an earlier vertex
    rng = random.Random(seed)
    return f"{n}\n" + "".join(f"{rng.randrange(v)} {v}\n" for v in range(1, n))


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"$ qegraph {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}[stderr]\n{err.getvalue()}\n"


def dump() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(TREE_FILE).write_text(tree_text())
            for argv in commands():
                sys.stdout.write(run(argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    dump()
