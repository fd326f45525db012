"""Command-line front end.

Exit codes: 0 = embeddable (or command succeeded), 1 = not embeddable (or a
reference check failed), 2 = usage, input or out-of-memory error, 3 = decision
routes disagree (``classify --method all`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import analysis
from .config import DEFAULT_TOLERANCES, MODES, Tolerances
from .graphs import GraphError, graph_from_uri, distance_matrix, theta_spec_from_uri
from .winkler import read_tree_file, winkler_kernel

__all__ = ["main"]

EXIT_QE = 0
EXIT_OK = 0
EXIT_NON_QE = 1
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_DISAGREE = 3

_METHODS = ("closed-form", "schoenberg", "winkler", "all")


def _default_mode() -> str:
    env = os.environ.get("QEGRAPH_MODE", "").strip()
    if not env:
        return "auto"
    if env not in MODES:
        raise ValueError(f"QEGRAPH_MODE must be one of {', '.join(MODES)}, got {env!r}")
    return env


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="arithmetic mode (default: QEGRAPH_MODE env var, else auto)",
    )


def _add_tol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol-psd",
        type=float,
        default=DEFAULT_TOLERANCES.psd_rel,
        metavar="TOL",
        help="relative eigenvalue tolerance for float-mode verdicts",
    )


def _add_output(parser: argparse.ArgumentParser, formats=("text", "json")) -> None:
    parser.add_argument(
        "--format",
        choices=formats,
        default=formats[0],
        help=f"output format (default: {formats[0]})",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _report(args: argparse.Namespace, payload: dict, text) -> None:
    """Write a command's report through ``_emit``: ``payload`` as indented
    JSON under ``--format json``, else the string ``text()`` returns.  text
    is a callable, so the text form is built only when it is written."""
    _emit(json.dumps(payload, indent=2) if args.format == "json" else text(), args.out)


def _format_entry(x) -> str:
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else repr(x)
    return str(x)


def format_matrix_text(rows: list[list]) -> str:
    """Render a square matrix, given as its rows, in the text format: first
    line the dimension, then one whitespace-separated row per line.  Ints
    and Fractions are written by str (a Fraction as p/q), integral floats as
    integers and other floats by repr."""
    lines = [str(len(rows))] + [" ".join([_format_entry(x) for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _graph_and_tree(args: argparse.Namespace):
    g = graph_from_uri(args.graph)
    tree = None
    if args.tree is not None:
        tree = read_tree_file(args.tree, g)
    return g, tree


def _verdicts_for(args: argparse.Namespace):
    g, tree = _graph_and_tree(args)
    spec = theta_spec_from_uri(args.graph)
    methods = [args.method]
    if args.method == "all":
        methods = ["closed-form", "schoenberg", "winkler"] if spec else ["schoenberg", "winkler"]
    verdicts = []
    for method in methods:
        if method == "closed-form":
            if spec is None:
                raise GraphError(
                    "closed-form classification needs a theta:A,B,C graph, "
                    f"got {args.graph!r}"
                )
            verdicts.append(analysis.classify_theta_closed_form(spec))
        elif method == "schoenberg":
            verdicts.append(
                analysis.classify_schoenberg(g, mode=args.mode, tol=args.tol)
            )
        else:
            verdicts.append(
                analysis.classify_winkler(g, tree, mode=args.mode, tol=args.tol)
            )
    return g, verdicts


def _decision(verdicts) -> tuple[str, int]:
    """The routes' common decision, "QE", "NonQE" or "disagreement", and
    the exit code that goes with it."""
    if len({v.is_qe for v in verdicts}) > 1:
        return "disagreement", EXIT_DISAGREE
    return verdicts[0].decision, EXIT_QE if verdicts[0].is_qe else EXIT_NON_QE


def _classify_payload(args, g, verdicts, decision: str) -> dict:
    return {
        "graph": args.graph,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "mode": args.mode,
        "verdicts": [
            {
                "method": v.method,
                "decision": v.decision,
                "is_qe": v.is_qe,
                "mode_used": v.mode_used,
                "evidence": v.evidence,
            }
            for v in verdicts
        ],
        "agreement": decision != "disagreement",
        "decision": decision,
    }


def _classify_text(args, g, verdicts, decision: str) -> str:
    lines = [f"graph: {args.graph} ({g.n} vertices, {g.n_edges} edges)"]
    for v in verdicts:
        note = ""
        if v.method == "closed-form":
            note = f"  [{v.evidence['rule']}]"
        elif v.method == "schoenberg":
            value = v.evidence.get("max_eig_on_ones_complement")
            if isinstance(value, float):
                note = f"  [max form value {value:.6g}]"
        elif v.method == "winkler":
            value = v.evidence.get("lambda_min")
            if isinstance(value, float):
                note = f"  [kernel lambda_min {value:.6g}]"
        used = f" ({v.mode_used})" if v.mode_used else ""
        lines.append(f"{v.method}: {v.decision}{used}{note}")
    lines.append(f"decision: {decision}")
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    g, verdicts = _verdicts_for(args)
    decision, code = _decision(verdicts)
    _report(
        args,
        _classify_payload(args, g, verdicts, decision),
        lambda: _classify_text(args, g, verdicts, decision),
    )
    return code


def cmd_qec(args: argparse.Namespace) -> int:
    g = graph_from_uri(args.graph)
    result = analysis.qec(g, tol=args.tol)
    payload = {
        "graph": args.graph,
        "n": g.n,
        "qec": result.value,
        "is_qe": result.is_qe,
        "maximizer": list(result.maximizer),
    }

    def text():
        coords = " ".join(f"{x:.8f}" for x in result.maximizer)
        return f"{result.value:.8f}\nmaximizer: {coords}"

    _report(args, payload, text)
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace) -> int:
    g, tree = _graph_and_tree(args)
    kern = winkler_kernel(g, tree)
    two_k = kern.two_k.tolist()

    def text():
        # K = 2K / 2: reduced rationals p/q in exact mode, decimals otherwise
        if args.mode == "exact":
            return format_matrix_text([[Fraction(x, 2) for x in row] for row in two_k])
        return format_matrix_text((kern.two_k / 2.0).tolist())

    _report(args, {"graph": args.graph, "dim": kern.dim, "two_k": two_k}, text)
    return EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    g = graph_from_uri(args.graph)
    d = distance_matrix(g).tolist()
    _report(args, {"graph": args.graph, "n": g.n, "d": d}, lambda: format_matrix_text(d))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = analysis.run_reference_suite(tol=args.tol)
    passed = sum(1 for r in results if r.passed)
    payload = {
        "results": [asdict(r) for r in results],  # name, passed, detail, elapsed
        "passed": passed,
        "total": len(results),
    }

    def text():
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.elapsed * 1e3:.1f} ms): {r.detail}"
            for r in results
        ]
        lines.append(f"{passed}/{len(results)} fixtures pass")
        return "\n".join(lines)

    _report(args, payload, text)
    return EXIT_OK if passed == len(results) else EXIT_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    report = analysis.classification_sweep(
        max_vertices=args.max_vertices, mode=args.mode, tol=args.tol
    )
    elapsed = time.perf_counter() - start
    body = (
        analysis.sweep_to_json(report)
        if args.format == "json"
        else analysis.sweep_to_csv(report)
    )
    qe = sum(1 for r in report.rows if r.closed_form)
    summary = (
        f"{qe} QE / {len(report.rows) - qe} NonQE over {len(report.rows)} "
        f"theta graphs with at most {report.max_vertices} vertices in {elapsed:.2f} s"
    )
    if not report.all_consistent:
        summary += " (WARNING: decision routes disagree)"
    _emit(body, args.out)
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK if report.all_consistent else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qegraph",
        description=(
            "Decide quadratic embeddability of connected graphs, compute "
            "embedding constants, and reproduce the bundled reference values."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether a graph is embeddable")
    p.add_argument("graph", help="graph URI (theta:A,B,C, path:N, cycle:N) or edge-list file")
    p.add_argument("--method", choices=_METHODS, default="all")
    p.add_argument("--tree", metavar="FILE", default=None, help="oriented spanning-tree file")
    _add_mode(p)
    _add_tol(p)
    _add_output(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("qec", help="compute the quadratic embedding constant")
    p.add_argument("graph")
    _add_tol(p)
    _add_output(p)
    p.set_defaults(func=cmd_qec)

    p = sub.add_parser("kernel", help="print the spanning-tree kernel matrix K")
    p.add_argument("graph")
    p.add_argument("--tree", metavar="FILE", default=None, help="oriented spanning-tree file")
    _add_mode(p)
    _add_output(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("distance", help="print the graph distance matrix")
    p.add_argument("graph")
    _add_output(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="recompute all bundled reference values")
    _add_tol(p)
    _add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="classify all theta graphs up to a vertex bound")
    p.add_argument("--max-vertices", type=int, default=18)
    _add_mode(p)
    _add_tol(p)
    _add_output(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # QEGRAPH_MODE is resolved for every subcommand, with or without
        # --mode, so a bad value exits 2 whatever the command
        if getattr(args, "mode", None) is None:
            args.mode = _default_mode()
        if hasattr(args, "tol_psd"):
            args.tol = Tolerances(psd_rel=args.tol_psd)
        return args.func(args)
    # the package's own errors (GraphError, TreeError, SpectraError,
    # EmbeddingError) are all ValueErrors
    except (ValueError, analysis.CheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
