import importlib
import itertools
import json
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qegraph
from qegraph import (
    Graph,
    QeVerdict,
    cli,
    default_orientation_and_tree,
    distance_matrix,
    make_cycle,
    winkler_kernel,
)
from qegraph.cli import main

from conftest import floyd_warshall, int_form, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_qe_theta_all_methods(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "theta:2,3,5", "--method", "all")
        assert code == 0
        assert "decision: QE" in out
        assert out.count("QE") >= 3

    def test_non_qe_theta(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "theta:2,3,9")
        assert code == 1
        assert "decision: NonQE" in out

    def test_path_is_qe(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "path:4")
        assert code == 0
        assert "decision: QE" in out

    def test_single_methods(self, capsys):
        for method in ("closed-form", "schoenberg", "winkler"):
            code, out, _ = run_cli(
                capsys, "classify", "theta:2,2,2", "--method", method
            )
            assert code == 1
            assert "NonQE" in out

    def test_closed_form_needs_theta(self, capsys):
        code, _, err = run_cli(capsys, "classify", "cycle:5", "--method", "closed-form")
        assert code == 2
        assert "error:" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "theta:0,3,3")
        assert code == 2
        assert "error:" in err

    def test_disconnected_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "disc.edges"
        path.write_text("4\n0 1\n2 3\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "not connected" in err

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        # a graph too large to build reports one error line, not a traceback
        # that would exit 1, "not QE"
        def exhausted(uri):
            raise MemoryError

        monkeypatch.setattr(cli, "graph_from_uri", exhausted)
        code, out, err = run_cli(capsys, "classify", "theta:2,3,99999999999")
        assert code == 2
        assert out == ""
        assert err == "error: out of memory; the input is too large\n"

    def test_loose_float_tolerance_disagrees_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "theta:2,3,9",
            "--method",
            "all",
            "--mode",
            "float",
            "--tol-psd",
            "1.0",
        )
        assert code == 3
        assert "decision: disagreement" in out

    def test_json_round_trip_reproduces_decision(self, capsys, bench_import):
        # an exact certificate comes out as JSON integers and is re-checked
        # over Python ints: against Floyd-Warshall distances, and against 2K
        # rebuilt from them over the default tree; the benchmark's oracles
        # accept the verdicts rebuilt from the JSON in either mode
        oracles = bench_import("oracles")
        for mode in ("auto", "exact"):
            code, out, _ = run_cli(
                capsys, "classify", "theta:2,3,9", "--format", "json", "--mode", mode
            )
            assert code == 1
            payload = json.loads(out)
            assert payload["decision"] == "NonQE"
            assert payload["agreement"] is True
            g = Graph(payload["n"], tuple(tuple(e) for e in payload["edges"]))
            d = distance_matrix(g)
            kern = winkler_kernel(g).two_k
            exact_d = floyd_warshall(g).tolist()
            edges = default_orientation_and_tree(g).tree_edges
            exact_k = [
                [exact_d[a][y] - exact_d[a][x] - exact_d[b][y] + exact_d[b][x] for x, y in edges]
                for a, b in edges
            ]
            for verdict in payload["verdicts"]:
                if verdict["method"] == "closed-form":
                    continue
                evidence = verdict["evidence"]
                cert = evidence.get("certificate")
                assert cert is not None
                if verdict["mode_used"] == "exact":
                    assert all(type(x) is int for x in cert)
                    value = Fraction(evidence["certificate_value"])
                    if verdict["method"] == "schoenberg":
                        assert sum(cert) == 0
                        assert int_form(exact_d, cert) == value > 0
                    else:
                        assert int_form(exact_k, cert) == 2 * value < 0
                    continue
                assert mode == "auto"
                f = np.array([float(x) for x in cert])
                if verdict["method"] == "schoenberg":
                    assert float(f @ d @ f) > 0.0
                    assert abs(f.sum()) <= 1e-8
                else:
                    assert float(f @ kern @ f) < 0.0
            verdicts = [
                QeVerdict(v["method"], v["is_qe"], v["evidence"], v["mode_used"])
                for v in payload["verdicts"]
            ]
            assert not oracles.check_verdicts(g, oracles.distances(g.n, g.edges), verdicts, False)

    def test_json_qe_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "theta:2,3,3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "QE"
        assert {v["method"] for v in payload["verdicts"]} == {
            "closed-form",
            "schoenberg",
            "winkler",
        }

    def test_custom_tree_respected(self, capsys, tmp_path):
        tree_file = tmp_path / "t.tree"
        tree_file.write_text("1 2\n2 0\n1 4\n3 0\n1 6\n5 0\n")
        code, out, _ = run_cli(
            capsys,
            "classify",
            "theta:2,3,3",
            "--method",
            "winkler",
            "--tree",
            str(tree_file),
        )
        assert code == 0

    def test_mode_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QEGRAPH_MODE", "exact")
        code, out, _ = run_cli(
            capsys, "classify", "theta:2,2,2", "--method", "winkler", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert payload["verdicts"][0]["mode_used"] == "exact"

    def test_mode_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QEGRAPH_MODE", "exact")
        code, out, _ = run_cli(
            capsys,
            "classify",
            "theta:2,2,2",
            "--method",
            "winkler",
            "--mode",
            "float",
            "--format",
            "json",
        )
        assert code == 1
        assert json.loads(out)["mode"] == "float"

    def test_invalid_mode_env_exit_2(self, capsys, monkeypatch):
        # every subcommand, including those without --mode
        monkeypatch.setenv("QEGRAPH_MODE", "bogus")
        for argv in (
            ["classify", "theta:2,3,3"],
            ["qec", "path:3"],
            ["kernel", "path:3"],
            ["distance", "path:3"],
            ["verify"],
            ["sweep", "--max-vertices", "5"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.splitlines() == [
                "error: QEGRAPH_MODE must be one of float, exact, auto, got 'bogus'"
            ]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_invalid_psd_tolerance_exit_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "classify", "path:4", "--tol-psd", tol)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: psd tolerance must be finite and positive")

    def test_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "path:4", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_exact_elimination_ignores_recursion_limit(self):
        # the exact elimination is iterative: a 99x99 kernel decides under a
        # recursion limit of 60 frames
        proc = run_python(
            "import sys\n"
            "from qegraph.cli import main\n"
            "sys.setrecursionlimit(60)\n"
            "sys.exit(main(['classify', 'path:100', '--method', 'winkler', '--mode', 'exact']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "decision: QE"


class TestQecCommand:
    def test_cycle_value(self, capsys):
        code, out, _ = run_cli(capsys, "qec", "cycle:5")
        assert code == 0
        assert out.splitlines()[0] == "-0.38196601"

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "qec", "cycle:6", "--format", "json")
        payload = json.loads(out)
        assert abs(payload["qec"]) <= 1e-9
        assert payload["is_qe"] is True
        assert len(payload["maximizer"]) == 6
        assert set(payload) == {"graph", "n", "qec", "is_qe", "maximizer"}

    def test_internal_check_failure_exit_2(self, capsys, monkeypatch):
        import dataclasses

        from qegraph import analysis

        real = analysis.is_cnd

        def unnormalized(*args, **kwargs):
            verdict = real(*args, **kwargs)
            return dataclasses.replace(
                verdict, maximizer=tuple(2.0 * x for x in verdict.maximizer)
            )

        monkeypatch.setattr(analysis, "is_cnd", unnormalized)
        code, out, err = run_cli(capsys, "qec", "cycle:5")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: internal error: maximizer norm 2")


class TestKernelCommand:
    def test_exact_half_integers(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "theta:2,3,3", "--mode", "exact")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "6"
        assert any("1/2" in line or "-1/2" in line for line in lines[1:])

    def test_float_identity_for_tree(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "path:4")
        assert code == 0
        assert out.strip().splitlines()[0] == "3"

    def test_bundled_tree_file(self, capsys, tmp_path):
        from qegraph import fixtures

        tree_file = tmp_path / "ref.tree"
        edges = fixtures.reference_tree(qegraph.ThetaSpec(2, 3, 3)).tree_edges
        tree_file.write_text("".join(f"{a} {b}\n" for a, b in edges))
        code, out, _ = run_cli(
            capsys, "kernel", "theta:2,3,3", "--tree", str(tree_file), "--mode", "exact"
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        want = fixtures.reference_two_k(qegraph.ThetaSpec(2, 3, 3))
        from fractions import Fraction

        got = [[Fraction(x) for x in row] for row in rows]
        assert got == [[Fraction(int(v), 2) for v in row] for row in want]


class TestDistanceCommand:
    def test_text_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "path:3")
        assert code == 0
        assert out.strip().splitlines() == ["3", "0 1 2", "1 0 1", "2 1 0"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "cycle:4", "--format", "json")
        payload = json.loads(out)
        assert payload["d"][0][2] == 2


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "12/12 fixtures pass" in out
        assert out.count("PASS") == 12

    def test_text_lines_carry_elapsed_time(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        results = out.strip().splitlines()[:-1]
        assert code == 0 and len(results) == 12
        for line in results:
            assert re.match(r"(PASS|FAIL) \S+ \(\d+\.\d ms\): ", line), line

    def test_loose_psd_tolerance_still_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tol-psd", "1e-2")
        assert code == 0
        assert "12/12 fixtures pass" in out

    def test_tampered_fixture_fails(self, capsys, monkeypatch):
        from qegraph import fixtures

        spec = qegraph.ThetaSpec(2, 3, 3)
        (a, b), *rest = fixtures._TREES[spec]
        monkeypatch.setitem(fixtures._TREES, spec, ((b, a), *rest))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        payload = json.loads(out)
        assert payload["passed"] == payload["total"] == 12


class TestSweepCommand:
    def test_csv_to_stdout_summary_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--max-vertices", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha,beta,gamma")
        assert any(line.startswith("2,2,2,5,NonQE") for line in lines)
        assert any(line.startswith("1,2,2,4,QE") for line in lines)
        assert re.search(r"theta graphs with at most 9 vertices in \d+\.\d\d s$", err.strip())

    def test_disagreeing_routes_exit_3(self, capsys):
        # a loose float tolerance lets the Schoenberg route call NonQE graphs QE
        code, _, err = run_cli(
            capsys, "sweep", "--max-vertices", "12", "--mode", "float", "--tol-psd", "1.0"
        )
        assert code == 3
        assert "decision routes disagree" in err

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--max-vertices", "8", "--out", str(out_path)
        )
        assert code == 0
        assert "theta graphs" in out  # summary on stdout when writing a file
        assert out_path.read_text().startswith("alpha,beta,gamma")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--max-vertices", "7", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["all_consistent"] is True

    def test_too_small_bound_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--max-vertices", "4")
        assert code == 2
        assert "at least 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qec", "cycle:5", "--mode", "exact"],
        ["distance", "path:3", "--mode", "exact"],
        ["distance", "path:3", "--tol-psd", "1e-3"],
        ["verify", "--mode", "exact"],
        ["kernel", "path:3", "--tol-psd", "1e-3"],
    ],
)
def test_flags_a_subcommand_does_not_use_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("uri, code", [("path:4", 0), ("theta:2,3,9", 1)])
def test_console_run_exit_codes(uri, code):
    # the console script's path through sys.argv and sys.exit, without
    # needing the package installed
    proc = run_python(
        "import sys\n"
        f"sys.argv = ['qegraph', 'classify', {uri!r}]\n"
        "from qegraph.cli import run\n"
        "run()\n"
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"decision: {'QE' if code == 0 else 'NonQE'}"


@pytest.mark.skipif(shutil.which("qegraph") is None, reason="entry point not installed")
def test_console_entry_point():
    proc = subprocess.run(
        ["qegraph", "classify", "path:4"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "decision: QE" in proc.stdout


def test_runtime_imports_are_stdlib_and_numpy():
    # the runtime dependency is numpy alone: importing the package and its
    # CLI may add only stdlib modules, numpy and qegraph itself (modules the
    # interpreter's site hooks load at startup are already in `before`)
    proc = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qegraph, qegraph.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - sys.stdlib_module_names)))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == {"numpy", "qegraph"}


@pytest.fixture
def bench_import(monkeypatch):
    """importlib.import_module with bench/ on the path; the benchmark
    modules it loads are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    added = [name for name in ("tracer", "workloads", "oracles") if name not in sys.modules]
    yield importlib.import_module
    for name in added:
        sys.modules.pop(name, None)


def test_public_names_and_benchmark_trace_targets_resolve(bench_import):
    # a deleted or renamed name fails here rather than first in the traced
    # benchmark run, whose tracer wraps bench/tracer.TRACED by attribute and
    # reads KernelMatrix.dim from each kernel
    modules = [qegraph] + [
        importlib.import_module(f"qegraph.{info.name}")
        for info in pkgutil.iter_modules(qegraph.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    for span, home, attr in bench_import("tracer").TRACED:
        assert callable(getattr(home, attr, None)), span
    assert winkler_kernel(make_cycle(4)).dim == 3


def test_benchmark_operations_run(bench_import):
    # a changed call form the benchmark relies on fails here rather than
    # first in the benchmark run; each operation checks its own verdicts.
    # Items are taken, ten at least, until every kind of graph a round of
    # the workload deals has been through its operation
    workloads = bench_import("workloads")
    for name in workloads.WORKLOADS:
        kinds = {item.kind for item in workloads._round(name, 0, random.Random(0))}
        seen = set()
        for count, item in enumerate(itertools.islice(workloads.stream(name, 1), 200), 1):
            workloads.OPERATIONS[name](item)
            seen.add(item.kind)
            if count >= 10 and seen == kinds:
                break
        assert seen == kinds, name
