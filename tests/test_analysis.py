import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qegraph import (
    Graph,
    OrientedTree,
    ThetaSpec,
    Tolerances,
    build_theta1_block_kernel,
    classification_sweep,
    classify_schoenberg,
    classify_theta_closed_form,
    classify_winkler,
    default_orientation_and_tree,
    distance_matrix,
    fixtures,
    graph_from_uri,
    is_psd,
    make_cycle,
    make_path,
    make_theta,
    qec,
    qec_cycle,
    qec_theta1_bounds,
    reconstruct_embedding,
    run_reference_suite,
    sweep_to_csv,
    sweep_to_json,
    winkler_kernel,
    witness_quadratic_form,
)

from qegraph import analysis, spectra
from qegraph.config import MODES

from conftest import (
    floyd_warshall,
    is_connected,
    is_isometric,
    random_connected_graph,
    random_sparse_graph,
    run_python,
)


class TestClosedForm:
    @pytest.mark.parametrize(
        "legs,expected,rule_part",
        [
            ((1, 2, 2), True, "alpha = 1"),
            ((1, 7, 11), True, "alpha = 1"),
            ((2, 3, 3), True, "{3, 5, 7}"),
            ((2, 3, 5), True, "{3, 5, 7}"),
            ((2, 3, 7), True, "{3, 5, 7}"),
            ((2, 2, 2), False, "alpha = beta = 2"),
            ((2, 2, 9), False, "alpha = beta = 2"),
            ((2, 3, 4), False, "gamma even"),
            ((2, 3, 100), False, "gamma even"),
            ((2, 3, 9), False, "gamma odd >= 9"),
            ((2, 3, 1001), False, "gamma odd >= 9"),
            ((2, 4, 5), False, "beta >= 4"),
            ((3, 3, 3), False, "alpha >= 3"),
            ((5, 6, 7), False, "alpha >= 3"),
        ],
    )
    def test_rules(self, legs, expected, rule_part):
        verdict = classify_theta_closed_form(ThetaSpec(*legs))
        assert verdict.is_qe == expected
        assert rule_part in verdict.evidence["rule"]

    def test_normalization_of_legs(self):
        assert classify_theta_closed_form(ThetaSpec(7, 3, 2)).is_qe
        assert classify_theta_closed_form(ThetaSpec(9, 3, 2)).is_qe is False


class TestDecisionRoutes:
    def test_corpus_agreement_with_known_class(self, corpus):
        for uri, g, expected in corpus:
            sb = classify_schoenberg(g)
            wk = classify_winkler(g)
            assert sb.is_qe == expected, (uri, sb.evidence)
            assert wk.is_qe == expected, (uri, wk.evidence)

    def test_modes_agree_on_corpus(self, corpus):
        for uri, g, _ in corpus:
            for classify in (classify_schoenberg, classify_winkler):
                float_v = classify(g, mode="float")
                exact_v = classify(g, mode="exact")
                assert float_v.is_qe == exact_v.is_qe, uri

    def test_verdict_shape(self):
        g = make_theta(ThetaSpec(2, 2, 2))
        verdict = classify_winkler(g)
        assert verdict.decision == "NonQE"
        assert verdict.method == "winkler"
        json.dumps(verdict.evidence)  # evidence must stay JSON-safe
        assert len(verdict.evidence["certificate"]) > 0

    def test_single_vertex_is_trivially_embeddable(self):
        g = make_path(1)
        assert classify_schoenberg(g).is_qe
        assert classify_winkler(g).is_qe


class TestWinklerOnTwoK:
    """classify_winkler decides on the integer matrix 2K and halves the
    values it reports."""

    def test_never_enters_the_generic_ingestion(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the Winkler decision converted its kernel through Fractions")

        monkeypatch.setattr(spectra, "_square_rows", refuse)
        g = make_theta(ThetaSpec(2, 3, 5))  # singular kernel: auto escalates
        for mode in ("exact", "auto"):
            assert classify_winkler(g, mode=mode).mode_used == "exact", mode

    def test_evidence_matches_the_decision_on_k(self, corpus, rng):
        # is_psd on the float K is the reference.  Exact values must match
        # exactly.  LAPACK's tridiagonal solver is not exactly scale-invariant,
        # so float values of 2K, halved, may differ from K's by rounding (the
        # random graphs include such kernels), and the eigenvector of a
        # (near-)repeated lambda_min may be another unit vector of its
        # eigenspace: float certificates are re-checked on K instead.
        graphs = [g for _, g, _ in corpus] + [make_cycle(m) for m in range(3, 21)]
        graphs += [random_sparse_graph(rng, n) for n in range(3, 71)]
        graphs += [random_connected_graph(rng, n, 3.0 / n) for n in range(3, 71)]
        eps = np.finfo(float).eps
        for g in graphs:
            kern = winkler_kernel(g)
            k = kern.two_k / 2.0
            for mode in MODES:
                got = classify_winkler(g, mode=mode)
                ref = is_psd(k, mode=mode)
                ev = got.evidence
                assert (got.is_qe, got.mode_used) == (ref.is_psd, ref.mode_used), (g.edges, mode)
                assert ev["kernel_dim"] == kern.dim
                if ref.lambda_max is None:
                    assert ev["lambda_min"] is ev["lambda_max"] is None
                else:
                    tol = kern.dim * eps * ref.lambda_max
                    assert abs(ev["lambda_max"] - ref.lambda_max) <= tol
                    assert abs(ev["lambda_min"] - ref.lambda_min) <= tol
                if ref.certificate is None:
                    assert "certificate" not in ev
                elif got.mode_used == "exact":
                    assert ev["certificate"] == list(ref.certificate)
                    assert ev["certificate_value"] == str(ref.certificate_value)
                else:
                    x = np.array(ev["certificate"])
                    value = float(x @ k @ x)
                    assert value < 0
                    assert abs(value - ev["certificate_value"]) <= tol
                    assert abs(ev["certificate_value"] - ref.certificate_value) <= tol


class TestQec:
    def test_path_values_are_negative(self):
        assert qec(make_path(2)).value == pytest.approx(-1.0)
        assert qec(make_path(5)).value < 0

    def test_cycles_match_closed_form(self):
        for m in (3, 4, 5, 6, 7, 9, 12, 13):
            value = qec(make_cycle(m)).value
            assert abs(value - qec_cycle(m)) <= 1e-9

    def test_maximizer_is_feasible_and_attains(self, corpus):
        for uri, g, _ in corpus:
            result = qec(g)
            f = np.array(result.maximizer)
            d = distance_matrix(g)
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-9, uri
            assert abs(f.sum()) <= 1e-9, uri
            assert abs(float(f @ d @ f) - result.value) <= 1e-8, uri

    def test_sign_consistent_with_schoenberg(self, corpus):
        for uri, g, _ in corpus:
            constant = qec(g)
            verdict = classify_schoenberg(g)
            assert constant.is_qe == verdict.is_qe, uri
            assert constant.value == verdict.evidence["max_eig_on_ones_complement"], uri

    def test_qec_cycle_validation(self):
        with pytest.raises(ValueError):
            qec_cycle(2)

    def test_qec_needs_two_vertices(self):
        with pytest.raises(ValueError):
            qec(make_path(1))

    def test_theta1_bounds(self):
        assert qec_theta1_bounds(3, 4) == (0.0, 0.0)
        low, high = qec_theta1_bounds(4, 6)
        assert high == 0.0
        assert low == pytest.approx(-1.0 / (4.0 * math.cos(math.pi / 7.0) ** 2))
        with pytest.raises(ValueError):
            qec_theta1_bounds(4, 3)


class TestIntegerArguments:
    """The closed forms and fixtures take integers: a float or a string is
    rejected instead of truncated, and numpy integers are accepted."""

    CALLS = [
        (analysis.witness_quadratic_form, (2,), 0),
        (fixtures.witness_vertex_names, (2,), 0),
        (build_theta1_block_kernel, (2, 3, "even"), 0),
        (build_theta1_block_kernel, (2, 3, "odd"), 1),
        (fixtures.theta1_tree, (2, 3, "even"), 1),
        (qec_cycle, (5,), 0),
        (qec_theta1_bounds, (4, 6), 1),
        (classification_sweep, (6,), 0),
    ]

    @pytest.mark.parametrize("fn, args, at", CALLS)
    @pytest.mark.parametrize("bad", [1.9, 2.0, "7", None])
    def test_non_integers_are_rejected(self, fn, args, at, bad):
        args = list(args)
        args[at] = bad
        with pytest.raises(ValueError, match="must be an integer"):
            fn(*args)

    @pytest.mark.parametrize("fn, args, at", CALLS)
    def test_numpy_integers_are_accepted(self, fn, args, at):
        np_args = list(args)
        np_args[at] = np.int32(args[at])

        def comparable(x):
            if isinstance(x, tuple) and isinstance(x[-1], OrientedTree):
                return x[-1].tree_edges
            if hasattr(x, "two_k"):
                return x.two_k.tolist()
            if hasattr(x, "rows"):
                return sweep_to_csv(x)
            return x

        assert comparable(fn(*np_args)) == comparable(fn(*args))


class TestSchoenbergMemo:
    """classify_schoenberg and qec share one is_cnd decision per graph, mode
    and tolerance, kept on the graph.  Each test builds its own graphs."""

    def test_schoenberg_then_qec_decides_once(self, monkeypatch):
        calls = []
        real = analysis.is_cnd

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "is_cnd", counting)
        g = make_theta(ThetaSpec(2, 3, 9))
        classify_schoenberg(g)
        qec(g)
        assert len(calls) == 1

    def test_modes_and_tolerances_do_not_cross(self):
        g = make_theta(ThetaSpec(2, 3, 9))
        loose = classify_schoenberg(g, mode="float", tol=Tolerances(psd_rel=1.0))
        assert loose.is_qe  # the loose tolerance swallows the positive eigenvalue

        def fresh():
            return make_theta(ThetaSpec(2, 3, 9))

        assert classify_schoenberg(g) == classify_schoenberg(fresh())
        assert qec(g) == qec(fresh())
        exact = classify_schoenberg(g, mode="exact")
        assert exact == classify_schoenberg(fresh(), mode="exact")
        assert not exact.is_qe and exact.mode_used == "exact"
        assert exact.evidence["certificate"]
        assert classify_schoenberg(g, mode="float") == classify_schoenberg(fresh(), mode="float")

    def test_memo_keeps_no_cycle_through_the_graph(self):
        gc.disable()  # a cycle would keep the graph until the cyclic collector runs
        try:
            g = make_theta(ThetaSpec(2, 3, 5))
            classify_schoenberg(g)
            classify_winkler(g)
            qec(g)
            reconstruct_embedding(g)
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            gc.enable()


class TestIsometricMonotonicity:
    # an isometrically embedded subgraph can only lower the constant
    def test_short_leg_rings(self):
        for beta, gamma in ((2, 2), (2, 3), (3, 4), (4, 4), (4, 6), (5, 7)):
            spec = ThetaSpec(1, beta, gamma)
            g = make_theta(spec)
            ring = spec.path_vertices("z")
            h = make_cycle(gamma + 1)
            assert is_isometric(h, g, ring)
            assert qec(h).value <= qec(g).value + 1e-8, (beta, gamma)

    def test_balanced_theta_rings(self):
        for legs in ((2, 2, 2), (2, 2, 5), (3, 3, 3), (3, 3, 4)):
            spec = ThetaSpec(*legs)
            g = make_theta(spec)
            ring = list(spec.path_vertices("y"))
            ring += list(spec.path_vertices("z"))[-2:0:-1]
            h = make_cycle(len(ring))
            assert is_isometric(h, g, ring)
            assert qec(h).value <= qec(g).value + 1e-8, legs


def glue(g: Graph, h: Graph) -> Graph:
    """g and h identified at their vertex 0; h's other vertices follow g's."""
    label = [0] + list(range(g.n, g.n + h.n - 1))
    return Graph(g.n + h.n - 1, g.edges + tuple((label[u], label[v]) for u, v in h.edges))


def quadratic_form(m: list[list[int]], x: list[Fraction]) -> Fraction:
    return sum(xi * m[i][j] * xj for i, xi in enumerate(x) for j, xj in enumerate(x) if xi and xj)


class TestVertexGluing:
    # Gluing two QE graphs at one vertex is QE: embed them in orthogonal
    # subspaces with the glued vertex at the origin.  Gluing keeps each part
    # isometric, so a non-QE part keeps the whole graph non-QE.  About 100
    # vertices, decided exactly on both routes.
    def test_two_odd_cycles_glued_are_qe(self):
        g = glue(make_cycle(51), make_cycle(51))
        assert g.n == 101
        for classify in (classify_schoenberg, classify_winkler):
            verdict = classify(g, mode="exact")
            assert verdict.is_qe and verdict.mode_used == "exact", verdict.method

    def test_non_qe_theta_glued_to_path_has_checked_certificates(self):
        g = glue(make_theta(ThetaSpec(2, 3, 9)), make_path(88))
        assert g.n == 100
        d = floyd_warshall(g).tolist()
        s = classify_schoenberg(g, mode="exact")
        assert not s.is_qe and s.mode_used == "exact"
        f = [Fraction(x) for x in s.evidence["certificate"]]
        assert sum(f) == 0 and quadratic_form(d, f) > 0
        w = classify_winkler(g, mode="exact")
        assert not w.is_qe and w.mode_used == "exact"
        tree = default_orientation_and_tree(g).tree_edges
        assert len(tree) == g.n - 1 and {tuple(sorted(e)) for e in tree} <= set(g.edges)
        two_k = [[d[a][bb] - d[a][aa] - d[b][bb] + d[b][aa] for aa, bb in tree] for a, b in tree]
        x = [Fraction(v) for v in w.evidence["certificate"]]
        assert quadratic_form(two_k, x) < 0

    def test_exact_certificates_use_the_irreducible_blocks(self):
        # a bridge e is a 1 x 1 block of 2K (K(e, e') = 0 for every other
        # tree edge e'), so the exact Winkler certificate, taken from a
        # failing block, is zero on it; the exact Schoenberg reduction is
        # anchored at a central vertex, which here lies on the path, so the
        # theta hangs from its glued vertex 0 and the certificate lives on
        # the theta's 13 vertices alone
        g = glue(make_theta(ThetaSpec(2, 3, 9)), make_path(88))
        d = floyd_warshall(g)
        center = int(np.argmin(d.max(axis=1)))
        assert center >= 13
        s = classify_schoenberg(g, mode="exact")
        f = [Fraction(x) for x in s.evidence["certificate"]]
        assert not s.is_qe and sum(f) == 0 and quadratic_form(d.tolist(), f) > 0
        assert not any(f[13:])

        def is_bridge(edge):
            rest = [e for e in g.edges if e != edge]
            return not is_connected(Graph(g.n, tuple(rest)))

        tree = default_orientation_and_tree(g).tree_edges
        bridges = [i for i, e in enumerate(tree) if is_bridge(tuple(sorted(e)))]
        assert len(bridges) == 87  # the path's edges
        w = classify_winkler(g, mode="exact")
        assert not w.is_qe
        x = [Fraction(v) for v in w.evidence["certificate"]]
        assert all(x[i] == 0 for i in bridges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """G □ H on the pairs (u, v), numbered u * h.n + v: (u, v) ~ (u', v')
    when u = u' and v ~ v' in H, or v = v' and u ~ u' in G."""
    edges = [(u * h.n + a, u * h.n + b) for u in range(g.n) for a, b in h.edges]
    edges += [(a * h.n + v, b * h.n + v) for a, b in g.edges for v in range(h.n)]
    return Graph(g.n * h.n, tuple(edges))


def tree_two_k(d: np.ndarray, tree) -> np.ndarray:
    """2K(e_i, e_j) = d(a_i, b_j) - d(a_i, a_j) - d(b_i, b_j) + d(b_i, a_j)."""
    a, b = np.array(tree).T
    return d[np.ix_(a, b)] - d[np.ix_(a, a)] - d[np.ix_(b, b)] + d[np.ix_(b, a)]


class TestCartesianProduct:
    # G □ H is QE iff both G and H are (Obata and Zakiyyah, Electron. J.
    # Graph Theory Appl. 6 (2018) 37-60): a metamorphic identity at 50-110
    # vertices, checked against the factors' exact verdicts, with every
    # certificate and embedding re-checked against Floyd-Warshall.
    @pytest.mark.parametrize(
        "left, right",
        [
            ("cycle:7", "path:8"),
            ("theta:2,2,2", "path:10"),
            ("theta:2,3,5", "cycle:12"),
            ("theta:2,3,9", "path:8"),
            ("cycle:9", "cycle:11"),
            ("theta:1,4,6", "theta:2,3,7"),
        ],
    )
    def test_product_is_qe_iff_both_factors_are(self, left, right):
        factors = [graph_from_uri(left), graph_from_uri(right)]
        want = all(classify_schoenberg(f, mode="exact").is_qe for f in factors)
        g = cartesian_product(*factors)
        assert 50 <= g.n <= 110
        d = floyd_warshall(g)
        s = classify_schoenberg(g, mode="auto")
        w = classify_winkler(g, mode="auto")
        assert s.is_qe == w.is_qe == want, (s.mode_used, w.mode_used)
        tree = default_orientation_and_tree(g).tree_edges
        assert len(tree) == g.n - 1 and {tuple(sorted(e)) for e in tree} <= set(g.edges)
        if want:
            emb = reconstruct_embedding(g).vectors
            gram = emb @ emb.T
            sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
            assert np.abs(sq - d).max() <= 1e-8
            return
        f, x = s.evidence["certificate"], w.evidence["certificate"]
        if s.mode_used == "exact":
            f = [Fraction(v) for v in f]
            assert sum(f) == 0 and quadratic_form(d.tolist(), f) > 0
        else:
            f = np.array(f)
            assert abs(f.sum()) <= 1e-8 and float(f @ d @ f) > 0
        if w.mode_used == "exact":
            x = [Fraction(v) for v in x]
            assert quadratic_form(tree_two_k(d, tree).tolist(), x) < 0
        else:
            x = np.array(x)
            assert float(x @ tree_two_k(d, tree) @ x) < 0


def witness_vector(k: int) -> tuple[ThetaSpec, np.ndarray]:
    """Theta(2, 3, 2k+7) and the full witness vector over its vertices."""
    spec = ThetaSpec(2, 3, 2 * k + 7)
    f = np.zeros(spec.n_vertices, dtype=np.int64)
    for name, c in zip(fixtures.witness_vertex_names(k), fixtures.WITNESS_COEFFS, strict=True):
        f[spec.vertex_index(name)] = c
    return spec, f


class TestWitness:
    def test_value_for_small_k(self):
        for k in (1, 2, 3, 7):
            assert witness_quadratic_form(k) == 16272

    def test_report_contents(self):
        spec, f = witness_vector(2)
        assert spec == ThetaSpec(2, 3, 11)
        assert len(f) == spec.n_vertices and np.count_nonzero(f) == 13
        assert sum(f) == 0
        d = floyd_warshall(make_theta(spec))
        assert int(f @ d @ f) == 16272 == witness_quadratic_form(2)

    def test_positive_form_certifies_non_embeddability(self):
        # the witness exhibits <f, Df> > 0 with sum(f) = 0
        spec, f = witness_vector(1)
        g = make_theta(spec)
        assert sum(f) == 0 and int(f @ floyd_warshall(g) @ f) > 0
        assert not classify_schoenberg(g).is_qe

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            witness_quadratic_form(0)


class TestSweep:
    def test_row_count_matches_enumeration(self):
        report = classification_sweep(max_vertices=9)
        expected = sum(
            1
            for a in range(1, 20)
            for b in range(max(a, 2), 20)
            for c in range(b, 20)
            if a + b + c - 1 <= 9
        )
        assert len(report.rows) == expected == 23

    def test_embeddable_set_matches_classification(self):
        report = classification_sweep(max_vertices=12)
        got = {r.spec.legs for r in report.rows if r.schoenberg}
        want = {legs for legs in (r.spec.legs for r in report.rows) if legs[0] == 1}
        want |= {(2, 3, 3), (2, 3, 5), (2, 3, 7)}
        assert got == want
        assert report.all_consistent

    def test_min_vertices_enforced(self):
        with pytest.raises(ValueError):
            classification_sweep(max_vertices=4)

    def test_csv_and_json_outputs(self):
        report = classification_sweep(max_vertices=7)
        csv_text = sweep_to_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "alpha,beta,gamma,n,closed_form,schoenberg,winkler,qec"
        assert len(lines) == len(report.rows) + 1
        assert any(line.startswith("2,2,2,5,NonQE") for line in lines)
        assert any(line.startswith("1,2,2,4,QE") for line in lines)
        payload = json.loads(sweep_to_json(report))
        assert payload["max_vertices"] == 7
        assert payload["all_consistent"] is True
        assert len(payload["rows"]) == len(report.rows)


class TestReferenceSuite:
    def test_all_fixtures_pass(self):
        results = run_reference_suite()
        assert len(results) == 12
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        assert all(r.elapsed >= 0.0 for r in results)

    def test_tampered_reference_detected(self, monkeypatch):
        from qegraph import fixtures

        bad = fixtures.reference_two_k(ThetaSpec(2, 3, 3)).copy()
        bad[0, 1] = 1
        bad[1, 0] = 1
        monkeypatch.setattr(fixtures, "reference_two_k", lambda spec: bad)
        results = run_reference_suite()
        assert any(not r.passed for r in results)

    def test_tampered_reference_detected_under_optimize(self):
        # python -O strips assert statements; the suite's checks must survive it
        proc = run_python(
            "from qegraph import ThetaSpec, fixtures, run_reference_suite\n"
            "assert False, 'asserts are live: not running under -O'\n"
            "bad = fixtures.reference_two_k(ThetaSpec(2, 3, 3)).copy()\n"
            "bad[0, 1] = bad[1, 0] = 1\n"
            "fixtures.reference_two_k = lambda spec: bad\n"
            "for r in run_reference_suite():\n"
            "    print(r.name, r.passed)\n",
            "-O",
        )
        assert proc.returncode == 0, proc.stderr
        verdicts = dict(line.split() for line in proc.stdout.splitlines())
        assert verdicts.pop("kernel-2-3-3-matrix") == "False"
        assert set(verdicts.values()) == {"True"}
