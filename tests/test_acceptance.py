"""End-to-end acceptance checks, one test per shipped guarantee.

Every tolerance is pinned here rather than imported, so a change in the
package defaults cannot silently weaken the gate.  Expected spectra are
written as closed forms, independent of the bundled reference tables.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from qegraph import (
    Graph,
    OrientedTree,
    ThetaSpec,
    build_theta1_block_kernel,
    classification_sweep,
    distance_matrix,
    eigen_sym,
    is_cnd,
    is_psd,
    make_cycle,
    make_theta,
    qec,
    reconstruct_embedding,
    winkler_kernel,
    witness_quadratic_form,
)
from qegraph import fixtures

from conftest import all_labeled_trees, random_connected_graph, random_spanning_tree

SPECTRUM_TOL = 1e-9
CYCLE_QEC_TOL = 1e-9
QEC_BAND_TOL = 1e-8
EMBED_TOL = 1e-8
SEED = 20260813


def _reference_kernel_spectrum(spec: ThetaSpec) -> tuple[np.ndarray, np.ndarray]:
    tree = fixtures.reference_tree(spec)
    kern = winkler_kernel(tree.graph, tree)
    return kern.two_k, eigen_sym(kern.two_k).eigenvalues


def _oriented(rng: random.Random, g: Graph, tree_edges) -> OrientedTree:
    directed = tuple(
        (u, v) if rng.random() < 0.5 else (v, u) for u, v in tree_edges
    )
    return OrientedTree(g, directed)


def test_c01_theta_2_3_3_kernel_matrix_and_spectrum():
    start = time.perf_counter()
    two_k, lam = _reference_kernel_spectrum(ThetaSpec(2, 3, 3))
    assert np.array_equal(two_k, fixtures.reference_two_k(ThetaSpec(2, 3, 3)))
    r = math.sqrt(2.0)
    expected = sorted((4.0, 2 + r, 2 + r, 2 - r, 2 - r, 0.0), reverse=True)
    assert np.max(np.abs(lam - np.array(expected))) <= SPECTRUM_TOL
    assert time.perf_counter() - start < 1.0


def test_c02_theta_2_3_5_kernel_spectrum():
    _, lam = _reference_kernel_spectrum(ThetaSpec(2, 3, 5))
    expected = sorted(
        [4.0, 0.0] + [2 + 2 * math.cos(k * math.pi / 9) for k in (1, 2, 4, 5, 7, 8)],
        reverse=True,
    )
    assert np.max(np.abs(lam - np.array(expected))) <= SPECTRUM_TOL


def test_c03_theta_2_3_7_kernel_spectrum():
    _, lam = _reference_kernel_spectrum(ThetaSpec(2, 3, 7))
    r = math.sqrt(5.0)
    expected = sorted(
        (4.0, 4.0, (5 + r) / 2, 3.0, (3 + r) / 2, (5 - r) / 2, 1.0, (3 - r) / 2, 0.0, 0.0),
        reverse=True,
    )
    assert np.max(np.abs(lam - np.array(expected))) <= SPECTRUM_TOL


def test_c04_witness_value_constant_for_fifty_leg_lengths():
    start = time.perf_counter()
    coeffs = np.array(fixtures.WITNESS_COEFFS, dtype=np.int64)
    for k in range(1, 51):
        spec = ThetaSpec(2, 3, 2 * k + 7)
        d = distance_matrix(make_theta(spec))
        idx = np.array([spec.vertex_index(name) for name in fixtures.witness_vertex_names(k)])
        sub = d[np.ix_(idx, idx)]
        # distances on the designated vertices split into a fixed part plus k steps
        assert np.array_equal(sub, fixtures.WITNESS_BASE + k * fixtures.WITNESS_STEP)
        assert int(coeffs @ sub @ coeffs) == 16272
        assert witness_quadratic_form(k) == 16272
    assert time.perf_counter() - start < 5.0


def test_c05_three_route_agreement_up_to_18_vertices():
    start = time.perf_counter()
    report = classification_sweep(max_vertices=18)
    assert len(report.rows) > 100
    for row in report.rows:
        assert row.closed_form == row.schoenberg == row.winkler == row.qec_qe, row.spec
    assert time.perf_counter() - start < 60.0


def test_c06_cycle_qec_matches_closed_form():
    for m in (3, 5, 7, 9, 11, 13):
        expected = -1.0 / (4 * math.cos(math.pi / m) ** 2)
        assert abs(qec(make_cycle(m)).value - expected) <= CYCLE_QEC_TOL
    for m in (4, 6, 8, 10, 12):
        assert abs(qec(make_cycle(m)).value) <= CYCLE_QEC_TOL


def test_c07_one_leg_theta_qec_stays_in_band():
    for beta in range(4, 13):
        for gamma in range(beta, 13):
            value = qec(make_theta(ThetaSpec(1, beta, gamma))).value
            if beta % 2 == 0 and gamma % 2 == 0:
                lower = -1.0 / (4 * math.cos(math.pi / (gamma + 1)) ** 2)
                assert lower - QEC_BAND_TOL <= value <= QEC_BAND_TOL, (beta, gamma)
            else:
                assert abs(value) <= QEC_BAND_TOL, (beta, gamma)


def test_c08_block_kernels_match_tree_kernels_and_gershgorin():
    for k in range(2, 7):
        for l in range(k, 7):
            for parity in ("even", "odd"):
                block = build_theta1_block_kernel(k, l, parity).two_k
                tree = fixtures.theta1_tree(k, l, parity)
                assert np.array_equal(winkler_kernel(tree.graph, tree).two_k, block)
                assert (np.diag(block) == 2).all()
                off_row = np.abs(block).sum(axis=1) - 2
                assert (off_row <= 2).all(), (k, l, parity)
                lam = eigen_sym(block).eigenvalues / 2.0
                assert lam[0] <= 2.0 + SPECTRUM_TOL
                assert lam[-1] >= -SPECTRUM_TOL


def test_c09_kernel_invariance_and_embedding(corpus):
    rng = random.Random(SEED)
    for n in range(2, 9):
        eye = 2 * np.eye(n - 1, dtype=np.int64)
        for edges in all_labeled_trees(n):
            assert np.array_equal(winkler_kernel(Graph(n, edges)).two_k, eye)
    for uri, g, expect_qe in corpus:
        verdicts = set()
        for _ in range(10):
            tree_edges = random_spanning_tree(rng, g)
            for _ in range(10):
                tree = _oriented(rng, g, tree_edges)
                verdicts.add(is_psd(winkler_kernel(g, tree).two_k).is_psd)
        assert verdicts == {expect_qe}, uri
    for uri, g, _ in corpus:
        tree = _oriented(rng, g, random_spanning_tree(rng, g))
        kern = winkler_kernel(g, tree)
        flip = [rng.random() < 0.5 for _ in tree.tree_edges]
        flipped = tuple(
            (b, a) if f else (a, b) for (a, b), f in zip(tree.tree_edges, flip)
        )
        kern2 = winkler_kernel(g, OrientedTree(g, flipped))
        signs = np.diag([-1 if f else 1 for f in flip])
        assert np.array_equal(kern2.two_k, signs @ kern.two_k @ signs), uri
    for uri, g, expect_qe in corpus:
        if not expect_qe or g.n > 16:
            continue
        emb = reconstruct_embedding(g)
        d = distance_matrix(g)
        diff = emb.vectors[:, None, :] - emb.vectors[None, :, :]
        sq = (diff * diff).sum(axis=2)
        assert np.max(np.abs(sq - d)) <= EMBED_TOL, uri


def test_c10_cnd_psd_equivalence_on_random_graphs():
    rng = random.Random(SEED)
    for trial in range(200):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        d = distance_matrix(g)
        two_k = winkler_kernel(g).two_k
        answers = {
            is_cnd(d, mode="float").is_cnd,
            is_cnd(d, mode="exact").is_cnd,
            is_psd(two_k, mode="float").is_psd,
            is_psd(two_k, mode="exact").is_psd,
        }
        assert len(answers) == 1, (trial, n, g.edges)
