import numpy as np
import pytest

from qegraph import (
    EdgePairError,
    EmbeddingError,
    Graph,
    GraphError,
    OrientedTree,
    ThetaSpec,
    TreeError,
    build_theta1_block_kernel,
    classify_edge_pair,
    default_orientation_and_tree,
    distance_matrix,
    graph_from_uri,
    is_psd,
    make_cycle,
    make_path,
    make_theta,
    reconstruct_embedding,
    winkler_kernel,
    zeta_path_signs,
)
from qegraph.winkler import format_tree_text, parse_tree_text

from conftest import (
    all_labeled_trees,
    floyd_warshall,
    random_connected_graph,
    random_oriented_tree,
)


class TestOrientedTree:
    def test_default_tree_is_bfs_layered(self):
        g = make_cycle(6)
        tree = default_orientation_and_tree(g)
        assert len(tree.tree_edges) == 5
        d = distance_matrix(g)
        for a, b in tree.tree_edges:
            assert d[0, b] == d[0, a] + 1  # direction follows layers

    def test_validation_errors(self):
        g = make_cycle(4)
        with pytest.raises(TreeError):
            OrientedTree(g, g.edges)  # too many edges
        with pytest.raises(TreeError):
            OrientedTree(g, ((0, 1), (1, 2), (0, 2)))  # not host edge
        with pytest.raises(TreeError):
            OrientedTree(g, ((0, 1), (1, 2), (2, 9)))  # vertex out of range
        with pytest.raises(TreeError):
            OrientedTree(g, ((0, 1), (1, 2), (3, -1)))  # negative vertex
        with pytest.raises(TreeError):
            OrientedTree(g, ((0, 1), (1, 2), (0, 1)))  # repeat
        cyc = ((0, 1), (1, 2), (2, 3), (3, 0))
        with pytest.raises(TreeError):
            OrientedTree(g, cyc[:3] + ((3, 0),))

    def test_omitted_edges(self):
        g = make_theta(ThetaSpec(2, 3, 3))
        tree = default_orientation_and_tree(g)
        omitted = tree.omitted_edges()
        assert len(omitted) == 2
        assert set(omitted) | set(
            tuple(sorted(e)) for e in tree.tree_edges
        ) == set(g.edges)


class TestKernel:
    def test_diagonal_and_integrality_on_corpus(self, corpus):
        for uri, g, _ in corpus:
            kern = winkler_kernel(g)
            assert kern.two_k.dtype == np.int64
            assert (np.diag(kern.two_k) == 2).all(), uri
            assert (kern.two_k == kern.two_k.T).all(), uri

    def test_tree_kernel_is_identity_exhaustive_small(self):
        for n in range(2, 7):
            for edges in all_labeled_trees(n):
                g = Graph(n, edges)
                kern = winkler_kernel(g)
                assert np.array_equal(kern.two_k, 2 * np.eye(n - 1, dtype=np.int64))

    def test_verdict_invariant_under_tree_and_orientation(self, corpus, rng):
        for uri, g, _ in corpus:
            if g.n > 10:
                continue
            baseline = is_psd(winkler_kernel(g).as_float()).is_psd
            for _ in range(6):
                tree = random_oriented_tree(rng, g)
                kern = winkler_kernel(g, tree)
                assert is_psd(kern.as_float()).is_psd == baseline, uri

    def test_orientation_flip_conjugates(self, rng):
        g = make_theta(ThetaSpec(2, 3, 4))
        tree = default_orientation_and_tree(g)
        kern = winkler_kernel(g, tree)
        flip = [rng.random() < 0.5 for _ in tree.tree_edges]
        flipped_edges = tuple(
            (b, a) if f else (a, b) for (a, b), f in zip(tree.tree_edges, flip)
        )
        kern2 = winkler_kernel(g, OrientedTree(g, flipped_edges))
        signs = np.diag([-1 if f else 1 for f in flip])
        assert np.array_equal(kern2.two_k, signs @ kern.two_k @ signs)

    def test_entries_match_definition_at_scale(self, rng):
        # random trees with random directions on graphs of a few hundred
        # vertices, each entry against the four-distance definition
        for g in (graph_from_uri("cycle:301"), random_connected_graph(rng, 200, 0.04)):
            tree = random_oriented_tree(rng, g)
            d = floyd_warshall(g).tolist()
            want = [
                [d[a][b2] - d[a][a2] - d[b][b2] + d[b][a2] for a2, b2 in tree.tree_edges]
                for a, b in tree.tree_edges
            ]
            assert winkler_kernel(g, tree).two_k.tolist() == want, g.n

    def test_kernel_rejects_foreign_tree(self):
        g1, g2 = make_cycle(4), make_cycle(5)
        tree = default_orientation_and_tree(g2)
        with pytest.raises(TreeError):
            winkler_kernel(g1, tree)


class TestEdgePairs:
    def test_values_match_kernel_entries_exhaustively(self, corpus):
        for uri, g, _ in corpus:
            if g.n > 12:
                continue
            tree = default_orientation_and_tree(g)
            kern = winkler_kernel(g, tree)
            for i, e in enumerate(tree.tree_edges):
                for j, e2 in enumerate(tree.tree_edges):
                    pair = classify_edge_pair(g, e, e2)
                    assert pair.value == kern.two_k[i, j] / 2.0, (uri, e, e2)

    def test_direct_formula_on_all_directed_pairs(self, corpus):
        for uri, g, _ in corpus:
            if g.n > 12:
                continue
            d = distance_matrix(g)
            directed = [e for u, v in g.edges for e in ((u, v), (v, u))]
            for a, b in directed:
                for a2, b2 in directed:
                    pair = classify_edge_pair(g, (a, b), (a2, b2))
                    want = (d[a, b2] - d[a, a2] - d[b, b2] + d[b, a2]) / 2.0
                    assert pair.value == want, (uri, (a, b), (a2, b2))
                    assert 1 <= pair.case <= 9

    def test_all_nine_cases_reachable(self, corpus):
        seen = set()
        for _, g, _ in corpus:
            if g.n > 12:
                continue
            directed = [e for u, v in g.edges for e in ((u, v), (v, u))]
            for e in directed:
                for e2 in directed:
                    seen.add(classify_edge_pair(g, e, e2).case)
        assert seen == set(range(1, 10))

    def test_same_edge_gives_value_one(self):
        g = make_cycle(5)
        pair = classify_edge_pair(g, (0, 1), (0, 1))
        assert pair.case == 9 and pair.value == 1.0
        flipped = classify_edge_pair(g, (0, 1), (1, 0))
        assert flipped.case == 8 and flipped.value == -1.0

    def test_non_edge_rejected(self):
        g = make_cycle(5)
        with pytest.raises(GraphError):
            classify_edge_pair(g, (0, 2), (0, 1))

    def test_error_type_carries_distances(self):
        err = EdgePairError((0, 1), (2, 3), {(0, 1): 1, (2, 3): 1})
        assert err.edges == ((0, 1), (2, 3))
        assert "d(0,1)=1" in str(err)


class TestBlockKernels:
    def test_dimensions(self):
        assert build_theta1_block_kernel(2, 3, "even").dim == 9
        assert build_theta1_block_kernel(2, 3, "odd").dim == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            build_theta1_block_kernel(1, 3, "even")
        with pytest.raises(ValueError):
            build_theta1_block_kernel(3, 2, "even")  # even case needs k <= l
        with pytest.raises(ValueError):
            build_theta1_block_kernel(2, 2, "prime")
        build_theta1_block_kernel(3, 2, "odd")  # odd case allows k > l

    def test_psd_both_parities(self):
        for parity in ("even", "odd"):
            kern = build_theta1_block_kernel(3, 4, parity)
            assert is_psd(kern.as_float()).is_psd


class TestZetaSigns:
    def test_path_with_and_against_orientation(self):
        g = make_path(4)
        tree = OrientedTree(g, ((0, 1), (2, 1), (2, 3)))
        assert zeta_path_signs(tree, 0, 3) == [
            ((0, 1), 1),
            ((2, 1), -1),
            ((2, 3), 1),
        ]
        assert zeta_path_signs(tree, 3, 0) == [
            ((2, 3), -1),
            ((2, 1), 1),
            ((0, 1), -1),
        ]
        assert zeta_path_signs(tree, 2, 2) == []

    def test_telescoping_reproduces_tree_distance(self, corpus, rng):
        # the number of path steps equals the tree metric between endpoints
        for uri, g, _ in corpus:
            tree = random_oriented_tree(rng, g)
            tg = Graph(g.n, tuple(tuple(sorted(e)) for e in tree.tree_edges))
            dt = distance_matrix(tg)
            for x in range(0, g.n, 3):
                for y in range(0, g.n, 2):
                    assert len(zeta_path_signs(tree, x, y)) == dt[x, y], uri


class TestTreeFiles:
    def test_round_trip(self):
        g = make_theta(ThetaSpec(2, 3, 3))
        tree = default_orientation_and_tree(g)
        again = parse_tree_text(format_tree_text(tree), g)
        assert again.tree_edges == tree.tree_edges

    def test_parse_errors(self):
        g = make_cycle(4)
        with pytest.raises(TreeError):
            parse_tree_text("0 1 2\n", g)
        with pytest.raises(TreeError):
            parse_tree_text("0 one\n", g)
        with pytest.raises(TreeError):
            parse_tree_text("0 1\n", g)  # too few edges
        with pytest.raises(TreeError):
            parse_tree_text("0 1\n1 2\n0 2\n", g)  # not a host edge


class TestEmbedding:
    def test_qe_corpus_embeds_within_tolerance(self, corpus):
        for uri, g, qe in corpus:
            if not qe or g.n > 16:
                continue
            emb = reconstruct_embedding(g)
            assert emb.max_error <= 1e-8, uri
            assert emb.vectors.shape == (g.n, emb.vectors.shape[1])
            assert np.allclose(emb.vectors[0], 0.0)

    def test_squared_distance_helper(self):
        emb = reconstruct_embedding(make_path(3))
        assert abs(emb.squared_distance(0, 2) - 2.0) <= 1e-12

    def test_non_qe_graph_rejected(self):
        with pytest.raises(EmbeddingError, match="not positive semidefinite"):
            reconstruct_embedding(make_theta(ThetaSpec(2, 2, 2)))
