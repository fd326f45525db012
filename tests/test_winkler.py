from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from qegraph import (
    EmbeddingError,
    Graph,
    GraphError,
    OrientedTree,
    ThetaSpec,
    TreeError,
    build_theta1_block_kernel,
    default_orientation_and_tree,
    distance_matrix,
    graph_from_uri,
    is_psd,
    make_cycle,
    make_path,
    make_theta,
    reconstruct_embedding,
    winkler_kernel,
)
from qegraph.winkler import parse_tree_text

from conftest import (
    all_labeled_trees,
    floyd_warshall,
    random_connected_graph,
    random_oriented_tree,
)


# Oracles for two lemmas of the paper that only the tests use: the nine-case
# edge-pair lemma (a kernel entry read off distance comparisons) and the
# signs along tree paths in the RKHS proof.


class EdgePairError(ValueError):
    """An edge pair fell outside the nine distance cases; carries all six
    pairwise distances among the four endpoints."""

    def __init__(self, e, e2, distances: dict):
        self.edges = (tuple(e), tuple(e2))
        self.distances = dict(distances)
        parts = ", ".join(f"d({x},{y})={v}" for (x, y), v in self.distances.items())
        super().__init__(f"edge pair {self.edges[0]}, {self.edges[1]} matches no case ({parts})")


@dataclass(frozen=True)
class EdgePairValue:
    """Kernel value of one ordered pair of directed host edges together with
    the distance-comparison case (1..9) that produced it."""

    value: float
    case: int
    edges: tuple[tuple[int, int], tuple[int, int]]


# case ids keyed by (sign(d(b,a')-d(a,a')), sign(d(a,b')-d(b,b')))
_EDGE_PAIR_CASES = {
    (1, -1): 1,
    (-1, 1): 2,
    (0, 0): 3,
    (0, -1): 4,
    (-1, 0): 5,
    (1, 0): 6,
    (0, 1): 7,
    (-1, -1): 8,
    (1, 1): 9,
}


def classify_edge_pair(g: Graph, e, e2) -> EdgePairValue:
    """Kernel value of two directed host edges from distance comparisons.

    The value {0, +-1/2, +-1} is determined by which of the nine orderings
    of the endpoint distances holds; the case id records which one.
    """
    (a, b), (a2, b2) = (int(e[0]), int(e[1])), (int(e2[0]), int(e2[1]))
    for u, v in ((a, b), (a2, b2)):
        if not g.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge of the host graph")
    d = distance_matrix(g)
    s = int(d[b, a2]) - int(d[a, a2])
    t = int(d[a, b2]) - int(d[b, b2])
    case = _EDGE_PAIR_CASES.get((s, t))
    if case is None:
        raise EdgePairError(
            (a, b),
            (a2, b2),
            {
                (a, b): int(d[a, b]),
                (a2, b2): int(d[a2, b2]),
                (a, a2): int(d[a, a2]),
                (a, b2): int(d[a, b2]),
                (b, a2): int(d[b, a2]),
                (b, b2): int(d[b, b2]),
            },
        )
    return EdgePairValue(value=(s + t) / 2.0, case=case, edges=((a, b), (a2, b2)))


def zeta_path_signs(tree: OrientedTree, x: int, y: int) -> list[tuple[tuple[int, int], int]]:
    """Tree edges on the unique path from x to y, in traversal order, each
    with +1 when walked along its direction and -1 against it."""
    n = tree.graph.n
    for v in (x, y):
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for {n} vertices")
    if x == y:
        return []
    adjacency = [[] for _ in range(n)]
    for a, b in tree.tree_edges:
        adjacency[a].append((b, (a, b), 1))
        adjacency[b].append((a, (a, b), -1))
    prev: dict[int, tuple[int, tuple[int, int], int]] = {x: None}
    queue = deque((x,))
    while queue and y not in prev:
        u = queue.popleft()
        for w, edge, sign in adjacency[u]:
            if w not in prev:
                prev[w] = (u, edge, sign)
                queue.append(w)
    steps = []
    v = y
    while prev[v] is not None:
        u, edge, sign = prev[v]
        steps.append((edge, sign))
        v = u
    steps.reverse()
    return steps


class TestOrientedTree:
    def test_default_tree_is_bfs_layered(self):
        g = make_cycle(6)
        tree = default_orientation_and_tree(g)
        assert len(tree.tree_edges) == 5
        d = distance_matrix(g)
        for a, b in tree.tree_edges:
            assert d[0, b] == d[0, a] + 1  # direction follows layers

    def test_default_tree_lists_each_tail_before_its_edge(self, corpus):
        # reconstruct_embedding propagates vertex vectors in one pass over
        # the edges, which needs every tail placed before its edge
        for uri, g, _ in corpus:
            placed = {0}
            for a, b in default_orientation_and_tree(g).tree_edges:
                assert a in placed and b not in placed, (uri, a, b)
                placed.add(b)

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
        with pytest.raises(TreeError):
            OrientedTree(g, ((0, 1), (1, 0), (1, 2)))  # one edge in both directions
        cyc = ((0, 1), (1, 2), (2, 3), (3, 0))
        with pytest.raises(TreeError):
            OrientedTree(g, cyc[:3] + ((3, 0),))

    def test_endpoints_must_be_integer_pairs(self):
        g = make_path(3)
        for bad in ((0, 1.7), (0, "1"), ("0", 1), (1,), (0, 1, 2), 2):
            with pytest.raises(TreeError) as err:
                OrientedTree(g, ((1, 2), bad))
            assert repr(bad) in str(err.value)
        tree = OrientedTree(g, ((np.int64(0), 1), (1, np.int32(2))))
        assert tree.tree_edges == ((0, 1), (1, 2))
        assert all(type(x) is int for e in tree.tree_edges for x in e)

    def test_public_check_accepts_default_trees(self, corpus, rng):
        # the canonical tree skips the public check; it must pass it anyway
        graphs = [g for _, g, _ in corpus]
        graphs += [
            make_theta(ThetaSpec(a, b, c))
            for a in range(1, 12)
            for b in range(max(a, 2), 12)
            for c in range(b, 14 - a - b)
        ]
        graphs += [
            random_connected_graph(rng, n, p)
            for n, p in ((2, 1.0), (8, 0.4), (30, 0.2), (100, 0.08), (200, 0.04))
            for _ in range(3)
        ]
        for g in graphs:
            tree = default_orientation_and_tree(g)
            assert OrientedTree(g, tree.tree_edges).tree_edges == tree.tree_edges, g.edges

    def test_default_tree_skips_public_check(self, monkeypatch):
        def refuse(self):
            raise AssertionError("public tree check ran on a package-built tree")

        monkeypatch.setattr(OrientedTree, "__post_init__", refuse)
        g = make_theta(ThetaSpec(2, 3, 4))
        assert len(default_orientation_and_tree(g).tree_edges) == g.n - 1
        assert winkler_kernel(g).dim == g.n - 1
        assert reconstruct_embedding(make_cycle(6)).max_error <= 1e-8

    def test_omitted_edges(self):
        g = make_theta(ThetaSpec(2, 3, 3))
        tree = default_orientation_and_tree(g)
        in_tree = {tuple(sorted(e)) for e in tree.tree_edges}
        assert len(in_tree) == g.n - 1 and in_tree <= set(g.edges)
        assert len(set(g.edges) - in_tree) == 2


class TestKernel:
    def test_diagonal_and_integrality_on_corpus(self, corpus):
        for uri, g, _ in corpus:
            kern = winkler_kernel(g)
            assert kern.two_k.dtype == np.int64
            assert (np.diag(kern.two_k) == 2).all(), uri
            assert (kern.two_k == kern.two_k.T).all(), uri

    def test_two_k_is_read_only(self):
        kernels = [
            winkler_kernel(make_theta(ThetaSpec(2, 3, 3))),
            winkler_kernel(Graph(1, ())),
            build_theta1_block_kernel(2, 3, "even"),
            build_theta1_block_kernel(2, 3, "odd"),
        ]
        assert kernels[1].dim == 0
        for kern in kernels:
            assert kern.two_k.dtype == np.int64
            assert kern.two_k.flags.c_contiguous  # fixes float summation order
            assert not kern.two_k.flags.writeable
            with pytest.raises(ValueError):
                kern.two_k[..., :1] = 0

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
            baseline = is_psd(winkler_kernel(g).two_k).is_psd
            for _ in range(6):
                tree = random_oriented_tree(rng, g)
                kern = winkler_kernel(g, tree)
                assert is_psd(kern.two_k).is_psd == baseline, uri

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
            assert is_psd(kern.two_k).is_psd


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
        text = "".join(f"{a} {b}\n" for a, b in reversed(tree.tree_edges))
        again = parse_tree_text(text, g)
        assert again.tree_edges == tree.tree_edges[::-1]

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

    def test_non_qe_graph_rejected(self):
        with pytest.raises(EmbeddingError, match="not positive semidefinite"):
            reconstruct_embedding(make_theta(ThetaSpec(2, 2, 2)))
