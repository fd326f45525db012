import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qegraph import (
    Graph,
    GraphError,
    ThetaSpec,
    distance_matrix,
    graph_from_uri,
    make_cycle,
    make_path,
    make_theta,
    parse_edgelist,
    read_edgelist,
    theta_spec_from_uri,
)
from qegraph import graphs
from qegraph.graphs import _SEIDEL_MIN_N

from conftest import (
    adjacency,
    floyd_warshall,
    is_connected,
    is_isometric,
    random_connected_graph,
    random_sparse_graph,
    two_coloring,
)

CUT = _SEIDEL_MIN_N  # smallest vertex count whose distances come from Seidel's algorithm


@pytest.fixture
def searches(monkeypatch):
    """Names of the generic distance searches that ran, in call order."""
    ran = []
    for name in ("_seidel", "_bfs_distances"):
        def spy(g, search=getattr(graphs, name), name=name):
            ran.append(name)
            return search(g)
        monkeypatch.setattr(graphs, name, spy)
    return ran


def rebuilt(g: Graph) -> Graph:
    """The same graph through the public constructor, without a family metric."""
    return Graph(g.n, g.edges)


class TestGraph:
    def test_edges_canonicalized(self):
        g = Graph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.edges == ((0, 2), (1, 2), (1, 3))
        assert g.has_edge(1, 3) and g.has_edge(3, 1)
        assert not g.has_edge(0, 3)

    def test_has_edge_is_false_outside_the_vertex_range(self):
        # vertex 2 is the path's last: index -1 must not reach its neighbour 1
        g = make_path(3)
        for u, v in ((-1, 1), (1, -1), (-3, 1), (1, -3), (3, 2), (2, 3), (5, 0), (0, 5)):
            assert not g.has_edge(u, v), (u, v)

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))
        with pytest.raises(GraphError):
            Graph(3, ((0, 3),))
        with pytest.raises(GraphError):
            Graph(0, ())

    def test_distance_matrix_small(self):
        g = make_path(3)
        assert distance_matrix(g).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_distance_matrix_disconnected_raises(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert not is_connected(g)
        with pytest.raises(GraphError, match="not connected"):
            distance_matrix(g)

    def test_distance_matrix_is_cached_and_readonly(self):
        g = make_cycle(5)
        d = distance_matrix(g)
        assert distance_matrix(g) is d
        with pytest.raises(ValueError):
            d[0, 1] = 7

    def test_distances_match_floyd_warshall_on_corpus(self, corpus):
        for uri, g, _ in corpus:
            if g.n <= 10:
                assert np.array_equal(distance_matrix(g), floyd_warshall(g)), uri

    def test_distance_matrix_disconnected_names_first_unreachable_vertex(self):
        # the same text on both sides of the cut: vertex 0 and the smallest
        # vertex it cannot reach
        cases = (
            (Graph(4, ((0, 1), (2, 3))), 2),
            (Graph(CUT - 1, ()), 1),
            (Graph(CUT, ()), 1),
            (Graph(30, ()), 1),
            (Graph(40, tuple((i, i + 1) for i in range(39) if i != 19)), 20),
            (Graph(40, tuple((i, i + 2) for i in range(38))), 1),  # even and odd vertices
            (Graph(CUT + 5, tuple((i, i + 1) for i in range(CUT + 3))), CUT + 4),  # one isolated
            # n - 1 edges that close a cycle: not a tree, so not connected
            (Graph(4, ((0, 1), (0, 2), (1, 2))), 3),
            (Graph(4, ((1, 2), (1, 3), (2, 3))), 1),
            (Graph(40, tuple((i, (i + 1) % 20) for i in range(20)) + tuple((i, i + 1) for i in range(20, 39))), 20),
            (Graph(CUT - 1, ((0, 2), (0, 3), (2, 3)) + tuple((i, i + 1) for i in range(3, CUT - 2))), 1),
        )
        for g, t in cases:
            with pytest.raises(GraphError) as err:
                distance_matrix(g)
            assert str(err.value) == f"graph is not connected: vertices 0 and {t} have no joining path"

    @pytest.mark.parametrize("n", [CUT, 40])
    def test_seidel_distance_matrix_contract(self, n):
        g = make_cycle(n)
        d = distance_matrix(g)
        assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
        assert distance_matrix(g) is d
        with pytest.raises(ValueError):
            d[0, 1] = 7

    @pytest.mark.parametrize("n", [CUT, 40])
    def test_seidel_distance_matrix_contract_on_a_rebuilt_cycle(self, n, searches):
        g = rebuilt(make_cycle(n))
        d = distance_matrix(g)
        assert searches == ["_seidel"]
        assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
        assert distance_matrix(g) is d
        with pytest.raises(ValueError):
            d[0, 1] = 7
        assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize("name", ["theta:2,3,5", "theta:1,7,7", "cycle:15", "theta:2,7,7"])
    def test_bfs_below_the_cut_on_a_rebuilt_builtin_graph(self, name, searches):
        g = rebuilt(graph_from_uri(name))
        assert g.n < CUT
        d = distance_matrix(g)
        assert searches == ["_bfs_distances"]
        assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
        assert np.array_equal(d, floyd_warshall(g))

    @given(st.integers(min_value=2, max_value=80), st.booleans(), st.integers(0, 2**32 - 1))
    @example(CUT - 1, True, 1)
    @example(CUT - 1, False, 2)
    @example(CUT, True, 3)
    @example(CUT, False, 4)
    @settings(max_examples=80, deadline=None)
    def test_distances_match_floyd_warshall_random(self, n, sparse, seed):
        # sparse graphs (a random tree plus n // 4 edges) have long
        # geodesics, so Seidel's algorithm runs several squarings on them
        rng = random.Random(seed)
        g = random_sparse_graph(rng, n) if sparse else random_connected_graph(rng, n)
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))

    def test_float64_seidel_matches_floyd_warshall(self, monkeypatch):
        # the float64 products serve graphs above _FLOAT32_MAX_N (4096)
        # vertices; lowering the cut runs them on small graphs
        monkeypatch.setattr(graphs, "_FLOAT32_MAX_N", 20)
        rng = random.Random(20261018)
        cases = [graph_from_uri("cycle:61")]
        for n in (16, 21, 37, 80):
            cases += [random_sparse_graph(rng, n), random_connected_graph(rng, n)]
        for g in cases:
            d = distance_matrix(g)
            assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
            assert np.array_equal(d, floyd_warshall(g)), g.n
        with pytest.raises(GraphError) as err:
            distance_matrix(Graph(40, tuple((i, i + 1) for i in range(39) if i != 19)))
        assert str(err.value) == "graph is not connected: vertices 0 and 20 have no joining path"

    def test_float64_seidel_on_a_rebuilt_cycle(self, monkeypatch, searches):
        monkeypatch.setattr(graphs, "_FLOAT32_MAX_N", 20)
        g = rebuilt(graph_from_uri("cycle:61"))
        d = distance_matrix(g)
        assert searches == ["_seidel"]
        assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
        assert np.array_equal(d, floyd_warshall(g))

    @pytest.mark.parametrize("name", ["theta:2,29,30", "cycle:301", "theta:1,150,150"])
    def test_seidel_at_scale_on_a_rebuilt_builtin_graph(self, name, searches):
        g = rebuilt(graph_from_uri(name))
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))
        assert searches == ["_seidel"]

    def test_trees_take_the_root_path_matrix(self, searches):
        # random trees on shuffled labels, so that the breadth-first order
        # is not the label order, on both sides of the Seidel cut, and
        # rebuilt paths: no search runs
        rng = random.Random(20261022)
        sizes = [1, 2, 3, 8, CUT - 1, CUT, 40, 100, 300] + [rng.randint(1, 300) for _ in range(12)]
        for n in sizes:
            label = list(range(n))
            rng.shuffle(label)
            g = Graph(n, tuple((label[rng.randrange(v)], label[v]) for v in range(1, n)))
            d = distance_matrix(g)
            assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
            assert np.array_equal(d, floyd_warshall(g)), n
        for name in ("path:15", "path:60"):
            g = rebuilt(graph_from_uri(name))
            assert np.array_equal(distance_matrix(g), floyd_warshall(g))
        assert searches == []

    def test_root_paths_mark_each_vertex_path(self):
        # row v of M holds the tree edges from 0 to v: walking up the kept
        # tree from v meets exactly those edges
        g = random_sparse_graph(random.Random(29), 70)
        m = graphs._root_paths(g)
        tree = graphs._bfs_tree(g)
        assert m.shape == (70, 69) and m.dtype == np.uint8
        edge_to = {b: (i, a) for i, (a, b) in enumerate(tree)}
        for v in range(70):
            path, u = set(), v
            while u:
                i, u = edge_to[u]
                path.add(i)
            assert set(np.flatnonzero(m[v]).tolist()) == path, v

    @pytest.mark.parametrize(
        "name",
        ["path:60", "cycle:301", "theta:1,150,150", "complete:30", "dense:300"],
    )
    def test_distances_match_floyd_warshall_at_scale(self, name):
        if name == "complete:30":  # already complete: no squaring step
            g = Graph(30, tuple(itertools.combinations(range(30), 2)))
        elif name == "dense:300":  # G(300, 0.4) on a fixed seed: 17 974 edges
            g = random_connected_graph(random.Random(20260813), 300)
        else:
            g = graph_from_uri(name)
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))


class TestThetaSpec:
    def test_validation(self):
        with pytest.raises(GraphError):
            ThetaSpec(0, 2, 3)
        with pytest.raises(GraphError):
            ThetaSpec(1, 1, 5)  # two length-1 legs double an edge

    def test_counts_and_uri(self):
        spec = ThetaSpec(2, 3, 5)
        assert spec.n_vertices == 9
        assert spec.uri() == "theta:2,3,5"
        assert ThetaSpec.parse("5, 2,3").normalized() == spec
        assert theta_spec_from_uri("theta:2,3,5") == spec
        assert theta_spec_from_uri("cycle:5") is None

    def test_vertex_index_and_paths(self):
        spec = ThetaSpec(2, 3, 5)
        assert spec.vertex_index("x0") == 0
        assert spec.vertex_index("y0") == 0
        assert spec.vertex_index("x2") == 1
        assert spec.vertex_index("z5") == 1
        assert spec.vertex_index("x1") == 2
        assert spec.vertex_index("y1") == 3
        assert spec.vertex_index("y2") == 4
        assert spec.vertex_index("z1") == 5
        assert spec.vertex_index("z4") == 8
        with pytest.raises(GraphError):
            spec.vertex_index("z6")
        assert spec.path_vertices("x") == (0, 2, 1)
        assert spec.path_vertices("y") == (0, 3, 4, 1)
        assert spec.path_vertices("z") == (0, 5, 6, 7, 8, 1)

    def test_make_theta_layout_matches_vertex_names(self):
        specs = [
            ThetaSpec(a, b, c)
            for a, b, c in itertools.product(range(1, 12), repeat=3)
            if a + b + c - 1 <= 12 and (a, b, c).count(1) <= 1
        ]
        specs.append(ThetaSpec(5, 1, 3))
        for spec in specs:
            g = make_theta(spec)
            assert g.n_edges == sum(spec.legs)
            for kind, length in zip("xyz", spec.legs):
                path = spec.path_vertices(kind)
                assert len(path) == length + 1
                for j, v in enumerate(path):
                    assert spec.vertex_index(f"{kind}{j}") == v, (spec, kind, j)
                for u, v in zip(path, path[1:]):
                    assert g.has_edge(u, v), (spec, kind, u, v)

    def test_make_theta_structure(self):
        for legs in itertools.combinations_with_replacement(range(1, 7), 3):
            a = legs[0]
            if a == 1 and legs[1] == 1:
                continue
            spec = ThetaSpec(*legs)
            g = make_theta(spec)
            assert g.n == sum(legs) - 1
            assert g.n_edges == sum(legs)
            degrees = sorted(len(a) for a in adjacency(g))
            assert degrees[:-2] == [2] * (g.n - 2)
            assert degrees[-2:] == [3, 3]
            assert is_connected(g)

    def test_theta_distances_equal_best_route(self):
        # distance between interior vertices is the best of the direct
        # (same path), meet-at-a-junction, and junction-to-junction routes
        for legs in ((2, 3, 5), (1, 4, 6), (3, 3, 3), (2, 2, 7)):
            spec = ThetaSpec(*legs)
            g = make_theta(spec)
            d = distance_matrix(g)
            paths = {k: spec.path_vertices(k) for k in "xyz"}
            position = {}
            for kind, verts in paths.items():
                for i, v in enumerate(verts):
                    position.setdefault(v, {})[kind] = i
            length = dict(zip("xyz", spec.legs))
            hop = min(legs)  # junction-to-junction distance
            for u in range(g.n):
                for v in range(g.n):
                    best = 10**9
                    for ku, iu in position[u].items():
                        for kv, iv in position[v].items():
                            if ku == kv:
                                best = min(best, abs(iu - iv))
                            down_u, up_u = iu, length[ku] - iu
                            down_v, up_v = iv, length[kv] - iv
                            best = min(
                                best,
                                down_u + down_v,
                                up_u + up_v,
                                down_u + hop + up_v,
                                up_u + hop + down_v,
                            )
                    assert d[u, v] == best, (legs, u, v)

    def test_bipartite_iff_legs_share_parity(self):
        for legs in itertools.combinations_with_replacement(range(1, 9), 3):
            if legs[0] == 1 and legs[1] == 1:
                continue
            g = make_theta(ThetaSpec(*legs))
            expected = len({x % 2 for x in legs}) == 1
            assert (two_coloring(g) is not None) == expected, legs


class TestBuilders:
    def test_path_and_cycle(self):
        assert make_path(1).n_edges == 0
        assert make_path(4).edges == ((0, 1), (1, 2), (2, 3))
        assert make_cycle(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        with pytest.raises(GraphError):
            make_cycle(2)
        d = distance_matrix(make_cycle(6))
        assert d[0, 3] == 3 and d[0, 4] == 2

    def test_closed_forms_match_floyd_warshall(self, searches):
        # every theta graph of at most 30 vertices with its legs in every
        # order, and the cycles and paths up to 120 vertices: the builtin
        # graph equals the public constructor's, and its distances come
        # from the family's closed form, not from a search
        built = [
            make_theta(ThetaSpec(*legs))
            for legs in itertools.product(range(1, 31), repeat=3)
            if sum(legs) <= 31 and legs.count(1) <= 1
        ]
        built += [make_cycle(m) for m in range(3, 121)]
        built += [make_path(n) for n in range(1, 121)]
        for g in built:
            h = rebuilt(g)
            assert (h.n, h.edges, h._adj) == (g.n, g.edges, g._adj)
            assert h == g and hash(h) == hash(g)
            d = distance_matrix(g)
            assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
            assert distance_matrix(g) is d
            assert np.array_equal(d, floyd_warshall(g)), g.n
        assert searches == []

    def test_builtin_graphs_defer_their_distances(self):
        # an n x n matrix of these would take 80 GB: the closed form waits
        # for the first distance_matrix call, and what the graph keeps for
        # it does not refer back to the graph
        for make in (
            lambda: make_theta(ThetaSpec(1, 50000, 50000)),
            lambda: make_cycle(100000),
            lambda: make_path(100000),
        ):
            g = make()
            assert g.n == 100000
            assert not any(isinstance(v, np.ndarray) for v in vars(g).values())
            ref = weakref.ref(g)
            del g
            assert ref() is None

    def test_theta_endpoint_distance(self):
        g = make_theta(ThetaSpec(2, 3, 5))
        assert distance_matrix(g)[0, 1] == 2

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ThetaSpec(2.5, 3, 3), "leg length must be an integer, got 2.5"),
            (lambda: make_path(2.5), "vertex count must be an integer, got 2.5"),
            (lambda: make_cycle("5"), "vertex count must be an integer, got '5'"),
            (lambda: Graph(2.5, ()), "vertex count must be an integer, got 2.5"),
            (lambda: Graph(3, ((0, 1.5),)), "vertex must be an integer, got 1.5"),
            (lambda: make_path(3).has_edge(0, "1"), "vertex must be an integer, got '1'"),
        ],
        ids=["ThetaSpec", "make_path", "make_cycle", "Graph-n", "Graph-edge", "has_edge"],
    )
    def test_non_integer_arguments_are_named(self, call, message):
        with pytest.raises(GraphError) as err:
            call()
        assert str(err.value) == message


class TestIsometricEmbedding:
    def test_cycle_in_theta_via_short_leg(self):
        # ring formed by the z-path and the length-1 leg keeps its metric
        spec = ThetaSpec(1, 4, 6)
        g = make_theta(spec)
        ring = spec.path_vertices("z")  # 0, z1..z5, 1; the 1-leg closes it
        h = make_cycle(7)
        assert is_isometric(h, g, ring)

    def test_four_cycle_in_k23(self):
        spec = ThetaSpec(2, 2, 2)
        g = make_theta(spec)
        h = make_cycle(4)
        x1, y1 = spec.vertex_index("x1"), spec.vertex_index("y1")
        assert is_isometric(h, g, [0, x1, 1, y1])

    def test_long_cycle_in_theta_is_not_isometric(self):
        # the y-z ring of Theta(1,4,6) is shortcut by the length-1 leg
        spec = ThetaSpec(1, 4, 6)
        g = make_theta(spec)
        ring = list(spec.path_vertices("y")) + list(spec.path_vertices("z"))[-2:0:-1]
        h = make_cycle(len(ring))
        assert not is_isometric(h, g, ring)


class TestFilesAndUris:
    def test_edgelist_round_trip(self, tmp_path, corpus):
        for uri, g, _ in corpus:
            text = "\n".join([str(g.n)] + [f"{u} {v}" for u, v in g.edges]) + "\n"
            assert parse_edgelist(text) == g, uri
            path = tmp_path / "g.edges"
            path.write_text(text)
            assert read_edgelist(path) == g, uri

    def test_parse_edgelist_comments_and_errors(self):
        g = parse_edgelist("# a triangle\n3\n0 1\n1 2  # last\n0 2\n")
        assert g == make_cycle(3)
        with pytest.raises(GraphError):
            parse_edgelist("3\n0 1 2\n")
        with pytest.raises(GraphError):
            parse_edgelist("")
        with pytest.raises(GraphError):
            parse_edgelist("two\n0 1\n")

    def test_graph_from_uri(self, tmp_path):
        assert graph_from_uri("theta:2,3,3") == make_theta(ThetaSpec(2, 3, 3))
        assert graph_from_uri("path:5") == make_path(5)
        assert graph_from_uri("cycle:5") == make_cycle(5)
        path = tmp_path / "c5.edges"
        path.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert graph_from_uri(str(path)) == make_cycle(5)
        with pytest.raises(GraphError):
            graph_from_uri("cycle:x")
        with pytest.raises(GraphError):
            graph_from_uri("no-such-file.edges")
