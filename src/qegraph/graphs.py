"""Undirected graphs, builtin families, and shortest-path metrics.

Distances come from one of four exact sources.  A graph built by
make_theta, make_cycle or make_path carries its family's metric in closed
form, evaluated the first time its distances are asked for.  A graph of
n - 1 edges is a tree if it is connected: its distances come from the
root-path matrix M of its breadth-first tree from vertex 0 (_root_paths),
whose row v marks the tree edges on the path from 0 to v, as
d(u, v) = s_u + s_v - 2 (M M^T)_uv with s the row sums, the depths.  Any
other graph takes one of two searches, cut at _SEIDEL_MIN_N vertices.
Smaller graphs take a breadth-first search from every source in Python.
Larger ones take Seidel's algorithm, which finds every distance of a
connected unweighted graph with ceil(log2 diam) Boolean squarings of the
adjacency matrix and as many integer products, all done by BLAS
(R. Seidel, JCSS 51 (1995) 400-403).  The products run in float32 up to
_FLOAT32_MAX_N vertices and in float64 above: every partial sum they form
is an integer of magnitude at most (n - 1)**2, so float32 is exact while
that stays below 2**24, whatever order BLAS sums in.

The breadth-first tree from vertex 0 (_bfs_tree) is walked once per graph
and kept on it; the tree's distances, the Winkler kernel's default tree
(winkler.default_orientation_and_tree) and a tree's embedding
(winkler.reconstruct_embedding) all read it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .config import require_int

__all__ = [
    "GraphError",
    "Graph",
    "ThetaSpec",
    "make_theta",
    "make_path",
    "make_cycle",
    "distance_matrix",
    "parse_edgelist",
    "read_edgelist",
    "graph_from_uri",
    "theta_spec_from_uri",
]


class GraphError(ValueError):
    """Invalid graph construction, file, or an operation on an unsuitable graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Edges are stored as lexicographically sorted (u, v) pairs with u < v.
    Loops and parallel edges are rejected.  ``edges`` is the public view of
    the graph; the adjacency lists built from it are private to the package.
    Functions that derive data from the graph may keep it on the instance;
    no memoized value refers back to the graph.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = require_int(self.n, "vertex count", GraphError)
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        object.__setattr__(self, "n", n)
        seen = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a pair of vertices, got {e!r}") from None
            u, v = require_int(u, "vertex", GraphError), require_int(v, "vertex", GraphError)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        self._link()

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
        """A graph the package has just built, stored without the public
        check: edges already sorted, each with u < v, none repeated."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        g._link()
        return g

    def _link(self) -> None:
        """Adjacency lists in edge order, which fixes the default BFS tree."""
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # tuples built from lists: a tuple grown from a generator is resized,
        # and the interpreter's tuple free lists fill up with such tuples
        object.__setattr__(self, "_adj", tuple([tuple(a) for a in adj]))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = require_int(u, "vertex", GraphError), require_int(v, "vertex", GraphError)
        # a negative u would index the last vertices' neighbours
        return 0 <= u < self.n and v in self._adj[u]


def _bfs_row(adj, n: int, source: int) -> list[int]:
    row = [-1] * n
    row[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du = row[u] + 1
        for w in adj[u]:
            if row[w] < 0:
                row[w] = du
                queue.append(w)
    return row


# At and above this many vertices Seidel's squaring beats the per-source BFS.
# With one BLAS thread the two cross at 12-15 vertices, depending on the
# graph; from 16 on, Seidel won on every kind of graph measured.
_SEIDEL_MIN_N = 16
# (n - 1)**2 < 2**24 up to here, so float32 products are exact.
_FLOAT32_MAX_N = 4096


def _seidel(g: Graph) -> np.ndarray | None:
    """Distances by Seidel's algorithm, or None when g is disconnected.

    The up-sweep replaces A by [A + A.A > 0] with a zero diagonal until the
    graph is complete, keeping the Laplacian L = deg(A) - A of each A; the
    down-sweep pops them and sets T <- 2T - [T.L > 0], since T.L > 0 holds
    exactly where Seidel's T.A < T o deg(A) does.  A squaring that adds no
    edge to an incomplete graph means the graph is disconnected.
    """
    n = g.n
    diag = slice(None, None, n + 1)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    a = np.zeros((n, n), np.float32 if n <= _FLOAT32_MAX_N else np.float64)
    a[ends[0], ends[1]] = 1
    a[ends[1], ends[0]] = 1
    laplacians = []
    count, full = 2 * g.n_edges, n * (n - 1)
    while count < full:
        z = a @ a
        lap = -a
        lap.ravel()[diag] = z.ravel()[diag]  # (A.A)_ii = deg(i)
        laplacians.append(lap)
        z += a
        np.minimum(z, 1, out=z)
        z.ravel()[diag] = 0
        a = z
        count, before = np.count_nonzero(a), count
        if count == before:
            return None
    t = a
    for lap in reversed(laplacians):
        y = t @ lap
        t += t
        t -= y > 0
    return t.astype(np.int64)


def _bfs_distances(g: Graph) -> np.ndarray | None:
    """Distances by a BFS from every source, or None when g is disconnected."""
    adj, n = g._adj, g.n
    first = _bfs_row(adj, n, 0)
    if -1 in first:
        return None
    return np.array([first] + [_bfs_row(adj, n, s) for s in range(1, n)], dtype=np.int64)


def _disconnected(t: int) -> GraphError:
    return GraphError(f"graph is not connected: vertices 0 and {t} have no joining path")


def _bfs_tree(g: Graph) -> tuple[tuple[int, int], ...]:
    """The breadth-first tree of g from vertex 0: its edges (parent, child)
    in discovery order, so each parent is 0 or the child of an earlier
    edge.  Walked once per graph and kept on g, as a tuple of int pairs with
    no reference back to g.  Raises GraphError naming vertex 0 and the
    smallest vertex it cannot reach when g is disconnected."""
    kept = vars(g).get("_tree")
    if kept is not None:
        return kept
    adj = g._adj
    seen = [False] * g.n
    seen[0] = True
    order = deque((0,))
    tree = []
    while order:
        u = order.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                tree.append((u, w))
                order.append(w)
    if len(tree) != g.n - 1:
        raise _disconnected(seen.index(False))
    kept = vars(g)["_tree"] = tuple(tree)
    return kept


def _root_paths(g: Graph) -> np.ndarray:
    """The root-path matrix M of _bfs_tree(g), a new n x (n - 1) uint8
    array: M[v, i] = 1 iff tree edge i lies on the tree path from 0 to v.
    Row v is a Python-int bitset, its parent's with v's own edge added, and
    one np.unpackbits spreads all rows."""
    n = g.n
    bits = [0] * n
    for i, (a, b) in enumerate(_bfs_tree(g)):
        bits[b] = bits[a] | 1 << i
    width = (n + 6) // 8  # bytes of n - 1 bits
    raw = np.frombuffer(b"".join([x.to_bytes(width, "little") for x in bits]), np.uint8)
    return np.unpackbits(raw.reshape(n, width), axis=1, count=n - 1, bitorder="little")


def _tree_distances(g: Graph) -> np.ndarray:
    """Distances of a tree g: d(u, v) = s_u + s_v - 2 (M M^T)_uv, with M
    the root-path matrix and s its row sums, since (M M^T)_uv is the depth
    of the two paths' last common vertex.  Every value formed is an integer
    of magnitude at most 2(n - 1), so float32 is exact below 2**23
    vertices, far more than an n x n matrix in memory allows."""
    m = _root_paths(g).astype(np.float32)
    depth = m.sum(axis=1)
    t = m @ m.T
    t *= -2
    t += depth
    t += depth[:, None]
    return t.astype(np.int64)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances of a connected graph, by the
    family's closed form, the root-path matrix of a tree, the BFS or
    Seidel's algorithm as the module docstring says.  A graph of n - 1
    edges that the breadth-first tree from 0 spans is a tree; one that it
    does not span is disconnected.

    Returns an immutable C-ordered int64 matrix, computed once per graph and
    shared by later calls.  Raises GraphError naming vertex 0 and the
    smallest vertex it cannot reach when g is disconnected.
    """
    cached = vars(g).get("_dist")
    if cached is not None:
        return cached
    metric = vars(g).get("_metric")  # set by the builtin builders
    if metric is not None:
        d = metric()
    elif g.n_edges == g.n - 1:
        d = _tree_distances(g)
    elif g.n >= _SEIDEL_MIN_N:
        d = _seidel(g)
    else:
        d = _bfs_distances(g)
    if d is None:
        raise _disconnected(_bfs_row(g._adj, g.n, 0).index(-1))
    d.setflags(write=False)
    vars(g)["_dist"] = d
    return d


@dataclass(frozen=True)
class ThetaSpec:
    """Leg lengths (alpha, beta, gamma) of a theta graph.

    A theta graph is the union of three internally disjoint paths with common
    endpoints; legs must be positive and at most one may equal 1 (two legs of
    length 1 would create a parallel edge).
    """

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        legs = (self.alpha, self.beta, self.gamma)
        legs = tuple([require_int(x, "leg length", GraphError) for x in legs])  # see Graph._adj
        if min(legs) < 1:
            raise GraphError(f"leg lengths must be positive, got {legs}")
        if sum(1 for x in legs if x == 1) > 1:
            raise GraphError(f"at most one leg may have length 1, got {legs}")
        object.__setattr__(self, "alpha", legs[0])
        object.__setattr__(self, "beta", legs[1])
        object.__setattr__(self, "gamma", legs[2])

    @property
    def legs(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)

    @property
    def n_vertices(self) -> int:
        return self.alpha + self.beta + self.gamma - 1

    def normalized(self) -> "ThetaSpec":
        """The same graph with legs sorted ascending."""
        a, b, c = sorted(self.legs)
        return ThetaSpec(a, b, c)

    def uri(self) -> str:
        return f"theta:{self.alpha},{self.beta},{self.gamma}"

    @classmethod
    def parse(cls, text: str) -> "ThetaSpec":
        parts = text.split(",")
        if len(parts) != 3:
            raise GraphError(f"expected three comma-separated leg lengths, got {text!r}")
        try:
            legs = [int(p.strip()) for p in parts]
        except ValueError:
            raise GraphError(f"leg lengths must be integers, got {text!r}") from None
        return cls(*legs)

    def path_vertices(self, kind: str) -> tuple[int, ...]:
        """Vertex indices along leg "x", "y" or "z", bottom junction to top.

        The one statement of the vertex layout: junctions 0 (bottom) and 1
        (top), then the interior vertices in path order, legs grouped x, y, z.
        """
        if kind == "x":
            base, length = 2, self.alpha
        elif kind == "y":
            base, length = self.alpha + 1, self.beta
        elif kind == "z":
            base, length = self.alpha + self.beta, self.gamma
        else:
            raise GraphError(f"leg must be 'x', 'y' or 'z', got {kind!r}")
        return (0, *range(base, base + length - 1), 1)

    def vertex_index(self, name: str) -> int:
        """Index of a path-position name such as "x0", "y2" or "z11": entry j
        of ``path_vertices`` for the leg the letter names."""
        name = name.strip()
        kind, digits = name[:1], name[1:]
        if kind not in ("x", "y", "z") or not digits.isdigit():
            raise GraphError(f"invalid theta vertex name {name!r}")
        path, j = self.path_vertices(kind), int(digits)
        if j >= len(path):
            raise GraphError(f"position {name!r} exceeds leg length {len(path) - 1}")
        return path[j]


def _path_distances(n: int) -> np.ndarray:
    """d(i, j) = |i - j|."""
    i = np.arange(n, dtype=np.int64)
    return np.abs(np.subtract.outer(i, i))


def _cycle_distances(m: int) -> np.ndarray:
    """d(i, j) = min(|i - j|, m - |i - j|)."""
    d = _path_distances(m)
    return np.minimum(d, m - d, out=d)


def _theta_distances(spec: ThetaSpec) -> np.ndarray:
    """d(u, v) = min(t_u + t_v, s_u + s_v, t_u + h + s_v, s_u + h + t_v),
    and |t_u - t_v| too when u and v lie on one leg.  t is a vertex's offset
    from junction 0 along its leg, s = L - t with L the leg's length, and h
    the shortest leg, the distance between the junctions.  Every term is the
    length of a walk, and a shortest path takes one of these routes.  A
    junction lies on every leg; the terms give its distances whichever leg
    it is placed on.

    Grouped by v's end, the four routes are d(u, 0) + t_v and d(u, 1) + s_v,
    with d(u, 0) = min(t_u, h + s_u) and d(u, 1) = min(s_u, h + t_u).  The
    last term is |key_u - key_v| with key = t + 2n * (leg number): on
    different legs it is at least n, more than any distance.
    """
    n, h = spec.n_vertices, min(spec.legs)
    t, s, key = [0] * n, [0] * n, [0] * n
    for k, kind in enumerate(("x", "y", "z")):
        path = spec.path_vertices(kind)
        last = len(path) - 1
        for j, v in enumerate(path):
            t[v], s[v], key[v] = j, last - j, j + 2 * n * k
    t, s, key = np.array([t, s, key], dtype=np.int64)
    d = np.add.outer(np.minimum(t, s + h), t)
    np.minimum(d, np.add.outer(np.minimum(s, t + h), s), out=d)
    return np.minimum(d, np.abs(np.subtract.outer(key, key)), out=d)


def _family(n: int, edges: tuple[tuple[int, int], ...], metric) -> Graph:
    """A builtin graph with its closed-form metric, a function of the legs
    or the size alone, kept for distance_matrix's first call."""
    g = Graph._trusted(n, edges)
    vars(g)["_metric"] = metric
    return g


def make_theta(spec: ThetaSpec) -> Graph:
    """Theta graph of a ThetaSpec, with its distances in closed form.

    Vertex 0 and 1 are the junctions of degree 3; interior vertices follow in
    path order along the x, y and z legs (see ThetaSpec.path_vertices).
    """
    edges = []
    for kind in ("x", "y", "z"):
        seq = spec.path_vertices(kind)
        edges.extend([(u, v) if u < v else (v, u) for u, v in zip(seq, seq[1:])])
    edges.sort()
    return _family(spec.n_vertices, tuple(edges), partial(_theta_distances, spec))


def make_path(n: int) -> Graph:
    """Path graph on n >= 1 vertices, with its distances in closed form."""
    n = require_int(n, "vertex count", GraphError)
    if n < 1:
        raise GraphError(f"path needs at least 1 vertex, got {n}")
    return _family(n, tuple([(i, i + 1) for i in range(n - 1)]), partial(_path_distances, n))


def make_cycle(m: int) -> Graph:
    """Cycle graph on m >= 3 vertices, with its distances in closed form."""
    m = require_int(m, "vertex count", GraphError)
    if m < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {m}")
    edges = [(0, 1), (0, m - 1)] + [(i, i + 1) for i in range(1, m - 1)]  # sorted
    return _family(m, tuple(edges), partial(_cycle_distances, m))


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _int_pairs(lines, error, pair: str, what: str) -> tuple[tuple[int, int], ...]:
    """The integer pair on each line, for the edge-list and tree-file formats.

    A line without exactly two fields raises ``error`` with "expected 'u v'
    on edge line" (pair "u v", what "edge"); a field that is not an integer
    raises it with "edge endpoints must be integers"."""
    pairs = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise error(f"expected {pair!r} on {what} line, got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise error(f"{what} endpoints must be integers, got {line!r}") from None
    return tuple(pairs)


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format: first line the vertex count, then one
    "u v" pair per line; '#' starts a comment and blank lines are skipped."""
    lines = list(_data_lines(text))
    if not lines:
        raise GraphError("edge list is empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphError(f"first line must be the vertex count, got {lines[0]!r}") from None
    return Graph(n, _int_pairs(lines[1:], GraphError, "u v", "edge"))


def read_edgelist(path) -> Graph:
    return parse_edgelist(Path(path).read_text())


def theta_spec_from_uri(uri: str) -> ThetaSpec | None:
    """The ThetaSpec for a "theta:A,B,C" URI, or None for any other argument."""
    if uri.startswith("theta:"):
        return ThetaSpec.parse(uri[len("theta:"):])
    return None


def graph_from_uri(uri: str) -> Graph:
    """Graph named by a builtin URI (theta:A,B,C, path:N, cycle:N) or a file path."""
    spec = theta_spec_from_uri(uri)
    if spec is not None:
        return make_theta(spec)
    for prefix, builder in (("path:", make_path), ("cycle:", make_cycle)):
        if uri.startswith(prefix):
            arg = uri[len(prefix):]
            try:
                count = int(arg)
            except ValueError:
                raise GraphError(f"expected an integer in {uri!r}") from None
            return builder(count)
    path = Path(uri)
    if not path.exists():
        raise GraphError(f"no builtin URI or file named {uri!r}")
    return read_edgelist(path)
