"""Undirected graphs, builtin families, and shortest-path metrics.

Distances come from one of two exact algorithms, cut at _SEIDEL_MIN_N
vertices.  Smaller graphs take a breadth-first search from every source in
Python.  Larger ones take Seidel's algorithm, which finds every distance
of a connected unweighted graph with ceil(log2 diam) Boolean squarings of
the adjacency matrix and as many integer products, all done by BLAS
(R. Seidel, JCSS 51 (1995) 400-403).  The products run in float32 up to
_FLOAT32_MAX_N vertices and in float64 above: every partial sum they form
is an integer of magnitude at most (n - 1)**2, so float32 is exact while
that stays below 2**24, whatever order BLAS sums in.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _vertex(value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"vertex must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Edges are stored as lexicographically sorted (u, v) pairs with u < v.
    Loops and parallel edges are rejected.  ``edges`` is the public view of
    the graph; the adjacency lists built from it are private to the package.

    Derived data is computed at most once and lives as long as the graph: the
    distance matrix (see ``distance_matrix``) and the Schoenberg verdicts of
    ``analysis.classify_schoenberg`` and ``analysis.qec``, one per mode and
    tolerance.  No memoized value refers back to the graph.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _vertex(self.n)
        if n < 1:
            raise GraphError(f"vertex count must be positive, got {n}")
        object.__setattr__(self, "n", n)
        canon = []
        seen = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a pair of vertices, got {e!r}") from None
            u, v = _vertex(u), _vertex(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        # tuples built from lists: a tuple grown from a generator is resized,
        # and the interpreter's tuple free lists fill up with such tuples
        object.__setattr__(self, "_adj", tuple([tuple(a) for a in adj]))
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_cnd", {})  # (mode, tol) -> spectra.CndVerdict

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _vertex(u), _vertex(v)
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


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances of a connected graph.

    Graphs with fewer than _SEIDEL_MIN_N (16) vertices take a BFS from every
    source; larger ones take Seidel's algorithm on BLAS, exact in float32 up
    to _FLOAT32_MAX_N (4096) vertices and in float64 above (see the module
    docstring).  Returns an immutable C-ordered int64 matrix, computed once
    per graph and shared by later calls.  Raises GraphError naming vertex 0
    and the smallest vertex it cannot reach when g is disconnected.
    """
    cached = g._dist
    if cached is not None:
        return cached
    d = _seidel(g) if g.n >= _SEIDEL_MIN_N else _bfs_distances(g)
    if d is None:
        t = _bfs_row(g._adj, g.n, 0).index(-1)
        raise GraphError(f"graph is not connected: vertices 0 and {t} have no joining path")
    d.setflags(write=False)
    object.__setattr__(g, "_dist", d)
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
        legs = tuple([_vertex(x) for x in (self.alpha, self.beta, self.gamma)])  # see Graph._adj
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

    def _leg_length(self, kind: str) -> int:
        return {"x": self.alpha, "y": self.beta, "z": self.gamma}[kind]

    def _interior_base(self, kind: str) -> int:
        # interior vertices sit after the two junctions, grouped x then y then z
        if kind == "x":
            return 2
        if kind == "y":
            return self.alpha + 1
        return self.alpha + self.beta

    def vertex_index(self, name: str) -> int:
        """Index of a path-position name such as "x0", "y2" or "z11".

        Position 0 on every leg is the bottom junction (index 0) and the full
        leg length is the top junction (index 1); interior positions follow in
        path order, legs grouped x, y, z.
        """
        name = name.strip()
        kind, digits = name[:1], name[1:]
        if kind not in ("x", "y", "z") or not digits.isdigit():
            raise GraphError(f"invalid theta vertex name {name!r}")
        j = int(digits)
        length = self._leg_length(kind)
        if j > length:
            raise GraphError(f"position {name!r} exceeds leg length {length}")
        if j == 0:
            return 0
        if j == length:
            return 1
        return self._interior_base(kind) + j - 1

    def path_vertices(self, kind: str) -> tuple[int, ...]:
        """Vertex indices along one leg, bottom junction to top junction."""
        if kind not in ("x", "y", "z"):
            raise GraphError(f"leg must be 'x', 'y' or 'z', got {kind!r}")
        length = self._leg_length(kind)
        base = self._interior_base(kind)
        return (0, *range(base, base + length - 1), 1)


def make_theta(spec: ThetaSpec) -> Graph:
    """Theta graph of a ThetaSpec.

    Vertex 0 and 1 are the junctions of degree 3; interior vertices follow in
    path order along the x, y and z legs (see ThetaSpec.vertex_index).
    """
    edges = []
    for kind in ("x", "y", "z"):
        seq = spec.path_vertices(kind)
        edges.extend(zip(seq, seq[1:]))
    return Graph(spec.n_vertices, tuple(edges))


def make_path(n: int) -> Graph:
    """Path graph on n >= 1 vertices."""
    n = _vertex(n)
    if n < 1:
        raise GraphError(f"path needs at least 1 vertex, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def make_cycle(m: int) -> Graph:
    """Cycle graph on m >= 3 vertices."""
    m = _vertex(m)
    if m < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {m}")
    edges = [(i, i + 1) for i in range(m - 1)]
    edges.append((m - 1, 0))
    return Graph(m, tuple(edges))


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


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
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"expected 'u v' on edge line, got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"edge endpoints must be integers, got {line!r}") from None
    return Graph(n, tuple(edges))


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
