"""Spanning-tree kernels over oriented trees, and explicit embeddings.

For a connected graph with metric d and an oriented spanning tree with edges
e_i = (a_i, b_i), the kernel is

    K(e_i, e_j) = (d(a_i, b_j) - d(a_i, a_j) - d(b_i, b_j) + d(b_i, a_j)) / 2.

With D the distance matrix and B the incidence matrix whose column i is
e_{a_i} - e_{b_i}, this is 2K = -B^T D B: D compressed to the complement of
the all-ones vector in the tree-edge basis.  The kernel depends on the
directed tree edges and D alone.  Its positive semidefiniteness is equivalent
to the existence of a quadratic embedding of the graph, independently of the
chosen tree and edge directions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import spectra
from .config import DEFAULT_TOLERANCES, Tolerances
from .graphs import Graph, GraphError, distance_matrix

__all__ = [
    "TreeError",
    "EdgePairError",
    "EmbeddingError",
    "OrientedTree",
    "KernelMatrix",
    "EdgePairValue",
    "Embedding",
    "default_orientation_and_tree",
    "winkler_kernel",
    "classify_edge_pair",
    "build_theta1_block_kernel",
    "reconstruct_embedding",
    "zeta_path_signs",
    "parse_tree_text",
    "format_tree_text",
    "read_tree_file",
]

# Largest |  ||phi(x) - phi(y)||^2 - d(x, y) | a reconstructed embedding may show.
_EMBED_TOL = 1e-8


class TreeError(ValueError):
    """Invalid oriented spanning tree."""


class EmbeddingError(ValueError):
    """Embedding reconstruction failed (kernel not PSD or distances broken)."""


class EdgePairError(ValueError):
    """An edge pair fell outside the nine distance cases; carries all six
    pairwise distances among the four endpoints."""

    def __init__(self, e, e2, distances: dict):
        self.edges = (tuple(e), tuple(e2))
        self.distances = dict(distances)
        parts = ", ".join(f"d({x},{y})={v}" for (x, y), v in self.distances.items())
        super().__init__(f"edge pair {self.edges[0]}, {self.edges[1]} matches no case ({parts})")


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


@dataclass(frozen=True, eq=False)
class OrientedTree:
    """A spanning tree of a host graph, given by its directed edges.

    ``tree_edges`` lists the tree's directed edges (a, b) in a significant
    order: it fixes the kernel's row order, and each direction fixes the sign
    of its incidence column e_a - e_b.  Construction checks that there are
    n - 1 of them, that each is a host edge and that none closes a cycle.
    """

    graph: Graph
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        g = self.graph
        # tuples built from lists, see graphs.Graph._adj
        tree = tuple([(int(a), int(b)) for a, b in self.tree_edges])
        if len(tree) != g.n - 1:
            raise TreeError(f"spanning tree needs {g.n - 1} edges, got {len(tree)}")
        uf = _UnionFind(g.n)
        for a, b in tree:
            if not g.has_edge(a, b):
                raise TreeError(f"tree edge ({a}, {b}) is not a host edge")
            if not uf.union(a, b):
                raise TreeError(f"tree edge ({a}, {b}) closes a cycle")
        object.__setattr__(self, "tree_edges", tree)

    def omitted_edges(self) -> tuple[tuple[int, int], ...]:
        """Host edges outside the tree, as pairs (u, v) with u < v."""
        in_tree = {(a, b) if a < b else (b, a) for a, b in self.tree_edges}
        return tuple([e for e in self.graph.edges if e not in in_tree])


def default_orientation_and_tree(g: Graph) -> OrientedTree:
    """Canonical tree: breadth-first tree rooted at vertex 0 with edges in
    discovery order, each directed away from the root."""
    seen = [False] * g.n
    seen[0] = True
    order = deque((0,))
    tree = []
    while order:
        u = order.popleft()
        for w in g.neighbors(u):
            if not seen[w]:
                seen[w] = True
                tree.append((u, w))
                order.append(w)
    if len(tree) != g.n - 1:
        missing = seen.index(False)
        raise GraphError(f"graph is not connected: vertices 0 and {missing} have no joining path")
    return OrientedTree(g, tuple(tree))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Kernel of an oriented spanning tree, stored exactly as the integer
    matrix two_k = 2K (kernel entries are half-integers)."""

    two_k: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.two_k)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel matrix must be square, got shape {m.shape}")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("two_k must be an integer matrix")
        if not (m == m.T).all():
            raise ValueError("kernel matrix must be symmetric")
        if m.size and (np.diag(m) != 2).any():
            raise ValueError("kernel diagonal must equal 1 (two_k diagonal 2)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "two_k", m)

    @property
    def dim(self) -> int:
        return self.two_k.shape[0]

    def as_float(self) -> np.ndarray:
        return self.two_k / 2.0

    def as_fractions(self) -> list[list[Fraction]]:
        return [[Fraction(int(x), 2) for x in row] for row in self.two_k.tolist()]

    def to_text(self, exact: bool = False) -> str:
        """Matrix text format; exact mode writes reduced rationals."""
        if not exact:
            return spectra.format_matrix_text(self.as_float())
        return spectra.format_matrix_text(self.as_fractions(), exact=True)


def winkler_kernel(g: Graph, tree: OrientedTree | None = None) -> KernelMatrix:
    """Kernel matrix of g over an oriented spanning tree (default: the
    canonical BFS tree), rows following the tree's edge order.

    With B the incidence matrix whose column for tree edge (a, b) is
    e_a - e_b, 2K = -B^T D B: one row gather and one column gather per
    endpoint list."""
    if tree is None:
        tree = default_orientation_and_tree(g)
    elif tree.graph is not g and tree.graph != g:
        raise TreeError("tree belongs to a different host graph")
    d = distance_matrix(g)
    if not tree.tree_edges:
        return KernelMatrix(np.zeros((0, 0), dtype=np.int64))
    heads, tails = np.array(tree.tree_edges, dtype=np.int64).T
    x = d[heads] - d[tails]  # rows of B^T D
    return KernelMatrix(x[:, tails] - x[:, heads])


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


def build_theta1_block_kernel(k: int, l: int, parity: str) -> KernelMatrix:
    """Closed-form kernel for theta graphs with a length-1 leg.

    parity "even" gives the kernel of Theta(1, 2k, 2l) over its standard
    tree (host edges a_1 and c_{2l} omitted; 2 <= k <= l), a matrix of
    dimension 2k + 2l - 1.  parity "odd" gives Theta(1, 2k, 2l+1) (edges a_1
    and c_{l+1} omitted; k, l >= 2), dimension 2k + 2l.
    """
    k, l = int(k), int(l)
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if k < 2 or l < 2:
        raise ValueError(f"need k >= 2 and l >= 2, got k={k}, l={l}")
    if parity == "even" and l < k:
        raise ValueError(f"even parity needs k <= l, got k={k}, l={l}")
    # banded coupling between the two halves of an even path
    def band(rows: int, cols: int) -> np.ndarray:
        a = np.zeros((rows, cols), dtype=np.int64)
        for i in range(rows):
            for j in (i, i + 1):
                if j < cols:
                    a[i, j] = -1
        return a

    if parity == "even":
        dim = 2 * k + 2 * l - 1
        m = 2 * np.eye(dim, dtype=np.int64)
        bk, ck = 2 * k, 2 * k + l  # starts of the c-blocks
        m[0:k, k:2 * k] = band(k, k)
        m[bk:bk + l, ck:ck + l - 1] = band(l, l - 1)
        m[k - 1, ck] = 1                # b_k with c_{l+1}
        m[k, bk + l - 1] = 1            # b_{k+1} with c_l
    else:
        dim = 2 * k + 2 * l
        m = 2 * np.eye(dim, dtype=np.int64)
        bk = 2 * k
        m[0:k, k:2 * k] = band(k, k)
        for i in range(l):
            m[bk + i, bk + l + i] = -2  # c_i with c_{i+l+1}
    # couplings were written above the diagonal only
    m = m + m.T - np.diag(np.diag(m))
    return KernelMatrix(m)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Vectors realizing squared Euclidean distances equal to the graph
    metric; vertex 0 sits at the origin."""

    vectors: np.ndarray
    max_error: float

    def squared_distance(self, x: int, y: int) -> float:
        diff = self.vectors[x] - self.vectors[y]
        return float(diff @ diff)


def reconstruct_embedding(
    g: Graph,
    tree: OrientedTree | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Embedding:
    """Explicit quadratic embedding of g built from a PSD tree kernel.

    The kernel over the tree (default: the canonical BFS tree) is factored
    through its eigendecomposition (eigenvalues within tolerance of zero are
    clamped; genuinely negative ones raise EmbeddingError), giving one vector
    per tree edge.  Vertex 0 sits at the origin, and the other vertex vectors
    follow by propagation along tree edges.  The result is validated
    against the whole metric to within 1e-8 (_EMBED_TOL).
    """
    if tree is None:
        tree = default_orientation_and_tree(g)
    kern = winkler_kernel(g, tree)
    d = distance_matrix(g)
    if kern.dim == 0:
        vectors = np.zeros((g.n, 0))
        vectors.setflags(write=False)
        return Embedding(vectors=vectors, max_error=0.0)
    res = spectra.eigen_sym(kern.as_float())
    lam = res.eigenvalues.copy()
    bound = tol.psd_rel * max(1.0, float(lam[0]))
    if lam[-1] < -bound:
        raise EmbeddingError(f"kernel is not positive semidefinite (lambda_min = {lam[-1]:.3e})")
    keep = lam > bound  # clamp the near-zero band to exact zero
    edge_vecs = res.eigenvectors[:, keep] * np.sqrt(lam[keep])
    by_vertex = [[] for _ in range(g.n)]
    for idx, (a, b) in enumerate(tree.tree_edges):
        by_vertex[a].append((b, idx, 1.0))
        by_vertex[b].append((a, idx, -1.0))
    vectors = np.zeros((g.n, edge_vecs.shape[1]))
    seen = [False] * g.n
    seen[0] = True
    queue = deque((0,))
    while queue:
        u = queue.popleft()
        for w, idx, sign in by_vertex[u]:
            if not seen[w]:
                seen[w] = True
                vectors[w] = vectors[u] + sign * edge_vecs[idx]
                queue.append(w)
    gram = vectors @ vectors.T
    sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
    max_error = float(np.abs(sq - d).max())
    if max_error > _EMBED_TOL:
        raise EmbeddingError(f"reconstructed distances deviate by {max_error:.3e}")
    vectors.setflags(write=False)
    return Embedding(vectors=vectors, max_error=max_error)


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


def parse_tree_text(text: str, g: Graph) -> OrientedTree:
    """Parse a tree override for g: one directed edge "a b" per line, order
    significant; '#' comments and blank lines allowed.  The edges must form a
    spanning tree of g (TreeError otherwise)."""
    tree = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TreeError(f"expected 'a b' on tree line, got {line!r}")
        try:
            tree.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise TreeError(f"tree endpoints must be integers, got {line!r}") from None
    return OrientedTree(g, tuple(tree))


def format_tree_text(tree: OrientedTree) -> str:
    return "\n".join(f"{a} {b}" for a, b in tree.tree_edges) + "\n"


def read_tree_file(path, g: Graph) -> OrientedTree:
    return parse_tree_text(Path(path).read_text(), g)
