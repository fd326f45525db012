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

The entries of K are half-integers, so the package stores, decides and
factors the integer matrix 2K, and halves only what it reports.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectra
from .config import DEFAULT_TOLERANCES, require_int
from .graphs import Graph, GraphError, _bfs_row, _data_lines, distance_matrix

__all__ = [
    "TreeError",
    "EmbeddingError",
    "OrientedTree",
    "KernelMatrix",
    "Embedding",
    "default_orientation_and_tree",
    "winkler_kernel",
    "build_theta1_block_kernel",
    "reconstruct_embedding",
    "parse_tree_text",
    "read_tree_file",
]

# Largest |  ||phi(x) - phi(y)||^2 - d(x, y) | a reconstructed embedding may show.
_EMBED_TOL = 1e-8


class TreeError(ValueError):
    """Invalid oriented spanning tree."""


class EmbeddingError(ValueError):
    """Embedding reconstruction failed (kernel not PSD or distances broken)."""


def _tree_edge(e) -> tuple[int, int]:
    try:
        a, b = e
        return operator.index(a), operator.index(b)
    except (TypeError, ValueError):
        raise TreeError(f"tree edge must be a pair of integer vertices, got {e!r}") from None


@dataclass(frozen=True, eq=False)
class OrientedTree:
    """A spanning tree of a host graph, given by its directed edges.

    ``tree_edges`` lists the tree's directed edges (a, b) in a significant
    order: it fixes the kernel's row order, and each direction fixes the sign
    of its incidence column e_a - e_b.  The public constructor checks trees
    from outside the package (callers, ``--tree`` files, bundled fixtures):
    there must be n - 1 of them, each a host edge, reaching every vertex,
    which for n - 1 edges is the same as closing no cycle.  Trees the package
    builds itself (``default_orientation_and_tree``) skip this check.
    """

    graph: Graph
    tree_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        g = self.graph
        # tuples built from lists, see graphs.Graph._adj
        tree = tuple([_tree_edge(e) for e in self.tree_edges])
        if len(tree) != g.n - 1:
            raise TreeError(f"spanning tree needs {g.n - 1} edges, got {len(tree)}")
        adj = [[] for _ in range(g.n)]
        for a, b in tree:
            if not g.has_edge(a, b):
                raise TreeError(f"tree edge ({a}, {b}) is not a host edge")
            adj[a].append(b)
            adj[b].append(a)
        reach = _bfs_row(adj, g.n, 0)
        if -1 in reach:
            raise TreeError(
                f"tree edges close a cycle: they do not reach vertex {reach.index(-1)} from 0"
            )
        object.__setattr__(self, "tree_edges", tree)

    @classmethod
    def _trusted(cls, graph: Graph, tree_edges: tuple[tuple[int, int], ...]) -> OrientedTree:
        """A spanning tree of graph the package has just built, stored
        without the public check."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "graph", graph)
        object.__setattr__(tree, "tree_edges", tree_edges)
        return tree


def default_orientation_and_tree(g: Graph) -> OrientedTree:
    """Canonical tree: breadth-first tree rooted at vertex 0 with edges in
    discovery order, each directed away from the root.

    The walk over the host adjacency builds a spanning tree by construction,
    so the result skips ``OrientedTree``'s public check.  Raises GraphError
    when g is disconnected."""
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
        missing = seen.index(False)
        raise GraphError(f"graph is not connected: vertices 0 and {missing} have no joining path")
    return OrientedTree._trusted(g, tuple(tree))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Kernel of an oriented spanning tree, stored exactly as the read-only
    int64 matrix two_k = 2K (kernel entries are half-integers, the diagonal
    is 2).  two_k is the only form the package computes with: the Winkler
    decision and the embedding both work on 2K and halve what they report.

    Only ``winkler_kernel`` and ``build_theta1_block_kernel`` build kernels;
    each hands over a new matrix already marked read-only, so construction
    neither copies nor checks it."""

    two_k: np.ndarray

    @property
    def dim(self) -> int:
        return self.two_k.shape[0]


def winkler_kernel(g: Graph, tree: OrientedTree | None = None) -> KernelMatrix:
    """Kernel matrix of g over an oriented spanning tree (default: the
    canonical BFS tree), rows following the tree's edge order.

    With B the incidence matrix whose column for tree edge (a, b) is
    e_a - e_b, 2K = -B^T D B: two row gathers of D give B^T D, whose
    transpose is DB (D is symmetric), and two row gathers of DB give 2K as
    a new C-ordered matrix."""
    if tree is None:
        tree = default_orientation_and_tree(g)
    elif tree.graph is not g and tree.graph != g:
        raise TreeError("tree belongs to a different host graph")
    d = distance_matrix(g)
    heads, tails = np.array(tree.tree_edges, dtype=np.int64).reshape(-1, 2).T
    db = (d[heads] - d[tails]).T
    two_k = db[tails] - db[heads]
    two_k.setflags(write=False)
    return KernelMatrix(two_k)


def _theta1_params(k: int, l: int, parity: str) -> tuple[int, int]:
    """(k, l) as ints, checked for the length-1-leg families Theta(1, 2k, 2l)
    (parity "even", 2 <= k <= l) and Theta(1, 2k, 2l+1) ("odd", k, l >= 2)."""
    k, l = require_int(k, "k"), require_int(l, "l")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if k < 2 or l < 2:
        raise ValueError(f"need k >= 2 and l >= 2, got k={k}, l={l}")
    if parity == "even" and l < k:
        raise ValueError(f"even parity needs k <= l, got k={k}, l={l}")
    return k, l


def build_theta1_block_kernel(k: int, l: int, parity: str) -> KernelMatrix:
    """Closed-form kernel for theta graphs with a length-1 leg.

    parity "even" gives the kernel of Theta(1, 2k, 2l) over its standard
    tree (host edges a_1 and c_{2l} omitted; 2 <= k <= l), a matrix of
    dimension 2k + 2l - 1.  parity "odd" gives Theta(1, 2k, 2l+1) (edges a_1
    and c_{l+1} omitted; k, l >= 2), dimension 2k + 2l.
    """
    k, l = _theta1_params(k, l, parity)
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
    m.setflags(write=False)
    return KernelMatrix(m)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Vectors realizing squared Euclidean distances equal to the graph
    metric, one read-only row per vertex; vertex 0 sits at the origin.
    ``reconstruct_embedding`` has checked every distance to within 1e-8
    before it returns one."""

    vectors: np.ndarray


def reconstruct_embedding(g: Graph) -> Embedding:
    """Explicit quadratic embedding of g built from a PSD tree kernel.

    The kernel K over the canonical BFS tree is factored through the
    eigendecomposition of the integer 2K under the float PSD rule of
    ``spectra`` at ``DEFAULT_TOLERANCES``: eigenvalues of 2K within the
    bound of zero are clamped, and a genuinely negative one raises
    EmbeddingError.  diag(K) = 1 gives lambda_max(K) >= 1, so the bound of
    2K is exactly twice that of K and the rule decides as it would on K.
    Each kept eigenvalue is halved only to scale its eigenvector by
    sqrt(lambda / 2), giving one vector per tree edge.  Vertex 0 sits at
    the origin, and each tree edge (a, b), parent to child in discovery
    order, gives b the vector of a plus the edge's vector.  The result is
    validated against the whole metric to within 1e-8 (_EMBED_TOL).
    """
    tree = default_orientation_and_tree(g)
    kern = winkler_kernel(g, tree)
    d = distance_matrix(g)
    if kern.dim == 0:
        vectors = np.zeros((g.n, 0))
        vectors.setflags(write=False)
        return Embedding(vectors)
    res, bound, psd, _ = spectra._float_spectrum(kern.two_k, DEFAULT_TOLERANCES)
    lam = res.eigenvalues  # twice the eigenvalues of K
    if not psd:
        raise EmbeddingError(
            f"kernel is not positive semidefinite (lambda_min = {lam[-1] / 2:.3e})"
        )
    keep = lam > bound  # clamp the near-zero band to exact zero
    edge_vecs = res.eigenvectors[:, keep] * np.sqrt(lam[keep] / 2)
    vectors = np.zeros((g.n, edge_vecs.shape[1]))
    # the default tree's edges run parent to child in discovery order, so
    # each tail is 0 or the head of an earlier edge
    for (a, b), vec in zip(tree.tree_edges, edge_vecs):
        vectors[b] = vectors[a] + vec
    gram = vectors @ vectors.T
    sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram
    max_error = float(np.abs(sq - d).max())
    if max_error > _EMBED_TOL:
        raise EmbeddingError(f"reconstructed distances deviate by {max_error:.3e}")
    vectors.setflags(write=False)
    return Embedding(vectors)


def parse_tree_text(text: str, g: Graph) -> OrientedTree:
    """Parse a tree override for g: one directed edge "a b" per line, order
    significant; '#' comments and blank lines allowed.  The edges must form a
    spanning tree of g (TreeError otherwise)."""
    tree = []
    for line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise TreeError(f"expected 'a b' on tree line, got {line!r}")
        try:
            tree.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise TreeError(f"tree endpoints must be integers, got {line!r}") from None
    return OrientedTree(g, tuple(tree))


def read_tree_file(path, g: Graph) -> OrientedTree:
    return parse_tree_text(Path(path).read_text(), g)
