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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectra
from .config import DEFAULT_TOLERANCES, require_int
from .graphs import Graph, _bfs_row, _bfs_tree, _data_lines, _int_pairs, _root_paths, distance_matrix

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

    The walk (graphs._bfs_tree) builds a spanning tree by construction, so
    the result skips ``OrientedTree``'s public check.  It runs once per
    graph: its edge tuple is kept on g, as ``distance_matrix`` keeps D, and
    a tree's distances come from the same walk.  Raises GraphError when g
    is disconnected."""
    return OrientedTree._trusted(g, _bfs_tree(g))


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
    canonical BFS tree), rows following the tree's edge order, formed as
    2K = -B^T D B by spectra._difference_form.

    The default tree's kernel is computed once per graph and kept on it, as
    ``distance_matrix`` keeps D, so the Winkler decision and the embedding
    share one matrix, over the tree ``default_orientation_and_tree`` keeps;
    a kernel over an explicit tree is built anew on every call."""
    default = tree is None
    if default:
        kept = vars(g).get("_kernel")
        if kept is not None:
            return kept
        tree = default_orientation_and_tree(g)
    elif tree.graph is not g and tree.graph != g:
        raise TreeError("tree belongs to a different host graph")
    heads, tails = np.array(tree.tree_edges, dtype=np.int64).reshape(-1, 2).T
    two_k = spectra._difference_form(distance_matrix(g), heads, tails)
    two_k.setflags(write=False)
    kern = KernelMatrix(two_k)
    if default:
        vars(g)["_kernel"] = kern  # a matrix only: no reference back to g
    return kern


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
    # banded coupling between the two halves of an even path: -1 at (i, i), (i, i + 1)
    def band(rows: int, cols: int) -> np.ndarray:
        return -(np.eye(rows, cols, dtype=np.int64) + np.eye(rows, cols, 1, dtype=np.int64))

    bk = 2 * k  # start of the c-blocks, after the 2k rows of the b-block
    dim = bk + 2 * l - 1 if parity == "even" else bk + 2 * l
    m = 2 * np.eye(dim, dtype=np.int64)
    m[0:k, k:bk] = band(k, k)       # b_1..b_k with b_{k+1}..b_{2k}
    if parity == "even":
        ck = bk + l  # start of the second c-block
        m[bk:bk + l, ck:ck + l - 1] = band(l, l - 1)
        m[k - 1, ck] = 1                # b_k with c_{l+1}
        m[k, bk + l - 1] = 1            # b_{k+1} with c_l
    else:
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

    The kernel K over the canonical BFS tree (``winkler_kernel(g)``, the
    one the Winkler decision kept on g) is factored as K = L L^T, one row of
    L per tree edge, and vertex v sits at the sum of the rows of the tree
    edges on the path from 0 to v: row v of M L, with M the tree's
    root-path matrix (graphs._root_paths).  Vertex 0 sits at the origin.

    - A diagonal K, a tree's K = I among them, needs no factorization: the
      vectors are M sqrt(K_ee), with no loop.
    - A positive definite K is factored by a float Cholesky of 2K / 2
      (exact in float64), with n - 1 columns.
    - Where Cholesky fails, as on a singular or indefinite K, the factor
      comes from the eigendecomposition of the integer 2K under the float
      PSD rule of ``spectra`` at ``DEFAULT_TOLERANCES``, which decides on
      2K as on K (see ``analysis.classify_winkler``): eigenvalues of 2K
      within the bound of zero are clamped, a genuinely negative one raises
      EmbeddingError, and each kept eigenvalue is halved only to scale its
      eigenvector by sqrt(lambda / 2).

    The last two sum L's rows edge by edge, in O(n^2), where the product
    M L would take O(n^3): each tree edge (a, b), parent to child in
    discovery order, gives b the vector of a plus the edge's vector.  Every
    result is validated against the whole metric to within 1e-8
    (_EMBED_TOL).
    """
    kern = winkler_kernel(g)
    d = distance_matrix(g)
    two_k = kern.two_k
    if spectra._count_nonzero(two_k)[1]:
        vectors = _root_paths(g) * np.sqrt(two_k.diagonal() / 2)
    else:
        try:
            edge_vecs = np.linalg.cholesky(two_k / 2)
        except np.linalg.LinAlgError:
            res, bound, psd, _ = spectra._float_spectrum(two_k, DEFAULT_TOLERANCES)
            lam = res.eigenvalues  # twice the eigenvalues of K
            if not psd:
                raise EmbeddingError(
                    f"kernel is not positive semidefinite (lambda_min = {lam[-1] / 2:.3e})"
                ) from None
            keep = lam > bound  # clamp the near-zero band to exact zero
            edge_vecs = res.eigenvectors[:, keep] * np.sqrt(lam[keep] / 2)
        vectors = np.zeros((g.n, edge_vecs.shape[1]))
        # the kept tree's edges, whose rows kern follows
        for (a, b), vec in zip(_bfs_tree(g), edge_vecs):
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
    return OrientedTree(g, _int_pairs(_data_lines(text), TreeError, "a b", "tree"))


def read_tree_file(path, g: Graph) -> OrientedTree:
    return parse_tree_text(Path(path).read_text(), g)
