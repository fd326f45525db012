"""Shared oracles, graph generators, and the test corpus.

Oracles here are deliberately independent of the package internals:
Floyd-Warshall for distances, Prufer decoding for exhaustive tree
enumeration.  Spectra are checked against closed forms and planted
spectra, not against numpy's eigensolver, which the package itself uses.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qegraph
from qegraph import Graph, OrientedTree, graph_from_uri

INF = 10**9


def floyd_warshall(g: Graph) -> np.ndarray:
    n = g.n
    d = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v in g.edges:
        d[u, v] = d[v, u] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def int_form(m, v) -> int:
    """<v, Mv> over Python ints, v an integer vector."""
    rows = np.asarray(m, dtype=object).tolist()
    v = [int(x) for x in v]
    return sum(vi * rows[i][j] * vj for i, vi in enumerate(v) for j, vj in enumerate(v))


def is_connected(g: Graph) -> bool:
    return bool((floyd_warshall(g) < INF).all())


def is_isometric(h: Graph, g: Graph, phi) -> bool:
    """Whether the vertex map phi (a sequence over h's vertices) preserves
    every distance of h inside g."""
    phi = np.asarray(phi)
    return bool((floyd_warshall(h) == floyd_warshall(g)[np.ix_(phi, phi)]).all())


def prufer_decode(seq: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    """Labeled tree on vertices 0..n-1 from a Prufer sequence of length n-2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaf_heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((u, v))
    return tuple(edges)


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, via Prufer sequences."""
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((0, 1),)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def two_coloring(g: Graph) -> list[int] | None:
    """A proper 2-coloring, or None when the graph is not bipartite."""
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for w in g.neighbors(u):
            if color[w] == -1:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    return color


def run_python(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter (with extra interpreter flags such
    as -O) that imports this checkout of qegraph, without QEGRAPH_MODE."""
    env = dict(os.environ, PYTHONPATH=str(Path(qegraph.__file__).resolve().parents[1]))
    env.pop("QEGRAPH_MODE", None)
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected."""
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if len(edges) < n - 1:
            continue
        g = Graph(n, tuple(edges))
        if is_connected(g):
            return g


def random_sparse_graph(rng: random.Random, n: int) -> Graph:
    """A random labeled tree plus n // 4 random extra edges: connected, with
    long geodesics."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    while len(edges) < min(n - 1 + n // 4, n * (n - 1) // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, tuple((perm[u], perm[v]) for u, v in sorted(edges)))


def random_spanning_tree(rng: random.Random, g: Graph) -> tuple[tuple[int, int], ...]:
    """Uniformly shuffled edge order fed to union-find; returns tree edges."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = list(g.edges)
    rng.shuffle(edges)
    tree = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    return tuple(tree)


def random_oriented_tree(rng: random.Random, g: Graph) -> OrientedTree:
    """Random spanning tree with every tree edge randomly directed."""
    tree = tuple(
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in random_spanning_tree(rng, g)
    )
    return OrientedTree(g, tree)


# (uri, is_qe or None when not pinned by a closed form)
CORPUS = (
    ("path:2", True),
    ("path:6", True),
    ("path:10", True),
    ("cycle:3", True),
    ("cycle:4", True),
    ("cycle:5", True),
    ("cycle:6", True),
    ("cycle:9", True),
    ("cycle:12", True),
    ("theta:1,2,2", True),
    ("theta:1,4,6", True),
    ("theta:1,5,8", True),
    ("theta:2,3,3", True),
    ("theta:2,3,5", True),
    ("theta:2,3,7", True),
    ("theta:2,2,2", False),
    ("theta:2,2,5", False),
    ("theta:2,3,4", False),
    ("theta:2,3,9", False),
    ("theta:2,4,4", False),
    ("theta:3,3,3", False),
    ("theta:3,4,5", False),
)


@pytest.fixture(scope="session")
def corpus():
    return tuple((uri, graph_from_uri(uri), qe) for uri, qe in CORPUS)


@pytest.fixture()
def rng():
    return random.Random(20260813)
