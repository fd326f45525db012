"""Output checks that do not trust the package.

Distances come from the benchmark's own breadth-first search over the edge
list it generated.  Certificates are re-checked against those distances:
exact ones in integer arithmetic (a rational vector scaled by the lcm of its
denominators keeps the sign of every quadratic form), float ones in float64.
The only package object used here is the canonical spanning tree, because a
Winkler certificate is indexed by its edges; the tree validates itself when
constructed and the kernel over it is rebuilt from the benchmark's distances.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

# bound at import time, so tracing the package never sees the oracle's calls
from qegraph.winkler import default_orientation_and_tree as _canonical_tree

EMBED_RESIDUAL = 1e-8
FLOAT_SUM = 1e-8


class OracleError(AssertionError):
    """A verdict, certificate or embedding failed an independent check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def theta_is_qe(legs) -> bool:
    """The classification theorem for theta graphs, from the leg lengths."""
    a, b, c = sorted(legs)
    return a == 1 or (a, b) == (2, 3) and c in (3, 5, 7)


def theta_edges(legs) -> list[tuple[int, int]]:
    """Edges of the theta graph in the package's documented vertex layout:
    junctions 0 and 1, then the interior vertices of legs x, y, z in path
    order."""
    a, b, c = legs
    edges = []
    base = 2
    for length in (a, b, c):
        path = [0, *range(base, base + length - 1), 1]
        edges.extend(zip(path, path[1:]))
        base += length - 1
    return edges


def cycle_edges(m: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(m - 1)] + [(m - 1, 0)]


def canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def distances(n: int, edges) -> list[list[int]]:
    """All-pairs shortest paths by one breadth-first search per vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        if -1 in row:
            raise OracleError(f"input graph is disconnected at vertex {row.index(-1)}")
        rows.append(row)
    return rows


def _as_integer_vector(entries) -> list[int]:
    fracs = [Fraction(x) for x in entries]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def _int_form(m: list[list[int]], x: list[int]) -> int:
    support = [(i, xi) for i, xi in enumerate(x) if xi]
    return sum(xi * sum(m[i][j] * xj for j, xj in support) for i, xi in support)


def _tree_kernel(d: list[list[int]], tree_edges) -> list[list[int]]:
    """2K over the given directed tree edges, from the distances alone."""
    return [
        [d[a][bb] - d[a][aa] - d[b][bb] + d[b][aa] for aa, bb in tree_edges]
        for a, b in tree_edges
    ]


def check_schoenberg_certificate(verdict, d: list[list[int]]) -> None:
    """A negative Schoenberg verdict needs f with sum(f) = 0 and f^T D f > 0."""
    cert = verdict.evidence.get("certificate")
    check(cert is not None, "negative schoenberg verdict carries no certificate")
    check(len(cert) == len(d), f"schoenberg certificate has {len(cert)} entries for {len(d)} vertices")
    if verdict.mode_used == "exact":
        f = _as_integer_vector(cert)
        check(sum(f) == 0, "exact schoenberg certificate does not sum to zero")
        check(_int_form(d, f) > 0, "exact schoenberg certificate has f^T D f <= 0")
    else:
        f = np.asarray(cert, dtype=float)
        check(abs(float(f.sum())) <= FLOAT_SUM, f"float schoenberg certificate sums to {f.sum():.3e}")
        value = float(f @ np.asarray(d, dtype=float) @ f)
        check(value > 0, f"float schoenberg certificate has f^T D f = {value:.3e}")


def check_winkler_certificate(verdict, g, d: list[list[int]]) -> None:
    """A negative Winkler verdict needs x with x^T (2K) x < 0, 2K rebuilt
    from the benchmark's distances over the canonical tree."""
    cert = verdict.evidence.get("certificate")
    check(cert is not None, "negative winkler verdict carries no certificate")
    tree = _canonical_tree(g)
    check(len(cert) == len(tree.tree_edges), "winkler certificate does not match the tree size")
    two_k = _tree_kernel(d, tree.tree_edges)
    if verdict.mode_used == "exact":
        x = _as_integer_vector(cert)
        check(_int_form(two_k, x) < 0, "exact winkler certificate has x^T 2K x >= 0")
    else:
        x = np.asarray(cert, dtype=float)
        value = float(x @ np.asarray(two_k, dtype=float) @ x)
        check(value < 0, f"float winkler certificate has x^T 2K x = {value:.3e}")


def check_embedding(embedding, d: list[list[int]]) -> None:
    """Squared distances between the embedded vertices equal graph distances."""
    v = np.asarray(embedding.vectors, dtype=float)
    check(v.shape[0] == len(d), "embedding has the wrong number of vertices")
    gram = v @ v.T
    sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2.0 * gram
    residual = float(np.abs(sq - np.asarray(d, dtype=float)).max())
    check(residual <= EMBED_RESIDUAL, f"embedding residual {residual:.3e} exceeds {EMBED_RESIDUAL}")


def check_verdicts(g, d, verdicts, expected: bool | None) -> bool:
    """Routes agree with each other and with the expected class; every
    negative route verdict has a valid certificate.  Returns the class."""
    decisions = {v.method: v.is_qe for v in verdicts}
    check(len(set(decisions.values())) == 1, f"routes disagree: {decisions}")
    is_qe = next(iter(decisions.values()))
    if expected is not None:
        check(is_qe == expected, f"verdict {is_qe} where {expected} is known: {decisions}")
    for v in verdicts:
        if v.method == "schoenberg" and not v.is_qe:
            check_schoenberg_certificate(v, d)
        elif v.method == "winkler" and not v.is_qe:
            check_winkler_certificate(v, g, d)
    return is_qe
