"""Bundled reference data: concrete oriented trees for the three embeddable
theta graphs with legs (2, 3, gamma), their known kernels and spectra, the
standard trees of the length-1-leg families, and the non-embeddability
witness for legs (2, 3, 2k+7)."""

from __future__ import annotations

import math

import numpy as np

from .config import require_int
from .graphs import Graph, ThetaSpec, make_theta
from .winkler import OrientedTree, _theta1_params

__all__ = [
    "QE_THETA_SPECS",
    "reference_tree",
    "reference_two_k",
    "reference_spectrum",
    "theta1_tree",
    "WITNESS_VALUE",
    "WITNESS_COEFFS",
    "WITNESS_BASE",
    "WITNESS_STEP",
    "witness_vertex_names",
]

QE_THETA_SPECS = (ThetaSpec(2, 3, 3), ThetaSpec(2, 3, 5), ThetaSpec(2, 3, 7))

# Directed tree edges in kernel row order; vertices as make_theta numbers
# them: 0 bottom junction, 1 top junction, 2 x1, 3 y1, 4 y2, then z1, z2, ...
_TREES = {
    QE_THETA_SPECS[0]: ((1, 2), (2, 0), (1, 4), (3, 0), (1, 6), (5, 0)),
    QE_THETA_SPECS[1]: ((1, 2), (2, 0), (1, 4), (3, 0), (1, 8), (8, 7), (6, 5), (5, 0)),
    QE_THETA_SPECS[2]: (
        (1, 2), (2, 0), (1, 4), (3, 0), (1, 10), (10, 9), (9, 8), (7, 6), (6, 5), (5, 0),
    ),
}


def reference_tree(spec: ThetaSpec, g: Graph | None = None) -> OrientedTree:
    """The reference oriented spanning tree for one of the three embeddable
    (2, 3, gamma) theta graphs, checked as any tree from outside is."""
    spec = spec.normalized()
    if spec not in _TREES:
        raise ValueError(f"no bundled tree for {spec.uri()}")
    if g is None:
        g = make_theta(spec)
    return OrientedTree(g, _TREES[spec])


_TWO_K_2_3_3 = (
    (2, 0, 0, 1, 0, 1),
    (0, 2, 1, 0, 1, 0),
    (0, 1, 2, -1, 0, 1),
    (1, 0, -1, 2, 1, 0),
    (0, 1, 0, 1, 2, -1),
    (1, 0, 1, 0, -1, 2),
)

_TWO_K_2_3_5 = (
    (2, 0, 0, 1, 0, 0, 1, 0),
    (0, 2, 1, 0, 0, 1, 0, 0),
    (0, 1, 2, -1, 0, 0, 1, 0),
    (1, 0, -1, 2, 0, 1, 0, 0),
    (0, 0, 0, 0, 2, 0, -1, -1),
    (0, 1, 0, 1, 0, 2, 0, -1),
    (1, 0, 1, 0, -1, 0, 2, 0),
    (0, 0, 0, 0, -1, -1, 0, 2),
)

_TWO_K_2_3_7 = (
    (2, 0, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 2, 1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 2, -1, 0, 0, 0, 1, 0, 0),
    (1, 0, -1, 2, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 2, 0, 0, -1, -1, 0),
    (0, 0, 0, 0, 0, 2, 0, 0, -1, -1),
    (0, 1, 0, 1, 0, 0, 2, 0, 0, -1),
    (1, 0, 1, 0, -1, 0, 0, 2, 0, 0),
    (0, 0, 0, 0, -1, -1, 0, 0, 2, 0),
    (0, 0, 0, 0, 0, -1, -1, 0, 0, 2),
)


def reference_two_k(spec: ThetaSpec) -> np.ndarray:
    """Known integer matrix 2K over the bundled tree order."""
    table = {
        QE_THETA_SPECS[0]: _TWO_K_2_3_3,
        QE_THETA_SPECS[1]: _TWO_K_2_3_5,
        QE_THETA_SPECS[2]: _TWO_K_2_3_7,
    }
    spec = spec.normalized()
    if spec not in table:
        raise ValueError(f"no reference kernel for {spec.uri()}")
    return np.array(table[spec], dtype=np.int64)


def reference_spectrum(spec: ThetaSpec) -> np.ndarray:
    """Known spectrum of 2K in descending order (closed forms)."""
    spec = spec.normalized()
    root2 = math.sqrt(2.0)
    root5 = math.sqrt(5.0)
    if spec == QE_THETA_SPECS[0]:
        values = [4.0, 2.0 + root2, 2.0 + root2, 2.0 - root2, 2.0 - root2, 0.0]
    elif spec == QE_THETA_SPECS[1]:
        values = [4.0]
        values += [2.0 + 2.0 * math.cos(k * math.pi / 9.0) for k in (1, 2, 4, 5, 7, 8)]
        values += [0.0]
    elif spec == QE_THETA_SPECS[2]:
        values = [
            4.0,
            4.0,
            (5.0 + root5) / 2.0,
            3.0,
            (3.0 + root5) / 2.0,
            (5.0 - root5) / 2.0,
            1.0,
            (3.0 - root5) / 2.0,
            0.0,
            0.0,
        ]
    else:
        raise ValueError(f"no reference spectrum for {spec.uri()}")
    return np.array(values)


def theta1_tree(k: int, l: int, parity: str) -> tuple[Graph, OrientedTree]:
    """Standard oriented tree of Theta(1, 2k, 2l) (parity "even"; omits the
    length-1 leg and the 2l-th z-edge) or Theta(1, 2k, 2l+1) (parity "odd";
    omits the length-1 leg and the middle z-edge), edges listed y-path first
    then z-path, all directed bottom to top."""
    k, l = _theta1_params(k, l, parity)
    gamma = 2 * l if parity == "even" else 2 * l + 1
    spec = ThetaSpec(1, 2 * k, gamma)
    g = make_theta(spec)
    y_path = spec.path_vertices("y")
    z_path = spec.path_vertices("z")
    y_edges = list(zip(y_path, y_path[1:]))
    z_edges = list(zip(z_path, z_path[1:]))
    if parity == "even":
        tree = y_edges + z_edges[: 2 * l - 1]  # drop the last z-edge
    else:
        tree = y_edges + z_edges[:l] + z_edges[l + 1:]  # drop the middle z-edge
    return g, OrientedTree(g, tuple(tree))


WITNESS_VALUE = 16272

# coefficients over the designated 13 vertices, junction-to-junction order
# z_{2k+6}, x0, x1, x2, y1, y2, z1, z_{k+1}, ..., z_{k+6}
WITNESS_COEFFS = (236, 243, -546, 243, -206, -206, 236, 119, 234, -353, -353, 234, 119)

WITNESS_BASE = np.array(
    (
        (0, 3, 2, 1, 3, 2, 4, 4, 4, 3, 2, 1, 0),
        (3, 0, 1, 2, 1, 2, 1, 1, 2, 3, 4, 4, 3),
        (2, 1, 0, 1, 2, 2, 2, 2, 3, 4, 4, 3, 2),
        (1, 2, 1, 0, 2, 1, 3, 3, 4, 4, 3, 2, 1),
        (3, 1, 2, 2, 0, 1, 2, 2, 3, 4, 5, 4, 3),
        (2, 2, 2, 1, 1, 0, 3, 3, 4, 5, 4, 3, 2),
        (4, 1, 2, 3, 2, 3, 0, 0, 1, 2, 3, 4, 4),
        (4, 1, 2, 3, 2, 3, 0, 0, 1, 2, 3, 4, 5),
        (4, 2, 3, 4, 3, 4, 1, 1, 0, 1, 2, 3, 4),
        (3, 3, 4, 4, 4, 5, 2, 2, 1, 0, 1, 2, 3),
        (2, 4, 4, 3, 5, 4, 3, 3, 2, 1, 0, 1, 2),
        (1, 4, 3, 2, 4, 3, 4, 4, 3, 2, 1, 0, 1),
        (0, 3, 2, 1, 3, 2, 4, 5, 4, 3, 2, 1, 0),
    ),
    dtype=np.int64,
)

# the submatrix grows by k across the first-seven / last-six block split
WITNESS_STEP = np.zeros((13, 13), dtype=np.int64)
WITNESS_STEP[:7, 7:] = 1
WITNESS_STEP[7:, :7] = 1
WITNESS_BASE.setflags(write=False)
WITNESS_STEP.setflags(write=False)


def witness_vertex_names(k: int) -> tuple[str, ...]:
    """Path-position names of the 13 designated vertices in Theta(2, 3, 2k+7)."""
    k = require_int(k, "k")
    if k < 1:
        raise ValueError(f"witness needs k >= 1, got {k}")
    return (
        f"z{2 * k + 6}",
        "x0",
        "x1",
        "x2",
        "y1",
        "y2",
        "z1",
        *(f"z{k + j}" for j in range(1, 7)),
    )
