"""Quadratic embeddability of connected graphs.

A graph is quadratically embeddable when its vertices map into a Hilbert
space so that squared distances between images equal graph distances.  The
package decides membership three independent ways (closed form for theta
graphs, conditional negative definiteness of the distance matrix, positive
semidefiniteness of a spanning-tree kernel), computes the quadratic
embedding constant, reconstructs explicit embeddings, and recomputes a suite
of bundled reference values for the theta-graph classification.
"""

from .analysis import (
    CheckError,
    FixtureResult,
    QecValue,
    QeVerdict,
    SweepReport,
    SweepRow,
    classification_sweep,
    classify_schoenberg,
    classify_theta_closed_form,
    classify_winkler,
    qec,
    qec_cycle,
    qec_theta1_bounds,
    run_reference_suite,
    sweep_to_csv,
    sweep_to_json,
    witness_quadratic_form,
)
from .config import DEFAULT_TOLERANCES, MODES, Tolerances
from .graphs import (
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
from .spectra import (
    CndVerdict,
    PsdVerdict,
    SpectraError,
    SpectrumResult,
    eigen_sym,
    is_cnd,
    is_psd,
)
from .winkler import (
    Embedding,
    EmbeddingError,
    KernelMatrix,
    OrientedTree,
    TreeError,
    build_theta1_block_kernel,
    default_orientation_and_tree,
    reconstruct_embedding,
    winkler_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "MODES",
    "Graph",
    "GraphError",
    "ThetaSpec",
    "make_theta",
    "make_path",
    "make_cycle",
    "distance_matrix",
    "parse_edgelist",
    "read_edgelist",
    "graph_from_uri",
    "theta_spec_from_uri",
    "SpectraError",
    "SpectrumResult",
    "eigen_sym",
    "PsdVerdict",
    "is_psd",
    "CndVerdict",
    "is_cnd",
    "TreeError",
    "EmbeddingError",
    "OrientedTree",
    "default_orientation_and_tree",
    "KernelMatrix",
    "winkler_kernel",
    "build_theta1_block_kernel",
    "Embedding",
    "reconstruct_embedding",
    "CheckError",
    "QeVerdict",
    "QecValue",
    "SweepRow",
    "SweepReport",
    "FixtureResult",
    "classify_theta_closed_form",
    "classify_schoenberg",
    "classify_winkler",
    "qec",
    "qec_cycle",
    "qec_theta1_bounds",
    "witness_quadratic_form",
    "classification_sweep",
    "sweep_to_csv",
    "sweep_to_json",
    "run_reference_suite",
]
