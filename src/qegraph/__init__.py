"""Quadratic embeddability of connected graphs.

A graph is quadratically embeddable when its vertices map into a Hilbert
space so that squared distances between images equal graph distances.  The
package decides membership three independent ways (closed form for theta
graphs, conditional negative definiteness of the distance matrix, positive
semidefiniteness of a spanning-tree kernel), computes the quadratic
embedding constant, reconstructs explicit embeddings, and recomputes a suite
of bundled reference values for the theta-graph classification.

The package re-exports the public names of each module, as its ``__all__``
declares them.
"""

from . import analysis, config, graphs, spectra, winkler
from .analysis import *  # noqa: F403
from .config import *  # noqa: F403
from .graphs import *  # noqa: F403
from .spectra import *  # noqa: F403
from .winkler import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *config.__all__,
    *graphs.__all__,
    *spectra.__all__,
    *winkler.__all__,
    *analysis.__all__,
]
