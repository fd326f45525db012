"""Spans and counts around the package's public functions, from outside.

``Tracer.installed`` swaps each traced function for a wrapper in every
``qegraph`` module namespace that holds it (the package imports names with
``from .x import y``, so one module attribute is not enough), and restores
the originals on exit.  A span is ``[name, start, end, parent, operation]``
with the operation's own span as root; self time is a span's duration minus
its children's.  Exact elimination and certificate lifting are private to ``spectra``, so
they appear as the self time of ``is_psd`` and ``is_cnd``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

import qegraph.analysis
import qegraph.graphs
import qegraph.spectra
import qegraph.winkler

import workloads

# (span name, module that defines the function, attribute)
TRACED = (
    ("graphs.build", workloads, "build_graph"),
    ("graphs.distance_matrix", qegraph.graphs, "distance_matrix"),
    ("spectra.eigen_sym", qegraph.spectra, "eigen_sym"),
    ("spectra.is_psd", qegraph.spectra, "is_psd"),
    ("spectra.is_cnd", qegraph.spectra, "is_cnd"),
    ("spectra.reduce_ones_complement", qegraph.spectra, "reduce_ones_complement"),
    ("winkler.default_orientation_and_tree", qegraph.winkler, "default_orientation_and_tree"),
    ("winkler.winkler_kernel", qegraph.winkler, "winkler_kernel"),
    ("winkler.reconstruct_embedding", qegraph.winkler, "reconstruct_embedding"),
    ("analysis.classify_theta_closed_form", qegraph.analysis, "classify_theta_closed_form"),
    ("analysis.classify_schoenberg", qegraph.analysis, "classify_schoenberg"),
    ("analysis.classify_winkler", qegraph.analysis, "classify_winkler"),
    ("analysis.qec", qegraph.analysis, "qec"),
)


def _matrix_key(m) -> bytes:
    a = np.asarray(m, dtype=float)
    return str(a.shape).encode() + (a + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counts of one traced pass, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._solved: set = set()
        self._measured: set = set()
        # name -> (before, after): count hooks, given the bound arguments
        # (and the result), run outside the span they describe
        self._hooks = {
            "graphs.distance_matrix": (self._on_distance_matrix, None),
            "spectra.eigen_sym": (self._on_eigen_sym, None),
            "spectra.is_psd": (None, self._on_decision),
            "spectra.is_cnd": (None, self._on_decision),
            "winkler.winkler_kernel": (None, self._on_kernel),
        }

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.ops]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """Root span of one operation; per-operation repeat tracking resets."""
        self._solved.clear()
        self._measured.clear()
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self.ops += 1

    def _wrap(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if before or after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if before:
                before(arguments)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(name, arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function wherever it is bound; restore on exit."""
        patched = []
        modules = [workloads] + [
            m for key, m in list(sys.modules.items()) if key == "qegraph" or key.startswith("qegraph.")
        ]
        for name, home, attr in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in patched:
                setattr(module, key, original)

    # -- counts --------------------------------------------------------

    def _on_distance_matrix(self, arguments) -> None:
        g = arguments["g"]
        self.counts["distance_matrix.calls"] += 1
        if id(g) in self._measured:
            self.counts["distance_matrix.repeats"] += 1
        else:
            self._measured.add(id(g))
            self.counts["bfs_steps"] += g.n * (g.n + 2 * g.n_edges)

    def _on_eigen_sym(self, arguments) -> None:
        m = np.asarray(arguments["m"], dtype=float)
        n = m.shape[0]
        self.counts["eigen_sym.calls"] += 1
        self.counts["eigen_sym.flops"] += n**3
        self.maxima["eigen_sym.dim_max"] = max(self.maxima["eigen_sym.dim_max"], n)
        # the same eigenproblem, up to sign, counts as a repeat
        key = _matrix_key(m)
        if key in self._solved:
            self.counts["eigen_sym.repeats"] += 1
        self._solved.update((key, _matrix_key(-m)))

    def _on_decision(self, name: str, arguments, result) -> None:
        mode = arguments["mode"]
        if mode == "auto":
            self.counts["auto.decisions"] += 1
        if result.mode_used != "exact":
            return
        if mode == "auto":
            self.counts["auto.escalations"] += 1
        if name == "spectra.is_psd":
            dim = len(arguments["m"])
        else:
            dim = len(arguments["d"]) - 1  # is_cnd eliminates the reduction to n - 1
        self.counts["exact.calls"] += 1
        self.counts["exact.dim_sum"] += dim
        if result.certificate is not None:
            support = [Fraction(x) for x in result.certificate if x]
            self.counts["certificate.count"] += 1
            self.counts["certificate.support_sum"] += len(support)
            self.maxima["certificate.bits_max"] = max(
                self.maxima["certificate.bits_max"], max(map(_bits, support))
            )

    def _on_kernel(self, name: str, arguments, result) -> None:
        self.counts["winkler_kernel.dim_sum"] += result.dim

    # -- metrics -------------------------------------------------------

    def layer_metrics(
        self, scales: list[float], untraced_ops_per_s: float, traced_ops_per_s: float
    ) -> dict[str, float]:
        """Per-layer metrics, per traced operation where they are totals.
        Span durations are multiplied by their operation's entry in scales."""
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            seconds = (end - start) * scales[op]
            total[name] += seconds
            own[name] += seconds
            if parent >= 0:
                own[self.spans[parent][0]] -= seconds
        ops = max(self.ops, 1)
        c = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {
            "spectra.eigen_sym.s": total["spectra.eigen_sym"] / ops,
            "spectra.eigen_sym.calls": c["eigen_sym.calls"] / ops,
            "spectra.eigen_sym.dim_max": self.maxima["eigen_sym.dim_max"],
            "spectra.eigen_sym.flops_computed": c["eigen_sym.flops"] / ops,
            "spectra.eigen_sym.repeat_ratio": ratio(c["eigen_sym.repeats"], c["eigen_sym.calls"]),
            "spectra.is_psd.self_s": own["spectra.is_psd"] / ops,
            "spectra.is_cnd.self_s": own["spectra.is_cnd"] / ops,
            "spectra.exact.calls": c["exact.calls"] / ops,
            "spectra.exact.dim_sum": c["exact.dim_sum"] / ops,
            "spectra.escalation_ratio": ratio(c["auto.escalations"], c["auto.decisions"]),
            "spectra.certificate.count": c["certificate.count"] / ops,
            "spectra.certificate.support_sum": c["certificate.support_sum"] / ops,
            "spectra.certificate.bits_max": self.maxima["certificate.bits_max"],
            "spectra.reduce_ones_complement.s": total["spectra.reduce_ones_complement"] / ops,
            "graphs.build.s": total["graphs.build"] / ops,
            "graphs.distance_matrix.s": total["graphs.distance_matrix"] / ops,
            "graphs.distance_matrix.calls": c["distance_matrix.calls"] / ops,
            "graphs.distance_matrix.repeat_ratio": ratio(
                c["distance_matrix.repeats"], c["distance_matrix.calls"]
            ),
            "graphs.bfs_steps": c["bfs_steps"] / ops,
            "winkler.default_orientation_and_tree.s": total["winkler.default_orientation_and_tree"] / ops,
            "winkler.winkler_kernel.s": total["winkler.winkler_kernel"] / ops,
            "winkler.winkler_kernel.dim_sum": c["winkler_kernel.dim_sum"] / ops,
            "winkler.reconstruct_embedding.self_s": own["winkler.reconstruct_embedding"] / ops,
        }
        for fn in ("classify_theta_closed_form", "classify_schoenberg", "classify_winkler", "qec"):
            out[f"analysis.{fn}.s"] = total[f"analysis.{fn}"] / ops
            out[f"analysis.{fn}.self_s"] = own[f"analysis.{fn}"] / ops
        out["trace.overhead_ratio"] = ratio(traced_ops_per_s, untraced_ops_per_s)
        return out
