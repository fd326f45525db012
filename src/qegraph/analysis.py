"""Deciding quadratic embeddability and computing the embedding constant.

Three independent decision routes are provided and kept separate on purpose:
the closed-form rule for theta graphs, the conditional-negative-definiteness
test on the distance matrix, and the positive-semidefiniteness test on the
spanning-tree kernel.  Agreement across routes is part of the verification
surface, so none of them delegates to another.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import fixtures
from .config import DEFAULT_TOLERANCES, Tolerances, require_int, validate_mode
from .graphs import Graph, ThetaSpec, distance_matrix, make_cycle, make_theta
from .spectra import CndVerdict, is_cnd, is_psd
from .winkler import OrientedTree, build_theta1_block_kernel, winkler_kernel

__all__ = [
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


class CheckError(RuntimeError):
    """A computed value failed a consistency check or disagrees with a
    bundled reference value."""


def _require(condition: bool, message: str) -> None:
    # an explicit raise, unlike assert, also runs under python -O
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class QeVerdict:
    """Outcome of one decision route.

    evidence holds only JSON-safe scalars and strings so verdicts can be
    serialized without further translation.
    """

    method: str
    is_qe: bool
    evidence: dict
    mode_used: str | None = None

    @property
    def decision(self) -> str:
        return "QE" if self.is_qe else "NonQE"


def _jsonable(x):
    """None, a float, or an exact rational as 'p/q'."""
    if isinstance(x, Fraction):
        return str(x)
    return None if x is None else float(x)


def _half(x):
    return None if x is None else x / 2


def _single_vertex(method: str) -> QeVerdict:
    # one vertex embeds at a point: neither route has a pair of vertices
    return QeVerdict(method=method, is_qe=True, evidence={"note": "single vertex"})


def _route_verdict(method: str, is_qe: bool, verdict, evidence: dict, value) -> QeVerdict:
    """A matrix route's QeVerdict.  A negative certificate joins the evidence
    with ``value``, its value as the route reports it (Winkler: K's, half 2K's)."""
    if verdict.certificate is not None:
        evidence["certificate"] = list(verdict.certificate)
        evidence["certificate_value"] = _jsonable(value)
    return QeVerdict(method=method, is_qe=is_qe, evidence=evidence, mode_used=verdict.mode_used)


def classify_theta_closed_form(spec: ThetaSpec) -> QeVerdict:
    """Decide embeddability of a theta graph from its leg lengths alone."""
    a, b, c = sorted(spec.legs)  # spec's legs are checked; normalizing only sorts them
    if a == 1:
        is_qe, rule = True, "alpha = 1"
    elif a == 2 and b == 3 and c in (3, 5, 7):
        is_qe, rule = True, "(alpha, beta) = (2, 3) and gamma in {3, 5, 7}"
    elif a == 2 and b == 2:
        is_qe, rule = False, "alpha = beta = 2"
    elif a == 2 and b == 3 and c % 2 == 0:
        is_qe, rule = False, "(alpha, beta) = (2, 3) and gamma even"
    elif a == 2 and b == 3:
        is_qe, rule = False, "(alpha, beta) = (2, 3) and gamma odd >= 9"
    elif a == 2:
        is_qe, rule = False, "alpha = 2 and beta >= 4"
    else:
        is_qe, rule = False, "alpha >= 3"
    evidence = {"legs": [a, b, c], "rule": rule}
    return QeVerdict(method="closed-form", is_qe=is_qe, evidence=evidence)


def _schoenberg(g: Graph, mode: str, tol: Tolerances) -> CndVerdict:
    """``is_cnd`` on the distance matrix of g, decided once per graph, mode
    and tolerance and kept on the graph, in a memo added on first use."""
    memo = vars(g).setdefault("_cnd", {})  # (mode, tol) -> CndVerdict
    verdict = memo.get((mode, tol))
    if verdict is None:
        verdict = memo[mode, tol] = is_cnd(distance_matrix(g), mode=mode, tol=tol)
    return verdict


def classify_schoenberg(
    g: Graph,
    mode: str = "auto",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> QeVerdict:
    """Decide embeddability from conditional negative definiteness of the
    distance matrix.

    The decision is made once per graph, mode and tolerance and kept on the
    graph; ``qec`` reads the same auto-mode decision.
    """
    if g.n == 1:
        return _single_vertex("schoenberg")
    verdict = _schoenberg(g, mode, tol)
    evidence = {"max_eig_on_ones_complement": _jsonable(verdict.max_eig)}
    return _route_verdict(
        "schoenberg", verdict.is_cnd, verdict, evidence, verdict.certificate_value
    )


def classify_winkler(
    g: Graph,
    tree: OrientedTree | None = None,
    mode: str = "auto",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> QeVerdict:
    """Decide embeddability from positive semidefiniteness of the
    spanning-tree kernel K.

    The decision is made on the integer matrix 2K, so exact elimination
    needs no rational scaling; lambda_min, lambda_max and the certificate
    value in the evidence are halved back to K's."""
    if g.n == 1:
        return _single_vertex("winkler")
    kern = winkler_kernel(g, tree)
    # K's verdict: diag(K) = 1 gives lambda_max(K) >= 1, so the float bound
    # psd_rel * max(1, lambda_max) and the auto window scale by exactly 2, as
    # the entries do.  LAPACK's eigenvalues of 2K are twice K's up to the
    # rounding of its tridiagonal solver, so only a lambda_min within that
    # rounding of the bound could decide otherwise, and auto re-decides
    # such a kernel exactly.  winkler.reconstruct_embedding factors the same
    # kept kernel, and relies on the same scaling when its fallback for a
    # K that is not positive definite applies the float rule to 2K.
    verdict = is_psd(kern.two_k, mode=mode, tol=tol)
    evidence = {
        "kernel_dim": kern.dim,
        "lambda_min": _jsonable(_half(verdict.lambda_min)),
        "lambda_max": _jsonable(_half(verdict.lambda_max)),
    }
    return _route_verdict(
        "winkler", verdict.is_psd, verdict, evidence, _half(verdict.certificate_value)
    )


@dataclass(frozen=True)
class QecValue:
    """Quadratic embedding constant: the largest eigenvalue of the distance
    matrix restricted to the orthogonal complement of the all-ones vector,
    with a unit maximizer.

    All three fields come from one ``is_cnd(d, mode="auto")`` decision, so
    ``is_qe`` is the Schoenberg verdict on the same matrix: the sign of
    ``value``, re-decided in exact arithmetic when ``value`` is too close to
    zero to trust.
    """

    value: float
    maximizer: tuple[float, ...]
    is_qe: bool


def qec(g: Graph, tol: Tolerances = DEFAULT_TOLERANCES) -> QecValue:
    """Quadratic embedding constant of g, with a unit maximizer.

    Shares the graph's auto-mode Schoenberg decision with
    ``classify_schoenberg(g, mode="auto", tol=tol)``: whichever runs first
    decides, the other reads the kept verdict.  The maximizer is re-checked
    against the distance matrix on every call.
    """
    if g.n == 1:
        raise ValueError("the embedding constant needs at least 2 vertices")
    d = distance_matrix(g)
    verdict = _schoenberg(g, "auto", tol)
    value = verdict.max_eig
    vec = np.array(verdict.maximizer)
    # each message is formatted only when its check fails; a NaN fails
    norm = math.sqrt(float(vec @ vec))
    if not abs(norm - 1.0) <= 1e-10:
        raise CheckError(f"internal error: maximizer norm {norm} is not 1")
    total = math.fsum(verdict.maximizer)
    if not abs(total) <= 1e-10:
        raise CheckError(f"internal error: maximizer coordinate sum {total} is not 0")
    attained = float(vec @ d @ vec)
    if not abs(attained - value) <= 1e-8:
        raise CheckError(f"internal error: maximizer attains {attained}, eigenvalue is {value}")
    return QecValue(value=value, maximizer=verdict.maximizer, is_qe=verdict.is_cnd)


def qec_cycle(m: int) -> float:
    """Closed form for the embedding constant of the cycle on m vertices."""
    m = require_int(m, "m")
    if m < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {m}")
    if m % 2 == 0:
        return 0.0
    return -1.0 / (4.0 * math.cos(math.pi / m) ** 2)


def qec_theta1_bounds(beta: int, gamma: int) -> tuple[float, float]:
    """Closed-form bracket for the embedding constant of a theta graph with
    legs (1, beta, gamma), 2 <= beta <= gamma.  Exact value 0 unless both
    beta and gamma are even."""
    beta, gamma = require_int(beta, "beta"), require_int(gamma, "gamma")
    if not 2 <= beta <= gamma:
        raise ValueError(f"need 2 <= beta <= gamma, got ({beta}, {gamma})")
    if beta % 2 == 1 or gamma % 2 == 1:
        return (0.0, 0.0)
    low = -1.0 / (4.0 * math.cos(math.pi / (gamma + 1.0)) ** 2)
    return (low, 0.0)


def witness_quadratic_form(k: int) -> int:
    """Evaluate the fixed witness vector against the distance matrix of
    Theta(2, 3, 2k+7), restricted to the 13 designated vertices.

    The value is independent of k because the witness sums to zero on each
    side of the block whose distances grow with k.
    """
    names = fixtures.witness_vertex_names(k)  # checks k first
    spec = ThetaSpec(2, 3, 2 * k + 7)
    d = distance_matrix(make_theta(spec))
    idx = np.array([spec.vertex_index(name) for name in names])
    sub = d[np.ix_(idx, idx)]
    expected = fixtures.WITNESS_BASE + k * fixtures.WITNESS_STEP
    _require(
        np.array_equal(sub, expected),
        f"designated-vertex distances of {spec.uri()} do not match the "
        "base-plus-k-step decomposition",
    )
    coeffs = np.array(fixtures.WITNESS_COEFFS, dtype=object)
    return int(coeffs @ sub.astype(object) @ coeffs)


@dataclass(frozen=True)
class SweepRow:
    spec: ThetaSpec
    closed_form: bool
    schoenberg: bool
    winkler: bool
    qec: float
    qec_qe: bool

    @property
    def consistent(self) -> bool:
        return self.closed_form == self.schoenberg == self.winkler == self.qec_qe


@dataclass(frozen=True)
class SweepReport:
    max_vertices: int
    mode: str
    rows: tuple[SweepRow, ...] = field(repr=False)

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.rows)


def classification_sweep(
    max_vertices: int = 18,
    mode: str = "auto",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SweepReport:
    """Classify every theta graph with at most max_vertices vertices by all
    three routes and record the embedding constant.

    Enumerates normalized legs alpha <= beta <= gamma with
    alpha + beta + gamma - 1 <= max_vertices.
    """
    max_vertices = require_int(max_vertices, "max_vertices")
    validate_mode(mode)
    if max_vertices < 5:
        raise ValueError(f"max_vertices must be at least 5, got {max_vertices}")
    rows = []
    budget = max_vertices + 1  # alpha + beta + gamma
    for a in range(1, budget // 3 + 1):
        for b in range(max(a, 2), (budget - a) // 2 + 1):
            for c in range(max(b, 2), budget - a - b + 1):
                spec = ThetaSpec(a, b, c)
                g = make_theta(spec)
                constant = qec(g, tol=tol)
                rows.append(
                    SweepRow(
                        spec=spec,
                        closed_form=classify_theta_closed_form(spec).is_qe,
                        schoenberg=classify_schoenberg(g, mode=mode, tol=tol).is_qe,
                        winkler=classify_winkler(g, mode=mode, tol=tol).is_qe,
                        qec=constant.value,
                        qec_qe=constant.is_qe,
                    )
                )
    rows.sort(key=lambda r: (r.spec.n_vertices, r.spec.legs))
    return SweepReport(max_vertices=max_vertices, mode=mode, rows=tuple(rows))


def sweep_to_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["alpha", "beta", "gamma", "n", "closed_form", "schoenberg", "winkler", "qec"]
    )
    for r in report.rows:
        a, b, c = r.spec.legs
        writer.writerow(
            [
                a,
                b,
                c,
                r.spec.n_vertices,
                "QE" if r.closed_form else "NonQE",
                "QE" if r.schoenberg else "NonQE",
                "QE" if r.winkler else "NonQE",
                f"{r.qec:.12g}",
            ]
        )
    return buf.getvalue()


def sweep_to_json(report: SweepReport) -> str:
    payload = {
        "max_vertices": report.max_vertices,
        "mode": report.mode,
        "all_consistent": report.all_consistent,
        "rows": [
            {
                "legs": list(r.spec.legs),
                "n": r.spec.n_vertices,
                "closed_form": r.closed_form,
                "schoenberg": r.schoenberg,
                "winkler": r.winkler,
                "qec": r.qec,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2)


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _check(name: str, fn) -> FixtureResult:
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except CheckError as exc:
        detail = str(exc)
        passed = False
    except Exception as exc:  # a broken reference input is a failed check
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return FixtureResult(
        name=name,
        passed=passed,
        detail=detail,
        elapsed=time.perf_counter() - start,
    )


def run_reference_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[FixtureResult, ...]:
    """Recompute every bundled reference value from scratch and compare: one
    FixtureResult per entry of the ``checks`` list at the end, in its order."""
    kl_pairs = tuple((k, l) for k in range(2, 7) for l in range(k, 7))

    def kernel_matrix_check():
        spec = fixtures.QE_THETA_SPECS[0]
        tree = fixtures.reference_tree(spec)
        kern = winkler_kernel(tree.graph, tree)
        expected = fixtures.reference_two_k(spec)
        _require(
            np.array_equal(kern.two_k, expected),
            f"2K over the bundled tree of {spec.uri()} differs from the "
            "stored matrix",
        )
        return "2K matches the stored 6x6 integer matrix"

    def spectrum_check(spec):
        tree = fixtures.reference_tree(spec)
        kern = winkler_kernel(tree.graph, tree)
        got = np.linalg.eigvalsh(kern.two_k.astype(float))[::-1]  # descending
        want = fixtures.reference_spectrum(spec)
        err = float(np.max(np.abs(got - want)))
        _require(err <= 1e-9, f"spectrum error {err} exceeds 1e-9")
        return f"spectrum matches closed forms, max error {err:.2e}"

    def block_check(parity):
        extra = 0 if parity == "even" else 1
        for k, l in kl_pairs:
            tree = fixtures.theta1_tree(k, l, parity)
            kern = winkler_kernel(tree.graph, tree)
            block = build_theta1_block_kernel(k, l, parity).two_k
            _require(
                np.array_equal(kern.two_k, block),
                f"kernel of Theta(1, {2 * k}, {2 * l + extra}) differs from its "
                "block form",
            )
        return f"tree kernels equal block forms for {len(kl_pairs)} {parity}-leg graphs"

    def gershgorin_check():
        for parity in ("even", "odd"):
            for k, l in kl_pairs:
                block = build_theta1_block_kernel(k, l, parity).two_k.astype(float)
                radius = np.sum(np.abs(block), axis=1) - np.abs(np.diag(block))
                _require(np.all(np.diag(block) == 2.0), "diagonal is not 2")
                _require(
                    np.all(radius <= 2.0),
                    f"off-diagonal row sum exceeds 2 for ({k}, {l}, {parity})",
                )
        return "unit-diagonal halves have off-diagonal row sums at most 1"

    def witness_value_check():
        for k in range(1, 51):
            value = witness_quadratic_form(k)
            _require(
                value == fixtures.WITNESS_VALUE,
                f"witness value {value} at k={k}, expected {fixtures.WITNESS_VALUE}",
            )
        return f"witness form equals {fixtures.WITNESS_VALUE} for k = 1..50"

    def witness_decomposition_check():
        coeffs = np.array(fixtures.WITNESS_COEFFS, dtype=np.int64)
        step_part = int(coeffs @ fixtures.WITNESS_STEP @ coeffs)
        head, tail = int(np.sum(coeffs[:7])), int(np.sum(coeffs[7:]))
        _require(
            head == 0 and tail == 0,
            f"witness blocks sum to ({head}, {tail}), expected (0, 0)",
        )
        _require(step_part == 0, f"k-dependent part contributes {step_part}")
        base_part = int(coeffs @ fixtures.WITNESS_BASE @ coeffs)
        _require(
            base_part == fixtures.WITNESS_VALUE,
            f"k-free part is {base_part}, expected {fixtures.WITNESS_VALUE}",
        )
        return "witness kills the k-dependent block and fixes the value"

    def sweep_check():
        report = classification_sweep(max_vertices=18, mode="auto", tol=tol)
        _require(report.all_consistent, "decision routes disagree on some theta graph")
        got = {r.spec.legs for r in report.rows if r.schoenberg}
        want = {r.spec.legs for r in report.rows if r.spec.legs[0] == 1}
        want |= {(2, 3, 3), (2, 3, 5), (2, 3, 7)}
        _require(got == want, f"embeddable set mismatch: {sorted(got ^ want)}")
        return f"all {len(report.rows)} theta graphs up to 18 vertices agree"

    def corollary_check():
        for beta, gamma in ((2, 2), (2, 4), (4, 6), (3, 3), (2, 5), (3, 6), (5, 7)):
            g = make_theta(ThetaSpec(1, beta, gamma))
            value = qec(g, tol=tol).value
            low, high = qec_theta1_bounds(beta, gamma)
            _require(
                low - 1e-9 <= value <= high + 1e-9,
                f"QEC of Theta(1, {beta}, {gamma}) is {value}, outside [{low}, {high}]",
            )
        return "length-1-leg constants sit in their closed-form brackets"

    def cycle_check():
        for m in range(3, 16):
            value = qec(make_cycle(m), tol=tol).value
            want = qec_cycle(m)
            _require(
                abs(value - want) <= 1e-9,
                f"QEC of the {m}-cycle is {value}, closed form {want}",
            )
        return "cycle constants match closed forms for 3 <= m <= 15"

    checks = [
        ("kernel-2-3-3-matrix", kernel_matrix_check),
        ("spectrum-2-3-3", partial(spectrum_check, fixtures.QE_THETA_SPECS[0])),
        ("spectrum-2-3-5", partial(spectrum_check, fixtures.QE_THETA_SPECS[1])),
        ("spectrum-2-3-7", partial(spectrum_check, fixtures.QE_THETA_SPECS[2])),
        ("block-kernel-even", partial(block_check, "even")),
        ("block-kernel-odd", partial(block_check, "odd")),
        ("block-kernel-gershgorin", gershgorin_check),
        ("witness-value", witness_value_check),
        ("witness-decomposition", witness_decomposition_check),
        ("theorem-sweep-18", sweep_check),
        ("corollary-qec-bounds", corollary_check),
        ("cycle-qec", cycle_check),
    ]
    return tuple(_check(name, fn) for name, fn in checks)
