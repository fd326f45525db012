"""Symmetric eigensolving and (conditional) definiteness tests, float and exact.

The float route uses LAPACK's symmetric eigensolver through numpy; the exact
route uses an LDL^T factorization with diagonal pivoting over rationals,
which decides positive semidefiniteness without any tolerance and produces
an explicit negativity certificate when the answer is no.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, validate_mode

__all__ = [
    "SpectraError",
    "SpectrumResult",
    "PsdVerdict",
    "CndVerdict",
    "eigen_sym",
    "is_psd",
    "is_cnd",
    "max_eig_on_ones_complement",
    "reduce_ones_complement",
    "ones_reflector",
    "psd_certificate_exact",
    "format_matrix_text",
    "parse_matrix_text",
    "parse_matrix_text_exact",
]


class SpectraError(ValueError):
    """Invalid matrix input for a spectral operation."""


# Deprecated alias kept importable for one release: the LAPACK eigensolver has
# no sweep limit, and its failures are raised as SpectraError.
JacobiConvergenceError = SpectraError


def _as_float_sym(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise SpectraError("matrix entries must be finite")
    if not (a == a.T).all():
        raise SpectraError("matrix must be exactly symmetric")
    return a


def _as_fraction_rows(m) -> list[list[Fraction]]:
    if isinstance(m, np.ndarray):
        rows = [[Fraction(x) for x in row] for row in m.tolist()]
    else:
        rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise SpectraError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise SpectraError("matrix must be exactly symmetric")
    return rows


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenvalues in descending order, matching orthonormal eigenvector
    columns, and the worst residual max|Mv - lambda v|."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def eigen_sym(m) -> SpectrumResult:
    """Full eigendecomposition of a symmetric matrix by LAPACK's
    divide-and-conquer solver (``numpy.linalg.eigh``, driver dsyevd).

    A failure inside the solver is raised as SpectraError.
    """
    a = _as_float_sym(m)
    n = a.shape[0]
    if n == 0:
        return SpectrumResult(np.zeros(0), np.zeros((0, 0)), 0.0)
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise SpectraError(f"eigensolver failed on a {n}x{n} matrix: {err}") from None
    # eigh returns ascending order; the contract is descending
    lam = lam[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    residual = float(np.abs(a @ vecs - vecs * lam).max())
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return SpectrumResult(lam, vecs, residual)


@dataclass(frozen=True, eq=False)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test.

    ``certificate`` is only present for a negative verdict: a vector v with
    <v, Mv> < 0, re-validated before being returned (``certificate_value``
    holds that quadratic form, a float or an exact Fraction).
    """

    is_psd: bool
    mode_used: str
    lambda_min: float | None = None
    lambda_max: float | None = None
    certificate: tuple | None = None
    certificate_value: object | None = None


def _quad_form_exact(rows: list[list[Fraction]], v: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            row = rows[i]
            total += vi * sum(row[j] * vj for j, vj in enumerate(v) if vj)
    return total


def psd_certificate_exact(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """None iff the rational symmetric matrix is PSD; otherwise an exact
    vector v with <v, Mv> < 0.

    Uses LDL^T elimination with diagonal pivoting: a negative pivot (or a
    zero diagonal with a non-zero residual row) yields a certificate that is
    lifted back through the eliminations.  The elimination recurses once
    per pivot; a matrix too large for the interpreter's recursion limit
    raises SpectraError.
    """
    try:
        return _ldl_certificate(rows)
    except RecursionError:
        raise SpectraError(
            f"exact elimination of a {len(rows)}x{len(rows)} matrix exceeds the "
            "interpreter's recursion limit"
        ) from None


def _ldl_certificate(rows: list[list[Fraction]]) -> list[Fraction] | None:
    n = len(rows)
    if n == 0:
        return None
    k = max(range(n), key=lambda i: rows[i][i])
    pivot = rows[k][k]
    zero = Fraction(0)
    if pivot <= 0:
        # every diagonal entry is <= 0 here
        for i in range(n):
            if rows[i][i] < 0:
                cert = [zero] * n
                cert[i] = Fraction(1)
                return cert
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != 0:
                    cert = [zero] * n
                    cert[i] = Fraction(1)
                    cert[j] = Fraction(-1) if rows[i][j] > 0 else Fraction(1)
                    return cert
        return None
    keep = [i for i in range(n) if i != k]
    col = [rows[i][k] for i in keep]
    schur = [
        [rows[a][b] - col[ia] * col[ib] / pivot for ib, b in enumerate(keep)]
        for ia, a in enumerate(keep)
    ]
    sub = _ldl_certificate(schur)
    if sub is None:
        return None
    cert = [zero] * n
    for ia, a in enumerate(keep):
        cert[a] = sub[ia]
    cert[k] = -sum(c * s for c, s in zip(col, sub)) / pivot
    return cert


def _is_psd_exact(rows: list[list[Fraction]]) -> PsdVerdict:
    cert = psd_certificate_exact(rows)
    if cert is None:
        return PsdVerdict(is_psd=True, mode_used="exact")
    value = _quad_form_exact(rows, cert)
    if value >= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="exact",
        certificate=tuple(cert),
        certificate_value=value,
    )


def _is_psd_float(a: np.ndarray, tol: Tolerances) -> tuple[PsdVerdict, float]:
    if a.shape[0] == 0:
        return PsdVerdict(is_psd=True, mode_used="float"), 1.0
    res = eigen_sym(a)
    lam_max = float(res.eigenvalues[0])
    lam_min = float(res.eigenvalues[-1])
    bound = tol.psd_rel * max(1.0, lam_max)
    if lam_min >= -bound:
        verdict = PsdVerdict(is_psd=True, mode_used="float", lambda_min=lam_min, lambda_max=lam_max)
    else:
        vec = res.eigenvectors[:, -1].copy()
        value = float(vec @ a @ vec)
        if value >= 0:
            raise SpectraError("internal error: float certificate failed re-validation")
        verdict = PsdVerdict(
            is_psd=False,
            mode_used="float",
            lambda_min=lam_min,
            lambda_max=lam_max,
            certificate=tuple(vec.tolist()),
            certificate_value=value,
        )
    return verdict, bound


def is_psd(m, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> PsdVerdict:
    """Positive-semidefiniteness of a symmetric matrix.

    mode "float" decides from the eigenvalues computed by eigen_sym with the
    relative tolerance
    tol.psd_rel; "exact" decides over rationals with no tolerance (entries
    are converted exactly, so inputs must be integers, Fractions, or binary
    floats such as halves); "auto" runs the float test and escalates to exact
    when |lambda_min| is within tol.auto_escalation of the tolerance.
    """
    validate_mode(mode)
    if mode == "exact":
        return _is_psd_exact(_as_fraction_rows(m))
    a = _as_float_sym(m)
    verdict, bound = _is_psd_float(a, tol)
    if mode == "float":
        return verdict
    if verdict.lambda_min is not None and abs(verdict.lambda_min) < tol.auto_escalation * bound:
        exact = _is_psd_exact(_as_fraction_rows(m))
        return PsdVerdict(
            is_psd=exact.is_psd,
            mode_used="exact",
            lambda_min=verdict.lambda_min,
            lambda_max=verdict.lambda_max,
            certificate=exact.certificate,
            certificate_value=exact.certificate_value,
        )
    return verdict


def ones_reflector(n: int) -> np.ndarray:
    """Symmetric orthogonal matrix whose first column is the normalized
    all-ones vector; the remaining columns are an orthonormal basis of its
    orthogonal complement."""
    if n < 1:
        raise SpectraError(f"need at least one dimension, got {n}")
    if n == 1:
        return np.ones((1, 1))
    w = -np.full(n, 1.0 / math.sqrt(n))
    w[0] += 1.0
    h = np.eye(n) - (2.0 / float(w @ w)) * np.outer(w, w)
    return h


def _check_distance_matrix(d) -> np.ndarray:
    a = _as_float_sym(d)
    if a.size and (np.diag(a) != 0).any():
        raise SpectraError("distance matrix must have a zero diagonal")
    if a.size and (a < 0).any():
        raise SpectraError("distance matrix entries must be non-negative")
    return a


def reduce_ones_complement(d) -> tuple[np.ndarray, np.ndarray]:
    """Compression of a symmetric matrix to the orthogonal complement of the
    all-ones vector.  Returns (r, basis) with r = basis^T d basis and basis
    an orthonormal n x (n-1) matrix of columns orthogonal to ones."""
    a = _as_float_sym(d)
    n = a.shape[0]
    if n < 2:
        raise SpectraError("reduction needs at least 2 vertices")
    h = ones_reflector(n)
    basis = h[:, 1:]
    r = basis.T @ a @ basis
    r = (r + r.T) / 2.0
    return r, basis


def max_eig_on_ones_complement(d) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of d restricted to the orthogonal complement of the
    all-ones vector, with a unit maximizer in the original coordinates.
    Errors for 1x1 input (no admissible direction)."""
    r, basis = reduce_ones_complement(_check_distance_matrix(d))
    result = eigen_sym(r)
    value = float(result.eigenvalues[0])
    vec = basis @ result.eigenvectors[:, 0]
    return value, vec


@dataclass(frozen=True, eq=False)
class CndVerdict:
    """Outcome of a conditional-negative-definiteness test of a distance
    matrix.  For a negative verdict, ``certificate`` is a vector f with
    sum(f) = 0 and <f, Df> > 0 (the validated form in ``certificate_value``)."""

    is_cnd: bool
    mode_used: str
    max_eig: float | None = None
    certificate: tuple | None = None
    certificate_value: object | None = None


def _difference_reduction_neg(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    # entries of -U^T D U for the difference basis u_i = e_i - e_{i+1}
    n = len(rows)
    return [
        [
            -(rows[i][j] - rows[i][j + 1] - rows[i + 1][j] + rows[i + 1][j + 1])
            for j in range(n - 1)
        ]
        for i in range(n - 1)
    ]


def _lift_difference_certificate(v: list[Fraction], n: int) -> list[Fraction]:
    f = [Fraction(0)] * n
    prev = Fraction(0)
    for i in range(n - 1):
        f[i] = v[i] - prev
        prev = v[i]
    f[n - 1] = -prev
    return f


def _is_cnd_exact(d) -> CndVerdict:
    rows = _as_fraction_rows(d)
    n = len(rows)
    if n < 2:
        return CndVerdict(is_cnd=True, mode_used="exact")
    reduced = _difference_reduction_neg(rows)
    cert = psd_certificate_exact(reduced)
    if cert is None:
        return CndVerdict(is_cnd=True, mode_used="exact")
    f = _lift_difference_certificate(cert, n)
    if sum(f) != 0:
        raise SpectraError("internal error: exact certificate is not orthogonal to ones")
    value = _quad_form_exact(rows, f)
    if value <= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="exact",
        certificate=tuple(f),
        certificate_value=value,
    )


def is_cnd(d, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> CndVerdict:
    """Conditional negative definiteness of a distance matrix: whether
    <f, Df> <= 0 for every f orthogonal to the all-ones vector.

    Decided as positive semidefiniteness of -D compressed to that
    complement; modes behave as in is_psd.
    """
    validate_mode(mode)
    a = _check_distance_matrix(d)
    n = a.shape[0]
    if mode == "exact":
        return _is_cnd_exact(d)
    if n < 2:
        return CndVerdict(is_cnd=True, mode_used="float")
    r, basis = reduce_ones_complement(a)
    verdict, bound = _is_psd_float(-r, tol)
    max_eig = -verdict.lambda_min if verdict.lambda_min is not None else None
    if mode == "auto" and abs(verdict.lambda_min) < tol.auto_escalation * bound:
        exact = _is_cnd_exact(d)
        return CndVerdict(
            is_cnd=exact.is_cnd,
            mode_used="exact",
            max_eig=max_eig,
            certificate=exact.certificate,
            certificate_value=exact.certificate_value,
        )
    if verdict.is_psd:
        return CndVerdict(is_cnd=True, mode_used="float", max_eig=max_eig)
    f = basis @ np.asarray(verdict.certificate)
    value = float(f @ a @ f)
    if value <= 0 or abs(float(f.sum())) > 1e-8:
        raise SpectraError("internal error: float certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="float",
        max_eig=max_eig,
        certificate=tuple(f.tolist()),
        certificate_value=value,
    )


def _format_entry(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def format_matrix_text(m, exact: bool = False) -> str:
    """Render a matrix in the text format: first line the dimension, then one
    whitespace-separated row per line.  With exact=True entries are written
    as exact rationals p/q."""
    if isinstance(m, np.ndarray):
        rows = m.tolist()
    else:
        rows = [list(row) for row in m]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise SpectraError("matrix must be square")
    lines = [str(n)]
    for row in rows:
        if exact:
            lines.append(" ".join(str(Fraction(x)) for x in row))
        else:
            lines.append(" ".join(_format_entry(x) for x in row))
    return "\n".join(lines) + "\n"


def _matrix_tokens(text: str) -> list[list[str]]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line.split())
    if not lines:
        raise SpectraError("matrix text is empty")
    if len(lines[0]) != 1:
        raise SpectraError("first line must hold the dimension alone")
    try:
        n = int(lines[0][0])
    except ValueError:
        raise SpectraError(f"invalid dimension {lines[0][0]!r}") from None
    rows = lines[1:]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise SpectraError(f"expected {n} rows of {n} entries")
    return rows


def parse_matrix_text_exact(text: str) -> list[list[Fraction]]:
    rows = _matrix_tokens(text)
    try:
        return [[Fraction(tok) for tok in row] for row in rows]
    except (ValueError, ZeroDivisionError) as err:
        raise SpectraError(f"invalid matrix entry: {err}") from None


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the matrix text format into a float array; entries may be
    integers, decimals, or p/q rationals."""
    return np.array([[float(x) for x in row] for row in parse_matrix_text_exact(text)])
