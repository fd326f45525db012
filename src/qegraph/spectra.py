"""Symmetric eigensolving and (conditional) definiteness tests, float and exact.

The float route uses LAPACK's symmetric eigensolver through numpy.  The exact
route scales a rational matrix to integers, splits the index set into the
irreducible blocks of the nonzero pattern, and runs one iterative
fraction-free (Bareiss) symmetric elimination with diagonal pivoting over
Python ints on the lower triangle of each block.  That decides positive
semidefiniteness without any tolerance and produces an explicit negativity
certificate when the answer is no: a failing block's certificate padded
with zeros.  Exact conditional negative definiteness reduces the distance
matrix over differences e_i - e_r at a central vertex r, which keeps the
entries small and, on trees, splits the reduction into one block per
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

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
    "reduce_ones_complement",
]


class SpectraError(ValueError):
    """Invalid matrix input for a spectral operation."""


# In auto mode a float verdict is re-decided exactly whenever |lambda_min| is
# below this multiple of the float tolerance psd_rel * max(1, lambda_max).
_AUTO_ESCALATION = 10.0


def _square_rows(m) -> list[list]:
    try:
        rows = [list(row) for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    except TypeError:
        raise SpectraError("matrix must be square") from None
    if any(len(row) != len(rows) for row in rows):
        raise SpectraError("matrix must be square")
    return rows


def _as_float_sym(m) -> np.ndarray:
    rows = m if isinstance(m, np.ndarray) else _square_rows(m)
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SpectraError("matrix entries must be finite") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise SpectraError("matrix entries must be finite")
    if not (a == a.T).all():
        raise SpectraError("matrix must be exactly symmetric")
    # one memory order for every caller: a float certificate value such as
    # v @ a @ v sums in the same order whatever order m came in
    return np.ascontiguousarray(a)


def _as_integer_sym(m) -> tuple[list[list[int]], int]:
    """Integer rows A and the positive scale s with m = A / s exactly: s is
    the lcm of the entries' denominators, so A keeps every verdict of m."""
    # Each distinct entry is converted once.  The exact path builds no tuple
    # by spreading a row into arguments or from a generator (certificates are
    # built from lists): the interpreter keeps freed tuples of up to 19 items
    # on free lists, and such tuples pile up there, call after call.
    if isinstance(m, np.ndarray) and np.issubdtype(m.dtype, np.integer):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpectraError("matrix must be square")
        if not (m == m.T).all():
            raise SpectraError("matrix must be exactly symmetric")
        return m.tolist(), 1
    rows = _square_rows(m)
    try:
        exact = {x: Fraction(x) for x in {x for row in rows for x in row}}
    except (TypeError, ValueError, OverflowError):
        raise SpectraError("matrix entries must be finite") from None
    scale = reduce(math.lcm, (f.denominator for f in exact.values()), 1)
    scaled = {x: f.numerator * (scale // f.denominator) for x, f in exact.items()}
    rows = [[scaled[x] for x in row] for row in rows]
    if any(row[j] != rows[j][i] for i, row in enumerate(rows) for j in range(i)):
        raise SpectraError("matrix must be exactly symmetric")
    return rows, scale


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenvalues in descending order and the matching orthonormal
    eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_sym(m) -> SpectrumResult:
    """Full eigendecomposition of a symmetric matrix by LAPACK's
    divide-and-conquer solver (``numpy.linalg.eigh``, driver dsyevd).

    A failure inside the solver is raised as SpectraError.
    """
    a = _as_float_sym(m)
    n = a.shape[0]
    if n == 0:
        return SpectrumResult(np.zeros(0), np.zeros((0, 0)))
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise SpectraError(f"eigensolver failed on a {n}x{n} matrix: {err}") from None
    # eigh returns ascending order; the contract is descending
    lam = lam[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return SpectrumResult(lam, vecs)


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


def _quad_form(rows: list[list[int]], v: list[int]) -> int:
    support = [(i, vi) for i, vi in enumerate(v) if vi]
    return sum(vi * sum(rows[i][j] * vj for j, vj in support) for i, vi in support)


def _zero_pivot_certificate(low: list[list[int]]) -> list[int] | None:
    # every diagonal entry is <= 0 here: a negative one is a certificate by
    # itself, and on a zero diagonal any non-zero a_ij = low[j][i] gives
    # e_i -/+ e_j; an all-zero block is PSD
    m = len(low)
    for i in range(m):
        if low[i][i] < 0:
            return [int(k == i) for k in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if low[j][i]:
                v = [0] * m
                v[i], v[j] = 1, (-1 if low[j][i] > 0 else 1)
                return v
    return None


def _irreducible_blocks(rows: list[list[int]]) -> list[list[int]]:
    """The connected components of the nonzero pattern, each in increasing
    index order; the search stops once one component covers every index."""
    m = len(rows)
    seen = [False] * m
    found = 0
    blocks = []
    for start in range(m):
        if seen[start]:
            continue
        seen[start] = True
        found += 1
        block = [start]
        for u in block:  # grows while it is read: a breadth-first search
            if found == m:
                break
            for j, x in enumerate(rows[u]):
                if x and not seen[j]:
                    seen[j] = True
                    found += 1
                    block.append(j)
        block.sort()
        blocks.append(block)
    return blocks


def _bareiss_certificate(low: list[list[int]]) -> list[int] | None:
    """Fraction-free elimination of one symmetric block, given as its lower
    triangle low[i] = [a_i0, ..., a_ii], which it consumes."""
    pivots = []  # (position, pivot, pivot column over the block left after it)
    prev = 1
    while low:
        k = max(range(len(low)), key=lambda i: low[i][-1])
        p = low[k][-1]
        if p <= 0:
            break
        col = low.pop(k)
        del col[k:]
        for row in low[k:]:
            col.append(row.pop(k))
        for i, c in enumerate(col):
            if c:
                low[i] = [(p * x - c * y) // prev for x, y in zip(low[i], col)]
            elif p != prev:
                low[i] = [p * x // prev for x in low[i]]
        pivots.append((k, p, col))
        prev = p
    v = _zero_pivot_certificate(low)
    if v is None:
        return None
    for k, p, col in reversed(pivots):
        xk = -sum(a * b for a, b in zip(col, v))
        v = [p * x for x in v]
        v.insert(k, xk)
        g = reduce(math.gcd, v)
        v = [x // g for x in v]
    return v


def _integer_psd_certificate(rows: list[list[int]]) -> list[int] | None:
    """None iff the integer symmetric matrix is PSD; otherwise an integer
    vector v with gcd 1 and <v, Av> < 0.

    The index set first splits into the connected components of the nonzero
    pattern.  A symmetric matrix that permutes to block-diagonal form is PSD
    iff every block is, and <v, Av> = <v_B, A_BB v_B> for a v supported on
    one block B, so a failing block's certificate, padded with zeros at the
    other indices, is a certificate for the whole matrix.

    Each block is decided by fraction-free (Bareiss) symmetric elimination
    with diagonal pivoting on its lower triangle only: each step pivots on
    the first largest live diagonal entry p and updates the live block by
    (p a_ij - a_ik a_kj) / prev, where prev is the previous pivot.  The
    division is exact by Sylvester's identity, and the live block stays prev
    times the Schur complement, so it keeps the definiteness of the
    remainder.  When no positive pivot is left, the zero-pivot rules give a
    certificate on the live block, lifted back through the stored pivot
    columns: x_k = -(col_k . v) / p, scaled by p to stay integral.
    """
    for block in _irreducible_blocks(rows):
        low = [[rows[i][j] for j in block[: t + 1]] for t, i in enumerate(block)]
        cert = _bareiss_certificate(low)
        if cert is not None:
            v = [0] * len(rows)
            for i, x in zip(block, cert):
                v[i] = x
            return v
    return None


def _is_psd_exact(m) -> PsdVerdict:
    rows, scale = _as_integer_sym(m)
    cert = _integer_psd_certificate(rows)
    if cert is None:
        return PsdVerdict(is_psd=True, mode_used="exact")
    value = _quad_form(rows, cert)
    if value >= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="exact",
        certificate=tuple([Fraction(x) for x in cert]),
        certificate_value=Fraction(value, scale),
    )


def _is_psd_float(a: np.ndarray, tol: Tolerances) -> tuple[PsdVerdict, float, np.ndarray | None]:
    """The float verdict, its tolerance bound, and the unit eigenvector of
    lambda_min (None for an empty matrix)."""
    if a.shape[0] == 0:
        return PsdVerdict(is_psd=True, mode_used="float"), 1.0, None
    res = eigen_sym(a)
    lam_max = float(res.eigenvalues[0])
    lam_min = float(res.eigenvalues[-1])
    vec = res.eigenvectors[:, -1]
    bound = tol.psd_rel * max(1.0, lam_max)
    if lam_min >= -bound:
        verdict = PsdVerdict(is_psd=True, mode_used="float", lambda_min=lam_min, lambda_max=lam_max)
    else:
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
    return verdict, bound, vec


def is_psd(m, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> PsdVerdict:
    """Positive-semidefiniteness of a symmetric matrix.

    mode "float" decides from the eigenvalues computed by eigen_sym with the
    relative tolerance tol.psd_rel; "exact" decides with no tolerance by
    integer elimination (entries are scaled exactly to integers, so inputs
    must be integers, Fractions, or binary floats such as halves); "auto"
    runs the float test and re-decides exactly when |lambda_min| is below
    ten times the tolerance psd_rel * max(1, lambda_max).
    """
    validate_mode(mode)
    if mode == "exact":
        return _is_psd_exact(m)
    a = _as_float_sym(m)
    verdict, bound, _ = _is_psd_float(a, tol)
    if mode == "float":
        return verdict
    if verdict.lambda_min is not None and abs(verdict.lambda_min) < _AUTO_ESCALATION * bound:
        exact = _is_psd_exact(m)
        return replace(exact, lambda_min=verdict.lambda_min, lambda_max=verdict.lambda_max)
    return verdict


def _check_distance_matrix(d) -> np.ndarray:
    a = _as_float_sym(d)
    if a.size and (np.diag(a) != 0).any():
        raise SpectraError("distance matrix must have a zero diagonal")
    if a.size and (a < 0).any():
        raise SpectraError("distance matrix entries must be non-negative")
    return a


def reduce_ones_complement(d) -> tuple[np.ndarray, np.ndarray]:
    """Compression of a symmetric matrix to the orthogonal complement of the
    all-ones vector, in the basis of the last n - 1 columns of the
    Householder reflector H = I - w w^T (||w||^2 = 2, H e_1 = ones / sqrt(n)).

    Returns (r, w) with r = (H d H)[1:, 1:], formed in O(n^2) by the
    rank-two update H d H = d - (w k^T + k w^T), k = d w - (w^T d w) w / 2.
    r is exactly symmetric.  A vector x with x_0 = 0 lifts to the
    complement as H x = x - (w^T x) w."""
    a = _as_float_sym(d)
    n = a.shape[0]
    if n < 2:
        raise SpectraError("reduction needs at least 2 vertices")
    w = np.full(n, -1.0 / math.sqrt(n))
    w[0] += 1.0
    w *= math.sqrt(2.0 / float(w @ w))
    y = a @ w
    k = y - (0.5 * float(w @ y)) * w
    p = np.outer(w[1:], k[1:])
    r = a[1:, 1:] - (p + p.T)
    return r, w


@dataclass(frozen=True, eq=False)
class CndVerdict:
    """Outcome of a conditional-negative-definiteness test of a distance
    matrix.

    ``max_eig`` is the largest eigenvalue of D compressed to the orthogonal
    complement of the all-ones vector (the quadratic embedding constant),
    and ``maximizer`` a unit vector f with sum(f) = 0 that attains it as
    <f, Df>; both come from the float eigensolve, so they are None in exact
    mode and for a single vertex.  For a negative verdict, ``certificate`` is
    a vector f with sum(f) = 0 and <f, Df> > 0 (the validated form in
    ``certificate_value``); a negative float verdict's certificate is the
    maximizer itself.
    """

    is_cnd: bool
    mode_used: str
    max_eig: float | None = None
    maximizer: tuple | None = None
    certificate: tuple | None = None
    certificate_value: object | None = None


def _is_cnd_exact(d) -> CndVerdict:
    """Exact Schoenberg decision: PSD of -U^T D U over the integer basis
    u_i = e_i - e_r (i != r) of the complement of the all-ones vector, that
    is R_ij = d(i, r) + d(j, r) - d(i, j), lifted as f = U v, which puts
    -sum(v) at r.  The reference r is the first vertex of minimum
    eccentricity: a central r keeps the entries of R small, and R_ij = 0
    whenever r lies on a geodesic from i to j, so on a tree R splits into
    one irreducible block per branch at r.
    """
    rows, scale = _as_integer_sym(d)
    if len(rows) < 2:
        return CndVerdict(is_cnd=True, mode_used="exact")
    ecc = [max(row) for row in rows]
    r = ecc.index(min(ecc))
    dr = rows[r][:r] + rows[r][r + 1 :]
    reduced = [
        [ri + rj - dij for rj, dij in zip(dr, row[:r] + row[r + 1 :])]
        for ri, row in zip(dr, rows[:r] + rows[r + 1 :])
    ]
    v = _integer_psd_certificate(reduced)
    if v is None:
        return CndVerdict(is_cnd=True, mode_used="exact")
    f = v[:r] + [-sum(v)] + v[r:]
    value = _quad_form(rows, f)
    if value <= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="exact",
        certificate=tuple([Fraction(x) for x in f]),
        certificate_value=Fraction(value, scale),
    )


def is_cnd(d, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> CndVerdict:
    """Conditional negative definiteness of a distance matrix: whether
    <f, Df> <= 0 for every f orthogonal to the all-ones vector.

    Decided as positive semidefiniteness of -D compressed to that
    complement (in exact mode over the integer basis e_i - e_r, r a central
    vertex); modes behave as in is_psd.  The float and auto modes also
    report the largest eigenvalue on the complement and a unit maximizer.
    """
    validate_mode(mode)
    a = _check_distance_matrix(d)
    if mode == "exact":
        return _is_cnd_exact(d)
    if a.shape[0] < 2:
        return CndVerdict(is_cnd=True, mode_used="float")
    r, w = reduce_ones_complement(a)
    verdict, bound, vec = _is_psd_float(-r, tol)
    max_eig = -verdict.lambda_min
    x = np.concatenate(([0.0], vec))
    f = x - float(w @ x) * w
    maximizer = tuple(f.tolist())
    if mode == "auto" and abs(verdict.lambda_min) < _AUTO_ESCALATION * bound:
        return replace(_is_cnd_exact(d), max_eig=max_eig, maximizer=maximizer)
    if verdict.is_psd:
        return CndVerdict(is_cnd=True, mode_used="float", max_eig=max_eig, maximizer=maximizer)
    value = float(f @ a @ f)
    if value <= 0 or abs(float(f.sum())) > 1e-8:
        raise SpectraError("internal error: float certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="float",
        max_eig=max_eig,
        maximizer=maximizer,
        certificate=maximizer,
        certificate_value=value,
    )
