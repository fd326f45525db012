"""Symmetric eigensolving and (conditional) definiteness tests, float and exact.

The float route uses LAPACK's symmetric eigensolver through numpy.  The exact
route scales a rational matrix to integers, splits the index set into the
irreducible blocks of the nonzero pattern, decides a 1 x 1 block by the sign
of its entry, and runs one iterative fraction-free (Bareiss) symmetric
elimination with diagonal pivoting on each larger block: on an int64 array
for a block of _NUMPY_MIN_DIM rows or more while its entries stay below
2**31 in magnitude (a running bound on them is rescanned only when it
reaches 2**31), over Python ints on the lower triangle past that bound and
for smaller blocks.  That decides positive semidefiniteness without any
tolerance and produces an explicit negativity certificate when the answer
is no: a failing block's certificate padded with zeros.  Exact conditional
negative definiteness reduces the distance matrix over differences
e_i - e_a(i), where a(i) is the cut vertex through which the biconnected
block of i hangs toward a central vertex r, so the reduction splits into
one irreducible block per biconnected block of the graph, and a bridge
into a 1 x 1 block.
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

# While every entry of a block is below this bound in magnitude, a Bareiss
# step p * a_ij - a_ik * a_kj fits in int64.
_INT64_SAFE = 2**31

# Exact elimination runs blocks of at least this many rows as int64 arrays;
# below it numpy's cost per step exceeds the Python arithmetic it replaces.
_NUMPY_MIN_DIM = 16


def _square_rows(m) -> list[list]:
    try:
        rows = [list(row) for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    except TypeError:
        raise SpectraError("matrix must be square") from None
    if any(len(row) != len(rows) for row in rows):
        raise SpectraError("matrix must be square")
    return rows


def _not_real(values) -> SpectraError:
    # a complex entry is named as such; anything else that fails to convert
    # is not a finite number
    if any(isinstance(x, (complex, np.complexfloating)) for x in values):
        return SpectraError("matrix entries must be real")
    return SpectraError("matrix entries must be finite")


def _as_float_sym(m) -> np.ndarray:
    # an empty row list is the 0 x 0 matrix, as it is to the exact route
    rows = m if isinstance(m, np.ndarray) else (_square_rows(m) or np.zeros((0, 0)))
    a = np.asarray(rows)
    # numpy casts complex to float by dropping the imaginary part, with
    # only a warning, so a complex array never reaches the cast
    if a.dtype.kind == "c":
        raise SpectraError("matrix entries must be real")
    try:
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise _not_real(a.flat) from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise SpectraError("matrix entries must be finite")
    if not (a == a.T).all():
        raise SpectraError("matrix must be exactly symmetric")
    # one memory order for every caller: a float certificate value such as
    # v @ a @ v sums in the same order whatever order m came in
    return np.ascontiguousarray(a)


def _as_integer_sym(m) -> tuple[np.ndarray, int]:
    """Integer matrix A and the positive scale s with m = A / s exactly: s is
    the lcm of the entries' denominators, so A keeps every verdict of m.
    A is an int64 array (the caller's own when it is one; never written)
    if every entry of A is below 2**31 in magnitude, else an object array
    of Python ints."""
    # Each distinct entry is converted once.  The exact path builds no tuple
    # by spreading a row into arguments or from a generator (certificates are
    # built from lists): the interpreter keeps freed tuples of up to 19 items
    # on free lists, and such tuples pile up there, call after call.
    if isinstance(m, np.ndarray) and np.issubdtype(m.dtype, np.integer):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpectraError("matrix must be square")
        if not (m == m.T).all():
            raise SpectraError("matrix must be exactly symmetric")
        if m.size == 0 or (-_INT64_SAFE < m.min() and m.max() < _INT64_SAFE):
            return m.astype(np.int64, copy=False), 1
        return np.array(m.tolist(), dtype=object), 1  # Python ints: uint64 never wraps
    rows = _square_rows(m)
    try:
        exact = {x: Fraction(x) for x in {x for row in rows for x in row}}
    except (TypeError, ValueError, OverflowError):
        raise _not_real(x for row in rows for x in row) from None
    scale = reduce(math.lcm, (f.denominator for f in exact.values()), 1)
    scaled = {x: f.numerator * (scale // f.denominator) for x, f in exact.items()}
    rows = [[scaled[x] for x in row] for row in rows]
    if any(row[j] != rows[j][i] for i, row in enumerate(rows) for j in range(i)):
        raise SpectraError("matrix must be exactly symmetric")
    small = max(map(abs, scaled.values()), default=0) < _INT64_SAFE
    n = len(rows)
    return np.array(rows, dtype=np.int64 if small else object).reshape(n, n), scale


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

    ``certificate`` is only present for a negative verdict: a vector v of
    Python ints (exact) or floats with <v, Mv> < 0, re-validated before being
    returned; ``certificate_value`` is that form, an exact Fraction or a float.
    """

    is_psd: bool
    mode_used: str
    lambda_min: float | None = None
    lambda_max: float | None = None
    certificate: tuple | None = None
    certificate_value: object | None = None


def _principal(a: np.ndarray, idx) -> np.ndarray:
    # the principal submatrix on idx, a new array; two takes cost a third
    # of what fancy indexing through np.ix_ costs on small blocks
    return a.take(idx, 0).take(idx, 1)


def _quad_form(a: np.ndarray, v: list[int]) -> int:
    support = [i for i, vi in enumerate(v) if vi]
    vs = [v[i] for i in support]
    sub = _principal(a, support).tolist()
    return sum(vi * sum(x * vj for x, vj in zip(row, vs)) for vi, row in zip(vs, sub))


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


def _irreducible_blocks(a: np.ndarray) -> list[list[int]]:
    """The connected components of the nonzero pattern, each in increasing
    index order; the search stops once one component covers every index."""
    m = len(a)
    rows, cols = np.nonzero(a)
    ends = np.searchsorted(rows, np.arange(m + 1)).tolist()
    cols = cols.tolist()
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
            for j in cols[ends[u] : ends[u + 1]]:
                if not seen[j]:
                    seen[j] = True
                    found += 1
                    block.append(j)
        block.sort()
        blocks.append(block)
    return blocks


def _lower(a: np.ndarray) -> list[list[int]]:
    return [row[: t + 1] for t, row in enumerate(a.tolist())]


def _bareiss_certificate(low: list[list[int]], prev: int = 1) -> list[int] | None:
    """Fraction-free elimination of one symmetric block, given as its lower
    triangle low[i] = [a_i0, ..., a_ii], which it consumes; prev is the
    pivot of the elimination steps already applied to it, if any."""
    pivots = []  # (position, pivot, pivot column over the block left after it)
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


def _bareiss_int64(a: np.ndarray) -> list[int] | None:
    """_bareiss_certificate on the int64 block a, which it overwrites, with
    the same pivots and the same certificate.

    Nothing is deleted: each step updates the whole block, which turns the
    pivot's row and column to zeros that stay zero, so the first largest
    diagonal entry is the first largest live one.  Once no positive pivot
    is left, the zero-pivot rules run on the live block in order.  Once an
    entry reaches 2**31 in magnitude (where p * a - c * c could leave
    int64), the live block goes on, in order, to the list loop instead.
    That test reads a running bound, max|a| <= bound: a step with pivot p
    after prev makes entries of magnitude at most (p * bound + bound**2) /
    prev, so the block is rescanned only when the bound reaches 2**31, and
    the handoff comes at the step where a scan before every step would
    make it.  Either certificate is lifted back through the pivots here as
    the list loop lifts through its own."""
    pivots = []  # (index, pivot, pivot row as Python ints)
    prev = 1
    bound = _INT64_SAFE  # scan before the first step
    while True:
        if bound >= _INT64_SAFE:
            bound = max(int(a.max()), -int(a.min()))
        k = int(a.diagonal().argmax())
        p = int(a[k, k])
        if bound >= _INT64_SAFE or p <= 0:
            break
        c = a[k]
        cc = np.multiply.outer(c, c)
        pivots.append((k, p, c.tolist()))
        a *= p
        a -= cc
        if prev != 1:
            a //= prev
        bound = (p * bound + bound * bound) // prev + 1
        prev = p
    done = {k for k, _, _ in pivots}
    support = [i for i in range(len(a)) if i not in done]
    low = _lower(_principal(a, support))
    v = _zero_pivot_certificate(low) if bound < _INT64_SAFE else _bareiss_certificate(low, prev)
    if v is None:
        return None
    # v lives on support, the indices still live after pivot k: the entries
    # of the list loop's pivot column, in another order
    for k, p, col in reversed(pivots):
        xk = -sum([col[i] * x for i, x in zip(support, v)])
        v = [p * x for x in v]
        v.append(xk)
        support.append(k)
        g = reduce(math.gcd, v)
        v = [x // g for x in v]
    cert = [0] * len(a)
    for i, x in zip(support, v):
        cert[i] = x
    return cert


def _integer_psd_certificate(a: np.ndarray) -> list[int] | None:
    """None iff the integer symmetric matrix is PSD; otherwise an integer
    vector v with gcd 1 and <v, Av> < 0.

    The index set first splits into the connected components of the nonzero
    pattern.  A symmetric matrix that permutes to block-diagonal form is PSD
    iff every block is, and <v, Av> = <v_B, A_BB v_B> for a v supported on
    one block B, so a failing block's certificate, padded with zeros at the
    other indices, is a certificate for the whole matrix.  A 1 x 1 block
    {i} is decided by the sign of a_ii, with certificate e_i when it is
    negative; a tree's 2K and its Schoenberg reduction are all such blocks.

    Each block is decided by fraction-free (Bareiss) symmetric elimination
    with diagonal pivoting: each step pivots on the first largest live
    diagonal entry p and updates the live block by
    (p a_ij - a_ik a_kj) / prev, where prev is the previous pivot.  The
    division is exact by Sylvester's identity, and the live block stays prev
    times the Schur complement, so it keeps the definiteness of the
    remainder.  When no positive pivot is left, the zero-pivot rules give a
    certificate on the live block, lifted back through the stored pivot
    columns: x_k = -(col_k . v) / p, scaled by p to stay integral.

    A block of at least _NUMPY_MIN_DIM rows with int64 entries is
    eliminated as one int64 array while its entries stay below 2**31 in
    magnitude (checked against a running bound, rescanned only when the
    bound reaches 2**31) and goes on over Python ints past that; a smaller
    block, or one with larger entries, runs over Python ints on its lower
    triangle throughout.  Both give the same pivots and the same
    certificate.
    """
    for block in _irreducible_blocks(a):
        if len(block) == 1:
            cert = [1] if a[block[0], block[0]] < 0 else None
        elif len(block) >= _NUMPY_MIN_DIM and a.dtype == np.int64:
            cert = _bareiss_int64(_principal(a, block))
        else:
            cert = _bareiss_certificate(_lower(_principal(a, block)))
        if cert is not None:
            v = [0] * len(a)
            for i, x in zip(block, cert):
                v[i] = x
            return v
    return None


def _is_psd_exact(m) -> PsdVerdict:
    a, scale = _as_integer_sym(m)
    cert = _integer_psd_certificate(a)
    if cert is None:
        return PsdVerdict(is_psd=True, mode_used="exact")
    value = _quad_form(a, cert)
    if value >= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="exact",
        certificate=tuple(cert),
        certificate_value=Fraction(value, scale),
    )


def _float_spectrum(a, tol: Tolerances) -> tuple[SpectrumResult, float, bool, bool]:
    """The float PSD rule on the non-empty symmetric matrix a: its
    eigendecomposition (solved through the module attribute eigen_sym), the
    bound tol.psd_rel * max(1, lambda_max), the verdict lambda_min >= -bound,
    and whether |lambda_min| < 10 * bound, the window in which auto mode
    re-decides exactly.

    The one float rule of the package: is_psd applies it to its matrix,
    is_cnd to the compressed -D, and winkler.reconstruct_embedding to 2K."""
    res = eigen_sym(a)
    lam_min = float(res.eigenvalues[-1])
    bound = tol.psd_rel * max(1.0, float(res.eigenvalues[0]))
    return res, bound, lam_min >= -bound, abs(lam_min) < _AUTO_ESCALATION * bound


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
    if a.shape[0] == 0:
        return PsdVerdict(is_psd=True, mode_used="float")
    res, _, psd, near_zero = _float_spectrum(a, tol)
    lam_max = float(res.eigenvalues[0])
    lam_min = float(res.eigenvalues[-1])
    if mode == "auto" and near_zero:
        exact = _is_psd_exact(m)
        return replace(exact, lambda_min=lam_min, lambda_max=lam_max)
    if psd:
        return PsdVerdict(is_psd=True, mode_used="float", lambda_min=lam_min, lambda_max=lam_max)
    vec = res.eigenvectors[:, -1]
    value = float(vec @ a @ vec)
    if value >= 0:
        raise SpectraError("internal error: float certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="float",
        lambda_min=lam_min,
        lambda_max=lam_max,
        certificate=tuple(vec.tolist()),
        certificate_value=value,
    )


def _check_distance_matrix(a: np.ndarray) -> np.ndarray:
    """a itself, once its diagonal is zero and no entry is negative; a is a
    float or an integer array (int64 or Python ints)."""
    if a.size and a.diagonal().any():
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
    a vector f with sum(f) = 0 and <f, Df> > 0, of Python ints in exact mode
    (the validated form in ``certificate_value``, a Fraction); a negative
    float verdict's certificate is the maximizer itself, of floats.
    """

    is_cnd: bool
    mode_used: str
    max_eig: float | None = None
    maximizer: tuple | None = None
    certificate: tuple | None = None
    certificate_value: object | None = None


def _block_anchors(a: np.ndarray, r: int) -> list[int] | None:
    """Over the graph whose edges are the 1-entries of a: for each vertex i,
    the vertex a(i) through which the biconnected block of i nearest to r
    hangs toward r, that is r for r and inside r's blocks, and the cut
    vertex heading i's block otherwise; None when the graph does not reach
    every vertex from r.  When every degree is 2 the pass is skipped and
    a(i) = r throughout: a cycle is one block, and for a union of cycles
    that is the caller's fallback anyway.

    One Hopcroft-Tarjan depth-first pass from r on an explicit stack, with
    no recursion: when the search returns from u to its parent h with
    low(u) >= order(h), the vertices found since u, which are still open,
    form with h a block headed by h."""
    n = len(a)
    flat = np.flatnonzero(a == 1)
    ends = np.searchsorted(flat, np.arange(0, n * n + 1, n)).tolist()
    if ends == list(range(0, 2 * n + 1, 2)):
        return [r] * n
    cols = (flat % n).tolist()  # the neighbours of u are cols[ends[u] : ends[u + 1]]
    order = [0] * n  # discovery number, from 1; 0 while unseen
    low = [0] * n
    anchor = [r] * n
    found = []  # discovered vertices whose block is still open
    order[r] = low[r] = count = 1
    path = [(r, iter(cols[ends[r] : ends[r + 1]]))]
    while path:
        u, adjacent = path[-1]
        for w in adjacent:
            if not order[w]:
                count += 1
                order[w] = low[w] = count
                found.append(w)
                path.append((w, iter(cols[ends[w] : ends[w + 1]])))
                break
            if order[w] < low[u]:
                low[u] = order[w]
        else:
            path.pop()
            if path:
                h = path[-1][0]
                if low[u] >= order[h]:
                    x = -1
                    while x != u:
                        x = found.pop()
                        anchor[x] = h
                elif low[u] < low[h]:
                    low[h] = low[u]
    return anchor if count == n else None


def _is_cnd_exact(a: np.ndarray, scale: int) -> CndVerdict:
    """Exact Schoenberg decision on the checked integer distance matrix a
    (scale times the caller's): PSD of R = -U^T D U over the integer basis
    u_i = e_i - e_a(i) (i != r) of the complement of the all-ones vector,
    lifted as f = U v = sum v_i (e_i - e_a(i)).

    The reference r is the first vertex of minimum eccentricity, and a(i)
    comes from _block_anchors: the vertex through which the biconnected
    block of i hangs toward r.  The a(i) form a tree rooted at r, so the
    u_i are a basis of the complement whatever the matrix and whatever its
    integer dtype; where the 1-entries do not reach every vertex from r,
    a(i) = r throughout (the star at r).  Then
    R_ij = d(i, a_j) + d(a_i, j) - d(i, j) - d(a_i, a_j).  For a graph
    metric R_ij = 0 when i and j lie in different blocks, since a cut
    vertex splits every distance across it into a sum; so R splits into
    the Schoenberg reduction of each block at its anchor, a bridge gives a
    1 x 1 entry of 2, and a certificate lives on one block and its anchor.
    When every anchor is r (a 2-connected graph, among others) R is the
    star reduction R_ij = d(i, r) + d(j, r) - d(i, j).
    """
    n = len(a)
    if n < 2:
        return CndVerdict(is_cnd=True, mode_used="exact")
    r = int(a.max(axis=1).argmin())
    others = np.arange(1, n)
    others[:r] -= 1  # every index but r, in order
    anchor = _block_anchors(a, r) or [r] * n
    up = np.array(anchor).take(others)
    rows = a.take(others, 0)
    da = rows.take(up, 1)
    reduced = da + da.T
    reduced -= rows.take(others, 1)
    reduced -= _principal(a, up)
    v = _integer_psd_certificate(reduced)
    if v is None:
        return CndVerdict(is_cnd=True, mode_used="exact")
    f = [0] * n
    for i, x in zip(others.tolist(), v):
        f[i] += x
        f[anchor[i]] -= x
    value = _quad_form(a, f)
    if value <= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="exact",
        certificate=tuple(f),
        certificate_value=Fraction(value, scale),
    )


def is_cnd(d, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> CndVerdict:
    """Conditional negative definiteness of a distance matrix: whether
    <f, Df> <= 0 for every f orthogonal to the all-ones vector.

    Decided as positive semidefiniteness of -D compressed to that
    complement (in exact mode over the integer basis e_i - e_a(i), a(i) the
    cut vertex through which the block of i hangs toward a central vertex,
    so that the decision splits by biconnected block); modes behave as in
    is_psd.  The float and auto modes also report the largest eigenvalue on
    the complement and a unit maximizer.
    """
    validate_mode(mode)
    if mode == "exact":
        # the checks run on the integers: they need no float64 range
        a, scale = _as_integer_sym(d)
        return _is_cnd_exact(_check_distance_matrix(a), scale)
    a = _check_distance_matrix(_as_float_sym(d))
    if a.shape[0] < 2:
        return CndVerdict(is_cnd=True, mode_used="float")
    r, w = reduce_ones_complement(a)
    # D is CND iff -r is PSD; max_eig = -lambda_min(-r)
    res, _, psd, near_zero = _float_spectrum(-r, tol)
    max_eig = -float(res.eigenvalues[-1])
    x = np.concatenate(([0.0], res.eigenvectors[:, -1]))
    f = x - float(w @ x) * w
    maximizer = tuple(f.tolist())
    if mode == "auto" and near_zero:
        exact = _is_cnd_exact(*_as_integer_sym(d))  # the same entries, checked above
        return replace(exact, max_eig=max_eig, maximizer=maximizer)
    if psd:
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
