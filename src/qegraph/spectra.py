"""Symmetric eigensolving and (conditional) definiteness tests, float and exact.

The float route uses LAPACK's symmetric eigensolver through numpy, except
on a diagonal matrix whose entries are clearly positive, which is decided
from its diagonal (see is_psd).  The exact route scales a rational matrix
to integers and decides positive semidefiniteness without any tolerance,
by fraction-free elimination of each irreducible block (see
_integer_psd_certificate), with an explicit negativity certificate when
the answer is no.  The dispatch, in order: a diagonal matrix is decided
from its diagonal, a large dense int64 matrix that is one block goes whole
to the dense loop, all blocks of 1 and 2 rows are decided in one pass, a
large sparse block is eliminated over dict rows, any other large one by
the dense loop, and the rest over Python ints.  The dense loop steps on a
float64 array while every entry is below 2**26, where each step is exact
and its rank-one update one BLAS product, then on an int64 one below
2**31, and hands the rest to the Python-int loop.  Both pivot on the
smallest positive diagonal entry, which keeps their entries small, and
stop at the first negative one.  Exact conditional negative definiteness
is decided on an anchored reduction of the distance matrix (see
_is_cnd_exact).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

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

# While every entry of a block is below this bound in magnitude, a Bareiss
# step and its quotient by the previous pivot are integers below 2**53,
# exact in float64.
_FLOAT_SAFE = 2**26

# Exact elimination runs blocks of at least this many rows through the
# dense loop, _bareiss_dense.  Against the list loop, on the dense
# escalation blocks of one theta-sweep round and the dense blocks of 3000
# exact-certify items (seeds 1 and 2), best of 15 interleaved passes, mean
# per block (2-CPU Xeon, one BLAS thread; list against dense): theta-sweep
# 35.9 against 43.6 us at 9 rows, 51.6 against 53.7 at 10, 55.7 against
# 52.4 at 11 and 70.6 against 65.7 at 12; exact-certify 37.2 against 43.2
# at 9, 44.0 against 48.9 at 10, 50.5 against 55.7 at 11, 57.6 against
# 58.6 at 12, 64.8 against 60.0 at 13 and 74.8 against 62.5 at 14.  The
# dense 2K blocks of thetas with every leg at least 3, which stop at a
# negative entry, favour the dense loop from 9 rows on: 24.2 against 20.1
# us at 9, 34.6 against 25.4 at 11 and 65.0 against 43.2 at 14.  At 10
# rows the list loop won every one of five runs on both workloads' blocks,
# and the cut sits at 11, where theta-sweep's blocks cross over.
_NUMPY_MIN_DIM = 11

# Irreducible blocks of at least _SPARSE_MIN_DIM rows with at most
# _SPARSE_MAX_NNZ nonzero entries per row on average, the diagonal
# included, run through _sparse_certificate.  On the blocks of the
# benchmark workloads (2-CPU Xeon, one BLAS thread; medians, one block at a
# time) at most 3.5 nonzeros per row took 18 us sparse against 17 us on
# the dense loops at 4 rows, 25 against 31 at 5 and 22 against 31 at 6; at
# most 3 per row, 41 against 74 at 9-12 rows and 120 against 465 at 37-48;
# 3-3.5 per row, 150 against 712 at 37-48.  Past 8 per row the dense loops
# win from 16 rows on (212 against 157 us at 16-24).  The density cut lies
# above every 2K block of a cycle, or of a theta with a leg of length 1 or
# 2 (3.34 per row at most, theta(2, 3, 3)), and below the sparsest exact
# Schoenberg reduction of a cycle or a theta (4.0 per row, theta(1, 3, 4)),
# which keeps the dense loops.
_SPARSE_MIN_DIM = 6
_SPARSE_MAX_NNZ = 3.5


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
    # every bool or integer entry converts to a finite float
    integral = a.dtype.kind in "biu"
    try:
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise _not_real(a.flat) from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpectraError(f"matrix must be square, got shape {a.shape}")
    if not integral and not np.isfinite(a).all():
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


def _difference_form(d: np.ndarray, heads, tails) -> np.ndarray:
    """-U^T D U as a new matrix, for the columns u_i = e_heads[i] - e_tails[i]
    over the int64 or object array d: its entry (i, j) is
    d(h_i, t_j) + d(t_i, h_j) - d(h_i, h_j) - d(t_i, t_j).  Two row gathers
    give U^T D, and two column gathers of U^T D give the form."""
    du = d.take(heads, 0) - d.take(tails, 0)
    return du.take(tails, 1) - du.take(heads, 1)


def _quad_form(a: np.ndarray, v: list[int]) -> int:
    """<v, Av> over the support of the integer vector v, exactly: in int64
    when the block there is int64 and m**2 * max|a| * max|v|**2 < 2**63 over
    its m indices bounds every partial sum, else over Python ints."""
    support = [i for i, vi in enumerate(v) if vi]
    vs = [v[i] for i in support]
    sub = _principal(a, support)
    if sub.dtype == np.int64 and vs:
        top = max(int(sub.max()), -int(sub.min()))
        if len(vs) ** 2 * top * max(map(abs, vs)) ** 2 < 2**63:
            x = np.array(vs, dtype=np.int64)
            return int(x @ sub @ x)
    rows = sub.tolist()
    return sum(vi * sum(x * vj for x, vj in zip(row, vs)) for vi, row in zip(vs, rows))


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


def _pattern(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """The nonzero pattern of a square boolean array: its positions (us,
    js) in row-major order, as np.nonzero gives them, and their row index
    as lists: the nonzero columns of row u are cols[ends[u] : ends[u + 1]],
    in increasing order."""
    us, js = np.nonzero(mask)
    return us, js, np.searchsorted(us, np.arange(len(mask) + 1)).tolist(), js.tolist()


def _irreducible_blocks(ends: list[int], cols: list[int]) -> list[list[int]]:
    """The connected components of the nonzero pattern (ends, cols) of
    _pattern, each in increasing index order; the search stops once one
    component covers every index."""
    m = len(ends) - 1
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


def _lift(v: list[int] | dict[int, int], p: int, xk: int) -> tuple[list[int] | dict[int, int], int]:
    """One step of a certificate's lift back through a pivot p: (v, x_k)
    made integral with gcd 1, for v (a list, or a dict by index) with gcd
    1 and its new entry x_k = -(col_k . v), over p.  The gcd of p v and x_k
    is gcd(p, x_k), and a step with x_k = 0 leaves v as it was."""
    if xk:
        g = math.gcd(p, xk)
        if g != p:
            s = p // g
            v = {i: s * x for i, x in v.items()} if isinstance(v, dict) else [s * x for x in v]
        xk //= g
    return v, xk


def _bareiss_certificate(low: list[list[int]], prev: int = 1) -> list[int] | None:
    """Fraction-free elimination of one symmetric block, given as its lower
    triangle low[i] = [a_i0, ..., a_ii], which it consumes; prev is the
    pivot of the elimination steps already applied to it, if any.

    Each step pivots on the first smallest positive live diagonal entry,
    and the elimination stops as soon as a live diagonal entry is negative
    or none is positive.  Every entry is a minor of the block (E. H.
    Bareiss, Math. Comp. 22 (1968) 565-578), and a PSD principal minor is
    at most the product of its diagonal entries (Hadamard), so small pivots
    first keep the entries small.  Any order of positive pivots keeps the
    verdict (see _sparse_certificate)."""
    pivots = []  # (position, pivot, pivot column over the block left after it)
    while low:
        diag = [row[-1] for row in low]
        if min(diag) < 0:
            break
        p = min(filter(None, diag), default=0)
        if not p:
            break
        k = diag.index(p)
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
        v, xk = _lift(v, p, -sum([a * b for a, b in zip(col, v)]))
        v.insert(k, xk)
    return v


def _magnitude(a: np.ndarray) -> int:
    """max |a_ij| of a float64 array, or of an int64 one with no entry
    -2**63 (the int64 matrices of the exact route lie below 2**33)."""
    return int(np.abs(a).max())


def _bareiss_dense(a: np.ndarray) -> list[int] | None:
    """_bareiss_certificate on the int64 block a, with the same pivots and
    the same certificate; a is not written.

    The loop works on a copy of a: a float64 one while every entry is
    below 2**26 in magnitude, then an int64 one while every entry is below
    2**31.  Below 2**26, p * a_ij and a_ik * a_kj are integers below 2**52
    and their difference one below 2**53, so every step is exact in
    float64: the rank-one product c c^T is one BLAS call, and the division
    by prev, exact by Sylvester's identity, a true division.  The first
    scan that finds an entry of 2**26 or more converts the copy to int64,
    where p * a - c * c stays below 2**63 in magnitude up to 2**31.

    Nothing is deleted: each step updates the whole block, which turns the
    pivot's row and column to zeros that stay zero, and a live row of
    zeros stays zero too.  So the pivot is the first least entry of a key,
    the diagonal plus 2**31 at every row set aside: each pivot once taken,
    and, whenever the least key is 0, every live row with a zero diagonal
    entry, in one pass, if all of them are rows of zeros.  A zero diagonal
    entry beside a nonzero one sends the live block, in order, to the list
    loop, which pivots alike.  The elimination ends at a negative least
    key, with the certificate e_i of the first negative entry, as the
    zero-pivot rules give it, or once every row is set aside, with none.
    Once an entry reaches 2**31 in magnitude, the live block goes on to the
    list loop as well.  Both limits are tested on a running bound, max|a|
    <= bound: a step with pivot p after prev makes entries of magnitude at
    most (p * bound + bound**2) / prev, so the block is rescanned only when
    the bound reaches the limit, and the conversion and the handoff come at
    the steps where a scan before every step would make them.  Either
    certificate is lifted back through the pivots here, over its support,
    as the list loop lifts through its own."""
    pivots = []  # (index, pivot, pivot row as a copy)
    prev = 1
    bound = _magnitude(a)
    limit = _FLOAT_SAFE if bound < _FLOAT_SAFE else _INT64_SAFE
    a = a.astype(np.float64 if limit == _FLOAT_SAFE else np.int64)
    aside = np.zeros(len(a))
    handoff = bound >= _INT64_SAFE
    while not handoff:
        key = a.diagonal() + aside
        k = int(key.argmin())
        p = int(key[k])
        if p == 0:
            zero = key == 0
            if a[zero].any():
                handoff = True
                break
            aside[zero] = _INT64_SAFE
            continue
        if not 0 < p < _INT64_SAFE:
            break
        c = a[k]
        pivots.append((k, p, c.copy()))
        if limit == _FLOAT_SAFE:
            cc = np.dot(c[:, None], c[None, :])
            a *= p
            a -= cc
            if prev != 1:
                a /= prev
        else:
            cc = np.multiply.outer(c, c)
            a *= p
            a -= cc
            if prev != 1:
                a //= prev
        aside[k] = _INT64_SAFE
        bound = (p * bound + bound * bound) // prev + 1
        prev = p
        if bound >= limit:
            bound = _magnitude(a)
            if limit == _FLOAT_SAFE and bound >= limit:
                a = a.astype(np.int64)
                limit = _INT64_SAFE
            handoff = bound >= _INT64_SAFE
    if handoff:
        done = {k for k, _, _ in pivots}
        support = [i for i in range(len(a)) if i not in done]
        v = _bareiss_certificate(_lower(_principal(a, support).astype(np.int64)), prev)
        if v is None:
            return None
        v = {i: x for i, x in zip(support, v) if x}
    elif p > 0:  # every row pivoted or set aside
        return None
    else:
        v = {int((key < 0).argmax()): 1}
    for k, p, col in reversed(pivots):
        col = col.astype(np.int64).tolist()
        v, xk = _lift(v, p, -sum([col[i] * x for i, x in v.items()]))
        if xk:
            v[k] = xk
    cert = [0] * len(a)
    for i, x in v.items():
        cert[i] = x
    return cert


def _block_rows(a: np.ndarray, blocks: list[list[int]], us: np.ndarray, js: np.ndarray) -> list[dict]:
    """The rows of a on blocks, irreducible blocks of its nonzero positions
    (us, js) from _pattern, in the form that _sparse_certificate reads: for
    each index u of a block, one dict {position: (entry, 0)} of the nonzero
    entries of row u, the diagonal included, keyed by the position of their
    column in u's block and tagged as written at step 0, so that a block's
    rows, taken in its order, are its principal block.  One pass of numpy
    over the positions serves every block, and the Python loop reads the
    blocks' own entries only."""
    n = len(a)
    if len(blocks) > 1 or len(blocks[0]) < n:
        position = np.full(n, -1)
        for block in blocks:
            position[block] = np.arange(len(block))
        # a block is closed under the pattern, so position[js] >= 0 there too
        inside = position[us] >= 0
        us, js = us[inside], js[inside]
        values, js = a[us, js], position[js]
    else:
        values = a[us, js]
    rows = [{} for _ in range(n)]
    for u, j, x in zip(us.tolist(), js.tolist(), values.tolist()):
        rows[u][j] = (x, 0)
    return rows


def _sparse_certificate(rows: list[dict]) -> list[int] | None:
    """Fraction-free symmetric elimination of an irreducible integer block,
    given as its rows from _block_rows, which it consumes, over dict rows:
    None iff the block is PSD, else a certificate with gcd 1, as
    _bareiss_certificate gives, though after other pivots.

    Each step pivots on a live row of least degree (its off-diagonal
    nonzeros), the lowest index first, popped from a heap keyed by degree,
    then index, and stale keys are skipped; every live diagonal entry is
    positive (below), so every pivot is.  Any order of positive pivots
    keeps the verdict: eliminating a pivot p > 0 is a congruence of the
    live block to [p] plus its Schur complement S, so the block is PSD iff
    S is, and a vector v with <v, Sv> < 0 lifts to one for the block.

    Lazy scaling.  After steps with pivots p_1 .. p_t (p_0 = 1), Bareiss's
    live block is p_t S_t, S_t the Schur complement, and a step changes S
    only between the pivot's neighbours.  So an entry written at step s,
    v = p_s S_s(i, j), is kept as (v, s) and read at a later step t as
    p_t S_t(i, j) = v * p_t / p_s, an exact division by Sylvester's
    identity (both sides are minors of a); a step costs the square of the
    pivot's degree, not the live block's size.  Entries that cancel to zero
    are deleted, so a row holds its nonzeros only, and a row left with none
    is a 1 x 1 block of its own, dropped unless its diagonal is negative.

    The elimination stops at the first live diagonal entry that is
    negative, certificate e_i, or zero beside a nonzero a_ij, certificate
    max(a_jj, 1) e_i - a_ij e_j, whose form is -a_jj a_ij**2 or
    (a_jj - 2) a_ij**2.  That vector is lifted back through the pivot
    columns by _lift, as the dense loops lift theirs."""
    m = len(rows)  # rows[u] = {column: (value, step written)}, None once gone
    diag = [row.pop(u, (0, 0)) for u, row in enumerate(rows)]
    pivots = [1]
    steps = []  # (index, pivot, pivot column as of the step before)

    def current(entry):
        x, s = entry
        return x * pivots[-1] // pivots[s]

    def failing(i):
        # the certificate on the live block when row i shows one, else None
        d = current(diag[i])
        if d < 0:
            return {i: 1}
        if d == 0 and rows[i]:
            j = min(rows[i])
            return {i: max(current(diag[j]), 1), j: -current(rows[i][j])}
        return None

    v = None
    heap = []
    for u, row in enumerate(rows):
        if diag[u][0] <= 0:
            v = failing(u)  # never None: each row of a has an off-diagonal nonzero
            break
        heap.append(len(row) * m + u)
    heapq.heapify(heap)
    while heap and v is None:
        key = heapq.heappop(heap)
        k = key % m
        row = rows[k]
        if row is None or len(row) != key // m:
            continue
        rows[k] = None
        top, prev = len(pivots) - 1, pivots[-1]
        x, s = diag[k]
        p = x if s == top else x * prev // pivots[s]
        col = {j: x if s == top else x * prev // pivots[s] for j, (x, s) in row.items()}
        nbrs = list(col)
        for pos, i in enumerate(nbrs):
            ci, ri = col[i], rows[i]
            del ri[k]
            x, s = diag[i]
            if s != top:
                x = x * prev // pivots[s]
            diag[i] = ((p * x - ci * ci) // prev, top + 1)
            for j in nbrs[pos + 1 :]:
                e = ri.get(j)
                if e is None:
                    x = 0
                else:
                    x, s = e
                    if s != top:
                        x = x * prev // pivots[s]
                x = (p * x - ci * col[j]) // prev
                if x:
                    ri[j] = rows[j][i] = (x, top + 1)
                elif e is not None:
                    del ri[j], rows[j][i]
        pivots.append(p)
        steps.append((k, p, col))
        for i in nbrs:
            ri = rows[i]
            if diag[i][0] <= 0:
                v = failing(i)
                if v is not None:
                    break
            if ri:
                heapq.heappush(heap, len(ri) * m + i)
            else:
                rows[i] = None
    if v is None:
        return None
    g = reduce(math.gcd, v.values())
    v = {i: x // g for i, x in v.items()}
    for k, p, col in reversed(steps):
        v, xk = _lift(v, p, -sum([c * v[j] for j, c in col.items() if j in v]))
        if xk:
            v[k] = xk
    return [v.get(i, 0) for i in range(m)]


def _one_block(mask: np.ndarray) -> bool:
    """Whether every index of the nonzero pattern mask shares a nonzero
    column with the densest row, so that the pattern joins each index to
    that row in at most two steps and is one irreducible block.  One
    float32 mat-vec of the 0/1 pattern counts the shared columns, exactly
    below 2**24 rows."""
    pattern = mask.astype(np.float32)
    return bool((pattern @ pattern[pattern.sum(axis=1).argmax()]).all())


def _failing_pairs(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Which of the blocks [[x, y], [y, z]], given by the arrays of their
    entries, are not PSD: those with a negative diagonal entry or a
    negative determinant.  A 1 x 1 block [x], given as x = y = z, fails iff
    x < 0.  The entries of int64 arrays are compared over Python ints once
    one reaches 2**31 in magnitude, where x * z or y * y could leave int64,
    as in an anchored reduction of an int64 distance matrix."""
    if x.dtype == np.int64:
        xyz = np.concatenate((x, y, z))
        if not (-_INT64_SAFE < xyz.min() and xyz.max() < _INT64_SAFE):
            x, y, z = x.astype(object), y.astype(object), z.astype(object)
    return (np.minimum(x, z) < 0) | (x * z < y * y)


def _count_nonzero(a: np.ndarray) -> tuple[int, bool]:
    """The number of nonzero entries of the square array a, and whether
    they all lie on its diagonal: the diagonal test of both the exact and
    the float PSD decisions.  One pass over a, and a second over its
    diagonal only when a has at most one nonzero entry per row."""
    nonzeros = np.count_nonzero(a)
    return nonzeros, nonzeros <= len(a) and nonzeros == np.count_nonzero(a.diagonal())


def _integer_psd_certificate(a: np.ndarray) -> list[int] | None:
    """None iff the integer symmetric matrix is PSD; otherwise an integer
    vector v with gcd 1 and <v, Av> < 0.

    A symmetric matrix that permutes to block-diagonal form is PSD iff
    every irreducible block (connected component of the nonzero pattern)
    is, and <v, Av> = <v_B, A_BB v_B> for a v supported on one block B, so
    a failing block's certificate, padded with zeros at the other indices,
    is a certificate for the whole matrix; the first failing block in
    index order is the one reported.

    Each block is decided by fraction-free (Bareiss) symmetric elimination
    with diagonal pivoting: each step pivots on a positive live diagonal
    entry p and updates the live block by (p a_ij - a_ik a_kj) / prev,
    where prev is the previous pivot.  The division is exact by Sylvester's
    identity, and the live block stays prev times the Schur complement, so
    it keeps the definiteness of the remainder.  When a live diagonal entry
    is negative, or no positive pivot is left, the zero-pivot rules give a
    certificate on the live block, lifted back through the stored pivot
    columns: x_k = -(col_k . v) / p, scaled by p to stay integral.

    The dispatch, in order:
    - a diagonal matrix, such as a tree's 2K and its Schoenberg reduction,
      is decided from its diagonal in one pass, certificate e_i at the
      first negative entry;
    - an int64 matrix of at least _NUMPY_MIN_DIM rows with more than
      _SPARSE_MAX_NNZ nonzeros per row that _one_block finds irreducible,
      such as the exact Schoenberg reduction of a cycle or a theta, goes to
      the dense loop _bareiss_dense whole, with no pattern scan;
    - otherwise the pattern splits the blocks.  Every block of 1 or 2 rows
      is decided at once by _failing_pairs, and only the first failing one
      is eliminated, for its certificate; the 2K of an even cycle, or of
      theta(1, b, c) with c odd and b odd or 2, is all such blocks;
    - a sparse block, of at least _SPARSE_MIN_DIM rows and at most
      _SPARSE_MAX_NNZ nonzeros per row, runs through _sparse_certificate,
      which pivots on a live row of least degree and touches only the
      pivot's neighbours; the 2K of a cycle or a theta over its default
      tree is such a block;
    - any other block of at least _NUMPY_MIN_DIM rows with int64 entries
      runs through _bareiss_dense, over float64 below 2**26 and int64
      below 2**31;
    - the rest run over Python ints on their lower triangle.
    _bareiss_dense and the list loop both pivot on the first smallest
    positive live diagonal entry and stop at the first negative one (see
    _bareiss_certificate), so both give the same pivots and the same
    certificate, and each shortcut gives the certificate the per-block loop
    would.  The sparse path pivots in another order, so its certificate
    may differ from theirs; every certificate is re-checked by the caller.
    """
    n = len(a)
    diagonal = a.diagonal()
    nonzeros, is_diagonal = _count_nonzero(a)
    if is_diagonal:
        negative = np.flatnonzero(diagonal < 0)
        if not len(negative):
            return None
        v = [0] * n
        v[negative[0]] = 1
        return v
    mask = a != 0
    if a.dtype == np.int64 and n >= _NUMPY_MIN_DIM and nonzeros > _SPARSE_MAX_NNZ * n and _one_block(mask):
        return _bareiss_dense(a)
    us, js, ends, cols = _pattern(mask)
    blocks = _irreducible_blocks(ends, cols)
    pairs = [block for block in blocks if len(block) < 3]
    first = None
    if pairs:
        i = np.array([block[0] for block in pairs])
        j = np.array([block[-1] for block in pairs])
        failing = _failing_pairs(diagonal[i], a[i, j], diagonal[j])
        if failing.any():
            first = pairs[failing.argmax()]
    sparse = [
        len(block) >= _SPARSE_MIN_DIM and sum([ends[u + 1] - ends[u] for u in block]) <= _SPARSE_MAX_NNZ * len(block)
        for block in blocks
    ]
    if any(sparse):
        rows = _block_rows(a, list(itertools.compress(blocks, sparse)), us, js)
    for block, is_sparse in zip(blocks, sparse):
        size = len(block)
        if size < 3 and block is not first:
            continue
        if is_sparse:
            cert = _sparse_certificate([rows[u] for u in block])
        elif size >= _NUMPY_MIN_DIM and a.dtype == np.int64:
            cert = _bareiss_dense(_principal(a, block))
        else:
            cert = _bareiss_certificate(_lower(_principal(a, block)))
        if cert is not None:
            v = [0] * n
            for i, x in zip(block, cert):
                v[i] = x
            return v
    return None


def _escalated(m) -> tuple[np.ndarray, int]:
    """_as_integer_sym(m) for an input m that has passed _as_float_sym, as
    auto mode re-decides it: an int64 array below 2**31 in magnitude is its
    own integer matrix at scale 1.  Its entries convert to float64 exactly,
    so the float pass's symmetry check was the integer one."""
    if isinstance(m, np.ndarray) and m.dtype == np.int64 and -_INT64_SAFE < m.min() and m.max() < _INT64_SAFE:
        return m, 1
    return _as_integer_sym(m)


def _is_psd_exact(a: np.ndarray, scale: int, **evidence) -> PsdVerdict:
    """The exact verdict on the integer matrix a, scale times the caller's,
    with the float evidence of an auto escalation, if any."""
    cert = _integer_psd_certificate(a)
    if cert is None:
        return PsdVerdict(is_psd=True, mode_used="exact", **evidence)
    value = _quad_form(a, cert)
    if value >= 0:
        raise SpectraError("internal error: exact certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="exact",
        certificate=tuple(cert),
        certificate_value=Fraction(value, scale),
        **evidence,
    )


def _float_rule(lam_min: float, lam_max: float, tol: Tolerances) -> tuple[float, bool, bool]:
    """The float PSD rule on the extreme eigenvalues of a matrix: the bound
    tol.psd_rel * max(1, lambda_max), the verdict lambda_min >= -bound, and
    whether |lambda_min| < 10 * bound, the window in which auto mode
    re-decides exactly."""
    bound = tol.psd_rel * max(1.0, lam_max)
    return bound, lam_min >= -bound, abs(lam_min) < _AUTO_ESCALATION * bound


def _float_spectrum(a, tol: Tolerances) -> tuple[SpectrumResult, float, bool, bool]:
    """_float_rule on the eigenvalues of the non-empty symmetric matrix a,
    after its eigendecomposition (solved through the module attribute
    eigen_sym), which comes first in what it returns.

    The one float eigensolve of the package: is_psd applies it to its
    matrix, unless the matrix is diagonal and clears the auto window, is_cnd
    to the compressed -D, and winkler.reconstruct_embedding to 2K only in
    its fallback, where a Cholesky factor of K fails."""
    res = eigen_sym(a)
    return res, *_float_rule(float(res.eigenvalues[-1]), float(res.eigenvalues[0]), tol)


# LAPACK's dsyevd scales a matrix whose largest entry in magnitude lies
# outside [2**-485, 2**485] before it solves, and its eigenvalues then
# differ from a diagonal's own entries in the last bits (seen from 2**485
# on and below 2**-485); inside this range they are the diagonal entries
# bit for bit.
_DIAGONAL_RANGE = (2.0**-484, 2.0**484)


def is_psd(m, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> PsdVerdict:
    """Positive-semidefiniteness of a symmetric matrix.

    mode "float" decides from the eigenvalues computed by eigen_sym with the
    relative tolerance tol.psd_rel; "exact" decides with no tolerance by
    integer elimination (entries are scaled exactly to integers, so inputs
    must be integers, Fractions, or binary floats such as halves); "auto"
    runs the float test and re-decides exactly when |lambda_min| is below
    ten times the tolerance psd_rel * max(1, lambda_max).

    A diagonal matrix, such as a tree's 2K = 2I, whose least entry clears
    that window and whose largest lies in _DIAGONAL_RANGE, is decided in
    float and auto mode from its diagonal, which is its spectrum: eigen_sym
    would return those entries bit for bit.  A zero, near-zero or negative
    entry still goes to eigen_sym, for the certificate or the escalation.
    """
    validate_mode(mode)
    if mode == "exact":
        return _is_psd_exact(*_as_integer_sym(m))
    a = _as_float_sym(m)
    if a.shape[0] == 0:
        return PsdVerdict(is_psd=True, mode_used="float")
    if _count_nonzero(a)[1]:
        lam = a.diagonal()
        lam_min, lam_max = float(lam.min()), float(lam.max())
        _, psd, near_zero = _float_rule(lam_min, lam_max, tol)
        if psd and not near_zero and _DIAGONAL_RANGE[0] <= lam_max <= _DIAGONAL_RANGE[1]:
            return PsdVerdict(is_psd=True, mode_used="float", lambda_min=lam_min, lambda_max=lam_max)
    res, _, psd, near_zero = _float_spectrum(a, tol)
    lam = res.eigenvalues
    evidence = {"lambda_min": float(lam[-1]), "lambda_max": float(lam[0])}
    if mode == "auto" and near_zero:
        return _is_psd_exact(*_escalated(m), **evidence)
    if psd:
        return PsdVerdict(is_psd=True, mode_used="float", **evidence)
    vec = res.eigenvectors[:, -1]
    value = float(vec @ a @ vec)
    if value >= 0:
        raise SpectraError("internal error: float certificate failed re-validation")
    return PsdVerdict(
        is_psd=False,
        mode_used="float",
        certificate=tuple(vec.tolist()),
        certificate_value=value,
        **evidence,
    )


def _check_distance_matrix(a: np.ndarray) -> np.ndarray:
    """a itself, once its diagonal is zero and no entry is negative; a is a
    float or an integer array (int64 or Python ints)."""
    if a.diagonal().any():
        raise SpectraError("distance matrix must have a zero diagonal")
    if (a < 0).any():
        raise SpectraError("distance matrix entries must be non-negative")
    return a


@lru_cache(maxsize=128)
def _reflector(n: int) -> np.ndarray:
    # w depends on n alone; the cached array is read-only, and callers get
    # a copy
    w = np.full(n, -1.0 / math.sqrt(n))
    w[0] += 1.0
    w *= math.sqrt(2.0 / float(w @ w))
    w.setflags(write=False)
    return w


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
    w = _reflector(n)
    y = a @ w
    k = y - (0.5 * float(w @ y)) * w
    p = np.multiply.outer(w[1:], k[1:])
    r = a[1:, 1:] - (p + p.T)
    return r, w.copy()


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
    _, _, ends, cols = _pattern(a == 1)
    if ends == list(range(0, 2 * n + 1, 2)):
        return [r] * n
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


def _is_cnd_exact(a: np.ndarray, scale: int, **evidence) -> CndVerdict:
    """Exact Schoenberg decision on the checked integer distance matrix a
    (scale times the caller's), with the float evidence of an auto
    escalation, if any: PSD of R = -U^T D U (_difference_form) over
    the integer basis u_i = e_i - e_a(i) (i != r) of the complement of the
    all-ones vector, lifted as f = U v = sum v_i (e_i - e_a(i)).

    The reference r is the first vertex of minimum eccentricity, and a(i)
    is the anchor of i from _block_anchors.  The a(i) form a tree rooted at
    r, so the u_i are a basis of the complement whatever the matrix and
    whatever its integer dtype; where the 1-entries do not reach every
    vertex from r, a(i) = r throughout (the star at r).  For a graph
    metric R_ij = 0 when i and j lie in different blocks, since a cut
    vertex splits every distance across it into a sum; so R splits into
    the Schoenberg reduction of each block at its anchor, a bridge gives a
    1 x 1 entry of 2, and a certificate lives on one block and its anchor.
    """
    n = len(a)
    if n < 2:
        return CndVerdict(is_cnd=True, mode_used="exact")
    r = int(a.max(axis=1).argmin())
    others = np.arange(1, n)
    others[:r] -= 1  # every index but r, in order
    anchor = _block_anchors(a, r) or [r] * n
    v = _integer_psd_certificate(_difference_form(a, others, np.array(anchor).take(others)))
    if v is None:
        return CndVerdict(is_cnd=True, mode_used="exact", **evidence)
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
        **evidence,
    )


def is_cnd(d, mode: str = "auto", tol: Tolerances = DEFAULT_TOLERANCES) -> CndVerdict:
    """Conditional negative definiteness of a distance matrix: whether
    <f, Df> <= 0 for every f orthogonal to the all-ones vector.

    Decided as positive semidefiniteness of -D compressed to that
    complement, in exact mode over the anchored basis of _is_cnd_exact;
    modes behave as in is_psd.  The float and auto modes also report the
    largest eigenvalue on the complement and a unit maximizer.
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
    x = np.concatenate(([0.0], res.eigenvectors[:, -1]))
    f = x - float(w @ x) * w
    evidence = {"max_eig": -float(res.eigenvalues[-1]), "maximizer": tuple(f.tolist())}
    if mode == "auto" and near_zero:
        return _is_cnd_exact(*_escalated(d), **evidence)  # the same entries, checked above
    if psd:
        return CndVerdict(is_cnd=True, mode_used="float", **evidence)
    value = float(f @ a @ f)
    if value <= 0 or abs(float(f.sum())) > 1e-8:
        raise SpectraError("internal error: float certificate failed re-validation")
    return CndVerdict(
        is_cnd=False,
        mode_used="float",
        certificate=evidence["maximizer"],
        certificate_value=value,
        **evidence,
    )
