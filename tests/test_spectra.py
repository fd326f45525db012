import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qegraph import (
    Graph,
    ThetaSpec,
    Tolerances,
    classify_winkler,
    default_orientation_and_tree,
    distance_matrix,
    eigen_sym,
    fixtures,
    graph_from_uri,
    is_cnd,
    is_psd,
    make_cycle,
    make_path,
    make_theta,
    qec_cycle,
    winkler_kernel,
)
from qegraph import spectra
from qegraph.spectra import (
    SpectraError,
    _as_integer_sym,
    reduce_ones_complement,
)
from qegraph.cli import format_matrix_text

from conftest import (
    count_eigensolves,
    floyd_warshall,
    glued_parts,
    int_form,
    is_connected,
    is_isometric,
    random_connected_graph,
    tree_two_k,
)


def random_symmetric(rng: np.random.Generator, n: int, integer: bool = False):
    a = rng.integers(-4, 5, size=(n, n)) if integer else rng.normal(size=(n, n))
    return ((a + a.T) / 2.0) if not integer else (a + a.T)


def residual(m, res) -> float:
    """The worst max|Mv - lambda v| over the eigenpairs in res."""
    a = np.asarray(m, dtype=float)
    return float(np.abs(a @ res.eigenvectors - res.eigenvectors * res.eigenvalues).max())


@pytest.fixture()
def nprng():
    return np.random.default_rng(20260813)


def closed_form_spectra():
    """(matrix, spectrum) pairs whose spectra are known in closed form."""
    cases = []
    for n in (3, 4, 7, 12, 25):
        a = np.zeros((n, n))
        i = np.arange(n)
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
        cases.append((a, 2.0 * np.cos(2.0 * np.pi * i / n)))  # cycle C_n
    for n in (1, 2, 5, 13, 30):
        a = np.eye(n, k=1) + np.eye(n, k=-1)
        k = np.arange(1, n + 1)
        cases.append((a, 2.0 * np.cos(np.pi * k / (n + 1))))  # path P_n
    for n in (2, 6, 17):
        a = np.ones((n, n)) - np.eye(n)
        cases.append((a, np.array([n - 1.0] + [-1.0] * (n - 1))))  # complete K_n
    for spec in fixtures.QE_THETA_SPECS:
        tree = fixtures.reference_tree(spec)
        kern = winkler_kernel(tree.graph, tree)
        cases.append((kern.two_k, fixtures.reference_spectrum(spec)))
    return cases


class TestEigenSym:
    def test_matches_closed_form_spectra(self):
        for m, want in closed_form_spectra():
            res = eigen_sym(m)
            assert np.abs(res.eigenvalues - np.sort(want)[::-1]).max() <= 1e-12 * len(want)
            v = res.eigenvectors
            assert np.abs(v.T @ v - np.eye(len(want))).max() <= 1e-12 * len(want)
            assert residual(m, res) <= 1e-12 * len(want)

    def test_reconstruction_and_orthonormality(self, nprng, corpus):
        matrices = [random_symmetric(nprng, n) for n in (2, 4, 7, 12)]
        matrices += [random_symmetric(nprng, n, integer=True) for n in (3, 6, 10)]
        matrices += [distance_matrix(g).astype(float) for _, g, _ in corpus]
        for m in matrices:
            res = eigen_sym(m)
            v, lam = res.eigenvectors, res.eigenvalues
            scale = max(1.0, float(np.abs(m).max()))
            assert np.abs(v @ np.diag(lam) @ v.T - m).max() <= 1e-9 * scale
            assert np.abs(v.T @ v - np.eye(m.shape[0])).max() <= 1e-9
            assert residual(m, res) <= 1e-9 * scale

    def test_descending_order_and_diagonal_input(self):
        m = np.diag([3.0, -1.0, 7.0])
        res = eigen_sym(m)
        assert res.eigenvalues.tolist() == [7.0, 3.0, -1.0]
        assert residual(m, res) == 0.0

    def test_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(SpectraError):
            eigen_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SpectraError):
            eigen_sym(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(SpectraError):
            eigen_sym(np.zeros((2, 3)))

    def test_solver_failure_is_spectra_error(self, monkeypatch):
        def diverge(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", diverge)
        with pytest.raises(SpectraError, match="eigensolver failed"):
            eigen_sym(np.eye(3))

    @given(
        st.integers(min_value=1, max_value=40),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_planted_spectrum_property(self, n, repeated, seed):
        # Q diag(lam) Q^T with Q orthogonal from a QR factorization has
        # spectrum lam by construction; integer lam plants repeated eigenvalues
        rng = np.random.default_rng(seed)
        lam = rng.integers(-3, 4, size=n).astype(float) if repeated else rng.normal(size=n)
        lam = np.sort(lam)[::-1]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = (q * lam) @ q.T
        m = (m + m.T) / 2.0
        res = eigen_sym(m)
        assert np.abs(res.eigenvalues - lam).max() <= 1e-12 * n
        v = res.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12 * n
        assert residual(m, res) <= 1e-12 * n


class TestIsPsd:
    def test_gram_matrices_are_psd(self, nprng):
        for n in (2, 5, 9):
            a = nprng.normal(size=(n, n + 2))
            m = a @ a.T
            m = (m + m.T) / 2.0
            for mode in ("float", "exact", "auto"):
                assert is_psd(m, mode=mode).is_psd, mode

    def test_shifted_gram_is_not_psd(self, nprng):
        for n in (2, 5, 9):
            a = nprng.normal(size=(n, n))
            m = a @ a.T
            m = (m + m.T) / 2.0
            m -= (np.linalg.eigvalsh(m)[0] + 0.5) * np.eye(n)
            for mode in ("float", "exact", "auto"):
                verdict = is_psd(m, mode=mode)
                assert not verdict.is_psd
                cert = np.array([float(c) for c in verdict.certificate])
                assert float(cert @ m @ cert) < 0.0

    def test_float_and_exact_agree_on_integer_matrices(self, nprng):
        for n in (2, 4, 8, 16, 30):
            a = nprng.integers(-3, 4, size=(n, n))
            m = (a + a.T).astype(np.int64)
            f = is_psd(m.astype(float), mode="float")
            e = is_psd(m, mode="exact")
            assert f.is_psd == e.is_psd, (n, f.lambda_min)

    def test_exact_mode_on_singular_matrix(self):
        # PSD with nontrivial kernel: Laplacian-like
        m = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=np.int64)
        verdict = is_psd(m, mode="exact")
        assert verdict.is_psd and verdict.mode_used == "exact"

    def test_exact_certificate_on_zero_diagonal_trap(self):
        # diagonal pivots vanish but an off-diagonal entry survives
        m = np.array([[0, 1], [1, 0]], dtype=np.int64)
        verdict = is_psd(m, mode="exact")
        assert not verdict.is_psd
        cert = verdict.certificate
        value = sum(
            ci * cj * m[i][j]
            for i, ci in enumerate(cert)
            for j, cj in enumerate(cert)
        )
        assert value < 0

    def test_auto_escalates_near_zero(self):
        # exactly singular: float lambda_min lands within escalation range
        m = np.array([[1, 1], [1, 1]], dtype=np.int64)
        verdict = is_psd(m, mode="auto")
        assert verdict.is_psd and verdict.mode_used == "exact"

    def test_psd_certificate_exact_round_trip(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
        cert = is_psd(rows, mode="exact").certificate
        assert cert is not None
        value = sum(
            ci * cj * rows[i][j]
            for i, ci in enumerate(cert)
            for j, cj in enumerate(cert)
        )
        assert value < 0
        rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert is_psd(rows, mode="exact").certificate is None

    def test_exact_sees_a_determinant_float64_rounds_away(self):
        # det = (2^60 + 1)(2^60 - 1) - 2^120 = -1, but 2^60 +/- 1 round to
        # 2^60 in float64, where the matrix looks singular and PSD
        m = [[2**60 + 1, 2**60], [2**60, 2**60 - 1]]
        verdict = is_psd(m, mode="exact")
        assert not verdict.is_psd and verdict.mode_used == "exact"
        v = verdict.certificate
        value = sum(v[i] * m[i][j] * v[j] for i in range(2) for j in range(2))
        assert value == verdict.certificate_value < 0

    def test_nan_entry_is_spectra_error(self):
        for m in (np.array([[np.nan]]), [[float("nan")]]):
            for mode in ("float", "exact", "auto"):
                with pytest.raises(SpectraError, match="must be finite"):
                    is_psd(m, mode=mode)

    def test_infinite_entry_is_spectra_error(self):
        for m in (np.array([[np.inf]]), [[float("-inf")]]):
            for mode in ("float", "exact", "auto"):
                with pytest.raises(SpectraError, match="must be finite"):
                    is_psd(m, mode=mode)

    def test_complex_entries_are_spectra_error(self):
        # as a Hermitian matrix [[1, 2i], [-2i, 1]] has eigenvalues 3 and -1;
        # dropping the imaginary parts would decide the identity instead
        for m in (
            np.array([[1, 2j], [-2j, 1]]),
            [[1, 2j], [-2j, 1]],
            [[np.complex64(1), 0], [0, 1]],
            np.array([[Fraction(1), 2j], [-2j, 1]], dtype=object),
        ):
            for mode in ("float", "exact", "auto"):
                with pytest.raises(SpectraError, match="must be real"):
                    is_psd(m, mode=mode)
                with pytest.raises(SpectraError, match="must be real"):
                    is_cnd(m, mode=mode)
            with pytest.raises(SpectraError, match="must be real"):
                eigen_sym(m)

    def test_ragged_rows_are_spectra_error(self):
        for mode in ("float", "exact", "auto"):
            with pytest.raises(SpectraError, match="must be square"):
                is_psd([[1, 2], [2]], mode=mode)
            with pytest.raises(SpectraError, match="must be square"):
                is_cnd([[0, 2], [2]], mode=mode)

    def test_empty_row_list_is_the_empty_matrix(self):
        for mode in ("float", "exact", "auto"):
            assert is_psd([], mode=mode).is_psd
            assert is_cnd([], mode=mode).is_cnd
        res = eigen_sym([])
        assert res.eigenvalues.shape == (0,) and res.eigenvectors.shape == (0, 0)

    def test_float_certificate_value_does_not_depend_on_memory_order(self):
        # theta(2,3,9) is not QE: both routes return a float certificate,
        # whose value v.Mv must not change with the input's memory order
        g = make_theta(ThetaSpec(2, 3, 9))
        k = winkler_kernel(g).two_k
        d = distance_matrix(g)
        for mode in ("float", "auto"):
            c_order, f_order = is_psd(k, mode=mode), is_psd(np.asfortranarray(k), mode=mode)
            assert c_order.certificate_value < 0
            assert f_order.certificate_value == c_order.certificate_value
            assert f_order.certificate == c_order.certificate
            c_order, f_order = is_cnd(d, mode=mode), is_cnd(np.asfortranarray(d), mode=mode)
            assert c_order.certificate_value > 0
            assert f_order.certificate_value == c_order.certificate_value
            assert f_order.certificate == c_order.certificate


def diagonal_cases(rng: np.random.Generator):
    """Positive diagonals, (name, entries): the 2I of trees, integers,
    non-dyadic floats, and floats whose largest entry sits at the ends of
    the range in which LAPACK solves without rescaling."""
    for n in (1, 2, 39, 46, 300):
        yield "two-i", np.full(n, 2, dtype=np.int64)
    for _ in range(80):
        n = int(rng.integers(1, 60))
        yield "integer", rng.integers(1, 2**40, n)
        yield "non-dyadic", rng.uniform(0.1, 10.0, n) / 3
        yield "top", np.ldexp(rng.uniform(0.5, 1.0, n), 484)
        yield "bottom", np.ldexp(rng.uniform(0.5, 1.0, n), -483)


class TestDiagonalFloatRule:
    """Float and auto is_psd decide a diagonal matrix whose least entry
    clears the auto window from its diagonal, with the evidence eigen_sym
    would give, bit for bit, where LAPACK does not rescale the matrix."""

    @staticmethod
    def decide(monkeypatch, a, mode, tol=spectra.DEFAULT_TOLERANCES):
        with monkeypatch.context() as mp:
            calls = count_eigensolves(mp)
            verdict = is_psd(a, mode=mode, tol=tol)
        return verdict, calls

    def test_evidence_is_the_eigensolvers_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(4817)
        tol = Tolerances(psd_rel=2.0**-600)  # lets the smallest magnitudes clear the window
        names = set()
        for name, lam in diagonal_cases(rng):
            a = np.diag(lam)
            ref = eigen_sym(a).eigenvalues
            assert np.array_equal(ref, np.sort(lam.astype(float))[::-1]), name
            for mode in ("float", "auto"):
                verdict, calls = self.decide(monkeypatch, a, mode, tol if name == "bottom" else spectra.DEFAULT_TOLERANCES)
                assert calls == [], (name, mode)
                assert verdict.is_psd and verdict.mode_used == "float" and verdict.certificate is None
                assert verdict.lambda_min.hex() == float(ref[-1]).hex(), name
                assert verdict.lambda_max.hex() == float(ref[0]).hex(), name
            names.add(name)
        assert names == {"two-i", "integer", "non-dyadic", "top", "bottom"}

    def test_rescaled_magnitudes_go_to_the_eigensolver(self, monkeypatch):
        # from 2**485 on and below 2**-485 LAPACK scales the matrix, and
        # the eigenvalues it returns can differ from the diagonal entries
        rng = np.random.default_rng(485)
        tol = Tolerances(psd_rel=2.0**-700)
        differs = 0
        for exponent in (486, 600, 1000, -486, -600):
            for _ in range(40):
                lam = np.ldexp(rng.uniform(0.5, 1.0, int(rng.integers(2, 30))), exponent)
                a = np.diag(lam)
                verdict, calls = self.decide(monkeypatch, a, "float", tol)
                assert calls == [len(lam)]
                ref = eigen_sym(a).eigenvalues
                assert verdict.lambda_min == ref[-1] and verdict.lambda_max == ref[0]
                differs += not np.array_equal(ref, np.sort(lam)[::-1])
        assert differs > 0

    def test_a_zero_near_zero_or_negative_entry_goes_to_the_eigensolver(self, monkeypatch):
        # (diagonal, float verdict, auto mode used, auto verdict); the auto
        # window is 10 * 1e-9 * max(1, lambda_max)
        cases = (
            ([2, 0, 2], True, "exact", True),
            ([2, 1e-9, 2], True, "exact", True),
            ([2, 5e-9, 3], True, "exact", True),
            ([2, -1e-12, 2], True, "exact", False),
            ([2, -1, 2], False, "float", False),
        )
        for lam, float_psd, auto_mode, auto_psd in cases:
            a = np.diag(np.array(lam, dtype=float))
            verdict, calls = self.decide(monkeypatch, a, "float")
            assert calls == [3] and verdict.is_psd == float_psd, lam
            verdict, calls = self.decide(monkeypatch, a, "auto")
            assert calls == [3] and (verdict.mode_used, verdict.is_psd) == (auto_mode, auto_psd), lam
        # just clear of the window: decided from the diagonal
        verdict, calls = self.decide(monkeypatch, np.diag([2.0, 4e-8, 3.0]), "auto")
        assert calls == [] and verdict.mode_used == "float" and verdict.lambda_min == 4e-8

    def test_one_off_diagonal_entry_goes_to_the_eigensolver(self, monkeypatch):
        a = 2 * np.eye(12, dtype=np.int64)
        a[3, 7] = a[7, 3] = 1
        verdict, calls = self.decide(monkeypatch, a, "auto")
        assert calls == [12] and verdict.is_psd and verdict.lambda_max > 2


class TestExactIngestion:
    def test_integer_array_matches_generic_path(self, corpus):
        # an integer ndarray skips the Fraction conversion: the same int64
        # matrix and scale 1 as the list path gives, and the caller's own
        # int64 array comes back unconverted
        graphs = [g for _, g, _ in corpus] + [make_cycle(45), graph_from_uri("theta:2,3,40")]
        for g in graphs:
            for m in (distance_matrix(g), winkler_kernel(g).two_k):
                a, scale = _as_integer_sym(m)
                b, list_scale = _as_integer_sym(m.tolist())
                assert scale == list_scale == 1
                assert np.shares_memory(a, m) and b.dtype == np.int64 and np.array_equal(a, b)
                f, f_scale = _as_integer_sym(np.asfortranarray(m))
                assert f_scale == 1 and f.dtype == np.int64 and np.array_equal(f, a)

    def test_asymmetric_integer_array_is_rejected(self):
        m = np.array([[0, 1, 2], [1, 0, 1], [3, 1, 0]], dtype=np.int64)
        with pytest.raises(SpectraError, match="matrix must be exactly symmetric"):
            _as_integer_sym(m)
        with pytest.raises(SpectraError, match="matrix must be exactly symmetric"):
            is_psd(m, mode="exact")
        for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64)):
            with pytest.raises(SpectraError, match="must be square"):
                _as_integer_sym(bad)


def leibniz_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by permutation expansion, the sign from inversion counts."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def all_principal_minors_nonnegative(m: list[list[Fraction]]) -> bool:
    n = len(m)
    return all(
        leibniz_det([[m[i][j] for j in idx] for i in idx]) >= 0
        for k in range(1, n + 1)
        for idx in itertools.combinations(range(n), k)
    )


def draw_exact_case(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """An n x n integer symmetric matrix of the given kind."""
    if kind == "reducible":
        # a direct sum of 2-3 blocks of the other kinds under a random
        # permutation, so the blocks interleave in index order
        parts = int(rng.integers(2, min(n, 3) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False).tolist())
        a = np.zeros((n, n), dtype=np.int64)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            part = str(rng.choice(("symmetric", "planted", "zero-diagonal")))
            a[lo:hi, lo:hi] = draw_exact_case(rng, hi - lo, part)
        perm = rng.permutation(n)
        return a[np.ix_(perm, perm)]
    if kind == "planted":
        b = rng.integers(-2, 3, size=(int(rng.integers(0, n + 1)), n))
        return b.T @ b
    a = rng.integers(-3, 4, size=(n, n))
    a = a + a.T
    if kind == "zero-diagonal":
        a[np.diag_indices(n)] = rng.integers(0, 2, size=n) * rng.integers(0, 3, size=n)
    return a


class TestExactCore:
    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from(("symmetric", "planted", "zero-diagonal", "reducible")),
        st.sampled_from((1, 2, 3, 7, 21)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_principal_minor_oracle(self, n, kind, denominator, seed):
        # planted B^T B is PSD (singular when B has fewer rows than columns);
        # a zeroed diagonal exercises the zero-pivot certificate rules, a
        # permuted direct sum the split into irreducible blocks, and dividing
        # by a non-dyadic denominator the lcm scaling
        rng = np.random.default_rng(seed)
        if kind == "reducible":
            n = max(n, 2)
        a = draw_exact_case(rng, n, kind)
        rows = [[Fraction(int(x), denominator) for x in row] for row in a]
        expect_psd = all_principal_minors_nonnegative(rows)
        if kind == "planted":
            assert expect_psd
        verdict = is_psd(rows, mode="exact")
        assert verdict.is_psd == expect_psd
        cert = is_psd(rows, mode="exact").certificate
        assert (cert is None) == expect_psd
        if not expect_psd:

            def form(v):
                return sum(vi * rows[i][j] * vj for i, vi in enumerate(v) for j, vj in enumerate(v))

            assert form(verdict.certificate) == verdict.certificate_value < 0
            assert form(cert) < 0


def draw_planted_case(rng: np.random.Generator, n: int, kind: str) -> tuple[np.ndarray, bool]:
    """An n x n integer symmetric matrix and whether it is PSD, known by
    construction rather than computed."""
    b = rng.integers(-1, 2, size=(int(rng.integers(1, n)), n))  # rank below n
    i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
    if kind == "gram":
        return b.T @ b, True
    if kind == "shifted":
        # B z = 0 for z = e_i - e_j, so z^T (B^T B - cI) z = -2c
        b[:, j] = b[:, i]
        return b.T @ b - int(rng.integers(1, 4)) * np.eye(n, dtype=np.int64), False
    if kind == "zero-diagonal":
        # a zero diagonal entry beside a non-zero one in its row: the 2 x 2
        # principal minor on i, j is negative
        b[:, i] = 0
        a = b.T @ b
        a[i, j] = a[j, i] = int(rng.choice((-2, -1, 1, 2)))
        return a, False
    # a permuted direct sum of two parts: PSD iff both parts are
    cut = int(rng.integers(2, n - 1))
    a = np.zeros((n, n), dtype=np.int64)
    truth = True
    for lo, hi in ((0, cut), (cut, n)):
        part_kind = str(rng.choice(("gram", "shifted", "zero-diagonal")))
        part, part_psd = draw_planted_case(rng, hi - lo, part_kind)
        a[lo:hi, lo:hi] = part
        truth = truth and part_psd
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], truth


def on_list_loop(decide, m):
    """decide(m) with every block below the cut, so on the Python-int loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_NUMPY_MIN_DIM", 10**9)
        return decide(m)


def outcome(verdict) -> tuple:
    """Decision, certificate and its value; an exact certificate must be a
    tuple of Python ints, not of numpy integers or Fractions."""
    decision = verdict.is_psd if hasattr(verdict, "is_psd") else verdict.is_cnd
    if verdict.mode_used == "exact" and verdict.certificate is not None:
        assert type(verdict.certificate) is tuple
        assert all(type(x) is int for x in verdict.certificate)
    return decision, verdict.certificate, verdict.certificate_value


def full_scan_elimination(m) -> tuple[list[np.ndarray], list[int], int | None, tuple[int, int] | None]:
    """The dense loop's elimination of the integer block m, exactly over
    Python ints, with nothing deleted and the whole block scanned before
    every step.  Returns the blocks it reaches (object arrays, the first
    one m, the last one where it stops or hands off), the pivots, the
    index of the first block with an entry of 2**26 or more (None if it
    stops before one) and, when it stops at an entry of 2**31 or more, the
    handoff (pivots taken, last pivot).  It pivots as the loops do, on the
    first smallest positive diagonal entry, and stops at a negative one or
    when none is positive; for blocks whose live diagonal stays nonzero."""
    a = np.array(m.tolist(), dtype=object)
    prev, states, pivots, crossed = 1, [], [], None
    while True:
        states.append(a)
        top = max(abs(x) for x in a.flat)
        if crossed is None and top >= 2**26:
            crossed = len(pivots)
        if top >= 2**31:
            return states, pivots, crossed, (len(pivots), prev)
        diag = a.diagonal().tolist()
        if min(diag) < 0 or max(diag) <= 0:
            return states, pivots, crossed, None
        p = min(x for x in diag if x > 0)
        k = diag.index(p)
        a = (p * a - np.multiply.outer(a[k], a[k])) // prev
        pivots.append(p)
        prev = p


def crossing_gram_blocks():
    """Seeded PD Gram blocks and copies of them with one negative 2 x 2
    principal minor, (block, PSD), all below 2**26 at the start; the
    elimination of most of them reaches 2**26, and of some 2**31."""
    rng = np.random.default_rng(2026)
    for n, scale in ((12, 1), (13, 1), (11, 2), (14, 2), (16, 4), (20, 16), (24, 2**8), (32, 3)):
        for _ in range(2):
            b = rng.integers(-scale, scale + 1, size=(n + 3, n))
            a = b.T @ b
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            bad = a.copy()
            bad[i, j] = bad[j, i] = a[i, i] + a[j, j]
            yield a, True
            yield bad, False


def as_python_ints(a: np.ndarray) -> np.ndarray:
    """An integer-valued float64 or int64 block as an object array of ints."""
    return np.array(a.astype(np.int64).tolist(), dtype=object)


class TestInt64Elimination:
    """Blocks of _NUMPY_MIN_DIM rows or more run through the dense loop, as
    float64 arrays below 2**26 and int64 arrays below 2**31, and hand off
    to Python ints past 2**31; the result must be the list loop's."""

    @given(
        st.integers(min_value=12, max_value=60),
        st.sampled_from(("gram", "shifted", "zero-diagonal", "direct-sum")),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_planted_truth_and_list_loop(self, n, kind, seed):
        a, truth = draw_planted_case(np.random.default_rng(seed), n, kind)
        verdict = is_psd(a, mode="exact")
        assert verdict.is_psd == truth
        if not truth:
            value = int_form(a, verdict.certificate)
            assert value < 0 and value == verdict.certificate_value
        assert outcome(verdict) == outcome(on_list_loop(lambda m: is_psd(m, mode="exact"), a))

    def test_elimination_past_two_to_the_31_hands_off(self, monkeypatch):
        # entries near 2**20 pass 2**31 after the first pivot, so the int64
        # loop takes some pivots and the list loop the rest, carrying prev
        rng = np.random.default_rng(31)
        handoffs = []
        real = spectra._bareiss_certificate

        def spy(low, prev=1):
            handoffs.append(prev)
            return real(low, prev)

        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        for shift in (0, 1):
            b = rng.integers(-(2**8), 2**8, size=(30, 40))
            b[:, 7] = b[:, 3]
            a = b.T @ b - shift * np.eye(40, dtype=np.int64)
            assert 2**19 < np.abs(a).max() < 2**31
            handoffs.clear()
            verdict = is_psd(a, mode="exact")
            assert len(handoffs) == 1 and handoffs[0] > 1
            assert verdict.is_psd == (shift == 0)
            if shift:
                assert int_form(a, verdict.certificate) == verdict.certificate_value < 0
            assert outcome(verdict) == outcome(on_list_loop(lambda m: is_psd(m, mode="exact"), a))

    def test_running_bound_past_two_to_the_31_stays_on_int64(self, monkeypatch):
        # on J + I every live entry stays at most n + 1: step k pivots on
        # k + 1 and leaves k + 2 on the live diagonal and 1 off it.  The
        # running bound, (p * bound + bound**2) // prev + 1 from bound 2,
        # passes 2**31 within a few steps, so the block is rescanned, found
        # small, and eliminated to the end as int64 with no handoff
        n = 40
        bound, crossed = 2, None
        for k in range(1, n + 1):
            bound = ((k + 1) * bound + bound * bound) // k + 1
            if bound >= 2**31:
                crossed = k
                break
        assert crossed is not None and crossed < n - 1
        calls = []
        real = spectra._bareiss_certificate
        monkeypatch.setattr(spectra, "_bareiss_certificate", lambda *a: calls.append(a) or real(*a))
        a = np.eye(n, dtype=np.int64) + 1
        assert is_psd(a, mode="exact").is_psd
        a[n - 1, n - 1] = -1  # the minor on 0 and n - 1 is -3: not PSD
        verdict = is_psd(a, mode="exact")
        assert not verdict.is_psd
        assert int_form(a, verdict.certificate) == verdict.certificate_value < 0
        assert calls == []
        assert outcome(verdict) == outcome(on_list_loop(lambda m: is_psd(m, mode="exact"), a))

    def test_overflow_hands_off_where_a_full_scan_would(self, monkeypatch):
        # the reference scans the whole live block, exactly over Python
        # ints, before every step; the dense loop must hand the list loop
        # the same live block after the same pivots, and hand off nothing
        # when the reference stops before an entry reaches 2**31
        def full_scan_handoff(m):
            a = np.array(m.tolist(), dtype=object)
            prev, steps = 1, 0
            while max(abs(x) for x in a.flat) < 2**31:
                diag = a.diagonal().tolist()
                if min(diag) < 0 or max(diag) <= 0:
                    return None
                p = min(x for x in diag if x > 0)
                k = diag.index(p)
                a = (p * a - np.multiply.outer(a[k], a[k])) // prev
                prev, steps = p, steps + 1
            return steps, prev

        handoffs = []
        real = spectra._bareiss_certificate

        def spy(low, prev=1):
            handoffs.append((len(low), prev))
            return real(low, prev)

        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        rng = np.random.default_rng(2031)
        seen_steps = set()
        for scale in (1, 2, 2**3, 2**9):
            b = rng.integers(-scale, scale + 1, size=(30, 36))
            b[:, 5] = b[:, 2]
            for shift in (0, 1):
                a = b.T @ b - shift * np.eye(36, dtype=np.int64)
                want = full_scan_handoff(a)
                handoffs.clear()
                verdict = is_psd(a, mode="exact")
                if want is None:
                    assert handoffs == [], (scale, shift)
                else:
                    steps, prev = want
                    seen_steps.add(steps)
                    assert handoffs == [(36 - steps, prev)], (scale, shift)
                assert verdict.is_psd == (shift == 0)
        assert len(seen_steps) > 2  # hand-offs early and late in the elimination

    def test_a_negative_diagonal_entry_stops_the_elimination(self, monkeypatch):
        # a PD Gram block with one 2 x 2 principal minor made negative: a
        # live diagonal entry turns negative while positive ones remain, and
        # both loops stop there, with fewer pivots (one lift step each) than
        # the rank
        lifts = []
        real = spectra._lift
        monkeypatch.setattr(spectra, "_lift", lambda v, p, xk: lifts.append(p) or real(v, p, xk))
        rng = np.random.default_rng(1968)
        for n in (12, 20, 31, 45):
            for _ in range(4):
                b = rng.integers(-2, 3, size=(n + 2, n))
                a = b.T @ b + np.eye(n, dtype=np.int64)
                i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
                a[i, j] = a[j, i] = a[i, i] + a[j, j]
                rank = np.linalg.matrix_rank(a)
                lifts.clear()
                cert = spectra._bareiss_dense(a.copy())
                pivots = len(lifts)
                lifts.clear()
                assert spectra._bareiss_certificate(lower(a)) == cert == list_loop_rescaling_lift(lower(a))
                assert len(lifts) == pivots < rank - 1
                assert int_form(a, cert) < 0

    def test_zero_rows_of_a_singular_psd_block_are_set_aside(self, monkeypatch):
        # rows of zeros, interleaved with the rest, are the least diagonal
        # entries but never a pivot: the dense loop sets them aside, and
        # hands a PSD block off only once an entry reaches 2**31; the
        # certificate of a failing block is zero on them
        handoffs = []
        real = spectra._bareiss_certificate

        def spy(low, prev=1):
            handoffs.append(max(abs(x) for row in low for x in row))
            return real(low, prev)

        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        rng = np.random.default_rng(1878)
        for n in (12, 24, 40):
            for shift in (0, 1):
                b = rng.integers(-1, 2, size=(n // 2, n))
                zero = rng.choice(n, size=n // 4, replace=False)
                b[:, zero] = 0
                a = b.T @ b
                live = np.setdiff1d(np.arange(n), zero)
                a[live, live] -= shift
                handoffs.clear()
                cert = spectra._bareiss_dense(a.copy())
                assert shift or all(top >= 2**31 for top in handoffs)
                assert cert == real(lower(a)) == list_loop_rescaling_lift(lower(a))
                assert (cert is None) == (shift == 0)
                if shift:
                    assert all(cert[z] == 0 for z in zero) and int_form(a, cert) < 0

    def test_crossing_two_to_the_26_keeps_the_full_scan_elimination(self, monkeypatch):
        # blocks that start below 2**26 and reach it while the dense loop
        # runs: pivots, handoff and certificate must be those of a full
        # scan over Python ints, and the certificate the list loop's
        handoffs, lifts = [], []
        real_list, real_lift = spectra._bareiss_certificate, spectra._lift

        def spy(low, prev=1):
            handoffs.append((len(low), prev))
            return real_list(low, prev)

        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        monkeypatch.setattr(spectra, "_lift", lambda v, p, xk: lifts.append(p) or real_lift(v, p, xk))
        kinds = set()
        for a, psd in crossing_gram_blocks():
            assert np.abs(a).max() < 2**26
            _, pivots, crossed, handoff = full_scan_elimination(a)
            if crossed is None:
                continue
            handoffs.clear()
            lifts.clear()
            cert = spectra._bareiss_dense(a)
            dense_lifts = lifts[len(lifts) - len(pivots) :]
            assert handoffs == ([] if handoff is None else [(len(a) - handoff[0], handoff[1])])
            assert (cert is None) == psd
            assert cert == real_list(lower(a)) == list_loop_rescaling_lift(lower(a))
            if not psd:
                assert dense_lifts == pivots[::-1]
                assert int_form(a, cert) < 0
            kinds.add((psd, handoff is not None))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_no_float_step_starts_at_two_to_the_26(self, monkeypatch):
        # each scan of the running bound is matched to the full scan's
        # block at the same step: a float64 block past the first block
        # with an entry of 2**26 or more would come from a float step that
        # started at one, and the scan of that first block must happen, in
        # float64, so that the loop leaves float64 there
        real = spectra._magnitude
        states, crossed, scans = [], [None], []

        def spy(a):
            step = next(t for t, state in enumerate(states) if (state == as_python_ints(a)).all())
            is_float = a.dtype == np.float64
            assert not is_float or step <= crossed[0], (step, crossed[0])
            scans.append((step, is_float))
            return real(a)

        monkeypatch.setattr(spectra, "_magnitude", spy)
        checked = 0
        for a, _ in crossing_gram_blocks():
            states[:], _, crossed[0], _ = full_scan_elimination(a)
            if crossed[0] is None:
                continue
            scans.clear()
            spectra._bareiss_dense(a)
            assert (crossed[0], True) in scans
            assert all(step > crossed[0] for step, is_float in scans[1:] if not is_float)
            checked += 1
        assert checked >= 20

    def test_a_small_pivot_beside_large_row_entries_rescans(self, monkeypatch):
        # the pivot p on a row of entries x, x**2 just below p * top, beside
        # the singular block [[top, -top], [-top, top]]: the step keeps the
        # live diagonal positive but writes -(p * top + x**2), about
        # 2 * p * top, past 2**26, where a bound of (p * bound + bound) //
        # prev would stay near (p + 1) * top, below it.  The running bound's
        # bound**2 term makes the loop rescan there, leave float64, and
        # hand off at 2**31 after the full scan's pivots
        real_scan, real_list = spectra._magnitude, spectra._bareiss_certificate
        states, scans, handoffs = [], [], []

        def scan(a):
            step = next(t for t, state in enumerate(states) if (state == as_python_ints(a)).all())
            scans.append((step, a.dtype == np.float64))
            return real_scan(a)

        def spy(low, prev=1):
            handoffs.append((len(low), prev))
            return real_list(low, prev)

        monkeypatch.setattr(spectra, "_magnitude", scan)
        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        for p, n in ((2**12, 12), (4500, 16), (5000, 24)):
            top = 2**26 // (2 * p) + 50
            x = math.isqrt(p * top - 1)
            assert (p + 1) * top + 1 < 2**26 <= p * top + x * x
            a = top * np.eye(n, dtype=np.int64)
            a[0, 0] = p
            a[1, 2] = a[2, 1] = -top
            a[0, 1] = a[1, 0] = a[0, 2] = a[2, 0] = x
            states[:], pivots, crossed, handoff = full_scan_elimination(a)
            assert pivots[0] == p and crossed == 1 and handoff == (2, p * top - x * x)
            scans.clear()
            handoffs.clear()
            cert = spectra._bareiss_dense(a)
            assert (1, True) in scans and all(not is_float for step, is_float in scans if step > 1)
            assert handoffs == [(n - 2, handoff[1])]
            assert cert == real_list(lower(a)) == list_loop_rescaling_lift(lower(a))
            assert int_form(a, cert) < 0

    def test_entries_from_two_to_the_26_skip_the_float_stage(self, monkeypatch):
        # a block that starts in [2**26, 2**31) is eliminated as int64 from
        # the first step, with the full scan's handoff and the list loop's
        # certificate
        real_scan, real_list = spectra._magnitude, spectra._bareiss_certificate
        dtypes, handoffs = [], []
        monkeypatch.setattr(spectra, "_magnitude", lambda a: dtypes.append(a.dtype) or real_scan(a))

        def spy(low, prev=1):
            handoffs.append((len(low), prev))
            return real_list(low, prev)

        monkeypatch.setattr(spectra, "_bareiss_certificate", spy)
        rng = np.random.default_rng(2**26)
        for n in (12, 20, 30):
            b = rng.integers(-(2**12), 2**12 + 1, size=(n + 3, n))
            a = b.T @ b
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            bad = a.copy()
            bad[i, j] = bad[j, i] = a[i, i] + a[j, j]
            for m, psd in ((a, True), (bad, False)):
                assert 2**26 <= np.abs(m).max() < 2**31
                _, _, _, handoff = full_scan_elimination(m)
                dtypes.clear()
                handoffs.clear()
                cert = spectra._bareiss_dense(m)
                assert len(dtypes) >= 2 and set(dtypes) == {np.dtype(np.int64)}
                assert handoffs == ([] if handoff is None else [(n - handoff[0], handoff[1])])
                assert (cert is None) == psd
                assert cert == real_list(lower(m)) == list_loop_rescaling_lift(lower(m))

    # the largest entry of the exact Schoenberg certificate of theta(2, 3, c)
    # under the pivot rule before this one, largest live diagonal entry first
    LARGEST_FIRST_ENTRY = {
        9: 14, 11: 9, 13: 22, 15: 13, 17: 30, 19: 17, 21: 38, 23: 21, 25: 46, 27: 25,
        29: 54, 31: 29, 33: 62, 35: 33, 37: 70, 39: 37, 41: 78, 43: 41, 45: 86,
    }

    def test_theta_2_3_c_certificates_stay_as_small(self):
        # bits, as the benchmark's certificate.bits_max counts them: at
        # c = 11 the largest entry is 10 against 9
        for c, before in self.LARGEST_FIRST_ENTRY.items():
            d = floyd_warshall(make_theta(ThetaSpec(2, 3, c)))
            verdict = is_cnd(d, mode="exact")
            assert not verdict.is_cnd and sum(verdict.certificate) == 0
            assert int_form(d, verdict.certificate) == verdict.certificate_value > 0
            assert max(map(abs, verdict.certificate)).bit_length() <= before.bit_length()

    def test_entries_past_int64_stay_python_ints(self):
        # uint64 2**63 + 1 wraps negative in int64
        n = 20
        a = np.ones((n, n), dtype=np.uint64)
        a[0, 0] = 2**63 + 1
        assert is_psd(a, mode="exact").is_psd
        a[0, 1] = a[1, 0] = 2**62  # the 2 x 2 minor on 0, 1 is now negative
        verdict = is_psd(a, mode="exact")
        assert not verdict.is_psd
        assert int_form(a, verdict.certificate) == verdict.certificate_value < 0
        assert outcome(verdict) == outcome(is_psd(a.tolist(), mode="exact"))
        # Fractions whose lcm is far past 2**31: B^T B +/- diag(1/p_i) over
        # distinct primes p_i is PD, and not PSD once B has a kernel
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:n]
        b = np.random.default_rng(5).integers(-1, 2, size=(n - 3, n)).tolist()
        gram = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        for sign in (1, -1):
            m = [row[:] for row in gram]
            for i, p in enumerate(primes):
                m[i][i] += sign * Fraction(1, p)
            verdict = is_psd(m, mode="exact")
            assert verdict.is_psd == (sign == 1)
            if sign < 0:
                _, v, _ = outcome(verdict)
                form = sum(vi * m[i][j] * vj for i, vi in enumerate(v) for j, vj in enumerate(v))
                assert form == verdict.certificate_value < 0
        # big Python ints in a distance matrix: D * 2**40 has the verdicts of D
        for uri in ("cycle:41", "theta:2,3,9"):
            d = distance_matrix(graph_from_uri(uri))
            big = is_cnd([[int(x) << 40 for x in row] for row in d.tolist()], mode="exact")
            assert outcome(big)[0] == is_cnd(d, mode="exact").is_cnd
            if not big.is_cnd:
                assert sum(big.certificate) == 0
                assert big.certificate_value == Fraction(int_form(d, big.certificate) << 40) > 0

    def test_small_integer_distance_dtypes(self):
        # on a 256-vertex path d(i, r) + d(j, r) reaches 256, which wraps in
        # uint8; a tree is QE, so the verdict must stay positive
        d = distance_matrix(make_path(256))
        want = is_cnd(d, mode="exact")
        assert want.is_cnd
        for dtype in (np.uint8, np.int16):
            assert outcome(is_cnd(d.astype(dtype), mode="exact")) == outcome(want)
        d = distance_matrix(graph_from_uri("theta:2,3,9"))
        want = is_cnd(d, mode="exact")
        for dtype in (np.uint8, np.int16):
            assert outcome(is_cnd(d.astype(dtype), mode="exact")) == outcome(want)

    def test_large_blocks_take_the_int64_path(self, monkeypatch):
        calls = []
        real = spectra._bareiss_certificate
        monkeypatch.setattr(spectra, "_bareiss_certificate", lambda *a: calls.append(a) or real(*a))
        assert is_cnd(distance_matrix(make_cycle(41)), mode="exact").is_cnd
        assert is_psd(np.eye(40, dtype=np.int64) + 1, mode="exact").is_psd
        assert calls == []

    def test_caller_arrays_are_not_written(self):
        d = distance_matrix(make_cycle(41))
        two_k = winkler_kernel(graph_from_uri("theta:2,3,30")).two_k
        for m, decide in ((d, is_cnd), (two_k, is_psd), (np.eye(40, dtype=np.int64) + 1, is_psd)):
            before = m.copy()
            decide(m, mode="exact")
            assert np.array_equal(m, before)


class TestSingletonBlocks:
    """A 1 x 1 irreducible block is decided by the sign of its entry."""

    @pytest.fixture
    def no_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("elimination called")

        for name in ("_bareiss_certificate", "_bareiss_dense", "_lower"):
            monkeypatch.setattr(spectra, name, refuse)

    def test_diagonal_with_one_negative_entry_gives_e_i(self, no_elimination):
        for n in (5, 30):
            diag = [3, 1, 0] + [2] * (n - 3)
            diag[n - 2] = -2
            thirds = [[Fraction(x, 3) if i == j else 0 for j in range(n)] for i, x in enumerate(diag)]
            for m, value in ((np.diag(diag), -2), (thirds, Fraction(-2, 3))):
                verdict = is_psd(m, mode="exact")
                assert not verdict.is_psd
                assert verdict.certificate == tuple(int(i == n - 2) for i in range(n))
                assert all(type(x) is int for x in verdict.certificate)
                assert verdict.certificate_value == value
            diag[n - 2] = 0
            assert is_psd(np.diag(diag), mode="exact").is_psd

    def test_trees_are_decided_with_no_elimination(self, no_elimination):
        # 2K of a tree is diagonal, and so is its anchored Schoenberg
        # reduction: every block of a tree is a bridge
        rng = random.Random(17)
        star = Graph(25, tuple((0, v) for v in range(1, 25)))
        tree = Graph(33, tuple((rng.randrange(v), v) for v in range(1, 33)))
        for g in (make_path(40), star, tree):
            assert classify_winkler(g, mode="exact").is_qe
            assert is_psd(winkler_kernel(g).two_k, mode="exact").is_psd
            assert is_cnd(distance_matrix(g), mode="exact").is_cnd


def on_dense_path(decide, m):
    """decide(m) with every block below the sparse cut, so on the int64 or
    list loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_SPARSE_MIN_DIM", 10**9)
        return decide(m)


def sparse_edges(rng: np.random.Generator, n: int, kind: str) -> list[tuple[int, int]]:
    """The off-diagonal pattern of a sparse case on n indices, relabelled at
    random: a path, a random tree, or a cycle with up to n // 4 chords,
    whose elimination fills in."""
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "tree":
        edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    else:
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(int(rng.integers(0, n // 4 + 1))):
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((i, j))
    perm = rng.permutation(n).tolist()
    return [(perm[i], perm[j]) for i, j in edges]


def draw_sparse_case(rng: np.random.Generator, n: int, kind: str, pattern: str) -> tuple[np.ndarray, bool | None]:
    """An n x n sparse integer symmetric matrix on the pattern, and whether
    it is PSD where that is known by construction (None otherwise)."""
    edges = sparse_edges(rng, n, pattern)
    a = np.zeros((n, n), dtype=np.int64)
    if kind == "dominant":
        # diagonal near the absolute off-diagonal row sum: either verdict
        for i, j in edges:
            a[i, j] = a[j, i] = int(rng.choice((-3, -2, -1, 1, 2, 3)))
        a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + rng.integers(-3, 2, size=n)
        return a, None
    # a sparse factor: B has a row w (s_i e_i - s_j e_j) per edge, so B s = 0
    # for the signs s, and A = B^T B is PSD and singular
    signs = rng.choice((-1, 1), size=n)
    for i, j in edges:
        row = np.zeros(n, dtype=np.int64)
        row[i], row[j] = signs[i], -signs[j]
        a += int(rng.choice((1, 2, 3))) ** 2 * np.multiply.outer(row, row)
    k = int(rng.integers(n))
    if kind == "planted-psd":
        a[np.diag_indices(n)] += rng.integers(0, 2, size=n) * rng.integers(0, 3, size=n)
        return a, True
    if kind == "planted-not-psd":
        a[k, k] -= int(rng.integers(1, 4))  # s^T A s = -c
        return a, False
    # a zero diagonal entry beside a nonzero one in its row: the 2 x 2 minor
    # there is negative
    a[k, k] = 0
    return a, not a[k].any()


class TestSparseElimination:
    """Irreducible blocks of at least _SPARSE_MIN_DIM rows with at most
    _SPARSE_MAX_NNZ nonzeros per row run through _sparse_certificate; its
    verdict must be the dense loops' and its certificate must re-check."""

    @given(
        st.integers(min_value=6, max_value=40),
        st.sampled_from(("dominant", "planted-psd", "planted-not-psd", "zero-diagonal")),
        st.sampled_from(("path", "tree", "chords")),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_dense_verdict(self, n, kind, pattern, big, seed):
        a, truth = draw_sparse_case(np.random.default_rng(seed), n, kind, pattern)
        if big:
            # an object array of Python ints past 2**31: the same verdicts
            a = np.array((a * 2**33).tolist(), dtype=object)
        calls = []
        real = spectra._sparse_certificate
        with pytest.MonkeyPatch.context() as mp:
            # the pattern is connected and inside the cut: one sparse block
            mp.setattr(spectra, "_sparse_certificate", lambda m: calls.append(len(m)) or real(m))
            verdict = is_psd(a, mode="exact")
        assert calls == [n]
        dense = on_dense_path(lambda m: is_psd(m, mode="exact"), a)
        assert verdict.is_psd == dense.is_psd
        if truth is not None:
            assert verdict.is_psd == truth
        if not verdict.is_psd:
            cert = verdict.certificate
            assert type(cert) is tuple and all(type(x) is int for x in cert)
            assert math.gcd(*cert) == 1
            assert int_form(a, cert) == verdict.certificate_value < 0

    @pytest.mark.parametrize("c, d", [(1, 6), (1, 1), (2, 3)])
    def test_a_zero_pivot_left_by_elimination_stops_it(self, monkeypatch, c, d):
        # on a cycle of 8 rows the first pivot is 0, the lowest index of
        # least degree; with a_00 = a_01 = a_11 = 1 and a_02 = c it leaves
        # a_11 = 0 beside the fill a_12 = -c, and a_22 = d - c**2 positive,
        # zero or negative, so the certificate max(a_22, 1) e_1 - a_12 e_2
        # lifts through pivot 0 alone
        n = 8
        a = 3 * np.eye(n, dtype=np.int64)
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)):
            a[i, j] = a[j, i] = 1
        a[0, 0] = a[1, 1] = 1
        a[0, 2] = a[2, 0] = c
        a[2, 2] = d
        calls = []
        real = spectra._sparse_certificate
        monkeypatch.setattr(spectra, "_sparse_certificate", lambda m: calls.append(len(m)) or real(m))
        verdict = is_psd(a, mode="exact")
        assert calls == [n] and not verdict.is_psd
        assert set(np.flatnonzero(verdict.certificate).tolist()) == {0, 1, 2}
        assert int_form(a, verdict.certificate) == verdict.certificate_value < 0

    def test_exact_winkler_at_north_star_sizes(self):
        for uri in ("cycle:1001", "theta:1,500,500"):
            verdict = classify_winkler(graph_from_uri(uri), mode="exact")
            assert verdict.is_qe and verdict.mode_used == "exact"
        for uri in ("theta:2,3,195", "theta:3,40,60"):
            g = graph_from_uri(uri)
            verdict = classify_winkler(g, mode="exact")
            assert not verdict.is_qe and verdict.mode_used == "exact"
            two_k = tree_two_k(floyd_warshall(g), default_orientation_and_tree(g).tree_edges)
            value = int_form(two_k, verdict.evidence["certificate"])
            assert Fraction(value, 2) == Fraction(verdict.evidence["certificate_value"]) < 0
        for uri in ("cycle:301", "theta:1,150,150"):
            two_k = winkler_kernel(graph_from_uri(uri)).two_k
            dense = on_dense_path(lambda m: is_psd(m, mode="exact"), two_k)
            assert is_psd(two_k, mode="exact").is_psd and dense.is_psd

    @pytest.fixture
    def sparse_calls(self, monkeypatch) -> list[int]:
        calls = []
        real = spectra._sparse_certificate
        monkeypatch.setattr(spectra, "_sparse_certificate", lambda m: calls.append(len(m)) or real(m))
        return calls

    @staticmethod
    def components(a: np.ndarray) -> list[tuple[list[int], int]]:
        """The connected components of the nonzero pattern, each with its
        number of nonzero entries."""
        todo, found = set(range(len(a))), []
        while todo:
            block, nonzeros = [todo.pop()], 0
            for i in block:  # grows while it is read
                row = {int(j) for j in np.flatnonzero(a[i])}
                nonzeros += len(row)
                block += row & todo
                todo -= row
            found.append((sorted(block), nonzeros))
        return found

    def test_kernels_of_cycles_and_thetas_take_it(self, sparse_calls):
        # each irreducible block of 2K, decided on its own, runs through it
        # iff it is inside the cut
        thetas = [
            ThetaSpec(a, b, c) for a in range(1, 5) for b in range(max(a, 2), 9) for c in range(b, 14)
        ]
        odd_cycles = [make_cycle(m) for m in range(7, 60, 2)]
        other_cycles = [make_cycle(m) for m in (3, 4, 5, 6, *range(8, 60, 2))]
        taken = []
        for g in odd_cycles + other_cycles + [make_theta(s) for s in thetas]:
            two_k = winkler_kernel(g).two_k
            took = False
            for block, nonzeros in self.components(two_k):
                size = len(block)
                inside = size >= spectra._SPARSE_MIN_DIM and nonzeros <= spectra._SPARSE_MAX_NNZ * size
                sparse_calls.clear()
                is_psd(two_k[np.ix_(block, block)], mode="exact")
                assert sparse_calls == ([size] if inside else [])
                took = took or inside
            taken.append(took)
        assert all(taken[: len(odd_cycles)]) and sum(taken) > len(taken) // 2

    def test_dense_blocks_keep_the_dense_loops(self, sparse_calls):
        # the exact Schoenberg reductions of cycles and thetas, among them
        # the sparsest, theta(1, 3, 4)'s at 4 nonzeros per row, and the
        # planted Gram blocks of TestInt64Elimination
        thetas = [ThetaSpec(a, b, c) for a in range(1, 5) for b in range(max(a, 2), 8) for c in range(b, 12)]
        graphs = [make_cycle(m) for m in range(3, 80)] + [make_theta(s) for s in thetas]
        graphs += [graph_from_uri(uri) for uri in ("theta:2,3,41", "theta:1,20,27", "theta:3,10,30")]
        for g in graphs:
            is_cnd(distance_matrix(g), mode="exact")
        rng = np.random.default_rng(23)
        for n in range(12, 61, 4):
            for _ in range(3):
                gram, _ = draw_planted_case(rng, n, "gram")
                assert is_psd(gram, mode="exact").is_psd
        assert sparse_calls == []


def per_block_loop(a: np.ndarray) -> list[int] | None:
    """The reference for the exact dispatch: the irreducible blocks, found
    by TestSparseElimination.components, in index order, each decided on
    its own, a 1 x 1 block by its sign and any other by the list loop, with
    no diagonal pass, no whole-matrix shortcut and no pass over the blocks
    of 1 and 2 rows; the first failing block's certificate padded with
    zeros."""
    for block, _ in sorted(TestSparseElimination.components(a)):
        if len(block) == 1:
            cert = [1] if a[block[0], block[0]] < 0 else None
        else:
            cert = spectra._bareiss_certificate([row[: t + 1] for t, row in enumerate(a[np.ix_(block, block)].tolist())])
        if cert is not None:
            v = [0] * len(a)
            for i, x in zip(block, cert):
                v[i] = x
            return v
    return None


PAIR_KINDS = (
    "1x1-negative",
    "1x1-zero",
    "1x1-positive",
    "negative-diagonal",
    "zero-beside-nonzero",
    "det-x>z",
    "det-x<z",
    "det-x=z",
    "singular",
    "definite",
)


def draw_pair(rng: np.random.Generator, kind: str) -> list[list[int]]:
    """A block of 1 row, or of 2 rows [[x, y], [y, z]] with y != 0, of the
    kind named: failing on a negative diagonal entry, on a zero diagonal
    entry beside y, or on xz < y**2 with x > z, x < z or x = z; PSD and
    singular (xz = y**2) or positive definite."""

    def r(lo, hi):
        return int(rng.integers(lo, hi + 1))

    if kind.startswith("1x1"):
        return [[{"1x1-negative": -r(1, 5), "1x1-zero": 0, "1x1-positive": r(1, 5)}[kind]]]
    sign = int(rng.choice((-1, 1)))
    y = sign * r(1, 4)
    if kind == "negative-diagonal":
        x, z = -r(1, 4), r(-4, 6)
    elif kind == "zero-beside-nonzero":
        x, z = 0, r(-3, 6)
    elif kind in ("det-x>z", "det-x<z"):
        z = r(0, 5)
        x = z + r(1, 5)
        y = sign * (math.isqrt(x * z) + r(1, 3))
    elif kind == "det-x=z":
        x = z = r(1, 6)
        y = sign * (x + r(1, 3))
    elif kind == "singular":
        s, t, k = r(1, 3), r(1, 3), r(1, 3)
        x, z, y = k * s * s, k * t * t, sign * k * s * t
    else:
        x, z = r(2, 6), r(2, 6)
        y = sign * r(1, math.isqrt(x * z - 1))
    if kind == "det-x<z" or (kind in ("negative-diagonal", "zero-beside-nonzero") and rng.random() < 0.5):
        x, z = z, x
    return [[x, y], [y, z]]


class TestSmallBlocks:
    """Every block of 1 or 2 rows is decided in one pass; the verdict and
    the certificate must be those of the per-block loop."""

    @given(
        st.lists(st.sampled_from(PAIR_KINDS + ("larger",)), min_size=1, max_size=14),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_block_loop(self, kinds, big, seed):
        rng = np.random.default_rng(seed)
        parts = []
        for kind in kinds:
            if kind == "larger":
                size = int(rng.integers(3, 21))
                part_kind = str(rng.choice(("gram", "shifted", "zero-diagonal")))
                parts.append(draw_planted_case(rng, size, part_kind)[0])
            else:
                parts.append(np.array(draw_pair(rng, kind), dtype=np.int64))
        n = sum(len(p) for p in parts)
        a = np.zeros((n, n), dtype=np.int64)
        lo = 0
        for p in parts:
            a[lo : lo + len(p), lo : lo + len(p)] = p
            lo += len(p)
        perm = rng.permutation(n)
        a = a[np.ix_(perm, perm)]
        if big:
            a = np.array([[x << 33 for x in row] for row in a.tolist()], dtype=object)
        want = per_block_loop(a)
        # the larger blocks on the int64 or the list loop, which give the
        # list loop's certificate
        got = on_dense_path(spectra._integer_psd_certificate, a)
        assert got == want
        verdict = on_dense_path(lambda m: is_psd(m, mode="exact"), a)
        assert verdict.is_psd == (want is None)
        if want is not None:
            assert int_form(a, verdict.certificate) == verdict.certificate_value < 0

    @pytest.mark.parametrize("scale, dtype", [(1, np.int64), (2**29, np.int64), (10**12, object)])
    def test_pair_rule_matches_the_list_loop_on_every_small_triple(self, scale, dtype):
        # at 2**29 the int64 entries pass 2**31 and their products int64,
        # so the rule compares them over Python ints
        triples = [(x * scale, y * scale, z * scale) for x, y, z in itertools.product(range(-4, 7), repeat=3)]
        x, y, z = (np.array(column, dtype=dtype) for column in zip(*triples))
        failing = spectra._failing_pairs(x, y, z).tolist()
        for (xi, yi, zi), fails in zip(triples, failing):
            want = spectra._bareiss_certificate([[xi], [yi, zi]])
            assert fails == (want is not None), (xi, yi, zi)
            a = np.array([[xi, yi], [yi, zi]], dtype=dtype)
            assert spectra._integer_psd_certificate(a) == want, (xi, yi, zi)

    def test_pair_entries_past_two_to_the_31_do_not_wrap(self, monkeypatch):
        # an int64 distance matrix below 2**31 whose anchored reduction has
        # blocks [[2m, 2**31], [2**31, 2m]] and [[0, -2], [-2, 0]]: (2m)**2
        # leaves int64, and a wrapped product would flag the PSD first block
        # and report no failing block at all
        m = 2**31 - 1
        d = np.zeros((5, 5), dtype=np.int64)
        entries = {(0, 1): m, (0, 2): m, (1, 3): m, (1, 4): m, (2, 3): m, (2, 4): m, (1, 2): m - 1, (3, 4): 2}
        for (u, v), x in entries.items():
            d[u, v] = d[v, u] = x
        reductions = []
        real = spectra._integer_psd_certificate
        monkeypatch.setattr(spectra, "_integer_psd_certificate", lambda a: reductions.append(a.copy()) or real(a))
        assert not is_cnd(d, mode="exact").is_cnd
        (r,) = reductions
        assert r.dtype == np.int64 and r.max() >= 2**31
        want = per_block_loop(r)
        assert want is not None and real(r) == want
        assert real(np.array(r.tolist(), dtype=object)) == want

    def test_two_row_kernel_blocks_skip_the_list_loop(self, monkeypatch):
        # the 2K of an even cycle, or of theta(1, b, c) with c odd and b odd
        # or 2, is all blocks of 2 rows: decided with no elimination call
        # when PSD
        calls = []
        for name in ("_bareiss_certificate", "_bareiss_dense", "_sparse_certificate", "_lower"):
            monkeypatch.setattr(spectra, name, lambda *args, name=name: calls.append(name))
        graphs = [make_cycle(m) for m in range(8, 50, 2)]
        graphs += [make_theta(ThetaSpec(1, b, c)) for b in range(2, 12) for c in range(b, 30) if c % 2 and (b % 2 or b == 2)]
        for g in graphs:
            two_k = winkler_kernel(g).two_k
            assert max(len(block) for block, _ in TestSparseElimination.components(two_k)) == 2
            assert is_psd(two_k, mode="exact").is_psd
        assert calls == []


def list_loop_rescaling_lift(low: list[list[int]], prev: int = 1) -> list[int] | None:
    """The reference for the certificate lift: the list loop with the lift
    it had before one gcd per step, which rescales the whole vector by the
    pivot and divides it by the gcd of all its entries at every step."""
    pivots = []
    while low:
        diag = [row[-1] for row in low]
        if min(diag) < 0 or max(diag) <= 0:
            break
        p = min(x for x in diag if x > 0)
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
    v = spectra._zero_pivot_certificate(low)
    if v is None:
        return None
    for k, p, col in reversed(pivots):
        xk = -sum(a * b for a, b in zip(col, v))
        v = [p * x for x in v]
        v.insert(k, xk)
        g = math.gcd(*v)
        v = [x // g for x in v]
    return v


def lower(a: np.ndarray) -> list[list[int]]:
    return [row[: t + 1] for t, row in enumerate(a.tolist())]


class TestCertificateLift:
    """The dense loops lift a certificate with one gcd(p, x_k) per step and
    skip the steps with x_k = 0; the vector must be the one the rescaling
    lift gives."""

    @staticmethod
    def check(a: np.ndarray) -> list[int]:
        want = list_loop_rescaling_lift(lower(a))
        assert want is not None and math.gcd(*want) == 1
        assert spectra._bareiss_certificate(lower(a)) == want
        assert spectra._bareiss_dense(a.astype(np.int64)) == want
        return want

    def test_planted_cases_and_the_handoff_past_two_to_the_31(self, monkeypatch):
        rng = np.random.default_rng(2024)
        checked = 0
        for n in (12, 16, 24, 40, 60):
            for kind in ("shifted", "zero-diagonal", "direct-sum"):
                for _ in range(3):
                    a, truth = draw_planted_case(rng, n, kind)
                    if not truth:
                        self.check(a)
                        checked += 1
        assert checked > 30
        # entries near 2**20 pass 2**31 after the first pivot: the dense loop
        # hands off to the list loop over Python ints, which lifts first
        handoffs = []
        real = spectra._bareiss_certificate
        monkeypatch.setattr(spectra, "_bareiss_certificate", lambda low, prev=1: handoffs.append(prev) or real(low, prev))
        b = np.random.default_rng(31).integers(-(2**8), 2**8, size=(30, 40))
        b[:, 7] = b[:, 3]
        a = b.T @ b - np.eye(40, dtype=np.int64)
        want = self.check(a)
        assert handoffs[-1] > 1 and int_form(a, want) < 0
        assert real(lower(np.array(a.tolist(), dtype=object))) == want

    def test_exact_schoenberg_reductions_of_theta_2_3_c(self, monkeypatch):
        reductions = []
        real = spectra._integer_psd_certificate
        monkeypatch.setattr(spectra, "_integer_psd_certificate", lambda a: reductions.append(a.copy()) or real(a))
        for c in range(9, 46, 2):
            d = distance_matrix(make_theta(ThetaSpec(2, 3, c)))
            assert not is_cnd(d, mode="exact").is_cnd
        assert len(reductions) == 19
        for r in reductions:
            self.check(r)


class TestDispatch:
    """Which matrices skip the pattern scan or the block split."""

    def test_schoenberg_reductions_of_cycles_and_thetas_skip_the_pattern(self, monkeypatch):
        # each goes whole to the dense loop, stubbed out here: only the
        # dispatch is under test.  The spy counts the scans made by the
        # dispatch itself, not the scan _block_anchors makes of the 1-entries
        scanned, whole = [], []
        real = spectra._pattern

        def spy(m):
            if sys._getframe(1).f_code is spectra._integer_psd_certificate.__code__:
                scanned.append(len(m))
            return real(m)

        monkeypatch.setattr(spectra, "_pattern", spy)
        monkeypatch.setattr(spectra, "_bareiss_dense", lambda a: whole.append(len(a)))
        graphs = [make_cycle(m) for m in range(17, 50)]
        graphs += [
            make_theta(ThetaSpec(a, b, c))
            for a in range(1, 17)
            for b in range(max(a, 2), 50)
            for c in range(b, 51 - a - b)
            if a + b + c - 1 >= 17
        ]
        for g in graphs:
            is_cnd(distance_matrix(g), mode="exact")
        assert scanned == []
        assert whole == [g.n - 1 for g in graphs]

    def test_dense_reducible_matrices_keep_the_block_split(self):
        # a zero-diagonal trap first, then a block that fails on a negative
        # pivot: the first failing block is the trap, while eliminating the
        # whole matrix at once finds the negative entry first
        rng = np.random.default_rng(41)
        differs = 0
        for _ in range(20):
            trap, _ = draw_planted_case(rng, int(rng.integers(6, 12)), "zero-diagonal")
            shifted, _ = draw_planted_case(rng, int(rng.integers(10, 20)), "shifted")
            n = len(trap) + len(shifted)
            a = np.zeros((n, n), dtype=np.int64)
            a[: len(trap), : len(trap)] = trap
            a[len(trap) :, len(trap) :] = shifted
            assert np.count_nonzero(a) > spectra._SPARSE_MAX_NNZ * n >= spectra._SPARSE_MAX_NNZ * spectra._NUMPY_MIN_DIM
            want = per_block_loop(a)
            assert spectra._integer_psd_certificate(a) == want
            differs += spectra._bareiss_dense(a.copy()) != want
        assert differs > 5

    def test_tree_kernels_skip_the_block_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("block split called")

        monkeypatch.setattr(spectra, "_irreducible_blocks", refuse)
        rng = random.Random(29)
        trees = [make_path(40), Graph(25, tuple((0, v) for v in range(1, 25)))]
        trees += [Graph(n, tuple((rng.randrange(v), v) for v in range(1, n))) for n in range(2, 60, 3)]
        for g in trees:
            assert is_psd(winkler_kernel(g).two_k, mode="exact").is_psd
            assert is_cnd(distance_matrix(g), mode="exact").is_cnd


class TestCnd:
    def test_matches_reduced_eigenvalue_sign_on_corpus(self, corpus):
        # the oracle makes no eigensolver call: the maximizer is a feasible
        # unit vector that attains max_eig, and no random feasible unit
        # vector does better, so max_eig is the maximum of f^T D f
        rng = np.random.default_rng(20260813)
        for uri, g, _ in corpus:
            d = distance_matrix(g)
            verdict = is_cnd(d)
            f = np.array(verdict.maximizer)
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-10, uri
            assert abs(f.sum()) <= 1e-10, uri
            assert abs(float(f @ d @ f) - verdict.max_eig) <= 1e-8, uri
            samples = rng.normal(size=(200, g.n))
            samples -= samples.mean(axis=1, keepdims=True)
            samples /= np.linalg.norm(samples, axis=1, keepdims=True)
            forms = np.einsum("ki,ij,kj->k", samples, d, samples)
            assert forms.max() <= verdict.max_eig + 1e-9, uri
            if abs(verdict.max_eig) > 1e-6:
                assert verdict.is_cnd == (verdict.max_eig < 0), uri
            if not verdict.is_cnd and verdict.mode_used == "float":
                assert verdict.certificate == verdict.maximizer, uri
            exact = is_cnd(d, mode="exact")
            assert exact.max_eig is None and exact.maximizer is None, uri

    def test_certificate_validity(self, corpus):
        for uri, g, _ in corpus:
            d = distance_matrix(g)
            for mode in ("float", "exact"):
                verdict = is_cnd(d, mode=mode)
                if verdict.certificate is None:
                    continue
                f = np.array([float(x) for x in verdict.certificate])
                assert abs(f.sum()) <= 1e-8, uri
                assert float(f @ d @ f) > 0.0, uri

    def test_float_exact_agree_on_corpus(self, corpus):
        for uri, g, _ in corpus:
            d = distance_matrix(g)
            assert is_cnd(d, mode="float").is_cnd == is_cnd(d, mode="exact").is_cnd, uri

    def test_rejects_bad_distance_matrix(self):
        with pytest.raises(SpectraError):
            is_cnd(np.array([[1.0, 0.0], [0.0, 1.0]]))  # nonzero diagonal
        with pytest.raises(SpectraError):
            is_cnd(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative distance

    def test_exact_mode_takes_integers_past_float_range(self):
        # exact is_cnd checks the distance matrix on its integers, as is_psd
        # decides such input; only the float modes need float64 entries
        big = 2**1100
        assert is_cnd([[0, big], [big, 0]], mode="exact").is_cnd
        with pytest.raises(SpectraError, match="must be finite"):
            is_cnd([[0, big], [big, 0]], mode="float")
        with pytest.raises(SpectraError, match="zero diagonal"):
            is_cnd([[big, 0], [0, 0]], mode="exact")
        with pytest.raises(SpectraError, match="non-negative"):
            is_cnd([[0, -big], [-big, 0]], mode="exact")
        d = distance_matrix(make_theta(ThetaSpec(2, 3, 9)))
        verdict = is_cnd([[int(x) * big for x in row] for row in d.tolist()], mode="exact")
        assert not verdict.is_cnd and sum(verdict.certificate) == 0
        assert verdict.certificate_value == int_form(d, verdict.certificate) * big > 0


def evidence_case(name: str):
    """The test and the matrix a TestAutoKeepsFloatEvidence case names."""
    if name == "[[1, 1], [1, 1]]":
        return is_psd, np.ones((2, 2), dtype=np.int64)
    if name == "J + I":
        return is_psd, np.ones((5, 5), dtype=np.int64) + np.eye(5, dtype=np.int64)
    if name == "2^60 +/- 1":  # see test_exact_sees_a_determinant_float64_rounds_away
        return is_psd, [[2**60 + 1, 2**60], [2**60, 2**60 - 1]]
    what, uri = name.split(" of ")
    g = graph_from_uri(uri)
    return (is_psd, winkler_kernel(g).two_k) if what == "2K" else (is_cnd, distance_matrix(g))


class TestAutoKeepsFloatEvidence:
    # auto reports the float evidence of mode "float" exactly, whether it
    # keeps the float verdict or re-decides exactly; the decision and any
    # certificate are those of the mode it names in mode_used, and an
    # escalated certificate is of ints
    @pytest.mark.parametrize(
        "name, escalates",
        [
            ("[[1, 1], [1, 1]]", True),
            ("2K of theta:2,3,5", True),
            ("D of cycle:8", True),
            ("D of theta:2,3,5", True),
            ("2^60 +/- 1", True),
            ("2K of theta:2,3,9", False),
            ("D of theta:2,3,9", False),
            ("J + I", False),
        ],
    )
    def test_auto_reports_the_float_evidence(self, name, escalates):
        decide, m = evidence_case(name)
        auto, flt = decide(m, mode="auto"), decide(m, mode="float")
        floats = ("lambda_min", "lambda_max") if decide is is_psd else ("max_eig", "maximizer")
        for key in floats:
            assert getattr(flt, key) is not None and getattr(auto, key) == getattr(flt, key), key
        assert auto.mode_used == ("exact" if escalates else "float")
        want = decide(m, mode=auto.mode_used)
        decision = "is_psd" if decide is is_psd else "is_cnd"
        for key in (decision, "certificate", "certificate_value"):
            assert getattr(auto, key) == getattr(want, key), key
        if escalates and auto.certificate is not None:
            assert all(type(x) is int for x in auto.certificate)


class TestDifferenceForm:
    """-U^T D U for u_i = e_heads[i] - e_tails[i], over a rooted basis: a
    parent array of a random tree on the indices, not a graph's edges."""

    @given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, False, 0)  # the empty basis, int64
    @example(1, True, 0)  # the empty basis, Python ints
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_form_over_python_ints(self, n, big, seed):
        rng = random.Random(seed)
        top = 2**70 if big else 2**31 - 1
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-top, top)
        d = np.array(rows, dtype=object if big else np.int64).reshape(n, n)
        d.setflags(write=False)  # a write to the input raises
        order = list(range(n))
        rng.shuffle(order)  # order[0] is the root; each parent comes earlier
        heads = order[1:]
        tails = [order[rng.randrange(k)] for k in range(1, n)]
        got = spectra._difference_form(d, np.array(heads, dtype=int), np.array(tails, dtype=int))
        u = [[(a == h) - (a == t) for h, t in zip(heads, tails)] for a in range(n)]
        want = [
            [
                -sum(u[a][i] * rows[a][b] * u[b][j] for a in range(n) for b in range(n))
                for j in range(n - 1)
            ]
            for i in range(n - 1)
        ]
        assert got.dtype == d.dtype and got.shape == (n - 1, n - 1)
        assert got.tolist() == want


class TestQuadForm:
    """<v, Av> of a certificate re-check against the Python-int sum of
    conftest.int_form.  int64 arithmetic may serve only where a bound
    proves it exact, so a wrong choice shows as a wrapped value."""

    @given(
        st.integers(1, 12),
        st.sampled_from((1, 2**10, 2**31 - 1, 2**70)),
        st.sampled_from((1, 2**20, 2**40)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 2**31 - 1, 2**40, False, 0)  # one term of about 2**111
    @example(12, 2**31 - 1, 2**40, False, 0)
    @example(12, 2**31 - 1, 1, True, 0)  # int64-sized entries as Python ints
    @settings(max_examples=150, deadline=None)
    def test_matches_the_python_int_sum(self, n, top, vtop, as_object, seed):
        rng = random.Random(seed)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-top, top)
        v = [rng.randint(-vtop, vtop) if rng.random() < 0.7 else 0 for _ in range(n)]
        dtype = object if as_object or top > 2**31 else np.int64
        a = np.array(rows, dtype=dtype).reshape(n, n)
        a.setflags(write=False)  # a write to the input raises
        got = spectra._quad_form(a, v)
        assert type(got) is int and got == int_form(a, v)

    @pytest.mark.parametrize(
        "rows, v",
        [
            ([[1]], [3037000499]),  # 3037000499**2 < 2**63 < 3037000500**2
            ([[1]], [3037000500]),
            ([[1, 1], [1, 1]], [2**30, 2**30]),  # 2**62
            ([[1, 1], [1, 1]], [2**31, -(2**31)]),  # bound 2**64, value 0
            ([[1, 1], [1, 1]], [2**31, 2**31]),  # 2**64
        ],
    )
    def test_int64_bound_edges(self, rows, v):
        a = np.array(rows, dtype=np.int64)
        assert spectra._quad_form(a, v) == int_form(a, v)


def star_reduction(d: np.ndarray, r: int) -> np.ndarray:
    """R_ij = d(i, r) + d(j, r) - d(i, j) over i, j != r."""
    others = [i for i in range(len(d)) if i != r]
    dr = d[r, others]
    return dr[:, None] + dr[None, :] - d[np.ix_(others, others)]


class TestBlockAnchoredReduction:
    """Exact Schoenberg reduces over e_i - e_a(i), a(i) the cut vertex
    through which the block of i hangs toward a central vertex."""

    @given(
        st.lists(st.sampled_from(("cycle", "theta", "path", "star")), min_size=2, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_glued_graph_is_qe_iff_every_part_is(self, kinds, seed):
        # gluing at a vertex keeps each part isometric and keeps QE class
        # (the star product of Obata and Zakiyyah, Electron. J. Graph
        # Theory Appl. 6 (2018) 37-60), so the verdict is the AND of the
        # parts'; a certificate comes from one failing part, a theta, which
        # is one block and contains its own anchor
        rng = random.Random(seed)
        sizes = {"cycle": (3, 30), "theta": (4, 30), "path": (2, 30), "star": (3, 20)}
        g, parts = glued_parts(rng, kinds, [rng.randint(*sizes[kind]) for kind in kinds])
        d = floyd_warshall(g)
        for h, phi, _ in parts:
            assert is_isometric(h, g, phi)
        verdict = is_cnd(distance_matrix(g), mode="exact")
        assert verdict.is_cnd == all(qe for _, _, qe in parts)
        if not verdict.is_cnd:
            f = verdict.certificate
            assert sum(f) == 0 and int_form(d, f) == verdict.certificate_value > 0
            support = {i for i, x in enumerate(f) if x}
            assert any(support <= set(phi) for _, phi, qe in parts if not qe)

    @given(st.integers(min_value=2, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_non_metric_matrix_matches_principal_minor_oracle(self, n, seed):
        # 1-entries on a random spanning tree reach every vertex, so the
        # reduction is anchored; other entries are arbitrary non-negative
        # integers, so no graph metric stands behind them
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 6, size=(n, n))
        d = np.triu(d, 1)
        for v in range(1, n):
            d[int(rng.integers(0, v)), v] = 1
        d = d + d.T
        r = int(d.max(axis=1).argmin())
        assert spectra._block_anchors(d, r) is not None
        reduced = [[Fraction(int(x)) for x in row] for row in star_reduction(d, 0)]
        expect = all_principal_minors_nonnegative(reduced)
        verdict = is_cnd(d, mode="exact")
        assert verdict.is_cnd == expect
        if not expect:
            f = verdict.certificate
            assert sum(f) == 0 and int_form(d, f) == verdict.certificate_value > 0

    def test_one_entries_of_degree_two_take_the_star(self):
        # two 4-cycles of 1-entries: every degree is 2 but they do not
        # reach every vertex, so the reduction is the star at r; an
        # antipodal entry of 3 is no graph metric and is not CND
        decided = set()
        for antipodal, fill in ((2, 2), (2, 5), (3, 2), (3, 5)):
            d = np.full((8, 8), fill)
            for b in (0, 4):
                for i in range(4):
                    d[b + i, b + (i + 1) % 4] = d[b + (i + 1) % 4, b + i] = 1
                    d[b + i, b + (i + 2) % 4] = antipodal
            np.fill_diagonal(d, 0)
            r = int(d.max(axis=1).argmin())
            assert spectra._block_anchors(d, r) == [r] * 8
            reduced = [[Fraction(int(x)) for x in row] for row in star_reduction(d, r)]
            verdict = is_cnd(d, mode="exact")
            assert verdict.is_cnd == all_principal_minors_nonnegative(reduced)
            decided.add(verdict.is_cnd)
            if not verdict.is_cnd:
                f = verdict.certificate
                assert sum(f) == 0 and int_form(d, f) == verdict.certificate_value > 0
        assert decided == {True, False}

    def test_entries_past_int64_keep_the_block_anchors(self, monkeypatch):
        # two triangles sharing vertex 2 and a pendant edge 4-5; the far pair
        # 0, 5 set to 2**40 turns the checked matrix into an object array of
        # Python ints, whose 1-entries give the int64 matrix's anchors
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)))
        d = floyd_warshall(g)
        big = d.copy()
        big[0, 5] = big[5, 0] = 2**40
        checked = _as_integer_sym(big)[0]
        assert checked.dtype == object
        r = int(big.max(axis=1).argmin())
        want = spectra._block_anchors(d, r)
        assert want != [r] * g.n and spectra._block_anchors(checked, r) == want
        real = spectra._block_anchors
        seen = []

        def spy(a, r):
            seen.append(real(a, r))
            return seen[-1]

        monkeypatch.setattr(spectra, "_block_anchors", spy)
        verdict = is_cnd(big, mode="exact")
        assert seen == [want]
        reduced = [[Fraction(int(x)) for x in row] for row in star_reduction(big, 0)]
        expect = all_principal_minors_nonnegative(reduced)
        assert not expect and verdict.is_cnd == expect
        _, f, value = outcome(verdict)
        assert sum(f) == 0 and int_form(big, f) == value > 0

    def test_two_connected_graphs_keep_the_star_reduction(self):
        def without(g, c):
            kept = [(u - (u > c), v - (v > c)) for u, v in g.edges if c not in (u, v)]
            return Graph(g.n - 1, tuple(kept))

        uris = ("cycle:9", "cycle:41", "theta:2,3,9", "theta:2,2,2", "theta:3,4,5", "theta:1,20,25")
        graphs = [graph_from_uri(uri) for uri in uris]
        rng = random.Random(2)
        while len(graphs) < 14:
            g = random_connected_graph(rng, rng.randint(6, 18), p=0.35)
            if all(is_connected(without(g, c)) for c in range(g.n)):
                graphs.append(g)
        decided = set()
        for g in graphs:
            d = floyd_warshall(g)
            r = int(d.max(axis=1).argmin())
            assert spectra._block_anchors(d, r) == [r] * g.n
            want = is_psd(star_reduction(d, r), mode="exact")
            got = is_cnd(d, mode="exact")
            assert got.is_cnd == want.is_psd
            decided.add(got.is_cnd)
            if not want.is_psd:
                f = list(want.certificate)
                f.insert(r, -sum(f))
                assert list(got.certificate) == f
        assert decided == {True, False}


class TestTolerances:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_psd_rel_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            Tolerances(psd_rel=value)

    def test_valid_psd_rel_is_kept(self):
        assert Tolerances(psd_rel=1e-3).psd_rel == 1e-3


def dense_householder(n: int) -> np.ndarray:
    """The n x n reflector I - 2 v v^T / (v^T v), v = e_1 - ones / sqrt(n),
    which maps e_1 to ones / sqrt(n); built densely, as an oracle."""
    v = -np.full(n, 1.0 / np.sqrt(n))
    v[0] += 1.0
    return np.eye(n) - (2.0 / float(v @ v)) * np.outer(v, v)


@pytest.fixture(scope="module")
def compression_cases():
    rng = random.Random(7)
    graphs = [graph_from_uri("path:2")] + [random_connected_graph(rng, n) for n in (3, 8, 49)]
    graphs += [graph_from_uri("cycle:301"), graph_from_uri("theta:1,150,150")]
    return [distance_matrix(g).astype(float) for g in graphs]


class TestOnesComplement:
    def test_reflector_is_orthogonal_with_ones_column(self, compression_cases):
        for d in compression_cases:
            n = d.shape[0]
            _, w = reduce_ones_complement(d)
            assert abs(float(w @ w) - 2.0) <= 1e-12
            h = np.eye(n) - np.outer(w, w)
            assert np.abs(h.T @ h - np.eye(n)).max() <= 1e-12
            assert np.abs(h[:, 0] - np.ones(n) / np.sqrt(n)).max() <= 1e-12

    def test_matches_dense_householder_oracle(self, compression_cases):
        for d in compression_cases:
            n = d.shape[0]
            r, _ = reduce_ones_complement(d)
            h = dense_householder(n)
            oracle = (h @ d @ h)[1:, 1:]
            assert r.shape == (n - 1, n - 1)
            assert (r == r.T).all(), n
            assert np.abs(r - oracle).max() <= 1e-9 * n, n

    def test_reduction_basis_annihilates_ones(self, compression_cases, nprng):
        # x = [0, v] lifts to H x = x - (w^T x) w, a vector of the complement
        for d in compression_cases:
            n = d.shape[0]
            _, w = reduce_ones_complement(d)
            for _ in range(3):
                vec = nprng.normal(size=n - 1)
                x = np.concatenate(([0.0], vec / np.linalg.norm(vec)))
                f = x - float(w @ x) * w
                assert abs(float(np.linalg.norm(f)) - 1.0) <= 1e-12, n
                assert abs(float(f.sum())) <= 1e-12, n

    def test_maximizer_attains_max_eig_on_long_cycle(self):
        d = distance_matrix(graph_from_uri("cycle:301"))
        verdict = is_cnd(d, mode="float")
        f = np.array(verdict.maximizer)
        assert abs(float(np.linalg.norm(f)) - 1.0) <= 1e-12
        assert abs(float(f.sum())) <= 1e-12
        assert abs(float(f @ d @ f) - verdict.max_eig) <= 1e-9 * 301
        assert abs(verdict.max_eig - qec_cycle(301)) <= 1e-9


def uncached_reflector(n: int) -> np.ndarray:
    w = np.full(n, -1.0 / math.sqrt(n))
    w[0] += 1.0
    w *= math.sqrt(2.0 / float(w @ w))
    return w


class TestReflectorCache:
    """reduce_ones_complement takes w from a cache by n; the caller's w is a
    fresh writable array, bitwise the uncached formula's."""

    def test_cached_reflector_is_the_formula_bitwise(self):
        for n in range(2, 65):
            cached = spectra._reflector(n)
            assert cached.tobytes() == uncached_reflector(n).tobytes(), n
            assert not cached.flags.writeable

    def test_returned_w_is_writable_and_does_not_touch_the_cache(self):
        for n in (2, 5, 22):
            d = distance_matrix(make_cycle(n)) if n > 2 else distance_matrix(make_path(2))
            r, w = reduce_ones_complement(d)
            assert w.flags.writeable and w.flags.owndata
            assert w.tobytes() == uncached_reflector(n).tobytes()
            w[:] = 7.0
            again, w2 = reduce_ones_complement(d)
            assert w2.tobytes() == uncached_reflector(n).tobytes()
            assert spectra._reflector(n).tobytes() == uncached_reflector(n).tobytes()
            assert again.tobytes() == r.tobytes()

    def test_compression_is_the_uncached_outer_product_form_bitwise(self, compression_cases):
        for d in compression_cases:
            w = uncached_reflector(len(d))
            y = d @ w
            k = y - (0.5 * float(w @ y)) * w
            p = np.outer(w[1:], k[1:])
            r, _ = reduce_ones_complement(d)
            assert r.tobytes() == (d[1:, 1:] - (p + p.T)).tobytes()


def _plus_one_at(a: np.ndarray, i: int, j: int) -> np.ndarray:
    a = a.copy()
    a[i, j] += 1
    return a


_BIG = 2**53
_FINITE = "matrix entries must be finite"
_REAL = "matrix entries must be real"
_SYMMETRIC = "matrix must be exactly symmetric"
_SQUARE = "matrix must be square"
_SHAPE = "matrix must be square, got shape (2, 3)"
_DIAGONAL = "distance matrix must have a zero diagonal"
_NEGATIVE = "distance matrix entries must be non-negative"
# the calls of each row below, in order: eigen_sym, reduce_ones_complement,
# then is_psd and is_cnd in float, auto and exact mode
_CALLS = ("eigen_sym", "reduce", "psd float", "cnd float", "psd auto", "cnd auto", "psd exact", "cnd exact")
# name -> (matrix, outcome): one SpectraError message for every call, or
# one message (None: no error) per call of _CALLS
_INPUT_CASES = {
    "nan": (np.array([[0.0, np.nan], [np.nan, 0.0]]), _FINITE),
    "nan in a list": ([[0.0, float("nan")], [float("nan"), 0.0]], _FINITE),
    "+inf": (np.array([[0.0, np.inf], [np.inf, 0.0]]), _FINITE),
    "-inf": (np.array([[0.0, -np.inf], [-np.inf, 0.0]]), _FINITE),
    "nan before asymmetry": (np.array([[0.0, np.nan], [1.0, 0.0]]), _FINITE),
    "complex": (np.array([[0, 1j], [1j, 0]]), _REAL),
    "complex in a list": ([[0, 1j], [1j, 0]], _REAL),
    "asymmetric": (np.array([[0.0, 1.0], [2.0, 0.0]]), _SYMMETRIC),
    "ragged": ([[0, 1], [1]], _SQUARE),
    "not square": (np.zeros((2, 3)), (_SHAPE,) * 6 + (_SQUARE,) * 2),
    "not square before nan": (np.full((2, 3), np.nan), (_SHAPE,) * 6 + (_SQUARE,) * 2),
    "bool": (np.array([[False, True], [True, False]]), (None,) * 8),
    "bool asymmetric": (np.array([[False, True], [False, False]]), _SYMMETRIC),
    "bool diagonal": (np.eye(2, dtype=bool), (None, None) + (None, _DIAGONAL) * 3),
    "uint64 past 2^63": (np.array([[0, 2**64 - 1], [2**64 - 1, 0]], dtype=np.uint64), (None,) * 8),
    # equal in float64, so the float checks pass; auto keeps the float
    # verdict here, and only the exact checks see the asymmetry
    "uint64 asymmetric past 2^53": (
        np.array([[0, 2**64 - 1], [2**64 - 2, 0]], dtype=np.uint64),
        (None,) * 6 + (_SYMMETRIC,) * 2,
    ),
    "int64 asymmetric past 2^53": (
        np.array([[0, _BIG + 1], [_BIG, 0]], dtype=np.int64),
        (None,) * 6 + (_SYMMETRIC,) * 2,
    ),
    # in float64 the first is singular PSD and the second 2**53 times the
    # 4-cycle's distances, whose constant is 0, so auto escalates and the
    # exact checks see the asymmetry, before the diagonal
    "int64 asymmetric past 2^53, escalating": (
        np.array([[_BIG, _BIG + 1], [_BIG, _BIG]], dtype=np.int64),
        (None, None, None, _DIAGONAL, _SYMMETRIC, _DIAGONAL, _SYMMETRIC, _SYMMETRIC),
    ),
    "int64 asymmetric 4-cycle past 2^53, escalating": (
        _plus_one_at(_BIG * distance_matrix(make_cycle(4)), 0, 1),
        (None,) * 5 + (_SYMMETRIC,) * 3,
    ),
    "int64 negative": (np.array([[0, -1], [-1, 0]], dtype=np.int64), (None, None) + (None, _NEGATIVE) * 3),
    "int64 diagonal": (np.array([[1, 1], [1, 0]], dtype=np.int64), (None, None) + (None, _DIAGONAL) * 3),
    "int64 1 x 1": (np.zeros((1, 1), dtype=np.int64), (None, "reduction needs at least 2 vertices") + (None,) * 6),
    "object ints": (np.array([[0, 1], [1, 0]], dtype=object), (None,) * 8),
    "object past int64": (np.array([[0, 2**70], [2**70, 0]], dtype=object), (None,) * 8),
    "object Fractions": (np.array([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], dtype=object), (None,) * 8),
    "object nan": (np.array([[0, np.nan], [np.nan, 0]], dtype=object), _FINITE),
    "object string": (np.array([[0, "a"], [1, 0]], dtype=object), _FINITE),
}


def _call(name: str, m):
    if name == "eigen_sym":
        return eigen_sym(m)
    if name == "reduce":
        return reduce_ones_complement(m)
    kind, mode = name.split()
    return (is_psd if kind == "psd" else is_cnd)(m, mode=mode)


class TestInputChecks:
    """The SpectraError message of every public entry point and mode on bad
    input, and which check speaks first when several fail: bool and integer
    arrays skip the float finiteness scan, which cannot fail on them, and
    an auto escalation of an int64 array skips the second symmetry scan
    only below 2**31, where float64 holds every entry exactly."""

    @pytest.mark.parametrize("name", list(_INPUT_CASES))
    def test_messages_and_their_order(self, name):
        m, outcome = _INPUT_CASES[name]
        want = (outcome,) * len(_CALLS) if isinstance(outcome, str) else outcome
        got = []
        for call in _CALLS:
            try:
                _call(call, m)
            except SpectraError as err:
                got.append(str(err))
            else:
                got.append(None)
        assert dict(zip(_CALLS, got)) == dict(zip(_CALLS, want))

    def test_escalation_of_small_int64_reuses_the_float_checks(self, monkeypatch):
        # theta(1,7,12) escalates on both routes; below 2**31 the caller's
        # int64 array goes to the exact routine without _as_integer_sym
        g = make_theta(ThetaSpec(1, 7, 12))
        d, two_k = distance_matrix(g), winkler_kernel(g).two_k
        want = is_cnd(d, mode="auto"), is_psd(two_k, mode="auto")
        assert want[0].mode_used == want[1].mode_used == "exact"

        def refuse(m):
            raise AssertionError("the escalation re-ingested its matrix")

        monkeypatch.setattr(spectra, "_as_integer_sym", refuse)
        got = is_cnd(d, mode="auto"), is_psd(two_k, mode="auto")
        for a, b in zip(got, want):
            assert vars(a).keys() == vars(b).keys()
            for key, value in vars(b).items():
                assert getattr(a, key) == value, key
        with pytest.raises(AssertionError, match="re-ingested"):
            is_psd(two_k.astype(np.int32), mode="auto")
        with pytest.raises(AssertionError, match="re-ingested"):
            is_cnd(d * 2**31, mode="auto")


class TestMatrixText:
    def test_float_round_trip(self, nprng):
        m = random_symmetric(nprng, 5)
        lines = format_matrix_text(m.tolist()).splitlines()
        assert lines[0] == "5"
        back = np.array([[float(x) for x in line.split()] for line in lines[1:]])
        assert np.allclose(back, m, atol=1e-15)

    def test_exact_round_trip(self):
        rows = [[Fraction(1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1)]]
        text = format_matrix_text(rows)
        lines = text.splitlines()
        assert lines[0] == "2"
        assert [[Fraction(x) for x in line.split()] for line in lines[1:]] == rows
        assert "1/2" in text
