import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qegraph import (
    Tolerances,
    distance_matrix,
    eigen_sym,
    fixtures,
    graph_from_uri,
    is_cnd,
    is_psd,
    make_cycle,
    make_theta,
    qec_cycle,
    winkler_kernel,
)
from qegraph.spectra import (
    SpectraError,
    _as_integer_sym,
    reduce_ones_complement,
)
from qegraph.cli import format_matrix_text

from conftest import random_connected_graph


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
        g = make_theta(spec)
        kern = winkler_kernel(g, fixtures.reference_tree(spec, g))
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

    def test_ragged_rows_are_spectra_error(self):
        for mode in ("float", "exact", "auto"):
            with pytest.raises(SpectraError, match="must be square"):
                is_psd([[1, 2], [2]], mode=mode)
            with pytest.raises(SpectraError, match="must be square"):
                is_cnd([[0, 2], [2]], mode=mode)

    def test_float_certificate_value_does_not_depend_on_memory_order(self):
        # theta(2,3,9) is not QE: both routes return a float certificate,
        # whose value v.Mv must not change with the input's memory order
        g = make_theta(2, 3, 9)
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


class TestExactIngestion:
    def test_integer_array_matches_generic_path(self, corpus):
        # an integer ndarray skips the Fraction conversion: same rows of
        # Python ints and scale 1 as the list path gives
        graphs = [g for _, g, _ in corpus] + [make_cycle(45), graph_from_uri("theta:2,3,40")]
        for g in graphs:
            for m in (distance_matrix(g), winkler_kernel(g).two_k):
                rows, scale = _as_integer_sym(m)
                assert (rows, scale) == _as_integer_sym(m.tolist())
                assert scale == 1 and all(type(x) is int for row in rows for x in row)
                assert _as_integer_sym(np.asfortranarray(m)) == (rows, scale)

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
