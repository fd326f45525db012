import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qegraph import (
    Graph,
    ThetaSpec,
    Tolerances,
    classify_theta_closed_form,
    classify_winkler,
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
    floyd_warshall,
    int_form,
    is_connected,
    is_isometric,
    random_connected_graph,
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


class TestInt64Elimination:
    """Blocks of _NUMPY_MIN_DIM rows or more run as int64 arrays and hand
    off to Python ints past 2**31; the result must be the list loop's."""

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
        # ints, before every step; the int64 loop must hand the list loop
        # the same live block after the same pivots
        def full_scan_handoff(m):
            a = np.array(m.tolist(), dtype=object)
            prev, steps = 1, 0
            while max(abs(x) for x in a.flat) < 2**31:
                k = int(np.argmax(a.diagonal()))
                p = a[k, k]
                if p <= 0:
                    return None
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
                steps, prev = full_scan_handoff(a)
                seen_steps.add(steps)
                handoffs.clear()
                verdict = is_psd(a, mode="exact")
                assert handoffs == [(36 - steps, prev)], (scale, shift)
                assert verdict.is_psd == (shift == 0)
        assert len(seen_steps) > 2  # hand-offs early and late in the elimination

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

        for name in ("_bareiss_certificate", "_bareiss_int64", "_lower"):
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


def glued_parts(rng: random.Random, kinds) -> tuple[Graph, list[tuple[Graph, list[int], bool]]]:
    """One small graph per kind, each glued at a random vertex of it to a
    random vertex of those before it, under a random relabelling.  Returns
    the glued graph and, per part, the graph, its vertex map and whether
    it is of QE class (the closed form for thetas; cycles, paths and stars
    are)."""
    parts = []
    for kind in kinds:
        if kind == "cycle":
            parts.append((make_cycle(rng.randint(3, 30)), True))
        elif kind == "theta":
            spec = ThetaSpec(rng.randint(1, 3), rng.randint(2, 8), rng.randint(2, 20))
            parts.append((make_theta(spec), classify_theta_closed_form(spec).is_qe))
        elif kind == "path":
            parts.append((make_path(rng.randint(2, 30)), True))
        else:
            m = rng.randint(3, 20)
            parts.append((Graph(m, tuple((0, v) for v in range(1, m))), True))
    n, edges, placed = 0, [], []
    for h, qe in parts:
        phi = list(range(h.n))
        if placed:
            glue = rng.randrange(h.n)
            phi = [n + v - (v > glue) for v in phi]
            phi[glue] = rng.randrange(n)
        n += h.n - bool(placed)
        edges += [(phi[u], phi[v]) for u, v in h.edges]
        placed.append((h, phi, qe))
    perm = list(range(n))
    rng.shuffle(perm)
    glued = Graph(n, tuple((perm[u], perm[v]) for u, v in edges))
    return glued, [(h, [perm[x] for x in phi], qe) for h, phi, qe in placed]


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
        g, parts = glued_parts(random.Random(seed), kinds)
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
