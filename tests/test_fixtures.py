import numpy as np
import pytest

from qegraph import ThetaSpec, make_theta, winkler_kernel
from qegraph import fixtures


def omitted_edges(tree) -> set[tuple[int, int]]:
    """Host edges outside the tree, as pairs (u, v) with u < v."""
    return set(tree.graph.edges) - {tuple(sorted(e)) for e in tree.tree_edges}


class TestReferenceTrees:
    def test_trees_load_and_match_host(self):
        for spec in fixtures.QE_THETA_SPECS:
            tree = fixtures.reference_tree(spec)
            assert len(tree.tree_edges) == spec.n_vertices - 1
            assert tree.graph == make_theta(spec)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            fixtures.reference_tree(ThetaSpec(2, 3, 9))

    def test_normalization_applied(self):
        assert fixtures.reference_tree(ThetaSpec(3, 2, 3)).graph == make_theta(
            ThetaSpec(2, 3, 3)
        )


class TestReferenceMatrices:
    def test_shapes_and_symmetry(self):
        # each stored table is also the 2K computed over its reference tree
        for spec, dim in zip(fixtures.QE_THETA_SPECS, (6, 8, 10)):
            m = fixtures.reference_two_k(spec)
            assert m.shape == (dim, dim)
            assert (m == m.T).all()
            assert (np.diag(m) == 2).all()
            g = make_theta(spec)
            assert np.array_equal(winkler_kernel(g, fixtures.reference_tree(spec, g)).two_k, m)

    def test_spectra_descending_nonnegative_with_zero(self):
        for spec in fixtures.QE_THETA_SPECS:
            s = fixtures.reference_spectrum(spec)
            assert (np.diff(s) <= 1e-12).all()
            assert s[-1] == 0.0
            assert (s >= 0.0).all()
            # trace of 2K equals 2 * dim
            assert abs(s.sum() - 2 * len(s)) <= 1e-9

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            fixtures.reference_two_k(ThetaSpec(1, 2, 2))
        with pytest.raises(ValueError):
            fixtures.reference_spectrum(ThetaSpec(1, 2, 2))


class TestTheta1Trees:
    def test_structure_even(self):
        g, tree = fixtures.theta1_tree(2, 3, "even")
        assert g == make_theta(ThetaSpec(1, 4, 6))
        assert len(tree.tree_edges) == g.n - 1
        omitted = omitted_edges(tree)
        assert (0, 1) in omitted and len(omitted) == 2

    def test_structure_odd(self):
        g, tree = fixtures.theta1_tree(2, 2, "odd")
        assert g == make_theta(ThetaSpec(1, 4, 5))
        omitted = omitted_edges(tree)
        assert (0, 1) in omitted and len(omitted) == 2

    def test_kernel_dimension_matches_block_form(self):
        for parity, dim in (("even", 2 * 2 + 2 * 3 - 1), ("odd", 2 * 2 + 2 * 3)):
            _, tree = fixtures.theta1_tree(2, 3, parity)
            assert winkler_kernel(tree.graph, tree).dim == dim

    def test_validation(self):
        with pytest.raises(ValueError):
            fixtures.theta1_tree(1, 2, "even")
        with pytest.raises(ValueError):
            fixtures.theta1_tree(3, 2, "even")
        with pytest.raises(ValueError):
            fixtures.theta1_tree(2, 2, "both")


class TestWitnessData:
    def test_constant_blocks_sum_to_zero(self):
        coeffs = np.array(fixtures.WITNESS_COEFFS)
        assert coeffs[:7].sum() == 0
        assert coeffs[7:].sum() == 0

    def test_base_matrix_is_a_metric_sample(self):
        base = fixtures.WITNESS_BASE
        assert (base == base.T).all()
        assert (np.diag(base) == 0).all()
        assert base.min() >= 0

    def test_step_pattern(self):
        step = fixtures.WITNESS_STEP
        assert (step[:7, 7:] == 1).all()
        assert (step[7:, :7] == 1).all()
        assert (step[:7, :7] == 0).all()
        assert (step[7:, 7:] == 0).all()

    def test_vertex_names_exist_in_host(self):
        for k in (1, 4, 9):
            spec = ThetaSpec(2, 3, 2 * k + 7)
            names = fixtures.witness_vertex_names(k)
            assert len(names) == 13
            indices = [spec.vertex_index(n) for n in names]
            assert len(set(indices)) == 13

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            fixtures.witness_vertex_names(0)
