import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prisomap.errors import NonSymmetricInput, RankDeficientWarning, SentinelPresent
from prisomap.linalg import (
    double_center,
    mds_coordinates,
    pairwise_dists,
    pairwise_sq_dists,
    symmetric_eig,
)


def centering_oracle(d):
    """Direct -1/2 H D H product, the independent reference."""
    n = d.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * h @ d @ h


class TestDoubleCenter:
    def test_two_points(self):
        k = double_center([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(k, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_zero_distances(self):
        k = double_center(np.zeros((2, 2)))
        np.testing.assert_array_equal(k, np.zeros((2, 2)))

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(0, 4, (6, 6))
        d = a + a.T
        np.fill_diagonal(d, 0.0)
        k = double_center(d)
        np.testing.assert_allclose(k, centering_oracle(d), atol=1e-12)
        assert np.abs(k.sum(axis=0)).max() < 1e-10
        assert np.abs(k.sum(axis=1)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricInput):
            double_center([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_sentinel(self):
        with pytest.raises(SentinelPresent):
            double_center([[0.0, np.inf], [np.inf, 0.0]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 4))
    def test_gram_identity(self, seed, n, d):
        # kernel of squared Euclidean distances equals the centered Gram matrix
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, (n, d))
        k = double_center(pairwise_sq_dists(x))
        xc = x - x.mean(axis=0)
        gram = xc @ xc.T
        scale = max(1.0, np.linalg.norm(gram))
        assert np.abs(k - gram).max() <= 1e-8 * scale


class TestSymmetricEig:
    def test_diagonal(self):
        res = symmetric_eig(np.diag([3.0, 1.0, 2.0]), top=2)
        np.testing.assert_allclose(res.eigenvalues, [3.0, 2.0])
        np.testing.assert_allclose(res.eigenvectors[:, 0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(res.eigenvectors[:, 1], [0, 0, 1], atol=1e-12)

    def test_two_by_two_closed_form(self):
        res = symmetric_eig([[0.25, -0.25], [-0.25, 0.25]], top=1)
        np.testing.assert_allclose(res.eigenvalues, [0.5], atol=1e-14)
        v = res.eigenvectors[:, 0]
        np.testing.assert_allclose(v, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1, (10, 10))
        a = a + a.T
        res = symmetric_eig(a, top=10)
        recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.linalg.norm(a - recon) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 20))
    def test_reconstruction_property(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (n, n))
        a = a + a.T
        res = symmetric_eig(a, top=n)
        recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.linalg.norm(a - recon) <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_unit_norm_and_descending(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (8, 8))
        a = a + a.T
        res = symmetric_eig(a, top=5)
        assert np.all(np.diff(res.eigenvalues) <= 0)
        norms = np.linalg.norm(res.eigenvectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 1, (9, 9))
        a = a + a.T
        res = symmetric_eig(a, top=9)
        for j in range(9):
            v = res.eigenvectors[:, j]
            assert v[np.argmax(np.abs(v))] > 0

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (12, 12))
        a = a + a.T
        r1 = symmetric_eig(a, top=6)
        r2 = symmetric_eig(a.copy(), top=6)
        assert r1.eigenvalues.tobytes() == r2.eigenvalues.tobytes()
        assert r1.eigenvectors.tobytes() == r2.eigenvectors.tobytes()

    def test_top_bounds(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.eye(3), top=0)
        with pytest.raises(ValueError):
            symmetric_eig(np.eye(3), top=4)

    def test_iterative_path_beyond_dense_limit(self):
        from prisomap.linalg import DENSE_EIG_LIMIT

        rng = np.random.default_rng(0)
        n = DENSE_EIG_LIMIT + 52
        u = rng.normal(0, 1, (n, 3))
        a = u @ np.diag([50.0, 20.0, 5.0]) @ u.T / n
        a = 0.5 * (a + a.T)
        res = symmetric_eig(a, top=3)
        want = np.linalg.eigvalsh(a)[::-1][:3]
        np.testing.assert_allclose(res.eigenvalues, want, atol=1e-8)
        norms = np.linalg.norm(res.eigenvectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


    def test_iterative_path_repeats_bit_for_bit(self):
        from prisomap.linalg import DENSE_EIG_LIMIT

        rng = np.random.default_rng(1)
        n = DENSE_EIG_LIMIT + 52
        u = rng.normal(0, 1, (n, 3))
        a = u @ np.diag([50.0, 20.0, 5.0]) @ u.T / n
        a = 0.5 * (a + a.T)
        r1 = symmetric_eig(a, top=3)
        r2 = symmetric_eig(a.copy(), top=3)
        assert r1.eigenvalues.tobytes() == r2.eigenvalues.tobytes()
        assert r1.eigenvectors.tobytes() == r2.eigenvectors.tobytes()

    @pytest.mark.parametrize("block, copies, top", [
        ([[0.0, 3.0], [3.0, 4.0]], 2, 1),
        ([[2.0, -1.0], [-1.0, -2.0]], 4, 3),
    ])
    def test_tie_across_subset_cut_matches_full_solve(self, block, copies, top):
        # identical blocks give an eigenvalue tied exactly across the cut;
        # the tie rule must choose among all of its vectors, as the full
        # solve does
        a = np.kron(np.eye(copies), block)
        part = symmetric_eig(a, top=top)
        full = symmetric_eig(a, top=a.shape[0])
        assert part.eigenvalues.tobytes() == full.eigenvalues[:top].tobytes()
        assert part.eigenvectors.tobytes() == np.ascontiguousarray(
            full.eigenvectors[:, :top]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 30), st.data())
    def test_subset_eigenvalues_match_full_solve(self, seed, n, data):
        top = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (n, n))
        a = a + a.T
        res = symmetric_eig(a, top=top)
        want = np.linalg.eigvalsh(a)[::-1][:top]
        scale = max(1.0, np.linalg.norm(a))
        assert np.abs(res.eigenvalues - want).max() <= 1e-10 * scale
        recon = a @ res.eigenvectors - res.eigenvectors * res.eigenvalues
        assert np.linalg.norm(recon, axis=0).max() <= 1e-8 * scale


class TestMdsCoordinates:
    def test_two_point_kernel(self):
        res = mds_coordinates([[0.25, -0.25], [-0.25, 0.25]], p=1)
        np.testing.assert_allclose(res.coordinates[:, 0], [0.5, -0.5], atol=1e-12)
        assert res.clamped_count == 0

    def test_zero_kernel_rank_deficient(self):
        with pytest.warns(RankDeficientWarning):
            res = mds_coordinates(np.zeros((3, 3)), p=2)
        np.testing.assert_array_equal(res.coordinates, np.zeros((3, 2)))
        assert res.rank_deficient

    def test_line_exactness(self):
        x = np.array([[0.0], [1.0], [2.5], [4.0], [7.0]])
        d_sq = pairwise_sq_dists(x)
        res = mds_coordinates(double_center(d_sq), p=1)
        got = pairwise_dists(res.coordinates)
        np.testing.assert_allclose(got, np.sqrt(d_sq), atol=1e-9)

    def test_clamped_count_indefinite_kernel(self):
        # a non-Euclidean distance matrix yields an indefinite kernel
        d = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 2.9],
                [1.0, 1.0, 2.9, 0.0],
            ]
        )
        k = double_center(d**2)
        assert np.linalg.eigvalsh(k).min() < -1e-9
        with pytest.warns(RankDeficientWarning):
            res = mds_coordinates(k, p=4)
        assert res.clamped_count >= 1
        assert np.all(np.isfinite(res.coordinates))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_euclidean_exactness_property(self, seed, p):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (12, p))
        d_sq = pairwise_sq_dists(x)
        res = mds_coordinates(double_center(d_sq), p=p)
        got = pairwise_dists(res.coordinates)
        want = np.sqrt(d_sq)
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, want.max())
