import ast
import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prisomap import geodesics, linalg
from prisomap.datasets import gen_swiss_roll
from prisomap.embed import scaled_embedding
from prisomap.errors import NumericError, RankDeficientWarning
from prisomap.graph import knn_graph
from prisomap.linalg import (
    _stable_descending_order,
    double_center_in_place,
    pairwise_dists,
    pairwise_sq_dists,
    require_square_symmetric,
    symmetric_eig,
)

from helpers import TILE_EDGE_SIZES, tile_edge_points, traced_peak


def centering_oracle(d):
    """Direct -1/2 H D H product, the independent reference."""
    n = d.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * h @ d @ h


def full_matrix_centering(d):
    """The centering as whole-matrix expressions: the bytes the tiled code must give."""
    r = d.mean(axis=1)
    return -0.5 * ((d - (r[:, None] + r[None, :])) + float(r.mean()))


def full_matrix_sq_dists(a, b=None):
    """pairwise_sq_dists as whole-matrix expressions around the same a @ b.T."""
    self_mode = b is None
    b = a if self_mode else b
    aa = np.einsum("ij,ij->i", a, a)
    bb = aa if self_mode else np.einsum("ij,ij->i", b, b)
    d = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(d, 0.0, out=d)
    if self_mode:
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    return d


def spiked_matrix(rng, n, spikes):
    """Symmetric noise of spectral radius about 2 plus rank-one spikes."""
    g = rng.normal(0, 1, (n, n)) / np.sqrt(2 * n)
    u, _ = np.linalg.qr(rng.normal(0, 1, (n, max(len(spikes), 1))))
    a = g + g.T + (u[:, : len(spikes)] * spikes) @ u[:, : len(spikes)].T
    return 0.5 * (a + a.T)


class TestDoubleCenter:
    def test_two_points(self):
        k = double_center_in_place([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(k, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_zero_distances(self):
        k = double_center_in_place(np.zeros((2, 2)))
        np.testing.assert_array_equal(k, np.zeros((2, 2)))

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(0, 4, (6, 6))
        d = a + a.T
        np.fill_diagonal(d, 0.0)
        k = double_center_in_place(d.copy())
        np.testing.assert_allclose(k, centering_oracle(d), atol=1e-12)
        assert np.abs(k.sum(axis=0)).max() < 1e-10
        assert np.abs(k.sum(axis=1)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError, match="is not symmetric"):
            double_center_in_place([[0.0, 1.0], [2.0, 0.0]])

    def test_exact_symmetry_check_allocates_no_float_temporary(self):
        n = 600
        b = np.random.default_rng(3).normal(0, 1, (n, n))
        a = b + b.T
        tracemalloc.start()
        try:
            back = require_square_symmetric(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back is a
        assert peak < 4 * n * n  # half of one n x n float64 matrix

    def test_centering_allocates_no_block_beyond_one_tile(self):
        # an m x m bool mask (m^2 bytes) would fit; a float64 row block
        # of 256 x m would not
        m = 1500
        d = pairwise_sq_dists(np.random.default_rng(4).normal(0, 1, (m, 3)))
        tracemalloc.start()
        try:
            double_center_in_place(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * m * m

    def test_centering_holds_under_a_twentieth_of_its_input(self):
        # the finiteness check holds one 256-row bool slab at a time, the
        # centering one 16-row block of r_i + r_j; an m x m bool mask alone
        # is 0.125 of the input
        m = 1000
        d = pairwise_sq_dists(np.random.default_rng(4).normal(0, 1, (m, 3)))
        tracemalloc.start()
        try:
            double_center_in_place(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * m * m

    def test_rejects_sentinel(self):
        with pytest.raises(NumericError, match="contains unreachable entries"):
            double_center_in_place([[0.0, np.inf], [np.inf, 0.0]])

    def test_rejects_a_sentinel_in_the_last_slab(self):
        d = pairwise_sq_dists(np.random.default_rng(5).normal(0, 1, (600, 2)))
        d[599, 3] = d[3, 599] = np.inf
        with pytest.raises(NumericError, match="contains unreachable entries"):
            double_center_in_place(d)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 4))
    def test_gram_identity(self, seed, n, d):
        # kernel of squared Euclidean distances equals the centered Gram matrix
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, (n, d))
        k = double_center_in_place(pairwise_sq_dists(x))
        xc = x - x.mean(axis=0)
        gram = xc @ xc.T
        scale = max(1.0, np.linalg.norm(gram))
        assert np.abs(k - gram).max() <= 1e-8 * scale



class TestInPlaceStages:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(TILE_EDGE_SIZES), st.integers(0, 2**16), st.booleans())
    def test_centering_equals_full_matrix_expressions(self, n, seed, ties):
        d = pairwise_sq_dists(tile_edge_points(n, seed, ties))
        want = full_matrix_centering(d)
        got = double_center_in_place(d)
        assert got.tobytes() == want.tobytes()
        assert got is d
        assert np.array_equal(got, got.T)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(TILE_EDGE_SIZES), st.sampled_from(TILE_EDGE_SIZES),
           st.integers(0, 2**16), st.booleans())
    def test_pairwise_sq_dists_equal_full_matrix_expressions(self, n, m, seed, ties):
        a = tile_edge_points(n, seed, ties)
        b = tile_edge_points(m, seed + 1, ties)
        assert pairwise_sq_dists(a).tobytes() == full_matrix_sq_dists(a).tobytes()
        assert pairwise_sq_dists(a, b).tobytes() == full_matrix_sq_dists(a, b).tobytes()
        assert pairwise_dists(a, b).tobytes() == np.sqrt(full_matrix_sq_dists(a, b)).tobytes()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 64])
    def test_self_mode_distances_are_exactly_symmetric(self, n, p):
        # self mode takes no symmetric average: it relies on numpy forming
        # a @ a.T by syrk, whose mirrored triangle is exactly symmetric
        x = np.random.default_rng(n * 100 + p).normal(0, 3, (n, p))
        for d in (pairwise_sq_dists(x), pairwise_dists(x)):
            assert np.array_equal(d, d.T)
            assert not np.diagonal(d).any()

    def test_in_place_centering_reuses_the_buffer(self):
        d = pairwise_sq_dists(np.random.default_rng(9).normal(0, 1, (300, 3)))
        assert double_center_in_place(d) is d


class TestExactSymmetry:
    # one ulp off symmetric is asymmetric: no tolerance lets it through
    @pytest.mark.parametrize("solve", [double_center_in_place,
                                       lambda a: symmetric_eig(a, top=2)],
                             ids=["double_center_in_place", "symmetric_eig"])
    def test_one_ulp_from_symmetric_is_refused(self, solve):
        d = pairwise_sq_dists(np.random.default_rng(5).normal(size=(40, 3)))
        d[3, 17] = np.nextafter(d[3, 17], np.inf)
        gap = d[3, 17] - d[17, 3]
        with pytest.raises(NumericError, match=re.escape(f"max|A - A^T| = {gap:.3e}")):
            solve(d)

    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_tiled_check_refuses_what_the_whole_matrix_comparison_refuses(self, n):
        # the entries lie in diagonal, upper and lower tiles at the tile edges;
        # np.array_equal(a, a.T) is the reference
        a = pairwise_sq_dists(tile_edge_points(n, seed=n, ties=False))
        assert require_square_symmetric(a) is a
        for i, j in {(0, n - 1), (n - 1, 0), (n // 2, (n - 1) // 3), (n - 1, n - 1)}:
            b = a.copy()
            b[i, j] = np.nan if i == j else np.nextafter(b[i, j], np.inf)
            assert not np.array_equal(b, b.T)
            asym = float(np.max(np.abs(b - b.T)))
            with pytest.raises(NumericError, match=re.escape(
                    f"matrix is not symmetric: max|A - A^T| = {asym:.3e}")):
                require_square_symmetric(b)


def loop_descending_order(eigenvalues, vectors):
    """The tie order as hand-written scans over the stable argsort, the
    reference for the grouped form."""
    order = list(np.argsort(-eigenvalues, kind="stable"))
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and eigenvalues[order[j]] == eigenvalues[order[i]]:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda c: tuple(vectors[:, c]))
        i = j
    return order


_TIE_VALUES = [0.0, -0.0, math.nan, 1.0, -1.0, 2.5, math.inf]


class TestTieOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tie_order_equals_the_loop_order(self, data):
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
        w = np.array(data.draw(st.lists(st.sampled_from(_TIE_VALUES), min_size=m, max_size=m)))
        column = st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, math.nan]),
                          min_size=n, max_size=n)
        v = np.array(data.draw(st.lists(column, min_size=m, max_size=m))).T
        assert [int(c) for c in _stable_descending_order(w, v)] == \
            [int(c) for c in loop_descending_order(w, v)]

    def test_tie_keys_only_for_groups_of_ties(self):
        # a key holds a whole column: n^2 scalars if every column built one
        class Columns:
            def __init__(self, v):
                self.v, self.read = v, []

            def __getitem__(self, key):
                self.read.append(int(key[1]))
                return self.v[key]

        columns = Columns(np.eye(7))
        _stable_descending_order(np.array([3.0, 1.0, 3.0, 2.0, 0.0, -0.0, 5.0]), columns)
        assert sorted(columns.read) == [0, 2, 4, 5]


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

    @pytest.mark.parametrize("block", [[[0.0, 3.0], [3.0, 4.0]], [[2.0, -1.0], [-1.0, -2.0]]])
    @pytest.mark.parametrize("top", [1, 2])
    def test_tie_across_iterative_cut_matches_full_solve(self, block, top):
        # n = 200 puts top = 1 and 2 on the iterative path; the top
        # eigenvalue has 100 tied vectors, which only the dense fallback
        # chooses among as the full solve does
        a = np.kron(np.eye(100), block)
        part = symmetric_eig(a, top=top)
        full = symmetric_eig(a, top=a.shape[0])
        assert part.eigenvalues.tobytes() == full.eigenvalues[:top].tobytes()
        assert part.eigenvectors.tobytes() == np.ascontiguousarray(
            full.eigenvectors[:, :top]).tobytes()

    @pytest.mark.parametrize("n, top, iterative", [
        (1500, 2, True),
        (1272, 20, True),
        (1272, 1272 // linalg._ITERATIVE_ROWS_PER_PAIR, True),
        (1272, 1272 // linalg._ITERATIVE_ROWS_PER_PAIR + 1, False),
        (1272, 1271, False),
    ])
    def test_path_choice_below_dense_limit(self, monkeypatch, n, top, iterative):
        import scipy.linalg
        import scipy.sparse.linalg

        calls = {"eigsh": 0, "dense": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            counted(scipy.sparse.linalg.eigsh, "eigsh"))
        monkeypatch.setattr(scipy.linalg, "eigh", counted(scipy.linalg.eigh, "dense"))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "dense"))
        a = spiked_matrix(np.random.default_rng(n), n, [50.0, 30.0, 20.0])
        res = symmetric_eig(a, top=top)
        assert res.eigenvalues.size == top
        assert calls == ({"eigsh": 1, "dense": 0} if iterative else {"eigsh": 0, "dense": 1})

    def test_no_convergence_falls_back_to_dense_below_limit_only(self, monkeypatch):
        import scipy.sparse.linalg

        from prisomap import linalg

        a = spiked_matrix(np.random.default_rng(6), 300, [40.0, 10.0])
        monkeypatch.setattr(linalg, "_ITERATIVE_ROWS_PER_PAIR", 10**9)
        dense = symmetric_eig(a, top=2)
        monkeypatch.undo()

        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.empty(0),
                                                          np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        res = symmetric_eig(a, top=2)
        assert res.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert res.eigenvectors.tobytes() == dense.eigenvectors.tobytes()
        monkeypatch.setattr(linalg, "DENSE_EIG_LIMIT", 299)
        with pytest.raises(NumericError, match="iterative eigensolver exhausted 3000 iterations"):
            symmetric_eig(a, top=2)

    def test_arpack_error_falls_back_to_dense_below_limit_only(self, monkeypatch):
        # on an all-zero matrix ARPACK finds its start vector in the null
        # space and raises ArpackError -9, not ArpackNoConvergence
        a = np.zeros((200, 200))
        monkeypatch.setattr(linalg, "_ITERATIVE_ROWS_PER_PAIR", 10**9)
        dense = symmetric_eig(a, top=2)
        monkeypatch.undo()
        res = symmetric_eig(a, top=2)
        assert res.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert res.eigenvectors.tobytes() == dense.eigenvectors.tobytes()
        monkeypatch.setattr(linalg, "DENSE_EIG_LIMIT", 199)
        with pytest.raises(NumericError, match="iterative eigensolver failed: ARPACK error -9"):
            symmetric_eig(a, top=2)

    def test_top_twenty_solve_copies_no_kernel(self):
        # the LAPACK subset solve copies the kernel and peaks at about
        # 1.04 m^2 float64 beyond it; ARPACK holds its Krylov basis
        d_sq = geodesics.all_pairs(knn_graph(gen_swiss_roll(1000, seed=0).ambient, 10))
        k = double_center_in_place(np.square(d_sq, out=d_sq))
        m = k.shape[0]
        assert traced_peak(symmetric_eig, k, 20) < 0.25 * m * m * 8

    def test_iterative_path_below_limit_repeats_bit_for_bit(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "eigh", None)  # a dense solve would fail
        a = spiked_matrix(np.random.default_rng(4), 400, [40.0, 10.0])
        r1 = symmetric_eig(a, top=2)
        r2 = symmetric_eig(a.copy(), top=2)
        assert r1.eigenvalues.tobytes() == r2.eigenvalues.tobytes()
        assert r1.eigenvectors.tobytes() == r2.eigenvectors.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(200, 600), st.data())
    def test_iterative_path_matches_full_solve(self, seed, n, data):
        top = data.draw(st.integers(1, n // 100))
        rng = np.random.default_rng(seed)
        spikes = data.draw(st.lists(st.floats(-30.0, 60.0), min_size=0, max_size=top + 2))
        a = spiked_matrix(rng, n, spikes)
        res = symmetric_eig(a, top=top)
        want = np.linalg.eigvalsh(a)[::-1][:top]
        scale = max(1.0, np.linalg.norm(a))
        assert np.abs(res.eigenvalues - want).max() <= 1e-10 * scale
        recon = a @ res.eigenvectors - res.eigenvectors * res.eigenvalues
        assert np.linalg.norm(recon, axis=0).max() <= 1e-8 * scale

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


def scaled(kernel, p):
    """scaled_embedding of a kernel's top p eigenpairs, every point kept."""
    n = kernel.shape[0]
    return scaled_embedding(symmetric_eig(kernel, top=p), p, {}, np.arange(n), n, 0)


class TestScaledEmbedding:
    def test_two_point_kernel(self):
        res = scaled(np.array([[0.25, -0.25], [-0.25, 0.25]]), p=1)
        np.testing.assert_allclose(res.coordinates[:, 0], [0.5, -0.5], atol=1e-12)
        assert res.clamped_count == 0

    def test_zero_kernel_rank_deficient(self):
        with pytest.warns(RankDeficientWarning):
            res = scaled(np.zeros((3, 3)), p=2)
        np.testing.assert_array_equal(res.coordinates, np.zeros((3, 2)))

    def test_line_exactness(self):
        x = np.array([[0.0], [1.0], [2.5], [4.0], [7.0]])
        d_sq = pairwise_sq_dists(x)
        res = scaled(double_center_in_place(d_sq.copy()), p=1)
        got = pairwise_dists(res.coordinates)
        np.testing.assert_allclose(got, np.sqrt(d_sq), atol=1e-9)

    def test_clamped_count_indefinite_kernel(self):
        # the geodesics of a 5-cycle are not Euclidean, so their kernel is
        # indefinite: eigenvalues 2.93, 2.93, 0, -0.427, -0.427
        i = np.arange(5)
        d = np.minimum(np.abs(i[:, None] - i), 5 - np.abs(i[:, None] - i)).astype(float)
        k = double_center_in_place(d**2)
        assert np.linalg.eigvalsh(k).min() < -1e-9
        with pytest.warns(RankDeficientWarning):
            res = scaled(k, p=4)
        assert res.clamped_count >= 1
        assert np.all(np.isfinite(res.coordinates))

    def test_rank_deficient_iterative_request(self):
        # flat 2-D data in 3-D: the third and fourth pairs both sit in the
        # zero cluster, so the iterative request must hand over to the dense
        # path instead of failing to converge
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(0, 1, (600, 2)), np.zeros(600)])
        with pytest.warns(RankDeficientWarning):
            res = scaled(double_center_in_place(pairwise_sq_dists(x)), p=3)
        got = pairwise_dists(res.coordinates)
        assert np.abs(got - pairwise_dists(x)).max() <= 1e-8 * got.max()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_euclidean_exactness_property(self, seed, p):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (12, p))
        d_sq = pairwise_sq_dists(x)
        res = scaled(double_center_in_place(d_sq.copy()), p=p)
        got = pairwise_dists(res.coordinates)
        want = np.sqrt(d_sq)
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, want.max())


class TestOneBlasThread:
    # the pin is read back, and the pinned bytes checked end to end, in
    # test_cli.py's TestBlasThreads
    def test_without_the_packages_nothing_is_pinned(self, monkeypatch):
        looked_up = []
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: looked_up.append(name))
        monkeypatch.setattr(linalg.ctypes, "CDLL", lambda name: pytest.fail(f"loaded {name}"))
        linalg._pin_blas()
        assert looked_up == ["numpy", "scipy"]


def fake_system(root: Path, meminfo: str | None, cgroup: str | None,
                files: dict[str, str]) -> tuple[Path, Path]:
    """(proc, cgroups) directories under root holding the given meminfo and
    /proc/self/cgroup text (None: no such file) and cgroup files by path."""
    proc, cgroups = root / "proc", root / "cgroups"
    (proc / "self").mkdir(parents=True)
    cgroups.mkdir()
    if meminfo is not None:
        (proc / "meminfo").write_text(meminfo)
    if cgroup is not None:
        (proc / "self" / "cgroup").write_text(cgroup)
    for name, text in files.items():
        (cgroups / name).parent.mkdir(parents=True, exist_ok=True)
        (cgroups / name).write_text(text)
    return proc, cgroups


MEMINFO = "MemTotal:        8220248 kB\nMemFree:  100 kB\nMemAvailable:    7643768 kB\n"
AVAILABLE = 7643768 * 1024
V1_NO_LIMIT = "9223372036854771712\n"


class TestMemoryBudget:
    """The memory reader reads /proc and the cgroup files read-only; each n x
    n buffer and the dense eigensolve are refused before they allocate."""

    @pytest.mark.parametrize("meminfo, cgroup, files, want", [
        # cgroup v2 without a limit, and with one of 1 GiB of which 100 MiB are used
        (MEMINFO, "0::/job\n", {"job/memory.max": "max\n", "job/memory.current": "5\n"},
         AVAILABLE),
        (MEMINFO, "0::/job\n", {"job/memory.max": f"{2**30}\n",
                                 "job/memory.current": f"{100 * 2**20}\n"}, 924 * 2**20),
        # v1's no-limit value, in the process's own directory
        (MEMINFO, "4:memory:/api/abc\n3:cpuset:/jobs\n",
         {"memory/api/abc/memory.limit_in_bytes": V1_NO_LIMIT,
          "memory/api/abc/memory.usage_in_bytes": "306929664\n"}, AVAILABLE),
        # v1 with a limit, the process's directory not mounted: the hierarchy's root
        (MEMINFO, "4:memory:/elsewhere\n",
         {"memory/memory.limit_in_bytes": f"{2**30}\n",
          "memory/memory.usage_in_bytes": f"{2**29}\n"}, 2**29),
        # a usage above the limit leaves nothing
        (MEMINFO, "0::/\n", {"memory.max": "100\n", "memory.current": "200\n"}, 0),
        # missing files: the limit without its usage, no cgroup file, no meminfo
        (MEMINFO, "0::/\n", {"memory.max": f"{2**30}\n"}, AVAILABLE),
        (MEMINFO, None, {}, AVAILABLE),
        (None, "0::/\n", {"memory.max": f"{2**30}\n", "memory.current": "0\n"}, 2**30),
        (None, None, {}, None),
        ("MemTotal: 1 kB\n", "", {}, None),
        # usage 1 MiB under the limit, 600 MiB of it inactive file pages
        (MEMINFO, "0::/job\n", {"job/memory.max": f"{2**30}\n",
                                 "job/memory.current": f"{2**30 - 2**20}\n",
                                 "job/memory.stat": f"active_file 7\n"
                                                    f"inactive_file {600 * 2**20}\n"},
         601 * 2**20),
        (MEMINFO, "4:memory:/api/abc\n",
         {"memory/api/abc/memory.limit_in_bytes": f"{2**30}\n",
          "memory/api/abc/memory.usage_in_bytes": f"{2**30 - 2**20}\n",
          "memory/api/abc/memory.stat": f"inactive_file 3\n"
                                        f"total_inactive_file {600 * 2**20}\n"}, 601 * 2**20),
        # the limit on the parent: 1 GiB, 900 MiB of it used by the child and its siblings
        (MEMINFO, "0::/job/task\n", {"job/memory.max": f"{2**30}\n",
                                      "job/memory.current": f"{900 * 2**20}\n",
                                      "job/task/memory.max": "max\n",
                                      "job/task/memory.current": f"{100 * 2**20}\n"},
         124 * 2**20),
        (MEMINFO, "4:memory:/api/abc\n",
         {"memory/api/memory.limit_in_bytes": f"{2**30}\n",
          "memory/api/memory.usage_in_bytes": f"{2**29}\n",
          "memory/api/abc/memory.limit_in_bytes": V1_NO_LIMIT,
          "memory/api/abc/memory.usage_in_bytes": f"{2**28}\n"}, 2**29),
        # v1: a parent above the mount, seen only as hierarchical_memory_limit
        (MEMINFO, "4:memory:/elsewhere\n",
         {"memory/memory.limit_in_bytes": V1_NO_LIMIT,
          "memory/memory.usage_in_bytes": f"{2**28}\n",
          "memory/memory.stat": f"hierarchical_memory_limit {2**30}\n"}, 3 * 2**28),
    ], ids=["v2-max", "v2-limit", "v1-no-limit", "v1-root", "v2-over", "v2-no-usage",
            "no-cgroup", "no-meminfo", "nothing", "no-memavailable", "v2-cache",
            "v1-cache", "v2-parent", "v1-parent", "v1-hierarchical"])
    def test_reader(self, tmp_path, meminfo, cgroup, files, want):
        assert linalg._available_memory(*fake_system(tmp_path, meminfo, cgroup, files)) == want

    def test_a_cgroup_full_of_file_cache_still_gets_its_buffer(self, tmp_path, monkeypatch):
        # usage 1 MiB under the limit, but 600 MiB of it is reclaimable cache
        system = fake_system(tmp_path, MEMINFO, "0::/\n", {
            "memory.max": f"{2**30}\n", "memory.current": f"{2**30 - 2**20}\n",
            "memory.stat": f"inactive_file {600 * 2**20}\n"})
        read = linalg._available_memory
        monkeypatch.setattr(linalg, "_available_memory", lambda: read(*system))
        assert linalg._n2_buffer("some stage", 1024, 1024).shape == (1024, 1024)

    def test_reader_on_this_system(self):
        available = linalg._available_memory()
        if Path("/proc/meminfo").exists():
            assert 0 < available
        else:
            assert available is None or available >= 0

    def test_a_buffer_that_does_not_fit_is_refused_before_it_is_made(self, monkeypatch):
        monkeypatch.setattr(linalg, "_available_memory", lambda: 3 * 2**20)
        monkeypatch.setattr(linalg, "_MALLOC_TRIM", lambda pad: pytest.fail("trimmed"))
        with pytest.raises(NumericError, match=r"^some stage needs an estimated 5\.0 MiB, "
                                               r"but 3\.0 MiB of memory is available$"):
            linalg._n2_buffer("some stage", 512, 1024, extra=2**20)

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_buffer_that_fits_follows_a_heap_trim(self, monkeypatch, shared):
        trims = []
        monkeypatch.setattr(linalg, "_available_memory", lambda: 5 * 2**20)
        monkeypatch.setattr(linalg, "_MALLOC_TRIM", lambda pad: trims.append(pad.value))
        buf = linalg._n2_buffer("some stage", 512, 1024, extra=2**20, shared=shared)
        assert buf.shape == (512, 1024) and buf.dtype == np.float64
        assert buf.flags.c_contiguous and buf.flags.writeable
        assert trims == [0]
        assert (buf.base is not None) == shared  # np.frombuffer over the mapping

    def test_an_unreadable_budget_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "_available_memory", lambda: None)
        assert linalg._n2_buffer("some stage", 4, 4).shape == (4, 4)

    def test_mds_distances_and_the_dense_solve_are_budgeted(self, monkeypatch):
        x = np.random.default_rng(3).normal(0, 1, (300, 3))
        k = double_center_in_place(pairwise_sq_dists(x))
        monkeypatch.setattr(linalg, "_available_memory", lambda: 2**19)
        with pytest.raises(NumericError, match=r"^pairwise distances needs an estimated "
                                               r"1\.3 MiB, but 0\.5 MiB"):
            pairwise_sq_dists(x)
        assert pairwise_sq_dists(x[:5], x).shape == (5, 300)  # a row block is no n x n
        with pytest.raises(NumericError, match=r"^dense eigensolve needs an estimated "
                                               r"0\.7 MiB, but 0\.5 MiB"):
            symmetric_eig(k, top=2 * 300 // linalg._ITERATIVE_ROWS_PER_PAIR)
        assert symmetric_eig(k, top=2).eigenvalues.size == 2  # ARPACK copies no matrix


# mmap, malloc_trim and mallopt too: an n x n buffer made anywhere but in
# linalg._n2_buffer would bypass the memory budget
POLICY_NAMES = {"ctypes", "sched_getaffinity", "mallopt", "malloc_trim", "mmap"}


def referenced(source: str) -> set[str]:
    """Every name, attribute, imported module name and string constant that
    source holds (a symbol can be looked up by its name as a string)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.alias):
            names |= set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= set(node.module.split("."))
    return names


def test_only_linalg_holds_the_process_policy():
    """The BLAS pin, the allocator thresholds and the affinity-mask read are
    set or made in linalg alone, once, when prisomap is imported; the
    mappings and heap trims of the n x n buffers happen there alone too."""
    package = Path(linalg.__file__).parent
    assert POLICY_NAMES <= referenced((package / "linalg.py").read_text(encoding="utf-8"))
    holders = {path.name: sorted(referenced(path.read_text(encoding="utf-8")) & POLICY_NAMES)
               for path in package.glob("*.py") if path.name != "linalg.py"}
    assert {name: held for name, held in holders.items() if held} == {}


def test_the_policy_scan_sees_each_way_to_reach_the_allocator():
    source = ("import mmap as m\nfrom ctypes import CDLL\nbuf = m.mmap(-1, 8)\n"
              "trim = getattr(CDLL(None), 'malloc_trim')\nCDLL(None).mallopt(-1, 0)\n")
    assert referenced(source) & POLICY_NAMES == {"ctypes", "mmap", "malloc_trim", "mallopt"}
    assert referenced("import numpy as np\nbuf = np.empty((4, 4))\n") & POLICY_NAMES == set()
