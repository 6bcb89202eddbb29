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

from prisomap.embed import scaled_embedding
from prisomap.errors import NumericError, RankDeficientWarning
from prisomap import linalg
from prisomap.linalg import (
    _stable_descending_order,
    double_center_in_place,
    pairwise_dists,
    pairwise_sq_dists,
    require_square_symmetric,
    symmetric_eig,
)

from helpers import TILE_EDGE_SIZES, tile_edge_points


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
        # the finiteness and symmetry checks each build one m x m bool mask
        # (m^2 bytes); the centering itself holds one 256 x 256 tile of
        # r_i + r_j at a time, so a row-block temporary would break the bound
        m = 1500
        d = pairwise_sq_dists(np.random.default_rng(4).normal(0, 1, (m, 3)))
        tracemalloc.start()
        try:
            double_center_in_place(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * m * m

    def test_rejects_sentinel(self):
        with pytest.raises(NumericError, match="contains unreachable entries"):
            double_center_in_place([[0.0, np.inf], [np.inf, 0.0]])

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
        (1272, 20, False),
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


POLICY_NAMES = {"ctypes", "sched_getaffinity", "mallopt"}


def referenced(path) -> set[str]:
    """Every name, attribute and imported module name the file at path holds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= set(node.module.split("."))
    return names


def test_only_linalg_holds_the_process_policy():
    """The BLAS pin, the allocator thresholds and the affinity-mask read are
    set or made in linalg alone, once, when prisomap is imported."""
    package = Path(linalg.__file__).parent
    assert POLICY_NAMES <= referenced(package / "linalg.py")
    holders = {path.name: sorted(referenced(path) & POLICY_NAMES)
               for path in package.glob("*.py") if path.name != "linalg.py"}
    assert {name: held for name, held in holders.items() if held} == {}
