import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prisomap import graph as graph_mod
from prisomap.datasets import gen_swiss_roll
from prisomap.errors import DegenerateDuplicatesWarning, InfiniteWindow, InputError
from prisomap.graph import (
    _knn_candidates,
    cap_candidates,
    components,
    knn_candidates,
    knn_graph,
    percentile_h,
    pr_density,
)
from prisomap.linalg import pairwise_sq_dists

from helpers import adjacency_row, upper_edges

LINE3 = np.array([[0.0], [1.0], [3.0]])


def edge_set(graph):
    return {(i, j, w) for i, j, w in upper_edges(graph)}


def brute_force_edges(data, k, h):
    """Independent O(n^2) k-NN + cap oracle (direct-difference distances)."""
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    edges = {}
    for i in range(n):
        order = sorted((float(d[i, j]), j) for j in range(n) if j != i)[:k]
        for w, j in order:
            if w == 0.0 or w > h:
                continue
            key = (min(i, j), max(i, j))
            edges.setdefault(key, w)
    return {(i, j): w for (i, j), w in edges.items()}


def knn_candidates_oracle(data, k, block_rows):
    """The per-row (distance, index) lexsort selection, over the same row
    blocks as the production pass so the distances agree bit for bit."""
    n = data.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        d2 = pairwise_sq_dists(data[start:stop], data)
        local = np.arange(stop - start)
        d2[local, local + start] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for row, bound in zip(local, kth):
            pool = np.flatnonzero(d2[row] <= bound)
            idx[start + row] = pool[np.lexsort((pool, d2[row, pool]))][:k]
        dist[start:stop] = np.sqrt(np.take_along_axis(d2, idx[start:stop], axis=1))
    return idx, dist


def assert_same_candidates(data, k, block_rows):
    with mock.patch.object(graph_mod, "_BLOCK_ROWS", block_rows):
        got = _knn_candidates(data, k)
    want = knn_candidates_oracle(data, k, block_rows)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def midgap_h(data, k, pct):
    """A cap value strictly between two realized edge lengths, so the
    boundary decision cannot flip between distance formulas."""
    lengths = np.unique(knn_candidates(data, k)[1])
    pos = min(max(int(len(lengths) * pct / 100), 0), len(lengths) - 2)
    return 0.5 * (lengths[pos] + lengths[pos + 1])


def assert_same_edges(graph, oracle, atol=1e-9):
    got = {(i, j): w for i, j, w in upper_edges(graph)}
    assert set(got) == set(oracle)
    for key, w in got.items():
        assert w == pytest.approx(oracle[key], abs=atol)


class TestKnnGraph:
    def test_collinear_unlimited(self):
        g = knn_graph(LINE3, k=1, h=math.inf)
        assert edge_set(g) == {(0, 1, 1.0), (1, 2, 2.0)}

    def test_collinear_capped(self):
        g = knn_graph(LINE3, k=1, h=1.5)
        assert edge_set(g) == {(0, 1, 1.0)}
        assert components(g).count == 2

    def test_complete_limit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (8, 3))
        g = knn_graph(x, k=7, h=math.inf)
        assert g.adjacency.nnz // 2 == 8 * 7 // 2

    def test_symmetry_involution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (40, 2))
        g = knn_graph(x, k=4, h=math.inf)
        for i in range(g.n):
            for j, w in zip(*adjacency_row(g, i)):
                nbrs_j, wts_j = adjacency_row(g, j)
                pos = np.searchsorted(nbrs_j, i)
                assert nbrs_j[pos] == i
                assert wts_j[pos] == w

    def test_adjacency_sorted(self):
        rng = np.random.default_rng(2)
        g = knn_graph(rng.normal(0, 1, (30, 3)), k=5)
        for i in range(g.n):
            nbrs, _ = adjacency_row(g, i)
            assert np.all(np.diff(nbrs) > 0)

    def test_cap_soundness(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (50, 2))
        h = percentile_h(knn_candidates(x, 5)[1], 50)
        g = knn_graph(x, k=5, h=h)
        for i in range(g.n):
            _, w = adjacency_row(g, i)
            assert np.all(w <= h) and np.all(w > 0)

    def test_monotonic_in_h(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (60, 2))
        lengths = np.sort(knn_candidates(x, 4)[1], axis=None)
        h1, h2 = np.percentile(lengths, 40), np.percentile(lengths, 80)
        e1 = edge_set(knn_graph(x, 4, h1))
        e2 = edge_set(knn_graph(x, 4, h2))
        assert e1 <= e2
        assert e2 <= edge_set(knn_graph(x, 4, math.inf))

    def test_infinite_h_is_plain_knn(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (45, 3))
        assert_same_edges(knn_graph(x, 6, math.inf), brute_force_edges(x, 6, math.inf))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(10, 60), st.integers(1, 8),
           st.sampled_from([math.inf, 30.0, 50.0, 70.0]))
    def test_brute_force_equivalence(self, seed, n, k, h_pct):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, 3))
        k = min(k, n - 1)
        h = math.inf if h_pct == math.inf else midgap_h(x, k, h_pct)
        assert_same_edges(knn_graph(x, k, h), brute_force_edges(x, k, h))

    def test_duplicate_points_warn_and_drop(self):
        x = np.array([[0.0], [0.0], [0.0], [0.0], [5.0], [6.0]])
        with pytest.warns(DegenerateDuplicatesWarning):
            g = knn_graph(x, k=2, h=math.inf)
        assert (g.adjacency.data > 0).all()

    def test_exact_tie_breaks_to_lower_index(self):
        # vertex 0 is equidistant from 1 and 2; k=1 must pick vertex 1
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [9.0, 9.0]])
        cand, _ = knn_candidates(x, 1)
        assert np.array_equal(cand[0][:1], [1])

    # integer grid points give duplicates and exact distance ties at the k-th
    # neighbor; small row blocks put the ties across block boundaries too
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                    min_size=2, max_size=60),
           st.integers(1, 12), st.sampled_from([1, 7, 512]))
    def test_candidates_match_lexsort_oracle_grid_points(self, points, k, block_rows):
        x = np.array(points, dtype=np.float64)
        assert_same_candidates(x, min(k, len(x) - 1), block_rows)

    @pytest.mark.parametrize("block_rows", [64, 512])
    def test_candidates_match_lexsort_oracle_welded_roll(self, block_rows):
        sample = gen_swiss_roll(800, density_exponent=3.0, seed=0, short_circuit_pairs=0.01)
        assert_same_candidates(sample.ambient, 12, block_rows)
        grid = np.random.default_rng(3).integers(0, 6, (800, 3)).astype(np.float64)
        assert_same_candidates(grid, 10, block_rows)

    def test_capped_reuses_candidates(self, monkeypatch):
        from prisomap import graph as graph_mod

        x = np.random.default_rng(8).normal(0, 1, (200, 3))
        cand, dists = knn_candidates(x, 6)
        hs = [float(np.percentile(dists, pct)) for pct in (30, 70, 100)]
        wants = [knn_graph(x, 6, h).adjacency for h in hs]
        monkeypatch.setattr(graph_mod, "_knn_candidates", None)  # a new pass would fail
        for h, want in zip(hs, wants):
            got = cap_candidates(cand, dists, h).adjacency
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("lower_passes", [True, False])
    def test_capped_first_seen_weight(self, lower_passes):
        # rows 0 and 1 propose each other with lengths one ulp apart around
        # h: the edge takes the lower row's length when that row is within
        # the cap, and the upper row's otherwise
        h = 1.0
        inside, outside = h, np.nextafter(h, np.inf)
        w01, w10 = (inside, outside) if lower_passes else (outside, inside)
        cand, dists = np.array([[1], [0]]), np.array([[w01], [w10]])
        g = cap_candidates(cand, dists, h)
        assert upper_edges(g) == [(0, 1, inside)]
        assert g.adjacency[1, 0] == inside
        # both within the cap: the lower row's length, whichever is smaller
        g = cap_candidates(cand, dists, math.inf)
        assert upper_edges(g) == [(0, 1, w01)]
        assert g.adjacency[1, 0] == w01

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_data_is_input_error(self, bad):
        x = np.array([[0.0], [bad], [1.0], [2.0], [3.0]])
        for build in (lambda: knn_graph(x, 2), lambda: knn_candidates(x, 2)):
            message = re.escape(f"data row 1, column 0 (from 0) is {bad}")
            with pytest.raises(InputError, match=message):
                build()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            knn_graph(LINE3, k=0)
        with pytest.raises(ValueError):
            knn_graph(LINE3, k=3)
        with pytest.raises(ValueError):
            knn_graph(LINE3, k=1, h=0.0)


class TestPrDensity:
    def test_hand_computed_line(self):
        # candidate set of x=0 is {0, 1, 3}; only the point itself is within
        # h/2. At k=3 the set counts the point and its first k-1 candidates,
        # so the k-th column (LINE3 has no third neighbor) is never read.
        cand_dist = np.array([[1.0, 3.0, np.inf], [1.0, 2.0, np.inf], [2.0, 3.0, np.inf]])
        counts = pr_density(cand_dist, 1.5)
        assert counts.dtype == np.float64 and counts.tolist() == [1.0, 1.0, 1.0]
        # at h = 2.2 the first candidates of x=0 and x=1 (1 apart) fall inside
        assert pr_density(cand_dist, 2.2).tolist() == [2.0, 2.0, 1.0]

    def test_identical_points(self):
        x = np.zeros((6, 2))
        with pytest.warns(DegenerateDuplicatesWarning):
            _, cand_dist = knn_candidates(x, 3)
        np.testing.assert_array_equal(pr_density(cand_dist, 2.0), 3.0)

    def test_high_dimensional_normalization_overflow(self):
        # 1/h^d is unrepresentable at d=784 and h~700; the counts, which
        # carry the occupancy structure, need no normalization
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 255, (40, 784))
        _, cand_dist = knn_candidates(x, 5)
        h = percentile_h(cand_dist, 60)
        counts = pr_density(cand_dist, h)
        assert np.all(counts >= 1)
        assert np.all(np.isfinite(counts))

    def test_infinite_window_rejected(self):
        _, cand_dist = knn_candidates(LINE3, 1)
        with pytest.raises(InfiniteWindow):
            pr_density(cand_dist, math.inf)


class TestComponents:
    def test_two_components(self):
        g = knn_graph(LINE3, k=1, h=1.5)
        summary = components(g)
        assert summary.count == 2
        assert summary.sizes == [2, 1]
        np.testing.assert_array_equal(summary.largest, [0, 1])

    def test_complete_graph_one_component(self):
        rng = np.random.default_rng(9)
        g = knn_graph(rng.normal(0, 1, (12, 2)), k=11)
        assert components(g).count == 1

    def test_no_edges_all_isolated(self):
        x = np.array([[0.0], [10.0], [20.0], [30.0]])
        g = knn_graph(x, k=1, h=1.0)
        summary = components(g)
        assert summary.count == 4
        assert summary.sizes == [1, 1, 1, 1]

    def test_numbered_by_smallest_member(self):
        x = np.array([[0.0], [100.0], [1.0], [101.0]])
        g = knn_graph(x, k=1, h=5.0)
        # component 0 contains vertex 0 (and 2); component 1 contains 1 (and 3)
        np.testing.assert_array_equal(components(g).labels, [0, 1, 0, 1])


class TestSerialization:
    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_h(knn_candidates(LINE3, 1)[1], 0)
        with pytest.raises(ValueError):
            percentile_h(knn_candidates(LINE3, 1)[1], 101)

    def test_zero_percentile_length_names_the_repeated_points(self):
        lengths = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(InputError, match=r"percentile 50 of the candidate edge lengths is "
                                             r"0: 4 of 6 candidates join repeated points"):
            percentile_h(lengths, 50)
        assert percentile_h(lengths, 70) == 0.5
