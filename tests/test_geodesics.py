import itertools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prisomap
from prisomap import geodesics
from prisomap.datasets import gen_swiss_roll, swiss_roll_unrolled
from prisomap.errors import InputError, NumericError
from prisomap.geodesics import UNREACHABLE, SpectralEntry, all_pairs, load_spectrum, save_spectrum
from prisomap.graph import NeighborGraph, components, knn_candidates, knn_graph, percentile_h
from prisomap.linalg import EigenResult, pairwise_dists

from helpers import (
    TILE_EDGE_SIZES,
    dijkstra_from,
    floyd_warshall_oracle,
    graph_from_rows,
    tile_edge_points,
    traced_peak,
    welded_roll_graph,
)

LINE3 = np.array([[0.0], [1.0], [3.0]])
SRC = Path(prisomap.__file__).resolve().parents[1]


def edge_graph(n, edges, h=math.inf):
    """Hand-built graph on n vertices from undirected {(i, j): w} edges."""
    neighbors = [[] for _ in range(n)]
    wts = [[] for _ in range(n)]
    for (i, j), w in sorted(edges.items()):
        neighbors[i].append(j)
        wts[i].append(w)
        neighbors[j].append(i)
        wts[j].append(w)
    return graph_from_rows(neighbors, wts, h=h)


def path_graph(weights):
    """Chain 0-1-2-... with the given edge weights."""
    return edge_graph(len(weights) + 1, {(i, i + 1): w for i, w in enumerate(weights)})


def reference_all_pairs(graph):
    """dijkstra_from rows, symmetrized by the elementwise minimum."""
    rows = np.stack([dijkstra_from(graph, s)[0] for s in range(graph.n)])
    return np.minimum(rows, rows.T)


def assert_matches_references(graph):
    got = all_pairs(graph)
    assert got.tobytes() == reference_all_pairs(graph).tobytes()
    want = floyd_warshall_oracle(graph)
    assert (np.isfinite(got) == np.isfinite(want)).all()
    both = np.isfinite(got)
    assert np.abs(got[both] - want[both]).max() <= 1e-9


class TestDijkstra:
    def test_line_graph(self):
        g = path_graph([1.0, 1.0])
        dist, parent = dijkstra_from(g, 0)
        np.testing.assert_array_equal(dist, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(parent, [-1, 0, 1])

    def test_unreachable_sentinel(self):
        g = knn_graph(LINE3, k=1, h=1.5)
        dist, parent = dijkstra_from(g, 0)
        assert dist[2] == UNREACHABLE
        assert parent[2] == -1

    def test_tie_prefers_smaller_parent(self):
        # square: 0-1, 0-2, 1-3, 2-3 all unit weight; 3 reachable via 1 or 2
        neighbors = [np.array([1, 2]), np.array([0, 3]), np.array([0, 3]),
                     np.array([1, 2])]
        wts = [np.ones(2) for _ in range(4)]
        g = graph_from_rows(neighbors, wts)
        dist, parent = dijkstra_from(g, 0)
        assert dist[3] == 2.0
        assert parent[3] == 1

    def test_source_out_of_range(self):
        g = path_graph([1.0])
        with pytest.raises(ValueError):
            dijkstra_from(g, 5)


class TestAllPairs:
    def test_three_collinear_complete(self):
        g = knn_graph(LINE3, k=2, h=math.inf)
        geo = all_pairs(g)
        assert geo[0, 2] == 3.0
        assert geo[0, 1] == 1.0
        np.testing.assert_array_equal(np.diag(geo), 0.0)

    def test_capped_sentinel(self):
        g = knn_graph(LINE3, k=2, h=1.5)
        geo = all_pairs(g)
        assert geo[0, 2] == UNREACHABLE
        assert not np.isfinite(geo).all()

    def test_single_vertex(self):
        g = graph_from_rows([np.array([], dtype=np.int64)], [np.array([])])
        geo = all_pairs(g)
        np.testing.assert_array_equal(geo, [[0.0]])
        assert np.isfinite(geo).all()

    def test_matches_floyd_warshall_n50(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (50, 3))
        g = knn_graph(x, k=4, h=math.inf)
        got = all_pairs(g)
        want = floyd_warshall_oracle(g)
        both = np.isfinite(got) & np.isfinite(want)
        assert (np.isfinite(got) == np.isfinite(want)).all()
        assert np.abs(got[both] - want[both]).max() <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(8, 80), st.sampled_from([2, 3, 5]),
           st.sampled_from([math.inf, 40.0, 70.0]))
    def test_oracle_equivalence(self, seed, n, k, h_pct):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, 2))
        k = min(k, n - 1)
        h = math.inf if h_pct == math.inf else percentile_h(knn_candidates(x, k)[1], h_pct)
        g = knn_graph(x, k, h)
        got = all_pairs(g)
        want = floyd_warshall_oracle(g)
        assert (np.isfinite(got) == np.isfinite(want)).all()
        both = np.isfinite(got)
        assert np.abs(got[both] - want[both]).max() <= 1e-9

    @pytest.mark.parametrize("h_pct", [60.0, math.inf])
    def test_bit_identical_to_reference_on_welded_roll(self, h_pct):
        sample = gen_swiss_roll(400, density_exponent=3.0, seed=0, short_circuit_pairs=0.01)
        x = sample.ambient
        h = math.inf if h_pct == math.inf else percentile_h(knn_candidates(x, 12)[1], h_pct)
        g = knn_graph(x, 12, h)
        assert all_pairs(g).tobytes() == reference_all_pairs(g).tobytes()

    # integer grid points give duplicates and exact distance ties; h = 0.5 is
    # below every nonzero edge (an empty graph) and the shift splits the
    # sample into two far components
    @pytest.mark.filterwarnings("ignore::prisomap.errors.DegenerateDuplicatesWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=30),
           st.integers(1, 6), st.sampled_from([0.5, 1.5, 2.5, math.inf]), st.booleans())
    def test_reference_equivalence_grid_points(self, points, k, h, split):
        x = np.array(points, dtype=np.float64)
        if split:
            x[len(x) // 2 :] += 100.0
        assert_matches_references(knn_graph(x, min(k, len(x) - 1), h))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_reference_equivalence_hand_built(self, n, data):
        triples = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            max_size=3 * n))
        edges = {(min(i, j), max(i, j)): float(w) for i, j, w in triples if i != j}
        assert_matches_references(edge_graph(n, edges))

    # sizes at the tile edges, unreachable pairs when h is the median
    # positive candidate length, and exact ties and duplicates on grid
    # points; the pinned example's two points coincide
    @pytest.mark.filterwarnings("ignore::prisomap.errors.DegenerateDuplicatesWarning")
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(TILE_EDGE_SIZES), st.integers(0, 2**16), st.booleans(),
           st.booleans())
    @example(n=2, seed=1402, ties=True, capped=True)
    def test_tiled_checks_equal_full_matrix_expressions(self, n, seed, ties, capped):
        from scipy.sparse.csgraph import dijkstra

        if n == 1:
            g = edge_graph(1, {})
        else:
            x = tile_edge_points(n, seed, ties)
            k = min(4, n - 1)
            h = math.inf
            if capped:
                # zero-length candidates never become edges; with no positive
                # one, any positive h gives the empty graph
                lengths = knn_candidates(x, k)[1]
                lengths = lengths[lengths > 0]
                h = percentile_h(lengths, 50) if lengths.size else 1.0
            g = knn_graph(x, k, h)
        raw = dijkstra(g.adjacency, directed=True)
        geo = all_pairs(g)
        assert geo.tobytes() == np.minimum(raw, raw.T).tobytes()
        assert float(np.isfinite(geo).mean()) == float(np.isfinite(raw).mean())

    @staticmethod
    def graph_seeing(monkeypatch, at, entry):
        """A connected graph whose all_pairs sees Dijkstra's result with
        entry(raw, at) at position at; returns the graph and that result."""
        import scipy.sparse.csgraph

        g = knn_graph(gen_swiss_roll(300, seed=1).ambient, 8, math.inf)
        raw = scipy.sparse.csgraph.dijkstra(g.adjacency, directed=True)
        raw[at] = entry(raw, at)
        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra",
                            lambda *a, indices=None, **kw: raw[slice(None) if indices is None
                                                               else indices].copy())
        return g, raw

    FAULTS = [
        (lambda raw, at: math.inf, "reachability must be symmetric"),
        (lambda raw, at: raw[at[::-1]] * (1 + 1e-9), "asymmetry"),
    ]

    # faults on either side of an off-diagonal tile pair, and in a diagonal tile
    @pytest.mark.parametrize("at", [(10, 280), (280, 10), (260, 270)])
    @pytest.mark.parametrize("entry, message", FAULTS)
    def test_post_dijkstra_checks_raise(self, monkeypatch, at, entry, message):
        g, _ = self.graph_seeing(monkeypatch, at, entry)
        with pytest.raises(NumericError, match=message):
            all_pairs(g)

    # with indices the checks run on the block among them, its tiles shifted by 5
    @pytest.mark.parametrize("at", [(10, 280), (280, 10), (260, 270)])
    @pytest.mark.parametrize("entry, message", FAULTS)
    def test_post_dijkstra_checks_raise_on_the_block(self, monkeypatch, at, entry, message):
        g, _ = self.graph_seeing(monkeypatch, at, entry)
        with pytest.raises(NumericError, match=message):
            all_pairs(g, np.arange(5, 295))

    def test_rounding_asymmetry_resolves_to_the_minimum(self, monkeypatch):
        g, raw = self.graph_seeing(monkeypatch, (280, 10),
                                   lambda raw, at: np.nextafter(raw[at[::-1]], math.inf))
        geo = all_pairs(g)
        assert geo[280, 10] == geo[10, 280] == raw[10, 280]

    # the embed runs all-pairs over the largest component's submatrix only
    def test_kept_submatrix_equals_the_full_block(self):
        g = welded_roll_graph(1500, 60.0)
        kept = components(g).largest
        assert kept.size < g.n
        sub = NeighborGraph(h=g.h, adjacency=g.adjacency[kept][:, kept])
        full = all_pairs(g)
        assert all_pairs(sub).tobytes() == full[np.ix_(kept, kept)].tobytes()

    # eval --ref geodesic runs Dijkstra from the embedding's vertices alone
    @pytest.mark.parametrize("h_pct", [30.0, math.inf])
    def test_block_among_indices_equals_the_full_block(self, h_pct):
        g = welded_roll_graph(900, h_pct)
        full = all_pairs(g)
        rng = np.random.default_rng(4)
        for indices in (np.arange(g.n), np.sort(rng.choice(g.n, 600, replace=False)),
                        rng.permutation(g.n)[:300], np.array([7])):
            block = all_pairs(g, indices)
            want = full[np.ix_(indices, indices)]
            assert block.tobytes() == want.tobytes()
            assert float(np.isfinite(block).mean()) == float(np.isfinite(want).mean())
        assert np.isinf(full).any() == (h_pct == 30.0)  # unreachable pairs stay +inf

    def test_block_needs_no_n_by_n_buffer(self):
        g = welded_roll_graph(1500, 60.0)
        m = 1200
        # Dijkstra's m x n rows and the m x m block; all-pairs and a slice of
        # it took n^2 + m^2
        assert traced_peak(all_pairs, g, np.arange(m)) <= 1.05 * 8 * (m * g.n + m * m)

    @pytest.mark.parametrize("h_pct", [60.0, math.inf])
    def test_result_is_the_only_dense_buffer(self, h_pct):
        n = 1500
        # Dijkstra's n x n float64 result plus tile temporaries
        assert traced_peak(all_pairs, welded_roll_graph(n, h_pct)) <= 1.3 * 8 * n * n

    def test_edge_longer_than_cap_raises(self):
        with pytest.raises(NumericError, match="exceeds cap"):
            all_pairs(edge_graph(3, {(0, 1): 1.0, (1, 2): 2.0}, h=1.5))

    def test_edge_longer_than_cap_raises_under_optimize(self):
        code = textwrap.dedent("""
            from scipy.sparse import csr_matrix
            from prisomap.errors import NumericError
            from prisomap.geodesics import all_pairs
            from prisomap.graph import NeighborGraph
            if __debug__:
                raise SystemExit(2)  # asserts are live: not an optimized run
            g = NeighborGraph(h=1.0, adjacency=csr_matrix(
                ([2.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2)))
            try:
                all_pairs(g)
            except NumericError:
                raise SystemExit(0)
            raise SystemExit(1)
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("neighbors, weights", [
        ([[1], []], [[1.0], []]),  # 0 -> 1 without 1 -> 0
        ([[1], [0]], [[1.0], [np.nextafter(1.0, 2.0)]]),  # one ulp apart
    ])
    def test_one_directional_adjacency_raises(self, neighbors, weights):
        g = graph_from_rows(neighbors, weights)
        with pytest.raises(NumericError, match="both directions"):
            all_pairs(g)

    def test_one_directional_adjacency_raises_under_optimize(self):
        code = textwrap.dedent("""
            from scipy.sparse import csr_matrix
            from prisomap.errors import NumericError
            from prisomap.geodesics import all_pairs
            from prisomap.graph import NeighborGraph
            if __debug__:
                raise SystemExit(2)  # asserts are live: not an optimized run
            g = NeighborGraph(h=1.0, adjacency=csr_matrix(
                ([1.0], ([0], [1])), shape=(2, 2)))
            try:
                all_pairs(g)
            except NumericError as exc:
                raise SystemExit(0 if "both directions" in str(exc) else 3)
            raise SystemExit(1)
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("h_pct", [60.0, math.inf])
    def test_directed_walk_equals_undirected_csgraph(self, h_pct):
        from scipy.sparse.csgraph import dijkstra

        x = gen_swiss_roll(600, density_exponent=3.0, seed=0, short_circuit_pairs=0.01).ambient
        h = math.inf if h_pct == math.inf else percentile_h(knn_candidates(x, 12)[1], h_pct)
        g = knn_graph(x, 12, h)
        undirected = dijkstra(g.adjacency, directed=False)
        assert all_pairs(g).tobytes() == np.minimum(undirected, undirected.T).tobytes()

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (60, 2))
        geo = all_pairs(knn_graph(x, 5, math.inf))
        assert np.array_equal(geo, geo.T)

    def test_large_scale_distances(self):
        # forward/reverse path sums differ in the last ulps at pixel-like
        # scales; the symmetry contract must hold regardless of units
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 255, (300, 20))
        geo = all_pairs(knn_graph(x, 6, math.inf))
        assert np.array_equal(geo, geo.T)
        want = floyd_warshall_oracle(knn_graph(x, 6, math.inf))
        both = np.isfinite(geo) & np.isfinite(want)
        scale = want[both].max()
        assert np.abs(geo[both] - want[both]).max() <= 1e-9 * max(1.0, scale)

    def test_cap_monotonicity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (50, 2))
        h1 = percentile_h(knn_candidates(x, 5)[1], 50)
        h2 = percentile_h(knn_candidates(x, 5)[1], 90)
        d1 = all_pairs(knn_graph(x, 5, h1))
        d2 = all_pairs(knn_graph(x, 5, h2))
        assert np.all(d1 >= d2 - 1e-12)

    def test_local_agreement(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, (40, 3))
        g = knn_graph(x, 5, math.inf)
        geo = all_pairs(g)
        a = g.adjacency.tocoo()
        assert (geo[a.row, a.col] == a.data).all()

    def test_triangle_inequality_and_euclidean_floor(self):
        rng = np.random.default_rng(15)
        x = rng.normal(0, 1, (30, 2))
        geo = all_pairs(knn_graph(x, 4, math.inf))
        euc = pairwise_dists(x)
        finite = np.isfinite(geo)
        assert np.all(geo[finite] >= euc[finite] - 1e-9)
        n = x.shape[0]
        for j in range(n):
            via = geo[:, j : j + 1] + geo[j : j + 1, :]
            ok = np.isfinite(geo) & np.isfinite(via)
            assert np.all(geo[ok] <= via[ok] + 1e-9)

    def test_fw_guard(self):
        g = graph_from_rows([np.array([], dtype=np.int64)] * 501, [np.array([])] * 501)
        with pytest.raises(ValueError, match="oracle limited to n <= 500, got 501"):
            floyd_warshall_oracle(g)

    def test_fw_no_edges(self):
        x = np.array([[0.0], [10.0], [20.0]])
        g = knn_graph(x, k=1, h=0.5)
        d = floyd_warshall_oracle(g)
        assert np.isinf(d[0, 1]) and np.isinf(d[1, 2])
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_fw_single_edge(self):
        g = graph_from_rows(
            [np.array([1]), np.array([0]), np.array([], dtype=np.int64)],
            [np.array([2.5]), np.array([2.5]), np.array([])],
        )
        d = floyd_warshall_oracle(g)
        assert d[0, 1] == 2.5
        assert np.isinf(d[0, 2]) and np.isinf(d[1, 2])


def forced_workers(monkeypatch, workers):
    """Run Dijkstra in workers processes (1: in this one), whatever the size
    and the CPUs."""
    monkeypatch.setattr(geodesics, "_worker_count", lambda rows, n: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedDijkstra:
    """Dijkstra split over two processes, this one and a forked worker,
    gives one process's bytes, and no worker outlives the call."""

    @staticmethod
    def both_paths(monkeypatch, *args):
        forced_workers(monkeypatch, 1)
        serial = all_pairs(*args)
        forced_workers(monkeypatch, 2)
        forked = all_pairs(*args)
        assert_no_child_left()
        return serial, forked

    # the embed's graphs, whole and as the kept submatrix; a finite window
    # leaves unreachable pairs
    @pytest.mark.parametrize("h_pct", [30.0, 60.0, math.inf])
    def test_forked_bytes_equal_serial_bytes(self, monkeypatch, h_pct):
        g = welded_roll_graph(900, h_pct)
        kept = components(g).largest
        sub = NeighborGraph(h=g.h, adjacency=g.adjacency[kept][:, kept])
        serial, forked = self.both_paths(monkeypatch, g)
        assert forked.tobytes() == serial.tobytes()
        assert np.isinf(serial).any() == (h_pct != math.inf)
        serial, forked = self.both_paths(monkeypatch, sub)
        assert forked.tobytes() == serial.tobytes()

    # eval --ref geodesic's rows: sorted, permuted, one vertex, every vertex
    @pytest.mark.parametrize("h_pct", [30.0, math.inf])
    def test_forked_block_equals_serial_block(self, monkeypatch, h_pct):
        g = welded_roll_graph(900, h_pct)
        rng = np.random.default_rng(4)
        for indices in (np.sort(rng.choice(g.n, 600, replace=False)),
                        rng.permutation(g.n), np.array([7]), np.arange(g.n)):
            serial, forked = self.both_paths(monkeypatch, g, indices)
            assert forked.tobytes() == serial.tobytes()

    # scipy's Dijkstra, patched before the fork, is the workers' Dijkstra too
    @pytest.mark.parametrize("at", [(10, 280), (280, 10), (260, 270)])
    @pytest.mark.parametrize("entry, message", TestAllPairs.FAULTS)
    def test_post_dijkstra_checks_raise_on_forked_rows(self, monkeypatch, at, entry, message):
        g, _ = TestAllPairs.graph_seeing(monkeypatch, at, entry)
        forced_workers(monkeypatch, 2)
        for indices in (None, np.arange(5, 295)):
            with pytest.raises(NumericError, match=message):
                all_pairs(g, indices)
        assert_no_child_left()

    def test_rounding_asymmetry_resolves_to_the_minimum_on_forked_rows(self, monkeypatch):
        g, raw = TestAllPairs.graph_seeing(monkeypatch, (280, 10),
                                           lambda raw, at: np.nextafter(raw[at[::-1]],
                                                                        math.inf))
        forced_workers(monkeypatch, 2)
        geo = all_pairs(g)
        assert geo[280, 10] == geo[10, 280] == raw[10, 280]

    @staticmethod
    def patch_worker_dijkstra(monkeypatch, in_worker, in_parent=None):
        """scipy's Dijkstra, patched before the fork: in_worker() in a
        forked worker, in_parent() (or the real one) in this process."""
        import scipy.sparse.csgraph

        parent, real = os.getpid(), scipy.sparse.csgraph.dijkstra

        def dijkstra(*args, **kwargs):
            if os.getpid() != parent:
                return in_worker()
            return in_parent() if in_parent else real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", dijkstra)
        forced_workers(monkeypatch, 2)

    @pytest.mark.parametrize("fault, how", [
        (lambda: 1 / 0, r"exit status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), r"killed by signal 9"),
    ])
    def test_failing_worker_is_a_numeric_error(self, monkeypatch, fault, how):
        self.patch_worker_dijkstra(monkeypatch, fault)
        with pytest.raises(NumericError, match=rf"a Dijkstra worker failed \({how}\)"):
            all_pairs(welded_roll_graph(300, math.inf))
        assert_no_child_left()

    # an interrupt in the parent's own block kills and reaps the worker,
    # which would otherwise run on for a minute
    def test_interrupted_parent_kills_its_workers(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        self.patch_worker_dijkstra(monkeypatch, lambda: time.sleep(60), interrupt)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            all_pairs(welded_roll_graph(300, math.inf))
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()

    # the count as arithmetic: no process starts
    def test_worker_count_is_capped_by_the_mask_and_the_chunks(self, monkeypatch):
        count, chunk, work = (geodesics._worker_count, geodesics._CHUNK,
                              geodesics._PARALLEL_WORK)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert count(1500, 1500) == math.ceil(1500 / chunk) == 12
        assert count(64 * chunk + 1, 4000) == 64
        assert count(chunk, work) == 1 and count(chunk + 1, work) == 2
        assert count(1, 10**7) == 1
        assert count(work // 1000 - 1, 1000) == 1  # below the crossover
        assert count(work // 1000, 1000) == math.ceil(work // 1000 / chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert count(4000, 4000) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.delattr(os, "fork")
        assert count(4000, 4000) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert count(4000, 4000) == 1

    # beyond the shared n x n buffer, which traced_peak counts, the parent
    # holds one chunk of its own block's rows (128 n floats) and then the
    # tiles' temporaries; the workers' chunks are not in it
    def test_parent_holds_little_beyond_the_shared_buffer(self, monkeypatch):
        n = 1500
        forced_workers(monkeypatch, 2)
        peak = traced_peak(all_pairs, welded_roll_graph(n, math.inf))
        assert 8 * n * n <= peak <= 1.1 * 8 * n * n


class TestDenseSamplingConsistency:
    # The graph shortest path carries an irreducible zigzag stretch that is a
    # function of k, not of n: a flat-strip control shows median stretch
    # ~3.6% / 95th percentile ~7.4% at k=10 and ~1.7% / ~4.0% at k=15, for
    # any n >= 2000. The 5%-for-95%-of-pairs bound therefore holds at k=15;
    # at k=10 the supported bound is 8%.

    @staticmethod
    def _rel_errors(k):
        sample = gen_swiss_roll(2000, noise_sd=0.0, density_exponent=0.0, seed=42)
        g = knn_graph(sample.ambient, k=k, h=math.inf)
        chart = pairwise_dists(swiss_roll_unrolled(sample.intrinsic))
        rng = np.random.default_rng(0)
        rels = []
        for s in rng.choice(2000, 60, replace=False):
            dist, _ = dijkstra_from(g, int(s))
            j = rng.integers(0, 2000, 60)
            j = j[j != s]
            rels.append(np.abs(dist[j] - chart[s, j]) / chart[s, j])
        return np.concatenate(rels)

    def test_swiss_roll_geodesics_match_chart_k15(self):
        rel = self._rel_errors(k=15)
        assert np.mean(rel <= 0.05) >= 0.95

    def test_swiss_roll_geodesics_match_chart_k10(self):
        rel = self._rel_errors(k=10)
        assert np.mean(rel <= 0.08) >= 0.95
        assert np.median(rel) <= 0.045


def _small_entry(h=1.0) -> SpectralEntry:
    return SpectralEntry(kept_indices=np.arange(3, dtype=np.int64), n_input=3,
                         eigenpairs=EigenResult(np.ones(2), np.ones((3, 2))),
                         fingerprint={"top": 2}, h=h)


class TestSerialization:
    # files that are no spectral entry, and archives whose members are
    # missing or of another dtype or shape
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "entry.eig"
        meta = np.array(json.dumps({"version": geodesics._VERSION, "n_input": 3,
                                    "fingerprint": {}, "h": 1.0}))
        members = {"kept": np.arange(3), "eigenvalues": np.ones(2),
                   "eigenvectors": np.ones((3, 2)), "meta": meta}
        bad = [{**members, "kept": np.arange(3.0)}, {**members, "eigenvalues": np.float64(1.0)},
               {**members, "eigenvectors": np.ones((2, 3))},
               {**members, "meta": np.array(["{}", "{}"])}]
        bad += [{name: a for name, a in members.items() if name != drop} for drop in members]
        for contents in [b"NOPE" + b"\x00" * 40, b"", *bad]:
            with path.open("wb") as fh:
                if isinstance(contents, bytes):
                    fh.write(contents)
                else:
                    np.savez(fh, **contents)
            with pytest.raises(InputError, match="unreadable spectral entry|"
                                                 "a member of another type or shape"):
                load_spectrum(path)
        # a bare .npy array, and the valid archive itself
        np.save(path.with_suffix(".npy"), np.ones(3))
        with pytest.raises(InputError, match="unreadable spectral entry"):
            load_spectrum(path.with_suffix(".npy"))
        with path.open("wb") as fh:
            np.savez(fh, **members)
        assert load_spectrum(path).n_input == 3

    # cuts in the first member's header, in the middle of the archive, and
    # in its end record
    def test_truncated(self, tmp_path):
        path = tmp_path / "entry.eig"
        save_spectrum(_small_entry(), path)
        raw = path.read_bytes()
        for cut in (raw[:10], raw[:-8], raw[:len(raw) // 2]):
            path.write_bytes(cut)
            with pytest.raises(InputError, match="unreadable spectral entry"):
                load_spectrum(path)

    # the zip directory, the member headers and the bodies alike: each byte,
    # flipped in two ways, is refused or leaves the entry as written
    def test_every_flipped_byte_is_refused_or_harmless(self, tmp_path):
        path = tmp_path / "entry.eig"
        entry = _small_entry(h=2.5)
        save_spectrum(entry, path)
        raw = path.read_bytes()
        for at, bit in itertools.product(range(len(raw)), (0x01, 0x80)):
            path.write_bytes(raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:])
            try:
                back = load_spectrum(path)
            except InputError:
                continue
            assert (back.kept_indices.tobytes(), back.n_input, back.fingerprint, back.h) == \
                (entry.kept_indices.tobytes(), 3, {"top": 2}, 2.5)
            assert all(getattr(back.eigenpairs, part).tobytes() ==
                       getattr(entry.eigenpairs, part).tobytes()
                       for part in ("eigenvalues", "eigenvectors"))

    def test_spectral_entry_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        fingerprint = {"data_hash": "ab", "k": 5, "h": math.inf,
                       "component_policy": "largest_component", "top": 4}
        entry = SpectralEntry(kept_indices=np.array([0, 2, 3, 7, 8], dtype=np.int64),
                              n_input=9,
                              eigenpairs=EigenResult(rng.normal(size=4), rng.normal(size=(5, 4))),
                              fingerprint=fingerprint, h=1.75)
        path = tmp_path / "entry.eig"
        save_spectrum(entry, path)
        back = load_spectrum(path)
        assert back.kept_indices.tobytes() == entry.kept_indices.tobytes()
        assert back.n_input == 9 and back.fingerprint == fingerprint and back.h == entry.h
        for part in ("eigenvalues", "eigenvectors"):
            assert getattr(back.eigenpairs, part).tobytes() == \
                getattr(entry.eigenpairs, part).tobytes()
        # rewriting gives the same bytes, and no temporary file stays behind
        raw = path.read_bytes()
        save_spectrum(back, path)
        assert path.read_bytes() == raw and os.listdir(tmp_path) == ["entry.eig"]
        path.write_bytes(raw[:-8])
        with pytest.raises(InputError, match="unreadable spectral entry"):
            load_spectrum(path)

    @pytest.mark.parametrize("h", [None, "1.5", True, [1.0]])
    def test_window_that_is_not_a_number_is_bad_magic(self, tmp_path, h):
        path = tmp_path / "entry.eig"
        save_spectrum(_small_entry(h), path)
        with pytest.raises(InputError, match="window h"):
            load_spectrum(path)
