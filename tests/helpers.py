"""Test helpers: independent geodesic references and a memory probe.

A pure-Python per-source Dijkstra (smallest-predecessor tie rule) and a
cubic Floyd-Warshall relaxation share no code with the csgraph path of
prisomap.geodesics.all_pairs. traced_peak measures a call's peak Python
heap with tracemalloc, counting the shared Dijkstra buffer as heap.
graph_from_rows builds hand-made graphs,
upper_edges lists a graph's edges once each, tile_edge_points makes inputs
whose sizes sit at the edges of the 256-wide tiles of the in-place n x n
stages, and welded_roll_graph the benchmark's kind of input.
"""

from __future__ import annotations

import ctypes
import math
import tracemalloc
import weakref
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix, triu

from prisomap import geodesics
from prisomap.datasets import gen_swiss_roll
from prisomap.graph import NeighborGraph, knn_candidates, knn_graph, percentile_h

_FW_LIMIT = 500

# one tile, the tile edge (256) and its neighbours, two full tiles plus one
TILE_EDGE_SIZES = (1, 2, 255, 256, 257, 513)


def graph_from_rows(neighbors, weights, h=math.inf) -> NeighborGraph:
    """A graph whose adjacency row i holds neighbors[i] with weights[i], as given."""
    indptr = np.cumsum([0] + [len(row) for row in neighbors])
    indices = np.array([j for row in neighbors for j in row], dtype=np.int64)
    data = np.array([w for row in weights for w in row], dtype=np.float64)
    n = len(neighbors)
    return NeighborGraph(h=h, adjacency=csr_matrix((data, indices, indptr), shape=(n, n)))


def adjacency_row(graph: NeighborGraph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex i's neighbors and edge weights, read from the CSR arrays."""
    a = graph.adjacency
    row = slice(a.indptr[i], a.indptr[i + 1])
    return a.indices[row], a.data[row]


def upper_edges(graph: NeighborGraph) -> list[tuple[int, int, float]]:
    """Each undirected edge once as (i, j, w) with i < j, sorted, read from
    the upper triangle of the CSR adjacency."""
    upper = triu(graph.adjacency, k=1, format="csr")
    upper.sort_indices()
    rows = np.repeat(np.arange(graph.n), np.diff(upper.indptr))
    return list(zip(rows.tolist(), upper.indices.tolist(), upper.data.tolist()))


def dijkstra_from(graph: NeighborGraph, source: int):
    """Single-source shortest paths; returns (distances, parents).

    Unreached vertices get UNREACHABLE and parent -1. When several shortest
    paths tie, the parent is the smallest predecessor index; heap ties pop
    the smaller vertex first, so output is deterministic.
    """
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"source must be in [0, {n}), got {source}")
    dist = [math.inf] * n
    parent = [-1] * n
    done = bytearray(n)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        du, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        nbrs, wts = adjacency_row(graph, u)
        for v, w in zip(nbrs.tolist(), wts.tolist()):
            if done[v]:
                continue
            alt = du + w
            dv = dist[v]
            if alt < dv:
                dist[v] = alt
                parent[v] = u
                heappush(heap, (alt, v))
            elif alt == dv and u < parent[v]:
                parent[v] = u
    return np.array(dist, dtype=np.float64), np.array(parent, dtype=np.int64)


def floyd_warshall_oracle(graph: NeighborGraph) -> np.ndarray:
    """Cubic-time all-pairs oracle, identical contract to all_pairs.

    Guarded to n <= 500 because of the O(n^3) cost.
    """
    n = graph.n
    if n > _FW_LIMIT:
        raise ValueError(f"Floyd-Warshall oracle limited to n <= {_FW_LIMIT}, got {n}")
    d = np.full((n, n), math.inf, dtype=np.float64)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j, w in zip(*adjacency_row(graph, i)):
            d[i, j] = w
    for mid in range(n):
        np.minimum(d, d[:, mid : mid + 1] + d[mid : mid + 1, :], out=d)
    return d


# tracemalloc sees no mmap, so traced_peak registers each shared Dijkstra
# buffer with it as an allocation of this domain for as long as it lives
_SHARED_DOMAIN = 0x6D6D6170
_track = ctypes.pythonapi.PyTraceMalloc_Track
_track.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
_untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
_untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t)
_shared_buffer = geodesics._shared_buffer


def _traced_shared_buffer(rows: int, n: int) -> np.ndarray:
    out = _shared_buffer(rows, n)
    address = out.ctypes.data
    _track(_SHARED_DOMAIN, address, out.nbytes)
    owner = out
    while isinstance(owner, np.ndarray):  # the exporter the mapping lives as long as
        owner = owner.base
    weakref.finalize(owner, _untrack, _SHARED_DOMAIN, address)
    return out


def traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) holds above what was live when it was called.

    fn runs once untraced first, so lazy imports and caches it fills do not
    count. The result counts while fn holds it, so it is part of the peak.
    A shared Dijkstra buffer counts from its mapping to its release.
    """
    fn(*args)
    tracemalloc.start()
    geodesics._shared_buffer = _traced_shared_buffer
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        geodesics._shared_buffer = _shared_buffer
        tracemalloc.stop()


def tile_edge_points(n: int, seed: int, ties: bool) -> np.ndarray:
    """n points in the plane; with ties, on an integer grid of about 4n cells.

    Grid points repeat distances exactly and hold a few duplicates.
    """
    rng = np.random.default_rng(seed)
    if ties:
        return rng.integers(0, 2 * math.isqrt(n) + 2, (n, 2)).astype(np.float64)
    return rng.normal(0, 3, (n, 2))


def welded_roll_graph(n: int, h_pct: float) -> NeighborGraph:
    """k=12 graph of the seed-0 swiss roll with density exponent 3 and 1%
    welded pairs, capped at the h_pct percentile of candidate lengths."""
    x = gen_swiss_roll(n, density_exponent=3.0, seed=0, short_circuit_pairs=0.01).ambient
    h = math.inf if h_pct == math.inf else percentile_h(knn_candidates(x, 12)[1], h_pct)
    return knn_graph(x, 12, h)
