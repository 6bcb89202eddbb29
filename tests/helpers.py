"""Test helpers: independent geodesic references and a memory probe.

A pure-Python per-source Dijkstra (smallest-predecessor tie rule) and a
cubic Floyd-Warshall relaxation share no code with the csgraph path of
prisomap.geodesics.all_pairs. traced_peak measures a call's peak Python
heap with tracemalloc. tile_edge_points makes inputs whose sizes sit at
the edges of the 256-wide tiles of the in-place n x n stages, and
welded_roll_graph the benchmark's kind of input.
"""

from __future__ import annotations

import math
import tracemalloc
from heapq import heappop, heappush

import numpy as np

from prisomap.datasets import gen_swiss_roll
from prisomap.errors import TooLarge
from prisomap.geodesics import GeodesicMatrix
from prisomap.graph import NeighborGraph, knn_candidates, knn_graph, percentile_h

_FW_LIMIT = 500

# one tile, the tile edge (256) and its neighbours, two full tiles plus one
TILE_EDGE_SIZES = (1, 2, 255, 256, 257, 513)


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
        for v, w in zip(graph.neighbors[u].tolist(), graph.weights[u].tolist()):
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


def floyd_warshall_oracle(graph: NeighborGraph) -> GeodesicMatrix:
    """Cubic-time all-pairs oracle, identical contract to all_pairs.

    Guarded to n <= 500 because of the O(n^3) cost.
    """
    n = graph.n
    if n > _FW_LIMIT:
        raise TooLarge(f"Floyd-Warshall oracle limited to n <= {_FW_LIMIT}, got {n}")
    d = np.full((n, n), math.inf, dtype=np.float64)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j, w in zip(graph.neighbors[i], graph.weights[i]):
            d[i, j] = w
    for mid in range(n):
        np.minimum(d, d[:, mid : mid + 1] + d[mid : mid + 1, :], out=d)
    finite_fraction = float(np.isfinite(d).mean()) if n else 1.0
    return GeodesicMatrix(values=d, finite_fraction=finite_fraction,
                          fingerprint=graph.fingerprint())


def traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) holds above what was live when it was called.

    fn runs once untraced first, so lazy imports and caches it fills do not
    count. The result counts while fn holds it, so it is part of the peak.
    """
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
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
