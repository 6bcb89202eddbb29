"""Capped k-nearest-neighbor graph construction and the window density diagnostic.

The graph connects each point to its k nearest neighbors, discards every
candidate edge longer than the window diameter h, and symmetrizes by union.
The rectangular-window density estimate over the same candidate sets serves
as a sampling-uniformity diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import data_hash
from .errors import DegenerateDuplicatesWarning, InfiniteWindow
from .linalg import as_matrix, pairwise_sq_dists

_BLOCK_ROWS = 512


@dataclass
class NeighborGraph:
    """Symmetrized weighted k-NN graph with a hard cap h on edge lengths.

    adjacency is stored as parallel per-vertex arrays (neighbors sorted by
    index, weights aligned). candidates/candidate_dists keep each vertex's
    pre-filter k nearest neighbors for density estimation and h selection.
    """

    n: int
    k: int
    h: float
    neighbors: list[np.ndarray]
    weights: list[np.ndarray]
    component_id: np.ndarray
    candidates: list[np.ndarray] = field(default_factory=list, repr=False)
    candidate_dists: list[np.ndarray] = field(default_factory=list, repr=False)
    data_hash: str = ""

    def edge_count(self) -> int:
        return sum(len(a) for a in self.neighbors) // 2

    def iter_edges(self):
        """Yield each undirected edge once as (i, j, w) with i < j, sorted."""
        for i in range(self.n):
            for j, w in zip(self.neighbors[i], self.weights[i]):
                if i < j:
                    yield i, int(j), float(w)

    def fingerprint(self) -> dict:
        return {"k": self.k, "h": self.h, "data_hash": self.data_hash}

    def csr(self):
        """The adjacency as an n x n scipy CSR matrix (row i = vertex i's edges)."""
        from scipy.sparse import csr_matrix

        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self.neighbors], out=indptr[1:])
        indices = np.concatenate([np.empty(0, dtype=np.int64), *self.neighbors])
        data = np.concatenate([np.empty(0), *self.weights])
        return csr_matrix((data, indices, indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class DensityEstimate:
    """Per-vertex window density p_h(x) with the window that produced it.

    counts holds the raw window occupancy (self included); values = counts /
    (k * h**h_power), which can under- or overflow float64 when h_power is a
    large ambient dimension. Statistics that are invariant to the constant
    normalization (like the uniformity coefficient of variation) should use
    counts.
    """

    values: np.ndarray
    h: float
    k: int
    window: str = "rectangular"
    h_power: int = 0
    counts: np.ndarray | None = None


@dataclass(frozen=True)
class ComponentSummary:
    count: int
    sizes: list[int]
    largest: np.ndarray
    labels: np.ndarray


def _knn_candidates(data: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Exact k nearest neighbors per row (self excluded), ties by lower index.

    Returns (candidate indices, candidate distances, zero-distance pair count
    seen among candidates).
    """
    n = data.shape[0]
    cand_idx: list[np.ndarray] = []
    cand_dist: list[np.ndarray] = []
    zero_pairs: set[tuple[int, int]] = set()
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = pairwise_sq_dists(data[start:stop], data)
        for local, i in enumerate(range(start, stop)):
            row = d2[local]
            row[i] = np.inf
            # pool = everything up to the k-th smallest value, so boundary ties
            # can be resolved by (distance, index) order
            kth = np.partition(row, k - 1)[k - 1]
            pool = np.where(row <= kth)[0]
            order = pool[np.lexsort((pool, row[pool]))][:k]
            dists = np.sqrt(row[order])
            cand_idx.append(order.astype(np.int64))
            cand_dist.append(dists)
            for j, dj in zip(order, dists):
                if dj == 0.0:
                    zero_pairs.add((min(i, int(j)), max(i, int(j))))
    return cand_idx, cand_dist, len(zero_pairs)


def knn_graph(data, k: int, h: float = math.inf) -> NeighborGraph:
    """Build the symmetrized k-NN graph with candidate edges capped at length h.

    Each vertex proposes its k nearest neighbors (exact ties broken by lower
    index); candidates longer than h are discarded and the survivors are
    symmetrized by union. Zero-distance edges are dropped; if more than n/2
    zero-distance pairs exist a DegenerateDuplicatesWarning is issued.
    """
    x = as_matrix(data, "data")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n={n}, got {k}")
    if not (h > 0):
        raise ValueError(f"h must be positive (or +inf), got {h}")

    cand_idx, cand_dist, zero_count = _knn_candidates(x, k)
    if zero_count > n / 2:
        warnings.warn(
            f"{zero_count} zero-distance pairs detected; their edges were dropped",
            DegenerateDuplicatesWarning,
            stacklevel=2,
        )

    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j, w in zip(cand_idx[i], cand_dist[i]):
            if w == 0.0 or w > h:
                continue
            key = (i, int(j)) if i < j else (int(j), i)
            if key not in edges:
                edges[key] = float(w)

    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    both = np.concatenate([pairs, pairs[:, ::-1]])
    w = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    adjacency = coo_matrix((np.tile(w, 2), (both[:, 0], both[:, 1])), shape=(n, n)).tocsr()
    adjacency.sort_indices()
    # scipy numbers components in order of their smallest member
    _, labels = connected_components(adjacency, directed=False)
    cuts = adjacency.indptr[1:-1]
    return NeighborGraph(
        n=n,
        k=k,
        h=float(h),
        neighbors=np.split(adjacency.indices.astype(np.int64), cuts),
        weights=np.split(adjacency.data, cuts),
        component_id=labels.astype(np.int64),
        candidates=cand_idx,
        candidate_dists=cand_dist,
        data_hash=data_hash(x),
    )


def pr_density(data, graph: NeighborGraph, h_power: int | None = None) -> DensityEstimate:
    """Rectangular-window density over each point's k nearest neighbors.

    The candidate set is the k nearest dataset points counting the point
    itself (always its own nearest neighbor), so
    p(x) = (1/k) * sum(1/h**d * [||x_i - x|| <= h/2]).

    h_power overrides the window normalization exponent d (pass 2 for the
    fixed-power variant regardless of dimension).
    """
    x = as_matrix(data, "data")
    if not math.isfinite(graph.h):
        raise InfiniteWindow("density requires a finite window diameter h")
    if graph.data_hash and graph.data_hash != data_hash(x):
        raise ValueError("graph was not built from this data")
    d = x.shape[1]
    power = d if h_power is None else int(h_power)
    half = graph.h / 2.0
    log_norm = -(power * math.log(graph.h) + math.log(graph.k))
    try:
        norm = math.exp(log_norm)
    except OverflowError:
        norm = math.inf
    counts = np.empty(graph.n, dtype=np.float64)
    for i in range(graph.n):
        others = graph.candidate_dists[i][: graph.k - 1]
        counts[i] = 1 + int(np.sum(others <= half))
    return DensityEstimate(values=counts * norm, h=graph.h, k=graph.k,
                           window="rectangular", h_power=power, counts=counts)


def components(graph: NeighborGraph) -> ComponentSummary:
    """Connected-component summary: count, sizes descending, largest members."""
    labels = graph.component_id
    if graph.n == 0:
        return ComponentSummary(count=0, sizes=[], largest=np.array([], dtype=np.int64),
                                labels=labels.copy())
    count = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=count)
    order = np.argsort(-sizes, kind="stable")
    largest = np.where(labels == order[0])[0]
    return ComponentSummary(
        count=count,
        sizes=[int(s) for s in sizes[order]],
        largest=largest,
        labels=labels.copy(),
    )


def knn_edge_lengths(data, k: int) -> np.ndarray:
    """All n*k candidate edge lengths, sorted ascending (the h-selection pool)."""
    x = as_matrix(data, "data")
    _, cand_dist, _ = _knn_candidates(x, k)
    return np.sort(np.concatenate(cand_dist))


def h_from_percentile(data, k: int, percentile: float) -> float:
    """Window diameter at the given percentile of k-NN candidate edge lengths."""
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    return float(np.percentile(knn_edge_lengths(data, k), percentile))


def save_edge_list(graph: NeighborGraph, path) -> None:
    """Write the undirected edge list as sorted 'i j w' lines."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, j, w in graph.iter_edges():
            fh.write(f"{i} {j} {format(w, '.17g')}\n")
