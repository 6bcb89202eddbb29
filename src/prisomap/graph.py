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
    index, weights aligned). candidates/candidate_dists hold each vertex's
    pre-filter k nearest neighbors as (n, k) arrays, nearest first, for
    density estimation.
    """

    n: int
    k: int
    h: float
    neighbors: list[np.ndarray]
    weights: list[np.ndarray]
    component_id: np.ndarray
    candidates: np.ndarray | None = field(default=None, repr=False)
    candidate_dists: np.ndarray | None = field(default=None, repr=False)
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


def _knn_candidates(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors per row (self excluded), ties by lower index.

    Returns (n, k) candidate indices and their distances, nearest first.
    """
    n = data.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n={n}, got {k}")
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = pairwise_sq_dists(data[start:stop], data)
        local = np.arange(stop - start)
        d2[local, local + start] = np.inf
        sel = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = d2[local, sel[:, k - 1]]
        # where the k-th value is tied beyond the selection, the partition
        # picked arbitrary tied entries: take the lowest indices instead
        for row in np.flatnonzero(np.count_nonzero(d2 <= kth[:, None], axis=1) > k):
            pool = np.flatnonzero(d2[row] <= kth[row])
            sel[row] = pool[np.lexsort((pool, d2[row, pool]))][:k]
        sel_d2 = np.take_along_axis(d2, sel, axis=1)
        order = np.lexsort((sel, sel_d2), axis=-1)
        idx[start:stop] = np.take_along_axis(sel, order, axis=1)
        dist[start:stop] = np.sqrt(np.take_along_axis(sel_d2, order, axis=1))
    return idx, dist


def cap_candidates(cand_idx: np.ndarray, cand_dist: np.ndarray, h: float,
                   dhash: str) -> NeighborGraph:
    """The graph of a candidate set: edges of length in (0, h], union-symmetrized.

    An edge {i, j} with i < j takes row i's distance when row i proposes j
    within the cap, and row j's otherwise: distances computed in different
    row blocks can differ in the last bit, and this order fixes the bytes.
    """
    if not (h > 0):
        raise ValueError(f"h must be positive (or +inf), got {h}")
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n, k = cand_idx.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = cand_idx.ravel()
    w = cand_dist.ravel()
    keep = (w > 0.0) & (w <= h)
    rows, cols, w = rows[keep], cols[keep], w[keep]
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    # sort by pair, the lower row's proposal first, and keep each pair's first
    order = np.argsort((lo * n + hi) * 2 + (rows != lo))
    first = order[np.unique((lo * n + hi)[order], return_index=True)[1]]
    lo, hi, w = lo[first], hi[first], w[first]

    adjacency = coo_matrix((np.tile(w, 2), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
                           shape=(n, n)).tocsr()
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
        data_hash=dhash,
    )


def knn_candidates(data, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One exact k-NN candidate pass: (n, k) indices and distances, nearest first.

    Exact ties break by lower index. If more than n/2 zero-distance pairs
    exist a DegenerateDuplicatesWarning is issued; their edges never enter a
    graph (cap_candidates drops zero-length edges).
    """
    x = as_matrix(data, "data")
    n = x.shape[0]
    cand_idx, cand_dist = _knn_candidates(x, k)
    rows, cols = np.nonzero(cand_dist == 0.0)
    mates = cand_idx[rows, cols]
    zero_count = np.unique(np.minimum(rows, mates) * n + np.maximum(rows, mates)).size
    if zero_count > n / 2:
        warnings.warn(
            f"{zero_count} zero-distance pairs detected; their edges were dropped",
            DegenerateDuplicatesWarning,
            stacklevel=2,
        )
    return cand_idx, cand_dist


def knn_graph(data, k: int, h: float = math.inf) -> NeighborGraph:
    """Build the symmetrized k-NN graph with candidate edges capped at length h.

    Each vertex proposes its k nearest neighbors (knn_candidates); candidates
    longer than h are discarded and the survivors are symmetrized by union.
    Zero-distance edges are dropped.
    """
    x = as_matrix(data, "data")
    return cap_candidates(*knn_candidates(x, k), h, data_hash(x))


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
    others = np.asarray(graph.candidate_dists)[:, : graph.k - 1]
    counts = 1.0 + np.count_nonzero(others <= half, axis=1)
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


def percentile_h(lengths, percentile: float) -> float:
    """Window diameter at the given percentile of candidate edge lengths."""
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    return float(np.percentile(lengths, percentile))


def save_edge_list(graph: NeighborGraph, path) -> None:
    """Write the undirected edge list as sorted 'i j w' lines."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, j, w in graph.iter_edges():
            fh.write(f"{i} {j} {format(w, '.17g')}\n")
