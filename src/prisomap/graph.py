"""Capped k-nearest-neighbor graph construction and the window density diagnostic.

The graph connects each point to its k nearest neighbors, discards every
candidate edge longer than the window diameter h, and symmetrizes by union
into a NeighborGraph: h and the CSR adjacency. The rectangular-window density
over the same candidates' distances serves as a sampling-uniformity diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDuplicatesWarning, InfiniteWindow, InputError
from .linalg import as_finite_matrix, first_m, pairwise_sq_dists

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

_BLOCK_ROWS = 512


@dataclass
class NeighborGraph:
    """Symmetrized weighted k-NN graph with a hard cap h on edge lengths.

    adjacency is the n x n scipy CSR matrix holding each edge in both
    directions with one weight, column indices sorted within each row.
    """

    h: float
    adjacency: csr_matrix

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


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
        raise InputError(f"k must satisfy 1 <= k < n={n}, got {k}")
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = pairwise_sq_dists(data[start:stop], data)
        local = np.arange(stop - start)
        d2[local, local + start] = np.inf
        sel = np.flatnonzero(first_m(d2, k)).reshape(-1, k) % n
        sel_d2 = np.take_along_axis(d2, sel, axis=1)
        order = np.lexsort((sel, sel_d2), axis=-1)
        idx[start:stop] = np.take_along_axis(sel, order, axis=1)
        dist[start:stop] = np.sqrt(np.take_along_axis(sel_d2, order, axis=1))
    return idx, dist


def cap_candidates(cand_idx: np.ndarray, cand_dist: np.ndarray, h: float) -> NeighborGraph:
    """The graph of a candidate set: edges of length in (0, h], union-symmetrized.

    An edge {i, j} with i < j takes row i's distance when row i proposes j
    within the cap, and row j's otherwise: distances computed in different
    row blocks can differ in the last bit, and this order fixes the bytes.
    """
    if not (h > 0):
        raise InputError(f"h must be positive (or +inf), got {h}")
    from scipy.sparse import coo_matrix

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
    return NeighborGraph(h=float(h), adjacency=adjacency)


def knn_candidates(data, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One exact k-NN candidate pass: (n, k) indices and distances, nearest first.

    Exact ties break by lower index. If more than n/2 zero-distance pairs
    exist a DegenerateDuplicatesWarning is issued; their edges never enter a
    graph (cap_candidates drops zero-length edges). Raises InputError for
    data that is not finite.
    """
    x = as_finite_matrix(data)
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
    return cap_candidates(*knn_candidates(data, k), h)


def pr_density(cand_dist: np.ndarray, h: float) -> np.ndarray:
    """Rectangular-window occupancy of each point, as float64: of its k nearest
    points, itself included, how many lie within h/2 of it. cand_dist holds
    the (n, k) candidate distances of a knn_candidates pass, nearest first.
    The density count / (k * h**d) differs by a constant that the uniformity
    CV cancels, and that under- or overflows float64 at a large ambient d."""
    if not math.isfinite(h):
        raise InfiniteWindow("density requires a finite window diameter h")
    others = cand_dist[:, : cand_dist.shape[1] - 1]
    return 1.0 + np.count_nonzero(others <= h / 2.0, axis=1)


def components(graph: NeighborGraph) -> ComponentSummary:
    """Connected-component summary: count, sizes descending, largest members.

    Components are numbered by their smallest member, so of equal largest
    components the one holding the lowest vertex is `largest`.
    """
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(graph.adjacency, directed=False)
    labels = labels.astype(np.int64)
    sizes = np.bincount(labels, minlength=count)
    order = np.argsort(-sizes, kind="stable")
    return ComponentSummary(
        count=count,
        sizes=[int(s) for s in sizes[order]],
        largest=np.where(labels == order[0])[0],
        labels=labels,
    )


def percentile_h(lengths, percentile: float) -> float:
    """Window diameter at the given percentile of candidate edge lengths;
    InputError where that is 0, at candidates that join repeated points."""
    if not 0 < percentile <= 100:
        raise InputError(f"percentile must be in (0, 100], got {percentile}")
    h = float(np.percentile(lengths, percentile))
    if h == 0:
        raise InputError(f"percentile {percentile} of the candidate edge lengths is 0: "
                         f"{np.count_nonzero(lengths == 0)} of {np.size(lengths)} candidates "
                         f"join repeated points; give a higher percentile or an absolute h")
    return h
