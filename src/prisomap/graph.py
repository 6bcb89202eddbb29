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

from .errors import DegenerateDuplicatesWarning, InputError
from .linalg import as_finite_matrix, first_m, pairwise_sq_dists

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

_BLOCK_ROWS = 512
_LENGTH_CELLS = 2**15  # per candidate-length step: rows x d in 256 KiB, which stays in cache


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

    Returns (n, k) candidate indices and their distances, nearest first: each
    block's Gram expansion chooses and orders them, and each length is then
    measured from the coordinates, so both ends of a pair get the same bits.
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
        order = np.lexsort((sel, np.take_along_axis(d2, sel, axis=1)), axis=-1)
        idx[start:stop] = np.take_along_axis(sel, order, axis=1)
    step = max(1, _LENGTH_CELLS // max(data.shape[1], 1))
    diff = np.empty((min(step, n), data.shape[1]))
    for start in range(0, n, step):
        rows, part = slice(start, start + step), diff[:min(step, n - start)]
        for col in range(k):
            # clip: every index is valid, and take then writes out unbuffered
            np.take(data, idx[rows, col], axis=0, out=part, mode="clip")
            np.subtract(part, data[rows], out=part)
            np.add.reduce(np.square(part, out=part), axis=1, out=dist[rows, col])
    return idx, np.sqrt(dist, out=dist)


def cap_candidates(cand_idx: np.ndarray, cand_dist: np.ndarray, h: float) -> NeighborGraph:
    """The graph of a candidate set: edges of length in (0, h], symmetrized by
    union. Both ends of a pair measure the same length, so the union is the
    elementwise maximum of the proposals and their transpose."""
    if not (h > 0):
        raise InputError(f"h must be positive (or +inf), got {h}")
    from scipy.sparse import csr_matrix

    n = cand_idx.shape[0]
    keep = (cand_dist > 0.0) & (cand_dist <= h)
    # built in canonical form, so the maximum's indices come out sorted in each row
    proposed = csr_matrix((cand_dist[keep], (np.nonzero(keep)[0], cand_idx[keep])), shape=(n, n))
    return NeighborGraph(h=float(h), adjacency=proposed.maximum(proposed.T))


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
    """The k-NN graph capped at h: cap_candidates of one knn_candidates pass."""
    return cap_candidates(*knn_candidates(data, k), h)


def pr_density(cand_dist: np.ndarray, h: float) -> np.ndarray:
    """Rectangular-window occupancy of each point, as float64: of its k nearest
    points, itself included, how many lie within h/2 of it. cand_dist holds
    the (n, k) candidate distances of a knn_candidates pass, nearest first.
    The density count / (k * h**d) differs by a constant that the uniformity
    CV cancels, and that under- or overflows float64 at a large ambient d."""
    if not math.isfinite(h):
        raise InputError("density requires a finite window diameter h")
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
