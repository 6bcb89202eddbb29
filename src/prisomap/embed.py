"""Dimensionality-reduction methods sharing the dense linear-algebra core.

embed_geodesics applies the component policy to a neighbor graph and embeds
the kept vertices' geodesics by classical scaling; the graph methods
pr_isomap and isomap (in bench, beside the method dispatch) end in it.
classical_mds and pca give the flat baselines. All methods are pure
functions of (data bytes, parameters) and return an Embedding whose
coordinate columns are ordered by descending eigenvalue.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geodesics
from .datasets import json_safe, save_csv
from .errors import GraphError, InputError, RankDeficientWarning
from .graph import NeighborGraph, components
from .linalg import (EigenResult, as_finite_matrix, as_matrix, double_center_in_place,
                     pairwise_sq_dists, symmetric_eig)

ERROR_POLICY = "error"
LARGEST_COMPONENT_POLICY = "largest_component"
FRAGMENT_THRESHOLD = 0.5  # least share of the points the largest component must hold
_RANK_RTOL = 1e-12  # eigenvalues at most this share of the leading one give zero columns


@dataclass
class Embedding:
    """Low-dimensional coordinates plus the spectrum that produced them.

    eigenvalues are the raw top p (negatives visible, zero past the pairs
    solved); the coordinates scale by sqrt(max(eigenvalue, 0)), and
    clamped_count tells how many of the top p were negative. kept_indices
    maps embedding rows back to input rows; it is the full range unless the
    component policy dropped vertices, in which case
    component_policy_applied is set and kept_indices is exactly the largest
    connected component. eigenpairs are the top pairs of the kept vertices'
    centered kernel that classical scaling solved (None for pca); spectrum
    holds all their eigenvalues when a spectrum was asked for.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    clamped_count: int
    method: dict
    kept_indices: np.ndarray
    component_policy_applied: bool
    n_input: int
    spectrum: np.ndarray | None = None
    eigenpairs: EigenResult | None = None

    @property
    def p(self) -> int:
        return self.coordinates.shape[1]


def _require_p(p: int, n: int, spectrum: int = 0, d: int | None = None) -> None:
    """InputError unless 1 <= p < n, p <= d (pca's feature count) and spectrum >= 0."""
    if not 1 <= p < n:
        raise InputError(f"p must satisfy 1 <= p < n={n}, got {p}")
    if d is not None and p > d:
        raise InputError(f"p must satisfy p <= d={d}, got {p}")
    if spectrum < 0:
        raise InputError(f"spectrum must be >= 0, got {spectrum}")


def scaled_embedding(eig: EigenResult, p: int, method: dict, kept: np.ndarray, n: int,
                     spectrum: int) -> Embedding:
    """The embedding classical scaling gives from the top eigenpairs of the
    kept vertices' centered kernel, out of n input points: row i holds
    (sqrt(l_1) v_1i, ..., sqrt(l_p) v_pi).

    It solves nothing, so it alone turns eigenpairs, solved or cached, into
    an embedding. Negative eigenvalues (the kernel of a non-Euclidean
    distance matrix is indefinite) are clamped to zero and counted. If fewer
    than p eigenvalues exceed 1e-12 * l_1 the remaining columns are zero and
    a RankDeficientWarning is issued. The spectrum, when asked for, holds
    every eigenvalue of eig. Its callers check p and spectrum first.
    """
    lam = eig.eigenvalues[:p]
    clamped = np.maximum(lam, 0.0)
    coords = np.zeros((eig.eigenvectors.shape[0], p), dtype=np.float64)
    coords[:, : lam.size] = eig.eigenvectors[:, : lam.size] * np.sqrt(clamped)[None, :]

    lead = float(clamped[0]) if lam.size else 0.0
    usable = int(np.sum(clamped > _RANK_RTOL * lead)) if lead > 0.0 else 0
    if usable < p:
        warnings.warn(f"kernel supports only {usable} of {p} requested dimensions; "
                      "remaining coordinates are zero", RankDeficientWarning)

    eigenvalues = np.zeros(p, dtype=np.float64)
    eigenvalues[: lam.size] = lam
    return Embedding(
        coordinates=coords,
        eigenvalues=eigenvalues,
        clamped_count=int(np.sum(lam < 0.0)),
        method=method,
        kept_indices=kept,
        component_policy_applied=bool(kept.size != n),
        n_input=n,
        spectrum=eig.eigenvalues if spectrum else None,
        eigenpairs=eig,
    )


def _scaled(d_sq: np.ndarray, p: int, method: dict, kept: np.ndarray, n: int,
            spectrum: int, rank: int | None = None) -> Embedding:
    """Classical scaling of squared distances, which are centered in place;
    rank bounds the kernel's rank where the caller knows it."""
    eig = symmetric_eig(double_center_in_place(d_sq), top=min(kept.size, max(p, spectrum)),
                        _rank=rank)
    return scaled_embedding(eig, p, method, kept, n, spectrum)


def embed_geodesics(
    graph: NeighborGraph,
    p: int,
    method: dict,
    component_policy: str = ERROR_POLICY,
    spectrum: int = 0,
) -> Embedding:
    """Classical scaling of a graph's geodesics after resolving disconnection.

    The policy runs on the graph's components before any geodesic exists:
    ERROR_POLICY refuses any disconnection with a GraphError;
    LARGEST_COMPONENT_POLICY embeds only the largest component, the one
    holding the lowest vertex among equal largest ones. Raises a
    GraphError when the largest component holds less than
    FRAGMENT_THRESHOLD of the points. All-pairs then runs over the kept
    vertices' submatrix; nothing else holds the m x m matrix it returns, so
    it is squared and centered in place, and symmetric_eig solves its top
    min(m, max(p, spectrum)) pairs. The Embedding goes out with its
    kept_indices and eigenpairs, from which scaled_embedding rebuilds it at
    any p whose max(p, spectrum) is the same; run_method checks p first.
    """
    n = graph.n
    if component_policy not in (ERROR_POLICY, LARGEST_COMPONENT_POLICY):
        raise ValueError(f"unknown component policy {component_policy!r}")
    kept = np.arange(n, dtype=np.int64)
    summary = components(graph)
    if summary.count > 1:
        sizes = summary.sizes
        if sizes[0] < FRAGMENT_THRESHOLD * n:
            raise GraphError(
                f"largest component holds {sizes[0]}/{n} points "
                f"(< {FRAGMENT_THRESHOLD:.0%}); lower k/h expectations explicitly",
                summary=sizes,
            )
        if component_policy == ERROR_POLICY:
            raise GraphError(
                f"graph has {len(sizes)} components (sizes {sizes[:8]}); "
                "use the largest_component policy or loosen k/h",
                summary=sizes,
            )
        kept = summary.largest
        graph = NeighborGraph(h=graph.h, adjacency=graph.adjacency[kept][:, kept])
    d_sq = geodesics.all_pairs(graph)
    np.square(d_sq, out=d_sq)
    return _scaled(d_sq, p, dict(method), kept, n, spectrum)


def classical_mds(data, p: int, spectrum: int = 0) -> Embedding:
    """Classical scaling of exact pairwise Euclidean distances. The kernel of
    d-column data has rank at most d, so a request for more pairs goes
    straight to the dense eigensolver (see symmetric_eig)."""
    x = as_matrix(data, "data")
    n, d = x.shape
    _require_p(p, n, spectrum)
    return _scaled(pairwise_sq_dists(x), p, {"method": "mds", "p": int(p)},
                   np.arange(n, dtype=np.int64), n, spectrum, rank=d)


def pca(data, p: int, spectrum: int = 0) -> Embedding:
    """Projection onto the top-p covariance eigenvectors (population 1/n)."""
    x = as_matrix(data, "data")
    n, d = x.shape
    _require_p(p, n, spectrum, d)
    xc = x - x.mean(axis=0, keepdims=True)
    cov = (xc.T @ xc) / n
    top = min(d, max(p, spectrum)) if spectrum else p
    eig = symmetric_eig(cov, top=top)
    lam = eig.eigenvalues[:p]
    coords = xc @ eig.eigenvectors[:, :p]
    return Embedding(
        coordinates=coords,
        eigenvalues=lam.copy(),
        clamped_count=int(np.sum(lam < 0)),
        method={"method": "pca", "p": int(p)},
        kept_indices=np.arange(n, dtype=np.int64),
        component_policy_applied=False,
        n_input=n,
        spectrum=eig.eigenvalues.copy() if spectrum else None,
    )


def elbow(eigenvalues) -> int:
    """Suggested target dimension: largest second difference of the spectrum.

    A heuristic over the descending eigenvalue curve; returns a 1-based
    dimension count. Needs at least three eigenvalues.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size < 3:
        raise ValueError("elbow needs at least 3 eigenvalues")
    second = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
    return int(np.argmax(second)) + 1


# -- serialization -------------------------------------------------------------


def embedding_descriptor(emb: Embedding, extra: dict | None = None) -> dict:
    desc = {
        "schema": "embedding/1",
        "method": emb.method,
        "n_input": emb.n_input,
        "n_kept": int(emb.kept_indices.size),
        "eigenvalues": emb.eigenvalues,
        "clamped_count": emb.clamped_count,
        "component_policy_applied": emb.component_policy_applied,
        "kept_indices": emb.kept_indices if emb.component_policy_applied else None,
    }
    if emb.spectrum is not None:
        desc["spectrum"] = emb.spectrum
        if emb.spectrum.size >= 3:
            desc["elbow_p"] = elbow(emb.spectrum)
    if extra:
        desc.update(extra)
    return json_safe(desc)


def save_embedding_csv(emb: Embedding, path) -> None:
    """One row per kept vertex: original index then the p coordinates. An
    index below 2**53 is exact in float64, and its %.17g text is its %d text."""
    save_csv(path, np.column_stack((emb.kept_indices, emb.coordinates)),
             ["index"] + [f"c{j}" for j in range(emb.p)])


def load_embedding_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (kept_indices, coordinates) from a CSV written by save_embedding_csv:
    an int64 index >= 0 then one finite float per header column after it on
    every row; InputError names a coordinate that is not finite."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    header = head.strip().split(",")
    if header[0] != "index" or len(header) < 2:
        raise InputError(f"{path}: not an embedding CSV (header {header})")
    if not body.strip():
        raise InputError(f"{path}: embedding CSV holds no rows")
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                           dtype=[("index", "<i8"), ("coords", "<f8", (len(header) - 1,))])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if table["index"].min() < 0:
        raise InputError(f"{path}: negative index {table['index'].min()}")
    return (np.ascontiguousarray(table["index"]),
            as_finite_matrix(table["coords"], f"{path}: coordinates"))
