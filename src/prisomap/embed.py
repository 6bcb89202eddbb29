"""Dimensionality-reduction methods sharing the dense linear-algebra core.

pr_isomap caps neighbor edges at window diameter h before estimating
geodesics; isomap is its h=+inf special case. classical_mds and pca give the
flat baselines. All methods are pure functions of (data bytes, parameters)
and return an Embedding whose coordinate columns are ordered by descending
eigenvalue.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraph, GraphTooFragmented
from .geodesics import GeodesicMatrix, all_pairs
from .graph import knn_graph
from .linalg import (as_matrix, double_center_in_place, mds_coordinates, pairwise_sq_dists,
                     symmetric_eig)

ERROR_POLICY = "error"
LARGEST_COMPONENT_POLICY = "largest_component"
DEFAULT_FRAGMENT_THRESHOLD = 0.5


@dataclass
class Embedding:
    """Low-dimensional coordinates plus the spectrum that produced them.

    kept_indices maps embedding rows back to input rows; it is the full
    range unless the component policy dropped vertices, in which case
    component_policy_applied is set and kept_indices is exactly the largest
    connected component.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    clamped_count: int
    method: dict
    kept_indices: np.ndarray
    component_policy_applied: bool
    n_input: int
    spectrum: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.coordinates.shape[1]


def _component_labels(values: np.ndarray) -> np.ndarray:
    """Component labels from the finite structure of a distance matrix."""
    n = values.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for i in range(n):
        if labels[i] < 0:
            members = np.isfinite(values[i])
            labels[members] = next_label
            next_label += 1
    return labels


def _sizes(labels: np.ndarray) -> list[int]:
    return sorted((int(c) for c in np.bincount(labels)), reverse=True)


def apply_component_policy(geo: GeodesicMatrix, policy: str):
    """Resolve unreachable pairs before embedding.

    ERROR_POLICY refuses any disconnection; LARGEST_COMPONENT_POLICY
    restricts the matrix to the largest component. Returns
    (restricted GeodesicMatrix, kept vertex indices).
    """
    labels = None if geo.is_fully_connected() else _component_labels(geo.values)
    return _restrict(geo, policy, labels)


def _restrict(geo: GeodesicMatrix, policy: str, labels: np.ndarray | None):
    """apply_component_policy given the component labels (None when connected)."""
    if policy not in (ERROR_POLICY, LARGEST_COMPONENT_POLICY):
        raise ValueError(f"unknown component policy {policy!r}")
    if labels is None:
        return geo, np.arange(geo.n, dtype=np.int64)
    if policy == ERROR_POLICY:
        sizes = _sizes(labels)
        raise DisconnectedGraph(
            f"graph has {len(sizes)} components (sizes {sizes[:8]}); "
            "use the largest_component policy or loosen k/h",
            summary=sizes,
        )
    counts = np.bincount(labels)
    kept = np.where(labels == int(np.argmax(counts)))[0]
    sub = np.ascontiguousarray(geo.values[np.ix_(kept, kept)])
    restricted = GeodesicMatrix(values=sub, finite_fraction=1.0, fingerprint=geo.fingerprint)
    return restricted, kept


def embed_geodesics(
    geo: GeodesicMatrix,
    p: int,
    method: dict,
    component_policy: str = ERROR_POLICY,
    fragment_threshold: float = DEFAULT_FRAGMENT_THRESHOLD,
    spectrum: int = 0,
) -> Embedding:
    """Classical scaling of a geodesic matrix after resolving disconnection.

    Raises GraphTooFragmented when the largest component holds less than
    fragment_threshold of the points. The seam between geodesic computation
    and scaling lets callers cache the expensive matrix; geo is left
    unchanged.
    """
    n = geo.n
    if not 1 <= p < n:
        raise ValueError(f"p must satisfy 1 <= p < n={n}, got {p}")
    labels = None
    if not geo.is_fully_connected():
        labels = _component_labels(geo.values)
        sizes = _sizes(labels)
        if sizes[0] < fragment_threshold * n:
            raise GraphTooFragmented(
                f"largest component holds {sizes[0]}/{n} points "
                f"(< {fragment_threshold:.0%}); lower k/h expectations explicitly",
                summary=sizes,
            )
    restricted, kept = _restrict(geo, component_policy, labels)
    if restricted is geo:
        # geo.values is shared (the cache writes it, a caller may score
        # against it), so the squares take the one new n x n buffer
        d_sq = np.square(geo.values)
    else:
        d_sq = np.square(restricted.values, out=restricted.values)
    res = mds_coordinates(double_center_in_place(d_sq), p, extra_spectrum=spectrum)
    return Embedding(
        coordinates=res.coordinates,
        eigenvalues=res.eigenvalues,
        clamped_count=res.clamped_count,
        method=dict(method),
        kept_indices=kept,
        component_policy_applied=bool(kept.size != n),
        n_input=n,
        spectrum=res.spectrum if spectrum else None,
    )


def pr_isomap(
    data,
    k: int,
    h: float,
    p: int,
    component_policy: str = ERROR_POLICY,
    fragment_threshold: float = DEFAULT_FRAGMENT_THRESHOLD,
    spectrum: int = 0,
) -> Embedding:
    """Isometric mapping over the h-capped neighbor graph.

    Pipeline: capped k-NN graph -> all-pairs shortest paths -> component
    policy -> squared distances -> double centering -> classical scaling.
    """
    geo = all_pairs(knn_graph(as_matrix(data, "data"), k, h))
    method = {"method": "pr-isomap", "k": int(k), "h": float(h), "p": int(p),
              "component_policy": component_policy}
    return embed_geodesics(geo, p, method, component_policy, fragment_threshold, spectrum)


def isomap(
    data,
    k: int,
    p: int,
    component_policy: str = ERROR_POLICY,
    fragment_threshold: float = DEFAULT_FRAGMENT_THRESHOLD,
    spectrum: int = 0,
) -> Embedding:
    """Standard isometric mapping: the h=+inf case of pr_isomap."""
    emb = pr_isomap(data, k, math.inf, p, component_policy, fragment_threshold, spectrum)
    emb.method = {"method": "isomap", "k": int(k), "p": int(p),
                  "component_policy": component_policy}
    return emb


def classical_mds(data, p: int, spectrum: int = 0) -> Embedding:
    """Classical scaling of exact pairwise Euclidean distances."""
    x = as_matrix(data, "data")
    n = x.shape[0]
    if not 1 <= p < n:
        raise ValueError(f"p must satisfy 1 <= p < n={n}, got {p}")
    res = mds_coordinates(double_center_in_place(pairwise_sq_dists(x)), p,
                          extra_spectrum=spectrum)
    return Embedding(
        coordinates=res.coordinates,
        eigenvalues=res.eigenvalues,
        clamped_count=res.clamped_count,
        method={"method": "mds", "p": int(p)},
        kept_indices=np.arange(n, dtype=np.int64),
        component_policy_applied=False,
        n_input=n,
        spectrum=res.spectrum if spectrum else None,
    )


def pca(data, p: int, spectrum: int = 0) -> Embedding:
    """Projection onto the top-p covariance eigenvectors (population 1/n)."""
    x = as_matrix(data, "data")
    n, d = x.shape
    limit = min(n - 1, d)
    if not 1 <= p <= limit:
        raise ValueError(f"p must satisfy 1 <= p <= min(n-1, d) = {limit}, got {p}")
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


def json_safe(value):
    """Replace non-finite floats with strings so descriptors stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(float(v)) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return json_safe(float(value))
    return value


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
    """One row per kept vertex: original index then the p coordinates."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("index," + ",".join(f"c{j}" for j in range(emb.p)) + "\n")
        for row, idx in enumerate(emb.kept_indices):
            cells = ",".join(format(v, ".17g") for v in emb.coordinates[row])
            fh.write(f"{int(idx)},{cells}\n")


def save_embedding_json(emb: Embedding, path, extra: dict | None = None) -> None:
    payload = embedding_descriptor(emb, extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_embedding_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (kept_indices, coordinates) from a CSV written by save_embedding_csv."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "index":
            raise ValueError(f"{path}: not an embedding CSV (header {header})")
        idx: list[int] = []
        rows: list[list[float]] = []
        for line in fh:
            if not line.strip():
                continue
            cells = line.strip().split(",")
            idx.append(int(cells[0]))
            rows.append([float(c) for c in cells[1:]])
    return np.array(idx, dtype=np.int64), np.array(rows, dtype=np.float64)
