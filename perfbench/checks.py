"""Output checks and quality scores, computed with the benchmark's own code.

Nothing here imports prisomap: a change to ``prisomap.evaluate`` or to the
geodesic path cannot grade itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

M = 10  # trustworthiness neighbourhood, as `prisomap eval` defaults to


# -- byte comparison -------------------------------------------------------------


def _blank_timings(node, inside: bool = False) -> int:
    """Null every number under a "timings" key, in place; return how many."""
    count = 0
    if isinstance(node, dict):
        for key, value in node.items():
            if inside and isinstance(value, (int, float)) and not isinstance(value, bool):
                node[key] = None
                count += 1
            else:
                count += _blank_timings(value, inside or key == "timings")
    elif isinstance(node, list):
        for item in node:
            count += _blank_timings(item, inside)
    return count


def normalized_digest(path: Path) -> tuple[str, int]:
    """SHA-256 of a file with its wall-clock fields blanked, and their count.

    Wall-clock fields are numbers under a JSON "timings" key and cells of a
    CSV column whose name ends in "_seconds". They differ between identical
    runs, so the byte comparison skips them; the count is reported.
    """
    raw = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(raw)
        count = _blank_timings(payload)
        if count:
            raw = json.dumps(payload, indent=2, sort_keys=True).encode()
    elif path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        timed = [i for i, name in enumerate(rows[0]) if name.endswith("_seconds")] if rows else []
        count = sum(1 for row in rows[1:] for i in timed if row[i] != "")
        if timed:
            for row in rows[1:]:
                for i in timed:
                    row[i] = ""
            raw = "\n".join(",".join(r) for r in rows).encode()
    else:
        count = 0
    return hashlib.sha256(raw).hexdigest(), count


def embedding_rows_match(csv_path: Path) -> bool:
    """The embedding CSV holds exactly n_kept rows, as its descriptor says."""
    desc = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    with csv_path.open(encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    return rows == desc["n_kept"]


# -- quality against the chart ---------------------------------------------------


def load_embedding(path: Path) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0].astype(np.int64), table[:, 1:]


def unrolled_chart(intrinsic_csv: Path) -> np.ndarray:
    """Swiss-roll (t, u) to the isometric (arc length, height) chart."""
    tu = np.loadtxt(intrinsic_csv, delimiter=",", skiprows=1, ndmin=2)
    t = tu[:, 0]
    arc = 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))
    return np.column_stack([arc, tu[:, 1]])


def distances(x: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def stress1(d_ref: np.ndarray, d_emb: np.ndarray) -> float:
    """Kruskal stress-1 over pairs i < j: sqrt(sum (a - b)^2 / sum a^2)."""
    iu = np.triu_indices(d_ref.shape[0], k=1)
    a, b = d_ref[iu], d_emb[iu]
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(a * a)))


def _neighbour_order(d: np.ndarray) -> np.ndarray:
    """Each row's other points by (distance, index): a stable sort breaks ties."""
    d = d.copy()
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :-1]


def trustworthiness(d_ref: np.ndarray, d_emb: np.ndarray, m: int = M) -> float:
    """Venna-Kaski trustworthiness at neighbourhood size m, ties by index."""
    n = d_ref.shape[0]
    rows = np.arange(n)[:, None]
    rank = np.zeros((n, n), dtype=np.int64)
    rank[rows, _neighbour_order(d_ref)] = np.arange(1, n)[None, :]
    ranks = rank[rows, _neighbour_order(d_emb)[:, :m]]
    penalty = float(np.sum(np.maximum(ranks - m, 0)))
    return 1.0 - 2.0 / (n * m * (2.0 * n - 3.0 * m - 1.0)) * penalty


def quality(emb_csv: Path, chart: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(stress-1, trustworthiness, kept indices) of an embedding vs the chart."""
    kept, coords = load_embedding(emb_csv)
    d_ref = distances(chart[kept])
    d_emb = distances(coords)
    return stress1(d_ref, d_emb), trustworthiness(d_ref, d_emb), kept


# -- reference PR-Isomap ---------------------------------------------------------


def reference_embeddings(x: np.ndarray, k: int, grid) -> dict:
    """PR-Isomap written from the paper with scipy's csgraph, for each (h_pct, p).

    k nearest neighbours (ties by index, self excluded), h at the h_pct
    percentile of their lengths, candidates longer than h and zero-length
    ones dropped, union symmetrisation, the largest component, shortest
    paths, classical scaling of the top p eigenpairs. Returns
    {(h_pct, p): (coordinates, kept indices, share of candidates longer than h)}.
    """
    # imported here so that scipy's libraries stay out of the timed process's
    # memory until its peak RSS has been read
    from scipy.linalg import eigh
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    n = x.shape[0]
    d = distances(x)
    np.fill_diagonal(d, np.inf)
    nn = np.argsort(d, axis=1, kind="stable")[:, :k]
    w = np.take_along_axis(d, nn, axis=1)
    del d
    out = {}
    for h_pct in sorted({h for h, _ in grid}):
        h = float(np.percentile(w, h_pct))
        keep = (w > 0.0) & (w <= h)
        rows = np.repeat(np.arange(n), k)[keep.ravel()]
        graph = csr_matrix((w[keep], (rows, nn[keep])), shape=(n, n))
        graph = graph.maximum(graph.T)
        _, labels = connected_components(graph, directed=False)
        kept = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        sq = dijkstra(graph[kept][:, kept], directed=False) ** 2
        kernel = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
        m = kept.size
        top = max(p for hh, p in grid if hh == h_pct)
        lam, vec = eigh(kernel, subset_by_index=[m - top, m - 1])
        coords = vec[:, ::-1] * np.sqrt(np.maximum(lam[::-1], 0.0))[None, :]
        for hh, p in grid:
            if hh == h_pct:
                out[(hh, p)] = (coords[:, :p], kept, float(np.mean(w > h)))
    return out
