"""All-pairs shortest-path distances over the capped neighbor graph.

scipy's csgraph Dijkstra over the graph's CSR view provides the production
path. A pure-Python per-source Dijkstra (smallest-predecessor tie rule) and a
cubic Floyd-Warshall relaxation remain as the independent references used in
tests. Unreachable pairs carry the UNREACHABLE sentinel (+inf in memory, a
quiet NaN in the serialized block) so no arithmetic can silently mix them
with real path lengths.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from .errors import BadMagic, NumericError, TooLarge, TruncatedFile
from .graph import NeighborGraph

UNREACHABLE = math.inf

_FW_LIMIT = 500
_MAGIC = b"PRGM"
_VERSION = 1


@dataclass
class GeodesicMatrix:
    """Symmetric matrix of shortest-path lengths with unreachable sentinels."""

    values: np.ndarray
    finite_fraction: float
    fingerprint: dict

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def is_fully_connected(self) -> bool:
        return self.finite_fraction == 1.0


def dijkstra_from(graph: NeighborGraph, source: int):
    """Single-source shortest paths; returns (distances, parents).

    The reference implementation for tests. Unreached vertices get
    UNREACHABLE and parent -1. When several shortest paths tie, the parent is
    the smallest predecessor index; heap ties pop the smaller vertex first,
    so output is deterministic.
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


def _exactly_symmetric(adjacency) -> bool:
    """Whether a CSR matrix equals its transpose, stored pattern and weights alike."""
    adjacency.sort_indices()
    # the transpose comes back from its CSC form with sorted indices
    transpose = adjacency.T.tocsr()
    return all(np.array_equal(getattr(adjacency, part), getattr(transpose, part))
               for part in ("indptr", "indices", "data"))


def all_pairs(graph: NeighborGraph) -> GeodesicMatrix:
    """All-pairs shortest paths: scipy csgraph Dijkstra over the CSR view.

    The CSR view holds every edge in both directions with one weight, so it
    is walked as a directed graph, which spares csgraph the transpose and
    the second neighbor walk of its undirected mode.

    Raises NumericError if the CSR view is not exactly symmetric (pattern
    and weights), if an edge exceeds the cap h, if reachability is
    asymmetric, or if forward and reverse path lengths differ by more than
    1e-12 of the distance scale; the returned matrix is exactly symmetric.
    """
    from scipy.sparse.csgraph import dijkstra

    adjacency = graph.csr()
    if not _exactly_symmetric(adjacency):
        raise NumericError("adjacency must hold each edge in both directions with one weight")
    longest = float(adjacency.data.max(initial=0.0))
    if longest > graph.h:
        raise NumericError(f"edge weight {longest} exceeds cap h={graph.h}")
    out = dijkstra(adjacency, directed=True)

    finite = np.isfinite(out)
    if not np.array_equal(finite, finite.T):
        raise NumericError("reachability must be symmetric")
    # forward/reverse path sums differ only by summation order, so any
    # asymmetry beyond rounding at the distance scale is a bug
    scale = max(1.0, float(np.max(out, where=finite, initial=0.0)))
    with np.errstate(invalid="ignore"):
        diff = out - out.T
    asym = float(np.max(np.abs(diff, out=diff), where=finite, initial=0.0))
    del diff
    if asym > 1e-12 * scale:
        raise NumericError(f"asymmetry {asym} exceeds 1e-12 * {scale}")

    return GeodesicMatrix(
        values=np.minimum(out, out.T),
        finite_fraction=float(finite.mean()) if graph.n else 1.0,
        fingerprint=graph.fingerprint(),
    )


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


# -- serialization -------------------------------------------------------------


def save_geodesics(gm: GeodesicMatrix, path) -> None:
    """Write the binary block: header, fingerprint JSON, row-major float64.

    Unreachable entries are encoded as quiet NaN. The block is written to a
    temporary file in the same directory and renamed into place.
    """
    fp = json.dumps(gm.fingerprint, sort_keys=True).encode("utf-8")
    body = gm.values.copy()
    body[~np.isfinite(body)] = np.nan
    path = Path(path)
    # a reader never sees a partial block: write aside, then rename over
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIdI", _VERSION, gm.n, gm.finite_fraction, len(fp)))
            fh.write(fp)
            fh.write(body.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_geodesics(path) -> GeodesicMatrix:
    """Read a block written by save_geodesics, restoring inf sentinels."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _MAGIC:
        raise BadMagic(f"{path}: not a geodesic block")
    header_size = 4 + struct.calcsize("<IIdI")
    if len(raw) < header_size:
        raise TruncatedFile(f"{path}: header incomplete")
    version, n, finite_fraction, fp_len = struct.unpack("<IIdI", raw[4:header_size])
    if version != _VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    fp_end = header_size + fp_len
    body_end = fp_end + n * n * 8
    if len(raw) < body_end:
        raise TruncatedFile(f"{path}: expected {body_end} bytes, got {len(raw)}")
    try:
        fingerprint = json.loads(raw[header_size:fp_end].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise BadMagic(f"{path}: unreadable fingerprint ({exc})") from exc
    values = np.frombuffer(raw[fp_end:body_end], dtype="<f8").reshape(n, n).copy()
    values[np.isnan(values)] = math.inf
    return GeodesicMatrix(values=values, finite_fraction=finite_fraction,
                          fingerprint=fingerprint)


def cached_geodesics(fingerprint: dict, build_graph: Callable[[], NeighborGraph],
                     cache_dir=None) -> tuple[GeodesicMatrix, bool, float]:
    """The all-pairs matrix of the graph with this fingerprint, cached in cache_dir.

    On a miss, all_pairs(build_graph()) is computed and written back; an
    unreadable or mismatched entry is noted on stderr and counts as a miss.
    Returns (matrix, cache_hit, seconds spent computing).
    """
    path = None
    if cache_dir:
        cache = Path(cache_dir)
        cache.mkdir(parents=True, exist_ok=True)
        key = f"{fingerprint['data_hash']}:{fingerprint['k']}:{fingerprint['h']!r}"
        path = cache / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.geo"
        if path.exists():
            try:
                geo = load_geodesics(path)
            except (BadMagic, TruncatedFile) as exc:
                print(f"cache: {exc}; recomputing", file=sys.stderr)
            else:
                if geo.fingerprint == fingerprint:
                    return geo, True, 0.0
                print(f"cache: {path}: fingerprint mismatch; recomputing", file=sys.stderr)
    t0 = time.perf_counter()
    geo = all_pairs(build_graph())
    seconds = time.perf_counter() - t0
    if path is not None:
        save_geodesics(geo, path)
    return geo, False, seconds
