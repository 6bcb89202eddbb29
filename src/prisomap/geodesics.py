"""All-pairs shortest-path distances over the capped neighbor graph.

scipy's csgraph Dijkstra over the graph's CSR adjacency computes them; the
tests keep independent references. Unreachable pairs carry the UNREACHABLE
sentinel (+inf in memory, a quiet NaN in the serialized block) so no
arithmetic can silently mix them with real path lengths.
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
from pathlib import Path

import numpy as np

from .errors import BadMagic, NumericError, TruncatedFile
from .graph import NeighborGraph
from .linalg import _mirrored_tiles

UNREACHABLE = math.inf

_MAGIC = b"PRGM"
_VERSION = 1
_IO_ROWS = 256  # rows of the body written at a time


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


def _exactly_symmetric(adjacency) -> bool:
    """Whether a CSR matrix equals its transpose, stored pattern and weights alike."""
    adjacency.sort_indices()
    # the transpose comes back from its CSC form with sorted indices
    transpose = adjacency.T.tocsr()
    return all(np.array_equal(getattr(adjacency, part), getattr(transpose, part))
               for part in ("indptr", "indices", "data"))


def all_pairs(graph: NeighborGraph) -> GeodesicMatrix:
    """All-pairs shortest paths: scipy csgraph Dijkstra over the CSR adjacency.

    The adjacency holds every edge in both directions with one weight, so it
    is walked as a directed graph, which spares csgraph the transpose and
    the second neighbor walk of its undirected mode. Dijkstra's result is
    the only n x n buffer: the checks and the symmetric minimum run on it in
    place, one pair of mirrored tiles at a time.

    Raises NumericError if the adjacency is not exactly symmetric (pattern
    and weights), if an edge exceeds the cap h, if reachability is
    asymmetric, or if forward and reverse path lengths differ by more than
    1e-12 of the distance scale; the returned matrix is exactly symmetric.
    """
    from scipy.sparse.csgraph import dijkstra

    adjacency = graph.adjacency
    if not _exactly_symmetric(adjacency):
        raise NumericError("adjacency must hold each edge in both directions with one weight")
    longest = float(adjacency.data.max(initial=0.0))
    if longest > graph.h:
        raise NumericError(f"edge weight {longest} exceeds cap h={graph.h}")
    out = dijkstra(adjacency, directed=True)

    finite_count = 0
    scale = asym = 0.0
    for rows, cols in _mirrored_tiles(graph.n):
        block, mirror = out[rows, cols], out[cols, rows].T
        finite = np.isfinite(block)
        if not np.array_equal(finite, np.isfinite(mirror)):
            raise NumericError("reachability must be symmetric")
        finite_count += int(np.count_nonzero(finite)) * (1 if rows == cols else 2)
        scale = max(scale, float(np.max(block, where=finite, initial=0.0)),
                    float(np.max(mirror, where=finite, initial=0.0)))
        with np.errstate(invalid="ignore"):
            diff = block - mirror
        asym = max(asym, float(np.max(np.abs(diff, out=diff), where=finite, initial=0.0)))
        np.minimum(block, mirror, out=block)
        mirror[...] = block
    # forward/reverse path sums differ only by summation order, so any
    # asymmetry beyond rounding at the distance scale is a bug
    scale = max(1.0, scale)
    if asym > 1e-12 * scale:
        raise NumericError(f"asymmetry {asym} exceeds 1e-12 * {scale}")

    return GeodesicMatrix(
        values=out,
        finite_fraction=finite_count / graph.n**2 if graph.n else 1.0,
        fingerprint=graph.fingerprint(),
    )


# -- serialization -------------------------------------------------------------


def save_geodesics(gm: GeodesicMatrix, path) -> None:
    """Write the binary block: header, fingerprint JSON, row-major float64.

    Unreachable entries are encoded as quiet NaN. The body is converted and
    written a block of rows at a time, to a temporary file in the same
    directory that is then renamed into place.
    """
    fp = json.dumps(gm.fingerprint, sort_keys=True).encode("utf-8")
    path = Path(path)
    # a reader never sees a partial block: write aside, then rename over
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIdI", _VERSION, gm.n, gm.finite_fraction, len(fp)))
            fh.write(fp)
            for start in range(0, gm.n, _IO_ROWS):
                body = gm.values[start:start + _IO_ROWS].astype("<f8", order="C")
                body[~np.isfinite(body)] = np.nan
                fh.write(body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_geodesics(path) -> GeodesicMatrix:
    """Read a block written by save_geodesics into one matrix, restoring inf sentinels."""
    path = Path(path)
    header_size = 4 + struct.calcsize("<IIdI")
    with path.open("rb") as fh:
        head = fh.read(header_size)
        if head[:4] != _MAGIC:
            raise BadMagic(f"{path}: not a geodesic block")
        if len(head) < header_size:
            raise TruncatedFile(f"{path}: header incomplete")
        version, n, finite_fraction, fp_len = struct.unpack("<IIdI", head[4:])
        if version != _VERSION:
            raise BadMagic(f"{path}: unsupported version {version}")
        body_end = header_size + fp_len + n * n * 8
        size = os.fstat(fh.fileno()).st_size
        if size < body_end:
            raise TruncatedFile(f"{path}: expected {body_end} bytes, got {size}")
        try:
            fingerprint = json.loads(fh.read(fp_len).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise BadMagic(f"{path}: unreadable fingerprint ({exc})") from exc
        values = np.empty((n, n), dtype="<f8")
        got = fh.readinto(values)
    if got != values.nbytes:
        raise TruncatedFile(f"{path}: body ended after {got} of {values.nbytes} bytes")
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
