"""All-pairs shortest-path distances over the capped neighbor graph.

scipy's csgraph Dijkstra over the graph's CSR adjacency computes them; the
tests keep independent references. Unreachable pairs carry the UNREACHABLE
sentinel (+inf in memory, a quiet NaN in the serialized block) so no
arithmetic can silently mix them with real path lengths. The cache keeps
these blocks and, next to them, spectral entries: the top eigenpairs of a
block's centered kernel.
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
from .linalg import EigenResult, _mirrored_tiles

UNREACHABLE = math.inf

_MAGIC = b"PRGM"
_SPECTRAL_MAGIC = b"PRGS"
_VERSION = 1
_IO_ROWS = 256  # rows of a geodesic block written at a time


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


# -- serialization and the cache ------------------------------------------------
#
# An entry of either kind is a magic, a little-endian header (format version,
# the kind's own fields, fingerprint length), the fingerprint JSON and a body
# of little-endian arrays.


@dataclass
class SpectralEntry:
    """The top eigenpairs of one geodesic matrix's centered kernel, after the
    component policy kept kept_indices of its n_input vertices."""

    kept_indices: np.ndarray
    n_input: int
    eigenpairs: EigenResult
    fingerprint: dict


def _write_entry(path, magic: bytes, fields: bytes, fingerprint: dict, body) -> None:
    """Write an entry whose body is the arrays body yields, converted to
    little-endian as they come, to a temporary file in the same directory
    that is then renamed into place."""
    fp = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    path = Path(path)
    # a reader never sees a partial entry: write aside, then rename over
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(magic + struct.pack("<I", _VERSION) + fields + struct.pack("<I", len(fp)))
            fh.write(fp)
            for array in body:
                fh.write(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_header(fh, path, magic: bytes, fields: str, body_bytes) -> tuple[tuple, dict]:
    """The kind's header fields and the fingerprint of an entry, leaving fh at
    its body; the file must hold the body_bytes(*fields) bytes that follow."""
    layout = "<I" + fields + "I"
    header_size = 4 + struct.calcsize(layout)
    head = fh.read(header_size)
    if head[:4] != magic:
        raise BadMagic(f"{path}: magic {head[:4]!r}, expected {magic!r}")
    if len(head) < header_size:
        raise TruncatedFile(f"{path}: header incomplete")
    version, *values, fp_len = struct.unpack(layout, head[4:])
    if version != _VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    body_end = header_size + fp_len + body_bytes(*values)
    size = os.fstat(fh.fileno()).st_size
    if size < body_end:
        raise TruncatedFile(f"{path}: expected {body_end} bytes, got {size}")
    try:
        fingerprint = json.loads(fh.read(fp_len).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise BadMagic(f"{path}: unreadable fingerprint ({exc})") from exc
    return tuple(values), fingerprint


def _read_array(fh, path, shape, dtype: str) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    got = fh.readinto(out)
    if got != out.nbytes:
        raise TruncatedFile(f"{path}: body ended after {got} of {out.nbytes} bytes")
    return out


def _geodesic_rows(gm: GeodesicMatrix):
    for start in range(0, gm.n, _IO_ROWS):
        body = gm.values[start:start + _IO_ROWS].astype("<f8", order="C")
        body[~np.isfinite(body)] = np.nan
        yield body


def save_geodesics(gm: GeodesicMatrix, path) -> None:
    """Write the binary block: header, fingerprint JSON, row-major float64.

    Unreachable entries are encoded as quiet NaN. The body is converted and
    written a block of rows at a time, and renamed into place when complete.
    """
    _write_entry(path, _MAGIC, struct.pack("<Id", gm.n, gm.finite_fraction),
                 gm.fingerprint, _geodesic_rows(gm))


def load_geodesics(path) -> GeodesicMatrix:
    """Read a block written by save_geodesics into one matrix, restoring inf sentinels."""
    path = Path(path)
    with path.open("rb") as fh:
        (n, finite_fraction), fingerprint = _read_header(
            fh, path, _MAGIC, "Id", lambda n, _: n * n * 8)
        values = _read_array(fh, path, (n, n), "<f8")
    values[np.isnan(values)] = math.inf
    return GeodesicMatrix(values=values, finite_fraction=finite_fraction,
                          fingerprint=fingerprint)


def save_spectrum(entry: SpectralEntry, path) -> None:
    """Write a spectral entry: header (n_input, kept count, pair count),
    fingerprint JSON, then the kept indices, eigenvalues and row-major
    eigenvectors."""
    eig = entry.eigenpairs
    m, top = eig.eigenvectors.shape
    _write_entry(path, _SPECTRAL_MAGIC, struct.pack("<III", entry.n_input, m, top),
                 entry.fingerprint, (entry.kept_indices, eig.eigenvalues, eig.eigenvectors))


def load_spectrum(path) -> SpectralEntry:
    """Read an entry written by save_spectrum."""
    path = Path(path)
    with path.open("rb") as fh:
        (n_input, m, top), fingerprint = _read_header(
            fh, path, _SPECTRAL_MAGIC, "III", lambda n, m, top: 8 * (m + top + m * top))
        kept = _read_array(fh, path, m, "<i8")
        eigenvalues = _read_array(fh, path, top, "<f8")
        eigenvectors = _read_array(fh, path, (m, top), "<f8")
    return SpectralEntry(kept, n_input, EigenResult(eigenvalues, eigenvectors), fingerprint)


def cache_lookup(cache_dir, fingerprint: dict, suffix: str, load) -> tuple[Path | None, object]:
    """(path, entry): where the entry with this fingerprint lives in cache_dir,
    and load(path) when that file holds it, else None.

    The file name hashes the fingerprint's values in order, floats by repr.
    An unreadable or mismatched entry is noted on stderr and counts as a
    miss. path is None without a cache_dir.
    """
    if not cache_dir:
        return None, None
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    key = ":".join(repr(v) if isinstance(v, float) else str(v) for v in fingerprint.values())
    path = cache / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}{suffix}"
    if path.exists():
        try:
            entry = load(path)
        except (BadMagic, TruncatedFile) as exc:
            print(f"cache: {exc}; recomputing", file=sys.stderr)
        else:
            if entry.fingerprint == fingerprint:
                return path, entry
            print(f"cache: {path}: fingerprint mismatch; recomputing", file=sys.stderr)
    return path, None


def cached_geodesics(fingerprint: dict, build_graph: Callable[[], NeighborGraph],
                     cache_dir=None) -> tuple[GeodesicMatrix, bool, float]:
    """The all-pairs matrix of the graph with this fingerprint (data_hash, k,
    h in that order), cached in cache_dir.

    On a miss, all_pairs(build_graph()) is computed and written back.
    Returns (matrix, cache_hit, seconds spent computing).
    """
    path, geo = cache_lookup(cache_dir, fingerprint, ".geo", load_geodesics)
    if geo is not None:
        return geo, True, 0.0
    t0 = time.perf_counter()
    geo = all_pairs(build_graph())
    seconds = time.perf_counter() - t0
    if path is not None:
        save_geodesics(geo, path)
    return geo, False, seconds
