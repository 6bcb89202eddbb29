"""All-pairs shortest-path distances over the capped neighbor graph, and the
cache of their kernels' eigenpairs.

scipy's csgraph Dijkstra over the graph's CSR adjacency computes them; the
tests keep independent references. Unreachable pairs carry the UNREACHABLE
sentinel (+inf) so no arithmetic can silently mix them with real path
lengths. The cache keeps spectral entries: the top eigenpairs of the
centered kernel of a graph's geodesics after the component policy, with the
window h the graph was capped at.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import signal
import sys
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError
from .graph import NeighborGraph
from .linalg import EigenResult, _mirrored_tiles

UNREACHABLE = math.inf

_VERSION = 5  # of the spectral entry format

_CHUNK = 128  # source rows per Dijkstra call when the rows are split
# source rows x vertices below which forking costs more than it saves: on
# 2 CPUs, in a 130 MiB process, two workers broke even between 160,000 and
# 250,000 and were 1.05-1.43x faster at 250,000
_PARALLEL_WORK = 250_000


def _exactly_symmetric(adjacency) -> bool:
    """Whether a CSR matrix equals its transpose, stored pattern and weights alike."""
    adjacency.sort_indices()
    # the transpose comes back from its CSC form with sorted indices
    transpose = adjacency.T.tocsr()
    return all(np.array_equal(getattr(adjacency, part), getattr(transpose, part))
               for part in ("indptr", "indices", "data"))


def _worker_count(rows: int, n: int) -> int:
    """Processes that run Dijkstra from rows sources over n vertices: one
    per CPU this process may use (its affinity mask), at most one per chunk
    of rows, and 1 below the crossover or where fork or the mask is missing."""
    if (rows * n < _PARALLEL_WORK or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), -(-rows // _CHUNK))


def _shared_buffer(rows: int, n: int) -> np.ndarray:
    """A rows x n float64 array in an anonymous MAP_SHARED mapping, which
    forked workers write and the parent reads."""
    return np.frombuffer(mmap.mmap(-1, rows * n * 8), np.float64).reshape(rows, n)


def _dijkstra(adjacency, sources: np.ndarray | None) -> np.ndarray:
    """csgraph Dijkstra's rows from sources (every vertex for None).

    Past the crossover the rows are split into _worker_count contiguous
    blocks, run _CHUNK rows per call: the parent runs the first block and
    one forked worker each of the others, all writing one shared buffer.
    Every row is computed alone, so the bytes do not depend on the worker
    count. Each worker exits without returning here; the parent reaps it,
    or kills and reaps it when the call stops early, so none outlives the
    call. Raises NumericError when a worker fails.
    """
    from scipy.sparse.csgraph import dijkstra

    n = adjacency.shape[0]
    rows = n if sources is None else sources.size
    workers = _worker_count(rows, n)
    if workers == 1:
        return dijkstra(adjacency, directed=True, indices=sources)
    sources = np.arange(n) if sources is None else sources
    out = _shared_buffer(rows, n)

    def run(block):
        lo, hi = rows * block // workers, rows * (block + 1) // workers
        for start in range(lo, hi, _CHUNK):
            chunk = slice(start, min(start + _CHUNK, hi))
            out[chunk] = dijkstra(adjacency, directed=True, indices=sources[chunk])

    pids = []
    try:
        for block in range(1, workers):
            status = 1
            pid = os.fork()
            if pid == 0:  # a worker: its block, then exit, whatever happens
                try:
                    run(block)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        run(0)
        while pids:
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
            if status != 0:
                how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                raise NumericError(f"a Dijkstra worker failed ({how})")
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def all_pairs(graph: NeighborGraph, indices: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest paths, a float64 matrix with the UNREACHABLE
    sentinel: scipy csgraph Dijkstra over the CSR adjacency.

    The adjacency holds every edge in both directions with one weight, so it
    is walked as a directed graph, which spares csgraph the transpose and
    the second neighbor walk of its undirected mode. From _PARALLEL_WORK
    source rows x vertices on, Dijkstra runs in as many processes as the
    affinity mask has CPUs, the parent and forked workers, that write one
    shared buffer (see _dijkstra); the bytes are those of one process, and
    no worker outlives the call. Dijkstra's result is the only n x n
    buffer: the checks and the symmetric minimum run on it in place, one
    pair of mirrored tiles at a time. With indices, Dijkstra runs from those
    m vertices alone, and the checks and the minimum run on the m x m block
    among them, which is the result.

    Raises NumericError if the adjacency is not exactly symmetric (pattern
    and weights), if an edge exceeds the cap h, if a Dijkstra worker fails,
    if reachability is asymmetric, or if forward and reverse path lengths
    differ by more than 1e-12 of the distance scale; the returned matrix is
    exactly symmetric.
    """
    adjacency = graph.adjacency
    if not _exactly_symmetric(adjacency):
        raise NumericError("adjacency must hold each edge in both directions with one weight")
    longest = float(adjacency.data.max(initial=0.0))
    if longest > graph.h:
        raise NumericError(f"edge weight {longest} exceeds cap h={graph.h}")
    out = _dijkstra(adjacency, indices)
    if indices is not None:
        out = out[:, indices]

    scale = asym = 0.0
    for rows, cols in _mirrored_tiles(out.shape[0]):
        block, mirror = out[rows, cols], out[cols, rows].T
        finite = np.isfinite(block)
        if not np.array_equal(finite, np.isfinite(mirror)):
            raise NumericError("reachability must be symmetric")
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
    return out


# -- the spectral cache ---------------------------------------------------------


@dataclass
class SpectralEntry:
    """The top eigenpairs of one graph's centered geodesic kernel, after the
    component policy kept kept_indices of its n_input vertices; h is the
    window the graph was capped at, which the fingerprint may give only as
    a percentile."""

    kept_indices: np.ndarray
    n_input: int
    eigenpairs: EigenResult
    fingerprint: dict
    h: float


def save_spectrum(entry: SpectralEntry, path) -> None:
    """Write a spectral entry as an uncompressed .npz archive, which keeps a
    CRC-32 per member: kept, eigenvalues, eigenvectors, and meta, a 0-d string
    of the JSON of the format version, n_input, fingerprint and h. It goes to
    a temporary file in the same directory, renamed into place, so a reader
    never sees a partial entry."""
    eig = entry.eigenpairs
    meta = json.dumps({"version": _VERSION, "n_input": entry.n_input,
                       "fingerprint": entry.fingerprint, "h": entry.h}, sort_keys=True)
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, kept=entry.kept_indices, eigenvalues=eig.eigenvalues,
                     eigenvectors=eig.eigenvectors, meta=np.array(meta))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_spectrum(path) -> SpectralEntry:
    """Read an entry written by save_spectrum; raise InputError for anything else:
    no .npz archive, a member missing, cut short or failing its CRC-32, another
    format version, a non-numeric h, or a member of another dtype or shape."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(archive["meta"].item())
            kept, eigenvalues, eigenvectors = (archive[name] for name in
                                               ("kept", "eigenvalues", "eigenvectors"))
        version, n_input, fingerprint, h = (meta[key] for key in
                                            ("version", "n_input", "fingerprint", "h"))
    # np.load: ValueError for a non-archive, EOFError for an empty file; zipfile:
    # BadZipFile for a cut file or a CRC-32 mismatch, NotImplementedError,
    # RuntimeError or OSError for other bad fields; TypeError for a bare .npy
    except (EOFError, KeyError, NotImplementedError, OSError, RuntimeError, TypeError,
            ValueError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable spectral entry ({exc})") from exc
    if version != _VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    if isinstance(h, bool) or not isinstance(h, (int, float)):
        raise InputError(f"{path}: window h {h!r} is not a number")
    if (type(n_input) is not int or kept.dtype != np.int64 or kept.ndim != 1
            or eigenvalues.dtype != np.float64 or eigenvalues.ndim != 1
            or eigenvectors.dtype != np.float64
            or eigenvectors.shape != (kept.size, eigenvalues.size)):
        raise InputError(f"{path}: n_input or a member of another type or shape")
    return SpectralEntry(kept, n_input, EigenResult(eigenvalues, eigenvectors), fingerprint, h)


def cache_lookup(cache_dir, fingerprint: dict) -> tuple[Path | None, SpectralEntry | None]:
    """(path, entry): where the spectral entry with this fingerprint lives in
    cache_dir, and the entry when that file holds it, else None.

    The file name hashes the fingerprint's names and values (by repr) in
    order.
    An unreadable or mismatched entry is noted on stderr and counts as a
    miss. path is None without a cache_dir.
    """
    if not cache_dir:
        return None, None
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    key = ":".join(f"{name}={v!r}" for name, v in fingerprint.items())
    path = cache / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.eig"
    if path.exists():
        try:
            entry = load_spectrum(path)
        except InputError as exc:
            print(f"cache: {exc}; recomputing", file=sys.stderr)
        else:
            if entry.fingerprint == fingerprint:
                return path, entry
            print(f"cache: {path}: fingerprint mismatch; recomputing", file=sys.stderr)
    return path, None
