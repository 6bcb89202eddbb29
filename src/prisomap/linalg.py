"""Dense symmetric matrix kernels shared by every embedding method.

Pairwise distances; double centering, which turns a squared-distance
matrix into an inner-product kernel in place; and a deterministic symmetric
eigensolver for its top pairs. embed.scaled_embedding turns those pairs into
coordinates, the last step of classical scaling. Every kernel takes and
returns plain float64 numpy arrays. Importing this module, as every import
of prisomap does, sets the process policy once, for the CLI and library
callers alike: BLAS on one thread (_pin_blas) and glibc's allocator
thresholds (_tune_malloc). Every n x n float64 buffer comes from _n2_buffer,
which refuses one that the memory available cannot hold.
"""

from __future__ import annotations

import ctypes
import importlib.util
import mmap
import os
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError

# Above this order the top eigenpairs always come from ARPACK, and its
# failure is a NumericError. Up to it ARPACK runs only when top is at most
# n / _ITERATIVE_ROWS_PER_PAIR, with the dense path as its fallback. The
# LAPACK subset solve tridiagonalizes and copies the whole matrix; on one
# BLAS thread, on geodesic kernels of n = 924 to 2,000, ARPACK is faster
# above n / top = 31, the two times overlap down to about 28, and ARPACK
# loses from about 27 down.
DENSE_EIG_LIMIT = 2048
_ITERATIVE_ROWS_PER_PAIR = 30
_ARPACK_TOL = 1e-10

_EIG_RESIDUAL_TOL = 1e-8

_TILE = 256  # rows per block, and side of a square tile
_CENTER_ROWS = 16  # rows per centering step: its r_i + r_j temporary is 16 x n floats


def _pin_blas() -> None:
    """Hold numpy's and scipy's bundled OpenBLAS to one thread over
    OPENBLAS_NUM_THREADS: at two, the Gram matrix, a kernel matvec, ARPACK
    and the LAPACK subset solve each give other bits. They are found in
    <package>.libs without importing scipy, whose modules then load the
    library pinned here; numpy's is the 64-bit integer build. Where none is
    found, none is pinned."""
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.origin:
            continue
        for path in Path(spec.origin).parents[1].glob(f"{package}.libs/libscipy_openblas*"):
            lib = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
                set_threads = getattr(lib, name, None)
                if set_threads is not None:
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    set_threads(1)


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _glibc(name: str):
    """glibc's function of that name in the running process, or None where
    it has none.

    CDLL(None) searches the symbols already loaded, so no library is looked
    up on disk (ctypes.util.find_library would start a subprocess)."""
    try:
        return getattr(ctypes.CDLL(None), name, None)
    except (OSError, TypeError):
        return None


def _tune_malloc() -> None:
    """Set glibc's allocator thresholds; without glibc this does nothing.

    The scoring and k-NN-vote loops allocate 128-row float64 temporaries of
    128 * m * 8 bytes (2 MiB at the dense limit, m = 2,048). Under glibc's
    dynamic thresholds each freed block is unmapped or trimmed off the heap,
    and the next one faults its pages in anew: about 21,000 minor faults per
    warm eval at m = 1,433. Setting either threshold turns the dynamic ones
    off. Below the 4 MiB mmap threshold those blocks come from the heap,
    while the n x n buffers stay mapped and go back to the OS when freed.
    16 MiB is the least trim threshold that keeps freed blocks in the heap
    at m = 2,048; more would hold idle memory. One arena makes the scoring
    threads allocate under the main arena's thresholds too (a warm sweep
    held 3.5 MiB more in arenas of their own). No value changes a result.
    """
    mallopt = _glibc("mallopt")
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 16 << 20)
        mallopt(_M_ARENA_MAX, 1)


_MALLOC_TRIM = _glibc("malloc_trim")


def _read_number(path: Path) -> int | None:
    """The integer a one-value kernel file holds; None for a file that is
    missing or unreadable, or holds cgroup v2's "max" (no limit)."""
    try:
        return int(path.read_text().strip())
    except (OSError, ValueError):
        return None


def _memory_stat(path: Path) -> dict[str, int]:
    """The counters of a cgroup's memory.stat by name; empty for a file
    that is missing or unreadable."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return {}
    stat = {}
    for line in lines:
        name, _, value = line.partition(" ")
        if value.strip().isdigit():
            stat[name] = int(value)
    return stat


def _available_memory(proc: Path = Path("/proc"),
                      cgroups: Path = Path("/sys/fs/cgroup")) -> int | None:
    """Bytes this process may still take, read-only: MemAvailable from
    meminfo, lowered at every level of its memory cgroup that sets a limit
    to that limit minus the level's working set. The levels run from the
    directory that /proc/self/cgroup names (or the hierarchy's root where
    that directory is not mounted) up to the root, so a limit set on a
    parent counts. A level's limit is v2's memory.max or v1's
    memory.limit_in_bytes, on v1 lowered to memory.stat's
    hierarchical_memory_limit, which also covers parents above the mount.
    Its working set is its usage (v2 memory.current, v1
    memory.usage_in_bytes) less the inactive file pages that the kernel
    reclaims before it refuses memory (memory.stat's inactive_file, v1
    total_inactive_file), as docker and the kubelet count it: a process
    that has read and written files has usage near its limit but can still
    allocate. v1's no-limit value, 9223372036854771712, lowers nothing.
    None when neither source can be read."""
    found = []
    try:
        for line in (proc / "meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                found.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        memberships = (proc / "self" / "cgroup").read_text().splitlines()
    except OSError:
        memberships = []
    for line in memberships:
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            root, v1 = cgroups, False
            files = ("memory.max", "memory.current", "inactive_file")
        elif "memory" in controllers.split(","):
            root, v1 = cgroups / "memory", True
            files = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")
        else:
            continue
        level = root / path.lstrip("/")
        if not level.is_dir():
            level = root
        while True:
            stat = _memory_stat(level / "memory.stat")
            limit, usage = (_read_number(level / name) for name in files[:2])
            above = stat.get("hierarchical_memory_limit") if v1 else None
            if above is not None:
                limit = above if limit is None else min(limit, above)
            if limit is not None and usage is not None:
                found.append(max(0, limit - max(0, usage - stat.get(files[2], 0))))
            if level == root:
                break
            level = level.parent
    return min(found) if found else None


def _require_memory(stage: str, estimate: int) -> None:
    """NumericError naming the stage, its estimated bytes and the memory
    available, unless the estimate fits (or nothing can be read)."""
    available = _available_memory()
    if available is not None and estimate > available:
        raise NumericError(f"{stage} needs an estimated {estimate / 2**20:.1f} MiB, "
                           f"but {available / 2**20:.1f} MiB of memory is available")


def _n2_buffer(stage: str, rows: int, cols: int, extra: int = 0,
               shared: bool = False) -> np.ndarray:
    """An uninitialized rows x cols float64 buffer for an n x n stage: the
    one place such a buffer comes from. The stage's estimate, the buffer
    plus its extra bytes of temporaries, must fit in _available_memory
    (NumericError otherwise, before anything is allocated). glibc's
    malloc_trim(0) then hands the heap's free pages back, so the new
    mapping does not sit on top of blocks the trim threshold keeps
    resident. shared gives an anonymous MAP_SHARED mapping, which forked
    workers write and the parent reads; otherwise np.empty, which
    tracemalloc sees."""
    nbytes = 8 * rows * cols
    _require_memory(stage, nbytes + extra)
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(ctypes.c_size_t(0))
    if shared:
        return np.frombuffer(mmap.mmap(-1, nbytes), np.float64).reshape(rows, cols)
    return np.empty((rows, cols))


def _cpus() -> int:
    """The CPUs of this process's affinity mask, 1 where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_pin_blas()
_tune_malloc()


def load_solvers() -> None:
    """Import the scipy modules symmetric_eig imports on first use."""
    for module in ("scipy.linalg", "scipy.sparse.linalg"):
        importlib.import_module(module)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def as_finite_matrix(data, name: str = "data") -> np.ndarray:
    """as_matrix, with an InputError naming the first cell that is not finite, or
    the largest magnitude when a squared distance between rows or a covariance
    sum, at most 4 * max(n, d) times its square, could overflow float64."""
    a = as_matrix(data, name)
    if not np.isfinite(a).all():
        row, col = np.argwhere(~np.isfinite(a))[0]
        raise InputError(f"{name} row {row}, column {col} (from 0) is {a[row, col]}")
    peak = max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0)))
    if not np.isfinite(4.0 * max(a.shape) * peak * peak):
        raise InputError(f"{name} holds a magnitude of {peak:g}, too large for its "
                         "squared distances in float64")
    return a


def require_square_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The float64 matrix, which must be square and exactly symmetric: every
    kernel the program builds is, so no tolerance is needed."""
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    # tile by tile, as a.T walks the whole matrix column-wise
    if not all(np.array_equal(a[rows, cols], a[cols, rows].T)
               for rows, cols in _mirrored_tiles(a.shape[0])):
        asym = float(np.max(np.abs(a - a.T)))
        raise NumericError(f"{name} is not symmetric: max|A - A^T| = {asym:.3e}")
    return a


def _mirrored_tiles(n: int):
    """(rows, cols) of the _TILE-wide tiles on and above the diagonal: entry
    [i, j] of a[rows, cols] mirrors entry [i, j] of a[cols, rows].T."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _distances(a, b, root: bool) -> np.ndarray:
    """The one pairwise kernel: one sweep of the Gram matrix a @ b.T, the only
    full-size buffer, turns each _TILE-row block in cache into aa + bb - 2 *
    gram, clamped at 0, with a zero self-mode diagonal and, with root, its
    square root. Self mode needs no symmetric average: numpy forms a @ a.T
    by syrk and mirrors its triangle, so every entry is exactly symmetric.
    The self-mode Gram matrix, the whole n x n, is written into an
    _n2_buffer."""
    a = as_matrix(a, "a")
    self_mode = b is None
    b = a if self_mode else as_matrix(b, "b")
    aa = np.einsum("ij,ij->i", a, a)
    bb = aa if self_mode else np.einsum("ij,ij->i", b, b)
    if self_mode:
        n = a.shape[0]
        d = np.matmul(a, a.T, out=_n2_buffer("pairwise distances", n, n,
                                             extra=8 * min(_TILE, n) * n))
    else:
        d = a @ b.T
    sums = np.empty((min(_TILE, d.shape[0]), d.shape[1]))
    for start in range(0, d.shape[0], _TILE):
        block = d[start:start + _TILE]
        row_sums = np.add(aa[start:start + _TILE, None], bb, out=sums[:block.shape[0]])
        block *= -2.0
        block += row_sums
        np.maximum(block, 0.0, out=block)
        if self_mode:
            local = np.arange(block.shape[0])
            block[local, local + start] = 0.0
        if root:
            np.sqrt(block, out=block)
    return d


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`; with
    b=None exactly symmetric with a zero diagonal."""
    return _distances(a, b, root=False)


def pairwise_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between rows; symmetric with zero diagonal for b=None."""
    return _distances(a, b, root=True)


def first_m(rows: np.ndarray, m: int, kth: np.ndarray | None = None) -> np.ndarray:
    """Mask of each row's first m entries in (value, index) order, for the
    k-NN candidates, T/C and the k-NN vote. kth is each row's m-th smallest
    value as a column, found by np.partition unless the caller has it from
    sorted rows; when more entries equal it than fit, the ones of lowest
    index are taken, as a stable sort would."""
    if kth is None:
        kth = np.partition(rows, m - 1, axis=1)[:, m - 1, None]
    chosen = rows <= kth
    extra = chosen.sum(axis=1) - m
    over = np.flatnonzero(extra)
    if over.size:
        ties = rows[over] == kth[over]
        from_right = np.cumsum(ties[:, ::-1], axis=1)[:, ::-1]
        chosen[over] &= ~(ties & (from_right <= extra[over, None]))
    return chosen


def double_center_in_place(d_sq: np.ndarray) -> np.ndarray:
    """Turn a squared-distance matrix into the centered kernel -1/2 * H D H,
    H = I - (1/n) 11^T, overwriting d_sq if it is a C-contiguous float64
    array (else a converted copy); callers use the returned array.

    With r the row means and g their mean, [i, j] becomes -0.5 * ((D[i, j] -
    (r[i] + r[j])) + g), _CENTER_ROWS rows at a time. D is exactly
    symmetric, so r holds its column means too, and r[i] + r[j], one rounded
    sum, is r[j] + r[i]: each entry rounds as its mirror does. Raises
    NumericError for asymmetric input, or for any non-finite entry (a
    component policy must resolve the unreachable sentinel), checked one
    _TILE-row slab at a time.
    """
    d = as_matrix(d_sq, "d_sq")
    if not all(np.isfinite(d[i:i + _TILE]).all() for i in range(0, d.shape[0], _TILE)):
        raise NumericError("squared-distance matrix contains unreachable entries")
    d = require_square_symmetric(d, "d_sq")
    r = d.mean(axis=1)
    g = float(r.mean())
    for i in range(0, d.shape[0], _CENTER_ROWS):
        rows = d[i:i + _CENTER_ROWS]
        rows -= r[i:i + _CENTER_ROWS, None] + r
        rows += g
        rows *= -0.5
    return d


@dataclass(frozen=True)
class EigenResult:
    """Top eigenpairs of a symmetric matrix, eigenvalues non-increasing.

    eigenvectors holds unit-norm columns; column j pairs with eigenvalues[j].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive.

    Ties in magnitude resolve to the lowest index (np.argmax convention).
    """
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def _stable_descending_order(eigenvalues: np.ndarray, vectors: np.ndarray) -> list[int]:
    """Indices sorting eigenvalues descending; exact ties ordered by the
    lexicographically smaller eigenvector."""
    order = []
    for _, tied in groupby(np.argsort(-eigenvalues, kind="stable"), key=eigenvalues.__getitem__):
        tied = list(tied)
        # a key holds a whole column, so only a group of ties builds keys
        order += sorted(tied, key=lambda c: tuple(vectors[:, c])) if len(tied) > 1 else tied
    return order


def _arpack_eig(a_sym: np.ndarray, top: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """ARPACK's top pairs from a fixed start vector, ascending.

    Up to DENSE_EIG_LIMIT one extra pair is requested, and (None, None) is
    returned when ARPACK fails (it does not converge, or, on an all-zero
    matrix, finds its start vector in the null space) or that pair lies
    within the solver tolerance of the top-th: the caller then solves
    densely, where the tie rule sees every tied vector. Above the limit a
    failure is a NumericError.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    n = a_sym.shape[0]
    dense_fallback = n <= DENSE_EIG_LIMIT
    # a fixed start vector makes ARPACK, and so the output bytes, repeat
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    k = top + 1 if dense_fallback else top
    try:
        w, v = eigsh(a_sym, k=k, which="LA", tol=_ARPACK_TOL, maxiter=10 * n, v0=v0)
    except ArpackError as exc:
        if dense_fallback:
            return None, None
        if isinstance(exc, ArpackNoConvergence):
            raise NumericError(f"iterative eigensolver exhausted {10 * n} iterations") from exc
        raise NumericError(f"iterative eigensolver failed: {exc}") from exc
    if dense_fallback and w[1] - w[0] <= _ARPACK_TOL * max(1.0, abs(float(w[-1]))):
        return None, None
    return w, v


def symmetric_eig(a, top: int, _rank: int | None = None) -> EigenResult:
    """Top eigenpairs of an exactly symmetric matrix, descending, deterministic.

    ARPACK extracts the top pairs from a fixed start vector when top < n and
    either n > DENSE_EIG_LIMIT or top is at most n / _ITERATIVE_ROWS_PER_PAIR.
    Below the limit it asks for one pair more, and the dense path takes over
    if ARPACK fails or that pair is within the solver tolerance of the
    top-th (a tie across the cut, or a rank-deficient request). _rank, which
    only classical_mds passes, bounds the matrix's rank: below the limit a
    top above it goes to the dense path without asking ARPACK, whose extra
    pair would tie at zero. The dense path is a LAPACK subset solve, or the
    full decomposition when top == n or a tie straddles the cut; its
    estimate, a copy of the matrix and top + 1 vectors, must fit in the
    memory available (NumericError otherwise). Each path is deterministic,
    so repeated runs give identical bytes. Sign convention: the
    largest-magnitude entry of every eigenvector is positive.
    """
    a_sym = require_square_symmetric(a, "a")
    n = a_sym.shape[0]
    if not 1 <= top <= n:
        raise ValueError(f"top must be in [1, {n}], got {top}")

    w = None
    if top < n and (n > DENSE_EIG_LIMIT or (_ITERATIVE_ROWS_PER_PAIR * top <= n
                                            and (_rank is None or top <= _rank))):
        w, v = _arpack_eig(a_sym, top)
    if w is None:
        _require_memory("dense eigensolve", 8 * n * (n + top + 1))
        try:
            if top < n:
                import scipy.linalg

                # one pair beyond the cut shows whether a tie straddles it;
                # then only the full spectrum lets the tie rule see every
                # tied vector
                w, v = scipy.linalg.eigh(a_sym, subset_by_index=[n - top - 1, n - 1])
            if top == n or w[0] == w[1]:
                w, v = np.linalg.eigh(a_sym)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"dense symmetric eigensolver failed: {exc}") from exc

    v = _normalize_signs(v)
    order = _stable_descending_order(w, v)[:top]
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])

    scale = max(1.0, float(np.linalg.norm(a_sym)))
    residual = float(np.max(np.linalg.norm(a_sym @ v - v * w[None, :], axis=0)))
    if residual > _EIG_RESIDUAL_TOL * scale:
        raise NumericError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {_EIG_RESIDUAL_TOL * scale:.3e}"
        )
    return EigenResult(eigenvalues=w, eigenvectors=v)
