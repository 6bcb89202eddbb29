"""Dense symmetric matrix kernels shared by every embedding method.

Pairwise distances; double centering, which turns a squared-distance
matrix into an inner-product kernel in place; and a deterministic symmetric
eigensolver for its top pairs. embed.scaled_embedding turns those pairs into
coordinates, the last step of classical scaling. Every kernel takes and
returns plain float64 numpy arrays. Importing this module, as every import
of prisomap does, sets the process policy once, for the CLI and library
callers alike: BLAS on one thread (_pin_blas) and glibc's allocator
thresholds (_tune_malloc).
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError

# Above this order the top eigenpairs always come from ARPACK, and a failure
# to converge is a NumericError. Up to it ARPACK runs only when top is
# at most n / _ITERATIVE_ROWS_PER_PAIR (where it beats the LAPACK subset
# solve, which tridiagonalizes the whole matrix), with the dense path as its
# fallback.
DENSE_EIG_LIMIT = 2048
_ITERATIVE_ROWS_PER_PAIR = 100
_ARPACK_TOL = 1e-10

_EIG_RESIDUAL_TOL = 1e-8

_TILE = 256  # rows per block, and side of a square tile


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


def _mallopt():
    """glibc's mallopt in the running process, or None where it has none.

    CDLL(None) searches the symbols already loaded, so no library is looked
    up on disk (ctypes.util.find_library would start a subprocess)."""
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
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
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 16 << 20)
        mallopt(_M_ARENA_MAX, 1)


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
    if not np.array_equal(a, a.T):
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
    by syrk and mirrors its triangle, so every entry is exactly symmetric."""
    a = as_matrix(a, "a")
    self_mode = b is None
    b = a if self_mode else as_matrix(b, "b")
    aa = np.einsum("ij,ij->i", a, a)
    bb = aa if self_mode else np.einsum("ij,ij->i", b, b)
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
    (r[i] + r[j])) + g), one _TILE-square tile at a time. D is exactly
    symmetric, so r holds its column means too, and r[i] + r[j], one rounded
    sum, is r[j] + r[i]: each entry rounds as its mirror does. Raises
    NumericError for asymmetric input, or for any non-finite entry (a
    component policy must resolve the unreachable sentinel).
    """
    d = as_matrix(d_sq, "d_sq")
    if not np.all(np.isfinite(d)):
        raise NumericError("squared-distance matrix contains unreachable entries")
    d = require_square_symmetric(d, "d_sq")
    r = d.mean(axis=1)
    g = float(r.mean())
    for i in range(0, d.shape[0], _TILE):
        for j in range(0, d.shape[0], _TILE):
            tile = d[i:i + _TILE, j:j + _TILE]
            tile -= r[i:i + _TILE, None] + r[j:j + _TILE]
            tile += g
            tile *= -0.5
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
    returned when ARPACK does not converge or that pair lies within the
    solver tolerance of the top-th: the caller then solves densely, where
    the tie rule sees every tied vector.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = a_sym.shape[0]
    dense_fallback = n <= DENSE_EIG_LIMIT
    # a fixed start vector makes ARPACK, and so the output bytes, repeat
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    k = top + 1 if dense_fallback else top
    try:
        w, v = eigsh(a_sym, k=k, which="LA", tol=_ARPACK_TOL, maxiter=10 * n, v0=v0)
    except ArpackNoConvergence as exc:
        if dense_fallback:
            return None, None
        raise NumericError(f"iterative eigensolver exhausted {10 * n} iterations") from exc
    if dense_fallback and w[1] - w[0] <= _ARPACK_TOL * max(1.0, abs(float(w[-1]))):
        return None, None
    return w, v


def symmetric_eig(a, top: int) -> EigenResult:
    """Top eigenpairs of an exactly symmetric matrix, descending, deterministic.

    ARPACK extracts the top pairs from a fixed start vector when top < n and
    either n > DENSE_EIG_LIMIT or top is at most n / _ITERATIVE_ROWS_PER_PAIR.
    Below the limit it asks for one pair more, and the dense path takes over
    if ARPACK does not converge or that pair is within the solver tolerance
    of the top-th (a tie across the cut, or a rank-deficient request). The
    dense path is a LAPACK subset solve, or the full decomposition when
    top == n or a tie straddles the cut. Each path is deterministic, so
    repeated runs give identical bytes. Sign convention: the
    largest-magnitude entry of every eigenvector is positive.
    """
    a_sym = require_square_symmetric(a, "a")
    n = a_sym.shape[0]
    if not 1 <= top <= n:
        raise ValueError(f"top must be in [1, {n}], got {top}")

    w = None
    if top < n and (n > DENSE_EIG_LIMIT or _ITERATIVE_ROWS_PER_PAIR * top <= n):
        w, v = _arpack_eig(a_sym, top)
    if w is None:
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
