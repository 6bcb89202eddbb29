"""Dense symmetric matrix kernels shared by every embedding method.

Double centering turns a squared-distance matrix into an inner-product
kernel; a deterministic symmetric eigensolver and the kernel-to-coordinates
step complete the classical scaling chain. All functions are pure and
operate on plain float64 numpy arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonSymmetricInput, RankDeficientWarning, SentinelPresent

# Above this order the top eigenpairs always come from ARPACK, and a failure
# to converge is a ConvergenceFailure. Up to it ARPACK runs only when top is
# at most n / _ITERATIVE_ROWS_PER_PAIR (where it beats the LAPACK subset
# solve, which tridiagonalizes the whole matrix), with the dense path as its
# fallback.
DENSE_EIG_LIMIT = 2048
_ITERATIVE_ROWS_PER_PAIR = 100
_ARPACK_TOL = 1e-10

_EIG_RESIDUAL_TOL = 1e-8
_SYMMETRY_RTOL = 1e-9
_RANK_RTOL = 1e-12

_TILE = 256  # rows per block, and side of the tiles where a matrix meets its transpose


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def require_square_symmetric(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, bool]:
    """Validate shape and symmetry (relative to the Frobenius norm).

    Returns the float64 matrix and whether it is exactly symmetric; only
    inexact input pays for the tolerance check's float64 temporaries.
    """
    a = as_matrix(a, name)
    n, m = a.shape
    if n != m:
        raise ValueError(f"{name} must be square, got {a.shape}")
    if np.array_equal(a, a.T):
        return a, True
    scale = float(np.linalg.norm(a[np.isfinite(a)])) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if n else 0.0
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise NonSymmetricInput(
            f"{name} is not symmetric: max|A - A^T| = {asym:.3e} exceeds "
            f"{_SYMMETRY_RTOL:.0e} * ||A||_F = {_SYMMETRY_RTOL * scale:.3e}"
        )
    return a, False


def _mirrored_tiles(n: int):
    """(rows, cols) of the _TILE-wide tiles on and above the diagonal: entry
    [i, j] of a[rows, cols] mirrors entry [i, j] of a[cols, rows].T."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _average_with_transpose(a: np.ndarray) -> None:
    """a = 0.5 * (a + a.T) in place, one pair of mirrored tiles at a time."""
    for rows, cols in _mirrored_tiles(a.shape[0]):
        mean = a[rows, cols] + a[cols, rows].T
        mean *= 0.5
        a[rows, cols] = mean
        a[cols, rows] = mean.T


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`.

    With b=None the result is exactly symmetric with a zero diagonal. The
    Gram matrix a @ b.T is the only full-size buffer: each block of its rows
    is overwritten by aa + bb - 2 * gram.
    """
    a = as_matrix(a, "a")
    self_mode = b is None
    b = a if self_mode else as_matrix(b, "b")
    aa = np.einsum("ij,ij->i", a, a)
    bb = aa if self_mode else np.einsum("ij,ij->i", b, b)
    d = a @ b.T
    for start in range(0, d.shape[0], _TILE):
        rows = slice(start, start + _TILE)
        block = aa[rows, None] + bb[None, :]
        block -= 2.0 * d[rows]
        np.maximum(block, 0.0, out=block)
        d[rows] = block
    if self_mode:
        _average_with_transpose(d)
        np.fill_diagonal(d, 0.0)
    return d


def pairwise_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between rows; symmetric with zero diagonal for b=None."""
    d = pairwise_sq_dists(a, b)
    return np.sqrt(d, out=d)


def double_center(d_sq) -> np.ndarray:
    """Turn a squared-distance matrix into the centered kernel -1/2 * H D H.

    H = I - (1/n) 11^T. The result is exactly symmetric with row and column
    sums that vanish up to rounding. The input is left unchanged.

    Raises NonSymmetricInput for asymmetric input and SentinelPresent if any
    entry is non-finite (the unreachable sentinel must be resolved by a
    component policy before centering).
    """
    return double_center_in_place(np.array(d_sq, dtype=np.float64, order="C"))


def double_center_in_place(d_sq: np.ndarray) -> np.ndarray:
    """double_center that overwrites d_sq with the kernel if it is a C-contiguous
    float64 array (else a converted copy); callers use the returned array."""
    d = as_matrix(d_sq, "d_sq")
    if not np.all(np.isfinite(d)):
        raise SentinelPresent("squared-distance matrix contains unreachable entries")
    d, _ = require_square_symmetric(d, "d_sq")
    row_mean = d.mean(axis=1, keepdims=True)
    col_mean = d.mean(axis=0, keepdims=True)
    grand = float(d.mean())
    # the order of -0.5 * (d - row_mean - col_mean + grand), one pass each
    d -= row_mean
    d -= col_mean
    d += grand
    d *= -0.5
    _average_with_transpose(d)
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
    order = list(np.argsort(-eigenvalues, kind="stable"))
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and eigenvalues[order[j]] == eigenvalues[order[i]]:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda c: tuple(vectors[:, c]))
        i = j
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
        raise ConvergenceFailure(f"iterative eigensolver exhausted {10 * n} iterations") from exc
    if dense_fallback and w[1] - w[0] <= _ARPACK_TOL * max(1.0, abs(float(w[-1]))):
        return None, None
    return w, v


def symmetric_eig(a, top: int) -> EigenResult:
    """Top eigenpairs of a symmetric matrix, descending, deterministic.

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
    a, exact = require_square_symmetric(a, "a")
    n = a.shape[0]
    if not 1 <= top <= n:
        raise ValueError(f"top must be in [1, {n}], got {top}")
    # every double_center kernel is exactly symmetric and needs no copy
    a_sym = a if exact else 0.5 * (a + a.T)

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
            raise ConvergenceFailure(f"dense symmetric eigensolver failed: {exc}") from exc

    v = _normalize_signs(v)
    order = _stable_descending_order(w, v)[:top]
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])

    scale = max(1.0, float(np.linalg.norm(a_sym)))
    residual = float(np.max(np.linalg.norm(a_sym @ v - v * w[None, :], axis=0)))
    if residual > _EIG_RESIDUAL_TOL * scale:
        raise ConvergenceFailure(
            f"eigenpair residual {residual:.3e} exceeds tolerance {_EIG_RESIDUAL_TOL * scale:.3e}"
        )
    return EigenResult(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class MdsCoordinates:
    """Coordinates from the eigendecomposition of a centered kernel.

    eigenvalues are the raw top-p values (negatives visible); coordinates use
    sqrt(max(eigenvalue, 0)). clamped_count tells how many of the top p were
    negative; rank_deficient marks zero-padded trailing columns. spectrum
    holds the leading min(n, max(p, extra_spectrum)) eigenvalues, for
    diagnostics such as the elbow report.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    clamped_count: int
    rank_deficient: bool
    spectrum: np.ndarray


def mds_coordinates(kernel, p: int, extra_spectrum: int = 0) -> MdsCoordinates:
    """Coordinates y_i = (sqrt(l_1) v_1i, ..., sqrt(l_p) v_pi) from a centered kernel.

    Negative eigenvalues (the kernel of a non-Euclidean distance matrix is
    indefinite) are clamped to zero and counted. If fewer than p eigenvalues
    exceed 1e-12 * l_1 the remaining columns are zero and a
    RankDeficientWarning is issued. extra_spectrum widens the eigensolve so
    that the result's spectrum holds that many leading eigenvalues.
    """
    k = as_matrix(kernel, "kernel")
    n = k.shape[0]
    if p < 1:
        raise ValueError(f"target dimension must be >= 1, got {p}")
    top = min(n, max(p, extra_spectrum))
    eig = symmetric_eig(k, top=top)

    lam = eig.eigenvalues[: min(p, n)]
    vec = eig.eigenvectors[:, : min(p, n)]
    clamped = np.maximum(lam, 0.0)
    clamped_count = int(np.sum(lam < 0.0))

    coords = np.zeros((n, p), dtype=np.float64)
    coords[:, : lam.size] = vec * np.sqrt(clamped)[None, :]

    lead = float(clamped[0]) if lam.size else 0.0
    usable = int(np.sum(clamped > _RANK_RTOL * lead)) if lead > 0.0 else 0
    rank_deficient = usable < p
    if rank_deficient:
        warnings.warn(
            f"kernel supports only {usable} of {p} requested dimensions; "
            "remaining coordinates are zero",
            RankDeficientWarning,
            stacklevel=2,
        )

    out_lam = np.zeros(p, dtype=np.float64)
    out_lam[: lam.size] = lam
    return MdsCoordinates(
        coordinates=coords,
        eigenvalues=out_lam,
        clamped_count=clamped_count,
        rank_deficient=rank_deficient,
        spectrum=eig.eigenvalues,
    )
