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

# Above this order the full dense decomposition is replaced by iterative
# extraction of the requested top eigenpairs.
DENSE_EIG_LIMIT = 2048

_EIG_RESIDUAL_TOL = 1e-8
_SYMMETRY_RTOL = 1e-9
_RANK_RTOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def require_square_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate shape and symmetry (relative to the Frobenius norm)."""
    a = as_matrix(a, name)
    n, m = a.shape
    if n != m:
        raise ValueError(f"{name} must be square, got {a.shape}")
    scale = float(np.linalg.norm(a[np.isfinite(a)])) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if n else 0.0
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise NonSymmetricInput(
            f"{name} is not symmetric: max|A - A^T| = {asym:.3e} exceeds "
            f"{_SYMMETRY_RTOL:.0e} * ||A||_F = {_SYMMETRY_RTOL * scale:.3e}"
        )
    return a


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`.

    With b=None the result is exactly symmetric with a zero diagonal.
    """
    a = as_matrix(a, "a")
    self_mode = b is None
    b = a if self_mode else as_matrix(b, "b")
    aa = np.einsum("ij,ij->i", a, a)
    bb = aa if self_mode else np.einsum("ij,ij->i", b, b)
    d = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(d, 0.0, out=d)
    if self_mode:
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    return d


def pairwise_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between rows; symmetric with zero diagonal for b=None."""
    return np.sqrt(pairwise_sq_dists(a, b))


def double_center(d_sq) -> np.ndarray:
    """Turn a squared-distance matrix into the centered kernel -1/2 * H D H.

    H = I - (1/n) 11^T. The result is exactly symmetric with row and column
    sums that vanish up to rounding.

    Raises NonSymmetricInput for asymmetric input and SentinelPresent if any
    entry is non-finite (the unreachable sentinel must be resolved by a
    component policy before centering).
    """
    d = as_matrix(d_sq, "d_sq")
    if not np.all(np.isfinite(d)):
        raise SentinelPresent("squared-distance matrix contains unreachable entries")
    d = require_square_symmetric(d, "d_sq")
    row_mean = d.mean(axis=1, keepdims=True)
    col_mean = d.mean(axis=0, keepdims=True)
    grand = float(d.mean())
    k = -0.5 * (d - row_mean - col_mean + grand)
    k = 0.5 * (k + k.T)
    return k


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


def symmetric_eig(a, top: int) -> EigenResult:
    """Top eigenpairs of a symmetric matrix, descending, deterministic.

    Up to DENSE_EIG_LIMIT a dense solver computes only the requested pairs
    (a full decomposition when top == n); beyond it ARPACK extracts the
    leading pairs from a fixed start vector, so repeated runs give identical
    bytes. Sign convention: the largest-magnitude entry of every eigenvector
    is positive.
    """
    a = require_square_symmetric(a, "a")
    n = a.shape[0]
    if not 1 <= top <= n:
        raise ValueError(f"top must be in [1, {n}], got {top}")
    # every double_center kernel is exactly symmetric and needs no copy
    a_sym = a if np.array_equal(a, a.T) else 0.5 * (a + a.T)

    if n <= DENSE_EIG_LIMIT or top == n:
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
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        # a fixed start vector makes ARPACK, and so the output bytes, repeat
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            w, v = eigsh(a_sym, k=top, which="LA", tol=1e-10, maxiter=10 * n, v0=v0)
        except ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"iterative eigensolver exhausted {10 * n} iterations"
            ) from exc

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
    negative; rank_deficient marks zero-padded trailing columns.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    clamped_count: int
    rank_deficient: bool


def mds_coordinates(kernel, p: int, extra_spectrum: int = 0) -> MdsCoordinates | tuple:
    """Coordinates y_i = (sqrt(l_1) v_1i, ..., sqrt(l_p) v_pi) from a centered kernel.

    Negative eigenvalues (the kernel of a non-Euclidean distance matrix is
    indefinite) are clamped to zero and counted. If fewer than p eigenvalues
    exceed 1e-12 * l_1 the remaining columns are zero and a
    RankDeficientWarning is issued.

    With extra_spectrum > 0 also returns the leading
    max(p, extra_spectrum) eigenvalues as a second element, for spectrum
    diagnostics such as the elbow report.
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
    result = MdsCoordinates(
        coordinates=coords,
        eigenvalues=out_lam,
        clamped_count=clamped_count,
        rank_deficient=rank_deficient,
    )
    if extra_spectrum:
        return result, eig.eigenvalues.copy()
    return result
