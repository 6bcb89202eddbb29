"""Embedding quality metrics and the cross-validated downstream classifier.

Distance preservation (normalized stress, residual variance), rank-based
neighborhood preservation (trustworthiness/continuity), a coefficient of
variation over the window density, and stratified k-NN classification. All
metrics are pure; fold assignment is deterministic per seed so paired
comparisons can share folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import json_safe, write_json
from .errors import ClassTooSmall, NoFinitePairs, ZeroMeanDensity
from .graph import DensityEstimate
from .linalg import as_matrix, first_m, pairwise_dists

EVAL_SCHEMA = "evalreport/1"
_BLOCK_ROWS = 128  # rows per block in trustworthiness_continuity


def _upper_rows(ref: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The i<j entries of ref and of own, row-major, as the rows of one
    C-contiguous (2, P) array written over own's buffer. own's rows move to
    the second half first, last rows first, in blocks whose source and
    destination do not meet (one row alone where they do): a row at a time
    is about 15% slower at m = 1433, in per-row call overhead."""
    n = own.shape[0]
    half = n * (n - 1) // 2
    flat = own.reshape(-1)
    starts = np.cumsum(np.arange(n, 0, -1)) + (half - n)  # row i's place in flat
    stop = n - 1  # rows from stop on are in place; the last has no entry
    while stop > 0:
        # the rows from first to stop go where no row before stop lies
        first = min(int(np.searchsorted(starts, stop * n)), stop - 1)
        dest = flat[starts[first]:starts[stop]]
        if first == stop - 1:
            dest[...] = own[first, first + 1:]  # they overlap: assignment copies safely
        else:
            np.concatenate([own[i, i + 1:] for i in range(first, stop)], out=dest)
        stop = first
    out = flat[:2 * half].reshape(2, half)
    if n:  # n=0 has no slice to join
        np.concatenate([ref[i, i + 1:] for i in range(n)], out=out[0])
    return out


def _finite_columns(pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """The columns of pairs whose first entry is finite, in C order unlike
    pairs[:, finite], and the count of the others; NoFinitePairs if none is."""
    finite = np.isfinite(pairs[0])
    sentinels = finite.size - int(np.count_nonzero(finite))
    if sentinels == finite.size:
        raise NoFinitePairs("no finite high-dimensional pairs to score")
    return (np.compress(finite, pairs, axis=1) if sentinels else pairs), sentinels


def _scored_pairs(d_hd, d_ld) -> np.ndarray:
    """The (2, P) upper-triangle pairs of both matrices where d_hd is finite."""
    a = as_matrix(d_hd, "d_hd")
    b = as_matrix(d_ld, "d_ld")
    if a.shape != b.shape:
        raise ValueError("distance matrices must have matching shapes")
    return _finite_columns(_upper_rows(a, b.copy()))[0]


def _stress(a: np.ndarray, b: np.ndarray) -> float:
    squares = np.subtract(a, b)
    num = float(np.sum(np.square(squares, out=squares)))
    denom = float(np.sum(np.square(a, out=squares)))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / denom))


def _residual_variance(pairs: np.ndarray) -> float:
    """1 - r^2 between the rows of a C-contiguous (2, P) array, centered in
    place: np.corrcoef's steps and bits without its stacked copy of the rows."""
    sa, sb = float(np.std(pairs[0])), float(np.std(pairs[1]))
    if sa == 0.0 or sb == 0.0:
        return 0.0 if sa == sb else 1.0
    pairs -= pairs.mean(axis=1)[:, None]
    c = np.dot(pairs, pairs.T) * np.true_divide(1, pairs.shape[1] - 1)
    stddev = np.sqrt(np.diag(c))
    r = float(np.clip(c[0, 1] / stddev[0] / stddev[1], -1, 1))
    return 1.0 - r * r


def stress(d_hd, d_ld) -> float:
    """Normalized Kruskal stress-1 over finite pairs i<j.

    sqrt(sum((d_hd - d_ld)^2) / sum(d_hd^2)); unreachable pairs in d_hd are
    excluded. Raises NoFinitePairs if no finite pair remains.
    """
    return _stress(*_scored_pairs(d_hd, d_ld))


def residual_variance(d_hd, d_ld) -> float:
    """1 - r^2 between high- and low-dimensional distances over finite pairs."""
    return _residual_variance(_scored_pairs(d_hd, d_ld))


def _ranks(rows: np.ndarray, ordered: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """1-based (value, index) rank of rows[r, j] in row r, for each pair in the mask.

    ordered is rows sorted along each row. Rows are finite but for a +inf
    diagonal, which no pair may name. The entries below each value are
    counted in the sorted row by a vectorized binary search; equal entries
    of lower index are counted only where the sorted row shows a tie.
    """
    # np.nonzero's indices in its order, from a 1-D scan, which is several times faster
    r, j = np.divmod(np.flatnonzero(pairs), pairs.shape[1])
    values = rows[r, j]
    n = rows.shape[1]
    below = np.zeros(values.size, dtype=np.int64)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = below + step
        below += step * ((probe <= n) & (ordered[r, np.minimum(probe, n) - 1] < values))
        step >>= 1
    # each row ends in its +inf diagonal, so below + 1 stays inside the row
    tied = np.flatnonzero(ordered[r, below + 1] == values)
    cols = np.arange(n)
    for start in range(0, tied.size, _BLOCK_ROWS):
        t = tied[start:start + _BLOCK_ROWS]
        equal = (rows[r[t]] == values[t, None]) & (cols < j[t, None])
        below[t] += equal.sum(axis=1)
    return below + 1


def trustworthiness_continuity(d_hd, d_ld, m: int) -> tuple[float, float]:
    """Rank-based neighborhood preservation scores at neighborhood size m.

    Trustworthiness penalizes embedded neighbors that are not true
    neighbors; continuity penalizes true neighbors lost by the embedding.
    Ranks order each row by (distance, index), self excluded, so ties break
    by point index. The matrices are walked in blocks of rows: each block
    sorts its rows of both matrices once, takes both first-m sets at the m-th
    sorted values and ranks only the pairs in one set but not the other in
    the sorted rows. Penalties are summed as integers; the scores are exact.
    Requires 1 <= m < n/2 and finite distance matrices.
    """
    a = as_matrix(d_hd, "d_hd")
    b = as_matrix(d_ld, "d_ld")
    n = a.shape[0]
    if a.shape != b.shape:
        raise ValueError("distance matrices must have matching shapes")
    if not 1 <= m < n / 2:
        raise ValueError(f"neighborhood size must satisfy 1 <= m < n/2 = {n / 2}, got {m}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("trustworthiness/continuity require finite distances; "
                         "resolve sentinels first")

    t_penalty = c_penalty = 0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        local = np.arange(stop - start)
        hd = a[start:stop].copy()
        ld = b[start:stop].copy()
        hd[local, local + start] = np.inf
        ld[local, local + start] = np.inf
        sorted_hd = np.sort(hd, axis=1)
        sorted_ld = np.sort(ld, axis=1)
        near_hd = first_m(hd, m, sorted_hd[:, m - 1, None])
        near_ld = first_m(ld, m, sorted_ld[:, m - 1, None])
        t_penalty += int(np.sum(_ranks(hd, sorted_hd, near_ld & ~near_hd) - m))
        c_penalty += int(np.sum(_ranks(ld, sorted_ld, near_hd & ~near_ld) - m))
    scale = 2.0 / (n * m * (2.0 * n - 3.0 * m - 1.0))
    return 1.0 - scale * t_penalty, 1.0 - scale * c_penalty


# -- downstream classification ---------------------------------------------------


def make_stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within class)."""
    y = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    small = counts < folds
    if small.any():
        bad = {int(c): int(k) for c, k in zip(classes[small], counts[small])}
        raise ClassTooSmall(f"classes with fewer members than folds={folds}: {bad}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=np.int64)
    for c in classes:
        members = np.where(y == c)[0]
        rng.shuffle(members)
        assignment[members] = np.arange(members.size) % folds
    return assignment


def _knn_predict(train_x, train_codes, test_x, k_clf: int, n_classes: int) -> np.ndarray:
    """The class code each test row's k nearest training rows vote for. A
    class absent from the training rows gets no vote, so it never wins."""
    near = first_m(pairwise_dists(test_x, train_x), min(k_clf, train_x.shape[0]))
    rows, cols = np.divmod(np.flatnonzero(near), near.shape[1])  # as in _ranks
    votes = np.bincount(rows * n_classes + train_codes[cols],
                        minlength=test_x.shape[0] * n_classes)
    # vote ties: argmax takes the first, i.e. the smallest label
    return np.argmax(votes.reshape(-1, n_classes), axis=1)


@dataclass(frozen=True)
class CvResult:
    mean: float
    sd: float
    fold_accuracies: np.ndarray
    fold_assignment: np.ndarray


def knn_classify_cv(coords, labels, k_clf: int = 5, folds: int = 10, seed: int = 0,
                    assignment: np.ndarray | None = None) -> CvResult:
    """Stratified cross-validated majority-vote k-NN accuracy in embedding space.

    Pass a precomputed assignment to reuse one fold split across paired
    method comparisons. sd is the population deviation over fold accuracies.
    """
    x = as_matrix(coords, "coords")
    y = np.asarray(labels, dtype=np.int64)
    if y.size != x.shape[0]:
        raise ValueError(f"{y.size} labels for {x.shape[0]} observations")
    if k_clf < 1:
        raise ValueError(f"k_clf must be >= 1, got {k_clf}")
    if assignment is None:
        assignment = make_stratified_folds(y, folds, seed)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        folds = int(assignment.max()) + 1
    classes, codes = np.unique(y, return_inverse=True)
    accs = np.empty(folds, dtype=np.float64)
    for f in range(folds):
        test = assignment == f
        train = ~test
        preds = _knn_predict(x[train], codes[train], x[test], k_clf, classes.size)
        accs[f] = float(np.mean(preds == codes[test]))
    return CvResult(
        mean=float(np.mean(accs)),
        sd=float(np.std(accs)),
        fold_accuracies=accs,
        fold_assignment=assignment,
    )


def uniformity_cv(density: DensityEstimate) -> float:
    """Coefficient of variation of the window density; lower = more uniform.

    Computed from occupancy counts when available: the constant window
    normalization cancels in sd/mean, and counts stay finite even when the
    density values under- or overflow in high ambient dimension.
    """
    source = density.counts if density.counts is not None else density.values
    values = np.asarray(source, dtype=np.float64)
    mean = float(np.mean(values))
    if mean == 0.0:
        raise ZeroMeanDensity("density is identically zero")
    return float(np.std(values) / mean)


# -- report -----------------------------------------------------------------------


@dataclass
class EvalReport:
    """Scores for one embedding run, JSON/CSV serializable with provenance."""

    stress: float
    residual_variance: float
    trustworthiness: float
    continuity: float
    tc_neighborhood: int
    knn_accuracy_mean: float | None = None
    knn_accuracy_sd: float | None = None
    knn_folds: int | None = None
    density_cv: float | None = None
    sentinel_excluded_pairs: int = 0
    kept_fraction: float = 1.0
    timings: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    CSV_FIELDS = (
        "stress", "residual_variance", "trustworthiness", "continuity",
        "tc_neighborhood", "knn_accuracy_mean", "knn_accuracy_sd", "knn_folds",
        "density_cv", "sentinel_excluded_pairs", "kept_fraction",
    )

    def row(self) -> dict:
        """The CSV_FIELDS by name: the cells of the eval and bench tables."""
        return {name: getattr(self, name) for name in self.CSV_FIELDS}

    def to_dict(self) -> dict:
        return json_safe({"schema": EVAL_SCHEMA, **self.row(), "timings": self.timings,
                          "run": self.run})

    def to_json(self, path=None) -> str:
        return write_json(self.to_dict(), path)


def evaluate_embedding(
    reference_dists,
    coordinates,
    m: int = 10,
    labels=None,
    k_clf: int = 5,
    folds: int = 10,
    seed: int = 0,
    fold_assignment: np.ndarray | None = None,
    run: dict | None = None,
    timings: dict | None = None,
) -> EvalReport:
    """Score an embedding against reference high-dimensional distances.

    reference_dists and coordinates must cover the same (kept) vertices in
    the same order. Classification runs only when labels are given.
    """
    ref = as_matrix(reference_dists, "reference_dists")
    coords = as_matrix(coordinates, "coordinates")
    if ref.shape[0] != coords.shape[0]:
        raise ValueError("reference and embedding cover different vertex counts")
    emb_d = pairwise_dists(coords)

    if np.isfinite(ref).all():
        t, c = trustworthiness_continuity(ref, emb_d, m)
    else:
        t, c = float("nan"), float("nan")

    pairs, sentinels = _finite_columns(_upper_rows(ref, emb_d))
    del emb_d
    report = EvalReport(
        stress=_stress(*pairs),
        residual_variance=_residual_variance(pairs),  # after stress: it centers pairs
        trustworthiness=t,
        continuity=c,
        tc_neighborhood=m,
        sentinel_excluded_pairs=sentinels,
        timings=dict(timings or {}),
        run=dict(run or {}),
    )
    if labels is not None:
        cv = knn_classify_cv(coords, labels, k_clf=k_clf, folds=folds, seed=seed,
                             assignment=fold_assignment)
        report.knn_accuracy_mean = cv.mean
        report.knn_accuracy_sd = cv.sd
        report.knn_folds = int(cv.fold_accuracies.size)
    return report
