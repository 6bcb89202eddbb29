"""Embedding quality metrics and the cross-validated downstream classifier.

Distance preservation (normalized stress, residual variance), rank-based
neighborhood preservation (trustworthiness/continuity), a coefficient of
variation over the window density, and stratified k-NN classification. All
metrics are pure; fold assignment is deterministic per seed so paired
comparisons can share folds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embed import json_safe
from .errors import ClassTooSmall, NoFinitePairs, ZeroMeanDensity
from .graph import DensityEstimate
from .linalg import as_matrix, pairwise_dists

EVAL_SCHEMA = "evalreport/1"
_BLOCK_ROWS = 128  # rows per block in trustworthiness_continuity


def _upper_pairs(*matrices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The i<j entries of each n x n matrix, row-major, from one shared mask."""
    n = matrices[0].shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return tuple(values[upper] for values in matrices)


def _finite_pairs(d_hd, d_ld) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle pairs of both matrices where d_hd is finite."""
    a = as_matrix(d_hd, "d_hd")
    b = as_matrix(d_ld, "d_ld")
    if a.shape != b.shape:
        raise ValueError("distance matrices must have matching shapes")
    return _finite_only(*_upper_pairs(a, b))


def _finite_only(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs where a is finite (a and b themselves when all are); raises
    NoFinitePairs if there are none."""
    mask = np.isfinite(a)
    if not mask.any():
        raise NoFinitePairs("no finite high-dimensional pairs to score")
    if mask.all():
        return a, b
    return a[mask], b[mask]


def _stress(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    denom = float(np.sum(a**2))
    num = float(np.sum(diff**2))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / denom))


def _residual_variance(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = float(np.std(a)), float(np.std(b))
    if sa == 0.0 or sb == 0.0:
        return 0.0 if sa == sb else 1.0
    r = float(np.corrcoef(a, b)[0, 1])
    return 1.0 - r * r


def stress(d_hd, d_ld) -> float:
    """Normalized Kruskal stress-1 over finite pairs i<j.

    sqrt(sum((d_hd - d_ld)^2) / sum(d_hd^2)); unreachable pairs in d_hd are
    excluded. Raises NoFinitePairs if no finite pair remains.
    """
    return _stress(*_finite_pairs(d_hd, d_ld))


def sentinel_excluded_pairs(d_hd) -> int:
    """Count of i<j pairs carrying the unreachable sentinel."""
    (a,) = _upper_pairs(as_matrix(d_hd, "d_hd"))
    return int(np.sum(~np.isfinite(a)))


def residual_variance(d_hd, d_ld) -> float:
    """1 - r^2 between high- and low-dimensional distances over finite pairs."""
    return _residual_variance(*_finite_pairs(d_hd, d_ld))


def _first_m(rows: np.ndarray, m: int) -> np.ndarray:
    """Mask of each row's first m entries in (value, index) order.

    np.partition finds the m-th smallest value; when more entries equal it
    than fit, the ones of lowest index are taken, as a stable sort would.
    """
    kth = np.partition(rows, m - 1, axis=1)[:, m - 1, None]
    chosen = rows <= kth
    extra = chosen.sum(axis=1) - m
    over = np.flatnonzero(extra)
    if over.size:
        ties = rows[over] == kth[over]
        from_right = np.cumsum(ties[:, ::-1], axis=1)[:, ::-1]
        chosen[over] &= ~(ties & (from_right <= extra[over, None]))
    return chosen


def _ranks(rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """1-based (value, index) rank of rows[r, j] in row r, for each pair in the mask.

    Rows are finite but for a +inf diagonal, which no pair may name. The
    entries below each value are counted in the sorted row by a vectorized
    binary search; equal entries of lower index are counted only where the
    sorted row shows a tie.
    """
    r, j = np.nonzero(pairs)
    values = rows[r, j]
    ordered = np.sort(rows, axis=1)
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
    takes both first-m sets by partition and ranks only the scored pairs (in
    one set but not the other) against its sorted rows, so no n x n rank
    matrix is built. Penalties are summed as integers; the scores are exact.
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
        near_hd = _first_m(hd, m)
        near_ld = _first_m(ld, m)
        t_penalty += int(np.sum(_ranks(hd, near_ld & ~near_hd) - m))
        c_penalty += int(np.sum(_ranks(ld, near_hd & ~near_ld) - m))
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


def _knn_predict(train_x, train_y, test_x, k_clf: int) -> np.ndarray:
    classes, compact = np.unique(train_y, return_inverse=True)
    near = _first_m(pairwise_dists(test_x, train_x), min(k_clf, train_x.shape[0]))
    rows, cols = np.nonzero(near)
    votes = np.bincount(rows * classes.size + compact[cols],
                        minlength=test_x.shape[0] * classes.size)
    # vote ties: argmax takes the first, i.e. the smallest label
    return classes[np.argmax(votes.reshape(-1, classes.size), axis=1)]


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
    accs = np.empty(folds, dtype=np.float64)
    for f in range(folds):
        test = assignment == f
        train = ~test
        preds = _knn_predict(x[train], y[train], x[test], k_clf)
        accs[f] = float(np.mean(preds == y[test]))
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


def csv_cell(value) -> str:
    """One CSV cell: None empty, floats round-trip exact (.17g), else str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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

    def to_dict(self) -> dict:
        out = {"schema": EVAL_SCHEMA}
        for name in self.CSV_FIELDS:
            out[name] = getattr(self, name)
        out["timings"] = self.timings
        out["run"] = self.run
        return json_safe(out)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def csv_header(self) -> str:
        return ",".join(self.CSV_FIELDS)

    def to_csv_line(self) -> str:
        return ",".join(csv_cell(getattr(self, name)) for name in self.CSV_FIELDS)


def evaluate_embedding(
    reference_dists,
    coordinates,
    m: int = 10,
    labels=None,
    k_clf: int = 5,
    folds: int = 10,
    seed: int = 0,
    fold_assignment: np.ndarray | None = None,
    density: DensityEstimate | None = None,
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

    ref_pairs, emb_pairs = _upper_pairs(ref, emb_d)
    del emb_d
    sentinels = int(np.sum(~np.isfinite(ref_pairs)))
    a, b = _finite_only(ref_pairs, emb_pairs)
    report = EvalReport(
        stress=_stress(a, b),
        residual_variance=_residual_variance(a, b),
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
    if density is not None:
        report.density_cv = uniformity_cv(density)
    return report


def save_eval_csv(report: EvalReport, path) -> None:
    Path(path).write_text(f"{report.csv_header()}\n{report.to_csv_line()}\n",
                          encoding="utf-8", newline="")
