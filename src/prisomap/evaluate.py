"""Embedding quality metrics and the cross-validated downstream classifier.

Distance preservation (normalized stress, residual variance), rank-based
neighborhood preservation (trustworthiness/continuity), a coefficient of
variation over the window density, and stratified k-NN classification. All
metrics are pure; fold assignment is deterministic per seed so paired
comparisons can share folds.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .datasets import json_safe, seeded_rng, write_json
from .errors import InputError, NumericError
from .linalg import _cpus, as_matrix, first_m, pairwise_dists

EVAL_SCHEMA = "evalreport/2"
_BLOCK_ROWS = 128  # rows per block of the scoring kernel, and per task
_MAX_WORKERS = 2  # scoring threads: a third would take T/C over its memory bound
_NOT_FINITE = "trustworthiness/continuity require finite distances; resolve sentinels first"


def _distance_rows(points, dists, name: str):
    """n and a function from a row slice to a fresh copy of those rows of
    a distance matrix: pairwise_dists(points[rows], points) for points, a
    copy of dists[rows] for a square matrix. Exactly one is given."""
    if (points is None) == (dists is None):
        raise ValueError(f"give exactly one of {name}_points and {name}_dists")
    if points is not None:
        x = as_matrix(points, f"{name}_points")
        return x.shape[0], lambda rows: pairwise_dists(x[rows], x)
    d = as_matrix(dists, f"{name}_dists")
    if d.shape[0] != d.shape[1]:
        raise ValueError(f"{name}_dists must be square, got shape {d.shape}")
    return d.shape[0], lambda rows: d[rows].copy()


def _pair_moments(a: np.ndarray, b: np.ndarray) -> tuple:
    """One block's partials of the paired samples a and b, centered in place:
    each side's (min, max), stress's sums (a - b)^2 and a^2, and residual
    variance's count, means and centered second moments (aa, bb, ab)."""
    low, high = np.array([a.min(), b.min()]), np.array([a.max(), b.max()])
    tmp = np.subtract(a, b)
    sums = np.array([np.sum(np.square(tmp, out=tmp)), np.sum(np.square(a, out=tmp))])
    mean = np.array([a.mean(), b.mean()])
    a -= mean[0]
    b -= mean[1]
    co = [np.sum(np.multiply(u, v, out=tmp)) for u, v in ((a, a), (b, b), (a, b))]
    return low, high, sums, a.size, mean, co


def _merge_moments(total: tuple, part: tuple) -> tuple:
    """total's and one more block's _pair_moments merged; the centered moments
    by Chan et al.'s parallel update, which sums no raw moment."""
    low, high, sums, count, mean, co = total
    part_low, part_high, part_sums, size, part_mean, part_co = part
    delta = part_mean - mean
    share = size / (count + size)  # 1.0 for the first block: its moments as they are
    return (np.minimum(low, part_low), np.maximum(high, part_high), sums + part_sums,
            count + size, mean + delta * share,
            co + part_co + delta[[0, 1, 0]] * delta[[0, 1, 1]] * (count * share))


def _tc_penalties(hd: np.ndarray, ld: np.ndarray, start: int, m: int) -> tuple[int, int]:
    """T/C's integer penalties for one block of rows from row start on: it
    sorts its rows of both matrices once, takes both first-m sets at the
    m-th sorted values and ranks only the pairs in one set but not the
    other in the sorted rows. The blocks' self entries become +inf."""
    local = np.arange(hd.shape[0])
    hd[local, local + start] = ld[local, local + start] = np.inf
    sorted_hd = np.sort(hd, axis=1)
    sorted_ld = np.sort(ld, axis=1)
    near_hd = first_m(hd, m, sorted_hd[:, m - 1, None])
    near_ld = first_m(ld, m, sorted_ld[:, m - 1, None])
    return (int(np.sum(_ranks(hd, sorted_hd, near_ld & ~near_hd) - m)),
            int(np.sum(_ranks(ld, sorted_ld, near_hd & ~near_ld) - m)))


def _pool(tasks: int) -> ThreadPoolExecutor:
    """Threads for tasks, one per CPU of the affinity mask (1 without one), at
    most _MAX_WORKERS and one per task; importing prisomap held BLAS to one
    thread, so they do not oversubscribe it. The tasks spend their time in
    numpy's sorts, partitions, ufunc loops and BLAS calls, which release the
    GIL, under the caller's np.errstate. Each caller closes the pool before
    it returns: no thread outlives a call."""
    return ThreadPoolExecutor(max(1, min(_MAX_WORKERS, _cpus(), tasks)),
                              initializer=functools.partial(np.seterr, **np.geterr()))


def _block_scores(ref_rows, emb_rows, n: int, m: int | None, tc: threading.Event,
                  start: int) -> tuple:
    """One task of _scores, the block from row start on: whether its reference
    rows are finite; while tc is set and they are, T/C's penalties (None for
    a non-finite embedding); the _pair_moments of its pairs (None for none).
    T/C's halves go first, and each side's rows go once its pairs are out:
    two tasks at once then stay within T/C's memory bound."""
    rows = slice(start, min(start + _BLOCK_ROWS, n))
    hd, ld = ref_rows(rows), emb_rows(rows)
    scored = np.isfinite(hd)
    finite = bool(scored.all())
    penalties, half = None, _BLOCK_ROWS // 2
    if finite and tc.is_set() and np.isfinite(ld).all():
        halves = [_tc_penalties(hd[h:h + half], ld[h:h + half], start + h, m)
                  for h in range(0, hd.shape[0], half)]
        penalties = [sum(p) for p in zip(*halves)]
    scored &= np.arange(n) > np.arange(rows.start, rows.stop)[:, None]
    a = hd[scored]
    del hd
    b = ld[scored]
    del ld, scored
    return finite, penalties, _pair_moments(a, b) if a.size else None


def _scores(ref_rows, emb_rows, n: int, m: int | None) -> dict:
    """Every score in one pass over _BLOCK_ROWS-row blocks, each holding the
    reference's and the embedding's distance rows of the same vertices, so
    no n x n matrix is built. The blocks are tasks of a _pool, merged in
    block order: the scores do not depend on the number of threads.

    Stress and residual variance read the pairs j > i whose reference is
    finite; the others are counted as sentinels. Residual variance merges
    the blocks' centered moments; a side whose pairs are all equal gives
    0.0 if the other's are too, else 1.0. T/C (with m, which must satisfy
    1 <= m < n/2: InputError otherwise) is NaN once a reference block is not
    finite; for a finite reference the embedding's distances must be finite
    (ValueError otherwise). Raises NumericError if no finite pair remains.
    """
    tc = threading.Event()  # set while every reference block so far is finite
    if m is not None:
        if not 1 <= m < n / 2:
            raise InputError(f"neighborhood size must satisfy 1 <= m < n/2 = {n / 2}, got {m}")
        tc.set()
    total = (np.full(2, np.inf), np.full(2, -np.inf), np.zeros(2), 0, np.zeros(2), np.zeros(3))
    penalties = [0, 0]
    starts = range(0, n, _BLOCK_ROWS)
    with _pool(len(starts)) as pool:
        task = functools.partial(_block_scores, ref_rows, emb_rows, n, m, tc)
        for finite, block_penalties, part in pool.map(task, starts):
            if not finite:
                tc.clear()
            if tc.is_set():
                if block_penalties is None:
                    raise ValueError(_NOT_FINITE)
                penalties = [p + q for p, q in zip(penalties, block_penalties)]
            if part is not None:
                total = _merge_moments(total, part)
    low, high, sums, count, mean, co = total
    if not count:
        raise NumericError("no finite high-dimensional pairs to score")
    constant = low == high
    rv = float(not constant.all()) if constant.any() else \
        1.0 - float(np.clip(co[2] / np.sqrt(co[0]) / np.sqrt(co[1]), -1, 1)) ** 2
    s = float(np.sqrt(sums[0] / sums[1])) if sums[1] else 0.0 if sums[0] == 0.0 else np.inf
    scale = 2.0 / (n * m * (2.0 * n - 3.0 * m - 1.0)) if tc.is_set() else float("nan")
    t, c = (1.0 - scale * penalty for penalty in penalties)
    return {"stress": s, "residual_variance": rv, "trustworthiness": t, "continuity": c,
            "sentinel_excluded_pairs": n * (n - 1) // 2 - count}


def _matrix_scores(d_hd, d_ld, m: int | None = None) -> dict:
    """_scores of two distance matrices of matching shapes."""
    n, ref_rows = _distance_rows(None, d_hd, "d_hd")
    n_ld, emb_rows = _distance_rows(None, d_ld, "d_ld")
    if n_ld != n:
        raise ValueError("distance matrices must have matching shapes")
    return _scores(ref_rows, emb_rows, n, m)


def stress(d_hd, d_ld) -> float:
    """Normalized Kruskal stress-1 over finite pairs i<j.

    sqrt(sum((d_hd - d_ld)^2) / sum(d_hd^2)); unreachable pairs in d_hd are
    excluded. Raises NumericError if no finite pair remains.
    """
    return _matrix_scores(d_hd, d_ld)["stress"]


def residual_variance(d_hd, d_ld) -> float:
    """1 - r^2 between high- and low-dimensional distances over finite pairs."""
    return _matrix_scores(d_hd, d_ld)["residual_variance"]


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
    by point index. Penalties are summed as integers; the scores are exact.
    Requires 1 <= m < n/2 and finite distance matrices.
    """
    scores = _matrix_scores(d_hd, d_ld, m)
    if np.isnan(scores["trustworthiness"]):
        raise ValueError(_NOT_FINITE)
    return scores["trustworthiness"], scores["continuity"]


# -- downstream classification ---------------------------------------------------


def make_stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within class)."""
    y = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise InputError(f"folds must be >= 2, got {folds}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise InputError("need at least 2 classes")
    small = counts < folds
    if small.any():
        bad = {int(c): int(k) for c, k in zip(classes[small], counts[small])}
        raise InputError(f"classes with fewer members than folds={folds}: {bad}")
    rng = seeded_rng(seed)
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
        raise InputError(f"k_clf must be >= 1, got {k_clf}")
    if assignment is None:
        assignment = make_stratified_folds(y, folds, seed)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        folds = int(assignment.max()) + 1
    classes, codes = np.unique(y, return_inverse=True)

    def accuracy(fold: int) -> float:
        test = assignment == fold
        train = ~test
        preds = _knn_predict(x[train], codes[train], x[test], k_clf, classes.size)
        return float(np.mean(preds == codes[test]))

    with _pool(folds) as pool:  # the folds are its tasks
        accs = np.array(list(pool.map(accuracy, range(folds))), dtype=np.float64)
    return CvResult(
        mean=float(np.mean(accs)),
        sd=float(np.std(accs)),
        fold_accuracies=accs,
        fold_assignment=assignment,
    )


def uniformity_cv(counts) -> float:
    """Coefficient of variation of the window density, from pr_density's
    occupancy counts (the density's normalization cancels); lower = more
    uniform."""
    values = np.asarray(counts, dtype=np.float64)
    mean = float(np.mean(values))
    if mean == 0.0:
        raise NumericError("density is identically zero")
    return float(np.std(values) / mean)


# -- report -----------------------------------------------------------------------


@dataclass
class EvalReport:
    """Scores for one embedding run, JSON/CSV serializable with provenance and
    no wall-clock field; kept_fraction is known to run_bench alone (else None)."""

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
    kept_fraction: float | None = None
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
        return json_safe({"schema": EVAL_SCHEMA, **self.row(), "run": self.run})

    def to_json(self, path=None) -> str:
        return write_json(self.to_dict(), path)


def evaluate_embedding(
    coordinates,
    *,
    reference_points=None,
    reference_dists=None,
    m: int = 10,
    labels=None,
    k_clf: int = 5,
    folds: int = 10,
    seed: int = 0,
    fold_assignment: np.ndarray | None = None,
    run: dict | None = None,
) -> EvalReport:
    """Score an embedding against a reference given by keyword, either as
    the points whose Euclidean distances it is or as a distance matrix.

    The reference and coordinates must cover the same (kept) vertices in
    the same order. Every score comes from one pass over row blocks, so no
    m x m matrix is built. Classification runs only when labels are given.
    """
    n, ref_rows = _distance_rows(reference_points, reference_dists, "reference")
    coords = as_matrix(coordinates, "coordinates")
    if n != coords.shape[0]:
        raise ValueError("reference and embedding cover different vertex counts")
    report = EvalReport(
        **_scores(ref_rows, lambda rows: pairwise_dists(coords[rows], coords), n, m),
        tc_neighborhood=m,
        run=dict(run or {}),
    )
    if labels is not None:
        cv = knn_classify_cv(coords, labels, k_clf=k_clf, folds=folds, seed=seed,
                             assignment=fold_assignment)
        report.knn_accuracy_mean = cv.mean
        report.knn_accuracy_sd = cv.sd
        report.knn_folds = int(cv.fold_accuracies.size)
    return report
