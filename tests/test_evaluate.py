import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prisomap.datasets import gen_swiss_roll
from prisomap.embed import classical_mds
from prisomap.errors import ClassTooSmall, NoFinitePairs, ZeroMeanDensity
from prisomap.evaluate import (
    evaluate_embedding,
    knn_classify_cv,
    make_stratified_folds,
    residual_variance,
    sentinel_excluded_pairs,
    stress,
    trustworthiness_continuity,
    uniformity_cv,
)
from prisomap.graph import DensityEstimate, knn_graph, pr_density
from prisomap.linalg import pairwise_dists

from helpers import traced_peak


# -- reference oracles: per-row loops over full (distance, index) sorts ------------


def _neighbor_order(dists):
    """Per-row neighbor orderings by (distance, index), self excluded."""
    n = dists.shape[0]
    order = np.empty((n, n - 1), dtype=np.int64)
    idx = np.arange(n)
    for i in range(n):
        row = dists[i].copy()
        row[i] = np.inf
        full = np.lexsort((idx, row))
        order[i] = full[full != i][: n - 1]
    return order


def _ranks_from_order(order):
    """rank[i, j] = 1-based position of j in i's neighbor ordering."""
    n = order.shape[0]
    ranks = np.zeros((n, n), dtype=np.int64)
    pos = np.arange(1, n, dtype=np.int64)
    for i in range(n):
        ranks[i, order[i]] = pos
    return ranks


def reference_tc(d_hd, d_ld, m):
    order_hd = _neighbor_order(d_hd)
    order_ld = _neighbor_order(d_ld)
    ranks_hd = _ranks_from_order(order_hd)
    ranks_ld = _ranks_from_order(order_ld)
    n = d_hd.shape[0]
    scale = 2.0 / (n * m * (2.0 * n - 3.0 * m - 1.0))
    t_penalty = 0.0
    c_penalty = 0.0
    for i in range(n):
        hd_set = set(order_hd[i, :m].tolist())
        for j in order_ld[i, :m]:
            if int(j) not in hd_set:
                t_penalty += ranks_hd[i, j] - m
        ld_set = set(order_ld[i, :m].tolist())
        for j in order_hd[i, :m]:
            if int(j) not in ld_set:
                c_penalty += ranks_ld[i, j] - m
    return 1.0 - scale * t_penalty, 1.0 - scale * c_penalty


def reference_knn_predict(train_x, train_y, test_x, k_clf):
    classes, compact = np.unique(train_y, return_inverse=True)
    d = pairwise_dists(test_x, train_x)
    idx = np.arange(train_x.shape[0])
    preds = np.empty(test_x.shape[0], dtype=np.int64)
    for i in range(test_x.shape[0]):
        order = np.lexsort((idx, d[i]))[:k_clf]
        votes = np.bincount(compact[order], minlength=classes.size)
        preds[i] = classes[int(np.argmax(votes))]  # vote ties: smallest label
    return preds


def reference_fold_accuracies(x, y, assignment, k_clf):
    accs = []
    for f in range(int(assignment.max()) + 1):
        test = assignment == f
        preds = reference_knn_predict(x[~test], y[~test], x[test], k_clf)
        accs.append(float(np.mean(preds == y[test])))
    return np.array(accs)


@st.composite
def grid_points(draw, min_n, max_n, dim, side):
    """Integer-grid points: small sides force duplicates and exact distance ties."""
    n = draw(st.integers(min_n, max_n))
    coords = draw(st.lists(st.integers(0, side), min_size=n * dim, max_size=n * dim))
    return np.array(coords, dtype=np.float64).reshape(n, dim)


def random_rigid_motion(coords, seed):
    rng = np.random.default_rng(seed)
    p = coords.shape[1]
    q, _ = np.linalg.qr(rng.normal(0, 1, (p, p)))
    if rng.uniform() < 0.5:
        q[:, 0] = -q[:, 0]  # throw in a reflection
    return coords @ q + rng.normal(0, 10, p)[None, :]


class TestStress:
    def test_identical_matrices(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (12, 2))
        d = pairwise_dists(x)
        assert stress(d, d) == 0.0

    def test_doubled_distances(self):
        rng = np.random.default_rng(1)
        d = pairwise_dists(rng.normal(0, 1, (10, 2)))
        assert stress(d, 2 * d) == pytest.approx(1.0, abs=1e-12)

    def test_mds_exact_embedding(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (20, 3))
        emb = classical_mds(x, p=3)
        assert stress(pairwise_dists(x), pairwise_dists(emb.coordinates)) <= 1e-7

    def test_sentinel_pairs_excluded(self):
        d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 2.0], [np.inf, 2.0, 0.0]])
        ld = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 2.0], [9.0, 2.0, 0.0]])
        assert stress(d, ld) == 0.0
        assert sentinel_excluded_pairs(d) == 1

    def test_no_finite_pairs(self):
        d = np.full((3, 3), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(NoFinitePairs):
            stress(d, np.zeros((3, 3)))


class TestResidualVariance:
    def test_perfect_linear_relation(self):
        rng = np.random.default_rng(3)
        d = pairwise_dists(rng.normal(0, 1, (10, 2)))
        assert residual_variance(d, 3.0 * d) <= 1e-12

    def test_unrelated_distances(self):
        rng = np.random.default_rng(4)
        a = pairwise_dists(rng.normal(0, 1, (40, 3)))
        b = pairwise_dists(rng.normal(0, 1, (40, 3)))
        assert residual_variance(a, b) > 0.5


class TestTrustworthinessContinuity:
    def test_identity_embedding(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (30, 4))
        d = pairwise_dists(x)
        t, c = trustworthiness_continuity(d, d, m=5)
        assert t == 1.0 and c == 1.0

    def test_permutation_null(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (100, 5))
        y = x[rng.permutation(100)]
        t, c = trustworthiness_continuity(pairwise_dists(x), pairwise_dists(y), m=5)
        assert t < 0.7 and c < 0.7

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (25, 3))
        y = rng.normal(0, 1, (25, 2))
        flipped = y.copy()
        flipped[:, 0] = -flipped[:, 0]
        a = trustworthiness_continuity(pairwise_dists(x), pairwise_dists(y), m=4)
        b = trustworthiness_continuity(pairwise_dists(x), pairwise_dists(flipped), m=4)
        assert a == b

    def test_m_bounds(self):
        d = pairwise_dists(np.arange(10, dtype=float)[:, None])
        with pytest.raises(ValueError):
            trustworthiness_continuity(d, d, m=5)
        with pytest.raises(ValueError):
            trustworthiness_continuity(d, d, m=0)

    def test_rejects_sentinels(self):
        d = pairwise_dists(np.arange(10, dtype=float)[:, None])
        bad = d.copy()
        bad[0, 1] = bad[1, 0] = np.inf
        with pytest.raises(ValueError):
            trustworthiness_continuity(bad, d, m=2)


class TestBlockedExactness:
    """The blocked, sort-free metrics equal the per-row loop references exactly."""

    @settings(max_examples=80, deadline=None)
    @given(grid_points(5, 40, 3, 3), st.data())
    def test_tc_equals_reference_on_grid(self, x, data):
        n = x.shape[0]
        m_max = (n - 1) // 2
        m = data.draw(st.sampled_from([1, m_max, data.draw(st.integers(1, m_max))]))
        low = data.draw(grid_points(n, n, 2, data.draw(st.integers(0, 3))))
        d_hd, d_ld = pairwise_dists(x), pairwise_dists(low)
        assert trustworthiness_continuity(d_hd, d_ld, m) == reference_tc(d_hd, d_ld, m)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_tc_rows_of_equal_distances(self, m):
        n = 9
        flat = np.ones((n, n)) - np.eye(n)  # every row one distance
        d = pairwise_dists(np.arange(n, dtype=float)[:, None])
        for a, b in ((flat, d), (d, flat), (flat, flat)):
            assert trustworthiness_continuity(a, b, m) == reference_tc(a, b, m)

    def test_tc_blocks_and_boundary_ties(self):
        # more rows than one block, duplicates and ties at the m-th entry
        rng = np.random.default_rng(14)
        x = rng.integers(0, 6, (300, 3)).astype(float)
        y = rng.integers(0, 4, (300, 2)).astype(float)
        d_hd, d_ld = pairwise_dists(x), pairwise_dists(y)
        for m in (1, 7, 149):
            assert trustworthiness_continuity(d_hd, d_ld, m) == reference_tc(d_hd, d_ld, m)

    @settings(max_examples=80, deadline=None)
    @given(grid_points(12, 40, 2, 3), st.integers(1, 7), st.integers(2, 3),
           st.integers(0, 10**6))
    def test_knn_cv_equals_reference_on_grid(self, x, k_clf, n_classes, seed):
        folds = 3
        n = x.shape[0]
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.arange(n) % n_classes) * 7 - 3
        res = knn_classify_cv(x, y, k_clf=k_clf, folds=folds, seed=seed)
        want = reference_fold_accuracies(x, y, res.fold_assignment, k_clf)
        assert np.array_equal(res.fold_accuracies, want)

    def test_knn_tied_votes_go_to_smallest_label(self):
        # each test point sees one neighbor of each class at the same distance
        x = np.array([[0.0], [-1.0], [1.0], [10.0], [9.0], [11.0]])
        y = np.array([5, 2, 5, 5, 2, 5])
        assignment = np.array([0, 1, 1, 0, 1, 1])
        res = knn_classify_cv(x, y, k_clf=2, assignment=assignment)
        want = reference_fold_accuracies(x, y, assignment, 2)
        assert np.array_equal(res.fold_accuracies, want)
        assert res.fold_accuracies[0] == 0.0  # both fold-0 points were voted label 2

    def test_knn_rejects_nonpositive_k(self):
        x, y = TestKnnClassifyCv.blobs(n_per=10)
        with pytest.raises(ValueError):
            knn_classify_cv(x, y, k_clf=0, folds=2)

    def test_tc_memory_peak_below_eight_n_squared_bytes(self):
        n = 1000
        rng = np.random.default_rng(15)
        d_hd = pairwise_dists(rng.normal(0, 1, (n, 3)))
        d_ld = pairwise_dists(rng.normal(0, 1, (n, 2)))
        tracemalloc.start()
        try:
            trustworthiness_continuity(d_hd, d_ld, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n  # one n x n int64 matrix; the loops held four

    def test_report_memory_beyond_inputs(self):
        m = 1200
        rng = np.random.default_rng(17)
        ref = pairwise_dists(rng.normal(0, 1, (m, 3)))
        coords = rng.normal(0, 1, (m, 2))
        # the embedding distances, then the upper-triangle pairs of both
        # matrices and np.corrcoef's stacked copy of them
        assert traced_peak(evaluate_embedding, ref, coords) <= 2.6 * 8 * m * m

    def test_report_matches_standalone_metrics(self):
        rng = np.random.default_rng(16)
        ref = pairwise_dists(rng.normal(0, 1, (30, 3)))
        ref[0, 5] = ref[5, 0] = ref[2, 9] = ref[9, 2] = np.inf
        coords = rng.normal(0, 1, (30, 2))
        report = evaluate_embedding(ref, coords, m=4)
        emb_d = pairwise_dists(coords)
        assert report.stress == stress(ref, emb_d)
        assert report.residual_variance == residual_variance(ref, emb_d)
        assert report.sentinel_excluded_pairs == sentinel_excluded_pairs(ref) == 2


class TestKnnClassifyCv:
    @staticmethod
    def blobs(n_per=30, sep=50.0, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (n_per, 2))
        b = rng.normal(sep, 1, (n_per, 2))
        x = np.vstack([a, b])
        y = np.array([0] * n_per + [1] * n_per)
        return x, y

    def test_separable_blobs(self):
        x, y = self.blobs()
        res = knn_classify_cv(x, y, k_clf=5, folds=5, seed=0)
        assert res.mean == 1.0

    def test_shuffled_labels_null(self):
        x, _ = self.blobs(n_per=40)
        accs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            y = rng.permutation(np.array([0] * 40 + [1] * 40))
            res = knn_classify_cv(x, y, k_clf=5, folds=5, seed=seed)
            accs.append(res.mean)
        accs = np.asarray(accs)
        se = accs.std(ddof=1) / np.sqrt(len(accs))
        assert abs(accs.mean() - 0.5) <= 3 * max(se, 0.01)

    def test_fold_determinism(self):
        y = np.array([0, 1] * 20)
        a = make_stratified_folds(y, folds=5, seed=3)
        b = make_stratified_folds(y, folds=5, seed=3)
        assert a.tobytes() == b.tobytes()
        c = make_stratified_folds(y, folds=5, seed=4)
        assert a.tobytes() != c.tobytes()

    def test_stratification(self):
        y = np.array([0] * 30 + [1] * 10)
        folds = make_stratified_folds(y, folds=5, seed=0)
        for f in range(5):
            assert np.sum((folds == f) & (y == 1)) == 2
            assert np.sum((folds == f) & (y == 0)) == 6

    def test_class_too_small(self):
        x = np.zeros((6, 2))
        y = np.array([0, 0, 0, 0, 1, 1])
        with pytest.raises(ClassTooSmall):
            knn_classify_cv(x, y, folds=3)

    def test_shared_assignment(self):
        x, y = self.blobs()
        assignment = make_stratified_folds(y, folds=5, seed=9)
        a = knn_classify_cv(x, y, assignment=assignment)
        b = knn_classify_cv(x + 1000.0, y, assignment=assignment)
        assert a.fold_assignment.tobytes() == b.fold_assignment.tobytes()

    def test_arbitrary_label_values(self):
        x, _ = self.blobs(n_per=20)
        y = np.array([-3] * 20 + [1000000] * 20)
        res = knn_classify_cv(x, y, folds=4)
        assert res.mean == 1.0


class TestUniformityCv:
    def test_constant_density_zero_cv(self):
        dens = DensityEstimate(values=np.full(10, 0.3), h=1.0, k=3)
        assert uniformity_cv(dens) <= 1e-12

    def test_zero_mean_rejected(self):
        dens = DensityEstimate(values=np.zeros(5), h=1.0, k=3)
        with pytest.raises(ZeroMeanDensity):
            uniformity_cv(dens)

    def test_grid_more_uniform_than_skewed_roll(self):
        side = 20
        gx, gy = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        roll = gen_swiss_roll(side * side, density_exponent=3.0, seed=0)
        h = 2.5
        cv_grid = uniformity_cv(pr_density(grid, knn_graph(grid, 6, h)))
        cv_roll = uniformity_cv(pr_density(roll.ambient, knn_graph(roll.ambient, 6, h)))
        assert cv_grid < cv_roll

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (60, 3))
        h = 1.7
        c = 3.9
        cv1 = uniformity_cv(pr_density(x, knn_graph(x, 5, h)))
        cv2 = uniformity_cv(pr_density(c * x, knn_graph(c * x, 5, c * h)))
        assert abs(cv1 - cv2) <= 1e-9

    def test_high_dimensional_cv_finite(self):
        # normalization constant cancels, so the cv survives d=784
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 255, (50, 784))
        from prisomap.graph import knn_candidates, percentile_h

        h = percentile_h(knn_candidates(x, 5)[1], 60)
        cv = uniformity_cv(pr_density(x, knn_graph(x, 5, h)))
        assert np.isfinite(cv) and cv >= 0.0


class TestRigidMotionInvariance:
    def test_metrics_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (60, 5))
        coords = rng.normal(0, 1, (60, 3))
        y = np.array([0] * 30 + [1] * 30)
        moved = random_rigid_motion(coords, seed=10)
        d_hd = pairwise_dists(x)

        s1 = stress(d_hd, pairwise_dists(coords))
        s2 = stress(d_hd, pairwise_dists(moved))
        assert abs(s1 - s2) <= 1e-9

        tc1 = trustworthiness_continuity(d_hd, pairwise_dists(coords), m=6)
        tc2 = trustworthiness_continuity(d_hd, pairwise_dists(moved), m=6)
        assert tc1 == tc2

        a1 = knn_classify_cv(coords, y, folds=5, seed=0)
        a2 = knn_classify_cv(moved, y, folds=5, seed=0)
        np.testing.assert_allclose(a1.fold_accuracies, a2.fold_accuracies, atol=1e-12)


class TestEvalReport:
    def test_sentinel_reference_yields_nan_tc(self, tmp_path):
        rng = np.random.default_rng(13)
        coords = rng.normal(0, 1, (12, 2))
        ref = pairwise_dists(rng.normal(0, 1, (12, 3)))
        ref[0, 1] = ref[1, 0] = np.inf
        report = evaluate_embedding(ref, coords, m=3)
        assert np.isnan(report.trustworthiness)
        assert report.sentinel_excluded_pairs == 1
        assert np.isfinite(report.stress)
        import json

        payload = json.loads(report.to_json(tmp_path / "r.json"))
        assert payload["trustworthiness"] == "nan"

    def test_report_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (40, 4))
        emb = classical_mds(x, p=2)
        report = evaluate_embedding(
            pairwise_dists(x), emb.coordinates, m=5,
            labels=np.array([0, 1] * 20), folds=4, seed=0,
            run={"method": "mds"},
        )
        assert 0.0 <= report.stress
        assert 0.0 <= report.trustworthiness <= 1.0
        assert report.knn_folds == 4
        text = report.to_json(tmp_path / "r.json")
        import json

        payload = json.loads(text)
        assert payload["schema"] == "evalreport/1"
        assert payload["run"]["method"] == "mds"
        line = report.to_csv_line()
        assert len(line.split(",")) == len(report.CSV_FIELDS)
