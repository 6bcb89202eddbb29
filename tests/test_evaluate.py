import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prisomap import evaluate
from prisomap.datasets import gen_swiss_roll
from prisomap.embed import classical_mds
from prisomap.errors import InputError, NumericError
from prisomap.evaluate import (
    _BLOCK_ROWS,
    _NOT_FINITE,
    _matrix_scores,
    evaluate_embedding,
    knn_classify_cv,
    make_stratified_folds,
    residual_variance,
    stress,
    trustworthiness_continuity,
    uniformity_cv,
)
from prisomap.graph import knn_candidates, pr_density
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
        # m is checked against n = 3 before any block, sentinels or not
        report = evaluate_embedding([[0.0], [1.0], [3.0]], reference_dists=d, m=1)
        assert report.sentinel_excluded_pairs == 1

    def test_no_finite_pairs(self):
        d = np.full((3, 3), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(NumericError, match="no finite high-dimensional pairs"):
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


def long_double_scores(d_hd, d_ld):
    """(sentinels, stress, residual variance) over the pairs i<j whose d_hd is
    finite, summed in np.longdouble; a side whose pairs are all equal gives
    residual variance 0.0 if the other's are too, else 1.0."""
    upper = np.triu_indices(d_hd.shape[0], 1)
    finite = np.isfinite(d_hd[upper])
    a = d_hd[upper][finite].astype(np.longdouble)
    b = d_ld[upper][finite].astype(np.longdouble)
    num, denom = np.sum((a - b) ** 2), np.sum(a * a)
    stress = np.sqrt(num / denom) if denom else 0.0 if num == 0 else np.inf
    constant = [bool(np.all(a == a[0])), bool(np.all(b == b[0]))]
    if any(constant):
        rv = 0.0 if all(constant) else 1.0
    else:
        da, db = a - a.mean(), b - b.mean()
        rv = 1 - np.sum(da * db) ** 2 / (np.sum(da * da) * np.sum(db * db))
    return int(finite.size - np.count_nonzero(finite)), float(stress), float(rv)


def assert_near(got, want):
    """Within 1e-13 relative of the oracle. 1 - r^2 cancels as r^2 nears 1,
    where every float64 sum leaves an error of a few ulps of 1: hence the
    1e-15 floor, which no score above 0.01 reaches."""
    assert abs(got - want) <= 1e-13 * abs(want) + 1e-15, (got, want)


class TestResidualVarianceOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from(["varied", "constant d_hd", "constant d_ld", "both constant"]),
           st.sampled_from([0.0, 0.1, 0.6, 0.95]))
    @example(n=2, seed=0, shape="varied", sentinel_share=0.0)  # P = 1
    @example(n=3, seed=1, shape="varied", sentinel_share=0.6)
    @example(n=3, seed=121, shape="varied", sentinel_share=0.0)  # 1 - r^2 is 8.9e-8
    def test_equals_a_long_double_oracle(self, n, seed, shape, sentinel_share):
        rng = np.random.default_rng(seed)
        d_hd = rng.gamma(2.0, 1.5, (n, n))
        d_ld = 3.0 * d_hd + rng.normal(0, 1, (n, n))
        if shape in ("constant d_hd", "both constant"):
            d_hd[:] = 2.5
        if shape in ("constant d_ld", "both constant"):
            d_ld[:] = 0.5
        d_hd[rng.random((n, n)) < sentinel_share] = np.inf
        if not np.isfinite(d_hd[np.triu_indices(n, 1)]).any():
            with pytest.raises(NumericError, match="no finite high-dimensional pairs"):
                residual_variance(d_hd, d_ld)
            return
        _, want_stress, want_rv = long_double_scores(d_hd, d_ld)
        got = residual_variance(d_hd, d_ld)
        if shape != "varied":  # a constant side: the rule's value, exactly
            assert got == want_rv
        assert_near(got, want_rv)
        assert_near(stress(d_hd, d_ld), want_stress)

    def test_pinned_scores_of_a_seeded_input(self):
        rng = np.random.default_rng(2024)
        x = rng.normal(0, 1, (240, 4))
        ref = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        coords = x[:, :2] + rng.normal(0, 0.3, (240, 2))
        labels = (x[:, 0] > 0).astype(np.int64) + 2 * (x[:, 1] > 0)
        report = evaluate_embedding(coords, reference_dists=ref, m=10, labels=labels, folds=5,
                                    seed=7)
        got = [repr(getattr(report, name)) for name in (
            "trustworthiness", "continuity", "knn_accuracy_mean", "knn_accuracy_sd")]
        assert got == ["0.7642279138827023", "0.8685040831477358", "0.7791415828125885",
                       "0.024331903309173807"]
        _, want_stress, want_rv = long_double_scores(ref, pairwise_dists(coords))
        assert_near(report.stress, want_stress)
        assert_near(report.residual_variance, want_rv)
        ref[ref > np.percentile(ref, 90)] = np.inf  # the sentinel path
        report = evaluate_embedding(coords, reference_dists=ref, m=10)
        sentinels, want_stress, want_rv = long_double_scores(ref, pairwise_dists(coords))
        assert_near(report.stress, want_stress)
        assert_near(report.residual_variance, want_rv)
        assert report.sentinel_excluded_pairs == sentinels == 2880


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

    @pytest.mark.parametrize("k_clf", [1, 2, 4, 7])
    def test_knn_class_absent_from_a_training_fold_gets_no_vote(self, k_clf):
        # every member of label -4, the smallest, sits in fold 0, so fold 0's
        # training rows lack it; integer grid points tie votes and distances
        rng = np.random.default_rng(21)
        x = rng.integers(0, 4, (60, 2)).astype(float)
        y = rng.permutation(np.arange(60) % 3) * 5
        y[:6] = -4
        assignment = np.arange(60) % 3
        assignment[:6] = 0
        res = knn_classify_cv(x, y, k_clf=k_clf, assignment=assignment)
        want = reference_fold_accuracies(x, y, assignment, k_clf)
        assert np.array_equal(res.fold_accuracies, want)

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
        # row blocks of both sides: no m x m matrix beyond the reference given
        assert traced_peak(lambda: evaluate_embedding(coords, reference_dists=ref)) \
            <= 2.1 * 8 * m * m

    def test_report_matches_standalone_metrics(self):
        rng = np.random.default_rng(16)
        ref = pairwise_dists(rng.normal(0, 1, (30, 3)))
        ref[0, 5] = ref[5, 0] = ref[2, 9] = ref[9, 2] = np.inf
        coords = rng.normal(0, 1, (30, 2))
        report = evaluate_embedding(coords, reference_dists=ref, m=4)
        emb_d = pairwise_dists(coords)
        sentinels, want_stress, want_rv = long_double_scores(ref, emb_d)
        for got in (report.stress, stress(ref, emb_d)):
            assert_near(got, want_stress)
        for got in (report.residual_variance, residual_variance(ref, emb_d)):
            assert_near(got, want_rv)
        assert report.sentinel_excluded_pairs == sentinels == 2


def block_edge_inputs(n):
    """n points in 3-D, and 2-D coordinates that roughly follow them."""
    rng = np.random.default_rng(n)
    x = rng.normal(0, 1, (n, 3))
    return x, x[:, :2] + rng.normal(0, 0.3, (n, 2))


class TestScoringInRowBlocks:
    # one pair; one row beyond a block's first; and one row below, at and
    # above one and two blocks of _BLOCK_ROWS rows, and a bench op's size
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 1433])
    def test_block_edges_equal_the_oracles(self, n):
        assert _BLOCK_ROWS == 128
        x, coords = block_edge_inputs(n)
        d_hd, d_ld = pairwise_dists(x), pairwise_dists(coords)
        _, want_stress, want_rv = long_double_scores(d_hd, d_ld)
        if n == 2:  # no T/C neighborhood fits
            assert_near(stress(d_hd, d_ld), want_stress)
            assert_near(residual_variance(d_hd, d_ld), want_rv)
            return
        m = min(5, (n - 1) // 2)
        by_points = evaluate_embedding(coords, reference_points=x, m=m)
        by_matrix = evaluate_embedding(coords, reference_dists=d_hd, m=m)
        want_tc = reference_tc(d_hd, d_ld, m)
        for report in (by_points, by_matrix):
            assert (report.trustworthiness, report.continuity) == want_tc
            assert report.sentinel_excluded_pairs == 0
            assert_near(report.stress, want_stress)
            assert_near(report.residual_variance, want_rv)

    @pytest.mark.parametrize("m", [1, 10, 100])
    def test_points_reference_and_its_matrix_give_equal_tc(self, m):
        x, coords = block_edge_inputs(700)
        by_points = evaluate_embedding(coords, reference_points=x, m=m)
        by_matrix = evaluate_embedding(coords, reference_dists=pairwise_dists(x), m=m)
        assert (by_points.trustworthiness, by_points.continuity) == \
            (by_matrix.trustworthiness, by_matrix.continuity) == \
            trustworthiness_continuity(pairwise_dists(x), pairwise_dists(coords), m)

    @pytest.mark.parametrize("m, share", [(40, 0.0), (40, 0.3), (257, 0.05), (300, 0.01),
                                          (300, 0.2), (600, 0.5)])
    def test_scores_equal_the_oracle_with_sentinels(self, m, share):
        rng = np.random.default_rng(31 + m)
        ref = pairwise_dists(rng.normal(0, 1, (m, 3)))
        coords = rng.normal(0, 1, (m, 2))
        upper = np.triu(rng.random((m, m)) < share, k=1)
        ref[upper | upper.T] = np.inf
        report = evaluate_embedding(coords, reference_dists=ref, m=5)
        sentinels, want_stress, want_rv = long_double_scores(ref, pairwise_dists(coords))
        assert report.sentinel_excluded_pairs == sentinels == int(upper.sum())
        assert_near(report.stress, want_stress)
        assert_near(report.residual_variance, want_rv)
        assert np.isnan(report.trustworthiness) == bool(share)

    def test_constant_sides_over_several_blocks(self):
        n = 300
        rng = np.random.default_rng(41)
        varied = pairwise_dists(rng.normal(0, 1, (n, 2)))
        flat = np.full((n, n), 2.5)
        # each block's pairs are equal, but the blocks' values differ
        stepped = np.repeat(1.0 + np.arange(n) // _BLOCK_ROWS, n).reshape(n, n)
        for d_hd, d_ld, want in ((flat, varied, 1.0), (varied, flat, 1.0), (flat, flat, 0.0),
                                 (stepped, stepped, 0.0)):
            assert residual_variance(d_hd, d_ld) == want
        for d_hd, d_ld in ((stepped, varied), (varied, stepped)):
            assert 0.0 < residual_variance(d_hd, d_ld) < 1.0
            assert_near(residual_variance(d_hd, d_ld), long_double_scores(d_hd, d_ld)[2])
        # the finite pairs left by the sentinels, row 0's, are all equal
        with_sentinels = np.full((n, n), np.inf)
        with_sentinels[0] = 2.5
        assert residual_variance(with_sentinels, varied) == 1.0
        assert residual_variance(with_sentinels, flat) == 0.0

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(37)
        x = rng.normal(0, 1, (300, 3))
        ref = pairwise_dists(x)
        ref[3, 7] = ref[7, 3] = np.inf
        coords = rng.normal(0, 1, (300, 2))
        for reference in ({"reference_dists": ref},
                          {"reference_dists": np.where(np.isfinite(ref), ref, 1e3)},
                          {"reference_points": x}):
            given = next(iter(reference.values()))
            before = given.tobytes(), coords.tobytes()
            evaluate_embedding(coords, **reference, m=5, labels=np.arange(300) % 3, folds=3)
            assert (given.tobytes(), coords.tobytes()) == before

    def test_reference_is_given_once_by_keyword(self):
        x, coords = block_edge_inputs(20)
        with pytest.raises(TypeError):  # a positional m x m array is no reference
            evaluate_embedding(pairwise_dists(x), coords)
        for reference in ({}, {"reference_points": x, "reference_dists": pairwise_dists(x)}):
            with pytest.raises(ValueError, match="exactly one of reference_points"):
                evaluate_embedding(coords, **reference, m=3)
        with pytest.raises(ValueError, match="must be square"):
            evaluate_embedding(coords, reference_dists=pairwise_dists(x)[:, :5], m=3)

    def test_report_memory_within_one_and_six_tenths_m_squared(self):
        m = 1200
        rng = np.random.default_rng(17)
        ref = pairwise_dists(rng.normal(0, 1, (m, 3)))
        coords = rng.normal(0, 1, (m, 2))
        assert traced_peak(lambda: evaluate_embedding(coords, reference_dists=ref)) \
            <= 1.6 * 8 * m * m

    # both sides' row blocks, T/C's sorted copies and the pairs of a block:
    # about five blocks of 128 float64 rows per task, seven with two tasks
    @pytest.mark.parametrize("m", [1200, 3000])
    def test_points_reference_memory_in_row_blocks(self, m):
        rng = np.random.default_rng(17)
        points, coords = rng.normal(0, 1, (m, 3)), rng.normal(0, 1, (m, 2))
        assert traced_peak(lambda: evaluate_embedding(coords, reference_points=points)) \
            <= 12 * _BLOCK_ROWS * m * 8

    def test_sentinel_matrix_memory_in_row_blocks(self):
        # 1% unreachable pairs, as a windowed geodesic reference has; the
        # (2, P) pairs and their compacted copy once peaked at 2.55 m^2 here
        m = 1200
        rng = np.random.default_rng(43)
        ref = pairwise_dists(rng.normal(0, 1, (m, 3)))
        upper = np.triu(rng.random((m, m)) < 0.01, k=1)
        ref[upper | upper.T] = np.inf
        coords = rng.normal(0, 1, (m, 2))
        assert traced_peak(lambda: evaluate_embedding(coords, reference_dists=ref)) \
            <= 12 * _BLOCK_ROWS * m * 8


def by_worker_count(monkeypatch, func):
    """func's outcome, its result or its exception's type and message, with
    one scoring thread and then with two; the affinity mask holds 64 CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(evaluate, "_MAX_WORKERS", workers)
        try:
            outcomes.append(repr(func()))
        except (ValueError, NumericError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestScoringThreads:
    """The blocks and folds run on up to two threads, and no output depends
    on how many: repr shows every float's bits, NaN included."""

    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 1433])
    def test_one_and_two_threads_give_equal_scores(self, monkeypatch, n):
        x, coords = block_edge_inputs(n)
        d_hd, d_ld = pairwise_dists(x), pairwise_dists(coords)
        for m in (None, min(5, (n - 1) // 2) or None):
            one, two = by_worker_count(monkeypatch, lambda: _matrix_scores(d_hd, d_ld, m))
            assert one == two
        one, two = by_worker_count(
            monkeypatch, lambda: evaluate_embedding(coords, reference_points=x, m=1))
        assert one == two

    def test_sentinel_and_non_finite_blocks_in_the_middle(self, monkeypatch):
        n = 400  # blocks from rows 0, 128, 256 and 384
        x, coords = block_edge_inputs(n)
        d_hd, d_ld = pairwise_dists(x), pairwise_dists(coords)
        sentinel = d_hd.copy()
        sentinel[200, 300] = sentinel[300, 200] = np.inf
        not_finite = d_ld.copy()
        not_finite[300, 350] = not_finite[350, 300] = np.nan  # both in the third block
        # T/C ends at the sentinel's block, so the later NaN raises nothing
        for ref, emb in ((sentinel, d_ld), (sentinel, not_finite)):
            one, two = by_worker_count(monkeypatch, lambda: _matrix_scores(ref, emb, 5))
            assert one == two and "'trustworthiness': nan" in one
        one, two = by_worker_count(monkeypatch, lambda: _matrix_scores(d_hd, not_finite, 5))
        assert one == two == (ValueError, _NOT_FINITE)
        one, two = by_worker_count(
            monkeypatch, lambda: _matrix_scores(np.full((n, n), np.inf), d_ld, None))
        assert one == two == (NumericError, "no finite high-dimensional pairs to score")

    def test_one_and_two_threads_give_equal_fold_accuracies(self, monkeypatch):
        x, coords = block_edge_inputs(700)
        labels = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0)
        one, two = by_worker_count(
            monkeypatch, lambda: knn_classify_cv(coords, labels, k_clf=7).fold_accuracies)
        assert one == two

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        x, coords = block_edge_inputs(300)
        labels = np.arange(300) % 3
        before = threading.active_count()
        evaluate_embedding(coords, reference_points=x, m=5, labels=labels)
        assert threading.active_count() == before
        coords[250] = np.inf
        # the threads score under the caller's errstate: no warning becomes an error
        with pytest.raises(ValueError, match="require finite distances"), \
                warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            evaluate_embedding(coords, reference_points=x, m=5)
        assert threading.active_count() == before

    # more threads than CPUs, switching as often as the interpreter can
    def test_eight_threads_switching_often_give_one_thread_scores(self, monkeypatch):
        x, coords = block_edge_inputs(1433)
        labels = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        scored = {}
        interval = sys.getswitchinterval()
        for workers in (1, 8):
            monkeypatch.setattr(evaluate, "_MAX_WORKERS", workers)
            sys.setswitchinterval(1e-6)
            try:
                scored[workers] = repr(evaluate_embedding(coords, reference_points=x, m=5,
                                                          labels=labels, folds=12))
            finally:
                sys.setswitchinterval(interval)
        assert scored[8] == scored[1]

    # the count as arithmetic: no thread starts before a task is submitted
    def test_worker_count_is_capped_at_two(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        for tasks, want in ((100, 2), (2, 2), (1, 1), (0, 1)):
            with evaluate._pool(tasks) as pool:
                assert pool._max_workers == want
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with evaluate._pool(100) as pool:
            assert pool._max_workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        with evaluate._pool(100) as pool:
            assert pool._max_workers == 1


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
        with pytest.raises(InputError, match="classes with fewer members than folds=3"):
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
        assert uniformity_cv(np.full(10, 3.0)) <= 1e-12

    def test_zero_mean_rejected(self):
        with pytest.raises(NumericError, match="density is identically zero"):
            uniformity_cv(np.zeros(5))

    def test_grid_more_uniform_than_skewed_roll(self):
        side = 20
        gx, gy = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        roll = gen_swiss_roll(side * side, density_exponent=3.0, seed=0)
        h = 2.5
        cv_grid = uniformity_cv(pr_density(knn_candidates(grid, 6)[1], h))
        cv_roll = uniformity_cv(pr_density(knn_candidates(roll.ambient, 6)[1], h))
        assert cv_grid < cv_roll

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (60, 3))
        h = 1.7
        c = 3.9
        cv1 = uniformity_cv(pr_density(knn_candidates(x, 5)[1], h))
        cv2 = uniformity_cv(pr_density(knn_candidates(c * x, 5)[1], c * h))
        assert abs(cv1 - cv2) <= 1e-9

    def test_high_dimensional_cv_finite(self):
        # normalization constant cancels, so the cv survives d=784
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 255, (50, 784))
        from prisomap.graph import percentile_h

        _, cand_dist = knn_candidates(x, 5)
        h = percentile_h(cand_dist, 60)
        cv = uniformity_cv(pr_density(cand_dist, h))
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
        report = evaluate_embedding(coords, reference_dists=ref, m=3)
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
            emb.coordinates, reference_points=x, m=5,
            labels=np.array([0, 1] * 20), folds=4, seed=0,
            run={"method": "mds"},
        )
        assert 0.0 <= report.stress
        assert 0.0 <= report.trustworthiness <= 1.0
        assert report.knn_folds == 4
        text = report.to_json(tmp_path / "r.json")
        import json

        payload = json.loads(text)
        assert payload["schema"] == "evalreport/2"
        assert payload["run"]["method"] == "mds"
        assert list(report.row()) == list(report.CSV_FIELDS)
