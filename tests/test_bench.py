import numpy as np
import pytest

from prisomap.bench import MethodSpec, run_bench
from prisomap.datasets import gen_swiss_roll, swiss_roll_unrolled
from prisomap.errors import InputError
from prisomap.linalg import pairwise_dists


def labeled_roll(n=300, seed=0, **kwargs):
    sample = gen_swiss_roll(n, seed=seed, **kwargs)
    # two classes split by height, a structure every method can recover
    labels = (sample.intrinsic[:, 1] > 10.5).astype(np.int64)
    chart = pairwise_dists(swiss_roll_unrolled(sample.intrinsic))
    return sample, labels, chart


class TestMethodSpec:
    def test_pr_isomap_requires_one_h_form(self):
        with pytest.raises(ValueError):
            MethodSpec(method="pr-isomap", p=2, k=5).resolve_h(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            MethodSpec(method="pr-isomap", p=2, k=5, h=1.0, h_percentile=60.0).resolve_h(
                np.zeros((10, 2))
            )

    def test_percentile_resolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (40, 2))
        spec = MethodSpec(method="pr-isomap", p=2, k=4, h_percentile=50.0)
        assert spec.resolve_h(x) > 0

    def test_other_methods_ignore_h(self):
        assert MethodSpec(method="pca", p=2).resolve_h(np.zeros((10, 2))) is None

    @pytest.mark.parametrize("method", ["pr-isomap", "isomap"])
    def test_graph_methods_require_k(self, method):
        with pytest.raises(InputError, match="k"):
            MethodSpec(method=method, p=2, h=1.0)


class TestRunBench:
    def test_table_and_deltas(self):
        sample, labels, chart = labeled_roll(n=250, seed=1)
        specs = [
            MethodSpec(method="isomap", p=2, k=8),
            MethodSpec(method="pca", p=2),
        ]
        res = run_bench(sample.ambient, specs, reference=chart, labels=labels,
                        baseline="isomap", folds=4, seed=0)
        assert set(res.reports) == {"isomap", "pca"}
        assert res.baseline == "isomap"
        assert "pca" in res.paired_deltas and "isomap" not in res.paired_deltas
        delta = res.paired_deltas["pca"]["stress"]
        assert delta == pytest.approx(
            res.reports["pca"].stress - res.reports["isomap"].stress
        )
        rows = res.table_rows()
        assert {row["method"] for row in rows} == {"isomap", "pca"}

    def test_single_method_no_deltas(self):
        sample, _, chart = labeled_roll(n=200, seed=2)
        res = run_bench(sample.ambient, [MethodSpec(method="pca", p=2)],
                        reference=chart)
        assert res.paired_deltas == {}

    def test_shared_folds_across_methods(self):
        sample, labels, _ = labeled_roll(n=200, seed=3)
        specs = [MethodSpec(method="pca", p=2), MethodSpec(method="mds", p=2)]
        res = run_bench(sample.ambient, specs, labels=labels, folds=4, seed=5,
                        baseline="pca")
        a = res.reports["pca"]
        b = res.reports["mds"]
        assert a.knn_folds == b.knn_folds == 4

    def test_common_subset_when_capped_method_drops(self):
        sample, labels, chart = labeled_roll(n=300, seed=4, density_exponent=3.0)
        specs = [
            MethodSpec(method="pr-isomap", p=2, k=8, h_percentile=70.0),
            MethodSpec(method="isomap", p=2, k=8),
        ]
        res = run_bench(sample.ambient, specs, reference=chart, labels=labels,
                        baseline="isomap", folds=4)
        pr_kept = res.embeddings["pr-isomap"].kept_indices
        np.testing.assert_array_equal(res.common_vertices, pr_kept)
        assert res.reports["pr-isomap"].kept_fraction <= 1.0
        assert res.reports["pr-isomap"].density_cv is not None
        assert res.reports["isomap"].density_cv is None

    def test_directional_improvement_on_welded_roll(self):
        # single-seed version of the paired acceptance comparison
        sample = gen_swiss_roll(800, density_exponent=3.0, seed=0,
                                short_circuit_pairs=0.01)
        chart = pairwise_dists(swiss_roll_unrolled(sample.intrinsic))
        specs = [
            MethodSpec(method="pr-isomap", p=2, k=12, h_percentile=70.0),
            MethodSpec(method="isomap", p=2, k=12),
        ]
        res = run_bench(sample.ambient, specs, reference=chart, baseline="isomap")
        assert res.reports["pr-isomap"].stress < res.reports["isomap"].stress
        assert (res.reports["pr-isomap"].trustworthiness
                > res.reports["isomap"].trustworthiness)

    def test_validation(self):
        sample, _, _ = labeled_roll(n=60, seed=5)
        with pytest.raises(ValueError):
            run_bench(sample.ambient, [])
        with pytest.raises(ValueError):
            run_bench(sample.ambient, [MethodSpec(method="pca", p=2)],
                      reference=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            run_bench(sample.ambient,
                      [MethodSpec(method="pca", p=2), MethodSpec(method="pca", p=3)])

    def test_ten_class_downstream_protocol(self):
        # the multi-class accuracy-table protocol on synthetic data: ten bands
        # along the roll's arc, classified from p-dim embeddings with shared folds
        sample = gen_swiss_roll(600, seed=6)
        arc = swiss_roll_unrolled(sample.intrinsic)[:, 0]
        labels = np.digitize(arc, np.quantile(arc, np.linspace(0.1, 0.9, 9)))
        specs = [
            MethodSpec(method="pr-isomap", p=4, k=10, h_percentile=80.0),
            MethodSpec(method="isomap", p=4, k=10),
            MethodSpec(method="pca", p=3),
        ]
        res = run_bench(sample.ambient, specs, labels=labels, baseline="isomap",
                        folds=5, seed=0)
        for name in ("pr-isomap", "isomap", "pca"):
            rep = res.reports[name]
            assert rep.knn_accuracy_mean is not None
            assert 0.0 <= rep.knn_accuracy_mean <= 1.0
        # bands along the unrolled arc are easy for any isometry-preserving method
        assert res.reports["isomap"].knn_accuracy_mean > 0.5
        assert set(res.paired_deltas) == {"pr-isomap", "pca"}
        assert res.paired_deltas["pca"]["knn_accuracy_mean"] is not None
