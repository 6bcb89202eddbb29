import math
import tracemalloc
import warnings

import numpy as np
import pytest

from prisomap import bench
from prisomap.bench import MethodSpec, Neighbors, resolve_h, run_bench
from prisomap.datasets import gen_swiss_roll, swiss_roll_unrolled
from prisomap.errors import InputError
from prisomap.evaluate import evaluate_embedding

from helpers import traced_peak


def labeled_roll(n=300, seed=0, **kwargs):
    sample = gen_swiss_roll(n, seed=seed, **kwargs)
    # two classes split by height, a structure every method can recover
    labels = (sample.intrinsic[:, 1] > 10.5).astype(np.int64)
    chart = swiss_roll_unrolled(sample.intrinsic)  # points whose distances are the truth
    return sample, labels, chart


def table_without_timing(result):
    """bench.csv's rows but for the wall clock, each value as its repr."""
    return [{key: repr(value) for key, value in row.items() if key != "embed_seconds"}
            for row in result.table_rows()]


class TestMethodSpec:
    # the window is checked when the spec is made, before any method runs
    def test_pr_isomap_requires_one_h_form(self):
        with pytest.raises(InputError, match="pr-isomap needs h or h_percentile"):
            MethodSpec("pr-isomap", 2, k=5)
        with pytest.raises(InputError, match="h and h_percentile are mutually exclusive"):
            MethodSpec("pr-isomap", 2, k=5, h=1.0, h_percentile=60.0)

    def test_window_as_given(self):
        assert MethodSpec("pr-isomap", 2, k=5, h=1).window == {"h": 1.0}
        assert MethodSpec("pr-isomap", 2, k=5, h_percentile=60).window == {"h_percentile": 60.0}
        assert MethodSpec("isomap", 2, k=5).window == {"h": math.inf}
        assert MethodSpec("pca", 2).window is None

    def test_percentile_resolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (40, 2))
        spec = MethodSpec(method="pr-isomap", p=2, k=4, h_percentile=50.0)
        assert resolve_h(spec, Neighbors(x)) > 0

    def test_other_methods_ignore_h(self):
        assert resolve_h(MethodSpec(method="pca", p=2), Neighbors(np.zeros((10, 2)))) is None

    def test_duplicates_warn_once_per_pass(self):
        from prisomap.errors import DegenerateDuplicatesWarning

        x = np.repeat(np.random.default_rng(1).normal(0, 1, (10, 2)), 3, axis=0)
        neighbors = Neighbors(x)
        # 60 of the 90 candidate lengths join repeated points: 0, so h comes
        # from a higher percentile
        spec = MethodSpec(method="pr-isomap", p=2, k=3, h_percentile=80.0)
        with pytest.warns(DegenerateDuplicatesWarning, match="zero-distance pairs"):
            h = resolve_h(spec, neighbors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = neighbors.graph(3, h)  # same pass: no second warning
        assert (graph.adjacency.data > 0).all()

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
        res = run_bench(sample.ambient, specs, reference_points=chart, labels=labels,
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
                        reference_points=chart)
        assert res.paired_deltas == {}

    def test_baseline_must_name_a_method(self):
        sample, _, chart = labeled_roll(n=200, seed=2)
        specs = [MethodSpec(method="pca", p=2), MethodSpec(method="mds", p=2)]
        with pytest.raises(InputError, match="baseline"):
            run_bench(sample.ambient, specs, reference_points=chart, baseline="isomap")

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
        res = run_bench(sample.ambient, specs, reference_points=chart, labels=labels,
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
        chart = swiss_roll_unrolled(sample.intrinsic)
        specs = [
            MethodSpec(method="pr-isomap", p=2, k=12, h_percentile=70.0),
            MethodSpec(method="isomap", p=2, k=12),
        ]
        res = run_bench(sample.ambient, specs, reference_points=chart, baseline="isomap")
        assert res.reports["pr-isomap"].stress < res.reports["isomap"].stress
        assert (res.reports["pr-isomap"].trustworthiness
                > res.reports["isomap"].trustworthiness)

    def test_memory_peak_with_the_reference_built_inline(self):
        n = 800
        sample = gen_swiss_roll(n, density_exponent=3.0, seed=0, short_circuit_pairs=0.01)
        labels = np.arange(n) % 4
        specs = [MethodSpec(method="pr-isomap", p=2, k=12, h_percentile=60.0),
                 MethodSpec(method="isomap", p=2, k=12), MethodSpec(method="pca", p=2)]

        def bench():  # bench without --chart: the ambient distances are the reference
            return run_bench(sample.ambient, specs, labels=labels)

        # scoring takes the reference in row blocks, so the op peaks in the
        # pr-isomap run (1.41 n^2), not in the metric layer (0.79 n^2)
        assert traced_peak(bench) <= 3.2 * 8 * n * n

    def test_memory_peak_with_the_reference_built_after_the_runs(self, monkeypatch):
        n = 800
        sample = gen_swiss_roll(n, density_exponent=3.0, seed=0, short_circuit_pairs=0.01)
        labels = np.arange(n) % 4
        specs = [MethodSpec(method="pr-isomap", p=2, k=12, h_percentile=60.0),
                 MethodSpec(method="isomap", p=2, k=12), MethodSpec(method="pca", p=2)]
        chart = swiss_roll_unrolled(sample.intrinsic)

        live_at_run = []
        run_method = bench.run_method

        def recording(*args, **kwargs):
            if tracemalloc.is_tracing():
                live_at_run.append(tracemalloc.get_traced_memory()[0])
            return run_method(*args, **kwargs)

        monkeypatch.setattr(bench, "run_method", recording)

        def op():  # as the CLI calls it: the chart's points, no n x n reference
            return run_bench(sample.ambient, specs, labels=labels, reference_points=chart)

        # no reference lives through a method's run (it held 1.0 n^2 there),
        # and scoring builds no n x n matrix, so the op peaks in the pr-isomap
        # run: 1.41 n^2 here
        assert traced_peak(op) <= 2.5 * 8 * n * n
        assert len(live_at_run) == 3 and max(live_at_run) < 0.25 * 8 * n * n

    def test_methods_scored_together_equal_each_scored_alone(self):
        sample, labels, chart = labeled_roll(n=300, seed=9, density_exponent=3.0)
        specs = [MethodSpec(method="pr-isomap", p=2, k=8, h_percentile=70.0),
                 MethodSpec(method="isomap", p=2, k=8), MethodSpec(method="pca", p=2)]
        res = run_bench(sample.ambient, specs, labels=labels, folds=4, seed=3,
                        reference_points=chart)
        common = res.common_vertices
        for name, report in res.reports.items():
            # each method alone against the chart's common points, which
            # the three reports were scored on in turn
            emb = res.embeddings[name]
            alone = evaluate_embedding(
                emb.coordinates[np.searchsorted(emb.kept_indices, common)],
                reference_points=chart[common], labels=labels[common], folds=4, seed=3)
            for metric in ("stress", "residual_variance", "trustworthiness", "continuity",
                           "knn_accuracy_mean", "knn_accuracy_sd",
                           "sentinel_excluded_pairs"):
                assert repr(getattr(report, metric)) == repr(getattr(alone, metric))

    def test_a_wrong_reference_fails_before_any_method(self, monkeypatch):
        sample, _, _ = labeled_roll(n=60, seed=5)
        calls = {"count": 0}
        run_method = bench.run_method

        def counting(*args, **kwargs):
            calls["count"] += 1
            return run_method(*args, **kwargs)

        monkeypatch.setattr(bench, "run_method", counting)
        specs = [MethodSpec(method="pca", p=2)]
        with pytest.raises(ValueError, match="reference_points must have 60 rows"):
            run_bench(sample.ambient, specs, reference_points=np.zeros((59, 2)))
        assert calls["count"] == 0
        run_bench(sample.ambient, specs, reference_points=sample.intrinsic)
        assert calls["count"] == 1

    def test_validation(self):
        sample, _, _ = labeled_roll(n=60, seed=5)
        with pytest.raises(ValueError):
            run_bench(sample.ambient, [])
        with pytest.raises(ValueError):
            run_bench(sample.ambient, [MethodSpec(method="pca", p=2)],
                      reference_points=np.zeros((3, 2)))
        with pytest.raises(TypeError):  # all but the data and the methods are keywords
            run_bench(sample.ambient, [MethodSpec(method="pca", p=2)], sample.intrinsic)
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
