import math

import numpy as np
import pytest

from prisomap.bench import isomap, pr_isomap
from prisomap.datasets import gen_swiss_roll
from prisomap.embed import (
    LARGEST_COMPONENT_POLICY,
    classical_mds,
    elbow,
    embed_geodesics,
    embedding_descriptor,
    load_embedding_csv,
    pca,
    save_embedding_csv,
)
from prisomap.errors import GraphError
from prisomap.evaluate import residual_variance
from prisomap.geodesics import all_pairs
from prisomap.graph import components, knn_graph
from prisomap.linalg import pairwise_dists

from helpers import graph_from_rows, traced_peak, welded_roll_graph


def line_in_r3(n=20, spacing=0.7):
    direction = np.array([1.0, 2.0, -2.0])
    direction /= np.linalg.norm(direction)
    return np.arange(n)[:, None] * spacing * direction[None, :]


class TestPrIsomap:
    def test_line_chart_recovery(self):
        spacing = 0.7
        x = line_in_r3(20, spacing)
        emb = pr_isomap(x, k=2, h=2 * spacing + 1e-9, p=1)
        got = pairwise_dists(emb.coordinates)
        idx = np.arange(20)
        want = np.abs(idx[:, None] - idx[None, :]) * spacing
        assert np.abs(got - want).max() <= 1e-6

    def test_infinite_h_reduces_to_isomap(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (60, 4))
        a = pr_isomap(x, k=5, h=math.inf, p=3)
        b = isomap(x, k=5, p=3)
        assert a.coordinates.tobytes() == b.coordinates.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.clamped_count == b.clamped_count

    def test_disconnected_error_policy(self):
        x = np.vstack([np.zeros((5, 2)) + np.arange(5)[:, None] * 0.1,
                       np.ones((5, 2)) * 100 + np.arange(5)[:, None] * 0.1])
        with pytest.raises(GraphError, match="graph has 2 components"):
            pr_isomap(x, k=2, h=1.0, p=1)

    def test_largest_component_policy(self):
        x = np.vstack([np.arange(8)[:, None] * 0.1,
                       100.0 + np.arange(2)[:, None] * 0.1])
        emb = pr_isomap(x, k=2, h=1.0, p=1, component_policy="largest_component")
        assert emb.component_policy_applied
        np.testing.assert_array_equal(emb.kept_indices, np.arange(8))
        assert emb.coordinates.shape == (8, 1)

    def test_too_fragmented(self):
        x = np.arange(12)[:, None] * 10.0  # every point isolated under h=1
        with pytest.raises(GraphError, match="largest component holds"):
            pr_isomap(x, k=2, h=1.0, p=1, component_policy="largest_component")

    def test_column_means_zero_and_eigenvalue_order(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (50, 3))
        emb = pr_isomap(x, k=6, h=math.inf, p=3)
        assert np.abs(emb.coordinates.mean(axis=0)).max() <= 1e-8
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (40, 3))
        a = pr_isomap(x, k=4, h=math.inf, p=2)
        b = pr_isomap(x.copy(), k=4, h=math.inf, p=2)
        assert a.coordinates.tobytes() == b.coordinates.tobytes()

    def test_p_validation(self):
        x = line_in_r3(10)
        with pytest.raises(ValueError):
            pr_isomap(x, k=2, h=math.inf, p=10)


class TestIsomap:
    def test_swiss_roll_residual_variance(self):
        sample = gen_swiss_roll(2000, noise_sd=0.0, density_exponent=0.0, seed=11)
        emb = isomap(sample.ambient, k=10, p=2)
        geo = all_pairs(knn_graph(sample.ambient, k=10, h=math.inf))
        rv = residual_variance(geo, pairwise_dists(emb.coordinates))
        assert rv <= 0.05

    def test_flat_data_complete_graph(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 2, (30, 2))
        emb = isomap(x, k=29, p=2)
        got = pairwise_dists(emb.coordinates)
        want = pairwise_dists(x)
        assert np.abs(got - want).max() <= 1e-6 * max(1.0, want.max())


class TestClassicalMds:
    def test_two_points(self):
        emb = classical_mds(np.array([[0.0], [1.0]]), p=1)
        np.testing.assert_allclose(np.abs(emb.coordinates[:, 0]), [0.5, 0.5], atol=1e-12)
        assert emb.coordinates[0, 0] * emb.coordinates[1, 0] < 0

    def test_exact_on_flat_points(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (25, 3))
        emb = classical_mds(x, p=3)
        got = pairwise_dists(emb.coordinates)
        want = pairwise_dists(x)
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, want.max())

    def test_matches_pca_up_to_sign(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (30, 5))
        x = x - x.mean(axis=0)
        a = classical_mds(x, p=3).coordinates
        b = pca(x, p=3).coordinates
        for j in range(3):
            same = np.abs(a[:, j] - b[:, j]).max()
            flipped = np.abs(a[:, j] + b[:, j]).max()
            assert min(same, flipped) <= 1e-8


class TestPca:
    def test_axis_aligned(self):
        emb = pca(np.array([[-1.0, 0.0], [1.0, 0.0]]), p=1)
        np.testing.assert_allclose(np.abs(emb.coordinates[:, 0]), [1.0, 1.0], atol=1e-12)

    def test_eigenvalues_rotation_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (40, 4))
        q, _ = np.linalg.qr(rng.normal(0, 1, (4, 4)))
        a = pca(x, p=4).eigenvalues
        b = pca(x @ q, p=4).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_full_dimension_preserves_distances(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (20, 3))
        emb = pca(x, p=3)
        np.testing.assert_allclose(
            pairwise_dists(emb.coordinates), pairwise_dists(x), atol=1e-9
        )

    def test_population_covariance_eigenvalues(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (35, 3))
        xc = x - x.mean(axis=0)
        want = np.sort(np.linalg.eigvalsh(xc.T @ xc / 35))[::-1]
        np.testing.assert_allclose(pca(x, p=3).eigenvalues, want, atol=1e-10)

    # symmetric_eig takes the covariance as it is: xc.T @ xc is a syrk
    # product, exactly symmetric at the swiss roll's d = 3 and the paper's 431
    @pytest.mark.parametrize("d", [3, 431])
    def test_covariance_is_exactly_symmetric(self, d):
        x = np.random.default_rng(d).normal(0, 1, (500, d))
        assert pca(x, p=2).eigenvalues.size == 2

    def test_p_validation(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError):
            pca(x, p=3)


class TestFlatCaseChain:
    def test_methods_agree_on_flat_data(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (40, 2))
        x = x - x.mean(axis=0)
        d_pca = pairwise_dists(pca(x, p=2).coordinates)
        d_mds = pairwise_dists(classical_mds(x, p=2).coordinates)
        d_iso = pairwise_dists(isomap(x, k=39, p=2).coordinates)
        scale = d_pca.max()
        assert np.abs(d_pca - d_mds).max() <= 1e-6 * scale
        assert np.abs(d_pca - d_iso).max() <= 1e-6 * scale

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (30, 3))
        shift = np.array([100.0, -50.0, 7.0])
        for method in (lambda d: pca(d, 2), lambda d: classical_mds(d, 2),
                       lambda d: isomap(d, 4, 2)):
            a = pairwise_dists(method(x).coordinates)
            b = pairwise_dists(method(x + shift).coordinates)
            assert np.abs(a - b).max() <= 1e-9 * max(1.0, a.max())


class TestComponentPolicy:
    @staticmethod
    def two_block_graph(sizes=(8, 2)):
        """One path of unit edges per block, over consecutive vertices."""
        neighbors, weights = [], []
        start = 0
        for size in sizes:
            for i in range(start, start + size):
                row = [j for j in (i - 1, i + 1) if start <= j < start + size]
                neighbors.append(row)
                weights.append([1.0] * len(row))
            start += size
        return graph_from_rows(neighbors, weights)

    def test_identity_when_connected(self):
        g = self.two_block_graph((4,))
        emb = embed_geodesics(g, 1, {}, "error")
        assert not emb.component_policy_applied
        np.testing.assert_array_equal(emb.kept_indices, np.arange(4))
        emb2 = embed_geodesics(g, 1, {}, "largest_component")
        np.testing.assert_array_equal(emb2.kept_indices, np.arange(4))

    def test_largest_component_restriction(self):
        g = self.two_block_graph((8, 2))
        emb = embed_geodesics(g, 1, {}, "largest_component")
        assert emb.component_policy_applied
        assert emb.coordinates.shape == (8, 1)
        np.testing.assert_array_equal(emb.kept_indices, np.arange(8))
        assert np.all(np.isfinite(emb.coordinates))

    def test_error_policy_raises(self):
        g = self.two_block_graph((8, 2))
        with pytest.raises(GraphError, match="graph has 2 components") as err:
            embed_geodesics(g, 1, {}, "error")
        assert err.value.summary == [8, 2]

    def test_largest_component_tie_keeps_vertex_0(self):
        # two interleaved components of three: {0, 2, 4} and {1, 3, 5}
        x = np.array([[0.0], [100.0], [1.0], [101.0], [2.0], [102.0]])
        g = knn_graph(x, k=1, h=5.0)
        emb = embed_geodesics(g, 1, {}, LARGEST_COMPONENT_POLICY)
        np.testing.assert_array_equal(emb.kept_indices, [0, 2, 4])
        np.testing.assert_array_equal(components(g).largest, emb.kept_indices)

    # the policy runs on the graph: one labelling, and all-pairs only over
    # the kept vertices, or not at all when the policy refuses
    @pytest.mark.parametrize("policy", ["error", "largest_component"])
    def test_embed_labels_components_once(self, policy, monkeypatch):
        from prisomap import embed as embed_mod
        from prisomap import geodesics

        scans, sizes = [], []
        labelled, paths = embed_mod.components, geodesics.all_pairs
        monkeypatch.setattr(embed_mod, "components", lambda g: scans.append(1) or labelled(g))
        monkeypatch.setattr(geodesics, "all_pairs", lambda g: sizes.append(g.n) or paths(g))
        g = self.two_block_graph((8, 3))
        if policy == "error":
            with pytest.raises(GraphError, match="graph has 2 components") as err:
                embed_mod.embed_geodesics(g, 1, {}, policy)
            assert err.value.summary == [8, 3]
            assert sizes == []
        else:
            emb = embed_mod.embed_geodesics(g, 1, {}, policy)
            np.testing.assert_array_equal(emb.kept_indices, np.arange(8))
            assert sizes == [8]
        assert len(scans) == 1

    def test_unknown_policy(self):
        g = self.two_block_graph((8, 2))
        with pytest.raises(ValueError):
            embed_geodesics(g, 1, {}, "whatever")
        # rejected before the fragmentation check
        with pytest.raises(ValueError, match="unknown component policy"):
            embed_geodesics(self.two_block_graph((2, 2, 2, 2)), 1, {}, "whatever")


class TestGeodesicBuffer:
    # all-pairs' result is squared in place: the graph, and so its
    # geodesics, stay as they were
    @pytest.mark.parametrize("h_pct", [60.0, math.inf])
    def test_geodesics_left_unchanged(self, h_pct):
        g = welded_roll_graph(400, h_pct)
        assert (components(g).count == 1) == (h_pct == math.inf)
        parts = ("indptr", "indices", "data")
        adjacency = [getattr(g.adjacency, part).tobytes() for part in parts]
        before = all_pairs(g)
        embed_geodesics(g, 2, {}, LARGEST_COMPONENT_POLICY)
        assert [getattr(g.adjacency, part).tobytes() for part in parts] == adjacency
        assert all_pairs(g).tobytes() == before.tobytes()

    # all-pairs' m x m result over the kept vertices is the one dense
    # buffer, squared and centered in place; the h-pct 60 graph keeps
    # m = 1272 of its 1500 vertices, so its peak stays below one n x n
    @pytest.mark.parametrize("h_pct", [60.0, math.inf])
    def test_one_buffer_beyond_the_input(self, h_pct):
        n = 1500
        peak = traced_peak(embed_geodesics, welded_roll_graph(n, h_pct), 2, {},
                           LARGEST_COMPONENT_POLICY)
        assert peak <= (1.0 if h_pct == 60.0 else 1.2) * 8 * n * n


class TestHelpers:
    def test_elbow_picks_knee(self):
        lam = np.array([10.0, 9.5, 1.0, 0.9, 0.85])
        assert elbow(lam) == 2

    def test_embedding_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (15, 3))
        emb = classical_mds(x, p=2)
        path = tmp_path / "emb.csv"
        save_embedding_csv(emb, path)
        idx, coords = load_embedding_csv(path)
        np.testing.assert_array_equal(idx, np.arange(15))
        assert coords.tobytes() == emb.coordinates.tobytes()

    def test_csv_round_trip_skips_blank_lines(self, tmp_path):
        rng = np.random.default_rng(14)
        emb = classical_mds(rng.normal(0, 1, (6, 3)), p=2)
        path = tmp_path / "emb.csv"
        save_embedding_csv(emb, path)
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        idx, coords = load_embedding_csv(path)
        np.testing.assert_array_equal(idx, np.arange(6))
        assert coords.tobytes() == emb.coordinates.tobytes()

    def test_descriptor_spectrum_and_elbow(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (25, 6))
        emb = pca(x, p=2, spectrum=6)
        desc = embedding_descriptor(emb)
        assert len(desc["spectrum"]) == 6
        assert isinstance(desc["elbow_p"], int)
        assert desc["method"]["method"] == "pca"
