"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Criterion 6 needs MNIST IDX files (see _find_mnist) and skips with
an explicit message when they are absent from the environment.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from prisomap.bench import MethodSpec, isomap, pr_isomap, run_bench
from prisomap import geodesics
from prisomap.cli import main as cli_main
from prisomap.datasets import gen_swiss_roll, load_idx, swiss_roll_unrolled
from prisomap.embed import classical_mds, pca
from prisomap.evaluate import (
    knn_classify_cv,
    make_stratified_folds,
    stress,
    trustworthiness_continuity,
    uniformity_cv,
)
from prisomap.geodesics import all_pairs
from prisomap.graph import knn_candidates, knn_graph, percentile_h, pr_density
from prisomap.linalg import pairwise_dists

from helpers import floyd_warshall_oracle


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_geodesics():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(20, 101))
        k = int(rng.choice([3, 5, 10]))
        k = min(k, n - 1)
        x = rng.normal(0, 1, (n, 3))
        pct = rng.choice([40.0, 60.0, 80.0, np.inf])
        h = math.inf if np.isinf(pct) else percentile_h(knn_candidates(x, k)[1], float(pct))
        g = knn_graph(x, k, h)
        got = all_pairs(g)
        want = floyd_warshall_oracle(g)
        assert (np.isfinite(got) == np.isfinite(want)).all()
        both = np.isfinite(got)
        if both.any():
            worst = max(worst, float(np.abs(got[both] - want[both]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, ok, f"100 capped graphs, max |dijkstra - floyd_warshall| = "
                  f"{worst:.2e} (<= 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_2_reduction_bit_identity():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for trial in range(20):
        n = int(rng.integers(30, 301))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(4, 11))
        p = int(rng.integers(1, 4))
        x = rng.normal(0, 1, (n, d))
        a = pr_isomap(x, k, math.inf, p, component_policy="largest_component")
        b = isomap(x, k, p, component_policy="largest_component")
        assert a.coordinates.tobytes() == b.coordinates.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.clamped_count == b.clamped_count
        assert a.kept_indices.tobytes() == b.kept_indices.tobytes()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(2, ok, f"pr_isomap(h=inf) bit-identical to isomap on 20 datasets, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_flat_case_chain():
    rng = np.random.default_rng(11)
    worst_pair = 0.0
    worst_mds = 0.0
    for p in (1, 2, 5):
        x = rng.normal(0, 2, (200, p))
        truth = pairwise_dists(x)
        scale = truth.max()
        d_pca = pairwise_dists(pca(x, p).coordinates)
        d_mds = pairwise_dists(classical_mds(x, p).coordinates)
        d_iso = pairwise_dists(isomap(x, 199, p).coordinates)
        worst_pair = max(
            worst_pair,
            np.abs(d_pca - d_mds).max() / scale,
            np.abs(d_pca - d_iso).max() / scale,
            np.abs(d_mds - d_iso).max() / scale,
        )
        worst_mds = max(worst_mds, np.abs(d_mds - truth).max() / scale)
    ok = worst_pair <= 1e-6 and worst_mds <= 1e-8
    report(3, ok, f"pca/mds/isomap(k=n-1) mutual distance deviation "
                  f"{worst_pair:.2e} (<= 1e-6), MDS exactness residual "
                  f"{worst_mds:.2e} (<= 1e-8)")


def test_criterion_4_swiss_roll_isometry():
    t0 = time.perf_counter()
    sample = gen_swiss_roll(2000, noise_sd=0.0, density_exponent=0.0, seed=42)
    emb = isomap(sample.ambient, k=10, p=2)
    chart = pairwise_dists(swiss_roll_unrolled(sample.intrinsic))
    emb_d = pairwise_dists(emb.coordinates)
    iu = np.triu_indices(2000, k=1)
    corr = float(np.corrcoef(chart[iu], emb_d[iu])[0, 1])
    s = stress(chart, emb_d)
    elapsed = time.perf_counter() - t0
    ok = corr >= 0.99 and s <= 0.05 and elapsed < 180.0
    report(4, ok, f"n=2000 uniform roll: corr={corr:.5f} (>= 0.99), "
                  f"stress={s:.4f} (<= 0.05), {elapsed:.0f}s (< 180s)")


def test_criterion_5_non_uniformity_benefit():
    stress_wins = 0
    t_wins = 0
    rows = []
    for seed in range(10):
        sample = gen_swiss_roll(1500, noise_sd=0.0, density_exponent=3.0,
                                seed=seed, short_circuit_pairs=0.01)
        chart = swiss_roll_unrolled(sample.intrinsic)
        specs = [
            MethodSpec(method="pr-isomap", p=2, k=12, h_percentile=60.0),
            MethodSpec(method="isomap", p=2, k=12),
        ]
        res = run_bench(sample.ambient, specs, reference_points=chart,
                        baseline="isomap", m=10, seed=seed)
        pr = res.reports["pr-isomap"]
        iso = res.reports["isomap"]
        stress_wins += pr.stress < iso.stress
        t_wins += (pr.trustworthiness - iso.trustworthiness) >= 0.01
        rows.append((seed, pr.stress, iso.stress,
                     pr.trustworthiness, iso.trustworthiness))
    both = sum(1 for _, ps, is_, pt, it in rows if ps < is_ and pt - it >= 0.01)
    ok = both >= 8
    report(5, ok, f"windowed beats unconstrained in {both}/10 seeds "
                  f"(stress wins {stress_wins}, trustworthiness wins {t_wins}; "
                  f"need >= 8)")


def _find_mnist():
    candidates = []
    env_dir = os.environ.get("PRISOMAP_MNIST_DIR")
    if env_dir:
        candidates.append(Path(env_dir))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    stems = [("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
    for base in candidates:
        for img_stem, lab_stem in stems:
            for suffix in ("", ".gz"):
                img = base / (img_stem + suffix)
                lab = base / (lab_stem + suffix)
                if img.exists() and lab.exists():
                    return img, lab
    return None


def test_criterion_6_mnist_downstream_pattern():
    found = _find_mnist()
    if found is None:
        print("[SKIP] criterion 6: MNIST IDX files not present (no network in this "
              "environment; set PRISOMAP_MNIST_DIR or place files under data/mnist)")
        pytest.skip("MNIST data unavailable in this environment")
    t0 = time.perf_counter()
    ds = load_idx(*found)
    rng = np.random.default_rng(0)
    chosen = []
    for c in range(10):
        members = np.where(ds.labels == c)[0]
        rng.shuffle(members)
        chosen.append(members[:200])
    idx = np.sort(np.concatenate(chosen))
    x = ds.data[idx]
    y = ds.labels[idx]

    # the asserted run uses the reported window for this dataset (70000
    # feature units, far above any raw-pixel distance); a percentile-capped
    # variant is reported alongside when it keeps >= 50% connectivity, from
    # its own bench run against the same baselines (a bench row is named by
    # its method, so one run holds one pr-isomap)
    from prisomap.graph import components

    def accuracies(pr_h):
        specs = [
            MethodSpec(method="pr-isomap", p=10, k=10, h=pr_h),
            MethodSpec(method="isomap", p=10, k=10),
            MethodSpec(method="pca", p=10),
        ]
        res = run_bench(x, specs, labels=y, baseline="isomap", m=10, k_clf=5,
                        folds=10, seed=0)
        return {name: (rep.knn_accuracy_mean, rep.knn_accuracy_sd)
                for name, rep in res.reports.items()}

    table = accuracies(70000.0)
    acc = {name: mean for name, (mean, _) in table.items()}
    for pct in (60.0, 70.0, 80.0, 90.0):
        cand = percentile_h(knn_candidates(x, 10)[1], pct)
        sizes = components(knn_graph(x, 10, cand)).sizes
        if sizes[0] >= 0.5 * x.shape[0]:
            table[f"pr-isomap-pct{pct:.0f}"] = accuracies(cand)["pr-isomap"]
            break
    print("criterion 6 accuracy table (10-fold kNN(5), p=10):")
    for name, (mean, sd) in table.items():
        print(f"  {name:16s} {mean:.4f} +/- {sd:.4f}")
    elapsed = time.perf_counter() - t0
    ok = (acc["pr-isomap"] >= acc["isomap"] - 0.005
          and acc["pr-isomap"] >= acc["pca"] - 0.005
          and elapsed < 600.0)
    report(6, ok, f"pr-isomap {acc['pr-isomap']:.4f} vs isomap {acc['isomap']:.4f} "
                  f"vs pca {acc['pca']:.4f} (non-inferiority 0.5pp), "
                  f"{elapsed:.0f}s (< 600s)")


def test_criterion_7_complexity_scaling(monkeypatch):
    # one process at every n: the fit then measures the Dijkstra work alone,
    # not a fork and a worker's exit from the crossover on
    monkeypatch.setattr(geodesics, "_worker_count", lambda rows, n: 1)
    times = {}
    for n in (500, 1000, 2000):
        sample = gen_swiss_roll(n, seed=1)
        g = knn_graph(sample.ambient, k=10)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            all_pairs(g)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    coeffs = {n: t / (n * n * math.log(n)) for n, t in times.items()}
    mean_c = sum(coeffs.values()) / len(coeffs)
    worst = max(abs(c - mean_c) / mean_c for c in coeffs.values())
    ok = worst <= 0.35
    detail = ", ".join(f"n={n}: {t:.2f}s" for n, t in times.items())
    report(7, ok, f"all_pairs fits t = c*n^2*log n with max deviation "
                  f"{worst:.1%} (<= 35%); {detail}")


def test_criterion_8_metric_invariances():
    rng = np.random.default_rng(99)
    x = rng.normal(0, 1, (150, 6))
    coords = rng.normal(0, 1, (150, 3))
    y = np.array([0, 1] * 75)
    q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
    q[:, 0] = -q[:, 0]  # include a reflection
    moved = coords @ q + np.array([5.0, -3.0, 11.0])

    d_hd = pairwise_dists(x)
    s_delta = abs(stress(d_hd, pairwise_dists(coords))
                  - stress(d_hd, pairwise_dists(moved)))
    tc_a = trustworthiness_continuity(d_hd, pairwise_dists(coords), m=10)
    tc_b = trustworthiness_continuity(d_hd, pairwise_dists(moved), m=10)
    folds = make_stratified_folds(y, 5, 0)
    acc_a = knn_classify_cv(coords, y, assignment=folds).fold_accuracies
    acc_b = knn_classify_cv(moved, y, assignment=folds).fold_accuracies

    data = rng.normal(0, 1, (80, 3))
    h = percentile_h(knn_candidates(data, 5)[1], 60)
    c = 7.3
    cv_a = uniformity_cv(pr_density(knn_candidates(data, 5)[1], h))
    cv_b = uniformity_cv(pr_density(knn_candidates(c * data, 5)[1], c * h))

    ok = (s_delta <= 1e-9 and tc_a == tc_b
          and np.abs(acc_a - acc_b).max() <= 1e-12
          and abs(cv_a - cv_b) <= 1e-9)
    report(8, ok, f"rigid motion: stress delta {s_delta:.1e}, T/C exact match "
                  f"{tc_a == tc_b}, knn fold accuracies exact; joint-scale "
                  f"density cv delta {abs(cv_a - cv_b):.1e} (<= 1e-9)")


def test_criterion_9_cli_black_box(tmp_path, capsys):
    roll = tmp_path / "roll"
    # -- byte determinism: rerunning the same gen command reproduces all bytes
    assert cli_main(["gen", "swiss-roll", "--n", "200", "--seed", "5",
                     "--out", str(roll)]) == 0
    snapshot = {p.name: p.read_bytes() for p in roll.iterdir()}
    assert cli_main(["gen", "swiss-roll", "--n", "200", "--seed", "5",
                     "--out", str(roll)]) == 0
    gen_ok = all(p.read_bytes() == snapshot[p.name] for p in roll.iterdir())

    # -- embed: cold vs warm cache outputs identical
    cache = tmp_path / "cache"
    emb1, emb2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    args = ["embed", "--in", str(roll / "ambient.csv"), "--method", "pr-isomap",
            "--k", "8", "--h-pct", "70", "--p", "2",
            "--policy", "largest-component", "--cache-dir", str(cache)]
    assert cli_main(args + ["--out", str(emb1)]) == 0
    cold_log = capsys.readouterr().err
    assert cli_main(args + ["--out", str(emb2)]) == 0
    warm_log = capsys.readouterr().err
    cache_ok = ("cache_hit=false" in cold_log and "cache_hit=true" in warm_log
                and emb1.read_bytes() == emb2.read_bytes())

    # -- plot determinism
    svg1, svg2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert cli_main(["plot", "--in", str(emb1), "--out", str(svg1)]) == 0
    assert cli_main(["plot", "--in", str(emb1), "--out", str(svg2)]) == 0
    plot_ok = (svg1.read_bytes().replace(b"p1.svg", b"p.svg")
               == svg2.read_bytes().replace(b"p2.svg", b"p.svg"))

    # -- exit-code discipline
    rc_usage = cli_main(["gen", "torus", "--out", str(tmp_path / "x")])
    rc_usage2 = cli_main(["gen", "swiss-roll", "--n", "5",
                          "--out", str(tmp_path / "x")])
    two_blocks = tmp_path / "two.csv"
    two_blocks.write_text(
        "a\n" + "\n".join(str(v * 0.1) for v in range(10))
        + "\n" + "\n".join(str(100 + v * 0.1) for v in range(10)) + "\n")
    rc_graph = cli_main(["embed", "--in", str(two_blocks), "--method", "pr-isomap",
                         "--k", "3", "--h", "5", "--p", "1",
                         "--out", str(tmp_path / "e.csv")])
    capsys.readouterr()
    exit_ok = rc_usage == 2 and rc_usage2 == 2 and rc_graph == 3

    ok = gen_ok and cache_ok and plot_ok and exit_ok
    report(9, ok, f"gen rerun byte-identical {gen_ok}, warm/cold cache identical "
                  f"{cache_ok}, plot deterministic {plot_ok}, exit codes 2/2/3 "
                  f"{exit_ok}")
