"""The method dispatch, and paired method comparison on one dataset.

run_method runs every method, for the CLI, run_bench and the library's
pr_isomap and isomap alike, so a graph method's descriptor, its h and its
component policy are handled in one place. A graph method looks its
kernel's top eigenpairs up in the cache first, by the window as given (h or
a percentile); the entry holds the resolved h, so a hit runs no k-NN pass
even for a percentile. Neighbors runs the k-NN candidate pass at most once
per (data, k), and only when a cache miss, h selection for eval or the
density needs it; it caps a graph only for a cache miss or eval's geodesic
reference, never for the density. MethodSpec checks the window at creation.

run_bench runs all requested methods on the same sample; metrics are computed
on the intersection of the methods' kept vertices against one common
reference (ground-truth chart distances when available, ambient
Euclidean otherwise), and classification reuses a single fold
assignment. Paired deltas are reported against a named baseline method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import data_hash
from .embed import (ERROR_POLICY, Embedding, _require_p, classical_mds, embed_geodesics,
                    pca, scaled_embedding)
from .errors import GraphError, InputError
from .evaluate import EvalReport, evaluate_embedding, make_stratified_folds, uniformity_cv
from .geodesics import SpectralEntry, cache_lookup, save_spectrum
from .graph import NeighborGraph, cap_candidates, knn_candidates, percentile_h, pr_density
from .linalg import as_finite_matrix, as_matrix, load_solvers

METHODS = ("pr-isomap", "isomap", "mds", "pca")
GRAPH_METHODS = ("pr-isomap", "isomap")

DELTA_METRICS = ("stress", "residual_variance", "trustworthiness", "continuity",
                 "knn_accuracy_mean")


@dataclass
class MethodSpec:
    """One method invocation: name plus whichever parameters it consumes."""

    method: str
    p: int
    k: int | None = None
    h: float | None = None
    h_percentile: float | None = None
    component_policy: str = "largest_component"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.method in GRAPH_METHODS and self.k is None:
            raise InputError(f"{self.method} needs a neighbor count k")
        if self.h is not None and self.h_percentile is not None:
            raise InputError(f"{self.method}: h and h_percentile are mutually exclusive")
        if self.method == "pr-isomap" and self.h is None and self.h_percentile is None:
            raise InputError("pr-isomap needs h or h_percentile")

    @property
    def window(self) -> dict | None:
        """The window as given: {"h": h}, {"h_percentile": percentile} or None."""
        if self.method == "isomap":
            return {"h": math.inf}
        if self.method != "pr-isomap":
            return None
        if self.h_percentile is not None:
            return {"h_percentile": float(self.h_percentile)}
        return {"h": float(self.h)}


class Neighbors:
    """The k-NN candidates of one dataset, each pass built on first use.

    Each graph call caps the candidate arrays anew. Raises InputError for
    data that is not finite.
    """

    def __init__(self, data):
        self.data = as_finite_matrix(data)
        self.data_hash = data_hash(self.data)
        self._candidates: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def candidates(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, k) candidate indices and distances, nearest first."""
        if k not in self._candidates:
            self._candidates[k] = knn_candidates(self.data, k)
        return self._candidates[k]

    def graph(self, k: int, h: float) -> NeighborGraph:
        return cap_candidates(*self.candidates(k), h)


def resolve_h(spec: MethodSpec, neighbors: Neighbors) -> float | None:
    """The window diameter spec runs with: a percentile is taken over the
    candidate lengths."""
    window = spec.window
    if window is None:
        return None
    if "h" in window:
        return window["h"]
    return percentile_h(neighbors.candidates(spec.k)[1], window["h_percentile"])


@dataclass
class MethodRun:
    """One method's embedding, whose method["h"] is a graph method's resolved
    h; cache_entry names the cache entry that served it ("spectrum" or "none")."""

    embedding: Embedding
    seconds: float
    cache_entry: str = "none"


def _embed_graph(spec: MethodSpec, neighbors: Neighbors, spectrum: int,
                 cache_dir) -> tuple[Embedding, str]:
    """A graph method's embedding and the cache entry that served it.

    The spectral entry holds the kernel's top max(p, spectrum) eigenpairs,
    keyed by the window as given and by that exact count, since the
    eigensolver's path depends on it. It records the resolved h, so a hit
    runs no candidate pass, caps no graph, runs no all-pairs and solves
    nothing. A miss resolves h, embeds the graph and writes the entry back.
    """
    fingerprint = {"data_hash": neighbors.data_hash, "k": spec.k, **spec.window,
                   "component_policy": spec.component_policy, "top": max(spec.p, spectrum)}
    path, entry = cache_lookup(cache_dir, fingerprint)
    h = entry.h if entry is not None else resolve_h(spec, neighbors)
    desc = {"method": spec.method, "k": spec.k, "h": h, "p": spec.p,
            "component_policy": spec.component_policy}
    if entry is not None:
        emb = scaled_embedding(entry.eigenpairs, spec.p, desc, entry.kept_indices,
                               entry.n_input, spectrum)
        return emb, "spectrum"
    emb = embed_geodesics(neighbors.graph(spec.k, h), spec.p, desc, spec.component_policy,
                          spectrum=spectrum)
    if path is not None:
        save_spectrum(SpectralEntry(emb.kept_indices, emb.n_input, emb.eigenpairs,
                                    fingerprint, h), path)
    return emb, "none"


def run_method(spec: MethodSpec, neighbors: Neighbors, spectrum: int = 0,
               cache_dir=None) -> MethodRun:
    """Run one method on neighbors.data.

    spectrum > 0 records that many leading eigenvalues; graph methods look
    their eigenpairs up in cache_dir first.
    """
    t0 = time.perf_counter()
    cache_entry = "none"
    if spec.method in GRAPH_METHODS:
        # refused before a k-NN pass, a cap or a cache read
        _require_p(spec.p, neighbors.data.shape[0], spectrum)
        emb, cache_entry = _embed_graph(spec, neighbors, spectrum, cache_dir)
    else:
        flat = classical_mds if spec.method == "mds" else pca
        emb = flat(neighbors.data, spec.p, spectrum=spectrum)
    return MethodRun(emb, time.perf_counter() - t0, cache_entry)


def pr_isomap(data, k: int, h: float, p: int, component_policy: str = ERROR_POLICY,
              spectrum: int = 0) -> Embedding:
    """Isometric mapping over the h-capped neighbor graph.

    Pipeline: capped k-NN graph -> component policy -> all-pairs shortest
    paths -> squared distances -> double centering -> classical scaling.
    """
    spec = MethodSpec("pr-isomap", p, k, h=h, component_policy=component_policy)
    return run_method(spec, Neighbors(data), spectrum).embedding


def isomap(data, k: int, p: int, component_policy: str = ERROR_POLICY,
           spectrum: int = 0) -> Embedding:
    """Standard isometric mapping: the h=+inf case of pr_isomap."""
    spec = MethodSpec("isomap", p, k, component_policy=component_policy)
    return run_method(spec, Neighbors(data), spectrum).embedding


@dataclass
class BenchResult:
    reports: dict[str, EvalReport]
    paired_deltas: dict[str, dict]
    baseline: str
    common_vertices: np.ndarray
    runs: dict[str, MethodRun]

    def table_rows(self) -> list[dict]:
        rows = []
        for name, report in self.reports.items():
            row = {"method": name, **report.row()}
            if name in self.paired_deltas:
                for metric, delta in self.paired_deltas[name].items():
                    row[f"delta_{metric}"] = delta
            rows.append(row)
        return rows


def _restrict_to(emb: Embedding, vertices: np.ndarray) -> np.ndarray:
    # kept_indices ascends and holds every vertex of vertices
    return emb.coordinates[np.searchsorted(emb.kept_indices, vertices)]


def run_bench(
    data,
    specs: list[MethodSpec],
    *,
    reference_points=None,
    labels=None,
    baseline: str | None = None,
    m: int = 10,
    k_clf: int = 5,
    folds: int = 10,
    seed: int = 0,
    cache_dir=None,
) -> BenchResult:
    """Run every method on `data` and score them on a shared basis.

    The ground truth is the Euclidean distances of reference_points (n rows;
    the data by default), taken in row blocks, so no n x n reference is
    built. Metrics are computed on the intersection of kept vertices so
    capped and uncapped methods see identical score pairs.
    Graph methods look their eigenpairs up in cache_dir. baseline,
    when given, must name one of the methods (InputError otherwise); when
    not, it is isomap if present, else the first method. The reports hold
    no wall clock: each method's time and cache entry are in result.runs.
    """
    neighbors = Neighbors(data)
    x = neighbors.data
    n = x.shape[0]
    points = x if reference_points is None else as_matrix(reference_points, "reference_points")
    if points.shape[0] != n:
        raise ValueError(f"reference_points must have {n} rows, got {points.shape[0]}")
    if not specs:
        raise InputError("need at least one method")
    names = [s.method for s in specs]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate method names in {names}")
    if baseline is not None and baseline not in names:
        raise InputError(f"baseline {baseline!r} is not one of the methods {names}")
    if baseline is None and len(specs) > 1:
        baseline = "isomap" if "isomap" in names else names[0]
    y = None if labels is None else np.asarray(labels, dtype=np.int64)

    load_solvers()  # so that no method's seconds hold their import
    runs = {spec.method: run_method(spec, neighbors, cache_dir=cache_dir) for spec in specs}

    common = runs[names[0]].embedding.kept_indices
    for name in names[1:]:
        common = np.intersect1d(common, runs[name].embedding.kept_indices)
    if common.size < 3:
        raise GraphError(f"methods share {common.size} kept vertices, too few to compare")

    assignment = None
    if y is not None:
        assignment = make_stratified_folds(y[common], folds, seed)

    reports: dict[str, EvalReport] = {}
    for spec in specs:
        name = spec.method
        emb = runs[name].embedding
        coords = _restrict_to(emb, common)
        report = evaluate_embedding(
            coords,
            reference_points=points[common],
            m=m,
            labels=None if y is None else y[common],
            k_clf=k_clf,
            folds=folds,
            seed=seed,
            fold_assignment=assignment,
            run=emb.method,
        )
        report.kept_fraction = emb.kept_indices.size / n
        if spec.method == "pr-isomap" and math.isfinite(emb.method["h"]):
            cand_dist = neighbors.candidates(spec.k)[1]
            report.density_cv = uniformity_cv(pr_density(cand_dist, emb.method["h"]))
        reports[name] = report

    paired: dict[str, dict] = {}
    if baseline is not None and len(reports) > 1:
        base = reports[baseline]
        for name, report in reports.items():
            if name == baseline:
                continue
            deltas = {}
            for metric in DELTA_METRICS:
                a, b = getattr(report, metric), getattr(base, metric)
                deltas[metric] = None if a is None or b is None else a - b
            paired[name] = deltas

    return BenchResult(
        reports=reports,
        paired_deltas=paired,
        baseline=baseline or "",
        common_vertices=common,
        runs=runs,
    )
