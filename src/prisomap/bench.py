"""Paired method comparison on one dataset with shared folds and reference.

All requested methods run on the same sample; metrics are computed on the
intersection of the methods' kept vertices against one common reference
distance matrix (ground-truth chart distances when available, ambient
Euclidean otherwise), and classification reuses a single fold assignment.
Paired deltas are reported against a named baseline method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .embed import Embedding, classical_mds, isomap, pca, pr_isomap
from .errors import InputError
from .evaluate import EvalReport, evaluate_embedding, make_stratified_folds, uniformity_cv
from .graph import h_from_percentile, knn_graph, pr_density
from .linalg import as_matrix, pairwise_dists

METHOD_NAMES = ("pr-isomap", "isomap", "mds", "pca")

DELTA_METRICS = ("stress", "residual_variance", "trustworthiness", "continuity",
                 "knn_accuracy_mean")


@dataclass
class MethodSpec:
    """One method invocation: name plus whichever parameters it consumes.

    `name` overrides the row label so one method can appear twice with
    different parameters.
    """

    method: str
    p: int
    k: int | None = None
    h: float | None = None
    h_percentile: float | None = None
    component_policy: str = "largest_component"
    name: str | None = None

    def __post_init__(self):
        if self.method in ("pr-isomap", "isomap") and self.k is None:
            raise InputError(f"{self.method} needs a neighbor count k")

    def resolve_h(self, data) -> float | None:
        if self.method != "pr-isomap":
            return None
        if (self.h is None) == (self.h_percentile is None):
            raise ValueError("pr-isomap needs exactly one of h or h_percentile")
        if self.h is not None:
            return float(self.h)
        return h_from_percentile(data, self.k, self.h_percentile)

    def label(self) -> str:
        return self.name or self.method


@dataclass
class BenchResult:
    reports: dict[str, EvalReport]
    paired_deltas: dict[str, dict]
    baseline: str
    common_vertices: np.ndarray
    embeddings: dict[str, Embedding] = field(default_factory=dict)

    def table_rows(self) -> list[dict]:
        rows = []
        for name, report in self.reports.items():
            row = {"method": name}
            for metric in report.CSV_FIELDS:
                row[metric] = getattr(report, metric)
            row["embed_seconds"] = report.timings.get("embed_seconds")
            if name in self.paired_deltas:
                for metric, delta in self.paired_deltas[name].items():
                    row[f"delta_{metric}"] = delta
            rows.append(row)
        return rows


def _run_method(spec: MethodSpec, data, h_resolved) -> tuple[Embedding, float]:
    t0 = time.perf_counter()
    if spec.method == "pr-isomap":
        emb = pr_isomap(data, spec.k, h_resolved, spec.p,
                        component_policy=spec.component_policy)
    elif spec.method == "isomap":
        emb = isomap(data, spec.k, spec.p, component_policy=spec.component_policy)
    elif spec.method == "mds":
        emb = classical_mds(data, spec.p)
    elif spec.method == "pca":
        emb = pca(data, spec.p)
    else:
        raise ValueError(f"unknown method {spec.method!r}; choose from {METHOD_NAMES}")
    return emb, time.perf_counter() - t0


def _restrict_to(emb: Embedding, vertices: np.ndarray) -> np.ndarray:
    pos = {int(orig): row for row, orig in enumerate(emb.kept_indices)}
    return emb.coordinates[[pos[int(v)] for v in vertices]]


def run_bench(
    data,
    specs: list[MethodSpec],
    reference=None,
    labels=None,
    baseline: str | None = None,
    m: int = 10,
    k_clf: int = 5,
    folds: int = 10,
    seed: int = 0,
) -> BenchResult:
    """Run every method on `data` and score them on a shared basis.

    reference is an n x n ground-truth distance matrix (defaults to ambient
    Euclidean distances). Metrics are computed on the intersection of kept
    vertices so capped and uncapped methods see identical score pairs.
    """
    x = as_matrix(data, "data")
    n = x.shape[0]
    ref = pairwise_dists(x) if reference is None else as_matrix(reference, "reference")
    if ref.shape != (n, n):
        raise ValueError(f"reference must be {n}x{n}, got {ref.shape}")
    if not specs:
        raise ValueError("need at least one method")
    names = [s.label() for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names in {names}")
    if baseline is None and len(specs) > 1:
        baseline = "isomap" if "isomap" in names else names[0]
    y = None if labels is None else np.asarray(labels, dtype=np.int64)

    embeddings: dict[str, Embedding] = {}
    timings: dict[str, float] = {}
    resolved: dict[str, float | None] = {}
    for spec in specs:
        h_resolved = spec.resolve_h(x)
        emb, seconds = _run_method(spec, x, h_resolved)
        embeddings[spec.label()] = emb
        timings[spec.label()] = seconds
        resolved[spec.label()] = h_resolved

    common = embeddings[names[0]].kept_indices
    for name in names[1:]:
        common = np.intersect1d(common, embeddings[name].kept_indices)
    if common.size < 3:
        raise ValueError("methods share too few kept vertices to compare")

    assignment = None
    if y is not None:
        assignment = make_stratified_folds(y[common], folds, seed)

    reports: dict[str, EvalReport] = {}
    for spec in specs:
        name = spec.label()
        emb = embeddings[name]
        coords = _restrict_to(emb, common)
        run_info = dict(emb.method)
        if resolved[name] is not None:
            run_info["h_resolved"] = resolved[name]
        report = evaluate_embedding(
            ref[np.ix_(common, common)],
            coords,
            m=m,
            labels=None if y is None else y[common],
            k_clf=k_clf,
            folds=folds,
            seed=seed,
            fold_assignment=assignment,
            run=run_info,
            timings={"embed_seconds": timings[name]},
        )
        report.kept_fraction = emb.kept_indices.size / n
        if spec.method == "pr-isomap" and math.isfinite(resolved[name] or math.inf):
            graph = knn_graph(x, spec.k, resolved[name])
            report.density_cv = uniformity_cv(pr_density(x, graph))
        reports[name] = report

    paired: dict[str, dict] = {}
    if baseline is not None and baseline in reports and len(reports) > 1:
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
        baseline=baseline if baseline in reports else "",
        common_vertices=common,
        embeddings=embeddings,
    )
