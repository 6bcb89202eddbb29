"""Command-line pipeline: generate, embed, evaluate, benchmark, plot.

Exit codes: 0 success, 2 usage/input problems, 3 graph-topology failures
(component summary printed), 4 numeric failures. Every output file embeds or
references the RunConfig that produced it; geodesic matrices, and the top
eigenpairs of their kernels, are cached so repeated sweeps skip the
all-pairs stage and the eigensolve. Timing, and the cache entry that served
an embed, are reported on stderr only, keeping output files
byte-deterministic.

Configuration precedence: command-line flags > JSON config file (--config) >
PRISOMAP_* environment variables > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import GRAPH_METHODS, METHODS, MethodSpec, Neighbors, resolve_h, run_bench, run_method
from .datasets import gen_swiss_roll, load_csv, save_csv, swiss_roll_unrolled
from .embed import json_safe, load_embedding_csv, save_embedding_csv, save_embedding_json
from .errors import GraphError, InputError, NumericError
from .evaluate import csv_cell, evaluate_embedding, save_eval_csv
from .linalg import pairwise_dists
from .plotting import scatter_svg

ENV_PREFIX = "PRISOMAP_"
GENERATORS = ("swiss-roll",)
POLICIES = {"error": "error", "largest-component": "largest_component"}

SHARED_DEFAULTS = {"seed": 0, "cache_dir": None}


def _env_value(name: str):
    return os.environ.get(ENV_PREFIX + name.upper())


def _load_config(path_or_none):
    path = path_or_none or _env_value("config")
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise InputError(f"config file {p} does not exist")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config file {p} must hold a JSON object")
    return cfg


def _resolve(args, name: str, default, config: dict, cast=None):
    """flags > config > environment > default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = config.get(name.replace("-", "_"), config.get(name))
    if value is None:
        value = _env_value(name.replace("-", "_"))
    if value is None:
        return default
    return cast(value) if cast is not None else value


def add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--cache-dir", default=None,
                     help="directory for cached geodesic matrices and eigenpairs")
    sub.add_argument("--config", default=None, help="JSON config file")


def _run_config(command: str, params: dict) -> dict:
    return {
        "command": command,
        "package": "prisomap",
        "version": __version__,
        "params": json_safe(params),
    }


def _log_timing(fields: dict) -> None:
    parts = " ".join(f"{k}={v}" for k, v in fields.items())
    print(f"timing {parts}", file=sys.stderr)


# -- gen --------------------------------------------------------------------------


def cmd_gen(args, config) -> int:
    if args.generator not in GENERATORS:
        print(f"unknown generator {args.generator!r}; available: {', '.join(GENERATORS)}",
              file=sys.stderr)
        return 2
    seed = _resolve(args, "seed", SHARED_DEFAULTS["seed"], config, int)
    n = _resolve(args, "n", 1000, config, int)
    noise_sd = _resolve(args, "noise_sd", 0.0, config, float)
    exponent = _resolve(args, "exponent", 0.0, config, float)
    sc_pairs = _resolve(args, "short_circuit_pairs", 0.0, config, float)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sample = gen_swiss_roll(n, noise_sd=noise_sd, density_exponent=exponent,
                            seed=seed, short_circuit_pairs=sc_pairs)
    save_csv(out / "ambient.csv", sample.ambient, names=["x", "y", "z"])
    save_csv(out / "intrinsic.csv", sample.intrinsic, names=["t", "u"])
    params = {"generator": args.generator, "n": n, "noise_sd": noise_sd,
              "exponent": exponent, "short_circuit_pairs": sc_pairs, "seed": seed,
              "out": str(out)}
    payload = {"run_config": _run_config("gen", params),
               "density_profile": json_safe(sample.density_profile),
               "files": ["ambient.csv", "intrinsic.csv"]}
    (out / "spec.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


# -- embed ------------------------------------------------------------------------


def _policy(args, config, default: str) -> str:
    policy_flag = _resolve(args, "policy", default, config)
    if policy_flag not in POLICIES:
        raise InputError(f"unknown policy {policy_flag!r}; choose from {sorted(POLICIES)}")
    return policy_flag


def cmd_embed(args, config) -> int:
    cache_dir = _resolve(args, "cache_dir", SHARED_DEFAULTS["cache_dir"], config)
    p = _resolve(args, "p", 2, config, int)
    k = _resolve(args, "k", 10, config, int)
    h = _resolve(args, "h", None, config, float)
    h_pct = _resolve(args, "h_pct", None, config, float)
    policy_flag = _policy(args, config, "error")
    spectrum = _resolve(args, "spectrum", 0, config, int)
    spec = MethodSpec(method=args.method, p=p, k=k, h=h, h_percentile=h_pct,
                      component_policy=POLICIES[policy_flag])

    ds = load_csv(args.input, label_column=args.label_column)
    neighbors = Neighbors(ds.data)
    t_start = time.perf_counter()
    run = run_method(spec, neighbors, spectrum=spectrum, cache_dir=cache_dir)
    total_seconds = time.perf_counter() - t_start

    params = {"input": str(args.input), "method": spec.method, "p": p, "out": str(args.out),
              "policy": policy_flag, "label_column": args.label_column}
    if spec.method in GRAPH_METHODS:
        params.update({"k": k, "h": run.h, "h_pct": h_pct})
    out = Path(args.out)
    save_embedding_csv(run.embedding, out)
    save_embedding_json(run.embedding, out.with_suffix(".json"),
                        extra={"run_config": _run_config("embed", params),
                               "data_hash": neighbors.data_hash,
                               "dropped_rows": ds.dropped_rows})
    _log_timing({"total_seconds": f"{total_seconds:.3f}",
                 "geodesic_seconds": f"{run.geodesic_seconds:.3f}",
                 "cache_hit": str(run.cache_hit).lower(),
                 "cache_entry": run.cache_entry})
    return 0


# -- eval -------------------------------------------------------------------------


def _chart_reference(chart_path, chart_kind, indices):
    ds = load_csv(chart_path)
    coords = ds.data
    if chart_kind == "auto":
        chart_kind = "swiss-roll" if ds.names == ["t", "u"] else "euclidean"
    if chart_kind == "swiss-roll":
        coords = swiss_roll_unrolled(coords)
    elif chart_kind != "euclidean":
        raise InputError(f"unknown chart kind {chart_kind!r}")
    return pairwise_dists(coords[indices])


def _load_labels(labels_path, label_column, indices):
    ds = load_csv(labels_path, label_column=label_column)
    if ds.labels is None:
        raise InputError(f"{labels_path}: --label-column required to read labels")
    if indices.max() >= ds.labels.size:
        raise InputError("embedding indices exceed label file length")
    return ds.labels[indices]


def cmd_eval(args, config) -> int:
    seed = _resolve(args, "seed", SHARED_DEFAULTS["seed"], config, int)
    cache_dir = _resolve(args, "cache_dir", SHARED_DEFAULTS["cache_dir"], config)
    m = _resolve(args, "m", 10, config, int)
    k_clf = _resolve(args, "k_clf", 5, config, int)
    folds = _resolve(args, "folds", 10, config, int)

    indices, coords = load_embedding_csv(args.emb)
    reference_kind = args.reference
    if reference_kind == "chart" or args.chart:
        if not args.chart:
            raise InputError("--ref chart requires --chart FILE")
        ref = _chart_reference(args.chart, args.chart_kind, indices)
        reference_kind = "chart"
    else:
        if args.data is None:
            raise InputError(f"--ref {reference_kind} requires --data FILE")
        label_column = args.label_column if args.labels is None else None
        x = load_csv(args.data, label_column=label_column).data
        if indices.max() >= x.shape[0]:
            raise InputError("embedding indices exceed data row count")
        if reference_kind == "euclidean":
            ref = pairwise_dists(x[indices])
        else:  # geodesic: the graph isomap uses, or pr-isomap's when a window is given
            h = _resolve(args, "h", None, config, float)
            h_pct = _resolve(args, "h_pct", None, config, float)
            method = "isomap" if h is None and h_pct is None else "pr-isomap"
            # p is unused: only the geodesics are needed
            spec = MethodSpec(method=method, p=1, k=_resolve(args, "k", 10, config, int),
                              h=h, h_percentile=h_pct)
            neighbors = Neighbors(x)
            geo, _, _ = neighbors.geodesics(spec.k, resolve_h(spec, neighbors), cache_dir)
            ref = geo.values[np.ix_(indices, indices)]

    labels = None
    if args.labels:
        labels = _load_labels(args.labels, args.label_column, indices)

    t0 = time.perf_counter()
    report = evaluate_embedding(
        ref, coords, m=m, labels=labels, k_clf=k_clf, folds=folds, seed=seed,
        run=_run_config("eval", {
            "emb": str(args.emb), "reference": reference_kind, "m": m,
            "k_clf": k_clf, "folds": folds, "seed": seed,
        }),
    )
    report.timings["metrics_seconds"] = round(time.perf_counter() - t0, 6)
    report.to_json(args.out)
    if args.csv:
        save_eval_csv(report, args.csv)
    return 0


# -- bench ------------------------------------------------------------------------


def cmd_bench(args, config) -> int:
    seed = _resolve(args, "seed", SHARED_DEFAULTS["seed"], config, int)
    cache_dir = _resolve(args, "cache_dir", SHARED_DEFAULTS["cache_dir"], config)
    m = _resolve(args, "m", 10, config, int)
    k_clf = _resolve(args, "k_clf", 5, config, int)
    folds = _resolve(args, "folds", 10, config, int)
    p = _resolve(args, "p", 2, config, int)
    k = _resolve(args, "k", 10, config, int)
    h = _resolve(args, "h", None, config, float)
    h_pct = _resolve(args, "h_pct", None, config, float)
    policy_flag = _policy(args, config, "largest-component")
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    specs = [
        MethodSpec(method=name, p=p, k=k, h=h, h_percentile=h_pct,
                   component_policy=POLICIES[policy_flag])
        for name in methods
    ]

    ds = load_csv(args.input, label_column=args.label_column if args.labels is None else None)
    x = ds.data
    labels = ds.labels
    if args.labels:
        labels = _load_labels(args.labels, args.label_column,
                              np.arange(x.shape[0], dtype=np.int64))

    reference = None
    if args.chart:
        indices = np.arange(x.shape[0], dtype=np.int64)
        reference = _chart_reference(args.chart, args.chart_kind, indices)

    result = run_bench(
        x, specs, reference=reference, labels=labels,
        baseline=args.baseline, m=m, k_clf=k_clf, folds=folds, seed=seed,
        cache_dir=cache_dir,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = result.table_rows()
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with (out / "bench.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(row.get(key)) for key in fields) + "\n")

    params = {"input": str(args.input), "methods": methods, "baseline": result.baseline,
              "k": k, "h": h, "h_pct": h_pct, "p": p, "m": m, "k_clf": k_clf,
              "folds": folds, "seed": seed, "policy": policy_flag,
              "chart": str(args.chart) if args.chart else None}
    payload = {
        "run_config": _run_config("bench", params),
        "files": ["bench.csv"],
        "baseline": result.baseline,
        "common_vertex_count": int(result.common_vertices.size),
        "reports": {name: rep.to_dict() for name, rep in result.reports.items()},
        "paired_deltas": json_safe(result.paired_deltas),
    }
    (out / "bench.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


# -- plot -------------------------------------------------------------------------


def cmd_plot(args, config) -> int:
    indices, coords = load_embedding_csv(args.input)
    labels = None
    if args.labels:
        labels = _load_labels(args.labels, args.label_column, indices)
    axes = tuple(args.axes) if args.axes else (0, 1)
    params = {"input": str(args.input), "axes": list(axes), "out": str(args.out),
              "labels": str(args.labels) if args.labels else None}
    comment = "runconfig " + json.dumps(_run_config("plot", params), sort_keys=True)
    svg = scatter_svg(coords, labels=labels, axes=axes, comment=comment)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prisomap",
        description="Manifold-learning pipeline: generate, embed, evaluate, "
                    "benchmark, plot.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic manifold dataset")
    gen.add_argument("generator", help=f"generator name ({', '.join(GENERATORS)})")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--noise-sd", type=float, default=None)
    gen.add_argument("--exponent", type=float, default=None,
                     help="sampling density exponent (0 = uniform)")
    gen.add_argument("--short-circuit-pairs", type=float, default=None,
                     help="fraction of n welded as cross-sheet pairs")
    gen.add_argument("--out", required=True, help="output directory")
    add_shared_flags(gen)
    gen.set_defaults(func=cmd_gen)

    embed = subs.add_parser("embed", help="embed a dataset with one method")
    embed.add_argument("--in", dest="input", required=True, help="input CSV")
    embed.add_argument("--label-column", default=None,
                       help="column to exclude from features")
    embed.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    embed.add_argument("--k", type=int, default=None)
    hgroup = embed.add_mutually_exclusive_group()
    hgroup.add_argument("--h", type=float, default=None,
                        help="window diameter (absolute; inf allowed)")
    hgroup.add_argument("--h-pct", type=float, default=None,
                        help="window diameter as percentile of k-NN edge lengths")
    embed.add_argument("--p", type=int, default=None)
    embed.add_argument("--policy", default=None, choices=sorted(POLICIES))
    embed.add_argument("--spectrum", type=int, default=None,
                       help="extra eigenvalues to record for the elbow report")
    embed.add_argument("--out", required=True, help="output embedding CSV")
    add_shared_flags(embed)
    embed.set_defaults(func=cmd_embed)

    ev = subs.add_parser("eval", help="score an embedding")
    ev.add_argument("--emb", required=True, help="embedding CSV")
    ev.add_argument("--data", default=None, help="original data CSV")
    ev.add_argument("--ref", dest="reference", default="euclidean",
                    choices=["euclidean", "geodesic", "chart"])
    ev.add_argument("--chart", default=None, help="ground-truth chart CSV")
    ev.add_argument("--chart-kind", default="auto",
                    choices=["auto", "swiss-roll", "euclidean"])
    ev.add_argument("--k", type=int, default=None, help="k for geodesic reference")
    evh = ev.add_mutually_exclusive_group()
    evh.add_argument("--h", type=float, default=None)
    evh.add_argument("--h-pct", type=float, default=None)
    ev.add_argument("--labels", default=None, help="labels CSV")
    ev.add_argument("--label-column", default=None)
    ev.add_argument("--m", type=int, default=None, help="neighborhood size for T/C")
    ev.add_argument("--k-clf", type=int, default=None)
    ev.add_argument("--folds", type=int, default=None)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--csv", default=None, help="also write a one-line CSV")
    add_shared_flags(ev)
    ev.set_defaults(func=cmd_eval)

    bench = subs.add_parser("bench", help="compare methods on one dataset")
    bench.add_argument("--in", dest="input", required=True)
    bench.add_argument("--methods", required=True,
                       help="comma-separated subset of " + ",".join(METHODS))
    bench.add_argument("--baseline", default=None)
    bench.add_argument("--labels", default=None)
    bench.add_argument("--label-column", default=None)
    bench.add_argument("--chart", default=None)
    bench.add_argument("--chart-kind", default="auto",
                       choices=["auto", "swiss-roll", "euclidean"])
    bench.add_argument("--k", type=int, default=None)
    bgroup = bench.add_mutually_exclusive_group()
    bgroup.add_argument("--h", type=float, default=None)
    bgroup.add_argument("--h-pct", type=float, default=None)
    bench.add_argument("--p", type=int, default=None)
    bench.add_argument("--m", type=int, default=None)
    bench.add_argument("--k-clf", type=int, default=None)
    bench.add_argument("--folds", type=int, default=None)
    bench.add_argument("--policy", default=None, choices=sorted(POLICIES))
    bench.add_argument("--out", required=True, help="output directory")
    add_shared_flags(bench)
    bench.set_defaults(func=cmd_bench)

    plot = subs.add_parser("plot", help="render an embedding as SVG")
    plot.add_argument("--in", dest="input", required=True, help="embedding CSV")
    plot.add_argument("--labels", default=None)
    plot.add_argument("--label-column", default=None)
    plot.add_argument("--axes", type=int, nargs=2, default=None,
                      help="coordinate columns to plot (default 0 1)")
    plot.add_argument("--out", required=True, help="output SVG path")
    add_shared_flags(plot)
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        if getattr(exc, "summary", None):
            print(f"component sizes: {exc.summary}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
