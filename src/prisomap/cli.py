"""Command-line pipeline: generate, embed, evaluate, benchmark, plot.

Exit codes: 0 success, 2 usage/input problems, 3 graph-topology failures
(component summary printed), 4 numeric failures. Every output file embeds or
references the RunConfig that produced it; the top eigenpairs of each graph
method's geodesic kernel are cached so repeated sweeps skip the all-pairs
stage and the eigensolve. Output files are byte-deterministic but for the
eval and bench reports' timings.* and bench.csv's embed_seconds; every other
timing, and the cache entry that served an embed, goes to stderr only.

Configuration precedence: command-line flags > JSON config file (--config) >
PRISOMAP_* environment variables > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bench import GRAPH_METHODS, METHODS, MethodSpec, Neighbors, resolve_h, run_bench, run_method
from .datasets import (gen_swiss_roll, json_safe, load_csv, save_csv, save_table,
                       swiss_roll_unrolled, write_json)
from .embed import embedding_descriptor, load_embedding_csv, save_embedding_csv
from .errors import GraphError, InputError, NumericError
from .evaluate import evaluate_embedding
from .geodesics import all_pairs
from .linalg import as_finite_matrix
from .plotting import scatter_svg

ENV_PREFIX = "PRISOMAP_"
GENERATORS = ("swiss-roll",)
POLICIES = {"error": "error", "largest-component": "largest_component"}


class Setting(NamedTuple):
    type: Callable | None  # None keeps the string
    default: object
    help: str | None = None
    choices: tuple | None = None


# Every setting that a flag, a config key or PRISOMAP_<DEST> gives, by flag
# destination; a command declares flags for the settings it reads, and
# resolves those alone.
SETTINGS = {
    "seed": Setting(int, 0, "RNG seed (default 0)"),
    "cache_dir": Setting(None, None, "directory for cached eigenpairs"),
    "n": Setting(int, 1000),
    "noise_sd": Setting(float, 0.0),
    "exponent": Setting(float, 0.0, "sampling density exponent (0 = uniform)"),
    "short_circuit_pairs": Setting(float, 0.0, "fraction of n welded as cross-sheet pairs"),
    "k": Setting(int, 10, "neighbors per point (eval: of the geodesic reference)"),
    "h": Setting(float, None, "window diameter (absolute; inf allowed)"),
    "h_pct": Setting(float, None, "window diameter as percentile of k-NN edge lengths"),
    "p": Setting(int, 2, "target dimension"),
    "policy": Setting(None, "error", "component policy (bench default: largest-component)",
                      tuple(sorted(POLICIES))),
    "spectrum": Setting(int, 0, "extra eigenvalues to record for the elbow report"),
    "m": Setting(int, 10, "neighborhood size for T/C"),
    "k_clf": Setting(int, 5, "neighbors of the k-NN classifier"),
    "folds": Setting(int, 10, "cross-validation folds"),
}
COMMAND_DEFAULTS = {"bench": {"policy": "largest-component"}}
SCORING = ("m", "k_clf", "folds")


def _load_config(path_or_none):
    path = path_or_none or os.environ.get(ENV_PREFIX + "CONFIG")
    if not path:
        return {}
    p = Path(path)
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config file {p} must hold a JSON object")
    return cfg


# The value types a typed setting takes; a bool is neither an int nor a float.
_CAST_FROM = {int: (int, str), float: (int, float, str)}


def _cast(dest: str, type_: Callable, value):
    """value as type_, from a config number that type_ holds exactly or a
    string that it parses; InputError for anything else."""
    if isinstance(value, _CAST_FROM[type_]) and not isinstance(value, bool):
        try:
            return type_(value)
        except ValueError:
            pass
    raise InputError(f"{dest} must be {type_.__name__}, got {value!r}")


def resolve_settings(args, config: dict) -> None:
    """Fill each setting of args the flags left unset: flags > config >
    environment > default, the value cast to the setting's type."""
    for dest, setting in SETTINGS.items():
        if dest not in vars(args):
            continue
        value = getattr(args, dest)
        if value is None:
            value = config.get(dest)
        if value is None:
            value = os.environ.get(ENV_PREFIX + dest.upper())
        if value is None:
            value = COMMAND_DEFAULTS.get(args.command, {}).get(dest, setting.default)
        elif setting.type is None:
            if not isinstance(value, str):
                raise InputError(f"{dest} must be a string, got {value!r}")
        else:
            value = _cast(dest, setting.type, value)
        if setting.choices is not None and value not in setting.choices:
            raise InputError(f"unknown {dest} {value!r}; choose from {list(setting.choices)}")
        setattr(args, dest, value)


def _add_settings(parser, *dests: str) -> None:
    """The flag of each setting, unset (None) until resolve_settings fills it."""
    for dest in dests:
        setting = SETTINGS[dest]
        parser.add_argument("--" + dest.replace("_", "-"), type=setting.type, default=None,
                            help=setting.help, choices=setting.choices)


def _add_graph_flags(sub) -> None:
    """--k, and the window as either --h or --h-pct."""
    _add_settings(sub, "k")
    _add_settings(sub.add_mutually_exclusive_group(), "h", "h_pct")


def _add_label_flags(sub) -> None:
    sub.add_argument("--labels", default=None, help="labels CSV")
    sub.add_argument("--label-column", default=None, help="column holding the labels")


def _run_config(command: str, params: dict) -> dict:
    return {
        "command": command,
        "package": "prisomap",
        "version": __version__,
        "params": json_safe(params),
    }


# -- gen --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sample = gen_swiss_roll(args.n, noise_sd=args.noise_sd, density_exponent=args.exponent,
                            seed=args.seed, short_circuit_pairs=args.short_circuit_pairs)
    save_csv(out / "ambient.csv", sample.ambient, names=["x", "y", "z"])
    save_csv(out / "intrinsic.csv", sample.intrinsic, names=["t", "u"])
    params = {"generator": args.generator, "n": args.n, "noise_sd": args.noise_sd,
              "exponent": args.exponent, "short_circuit_pairs": args.short_circuit_pairs,
              "seed": args.seed, "out": str(out)}
    write_json({"run_config": _run_config("gen", params),
                "density_profile": json_safe(sample.density_profile),
                "files": ["ambient.csv", "intrinsic.csv"]}, out / "spec.json")
    return 0


# -- embed ------------------------------------------------------------------------


def cmd_embed(args) -> int:
    spec = MethodSpec(method=args.method, p=args.p, k=args.k, h=args.h,
                      h_percentile=args.h_pct, component_policy=POLICIES[args.policy])
    ds = load_csv(args.input, label_column=args.label_column)
    neighbors = Neighbors(ds.data)
    run = run_method(spec, neighbors, spectrum=args.spectrum, cache_dir=args.cache_dir)

    params = {"input": str(args.input), "method": spec.method, "p": args.p,
              "out": str(args.out), "policy": args.policy, "label_column": args.label_column,
              "spectrum": args.spectrum}
    if spec.method in GRAPH_METHODS:
        # the window as given, so params replay
        h = run.embedding.method["h"] if args.h_pct is None else None
        params.update({"k": args.k, "h": h, "h_pct": args.h_pct})
    out = Path(args.out)
    save_embedding_csv(run.embedding, out)
    extra = {"run_config": _run_config("embed", params), "data_hash": neighbors.data_hash,
             "dropped_rows": ds.dropped_rows}
    write_json(embedding_descriptor(run.embedding, extra), out.with_suffix(".json"))
    print(f"timing total_seconds={run.seconds:.3f} "
          f"cache_hit={str(run.cache_entry != 'none').lower()} cache_entry={run.cache_entry}",
          file=sys.stderr)
    return 0


# -- eval -------------------------------------------------------------------------


def _chart_points(chart_path, indices):
    """The chart coordinates of the rows in indices, unrolled for a swiss
    roll's (t, u) chart."""
    ds = load_csv(chart_path)
    if indices.max() >= ds.n:
        raise InputError(f"{chart_path}: chart has {ds.n} rows, fewer than the "
                         f"{indices.max() + 1} the input needs")
    return (swiss_roll_unrolled(ds.data) if ds.names == ["t", "u"] else ds.data)[indices]


def _load_labels(args, indices):
    """The labels of the rows in indices from the --labels file, None without one."""
    if not args.labels:
        return None
    ds = load_csv(args.labels, label_column=args.label_column)
    if ds.labels is None:
        raise InputError(f"{args.labels}: --label-column required to read labels")
    if indices.max() >= ds.labels.size:
        raise InputError("embedding indices exceed label file length")
    return ds.labels[indices]


def cmd_eval(args) -> int:
    indices, coords = load_embedding_csv(args.emb)
    reference_kind = args.reference
    if reference_kind == "chart" or args.chart:
        if not args.chart:
            raise InputError("--ref chart requires --chart FILE")
        reference = {"reference_points": _chart_points(args.chart, indices)}
        reference_kind = "chart"
    else:
        if args.data is None:
            raise InputError(f"--ref {reference_kind} requires --data FILE")
        label_column = args.label_column if args.labels is None else None
        x = as_finite_matrix(load_csv(args.data, label_column=label_column).data)
        if indices.max() >= x.shape[0]:
            raise InputError("embedding indices exceed data row count")
        if reference_kind == "euclidean":
            reference = {"reference_points": x[indices]}
        else:  # geodesic: the graph isomap uses, or pr-isomap's when a window is given
            method = "isomap" if args.h is None and args.h_pct is None else "pr-isomap"
            # p is unused: only the geodesics are needed
            spec = MethodSpec(method=method, p=1, k=args.k, h=args.h, h_percentile=args.h_pct)
            neighbors = Neighbors(x)
            reference = {"reference_dists": all_pairs(
                neighbors.graph(spec.k, resolve_h(spec, neighbors)), indices)}

    labels = _load_labels(args, indices)
    t0 = time.perf_counter()
    report = evaluate_embedding(
        coords, **reference, m=args.m, labels=labels, k_clf=args.k_clf, folds=args.folds,
        seed=args.seed,
        run=_run_config("eval", {
            "emb": str(args.emb), "reference": reference_kind, "m": args.m,
            "k_clf": args.k_clf, "folds": args.folds, "seed": args.seed,
        }),
    )
    report.timings["metrics_seconds"] = round(time.perf_counter() - t0, 6)
    report.to_json(args.out)
    if args.csv:
        save_table(args.csv, [report.row()])
    return 0


# -- bench ------------------------------------------------------------------------


def cmd_bench(args) -> int:
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    specs = [
        MethodSpec(method=name, p=args.p, k=args.k, h=args.h, h_percentile=args.h_pct,
                   component_policy=POLICIES[args.policy])
        for name in methods
    ]

    ds = load_csv(args.input, label_column=args.label_column if args.labels is None else None)
    rows = np.arange(ds.n, dtype=np.int64)
    result = run_bench(
        ds.data, specs, baseline=args.baseline, m=args.m, k_clf=args.k_clf, folds=args.folds,
        seed=args.seed, cache_dir=args.cache_dir,
        labels=_load_labels(args, rows) if args.labels else ds.labels,
        reference_points=_chart_points(args.chart, rows) if args.chart else None,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table(out / "bench.csv", result.table_rows())

    params = {"input": str(args.input), "methods": methods, "baseline": result.baseline,
              "k": args.k, "h": args.h, "h_pct": args.h_pct, "p": args.p, "m": args.m,
              "k_clf": args.k_clf, "folds": args.folds, "seed": args.seed,
              "policy": args.policy, "chart": str(args.chart) if args.chart else None}
    write_json({
        "run_config": _run_config("bench", params),
        "files": ["bench.csv"],
        "baseline": result.baseline,
        "common_vertex_count": int(result.common_vertices.size),
        "reports": {name: rep.to_dict() for name, rep in result.reports.items()},
        "paired_deltas": json_safe(result.paired_deltas),
    }, out / "bench.json")
    return 0


# -- plot -------------------------------------------------------------------------


def cmd_plot(args) -> int:
    indices, coords = load_embedding_csv(args.input)
    axes = tuple(args.axes) if args.axes else (0, 1)
    params = {"input": str(args.input), "axes": list(axes), "out": str(args.out),
              "labels": str(args.labels) if args.labels else None}
    comment = "runconfig " + json.dumps(_run_config("plot", params), sort_keys=True)
    svg = scatter_svg(coords, labels=_load_labels(args, indices), axes=axes, comment=comment)
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

    def command(func, help: str, out_help: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        sub.set_defaults(func=func)
        sub.add_argument("--out", required=True, help=out_help)
        sub.add_argument("--config", default=None, help="JSON config file")
        return sub

    gen = command(cmd_gen, "generate a synthetic manifold dataset", "output directory")
    gen.add_argument("generator", choices=GENERATORS,
                     help=f"generator name ({', '.join(GENERATORS)})")
    _add_settings(gen, "n", "noise_sd", "exponent", "short_circuit_pairs", "seed")

    embed = command(cmd_embed, "embed a dataset with one method", "output embedding CSV")
    embed.add_argument("--in", dest="input", required=True, help="input CSV")
    embed.add_argument("--label-column", default=None,
                       help="column to exclude from features")
    embed.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    _add_graph_flags(embed)
    _add_settings(embed, "p", "policy", "spectrum", "cache_dir")

    ev = command(cmd_eval, "score an embedding", "report JSON path")
    ev.add_argument("--emb", required=True, help="embedding CSV")
    ev.add_argument("--data", default=None, help="original data CSV")
    ev.add_argument("--ref", dest="reference", default="euclidean",
                    choices=["euclidean", "geodesic", "chart"])
    ev.add_argument("--chart", default=None, help="ground-truth chart CSV")
    _add_graph_flags(ev)
    _add_label_flags(ev)
    _add_settings(ev, *SCORING, "seed")
    ev.add_argument("--csv", default=None, help="also write a one-line CSV")

    bench = command(cmd_bench, "compare methods on one dataset", "output directory")
    bench.add_argument("--in", dest="input", required=True, help="input CSV")
    bench.add_argument("--methods", required=True,
                       help="comma-separated subset of " + ",".join(METHODS))
    bench.add_argument("--baseline", default=None,
                       help="method the paired deltas are taken against")
    _add_label_flags(bench)
    bench.add_argument("--chart", default=None, help="ground-truth chart CSV")
    _add_graph_flags(bench)
    _add_settings(bench, "p", *SCORING, "policy", "seed", "cache_dir")

    plot = command(cmd_plot, "render an embedding as SVG", "output SVG path")
    plot.add_argument("--in", dest="input", required=True, help="embedding CSV")
    _add_label_flags(plot)
    plot.add_argument("--axes", type=int, nargs=2, default=None,
                      help="coordinate columns to plot (default 0 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolve_settings(args, _load_config(args.config))
        return args.func(args)
    except (InputError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        if exc.summary:
            sizes = exc.summary
            shown = ", ".join(map(str, sizes[:8])) + (", ..." if len(sizes) > 8 else "")
            print(f"component sizes: {len(sizes)} components, largest first [{shown}]",
                  file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
