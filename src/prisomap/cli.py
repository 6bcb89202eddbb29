"""Command-line pipeline: generate, embed, evaluate, benchmark, plot.

Exit codes: 0 success, 2 usage/input problems (an InputError, or a file that
cannot be read, or read as UTF-8), 3 graph-topology failures (component
summary printed), 4 numeric failures; any other exception is a fault of the
program, and shows its traceback. Every output file records
the run_config that produced it, each parsed argument as given (_run_config),
so replaying it gives the same bytes. The top eigenpairs of each graph
method's geodesic kernel are cached so repeated sweeps skip the all-pairs
stage and the eigensolve. Output files are byte-deterministic but for the
eval and bench reports' timings.* and bench.csv's embed_seconds; every other
timing, and the cache entry that served an embed, goes to stderr only.

main sets glibc's allocator policy (_keep_freed_blocks) and builds its parser
once per process.

Configuration precedence: command-line flags > JSON config file (--config) >
PRISOMAP_* environment variables > built-in defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bench import METHODS, MethodSpec, Neighbors, resolve_h, run_bench, run_method
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
    """Fill each setting of args the flags left unset (flags > config > environment
    > default), cast to the setting's type; args.flags names those flags gave."""
    args.flags = {dest for dest in SETTINGS if getattr(args, dest, None) is not None}
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


# Where an output is written, what the cache holds (warm = cold), the config
# file (already read into the settings), which settings came as flags and
# argparse's own fields: none of them changes what an output holds.
_UNRECORDED = ("out", "csv", "cache_dir", "config", "flags", "command", "func")


def _run_config(args) -> dict:
    """The run_config an output records: every argument as given, settings
    resolved, but those in _UNRECORDED."""
    params = {dest: value for dest, value in vars(args).items() if dest not in _UNRECORDED}
    return {
        "command": args.command,
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
    write_json({"run_config": _run_config(args),
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
    out = Path(args.out)
    save_embedding_csv(run.embedding, out)
    extra = {"run_config": _run_config(args), "data_hash": neighbors.data_hash,
             "dropped_rows": ds.dropped_rows}
    write_json(embedding_descriptor(run.embedding, extra), out.with_suffix(".json"))
    print(f"timing total_seconds={run.seconds:.3f} "
          f"cache_hit={str(run.cache_entry != 'none').lower()} cache_entry={run.cache_entry}",
          file=sys.stderr)
    return 0


# -- eval -------------------------------------------------------------------------


def _chart_points(chart_path, indices, n=None):
    """The chart coordinates of the rows in indices, unrolled for a swiss
    roll's (t, u) chart, which must hold the n rows of the data when n is
    given."""
    ds = load_csv(chart_path)
    _refuse_dropped_rows(ds, chart_path, "the data")
    if indices.max() >= ds.n:
        raise InputError(f"{chart_path}: chart has {ds.n} rows, fewer than the "
                         f"{indices.max() + 1} the input needs")
    if n is not None and ds.n != n:
        raise InputError(f"{chart_path}: chart has {ds.n} rows, but the data has {n}")
    chart = swiss_roll_unrolled(ds.data) if ds.names == ["t", "u"] else ds.data
    return as_finite_matrix(chart, f"{chart_path}: chart")[indices]


def _load_labels(args, indices, data=None):
    """The labels of the rows in indices: --label-column of the --labels file
    when one is given, else of data (the --in or --data table), else None. A
    --labels file must hold as many rows as data, when data is given."""
    table = data
    if args.labels:
        table = load_csv(args.labels, label_column=args.label_column)
        if table.labels is None:
            raise InputError(f"{args.labels}: --label-column required to read labels")
        _refuse_dropped_rows(table, args.labels, "the data")
    elif args.label_column and data is None:
        raise InputError("--label-column names a column of the --labels file; give --labels")
    if table is None or table.labels is None:
        return None
    if indices.max() >= table.labels.size:
        raise InputError("embedding indices exceed label file length")
    if data is not None and table.n != data.n:
        raise InputError(f"{args.labels}: label file has {table.n} rows, but the data has {data.n}")
    return table.labels[indices]


def _flags_given(args, *dests: str) -> str:
    """The flags of dests that args got, as "--a or --b" ("" for none)."""
    return " or ".join(f"--{dest.replace('_', '-')}" for dest in dests if dest in args.flags)


def _refuse_dropped_rows(ds, path, *matched) -> None:
    """InputError when rows of the table at path were dropped while its rows
    are matched by number to those of matched, file names or "the data" (None
    for a file not given): every row after a dropped one would meet the next one's."""
    given = [str(f) for f in matched if f]
    if ds.dropped_rows and given:
        raise InputError(f"{path}: {ds.dropped_rows} row(s) holding NaN were dropped, which "
                         f"would shift its rows against those of {' and '.join(given)}")


def cmd_eval(args) -> int:
    unread = _flags_given(args, "k", "h", "h_pct")
    if unread and args.reference != "geodesic":
        raise InputError(f"--ref {args.reference} takes no {unread}")
    unread = _flags_given(args, "folds", "k_clf", "seed")
    if unread and not (args.labels or args.label_column):
        raise InputError(f"eval without labels takes no {unread} (the k-NN classifier "
                         f"runs only with --labels or --label-column)")
    indices, coords = load_embedding_csv(args.emb)
    ds = None
    if args.reference == "chart":
        if not args.chart or args.data:
            raise InputError("--ref chart takes --chart FILE and no --data")
        reference = {"reference_points": _chart_points(args.chart, indices)}
    else:
        if args.chart or args.data is None:
            raise InputError(f"--ref {args.reference} takes --data FILE and no --chart")
        ds = load_csv(args.data, label_column=None if args.labels else args.label_column)
        _refuse_dropped_rows(ds, args.data, args.labels)
        x = as_finite_matrix(ds.data)
        if indices.max() >= x.shape[0]:
            raise InputError("embedding indices exceed data row count")
        if args.reference == "euclidean":
            reference = {"reference_points": x[indices]}
        else:  # geodesic: the graph isomap uses, or pr-isomap's when a window is given
            method = "isomap" if args.h is None and args.h_pct is None else "pr-isomap"
            # p is unused: only the geodesics are needed
            spec = MethodSpec(method=method, p=1, k=args.k, h=args.h, h_percentile=args.h_pct)
            neighbors = Neighbors(x)
            reference = {"reference_dists": all_pairs(
                neighbors.graph(spec.k, resolve_h(spec, neighbors)), indices)}

    labels = _load_labels(args, indices, ds)
    t0 = time.perf_counter()
    report = evaluate_embedding(
        coords, **reference, m=args.m, labels=labels, k_clf=args.k_clf, folds=args.folds,
        seed=args.seed, run=_run_config(args),
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

    ds = load_csv(args.input, label_column=None if args.labels else args.label_column)
    _refuse_dropped_rows(ds, args.input, args.chart, args.labels)
    rows = np.arange(ds.n, dtype=np.int64)
    result = run_bench(
        ds.data, specs, baseline=args.baseline, m=args.m, k_clf=args.k_clf, folds=args.folds,
        seed=args.seed, cache_dir=args.cache_dir, labels=_load_labels(args, rows, ds),
        reference_points=_chart_points(args.chart, rows, ds.n) if args.chart else None,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table(out / "bench.csv", result.table_rows())
    write_json({
        "run_config": _run_config(args),
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
    comment = "runconfig " + json.dumps(_run_config(args), sort_keys=True)
    svg = scatter_svg(coords, labels=_load_labels(args, indices), axes=axes, comment=comment)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# -- parser -----------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was
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


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _mallopt():
    """glibc's mallopt in the running process, or None where it has none.

    CDLL(None) searches the symbols already loaded, so no library is looked
    up on disk (ctypes.util.find_library would start a subprocess)."""
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


@functools.cache
def _keep_freed_blocks() -> None:
    """Set glibc's allocator policy, once per process.

    The scoring and k-NN-vote loops allocate 128-row float64 temporaries of
    128 * m * 8 bytes: 1.5 MiB at m = 1,433, 2 MiB at the dense limit of
    2,048. Under glibc's default, dynamic thresholds each freed block is
    unmapped or trimmed off the heap, and the next block faults its pages
    in anew: about 21,000 minor faults per warm eval op at m = 1,433.
    Setting either threshold turns the dynamic ones off. A 4 MiB mmap
    threshold takes those blocks from the heap, while the n x n buffers
    (13-18 MiB at n = 1,500) stay mapped and go back to the OS when freed.
    The trim threshold keeps freed blocks in the heap: 16 MiB is the least
    that does so at m = 2,048 (8 MiB left about 2,500 faults per eval op
    there, 16 and 32 MiB none), and every MiB above it is idle memory a
    process holds on to. Neither value changes a result; without glibc
    this does nothing.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def main(argv=None) -> int:
    _keep_freed_blocks()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolve_settings(args, _load_config(args.config))
        return args.func(args)
    except (InputError, UnicodeError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
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
