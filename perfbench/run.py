#!/usr/bin/env python3
"""prisomap benchmark: run one workload through ``prisomap.cli.main`` and report.

    python3 perfbench/run.py --workload bench-paired --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root. The load is a closed loop: one client in
this process runs one op at a time, with ``--threads`` at its default of 1.

A run makes fresh inputs from ``--seed`` in a scratch directory under
``.perfbench_work/``, sets up in separate processes (so that the timed
process's peak RSS covers the timed loop alone), runs one untimed warm-up
op, then times ops for ``--seconds``. Every op's outputs are checked:
exit codes, row counts, bytes equal to the first op of the same
configuration, and for sweep-warm bytes equal to a cold embed. Quality is
scored with the benchmark's own code. The last line of standard output is
one JSON object; the exit code is 0 only if every check passed.

With ``--trace 1`` ops alternate between untraced and traced; the traced
ones give per-layer metrics from spans around each module's functions, and
the spans are written to ``.perfbench_work/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are capped at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from workloads import K, PINNED_INPUTS, WORKLOADS, Config, Paths, Workload  # noqa: E402
from workloads import embed_argv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Abort(Exception):
    """The run cannot be measured; exit nonzero without a result line."""


@dataclass
class Op:
    index: int  # -1 for the warm-up op
    cfg: Config
    traced: bool
    seconds: float
    exit_codes: list[int]
    stderr: str
    problems: list[str] = field(default_factory=list)
    timing_fields: int = 0


def import_cli():
    """Import prisomap from this checkout's src/, never from elsewhere."""
    if not (SRC / "prisomap" / "cli.py").is_file():
        raise Abort(f"no prisomap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prisomap.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "prisomap":
        raise Abort(f"prisomap imported from {cli.__file__}, not from {SRC}")
    return cli


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- set-up ---------------------------------------------------------------------


def set_up(wl: Workload, paths: Paths, seed: int, n: int) -> list[float]:
    """Run each set-up repetition in its own process; return their wall times."""
    times = []
    digests = None
    for rep in range(wl.setup_reps):
        for d in (paths.inputs, paths.cache, paths.out):
            shutil.rmtree(d, ignore_errors=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                "--seed", str(seed), "--n", str(n), "--prepare", str(rep),
                "--work", str(paths.root)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise Abort(f"set-up repetition {rep} exited {proc.returncode}:\n{proc.stderr}")
        got = (sha256(paths.ambient), sha256(paths.intrinsic))
        pinned = PINNED_INPUTS.get((n, seed))
        if pinned is not None and got != pinned:
            raise Abort(f"inputs for n={n} seed={seed} have digests {got}, pinned {pinned}")
        if digests is not None and got != digests:
            raise Abort("set-up repetitions generated different inputs")
        digests = got
    return times


# -- the timed loop ---------------------------------------------------------------


def run_main(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # an op that crashes is a failed op, not a failed run
        traceback.print_exc()
        return -1


def run_quiet(cli, argv: list[str]) -> int:
    """Run a check-phase CLI call; show its stderr only if it fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_main(cli, argv)
    if code != 0:
        print(err.getvalue(), file=sys.stderr)
    return code


class Loop:
    """Runs and checks ops; keeps what the metrics need."""

    def __init__(self, cli, wl: Workload, paths: Paths, tracer):
        self.cli, self.wl, self.paths, self.tracer = cli, wl, paths, tracer
        self.ops: list[Op] = []
        self.first: dict[str, str] = {}
        self.cold: dict[str, str] = {}
        paths.out.mkdir(parents=True, exist_ok=True)
        if wl.name == "sweep-warm":
            for ref in sorted(paths.refs.iterdir()):
                self.cold[ref.name] = checks.normalized_digest(ref)[0]

    def run(self, index: int, cfg: Config, traced: bool) -> Op:
        gc.collect()
        err = io.StringIO()
        if traced:
            self.tracer.op = index
            self.tracer.install()
            root = self.tracer.begin("op")
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            codes = [run_main(self.cli, argv) for argv in self.wl.op_argvs(self.paths, cfg)]
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.end(root)
            self.tracer.uninstall()
            seconds = root.seconds
        op = Op(index, cfg, traced, seconds, codes, err.getvalue())
        self.check(op)
        self.ops.append(op)
        return op

    def check(self, op: Op) -> None:
        if any(code != 0 for code in op.exit_codes):
            op.problems.append(f"exit codes {op.exit_codes}: {op.stderr.strip()[-500:]}")
            return
        for path in self.wl.outputs(self.paths, op.cfg):
            if not path.is_file():
                op.problems.append(f"{path.name} missing")
                continue
            digest, timing_fields = checks.normalized_digest(path)
            op.timing_fields += timing_fields
            key = f"{op.cfg.name}/{path.name}"
            if self.first.setdefault(key, digest) != digest:
                op.problems.append(f"{path.name} differs from the first op of {op.cfg.name}")
            if path.name in self.cold and self.cold[path.name] != digest:
                op.problems.append(f"warm {path.name} differs from the cold embed")
        emb = self.paths.emb(op.cfg)
        if self.wl.name == "sweep-warm" and emb.is_file() and not checks.embedding_rows_match(emb):
            op.problems.append(f"{emb.name} row count differs from n_kept")

    def loop(self, seconds: float) -> None:
        cfgs = self.wl.configs
        self.run(-1, cfgs[0], False)
        start = time.perf_counter()
        i = 0
        # whole rounds of the grid, so that every run times the same mix, and
        # at least two ops, so that a traced run has one of each kind
        while i < 2 or i % len(cfgs) or time.perf_counter() - start < seconds:
            self.run(i, cfgs[i % len(cfgs)], self.tracer is not None and i % 2 == 1)
            i += 1


# -- quality and cross-checks -------------------------------------------------------


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def score(cli, wl: Workload, paths: Paths) -> tuple[dict, list[str]]:
    """Quality of each configuration's pr-isomap embedding, from the output files.

    stress_ratio is the program's stress-1 against the chart over the
    stress-1 of the benchmark's reference PR-Isomap on the same input. Raw
    stress-1 swings about 2x between seeds (it hinges on which
    short-circuit pairs survive the cap), so only the ratio is steady
    enough to bound. Both scores are cross-checked against the program's
    own report of the same outputs, which repeat byte for byte across ops.
    """
    problems: list[str] = []
    chart = checks.unrolled_chart(paths.intrinsic)
    x = np.loadtxt(paths.ambient, delimiter=",", skiprows=1, ndmin=2)
    refs = checks.reference_embeddings(x, K, [(c.h_pct, c.p) for c in wl.configs])
    paths.check.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg in wl.configs:
        emb = paths.emb(cfg)
        if wl.name == "bench-paired":
            # bench writes no coordinates: embed with the same parameters
            emb = paths.emb(cfg, paths.check)
            if run_quiet(cli, embed_argv(paths, cfg, cache=False, out=emb)) != 0:
                return {}, [f"check embed {cfg.name} failed"]
        if not emb.is_file():
            return {}, [f"{emb.name} missing"]
        stress, trust, kept = checks.quality(emb, chart)
        ref_coords, ref_kept, removed = refs[(cfg.h_pct, cfg.p)]
        ref_stress = checks.stress1(checks.distances(chart[ref_kept]),
                                    checks.distances(ref_coords))
        desc = json.loads(emb.with_suffix(".json").read_text(encoding="utf-8"))
        rows.append((stress / ref_stress, trust, removed, desc["n_kept"] / desc["n_input"]))
        print(f"# {wl.name} {cfg.name}: stress-1 {stress:.6g} (reference {ref_stress:.6g}),"
              f" trustworthiness {trust:.6g}, kept {kept.size}")

        if wl.name == "sweep-warm":
            report = json.loads(paths.report(cfg).read_text(encoding="utf-8"))
        else:
            bench = json.loads((paths.bench_out / "bench.json").read_text(encoding="utf-8"))
            report = bench["reports"]["pr-isomap"]
            # a pr-isomap largest component holds more than half the points,
            # so it lies inside isomap's largest one and is the common set
            if bench["common_vertex_count"] != kept.size:
                problems.append(f"bench scored {bench['common_vertex_count']} vertices, "
                                f"pr-isomap kept {kept.size}")
        if not close(stress, report["stress"], 1e-9):
            problems.append(f"{cfg.name}: stress-1 {stress!r} but the program reports "
                            f"{report['stress']!r}")
        if abs(trust - report["trustworthiness"]) > 1e-6:
            problems.append(f"{cfg.name}: trustworthiness {trust!r} but the program reports "
                            f"{report['trustworthiness']!r}")
    cols = list(zip(*rows))
    return {
        "stress_ratio": statistics.fmean(cols[0]),
        "trustworthiness": statistics.fmean(cols[1]),
        "graph.cap_removed_frac": statistics.fmean(cols[2]),
        "embed.kept_fraction": statistics.fmean(cols[3]),
    }, problems


# -- metrics ---------------------------------------------------------------------------


def median_of_configs(ops: list[Op]) -> float:
    """Median op time; over a grid, the median of each configuration's median.

    Grid points differ in cost, so a plain median over a grid's ops would sit
    in the gap between the cheap and the dear points and jump across it.
    """
    by_cfg: dict[str, list[float]] = {}
    for op in ops:
        by_cfg.setdefault(op.cfg.name, []).append(op.seconds)
    return statistics.median(statistics.median(v) for v in by_cfg.values())


def cache_hit_ratio(ops: list[Op]) -> float:
    fields = [line.split("cache_hit=")[1].split()[0]
              for op in ops for line in op.stderr.splitlines() if "cache_hit=" in line]
    return sum(f == "true" for f in fields) / len(fields) if fields else 0.0


def layer_metrics(loop: Loop, quality: dict) -> dict:
    from tracing import op_layer_metrics, spans_by_op

    traced = [op for op in loop.ops if op.traced]
    untraced = [op for op in loop.ops if op.index >= 0 and not op.traced]
    by_op = spans_by_op(loop.tracer.spans)
    per_op = [op_layer_metrics(by_op[op.index]) for op in traced]
    out = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
    timed = [op for op in loop.ops if op.index >= 0]
    out.update({
        "graph.cap_removed_frac": quality.get("graph.cap_removed_frac", float("nan")),
        "geodesics.cache_hit_ratio": cache_hit_ratio(timed),
        "embed.kept_fraction": quality.get("embed.kept_fraction", float("nan")),
        "cli.timing_fields_in_outputs": statistics.fmean(op.timing_fields for op in timed),
        "trace.overhead_frac": (statistics.median(op.seconds for op in traced)
                                / statistics.median(op.seconds for op in untraced) - 1.0),
    })
    return {name: out[name] for name in PER_LAYER}


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    n = args.n or wl.n
    cli = import_cli()
    paths = Paths(WORK / f"{wl.name}-s{args.seed}-{os.getpid()}")
    env = {
        "workload": wl.name, "seed": args.seed, "n": n, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": NPROC,
    }
    print("# env " + json.dumps(env), flush=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        setup_times = set_up(wl, paths, args.seed, n)
        loop = Loop(cli, wl, paths, tracer)
        loop.loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality, problems = score(cli, wl, paths)
        if tracer is not None:
            WORK.mkdir(exist_ok=True)
            tracer.dump(WORK / f"trace-{wl.name}.jsonl")
    finally:
        shutil.rmtree(paths.root, ignore_errors=True)

    warm_up = loop.ops[0]
    timed = [op for op in loop.ops if op.index >= 0 and not op.traced]
    untraced = [op.seconds for op in timed]
    failed = sum(1 for op in loop.ops if op.problems)
    for op in loop.ops:
        for problem in op.problems:
            problems.append(f"op {op.index} ({op.cfg.name}): {problem}")
    if args.trace:
        values = layer_metrics(loop, quality)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times) + warm_up.seconds,
            "op_s.p50": median_of_configs(timed),
            "ops_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (len(loop.ops) - failed) / len(loop.ops),
            "stress_ratio": quality.get("stress_ratio", float("nan")),
            "trustworthiness": quality.get("trustworthiness", float("nan")),
        }
        values = {name: values[name] for name in END_TO_END}
        units = END_TO_END
    print("# op seconds (warm-up first): "
          + " ".join(f"{op.seconds:.3f}{'t' if op.traced else ''}" for op in loop.ops))
    for name, value in values.items():
        extra = f"  (ops={len(untraced)})" if name == "op_s.p50" else ""
        print(f"{wl.name:<13} {name:<30} {value:>14.6g} {units[name]}{extra}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.ops),
        "failed": max(failed, 0 if correct else 1),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; end with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--n", str(args.n)] if args.n else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced ops and report per-layer metrics")
    parser.add_argument("--n", type=int, default=None,
                        help="input size override (the self-test uses a tiny n)")
    parser.add_argument("--prepare", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.prepare is not None:
            wl = WORKLOADS[args.workload]
            wl.prepare(import_cli().main, Paths(Path(args.work)), args.seed, args.prepare, args.n)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except Abort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
