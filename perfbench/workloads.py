"""The benchmark's workloads: inputs made from the seed, and the CLI ops each runs.

Every workload feeds the quick-start generator (swiss roll, density exponent
3, 1% short-circuit pairs) through the public entry point
``prisomap.cli.main(argv)``. The program sees only the generated files.

Every workload keeps at most 2048 vertices, the dense-eigensolver limit:
above it the iterative eigensolver starts from a random vector, so output
bytes would not repeat and the output checks would fail at random.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 12
GEN_FLAGS = ["--exponent", "3", "--short-circuit-pairs", "0.01"]

# SHA-256 of (ambient.csv, intrinsic.csv) made by `prisomap gen` for the
# default seed 0 and the held-out seed 1234. A mismatch means the inputs
# drifted, and the run is aborted instead of measured.
PINNED_INPUTS = {
    (1500, 0): (
        "a46b7f4238f17c33a804ade709c32c02d92b789cfac05d6a8441cad92df4c0d0",
        "d5fce3ab0eb7f2a0ac295ee1ea864c649f95c2d9af7ea0cd47c819090119ce79"),
    (1500, 1234): (
        "26495eb6c025c54aefd6ddeee05c0e538fdcc2ea463a0b284010322b2834f3e1",
        "53e26243e4c72285805577e99161b0df01de22ad3b4f9834e82d9c0f466cafc1"),
}


@dataclass(frozen=True)
class Config:
    """One point of a workload's parameter grid."""

    h_pct: int
    p: int

    @property
    def name(self) -> str:
        return f"h{self.h_pct}-p{self.p}"


@dataclass(frozen=True)
class Paths:
    """Files of one run, all under its scratch directory."""

    root: Path

    @property
    def inputs(self) -> Path:
        return self.root / "in"

    @property
    def ambient(self) -> Path:
        return self.inputs / "ambient.csv"

    @property
    def intrinsic(self) -> Path:
        return self.inputs / "intrinsic.csv"

    @property
    def labels(self) -> Path:
        return self.inputs / "labels.csv"

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    @property
    def out(self) -> Path:
        return self.root / "out"

    @property
    def refs(self) -> Path:
        return self.root / "refs"

    @property
    def check(self) -> Path:
        return self.root / "check"

    def emb(self, cfg: Config, base: Path | None = None) -> Path:
        return (base or self.out) / f"{cfg.name}.csv"

    def report(self, cfg: Config) -> Path:
        return self.out / f"{cfg.name}.report.json"

    @property
    def bench_out(self) -> Path:
        return self.out / "bench"


def embed_argv(paths: Paths, cfg: Config, spectrum: int | None = None,
               cache: bool = True, out: Path | None = None) -> list[str]:
    argv = ["embed", "--in", str(paths.ambient), "--method", "pr-isomap",
            "--k", str(K), "--h-pct", str(cfg.h_pct), "--p", str(cfg.p),
            "--policy", "largest-component"]
    if spectrum is not None:
        argv += ["--spectrum", str(spectrum)]
    if cache:
        argv += ["--cache-dir", str(paths.cache)]
    return argv + ["--out", str(out or paths.emb(cfg))]


def eval_argv(paths: Paths, cfg: Config) -> list[str]:
    return ["eval", "--emb", str(paths.emb(cfg)), "--ref", "chart",
            "--chart", str(paths.intrinsic), "--labels", str(paths.labels),
            "--label-column", "label", "--out", str(paths.report(cfg))]


def bench_argv(paths: Paths, cfg: Config) -> list[str]:
    return ["bench", "--in", str(paths.ambient), "--methods", "pr-isomap,isomap,pca",
            "--baseline", "isomap", "--k", str(K), "--h-pct", str(cfg.h_pct),
            "--p", str(cfg.p), "--chart", str(paths.intrinsic),
            "--labels", str(paths.labels), "--label-column", "label",
            "--out", str(paths.bench_out)]


def write_quartile_labels(paths: Paths) -> None:
    """Label each point with the quartile of its chart coordinate t."""
    t = np.loadtxt(paths.intrinsic, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    labels = np.searchsorted(np.percentile(t, [25, 50, 75]), t, side="right")
    with paths.labels.open("w", encoding="utf-8") as fh:
        fh.write("t,label\n")
        for ti, li in zip(t, labels):
            fh.write(f"{float(ti)!r},{int(li)}\n")


@dataclass(frozen=True)
class Workload:
    """A named load: input size, parameter grid and the op it repeats.

    An op is the CLI calls ``op_argvs`` returns, timed together. ``outputs``
    lists the files an op writes, which must repeat byte for byte.
    """

    name: str
    n: int
    configs: tuple[Config, ...]
    setup_reps: int

    def op_argvs(self, paths: Paths, cfg: Config) -> list[list[str]]:
        if self.name == "sweep-warm":
            return [embed_argv(paths, cfg, spectrum=20), eval_argv(paths, cfg)]
        return [bench_argv(paths, cfg)]

    def outputs(self, paths: Paths, cfg: Config) -> list[Path]:
        if self.name == "bench-paired":
            return [paths.bench_out / "bench.csv", paths.bench_out / "bench.json"]
        emb = paths.emb(cfg)
        return [emb, emb.with_suffix(".json"), paths.report(cfg)]

    def prepare(self, main, paths: Paths, seed: int, rep: int, n: int) -> None:
        """One set-up repetition: generate the inputs and fill the cache.

        sweep-warm fills the cache with cold embeds at h-pct 60 and 80; they
        are the cold references its warm ops are compared to. Repetitions
        alternate p, so two repetitions give a cold reference for every
        point of the grid.
        """
        rc = main(["gen", "swiss-roll", "--n", str(n), *GEN_FLAGS,
                   "--seed", str(seed), "--out", str(paths.inputs)])
        if rc != 0:
            raise RuntimeError(f"gen exited {rc}")
        write_quartile_labels(paths)
        if self.name != "sweep-warm":
            return
        p = self.configs[rep % 2].p
        paths.out.mkdir(parents=True, exist_ok=True)
        paths.refs.mkdir(parents=True, exist_ok=True)
        for cfg in self.configs:
            if cfg.p != p:
                continue
            rc = main(embed_argv(paths, cfg, spectrum=20))
            if rc != 0:
                raise RuntimeError(f"cold embed {cfg.name} exited {rc}")
            for src in (paths.emb(cfg), paths.emb(cfg).with_suffix(".json")):
                shutil.copyfile(src, paths.refs / src.name)


# Grid order for sweep-warm is h-major, so that alternating traced and
# untraced ops gives each side one op per h.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("sweep-warm", 1500,
                 (Config(60, 2), Config(60, 10), Config(80, 2), Config(80, 10)),
                 setup_reps=2),
        Workload("bench-paired", 1500, (Config(60, 2),), setup_reps=3),
    )
}
