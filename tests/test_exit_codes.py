"""The exit-code contract, held by generated invocations of every command.

Hypothesis drives cli.main in-process on gen, embed, eval, bench and plot
with malformed inputs at n <= 50: CSV cells, headers and row lengths,
non-UTF-8 bytes, config JSON of every type, flag values, truncated or
flipped .eig entries, and short charts and label files. Each input is sound
but for a fault drawn now and then, so that most invocations get past the
first check. Whatever the input, main returns 0, 2 (input), 3 (graph
topology) or 4 (numeric); a nonzero exit prints exactly one `error:`,
`graph error:` or `numeric error:` line, matching its code, and no
exception escapes. No generated value asks for memory beyond the input's
size: gen's n is at most 50, and k, p, spectrum, m and folds are bounded by
it, so Dijkstra forks no worker either.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prisomap import bench
from prisomap.bench import METHODS
from prisomap.cli import SETTINGS, main

N_MAX = 50
ERROR_LINE = re.compile(r"^(?:prisomap(?: \w+)?: )?(graph |numeric )?error: ")
CODE_OF = {None: 2, "graph ": 3, "numeric ": 4}
# cells a CSV writer of another program might leave behind
ODD_CELLS = ("nan", "inf", "-inf", "", " ", "x", "1e308", "-1e308", "1e200", "1e-320",
             "-0", "1_0", "0x10", "1.5", "9223372036854775808", '"1"')
# a sound value of each setting at n <= 50
SOUND = {
    "n": st.integers(10, N_MAX), "noise_sd": st.floats(0.0, 1.0),
    "exponent": st.floats(-0.9, 3.0), "short_circuit_pairs": st.floats(0.0, 0.4),
    "seed": st.integers(0, 3), "k": st.integers(1, 12), "h": st.floats(0.05, 50.0),
    "h_pct": st.floats(1.0, 100.0), "p": st.integers(1, 3), "spectrum": st.integers(0, 6),
    "m": st.integers(1, 10), "k_clf": st.integers(1, 6), "folds": st.integers(2, 5),
    "policy": st.sampled_from(["error", "largest-component"]),
}
COMMAND_SETTINGS = {
    "gen": ("n", "noise_sd", "exponent", "short_circuit_pairs", "seed"),
    "embed": ("k", "p", "policy", "spectrum"),
    "eval": ("m", "k_clf", "folds", "seed"),
    "bench": ("k", "p", "m", "k_clf", "folds", "policy", "seed"),
    "plot": (),
}


def run(argv: list[str]) -> int:
    """main(argv), held to the contract: the exit code and its one line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    kinds = [m.group(1) for m in map(ERROR_LINE.match, err.getvalue().splitlines()) if m]
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert [CODE_OF[kind] for kind in kinds] == ([code] if code else []), \
        (argv, code, err.getvalue())
    return code


def rarely(draw) -> bool:
    """True for about one draw in twelve: when a fault or an edge goes in.
    Hypothesis favours the ends of a range and shrinks towards 0, so the
    value that means True lies inside it."""
    return draw(st.integers(0, 11)) == 5


def setting_text(draw, dest: str) -> str:
    """A setting's value as a flag gives it: sound, or rarely out of range or
    not parsing at all."""
    setting = SETTINGS[dest]
    if not rarely(draw):
        return str(draw(SOUND[dest]))
    if setting.choices:
        return "bogus"
    if setting.type is int:
        return draw(st.sampled_from(["-1", "0", "1", "x", "2.5", ""])
                    | st.integers(-3, N_MAX).map(str))
    return draw(st.floats(-100, 100).map(repr)
                | st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "1e400", "x"]))


def config_text(draw, dests: tuple[str, ...]) -> bytes:
    """A JSON config of some of dests: their values as numbers or strings,
    or rarely of another JSON type; or a file that is no JSON object."""
    if rarely(draw):
        return draw(st.sampled_from([b'{"k": ', b"[1, 2]", b"null", b'"k"', b'{"k": "\xff"}']))
    cfg = {}
    for dest in draw(st.lists(st.sampled_from([*dests, "bogus"]), max_size=3, unique=True)):
        if dest == "bogus" or rarely(draw):
            cfg[dest] = draw(st.one_of(st.none(), st.booleans(), st.integers(-3, N_MAX),
                                       st.floats(), st.just([1]), st.just({"k": 3})))
        else:  # as a string, or as the JSON number it reads as
            cfg[dest] = text = setting_text(draw, dest)
            for parse in (float, int) if SETTINGS[dest].type and draw(st.booleans()) else ():
                with contextlib.suppress(ValueError):
                    cfg[dest] = parse(text)
    return json.dumps(cfg).encode()


def csv_bytes(draw, names: list[str], rows: list[list[str]]) -> bytes:
    """The table as CSV text; rarely with an odd cell, a row cut short or
    lengthened, no header, or a byte that is not UTF-8."""
    rows = [list(row) for row in rows]
    if rows and names and rarely(draw):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(ODD_CELLS))
    if rows and rarely(draw):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + ["1"]
    lines = [",".join(row) for row in rows]
    raw = "\n".join(lines if rarely(draw) else [",".join(names), *lines]).encode() + b"\n"
    if rarely(draw):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def points(draw, n: int, d: int) -> np.ndarray:
    """n points in d dimensions: scattered, or in two far clusters, repeated
    or all equal, so that graphs come out connected, split and degenerate;
    rarely scaled to the edge of float64."""
    x = np.random.default_rng(draw(st.integers(0, 3))).normal(size=(n, d))
    shape = draw(st.sampled_from(["scatter"] * 5 + ["clusters", "repeated", "equal"]))
    if shape == "clusters":
        x[: n // 2] += 100.0
    elif shape == "repeated":
        x[1::2] = x[::2][: n // 2]
    elif shape == "equal":
        x[:] = 1.0
    return x * (draw(st.sampled_from([1e-160, 1e150, 1e160])) if rarely(draw) else 1.0)


def table(draw, rows: list[list[str]], names: list[str],
          labels: bool = False) -> tuple[bytes, list[str]]:
    """Cells under names as CSV, perhaps with a label column of 1-4 classes
    inserted, and the header that goes with it."""
    rows, names = [list(row) for row in rows], list(names)
    if labels:
        at = draw(st.integers(0, len(names)))
        names.insert(at, "label")
        classes = draw(st.integers(1 if rarely(draw) else 2, 4))
        for i, row in enumerate(rows):
            row.insert(at, str(i % classes))
    return csv_bytes(draw, names, rows), names


def cells(x: np.ndarray) -> list[list[str]]:
    return [[repr(float(v)) for v in row] for row in x]


def damage(draw, entry: Path) -> None:
    """Cut a spectral entry short, or flip one bit of it."""
    raw = bytearray(entry.read_bytes())
    at = draw(st.integers(0, max(len(raw) - 1, 0)))
    if draw(st.booleans()):
        del raw[at:]
    elif raw:
        raw[at] ^= 1 << draw(st.integers(0, 7))
    entry.write_bytes(bytes(raw))


def command_argv(draw, command: str, work: Path) -> list[str]:
    """The command's arguments, and the files they name written under work."""
    def write(name: str, raw: bytes) -> str:
        (work / name).write_bytes(raw)
        return str(work / name)

    def sometimes(*args: str) -> list[str]:
        return list(args) if draw(st.booleans()) else []

    def flag(dest: str) -> str:
        return f"--{dest.replace('_', '-')}={setting_text(draw, dest)}"

    def some(least: int, most: int) -> int:
        return draw(st.integers(0 if rarely(draw) else least, most))

    n = some(21, N_MAX)  # T/C's default m = 10 needs n >= 21
    rows = n if not rarely(draw) else draw(st.integers(0, n + 2))  # a short or long file
    reference = draw(st.sampled_from(["euclidean", "geodesic", "chart"]))
    argv = [command, *(["torus" if rarely(draw) else "swiss-roll", flag("n")]
                       if command == "gen" else [])]
    names: list[str] = []
    if command in ("embed", "bench") or \
            (command == "eval" and (reference != "chart") != rarely(draw)):
        d = some(2, 3)  # pca's default p = 2 needs d >= 2
        raw, names = table(draw, cells(points(draw, n, d)), [f"f{j}" for j in range(d)],
                           labels=draw(st.booleans()))
        argv += ["--data" if command == "eval" else "--in", write("data.csv", raw)]
    if command in ("eval", "plot"):
        index = range(n) if not rarely(draw) else sorted(draw(st.sets(st.integers(-1, n + 1))))
        p = some(2, 3)  # plot needs p >= 2
        raw, _ = table(draw, [[str(i), *row] for i, row in
                              zip(index, cells(points(draw, len(index), p)))],
                       ["index", *(f"c{j}" for j in range(p))])
        argv += ["--emb" if command == "eval" else "--in", write("emb.csv", raw)]
    if command == "embed":
        argv += ["--method", "bogus" if rarely(draw) else draw(st.sampled_from(METHODS))]
    if command == "bench":
        methods = draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=4,
                                unique=not rarely(draw)))
        argv += ["--methods", ",".join(methods + (["bogus"] if rarely(draw) else []))
                 if not rarely(draw) else ","]
        argv += sometimes("--baseline", draw(st.sampled_from([*methods, "bogus"])))
    if command == "eval":
        argv += ["--ref", reference, *sometimes("--csv", str(work / "r.csv"))]
    if (command == "bench" and draw(st.booleans())) or \
            (command == "eval" and (reference == "chart") != rarely(draw)):
        chart = np.random.default_rng(0).uniform(1.5 * math.pi, 4.5 * math.pi, (rows, 2))
        raw, _ = table(draw, cells(chart), ["a", "b"] if rarely(draw) else ["t", "u"])
        argv += ["--chart", write("chart.csv", raw)]
    if command in ("embed", "bench") or (command == "eval" and
                                         (reference == "geodesic") != rarely(draw)):
        window = None if rarely(draw) else draw(st.sampled_from(["h_pct", "h"]))
        argv += [flag(window)] if window else []
        argv += sometimes(flag("k")) if command == "eval" else []
    labels = command != "gen" and draw(st.booleans())
    if labels:
        classes = np.arange(rows)[:, None] % some(2, 4)
        argv += ["--labels", write("labels.csv", table(draw, classes.astype(str).tolist(),
                                                         ["label"])[0])]
    if command != "gen" and (labels or "label" in names) != rarely(draw):
        argv += ["--label-column", "label" if not rarely(draw) else
                 draw(st.sampled_from([*names, "nope"]))]
    if command == "plot":
        axes = draw(st.lists(st.integers(-1, 3) if rarely(draw) else st.integers(0, 1),
                             min_size=2, max_size=2, unique=not rarely(draw)))
        argv += sometimes("--axes", *map(str, axes))
    for dest in COMMAND_SETTINGS[command]:
        argv += sometimes(flag(dest)) if dest != "n" else []
    if command in ("embed", "bench"):
        argv += sometimes("--cache-dir", str(work / "cache"))
    if rarely(draw):
        dests = COMMAND_SETTINGS[command] + (("k", "h", "h_pct") if command != "gen" else ())
        argv += ["--config", write("config.json", config_text(draw, dests))]
    out = {"gen": "gen", "embed": "e.csv", "eval": "r.json", "bench": "b", "plot": "p.svg"}
    return argv + ["--out", str(work / out[command])]


@pytest.mark.parametrize("command", ["gen", "embed", "eval", "bench", "plot"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_exit_is_a_contract_code_with_one_line(command, data):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        work = Path(tmp)
        argv = command_argv(data.draw, command, work)
        code = run(argv)
        entries = sorted((work / "cache").glob("*.eig"))
        if code == 0 and entries:
            for entry in entries:
                damage(data.draw, entry)
            run(argv)


@pytest.fixture(scope="module")
def roll(tmp_path_factory):
    """A 40-point roll with its embedding, and its points labelled by the
    median of t, in the data (labelled.csv) and in a file of their own."""
    path = tmp_path_factory.mktemp("roll")
    assert run(["gen", "swiss-roll", "--n", "40", "--seed", "3", "--out", str(path)]) == 0
    assert run(["embed", "--in", str(path / "ambient.csv"), "--method", "pca",
                "--out", str(path / "emb.csv")]) == 0
    ambient = (path / "ambient.csv").read_text().splitlines()
    t = np.loadtxt(path / "intrinsic.csv", delimiter=",", skiprows=1)[:, 0]
    labels = (t > np.median(t)).astype(int)
    (path / "labels.csv").write_text("label\n" + "".join(f"{y}\n" for y in labels))
    (path / "one-class.csv").write_text("label\n" + "0\n" * t.size)
    (path / "labelled.csv").write_text("\n".join(
        [ambient[0] + ",label"] + [f"{row},{y}" for row, y in zip(ambient[1:], labels)]) + "\n")
    (path / "nan.csv").write_text("\n".join([*ambient[:5], "nan,nan,nan", *ambient[6:]]) + "\n")
    (path / "repeated.csv").write_text("\n".join([ambient[0], *ambient[1:11] * 4]) + "\n")
    for name, text in {"header.csv": "idx,c0,c1\n0,1,2\n", "empty.csv": "index,c0,c1\n",
                       "cell.csv": "index,c0,c1\n0,x,2\n", "negative.csv": "index,c0,c1\n-1,1,2\n",
                       "huge.csv": "f0,f1\n" + "1e200,1\n" * 30}.items():
        (path / name).write_text(text)
    (path / "latin1.csv").write_bytes(b"f\xf6,g\n1,2\n3,4\n")
    (path / "latin1.json").write_bytes(b'{"k": "\xf6"}')
    return path


# Every check a flag, a config value or a file can trip, with its message
ROLL_EMB = ["--emb", "{roll}/emb.csv"]
LABELLED = ["--labels", "{roll}/labels.csv", "--label-column", "label"]
INPUT_CHECKS = {
    "gen n": (["gen", "swiss-roll", "--n", "5"], "n must be >= 10, got 5"),
    "gen noise_sd": (["gen", "swiss-roll", "--noise-sd=-1"], "noise_sd must be finite and >= 0"),
    "gen exponent": (["gen", "swiss-roll", "--exponent=-1"], "density_exponent must be in (-1"),
    "gen exponent overflow": (["gen", "swiss-roll", "--exponent=300"], "must be in (-1, 266]"),
    "gen short circuit": (["gen", "swiss-roll", "--short-circuit-pairs", "0.5"],
                          "short_circuit_pairs must be in [0, 0.5)"),
    "gen noise overflow": (["gen", "swiss-roll", "--noise-sd=1e308"], "(from 0) is"),
    "gen seed": (["gen", "swiss-roll", "--seed=-1"], "seed must be >= 0, got -1"),
    "k": (["embed", "--in", "{roll}/ambient.csv", "--method", "isomap", "--k", "40"],
          "k must satisfy 1 <= k < n=40, got 40"),
    "h": (["embed", "--in", "{roll}/ambient.csv", "--method", "pr-isomap", "--h", "0"],
          "h must be positive (or +inf), got 0.0"),
    "h_pct": (["embed", "--in", "{roll}/ambient.csv", "--method", "pr-isomap", "--h-pct", "0"],
              "percentile must be in (0, 100], got 0.0"),
    "p": (["embed", "--in", "{roll}/ambient.csv", "--method", "isomap", "--p", "40"],
          "p must satisfy 1 <= p < n=40, got 40"),
    "pca p": (["embed", "--in", "{roll}/ambient.csv", "--method", "pca", "--p", "4"],
              "p must satisfy p <= d=3, got 4"),
    "m": (["eval", *ROLL_EMB, "--data", "{roll}/ambient.csv", "--m", "20"],
          "neighborhood size must satisfy 1 <= m < n/2 = 20.0, got 20"),
    "folds": (["eval", *ROLL_EMB, "--data", "{roll}/ambient.csv", *LABELLED, "--folds", "1"],
              "folds must be >= 2, got 1"),
    "classes": (["eval", *ROLL_EMB, "--data", "{roll}/ambient.csv", "--labels",
                 "{roll}/one-class.csv", "--label-column", "label"], "need at least 2 classes"),
    "k_clf": (["eval", *ROLL_EMB, "--data", "{roll}/ambient.csv", *LABELLED, "--k-clf", "0"],
              "k_clf must be >= 1, got 0"),
    "eval seed": (["eval", *ROLL_EMB, "--data", "{roll}/labelled.csv", "--label-column",
                   "label", "--folds", "5", "--seed=-1"], "seed must be >= 0, got -1"),
    "bench seed": (["bench", "--in", "{roll}/ambient.csv", "--methods", "pca", *LABELLED,
                    "--folds", "5", "--seed=-1"], "seed must be >= 0, got -1"),
    "eval classifier without labels": (
        ["eval", *ROLL_EMB, "--ref", "chart", "--chart", "{roll}/intrinsic.csv", "--folds", "5",
         "--k-clf", "3"], "eval without labels takes no --folds or --k-clf"),
    "bench dropped rows": (["bench", "--in", "{roll}/nan.csv", "--methods", "pca", "--chart",
                            "{roll}/intrinsic.csv"], "nan.csv: 1 row(s) holding NaN were dropped"),
    "eval dropped rows": (["eval", *ROLL_EMB, "--data", "{roll}/nan.csv", *LABELLED],
                          "nan.csv: 1 row(s) holding NaN were dropped"),
    "zero h_pct": (["embed", "--in", "{roll}/repeated.csv", "--method", "pr-isomap", "--k", "3",
                    "--h-pct", "50"], "percentile 50.0 of the candidate edge lengths is 0"),
    "no method": (["bench", "--in", "{roll}/ambient.csv", "--methods", ","],
                  "need at least one method"),
    "duplicate method": (["bench", "--in", "{roll}/ambient.csv", "--methods", "pca,pca"],
                         "duplicate method names in ['pca', 'pca']"),
    "embedding header": (["plot", "--in", "{roll}/header.csv"], "not an embedding CSV"),
    "embedding rows": (["plot", "--in", "{roll}/empty.csv"], "embedding CSV holds no rows"),
    "embedding cell": (["eval", "--emb", "{roll}/cell.csv", "--data", "{roll}/ambient.csv"],
                       "cell.csv: could not convert string 'x'"),
    "embedding index": (["plot", "--in", "{roll}/negative.csv"], "negative index -1"),
    "magnitude": (["embed", "--in", "{roll}/huge.csv", "--method", "mds"],
                  "data holds a magnitude of 1e+200"),
    "non-UTF-8 input": (["embed", "--in", "{roll}/latin1.csv", "--method", "pca"],
                        "'utf-8' codec can't decode byte 0xf6"),
    "non-UTF-8 config": (["plot", "--in", "{roll}/emb.csv", "--config", "{roll}/latin1.json"],
                         "'utf-8' codec can't decode byte 0xf6"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_each_input_check_exits_2_with_one_line(roll, tmp_path, capsys, case):
    argv, message = INPUT_CHECKS[case]
    argv = [arg.replace("{roll}", str(roll)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_a_library_value_error_on_the_bench_path_escapes_main(tmp_path, monkeypatch):
    """Exit 2 means bad input: a ValueError that is not an InputError is a
    fault of the program, and main lets it out with its traceback."""
    assert run(["gen", "swiss-roll", "--n", "40", "--out", str(tmp_path / "roll")]) == 0

    def broken(*args, **kwargs):
        raise ValueError("an invariant of the program")

    monkeypatch.setattr(bench, "evaluate_embedding", broken)
    with pytest.raises(ValueError, match="an invariant of the program"):
        main(["bench", "--in", str(tmp_path / "roll" / "ambient.csv"), "--methods", "pca",
              "--out", str(tmp_path / "b")])
