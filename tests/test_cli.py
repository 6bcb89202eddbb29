import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from prisomap.cli import main
from prisomap.datasets import save_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def roll_dir(tmp_path):
    out = tmp_path / "roll"
    assert run_cli("gen", "swiss-roll", "--n", "300", "--seed", "7",
                   "--out", str(out)) == 0
    return out


class TestGen:
    def test_writes_three_files(self, roll_dir):
        names = sorted(p.name for p in roll_dir.iterdir())
        assert names == ["ambient.csv", "intrinsic.csv", "spec.json"]
        spec = json.loads((roll_dir / "spec.json").read_text())
        assert spec["run_config"]["command"] == "gen"
        assert spec["run_config"]["params"]["seed"] == 7

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "swiss-roll", "--n", "120", "--seed", "3",
                           "--out", str(out)) == 0
        for name in ("ambient.csv", "intrinsic.csv", "spec.json"):
            got = (a / name).read_bytes()
            want = (b / name).read_bytes()
            assert got == want or name == "spec.json" and _normalized(got, a) == _normalized(want, b)

    def test_unknown_generator(self, tmp_path, capsys):
        assert run_cli("gen", "torus", "--out", str(tmp_path / "x")) == 2
        assert "swiss-roll" in capsys.readouterr().err

    def test_n_below_minimum(self, tmp_path):
        assert run_cli("gen", "swiss-roll", "--n", "5", "--out", str(tmp_path / "x")) == 2


def _normalized(raw, base):
    return raw.replace(str(base).encode(), b"OUT")


class TestEmbed:
    def test_shapes_and_descriptor(self, roll_dir, tmp_path):
        out = tmp_path / "emb.csv"
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "isomap", "--k", "8", "--p", "2",
                     "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,c0,c1"
        assert len(lines) == 301
        desc = json.loads(out.with_suffix(".json").read_text())
        assert desc["method"]["method"] == "isomap"
        assert desc["run_config"]["command"] == "embed"

    def test_pr_isomap_inf_equals_isomap(self, roll_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--in", str(roll_dir / "ambient.csv"), "--k", "8", "--p", "2"]
        assert run_cli("embed", *base, "--method", "pr-isomap", "--h", "inf",
                       "--out", str(a)) == 0
        assert run_cli("embed", *base, "--method", "isomap", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_warm_cache_identical_output(self, roll_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        args = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                "--k", "8", "--h-pct", "70", "--p", "2",
                "--policy", "largest-component", "--cache-dir", str(cache)]
        assert run_cli(*args, "--out", str(out1)) == 0
        cold = capsys.readouterr().err
        assert "cache_hit=false" in cold
        assert run_cli(*args, "--out", str(out2)) == 0
        warm = capsys.readouterr().err
        assert "cache_hit=true" in warm
        assert out1.read_bytes() == out2.read_bytes()

    def test_repeatable_above_the_dense_eigensolver_limit(self, tmp_path, capsys):
        from prisomap.linalg import DENSE_EIG_LIMIT

        # the kept component passes the dense limit, so the eigensolve is
        # iterative, and every n x n stage and the cache body span nine tiles
        n = 2200
        roll = tmp_path / "roll"
        assert run_cli("gen", "swiss-roll", "--n", str(n), "--seed", "0",
                       "--out", str(roll)) == 0

        def embed(run, cache):
            (tmp_path / run).mkdir()
            assert run_cli("embed", "--in", str(roll / "ambient.csv"), "--method", "pr-isomap",
                           "--k", "12", "--h-pct", "60", "--p", "2",
                           "--policy", "largest-component", "--cache-dir", str(tmp_path / cache),
                           "--out", str(tmp_path / run / "emb.csv")) == 0
            return [_normalized((tmp_path / run / name).read_bytes(), tmp_path / run)
                    for name in ("emb.csv", "emb.json")]

        cold = embed("cold1", "cache1")
        assert json.loads(cold[1])["n_kept"] > DENSE_EIG_LIMIT
        assert embed("cold2", "cache2") == cold
        assert capsys.readouterr().err.count("cache_hit=false") == 2
        assert embed("warm", "cache1") == cold
        assert "cache_hit=true" in capsys.readouterr().err
        [entry1] = (tmp_path / "cache1").iterdir()
        [entry2] = (tmp_path / "cache2").iterdir()
        assert entry1.read_bytes() == entry2.read_bytes()

    @pytest.mark.parametrize("damage", ["truncated-body", "corrupt-fingerprint"])
    def test_truncated_cache_entry_is_recomputed(self, roll_dir, tmp_path, capsys, damage):
        cache = tmp_path / "cache"
        out1, out2, out3 = tmp_path / "e1.csv", tmp_path / "e2.csv", tmp_path / "e3.csv"
        args = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                "--k", "8", "--h-pct", "70", "--p", "2",
                "--policy", "largest-component", "--cache-dir", str(cache)]
        assert run_cli(*args, "--out", str(out1)) == 0
        capsys.readouterr()
        [entry] = cache.iterdir()
        raw = bytearray(entry.read_bytes())
        if damage == "truncated-body":
            del raw[len(raw) // 2:]
        else:
            # magic and lengths intact, fingerprint bytes not UTF-8
            fp_start = 4 + struct.calcsize("<IIdI")
            raw[fp_start:fp_start + 2] = b"\xff\xfe"
        entry.write_bytes(bytes(raw))
        assert run_cli(*args, "--out", str(out2)) == 0
        err = capsys.readouterr().err
        assert "recomputing" in err and "cache_hit=false" in err
        assert out1.read_bytes() == out2.read_bytes()
        assert run_cli(*args, "--out", str(out3)) == 0
        assert "cache_hit=true" in capsys.readouterr().err
        assert out1.read_bytes() == out3.read_bytes()
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_one_candidate_pass_per_command(self, roll_dir, tmp_path, monkeypatch, capsys):
        from prisomap import graph

        passes = []
        knn_candidates = graph._knn_candidates

        def counting(*args, **kwargs):
            passes.append(1)
            return knn_candidates(*args, **kwargs)

        monkeypatch.setattr(graph, "_knn_candidates", counting)

        def count(*argv):
            passes.clear()
            assert run_cli(*argv) == 0
            return len(passes)

        data = ["--in", str(roll_dir / "ambient.csv"), "--k", "10", "--p", "2"]
        assert count("bench", *data, "--methods", "pr-isomap,isomap,pca", "--h-pct", "60",
                     "--out", str(tmp_path / "bench")) == 1
        embed = ["embed", *data, "--method", "pr-isomap", "--policy", "largest-component",
                 "--cache-dir", str(tmp_path / "cache")]
        out = tmp_path / "e.csv"
        assert count(*embed, "--h-pct", "70", "--out", str(out)) == 1  # cold
        assert count(*embed, "--h-pct", "70", "--out", str(out)) == 1  # warm
        h = json.loads(out.with_suffix(".json").read_text())["method"]["h"]
        assert count(*embed, "--h", repr(h), "--out", str(out)) == 0
        assert "cache_hit=true" in capsys.readouterr().err.splitlines()[-1]
        assert count("embed", *data, "--method", "pca", "--out", str(out)) == 0

    def test_warm_h_pct_embed_caps_no_graph(self, roll_dir, tmp_path, monkeypatch):
        from prisomap import bench, graph

        calls = {"pass": 0, "cap": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(graph, "_knn_candidates", counting("pass", graph._knn_candidates))
        cap = counting("cap", graph.cap_candidates)
        monkeypatch.setattr(graph, "cap_candidates", cap)
        monkeypatch.setattr(bench, "cap_candidates", cap)
        out = tmp_path / "e.csv"
        embed = ["embed", "--in", str(roll_dir / "ambient.csv"), "--k", "10", "--p", "2",
                 "--method", "pr-isomap", "--h-pct", "70", "--policy", "largest-component",
                 "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
        assert run_cli(*embed) == 0
        assert calls == {"pass": 1, "cap": 1}  # cold: the miss needs its graph
        cold = out.read_bytes()
        calls.update({"pass": 0, "cap": 0})
        assert run_cli(*embed) == 0
        assert calls == {"pass": 1, "cap": 0}  # warm: h from the candidates only
        assert out.read_bytes() == cold

    def test_disconnected_exit_3(self, tmp_path, capsys):
        data = np.vstack([np.arange(10)[:, None] * 0.1,
                          100.0 + np.arange(10)[:, None] * 0.1])
        src = tmp_path / "two.csv"
        save_csv(src, data)
        rc = run_cli("embed", "--in", str(src), "--method", "pr-isomap",
                     "--k", "3", "--h", "5", "--p", "1",
                     "--out", str(tmp_path / "e.csv"))
        assert rc == 3
        assert "component sizes" in capsys.readouterr().err

    def test_unknown_method_usage_error(self, roll_dir, tmp_path):
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "tsne", "--out", str(tmp_path / "e.csv"))
        assert rc == 2

    def test_h_and_h_pct_mutually_exclusive(self, roll_dir, tmp_path, capsys):
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "pr-isomap", "--h", "2", "--h-pct", "50",
                     "--out", str(tmp_path / "e.csv"))
        assert rc == 2

    def test_missing_input_usage_error(self, tmp_path):
        rc = run_cli("embed", "--in", str(tmp_path / "nope.csv"), "--method", "pca",
                     "--out", str(tmp_path / "e.csv"))
        assert rc == 2

    def test_spectrum_elbow_report(self, roll_dir, tmp_path):
        out = tmp_path / "emb.csv"
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "isomap", "--k", "8", "--p", "2",
                     "--spectrum", "8", "--threads", "2", "--out", str(out))
        assert rc == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        assert len(desc["spectrum"]) == 8
        assert desc["elbow_p"] >= 1

    def test_numeric_errors_exit_4(self, monkeypatch, roll_dir, tmp_path):
        from prisomap import bench
        from prisomap.errors import ConvergenceFailure

        def boom(*args, **kwargs):
            raise ConvergenceFailure("forced")

        monkeypatch.setattr(bench, "pca", boom)
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "pca", "--out", str(tmp_path / "e.csv"))
        assert rc == 4


class TestEval:
    def test_chart_reference_report(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "isomap", "--k", "8", "--p", "2",
                       "--out", str(emb)) == 0
        report = tmp_path / "report.json"
        rc = run_cli("eval", "--emb", str(emb), "--ref", "chart",
                     "--chart", str(roll_dir / "intrinsic.csv"),
                     "--m", "8", "--out", str(report), "--csv", str(tmp_path / "r.csv"))
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["schema"] == "evalreport/1"
        assert 0 <= payload["trustworthiness"] <= 1
        assert (tmp_path / "r.csv").exists()

    def test_euclidean_reference(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        rc = run_cli("eval", "--emb", str(emb), "--data", str(roll_dir / "ambient.csv"),
                     "--m", "5", "--out", str(tmp_path / "r.json"))
        assert rc == 0

    def test_missing_data_for_euclidean_reference(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        rc = run_cli("eval", "--emb", str(emb), "--out", str(tmp_path / "r.json"))
        assert rc == 2

    def test_geodesic_reference(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "isomap", "--k", "8", "--p", "2",
                       "--out", str(emb)) == 0
        rc = run_cli("eval", "--emb", str(emb), "--data", str(roll_dir / "ambient.csv"),
                     "--ref", "geodesic", "--k", "8", "--m", "5",
                     "--out", str(tmp_path / "r.json"))
        assert rc == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        # 2-D scaling of a small-sample roll reproduces its geodesics roughly
        assert payload["stress"] < 0.5
        assert payload["run"]["params"]["reference"] == "geodesic"


class TestBench:
    def test_two_method_table(self, roll_dir, tmp_path):
        out = tmp_path / "bench"
        rc = run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                     "--methods", "isomap,pca", "--baseline", "isomap",
                     "--k", "8", "--p", "2",
                     "--chart", str(roll_dir / "intrinsic.csv"),
                     "--out", str(out))
        assert rc == 0
        table = (out / "bench.csv").read_text().splitlines()
        assert len(table) == 3
        payload = json.loads((out / "bench.json").read_text())
        assert set(payload["reports"]) == {"isomap", "pca"}
        assert "pca" in payload["paired_deltas"]

    def test_warm_cache_runs_no_all_pairs(self, roll_dir, tmp_path, monkeypatch):
        from prisomap import geodesics

        args = ["bench", "--in", str(roll_dir / "ambient.csv"),
                "--methods", "pr-isomap,isomap", "--k", "10", "--h-pct", "70", "--p", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert run_cli(*args, "--out", str(tmp_path / "cold")) == 0
        assert len(list((tmp_path / "cache").glob("*.geo"))) == 2
        monkeypatch.setattr(geodesics, "all_pairs", None)  # a miss would fail
        assert run_cli(*args, "--out", str(tmp_path / "warm")) == 0
        cold, warm = (json.loads((tmp_path / d / "bench.json").read_text())["reports"]
                      for d in ("cold", "warm"))
        for report in (*cold.values(), *warm.values()):
            del report["timings"]
        assert cold == warm

    def test_single_method_no_deltas(self, roll_dir, tmp_path):
        out = tmp_path / "bench1"
        rc = run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                     "--methods", "pca", "--p", "2", "--out", str(out))
        assert rc == 0
        payload = json.loads((out / "bench.json").read_text())
        assert payload["paired_deltas"] == {}

    def test_mismatched_labels_exit_2(self, roll_dir, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("y\n0\n1\n0\n")  # 3 labels for 300 points
        rc = run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                     "--methods", "pca", "--p", "2",
                     "--labels", str(labels), "--label-column", "y",
                     "--out", str(tmp_path / "b"))
        assert rc == 2


class TestPlot:
    def test_golden_determinism(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert run_cli("plot", "--in", str(emb), "--out", str(out)) == 0
        assert a.read_bytes().replace(b"a.svg", b"X.svg") == \
            b.read_bytes().replace(b"b.svg", b"X.svg")
        text = a.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert 'width="800"' in text

    def test_label_coloring(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("index,c0,c1\n0,0,0\n1,1,1\n2,2,2\n3,3,3\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("y\n0\n0\n1\n1\n")
        out = tmp_path / "plot.svg"
        rc = run_cli("plot", "--in", str(emb), "--labels", str(labels),
                     "--label-column", "y", "--out", str(out))
        assert rc == 0
        text = out.read_text()
        assert "#1f77b4" in text and "#ff7f0e" in text

    def test_one_dimensional_embedding_rejected(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("index,c0\n0,0\n1,1\n")
        rc = run_cli("plot", "--in", str(emb), "--out", str(tmp_path / "p.svg"))
        assert rc == 2

    def test_axes_selection(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("index,c0,c1,c2\n0,0,5,1\n1,1,5,2\n2,2,5,3\n")
        rc = run_cli("plot", "--in", str(emb), "--axes", "0", "2",
                     "--out", str(tmp_path / "p.svg"))
        assert rc == 0


class TestConfigPrecedence:
    def test_config_file_supplies_params(self, roll_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 8, "p": 2}))
        out = tmp_path / "emb.csv"
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "isomap", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        assert desc["method"]["k"] == 8

    def test_flag_beats_config(self, roll_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 5, "p": 2}))
        out = tmp_path / "emb.csv"
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "isomap", "--k", "9", "--config", str(cfg),
                     "--out", str(out))
        assert rc == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        assert desc["method"]["k"] == 9

    def test_env_var_supplies_cache_dir(self, roll_dir, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("PRISOMAP_CACHE_DIR", str(cache))
        out = tmp_path / "emb.csv"
        rc = run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                     "--method", "isomap", "--k", "8", "--p", "2", "--out", str(out))
        assert rc == 0
        assert list(cache.glob("*.geo"))


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "prisomap", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_usage_error_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "prisomap", "embed"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
