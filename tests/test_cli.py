import argparse
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import prisomap
from prisomap import isomap, linalg
from prisomap.cli import SETTINGS, build_parser, main, resolve_settings
from prisomap.datasets import json_safe, load_csv, save_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def roll_dir(tmp_path):
    out = tmp_path / "roll"
    assert run_cli("gen", "swiss-roll", "--n", "300", "--seed", "7",
                   "--out", str(out)) == 0
    return out


def _labels_file(roll_dir, path):
    """A t,label file labelling each roll point by the median of its t."""
    t = np.loadtxt(roll_dir / "intrinsic.csv", delimiter=",", skiprows=1)[:, 0]
    median = np.median(t)
    path.write_text("t,label\n" + "".join(f"{ti!r},{int(ti > median)}\n" for ti in t.tolist()))
    return path


def _nan_in_row_5(source, path, extra_row=False):
    """source written to path with data row 5's first cell nan, and with
    extra_row its last row repeated: one row more than the data, so the file
    covers every data row after NaN filtering drops one."""
    lines = source.read_text().splitlines()
    lines[6] = ",".join(["nan", *lines[6].split(",")[1:]])
    path.write_text("\n".join(lines + lines[-1:] * extra_row) + "\n")
    return path


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
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_generator(self, tmp_path, capsys):
        assert run_cli("gen", "torus", "--out", str(tmp_path / "x")) == 2
        assert "swiss-roll" in capsys.readouterr().err

    def test_n_below_minimum(self, tmp_path):
        assert run_cli("gen", "swiss-roll", "--n", "5", "--out", str(tmp_path / "x")) == 2

    # nan passes a bare "< 0" or "<= -1" check, and inf made nan or +-inf
    # coordinates, or put every point at t = 1
    @pytest.mark.parametrize("option", ["--exponent=nan", "--exponent=inf", "--exponent=-inf",
                                        "--noise-sd=nan", "--noise-sd=inf"])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, option):
        out = tmp_path / "x"
        assert run_cli("gen", "swiss-roll", "--n", "20", option, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "ambient.csv").exists()


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
        # iterative, and every n x n stage spans nine tiles
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
        assert "cache_hit=true cache_entry=spectrum" in capsys.readouterr().err
        entries = sorted(entry.name for entry in (tmp_path / "cache1").iterdir())
        assert [Path(name).suffix for name in entries] == [".eig"]
        assert sorted(entry.name for entry in (tmp_path / "cache2").iterdir()) == entries
        for name in entries:
            assert (tmp_path / "cache1" / name).read_bytes() == \
                (tmp_path / "cache2" / name).read_bytes()

    @pytest.mark.parametrize("damage", ["truncated-body", "corrupt-fingerprint",
                                        "flipped-eigenvector-byte"])
    def test_truncated_cache_entry_is_recomputed(self, roll_dir, tmp_path, capsys, damage):
        cache = tmp_path / "cache"
        args = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                "--k", "8", "--h-pct", "70", "--p", "2", "--policy", "largest-component"]

        def embed(*extra, cached=True):
            out = tmp_path / "e.csv"
            argv = [*args, *extra, "--out", str(out)]
            assert run_cli(*argv, *(["--cache-dir", str(cache)] if cached else [])) == 0
            return out.read_bytes(), capsys.readouterr().err

        def damage_entry(entry):
            raw = bytearray(entry.read_bytes())
            with np.load(entry) as archive:
                members = dict(archive)
            if damage == "truncated-body":
                del raw[len(raw) // 2:]
            elif damage == "flipped-eigenvector-byte":
                # one bit of a sign-and-exponent byte inside the member's body
                vectors = members["eigenvectors"].tobytes(order="A")
                raw[raw.index(vectors) + len(vectors) // 2 + 7] ^= 0x01
            else:
                # a sound archive whose meta member is not JSON
                members["meta"] = np.array('{"fingerprint": ')
                with io.BytesIO() as fh:
                    np.savez(fh, **members)
                    raw = fh.getvalue()
            entry.write_bytes(bytes(raw))

        cold, err = embed()
        assert "cache_hit=false cache_entry=none" in err
        [entry] = cache.iterdir()
        assert entry.suffix == ".eig"

        # a damaged entry is recomputed and rewritten
        damage_entry(entry)
        out, err = embed()
        assert "recomputing" in err and "cache_hit=false cache_entry=none" in err
        assert ("Bad CRC-32 for file 'eigenvectors.npy'" in err) == \
            (damage == "flipped-eigenvector-byte")
        assert out == cold
        out, err = embed()
        assert "recomputing" not in err and "cache_hit=true cache_entry=spectrum" in err
        assert out == cold

        # another eigenpair count has an entry of its own, and damaging one
        # leaves the other serving
        out, err = embed("--spectrum", "5")
        assert "cache_hit=false cache_entry=none" in err
        assert out == embed("--spectrum", "5", cached=False)[0]
        damage_entry(entry)
        out, err = embed("--spectrum", "5")
        assert "recomputing" not in err and "cache_hit=true cache_entry=spectrum" in err
        out, err = embed()
        assert "recomputing" in err and "cache_hit=false cache_entry=none" in err
        assert out == cold
        # no temporary file is left behind: one entry per count
        assert sorted(entry.suffix for entry in cache.iterdir()) == [".eig"] * 2

    def _sweep(self, roll_dir, tmp_path, monkeypatch, capsys):
        """An embed runner that fills the cache with p=10 --spectrum 20 first;
        each run returns its normalized outputs, stderr and eigensolve count."""
        from prisomap import linalg

        solves = []
        symmetric_eig = linalg.symmetric_eig

        def counting(*args, **kwargs):
            solves.append(1)
            return symmetric_eig(*args, **kwargs)

        monkeypatch.setattr("prisomap.embed.symmetric_eig", counting)

        def embed(run, *flags, cached=True):
            out = tmp_path / run / "e.csv"
            out.parent.mkdir()
            solves.clear()
            assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                           "--method", "pr-isomap", "--k", "8", "--h-pct", "70",
                           "--policy", "largest-component", *flags, "--out", str(out),
                           *(["--cache-dir", str(tmp_path / "cache")] if cached else [])) == 0
            files = [_normalized(path.read_bytes(), out.parent)
                     for path in (out, out.with_suffix(".json"))]
            return files, capsys.readouterr().err, len(solves)

        assert embed("fill", "--p", "10", "--spectrum", "20")[2] == 1
        return embed

    def test_warm_spectral_entry_serves_another_p(self, roll_dir, tmp_path, monkeypatch,
                                                  capsys):
        from prisomap import geodesics

        embed = self._sweep(roll_dir, tmp_path, monkeypatch, capsys)
        cold, _, solves = embed("cold", "--p", "2", "--spectrum", "20", cached=False)
        assert solves == 1
        monkeypatch.setattr(geodesics, "all_pairs", None)  # a miss would fail
        warm, err, solves = embed("warm", "--p", "2", "--spectrum", "20")
        assert "cache_hit=true cache_entry=spectrum" in err
        assert solves == 0
        assert warm == cold
        assert len(json.loads(warm[1])["spectrum"]) == 20

    # an entry serves only its exact eigenpair count: another one reruns
    # all-pairs and the solve
    def test_other_eigenpair_count_reads_the_geodesics(self, roll_dir, tmp_path, monkeypatch,
                                                       capsys):
        embed = self._sweep(roll_dir, tmp_path, monkeypatch, capsys)
        cold, _, _ = embed("cold", "--p", "2", "--spectrum", "0", cached=False)
        warm, err, solves = embed("warm", "--p", "2", "--spectrum", "0")
        assert "cache_hit=false cache_entry=none" in err
        assert solves == 1
        assert warm == cold

    def test_error_policy_is_not_served_a_largest_component_entry(self, tmp_path, capsys):
        data = np.vstack([np.arange(10)[:, None] * 0.1,
                          100.0 + np.arange(10)[:, None] * 0.1])
        src = tmp_path / "two.csv"
        save_csv(src, data)
        args = ["embed", "--in", str(src), "--method", "pr-isomap", "--k", "3", "--h", "5",
                "--p", "1", "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "e.csv")]
        for _ in range(2):
            assert run_cli(*args, "--policy", "largest-component") == 0
        assert "cache_entry=spectrum" in capsys.readouterr().err
        assert run_cli(*args, "--policy", "error") == 3
        assert "component sizes" in capsys.readouterr().err

    # the policy runs on the graph, so a refused graph never reaches all-pairs
    def test_error_policy_exits_before_all_pairs(self, tmp_path, monkeypatch, capsys):
        from prisomap import geodesics

        data = np.vstack([np.arange(10)[:, None] * 0.1,
                          100.0 + np.arange(10)[:, None] * 0.1])
        src = tmp_path / "two.csv"
        save_csv(src, data)
        monkeypatch.setattr(geodesics, "all_pairs", None)
        assert run_cli("embed", "--in", str(src), "--method", "pr-isomap", "--k", "3",
                       "--h", "5", "--p", "1", "--policy", "error",
                       "--out", str(tmp_path / "e.csv")) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("graph error: graph has 2 components (sizes [10, 10])")
        assert err[1] == "component sizes: 2 components, largest first [10, 10]"

    def test_component_summary_shows_the_count_and_the_largest_eight(self, tmp_path, capsys):
        # one cluster of 20 points and nine far pairs: ten components
        data = np.vstack([np.arange(20)[:, None] * 0.1,
                          *(100.0 * c + np.array([[0.0], [0.1]]) for c in range(1, 10))])
        src = tmp_path / "clusters.csv"
        save_csv(src, data)
        assert run_cli("embed", "--in", str(src), "--method", "pr-isomap", "--k", "3",
                       "--h", "1", "--p", "1", "--out", str(tmp_path / "e.csv")) == 3
        err = capsys.readouterr().err.splitlines()
        assert "graph has 10 components" in err[0]
        assert err[1] == "component sizes: 10 components, largest first " \
            "[20, 2, 2, 2, 2, 2, 2, 2, ...]"

    def test_spectral_hit_warns_of_rank_deficiency(self, tmp_path, capsys):
        from prisomap.errors import RankDeficientWarning

        t = np.arange(30)[:, None] * 0.1
        src = tmp_path / "line.csv"
        save_csv(src, np.hstack([t, 2.0 * t]))  # a line: geodesics support one dimension
        args = ["embed", "--in", str(src), "--method", "isomap", "--k", "3", "--p", "2",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "e.csv")]
        for entry in ("none", "spectrum"):
            with pytest.warns(RankDeficientWarning):
                assert run_cli(*args) == 0
            assert f"cache_entry={entry}" in capsys.readouterr().err

    def test_identical_rows_embed_at_zero(self, tmp_path):
        # their kernel is all zero, on which ARPACK fails; the dense path
        # takes over
        from prisomap.errors import RankDeficientWarning

        src = tmp_path / "same.csv"
        save_csv(src, np.ones((200, 2)))
        with pytest.warns(RankDeficientWarning):
            assert run_cli("embed", "--in", str(src), "--method", "mds", "--p", "2",
                           "--out", str(tmp_path / "e.csv")) == 0
        assert (tmp_path / "e.csv").read_text() == "index,c0,c1\n" + "".join(
            f"{i},0,0\n" for i in range(200))

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
        assert count(*embed, "--h-pct", "70", "--out", str(out)) == 0  # warm: h from the entry
        assert "cache_hit=true" in capsys.readouterr().err.splitlines()[-1]
        # an entry is keyed by the window as given, so the same h given
        # absolutely has an entry of its own
        h = json.loads(out.with_suffix(".json").read_text())["method"]["h"]
        assert count(*embed, "--h", repr(h), "--out", str(out)) == 1
        assert "cache_hit=false" in capsys.readouterr().err.splitlines()[-1]
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
        assert calls == {"pass": 0, "cap": 0}  # warm: h from the cache entry
        assert out.read_bytes() == cold

    # the entry records the resolved h, so a warm --h-pct needs no candidates
    def test_warm_h_pct_hit_runs_no_candidate_pass(self, roll_dir, tmp_path, monkeypatch,
                                                   capsys):
        from prisomap import graph

        embed = ["embed", "--in", str(roll_dir / "ambient.csv"), "--k", "10", "--p", "2",
                 "--method", "pr-isomap", "--h-pct", "70", "--policy", "largest-component",
                 "--spectrum", "5", "--cache-dir", str(tmp_path / "cache")]
        (tmp_path / "cold").mkdir()
        (tmp_path / "warm").mkdir()
        assert run_cli(*embed, "--out", str(tmp_path / "cold" / "e.csv")) == 0
        monkeypatch.setattr(graph, "_knn_candidates", None)  # a pass would fail
        assert run_cli(*embed, "--out", str(tmp_path / "warm" / "e.csv")) == 0
        assert "cache_hit=true cache_entry=spectrum" in capsys.readouterr().err
        for name in ("e.csv", "e.json"):
            assert _normalized((tmp_path / "warm" / name).read_bytes(), tmp_path / "warm") == \
                _normalized((tmp_path / "cold" / name).read_bytes(), tmp_path / "cold")

    # the duplicate-point warning comes from the candidate pass, which a warm
    # --h-pct hit does not run
    def test_warm_h_pct_hit_does_not_repeat_the_duplicate_warning(self, roll_dir, tmp_path):
        from prisomap.errors import DegenerateDuplicatesWarning

        head, _, body = (roll_dir / "ambient.csv").read_text().partition("\n")
        (tmp_path / "dup.csv").write_text(head + "\n" + body * 3, encoding="utf-8")
        embed = ["embed", "--in", str(tmp_path / "dup.csv"), "--k", "24", "--p", "2",
                 "--method", "pr-isomap", "--h-pct", "70", "--policy", "largest-component",
                 "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "e.csv")]
        with pytest.warns(DegenerateDuplicatesWarning):
            assert run_cli(*embed) == 0
        cold = (tmp_path / "e.csv").read_bytes()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli(*embed) == 0
        assert not [w for w in seen if issubclass(w.category, DegenerateDuplicatesWarning)]
        assert (tmp_path / "e.csv").read_bytes() == cold

    # an entry of an older format version is noted and rewritten: archives
    # whose meta gives version 2, 3, 4 or 5 (3 held the eigenpairs of the
    # transpose-averaged kernel, 4 those of graphs weighted by Gram-expansion
    # lengths, 5 those solved at any BLAS thread count), and a version 2
    # entry as that format wrote it (magic, a
    # little-endian header, the JSON block, then the arrays)
    def test_older_version_entry_is_recomputed(self, roll_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        embed = ["embed", "--in", str(roll_dir / "ambient.csv"), "--k", "10", "--p", "2",
                 "--method", "pr-isomap", "--h-pct", "70", "--policy", "largest-component",
                 "--cache-dir", str(cache), "--out", str(tmp_path / "e.csv")]
        assert run_cli(*embed) == 0
        cold = (tmp_path / "e.csv").read_bytes()
        [entry] = cache.iterdir()
        with np.load(entry) as archive:
            members = dict(archive)
        meta = json.loads(members["meta"].item())
        archives = {}
        for version in (2, 3, 4, 5, 6):
            with io.BytesIO() as fh:
                np.savez(fh, **{**members,
                                "meta": np.array(json.dumps({**meta, "version": version}))})
                archives[version] = fh.getvalue()
        kept, vectors = members["kept"], members["eigenvectors"]
        block = json.dumps({"fingerprint": meta["fingerprint"], "h": meta["h"]}).encode()
        raw_v2 = b"".join([b"PRGS", struct.pack("<IIIII", 2, meta["n_input"], *vectors.shape,
                                                 len(block)), block, kept.astype("<i8").tobytes(),
                           members["eigenvalues"].astype("<f8").tobytes(),
                           np.ascontiguousarray(vectors, dtype="<f8").tobytes()])
        for old, note in [(archives[2], "unsupported version 2; recomputing"),
                          (archives[3], "unsupported version 3; recomputing"),
                          (archives[4], "unsupported version 4; recomputing"),
                          (archives[5], "unsupported version 5; recomputing"),
                          (archives[6], "unsupported version 6; recomputing"),
                          (raw_v2, "unreadable spectral entry")]:
            entry.write_bytes(old)
            capsys.readouterr()
            assert run_cli(*embed) == 0
            err = capsys.readouterr().err
            assert note in err and "recomputing" in err and "cache_hit=false" in err
            assert (tmp_path / "e.csv").read_bytes() == cold
            assert run_cli(*embed) == 0
            assert "cache_hit=true" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["inf", "1e20"])
    def test_label_beyond_int64_exits_2(self, roll_dir, tmp_path, capsys, label):
        x = load_csv(roll_dir / "ambient.csv").data[:20]
        src = tmp_path / "labeled.csv"
        src.write_text("x,y,z,label\n" + "".join(
            f"{a!r},{b!r},{c!r},{label if i == 4 else 0}\n" for i, (a, b, c) in
            enumerate(x.tolist())))
        assert run_cli("embed", "--in", str(src), "--label-column", "label", "--method", "pca",
                       "--out", str(tmp_path / "e.csv")) == 2
        assert f"label '{label}' is not a number in the int64 range at row 6, column 3" in \
            capsys.readouterr().err

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
                     "--spectrum", "8", "--out", str(out))
        assert rc == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        assert len(desc["spectrum"]) == 8
        assert desc["elbow_p"] >= 1

    # params record the window as given: an --h-pct run's h is null, and the
    # resolved h is in the descriptor's method block
    @pytest.mark.parametrize("window, recorded", [(("--h", "4.5"), (4.5, None)),
                                                  (("--h-pct", "80"), (None, 80.0))],
                             ids=["h", "h-pct"])
    def test_rerun_from_recorded_params_gives_the_same_descriptor(self, roll_dir, tmp_path,
                                                                  window, recorded):
        first = tmp_path / "first.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                       "--k", "8", *window, "--p", "2", "--spectrum", "8",
                       "--policy", "largest-component", "--out", str(first)) == 0
        desc = json.loads(first.with_suffix(".json").read_text())
        params = desc["run_config"]["params"]
        assert params["spectrum"] == 8
        assert (params["h"], params["h_pct"]) == recorded
        assert isinstance(desc["method"]["h"], float)
        # the settings as a config file, the other flags on the command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value for key, value in params.items()
                                   if key in SETTINGS and value is not None}))
        again = tmp_path / "again.csv"
        assert run_cli("embed", "--in", params["input"], "--method", params["method"],
                       "--config", str(cfg), "--out", str(again)) == 0
        assert json.loads(again.with_suffix(".json").read_text()) == desc
        assert again.read_bytes() == first.read_bytes()

        plain = tmp_path / "plain.csv"
        assert run_cli("embed", "--in", params["input"], "--method", params["method"],
                       "--config", str(cfg), "--spectrum", "0", "--out", str(plain)) == 0
        plain_params = json.loads(plain.with_suffix(".json").read_text())["run_config"]["params"]
        assert plain_params["spectrum"] == 0
        assert {key for key in params if params[key] != plain_params[key]} == {"spectrum"}

    def test_numeric_errors_exit_4(self, monkeypatch, roll_dir, tmp_path):
        from prisomap import bench
        from prisomap.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("forced")

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
        assert payload["schema"] == "evalreport/2"
        assert 0 <= payload["trustworthiness"] <= 1
        assert (tmp_path / "r.csv").exists()

    # eval scores an embedding apart from the run that made it, so it
    # reports no kept share; bench, which ran the method, does (299 of 300)
    def test_kept_fraction_is_null_in_eval_and_measured_in_bench(self, roll_dir, tmp_path):
        ambient, chart = str(roll_dir / "ambient.csv"), str(roll_dir / "intrinsic.csv")
        graph = ["--k", "8", "--h-pct", "90", "--policy", "largest-component"]
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", ambient, "--method", "pr-isomap", *graph,
                       "--out", str(emb)) == 0
        assert json.loads(emb.with_suffix(".json").read_text())["n_kept"] == 299
        assert run_cli("eval", "--emb", str(emb), "--ref", "chart", "--chart", chart,
                       "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")) == 0
        assert json.loads((tmp_path / "r.json").read_text())["kept_fraction"] is None
        header, row = (line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines())
        assert dict(zip(header, row))["kept_fraction"] == ""
        assert run_cli("bench", "--in", ambient, "--methods", "pr-isomap", *graph,
                       "--chart", chart, "--out", str(tmp_path / "b")) == 0
        report = json.loads((tmp_path / "b" / "bench.json").read_text())["reports"]["pr-isomap"]
        assert report["kept_fraction"] == 299 / 300

    # the chart is unrolled by its t,u header alone: there is no kind to pick
    def test_chart_kind_is_not_an_option(self, roll_dir, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        assert run_cli("eval", "--emb", str(emb), "--ref", "chart",
                       "--chart", str(roll_dir / "intrinsic.csv"), "--chart-kind", "auto",
                       "--out", str(tmp_path / "r.json")) == 2
        assert "--chart-kind" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # a chart is the reference of --ref chart alone, and --ref chart reads no data
    @pytest.mark.parametrize("reference", [["--ref", "geodesic", "--chart"],
                                           ["--ref", "euclidean", "--chart"], ["--chart"],
                                           ["--ref", "chart", "--data"]],
                             ids=" ".join)
    def test_chart_with_another_reference_exits_2(self, roll_dir, tmp_path, capsys, reference):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        given = [str(roll_dir / "intrinsic.csv"), "--data", str(roll_dir / "ambient.csv")] \
            if reference[-1] == "--chart" else [str(roll_dir / "ambient.csv"),
                                               "--chart", str(roll_dir / "intrinsic.csv")]
        assert run_cli("eval", "--emb", str(emb), *reference, *given,
                       "--out", str(tmp_path / "r.json")) == 2
        assert "and no --" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # eval would score against changed classes if a label were truncated
    @pytest.mark.parametrize("label", ["1.5", "2.9", "-0.5"])
    def test_non_integral_label_exits_2(self, roll_dir, tmp_path, capsys, label):
        emb, labels = tmp_path / "emb.csv", tmp_path / "labels.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        labels.write_text("y\n" + "".join(f"{label if i == 4 else i % 3}\n" for i in range(300)))
        assert run_cli("eval", "--emb", str(emb), "--ref", "chart",
                       "--chart", str(roll_dir / "intrinsic.csv"), "--labels", str(labels),
                       "--label-column", "y", "--out", str(tmp_path / "r.json")) == 2
        assert f"label '{label}' is not an integer at row 6, column 0" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # a chart or label file that drops a row of its own would pair each later
    # row with the next vertex: here the embedding holds rows 0-298, a set a
    # component policy can leave, so the shortened file still covers it
    @pytest.mark.parametrize("faulty", ["chart", "labels"])
    def test_chart_or_labels_dropping_a_row_exit_2(self, roll_dir, tmp_path, capsys, faulty):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        emb.write_text("".join(emb.read_text().splitlines(keepends=True)[:-1]))
        chart = roll_dir / "intrinsic.csv"
        labels = _labels_file(roll_dir, tmp_path / "labels.csv")
        if faulty == "chart":
            chart = _nan_in_row_5(chart, tmp_path / "chart.csv")
        else:
            labels = _nan_in_row_5(labels, labels)
        assert run_cli("eval", "--emb", str(emb), "--ref", "chart", "--chart", str(chart),
                       "--labels", str(labels), "--label-column", "label",
                       "--out", str(tmp_path / "r.json")) == 2
        assert f"{tmp_path / f'{faulty}.csv'}: 1 row(s) holding NaN were dropped" in \
            capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # labels above 2**53 were parsed through float, so 2**53 + 1 became 2**53
    # and the two classes merged into one, which k-NN refused
    def test_labels_beyond_float_precision_stay_two_classes(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        tables = []
        for name, classes in (("small", (0, 1)), ("large", (2**53, 2**53 + 1))):
            labels, table = tmp_path / f"{name}.csv", tmp_path / f"{name}-report.csv"
            labels.write_text("y\n" + "".join(f"{classes[i % 2]}\n" for i in range(300)))
            assert run_cli("eval", "--emb", str(emb), "--ref", "chart",
                           "--chart", str(roll_dir / "intrinsic.csv"), "--labels", str(labels),
                           "--label-column", "y", "--csv", str(table),
                           "--out", str(tmp_path / f"{name}.json")) == 0
            tables.append(table.read_bytes())
        # an order-preserving relabelling: the same folds, votes and scores
        assert tables[0] == tables[1]

    # a coordinate that is not finite is named by its cell before any
    # distance is taken, so no numpy warning reaches stderr
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_coordinate_exits_2(self, roll_dir, tmp_path, capsys, cell):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "isomap", "--k", "8", "--p", "2", "--out", str(emb)) == 0
        lines = emb.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
        emb.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (["eval", "--emb", str(emb), "--ref", "chart",
                      "--chart", str(roll_dir / "intrinsic.csv")],
                     ["plot", "--in", str(emb)]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
            assert not caught
            err = capsys.readouterr().err
            assert f"emb.csv: coordinates row 4, column 1 (from 0) is {cell}" in err
            assert "Warning" not in err and not (tmp_path / "out").exists()

    # eval reads --k, --h and --h-pct for --ref geodesic alone; the same
    # settings from a config file or the environment may serve other
    # commands, so they are recorded as given
    @pytest.mark.parametrize("reference", ["chart", "euclidean"])
    @pytest.mark.parametrize("flag", [["--k", "8"], ["--h", "1.5"], ["--h-pct", "60"]],
                             ids=" ".join)
    def test_graph_flag_with_another_reference_exits_2(self, roll_dir, tmp_path, capsys,
                                                       monkeypatch, reference, flag):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--out", str(emb)) == 0
        given = ["--chart", str(roll_dir / "intrinsic.csv")] if reference == "chart" \
            else ["--data", str(roll_dir / "ambient.csv")]
        argv = ["eval", "--emb", str(emb), "--ref", reference, *given,
                "--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert run_cli(*argv, *flag) == 2
        assert capsys.readouterr().err == f"error: --ref {reference} takes no {flag[0]}\n"
        assert not (tmp_path / "r.json").exists()

        dest = flag[0][2:].replace("-", "_")
        config = tmp_path / "cfg.json"
        value = SETTINGS[dest].type(flag[1])
        config.write_text(json.dumps({dest: value}), encoding="utf-8")
        monkeypatch.setenv("PRISOMAP_K", "7")
        assert run_cli(*argv, "--config", str(config)) == 0
        params = json.loads((tmp_path / "r.json").read_text())["run"]["params"]
        assert params[dest] == value and params["k"] == (8 if dest == "k" else 7)

    # --label-column names a column of --labels when one is given, else of
    # --data, whose labels then feed the k-NN cross-validation as bench's do
    def test_label_column_of_the_data_feeds_the_classifier(self, roll_dir, tmp_path):
        t = load_csv(roll_dir / "intrinsic.csv").data[:, 0]
        ambient = load_csv(roll_dir / "ambient.csv").data
        data = tmp_path / "labelled.csv"
        data.write_text("x,y,z,label\n" + "".join(
            f"{x!r},{y!r},{z!r},{int(ti > np.median(t))}\n"
            for (x, y, z), ti in zip(ambient.tolist(), t)), encoding="utf-8")
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(data), "--label-column", "label",
                       "--method", "pca", "--out", str(emb)) == 0
        assert run_cli("eval", "--emb", str(emb), "--data", str(data),
                       "--label-column", "label", "--out", str(tmp_path / "r.json")) == 0
        assert run_cli("bench", "--in", str(data), "--methods", "pca",
                       "--label-column", "label", "--out", str(tmp_path / "b")) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        bench = json.loads((tmp_path / "b" / "bench.json").read_text())["reports"]["pca"]
        assert report["knn_accuracy_mean"] > 0.9
        for name in ("knn_accuracy_mean", "knn_accuracy_sd", "knn_folds", "stress"):
            assert report[name] == bench[name]

    # --ref chart reads no data, so a label column needs a --labels file, as
    # for plot
    def test_label_column_without_labels_or_data_exits_2(self, roll_dir, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--out", str(emb)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--emb", str(emb), "--ref", "chart",
                       "--chart", str(roll_dir / "intrinsic.csv"), "--label-column", "t",
                       "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err == ("error: --label-column names a column of the "
                                           "--labels file; give --labels\n")
        assert not (tmp_path / "r.json").exists()

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

    # Dijkstra runs from the embedding's rows alone; the report is the one
    # the slice of the all-pairs matrix gives, unreachable pairs included
    @pytest.mark.parametrize("method, window", [("mds", ["--h-pct", "30"]),
                                                ("isomap", [])])
    def test_geodesic_reference_equals_the_all_pairs_slice(self, roll_dir, tmp_path,
                                                           method, window):
        from prisomap.bench import MethodSpec, Neighbors, resolve_h
        from prisomap.embed import load_embedding_csv
        from prisomap.datasets import save_table
        from prisomap.evaluate import evaluate_embedding
        from prisomap.geodesics import all_pairs

        emb, data = tmp_path / "emb.csv", roll_dir / "ambient.csv"
        assert run_cli("embed", "--in", str(data), "--method", method, "--k", "8",
                       "--p", "2", "--out", str(emb)) == 0
        assert run_cli("eval", "--emb", str(emb), "--data", str(data), "--ref", "geodesic",
                       "--k", "8", *window, "--m", "5", "--out", str(tmp_path / "r.json"),
                       "--csv", str(tmp_path / "r.csv")) == 0
        indices, coords = load_embedding_csv(emb)
        neighbors = Neighbors(load_csv(data).data)
        spec = MethodSpec(method="pr-isomap" if window else "isomap", p=1, k=8,
                          h_percentile=30.0 if window else None)
        geo = all_pairs(neighbors.graph(8, resolve_h(spec, neighbors)))
        want = evaluate_embedding(coords, reference_dists=geo[np.ix_(indices, indices)], m=5)
        save_table(tmp_path / "want.csv", [want.row()])
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (want.sentinel_excluded_pairs > 0) == bool(window)


class TestScoringBuildsNoSquareMatrix:
    """Scoring takes its distances one row block at a time: a pairwise_dists
    call with more rows than one block on its left builds an m x m matrix.
    Only the k-NN vote's test folds may have more rows."""

    def test_eval_and_bench_take_row_blocks(self, roll_dir, tmp_path, monkeypatch):
        from prisomap import linalg
        from prisomap.evaluate import _BLOCK_ROWS

        calls = []
        real = linalg.pairwise_dists

        def recording(a, b=None):
            calls.append((len(a), sys._getframe(1).f_code.co_name))
            return real(a, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("prisomap") and getattr(module, "pairwise_dists", None) is real:
                monkeypatch.setattr(module, "pairwise_dists", recording)
        emb, labels = tmp_path / "emb.csv", tmp_path / "labels.csv"
        labels.write_text("y\n" + "".join(f"{i % 3}\n" for i in range(300)))
        data, chart = str(roll_dir / "ambient.csv"), str(roll_dir / "intrinsic.csv")
        assert run_cli("embed", "--in", data, "--method", "pca", "--p", "2",
                       "--out", str(emb)) == 0
        for reference in (["--ref", "chart", "--chart", chart], ["--data", data]):
            assert run_cli("eval", "--emb", str(emb), *reference, "--labels", str(labels),
                           "--label-column", "y", "--out", str(tmp_path / "r.json")) == 0
        assert run_cli("bench", "--in", data, "--methods", "isomap,pca", "--k", "8",
                       "--p", "2", "--chart", chart, "--labels", str(labels),
                       "--label-column", "y", "--out", str(tmp_path / "bench")) == 0
        assert {caller for _, caller in calls} == {"<lambda>", "_knn_predict"}
        assert [call for call in calls if call[0] > _BLOCK_ROWS and call[1] != "_knn_predict"] \
            == []


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

    # a report's run is the method block, whose h is the resolved window
    def test_report_run_holds_the_resolved_h_once(self, roll_dir, tmp_path):
        out = tmp_path / "bench"
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"), "--methods",
                       "pr-isomap,isomap", "--k", "8", "--h-pct", "80", "--out", str(out)) == 0
        reports = json.loads((out / "bench.json").read_text())["reports"]
        for name, report in reports.items():
            assert "h_resolved" not in report["run"]
            assert report["run"]["method"] == name
        assert isinstance(reports["pr-isomap"]["run"]["h"], float)
        assert reports["isomap"]["run"]["h"] == "inf"

    def test_warm_cache_runs_no_all_pairs(self, roll_dir, tmp_path, monkeypatch):
        from prisomap import geodesics

        args = ["bench", "--in", str(roll_dir / "ambient.csv"),
                "--methods", "pr-isomap,isomap", "--k", "10", "--h-pct", "70", "--p", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert run_cli(*args, "--out", str(tmp_path / "cold")) == 0
        assert len(list((tmp_path / "cache").glob("*.eig"))) == 2
        monkeypatch.setattr(geodesics, "all_pairs", None)  # a miss would fail
        assert run_cli(*args, "--out", str(tmp_path / "warm")) == 0
        for name in ("bench.json", "bench.csv"):
            assert (tmp_path / "warm" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes()

    def test_warm_cache_runs_no_graph_eigensolve(self, roll_dir, tmp_path, monkeypatch):
        from prisomap import embed, geodesics

        solves = {"graph": 0, "pca": 0}
        symmetric_eig = embed.symmetric_eig

        # pca solves the 3 x 3 covariance, a graph method its kernel over the kept vertices
        def counting(a, *args, **kwargs):
            solves["pca" if a.shape[0] == 3 else "graph"] += 1
            return symmetric_eig(a, *args, **kwargs)

        monkeypatch.setattr(embed, "symmetric_eig", counting)

        def bench(run):
            solves.update(graph=0, pca=0)
            out = tmp_path / run
            assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                           "--methods", "pr-isomap,isomap,pca", "--k", "10", "--h-pct", "70",
                           "--p", "2", "--chart", str(roll_dir / "intrinsic.csv"),
                           "--cache-dir", str(tmp_path / "cache"), "--out", str(out)) == 0
            return (out / "bench.json").read_bytes(), (out / "bench.csv").read_bytes(), \
                dict(solves)

        cold = bench("cold")
        assert cold[2] == {"graph": 2, "pca": 1}
        assert sorted(entry.suffix for entry in (tmp_path / "cache").iterdir()) == \
            [".eig", ".eig"]
        monkeypatch.setattr(geodesics, "all_pairs", None)  # a miss would fail
        warm = bench("warm")
        assert warm[2] == {"graph": 0, "pca": 1}
        assert warm[:2] == cold[:2]

    # the density reads the candidate distances, so a warm bench caps no graph
    def test_warm_cache_caps_no_graph_and_keeps_the_density(self, roll_dir, tmp_path,
                                                           monkeypatch):
        from prisomap import bench

        caps = {"count": 0}
        cap_candidates = bench.cap_candidates

        def counting(*args, **kwargs):
            caps["count"] += 1
            return cap_candidates(*args, **kwargs)

        monkeypatch.setattr(bench, "cap_candidates", counting)
        args = ["bench", "--in", str(roll_dir / "ambient.csv"),
                "--methods", "pr-isomap,isomap,mds,pca", "--k", "10", "--h", "4.0",
                "--p", "2", "--cache-dir", str(tmp_path / "cache")]
        cvs = []
        for run, want_caps in (("cold", 2), ("warm", 0)):
            caps["count"] = 0
            assert run_cli(*args, "--out", str(tmp_path / run)) == 0
            assert caps["count"] == want_caps
            payload = json.loads((tmp_path / run / "bench.json").read_text())
            cvs.append(payload["reports"]["pr-isomap"]["density_cv"])
        assert isinstance(cvs[0], float)
        assert repr(cvs[1]) == repr(cvs[0])

    # MethodSpec checks the window, so pca (listed first) never runs
    def test_window_mistake_fails_before_any_method(self, roll_dir, tmp_path, monkeypatch,
                                                    capsys):
        from prisomap import bench

        runs = {"pca": 0}
        pca = bench.pca

        def counting(*args, **kwargs):
            runs["pca"] += 1
            return pca(*args, **kwargs)

        monkeypatch.setattr(bench, "pca", counting)
        out = tmp_path / "b"
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                       "--methods", "pca,pr-isomap", "--k", "8", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: pr-isomap needs h or h_percentile\n"
        assert runs["pca"] == 0
        assert not out.exists()

    # the chart is read and checked before any method runs; the n x n
    # reference is built from it only after the last
    @pytest.mark.parametrize("chart", ["missing", "short"])
    def test_chart_mistake_fails_before_any_method(self, roll_dir, tmp_path, monkeypatch,
                                                   capsys, chart):
        from prisomap import bench

        calls = {"count": 0}
        run_method = bench.run_method

        def counting(*args, **kwargs):
            calls["count"] += 1
            return run_method(*args, **kwargs)

        monkeypatch.setattr(bench, "run_method", counting)
        path = tmp_path / "chart.csv"
        if chart == "short":
            rows = (roll_dir / "intrinsic.csv").read_text().splitlines()[:300]
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "b"
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                       "--methods", "pca,isomap", "--k", "8", "--chart", str(path),
                       "--out", str(out)) == 2
        assert calls["count"] == 0
        assert not out.exists()
        assert str(path) in capsys.readouterr().err

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

    # rows that survive a NaN drop keep their own labels when they come
    # from the data itself, so only a separate row-indexed file is refused
    def test_dropped_rows_with_labels_of_the_data_run(self, roll_dir, tmp_path):
        lines = (roll_dir / "ambient.csv").read_text().splitlines()
        t = np.loadtxt(roll_dir / "intrinsic.csv", delimiter=",", skiprows=1)[:, 0]
        rows = [f"{row},{int(ti > np.median(t))}" for row, ti in zip(lines[1:], t)]
        rows[4] = "nan,nan,nan,1"
        data = tmp_path / "labelled.csv"
        data.write_text("\n".join([lines[0] + ",label", *rows]) + "\n")
        out = tmp_path / "bench"
        assert run_cli("bench", "--in", str(data), "--methods", "pca", "--label-column", "label",
                       "--folds", "5", "--out", str(out)) == 0
        payload = json.loads((out / "bench.json").read_text())
        assert payload["common_vertex_count"] == 299
        assert payload["reports"]["pca"]["knn_folds"] == 5


    # a chart or label file one row longer than the data, which drops a row
    # of its own, still covers every data row, but shifted by one
    @pytest.mark.parametrize("faulty", ["chart", "labels"])
    def test_chart_or_labels_dropping_a_row_exit_2(self, roll_dir, tmp_path, capsys, faulty):
        chart = roll_dir / "intrinsic.csv"
        labels = _labels_file(roll_dir, tmp_path / "labels.csv")
        if faulty == "chart":
            chart = _nan_in_row_5(chart, tmp_path / "chart.csv", extra_row=True)
        else:
            labels = _nan_in_row_5(labels, labels, extra_row=True)
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"), "--methods", "pca",
                       "--chart", str(chart), "--labels", str(labels), "--label-column",
                       "label", "--out", str(tmp_path / "bench")) == 2
        assert f"{tmp_path / f'{faulty}.csv'}: 1 row(s) holding NaN were dropped" in \
            capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


class TestPlot:
    def test_labels_dropping_a_row_exit_2(self, roll_dir, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"),
                       "--method", "pca", "--p", "2", "--out", str(emb)) == 0
        labels = _nan_in_row_5(_labels_file(roll_dir, tmp_path / "labels.csv"),
                               tmp_path / "labels.csv", extra_row=True)
        assert run_cli("plot", "--in", str(emb), "--labels", str(labels), "--label-column",
                       "label", "--out", str(tmp_path / "p.svg")) == 2
        assert f"{labels}: 1 row(s) holding NaN were dropped" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()

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

    def test_label_column_without_labels_exits_2(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("index,c0,c1\n0,0,0\n1,1,1\n")
        out = tmp_path / "plot.svg"
        assert run_cli("plot", "--in", str(emb), "--label-column", "y", "--out", str(out)) == 2
        assert not out.exists()

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
        assert list(cache.glob("*.eig"))


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

    # build_parser is cached: every main call parses with one parser, and a
    # refused parse leaves it as it was
    def test_main_calls_share_one_parser(self, roll_dir, tmp_path, monkeypatch):
        parses = []
        parse = argparse.ArgumentParser.parse_args

        def recorded(parser, *args, **kwargs):
            parses.append((parser, parse(parser, *args, **kwargs)))
            return parses[-1][1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        emb = tmp_path / "e.csv"
        argv = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pca"]
        assert run_cli(*argv, "--out", str(emb)) == 0
        first = emb.read_bytes()
        assert run_cli(*argv, "--k", "x", "--out", str(emb)) == 2
        assert run_cli(*argv, "--out", str(emb)) == 0
        assert emb.read_bytes() == first
        assert len(parses) == 2 and parses[0][0] is parses[1][0] is build_parser()
        assert vars(parses[0][1]) == vars(parses[1][1])


# Every option of each subcommand as (dest, type, default, required, choices,
# nargs): the command-line surface the settings table must keep. Settings
# stay None here; resolve_settings fills them.
OPTIONS = {
    "gen": {
        "generator": ("generator", None, None, True, ["swiss-roll"], None),
        "--n": ("n", int, None, False, None, None),
        "--noise-sd": ("noise_sd", float, None, False, None, None),
        "--exponent": ("exponent", float, None, False, None, None),
        "--short-circuit-pairs": ("short_circuit_pairs", float, None, False, None, None),
        "--out": ("out", None, None, True, None, None),
        "--seed": ("seed", int, None, False, None, None),
        "--config": ("config", None, None, False, None, None),
    },
    "embed": {
        "--in": ("input", None, None, True, None, None),
        "--label-column": ("label_column", None, None, False, None, None),
        "--method": ("method", None, None, True, None, None),
        "--k": ("k", int, None, False, None, None),
        "--h": ("h", float, None, False, None, None),
        "--h-pct": ("h_pct", float, None, False, None, None),
        "--p": ("p", int, None, False, None, None),
        "--policy": ("policy", None, None, False, ["error", "largest-component"], None),
        "--spectrum": ("spectrum", int, None, False, None, None),
        "--out": ("out", None, None, True, None, None),
        "--cache-dir": ("cache_dir", None, None, False, None, None),
        "--config": ("config", None, None, False, None, None),
    },
    "eval": {
        "--emb": ("emb", None, None, True, None, None),
        "--data": ("data", None, None, False, None, None),
        "--ref": ("reference", None, "euclidean", False, ["euclidean", "geodesic", "chart"], None),
        "--chart": ("chart", None, None, False, None, None),
        "--k": ("k", int, None, False, None, None),
        "--h": ("h", float, None, False, None, None),
        "--h-pct": ("h_pct", float, None, False, None, None),
        "--labels": ("labels", None, None, False, None, None),
        "--label-column": ("label_column", None, None, False, None, None),
        "--m": ("m", int, None, False, None, None),
        "--k-clf": ("k_clf", int, None, False, None, None),
        "--folds": ("folds", int, None, False, None, None),
        "--out": ("out", None, None, True, None, None),
        "--csv": ("csv", None, None, False, None, None),
        "--seed": ("seed", int, None, False, None, None),
        "--config": ("config", None, None, False, None, None),
    },
    "bench": {
        "--in": ("input", None, None, True, None, None),
        "--methods": ("methods", None, None, True, None, None),
        "--baseline": ("baseline", None, None, False, None, None),
        "--labels": ("labels", None, None, False, None, None),
        "--label-column": ("label_column", None, None, False, None, None),
        "--chart": ("chart", None, None, False, None, None),
        "--k": ("k", int, None, False, None, None),
        "--h": ("h", float, None, False, None, None),
        "--h-pct": ("h_pct", float, None, False, None, None),
        "--p": ("p", int, None, False, None, None),
        "--m": ("m", int, None, False, None, None),
        "--k-clf": ("k_clf", int, None, False, None, None),
        "--folds": ("folds", int, None, False, None, None),
        "--policy": ("policy", None, None, False, ["error", "largest-component"], None),
        "--out": ("out", None, None, True, None, None),
        "--seed": ("seed", int, None, False, None, None),
        "--cache-dir": ("cache_dir", None, None, False, None, None),
        "--config": ("config", None, None, False, None, None),
    },
    "plot": {
        "--in": ("input", None, None, True, None, None),
        "--labels": ("labels", None, None, False, None, None),
        "--label-column": ("label_column", None, None, False, None, None),
        "--axes": ("axes", int, None, False, None, 2),
        "--out": ("out", None, None, True, None, None),
        "--config": ("config", None, None, False, None, None),
    },
}

# The built-in default of each setting, per command where they differ.
DEFAULTS = {
    "seed": 0, "cache_dir": None, "n": 1000, "noise_sd": 0.0, "exponent": 0.0,
    "short_circuit_pairs": 0.0, "k": 10, "h": None, "h_pct": None, "p": 2,
    "policy": "error", "spectrum": 0, "m": 10, "k_clf": 5, "folds": 10,
}
REQUIRED = {
    "gen": ["swiss-roll", "--out", "o"],
    "embed": ["--in", "i.csv", "--method", "pca", "--out", "o.csv"],
    "eval": ["--emb", "e.csv", "--out", "o.json"],
    "bench": ["--in", "i.csv", "--methods", "pca", "--out", "o"],
    "plot": ["--in", "e.csv", "--out", "o.svg"],
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class RecordedReads:
    """A command's args that note the name of every attribute read from them."""

    def __init__(self, args):
        self.values = vars(args)
        self.reads = set()

    def __getattr__(self, name):
        self.reads.add(name)
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None


class TestSettingsTable:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options_as_before(self, command):
        got = {}
        for a in _subparsers()[command]._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            choices = None if a.choices is None else list(a.choices)
            got[a.option_strings[0] if a.option_strings else a.dest] = (
                a.dest, a.type, a.default, a.required, choices, a.nargs)
        assert got == OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_exits_0(self, command, capsys):
        assert run_cli(command, "--help") == 0
        assert "--config" in capsys.readouterr().out

    # a command declares only the settings it reads
    @pytest.mark.parametrize("argv", [
        ["embed", "--threads", "2"], ["embed", "--seed", "1"], ["plot", "--seed", "1"],
        ["gen", "--cache-dir", "d"], ["eval", "--cache-dir", "d"], ["plot", "--cache-dir", "d"],
    ], ids=" ".join)
    def test_option_the_command_does_not_read_exits_2(self, argv, capsys):
        command, *option = argv
        assert run_cli(command, *REQUIRED[command], *option) == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    # the run_config recorder reads every argument by design, so it is stubbed
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_reads_every_setting_it_declares(self, roll_dir, tmp_path, monkeypatch,
                                                     command):
        from prisomap import cli

        monkeypatch.setattr(cli, "_run_config", lambda args: {})
        ambient = str(roll_dir / "ambient.csv")
        emb = tmp_path / "e.csv"
        assert run_cli("embed", "--in", ambient, "--method", "isomap", "--k", "8",
                       "--out", str(emb)) == 0
        graph = ["--in", ambient, "--k", "8", "--h-pct", "90"]
        argv = {
            "gen": ["swiss-roll", "--n", "100"],
            "embed": [*graph, "--method", "pr-isomap", "--policy", "largest-component"],
            "eval": ["--emb", str(emb), "--data", ambient, "--ref", "geodesic", "--k", "8"],
            "bench": [*graph, "--methods", "pr-isomap,pca"],
            "plot": ["--in", str(emb)],
        }[command]
        args = build_parser().parse_args([command, *argv, "--out", str(tmp_path / "out")])
        resolve_settings(args, {})
        recorded = RecordedReads(args)
        assert args.func(recorded) == 0
        assert {dest for dest in SETTINGS if dest in vars(args)} <= recorded.reads

    # plot reads no setting
    @pytest.mark.parametrize("command", sorted(set(OPTIONS) - {"plot"}))
    def test_flags_beat_config_beat_environment_beat_default(self, command, monkeypatch):
        for name in list(os.environ):
            if name.startswith("PRISOMAP_"):
                monkeypatch.delenv(name)
        parser = build_parser()
        declared = vars(parser.parse_args([command, *REQUIRED[command]]))
        dests = [dest for dest in SETTINGS if dest in declared]
        assert dests and "threads" not in dests and "config" not in dests

        def resolved(dest, argv, config, env):
            if env is not None:
                monkeypatch.setenv("PRISOMAP_" + dest.upper(), env)
            args = parser.parse_args([command, *REQUIRED[command], *argv])
            resolve_settings(args, config)
            monkeypatch.delenv("PRISOMAP_" + dest.upper(), raising=False)
            return getattr(args, dest)

        for dest in dests:
            setting = SETTINGS[dest]
            if setting.choices:
                values = [setting.choices[0], setting.choices[1], setting.choices[0]]
            else:
                values = {int: ["3", "4", "5"], float: ["0.25", "0.5", "0.75"],
                          None: ["a", "b", "c"]}[setting.type]
            want = [v if setting.type is None else setting.type(v) for v in values]
            flag = "--" + dest.replace("_", "-")
            assert resolved(dest, [flag, values[0]], {dest: values[1]}, values[2]) == want[0]
            assert resolved(dest, [], {dest: values[1]}, values[2]) == want[1]
            got = resolved(dest, [], {}, values[2])
            assert got == want[2] and type(got) is type(want[2])
            default = "largest-component" if (command, dest) == ("bench", "policy") \
                else DEFAULTS[dest]
            assert resolved(dest, [], {}, None) == default


class TestPrecedenceCases:
    def test_int_from_environment(self, roll_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PRISOMAP_K", "9")
        out = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "isomap",
                       "--p", "2", "--out", str(out)) == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        assert desc["method"]["k"] == 9
        assert desc["run_config"]["params"]["k"] == 9

    def test_infinite_h_from_config(self, roll_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": "inf"}))
        base = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                "--k", "8", "--p", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*base, "--config", str(cfg), "--out", str(a)) == 0
        assert run_cli(*base, "--h", "inf", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.with_suffix(".json").read_text())["method"]["h"] == "inf"

    def test_invalid_policy_in_config_exits_2(self, roll_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "largest_component"}))
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pca",
                       "--config", str(cfg), "--out", str(tmp_path / "e.csv")) == 2
        assert "unknown policy" in capsys.readouterr().err

    @pytest.mark.parametrize("config, setting", [
        ({"k": [8]}, "k"), ({"p": {"n": 2}}, "p"), ({"h": [1.0]}, "h"),
        ({"cache_dir": 5}, "cache_dir"), ({"cache_dir": ["c"]}, "cache_dir"),
        ({"k": 8.7}, "k"), ({"p": True}, "p"), ({"h": True}, "h"),
    ], ids=["k-list", "p-object", "h-list", "cache_dir-number", "cache_dir-list",
            "k-float", "p-bool", "h-bool"])
    def test_config_value_of_the_wrong_type_exits_2(self, roll_dir, tmp_path, capsys,
                                                     config, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                       "--config", str(cfg), "--out", str(tmp_path / "e.csv")) == 2
        assert f"error: {setting} must be" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_invalid_policy_in_environment_exits_2(self, roll_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PRISOMAP_POLICY", "bogus")
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"), "--methods", "pca",
                       "--out", str(tmp_path / "b")) == 2

    def test_policy_defaults_per_command(self, roll_dir, tmp_path):
        emb = tmp_path / "e.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pca",
                       "--out", str(emb)) == 0
        params = json.loads(emb.with_suffix(".json").read_text())["run_config"]["params"]
        assert params["policy"] == "error"
        out = tmp_path / "b"
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"), "--methods", "pca",
                       "--out", str(out)) == 0
        params = json.loads((out / "bench.json").read_text())["run_config"]["params"]
        assert params["policy"] == "largest-component"


class TestInputErrors:
    def test_input_is_a_directory(self, tmp_path, capsys):
        assert run_cli("embed", "--in", str(tmp_path), "--method", "pca",
                       "--out", str(tmp_path / "e.csv")) == 2
        assert "error:" in capsys.readouterr().err

    def test_input_below_a_file(self, roll_dir, tmp_path):
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv" / "x.csv"),
                       "--method", "pca", "--out", str(tmp_path / "e.csv")) == 2

    def test_config_is_a_directory(self, roll_dir, tmp_path):
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pca",
                       "--config", str(tmp_path), "--out", str(tmp_path / "e.csv")) == 2

    def test_baseline_naming_no_method(self, roll_dir, tmp_path, capsys):
        out = tmp_path / "b"
        assert run_cli("bench", "--in", str(roll_dir / "ambient.csv"),
                       "--methods", "isomap,pca", "--k", "8", "--baseline", "bogus",
                       "--out", str(out)) == 2
        assert "baseline 'bogus'" in capsys.readouterr().err
        assert not (out / "bench.json").exists()

    @pytest.mark.parametrize("method", ["pr-isomap", "isomap", "mds", "pca", "bench", "eval"])
    def test_non_finite_data_exits_2(self, roll_dir, tmp_path, capsys, method):
        head, _, body = (roll_dir / "ambient.csv").read_text().partition("\n")
        rows = body.splitlines()[:60]
        rows[7] = rows[7].rsplit(",", 1)[0] + ",-inf"
        src = tmp_path / "inf.csv"
        src.write_text(head + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        graph = ["--k", "8", "--h-pct", "70"] if method == "pr-isomap" else ["--k", "8"]
        if method == "bench":
            argv = ["bench", "--methods", "pr-isomap,isomap,pca", "--h-pct", "70", "--k", "8",
                    "--out", str(tmp_path / "b")]
        elif method == "eval":
            emb = tmp_path / "e.csv"
            emb.write_text("index,c0,c1\n" + "".join(f"{i},{i}.5,{i % 7}\n" for i in range(60)),
                           encoding="utf-8")
            argv = ["eval", "--emb", str(emb), "--ref", "euclidean", "--out",
                    str(tmp_path / "r.json"), "--data", str(src)]
        else:
            argv = ["embed", "--method", method, *graph, "--out", str(tmp_path / "e.csv")]
        if method != "eval":
            argv += ["--in", str(src)]
        assert run_cli(*argv) == 2
        assert "data row 7, column 2 (from 0) is -inf" in capsys.readouterr().err

    # a negative spectrum is refused, on a warm spectral hit too, and by the
    # library calls
    @pytest.mark.parametrize("method", ["pr-isomap", "isomap", "mds", "pca"])
    def test_negative_spectrum_exits_2(self, roll_dir, tmp_path, capsys, method):
        from prisomap import classical_mds, pca, pr_isomap
        from prisomap.errors import InputError

        out = tmp_path / "e.csv"
        graph = {"pr-isomap": ["--k", "8", "--h-pct", "70"], "isomap": ["--k", "8"]}
        argv = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", method,
                *graph.get(method, []), "--p", "2", "--policy", "largest-component",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
        message = "error: spectrum must be >= 0, got -1\n"
        assert run_cli(*argv, "--spectrum", "-1") == 2  # cold
        assert capsys.readouterr().err == message
        assert not out.exists()
        assert run_cli(*argv, "--spectrum", "0") == 0
        assert "cache_hit=false" in capsys.readouterr().err
        if method in graph:
            assert run_cli(*argv, "--spectrum", "0") == 0
            assert "cache_hit=true" in capsys.readouterr().err
        out.unlink()
        assert run_cli(*argv, "--spectrum", "-1") == 2  # warm for a graph method
        assert capsys.readouterr().err == message
        assert not out.exists()

        x = load_csv(roll_dir / "ambient.csv").data
        library = {"pr-isomap": lambda: pr_isomap(x, 8, 3.0, 2, spectrum=-1),
                   "isomap": lambda: isomap(x, 8, 2, spectrum=-1),
                   "mds": lambda: classical_mds(x, 2, spectrum=-1),
                   "pca": lambda: pca(x, 2, spectrum=-1)}
        with pytest.raises(InputError, match="spectrum must be >= 0"):
            library[method]()

    # a graph method refuses p and spectrum before a candidate pass or a cap
    @pytest.mark.parametrize("option, message", [
        (["--p", "2", "--spectrum", "-1"], "error: spectrum must be >= 0, got -1\n"),
        (["--p", "300"], "error: p must satisfy 1 <= p < n=300, got 300\n"),
    ], ids=["spectrum", "p"])
    def test_bad_p_or_spectrum_exits_2_before_any_pass(self, roll_dir, tmp_path, capsys,
                                                        monkeypatch, option, message):
        from prisomap import bench, graph

        calls = []
        monkeypatch.setattr(graph, "_knn_candidates", lambda *a, **kw: calls.append("pass"))
        monkeypatch.setattr(bench, "cap_candidates", lambda *a, **kw: calls.append("cap"))
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                       "--k", "8", "--h-pct", "60", *option,
                       "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(tmp_path / "e.csv")) == 2
        assert capsys.readouterr().err == message
        assert calls == []

    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_negative_embedding_index_exits_2(self, roll_dir, tmp_path, capsys, command):
        emb = tmp_path / "e.csv"
        emb.write_text("index,c0,c1\n0,1.0,2.0\n-1,3.0,4.0\n2,0.5,0.5\n", encoding="utf-8")
        if command == "eval":
            argv = ["eval", "--emb", str(emb), "--data", str(roll_dir / "ambient.csv"),
                    "--out", str(tmp_path / "r.json")]
        else:
            argv = ["plot", "--in", str(emb), "--out", str(tmp_path / "p.svg")]
        assert run_cli(*argv) == 2
        assert "e.csv: negative index -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_chart_shorter_than_the_input_exits_2(self, roll_dir, tmp_path, capsys, command):
        chart = tmp_path / "chart.csv"
        rows = (roll_dir / "intrinsic.csv").read_text().splitlines()[:51]
        chart.write_text("\n".join(rows) + "\n", encoding="utf-8")
        ambient = str(roll_dir / "ambient.csv")
        if command == "eval":
            emb = tmp_path / "e.csv"
            assert run_cli("embed", "--in", ambient, "--method", "pca", "--out", str(emb)) == 0
            argv = ["eval", "--emb", str(emb), "--ref", "chart"]
        else:
            argv = ["bench", "--in", ambient, "--methods", "pca"]
        assert run_cli(*argv, "--chart", str(chart), "--out", str(tmp_path / "r")) == 2
        assert "chart has 50 rows, fewer than the 300 the input needs" in capsys.readouterr().err

    # a file too short for the embedding's rows names itself, its row count
    # and the count the embedding needs
    @pytest.mark.parametrize("command, faulty", [
        ("eval-euclidean", "data"), ("eval-chart", "labels"), ("plot", "labels")])
    def test_file_shorter_than_the_embedding_exits_2(self, roll_dir, tmp_path, capsys,
                                                     command, faulty):
        ambient, chart = str(roll_dir / "ambient.csv"), str(roll_dir / "intrinsic.csv")
        path = tmp_path / f"{faulty}.csv"
        source = roll_dir / "ambient.csv" if faulty == "data" else _labels_file(roll_dir, path)
        path.write_text("".join(source.read_text().splitlines(keepends=True)[:-1]))
        emb = tmp_path / "e.csv"
        assert run_cli("embed", "--in", ambient, "--method", "pca", "--out", str(emb)) == 0
        labels = ["--labels", str(path), "--label-column", "label"]
        argv = {
            "eval-euclidean": ["eval", "--emb", str(emb), "--data", str(path)],
            "eval-chart": ["eval", "--emb", str(emb), "--ref", "chart", "--chart", chart,
                           *labels],
            "plot": ["plot", "--in", str(emb), *labels],
        }[command]
        assert run_cli(*argv, "--out", str(tmp_path / "r")) == 2
        what = "data" if faulty == "data" else "label file"
        assert f"error: {path}: {what} has 299 rows, fewer than the 300 the input needs\n" \
            in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # chart and label rows are matched to the data's by number, so wherever
    # the data is read a file of another row count is refused
    @pytest.mark.parametrize("command, faulty, extra", [
        ("bench", "chart", 1), ("bench", "labels", 1), ("bench", "labels", -1),
        ("eval", "labels", 1), ("eval", "labels", -1)])
    def test_file_of_another_row_count_than_the_data_exits_2(self, roll_dir, tmp_path, capsys,
                                                             command, faulty, extra):
        path = tmp_path / f"{faulty}.csv"
        lines = (roll_dir / "intrinsic.csv" if faulty == "chart" else
                 _labels_file(roll_dir, path)).read_text().splitlines()
        path.write_text("\n".join(lines[:extra] if extra < 0 else lines + lines[-1:]) + "\n")
        ambient = str(roll_dir / "ambient.csv")
        argv = [f"--{faulty}", str(path), *(["--label-column", "label"] * (faulty == "labels"))]
        if command == "eval":
            emb = tmp_path / "e.csv"
            assert run_cli("embed", "--in", ambient, "--method", "pca", "--out", str(emb)) == 0
            argv = ["eval", "--emb", str(emb), "--data", ambient, *argv]
        else:
            argv = ["bench", "--in", ambient, "--methods", "pca", *argv]
        assert run_cli(*argv, "--out", str(tmp_path / "r")) == 2
        what = "chart" if faulty == "chart" else "label file"
        assert f"{path}: {what} has {300 + extra} rows, but the data has 300" in \
            capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_cache_dir_naming_a_file_exits_2(self, roll_dir, tmp_path, capsys):
        (tmp_path / "cache").write_text("", encoding="utf-8")
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "isomap",
                       "--k", "8", "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(tmp_path / "e.csv")) == 2
        assert "File exists" in capsys.readouterr().err


class TestReplay:
    """Each output's run_config replays: its settings as a --config file and
    its other arguments as flags give the same output bytes."""

    @staticmethod
    def outputs(out):
        files = sorted(out.iterdir()) if out.is_dir() else sorted({out, out.with_suffix(".json")})
        return [path.read_bytes() for path in files if path.exists()]

    @staticmethod
    def replay_argv(run_config, tmp_path):
        """The argv of a recorded run_config, each flag's name read from the parser."""
        command, params = run_config["command"], run_config["params"]
        flags = {a.dest: a.option_strings for a in _subparsers()[command]._actions}
        argv, config = [command], {}
        for dest, value in params.items():
            if dest in SETTINGS:
                config[dest] = value
            elif value is not None:
                values = value if isinstance(value, list) else [value]
                argv += [*flags[dest][:1], *map(str, values)]
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(config))
        return [*argv, "--config", str(cfg)]

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_recorded_run_config_replays(self, roll_dir, tmp_path, command):
        from prisomap.cli import _UNRECORDED

        ambient, chart = str(roll_dir / "ambient.csv"), str(roll_dir / "intrinsic.csv")
        labels, emb = tmp_path / "labels.csv", tmp_path / "emb.csv"
        labels.write_text("y\n" + "".join(f"{i % 3}\n" for i in range(300)))
        assert run_cli("embed", "--in", ambient, "--method", "isomap", "--k", "8", "--p", "3",
                       "--out", str(emb)) == 0
        label_flags = ["--labels", str(labels), "--label-column", "y"]
        scoring = ["--m", "7", "--k-clf", "3", "--folds", "4", "--seed", "5"]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        argv = {
            "gen": ["swiss-roll", "--n", "150", "--noise-sd", "0.1", "--exponent", "1",
                    "--short-circuit-pairs", "0.02", "--seed", "3"],
            "embed": ["--in", ambient, "--method", "pr-isomap", "--k", "9", "--h-pct", "85",
                      "--p", "3", "--policy", "largest-component", "--spectrum", "5", *cache],
            "eval": ["--emb", str(emb), "--data", ambient, "--ref", "geodesic", "--k", "12",
                     "--h-pct", "60", *label_flags, *scoring, "--csv", str(tmp_path / "r.csv")],
            "bench": ["--in", ambient, "--methods", "pr-isomap,isomap,pca", "--baseline", "pca",
                      "--k", "9", "--h", "4.5", "--p", "3", "--chart", chart, *label_flags,
                      *scoring, "--policy", "largest-component", *cache],
            "plot": ["--in", str(emb), *label_flags, "--axes", "2", "0"],
        }[command]
        suffix = {"gen": "", "bench": "", "eval": ".json", "plot": ".svg", "embed": ".csv"}
        first, again = tmp_path / f"first{suffix[command]}", tmp_path / f"again{suffix[command]}"
        assert run_cli(command, *argv, "--out", str(first)) == 0
        if command == "plot":
            run_config = json.loads(first.read_text().split("runconfig ", 1)[1].split(" -->")[0])
        elif command == "eval":
            run_config = json.loads(first.read_text())["run"]
        else:
            description = {"gen": first / "spec.json", "bench": first / "bench.json"}.get(
                command, first.with_suffix(".json"))
            run_config = json.loads(description.read_text())["run_config"]
        declared = {a.dest for a in _subparsers()[command]._actions} - {"help"}
        assert set(run_config["params"]) == declared - set(_UNRECORDED)

        assert run_cli(*self.replay_argv(run_config, tmp_path), "--out", str(again)) == 0
        assert self.outputs(again) == self.outputs(first)

    def test_output_path_is_not_recorded(self, roll_dir, tmp_path):
        argv = ["embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pr-isomap",
                "--k", "8", "--h-pct", "80", "--policy", "largest-component"]
        a, b = tmp_path / "a.csv", tmp_path / "sub" / "b.csv"
        b.parent.mkdir()
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()


class TestByteDeterminism:
    """Every output file, cache entries included, is a pure function of the
    command and its inputs; the wall clock goes to stderr alone."""

    def run_all(self, work, capsys) -> tuple[dict[str, bytes], list[str]]:
        """Each command run once into work: every file it holds, by relative
        path, and each command's stderr."""
        roll, cache = work / "roll", ["--cache-dir", str(work / "cache")]
        labels = ["--labels", str(work / "labels.csv"), "--label-column", "label"]
        embed = ["embed", "--in", str(roll / "ambient.csv"), "--method", "pr-isomap",
                 "--k", "8", "--h-pct", "90", "--policy", "largest-component",
                 "--spectrum", "5", *cache]
        commands = [
            ["gen", "swiss-roll", "--n", "300", "--seed", "7", "--out", str(roll)],
            [*embed, "--out", str(work / "cold.csv")],
            [*embed, "--out", str(work / "warm.csv")],
            ["eval", "--emb", str(work / "warm.csv"), "--ref", "chart",
             "--chart", str(roll / "intrinsic.csv"), *labels, "--folds", "4",
             "--out", str(work / "r.json"), "--csv", str(work / "r.csv")],
            ["bench", "--in", str(roll / "ambient.csv"), "--methods", "pr-isomap,isomap,pca",
             "--k", "8", "--h-pct", "90", "--chart", str(roll / "intrinsic.csv"), *labels,
             "--folds", "4", "--out", str(work / "bench")],
            ["plot", "--in", str(work / "warm.csv"), *labels, "--out", str(work / "p.svg")],
        ]
        errs = []
        for argv in commands:
            assert run_cli(*argv) == 0
            errs.append(capsys.readouterr().err)
            if argv[0] == "gen":
                _labels_file(roll, work / "labels.csv")
        files = {str(path.relative_to(work)): path.read_bytes()
                 for path in sorted(work.rglob("*")) if path.is_file()}
        return files, errs

    def test_two_runs_write_the_same_bytes(self, tmp_path, capsys):
        work = tmp_path / "work"
        first, errs = self.run_all(work, capsys)
        shutil.rmtree(work)
        again, _ = self.run_all(work, capsys)
        assert sorted(first) == sorted(again)
        for name in first:
            assert first[name] == again[name], name
        assert len([name for name in first if name.endswith(".eig")]) == 1
        # a warm embed writes a cold one's bytes
        assert first["warm.csv"] == first["cold.csv"]
        assert first["warm.json"] == first["cold.json"]
        for text in (first["r.json"], first["bench/bench.json"]):
            assert b"timings" not in text and b"_seconds" not in text
        for text in (first["r.csv"], first["bench/bench.csv"]):
            assert b"_seconds" not in text.splitlines()[0]

        s = r"\d+\.\d{3}"  # seconds
        assert errs[0] == errs[5] == ""
        assert re.fullmatch(f"timing total_seconds={s} cache_hit=false cache_entry=none\n",
                            errs[1])
        assert re.fullmatch(f"timing total_seconds={s} cache_hit=true cache_entry=spectrum\n",
                            errs[2])
        assert re.fullmatch(f"timing metrics_seconds={s}\n", errs[3])
        assert re.fullmatch("".join(f"timing method={name} total_seconds={s} cache_entry=none\n"
                                    for name in ("pr-isomap", "isomap", "pca")), errs[4])


class TestForkedDijkstra:
    """Dijkstra split over this process and a forked worker writes the files
    one process writes."""

    @staticmethod
    def outputs(monkeypatch, workers, argv, out):
        from prisomap import geodesics

        forks, fork = [], os.fork
        monkeypatch.setattr(geodesics, "_worker_count", lambda rows, n: workers)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert run_cli(*argv, "--out", str(out)) == 0
        monkeypatch.setattr(os, "fork", fork)
        assert (len(forks) > 0) == (workers == 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        files = sorted(out.iterdir()) if out.is_dir() else [out, out.with_suffix(".json")]
        return {path.name: path.read_bytes() for path in files}

    @pytest.mark.parametrize("command", [
        ["embed", "--method", "isomap"],
        ["embed", "--method", "pr-isomap", "--h-pct", "70", "--policy", "largest-component"],
        ["bench", "--methods", "pr-isomap,isomap,pca", "--h-pct", "70"],
    ])
    def test_embed_and_bench_bytes(self, roll_dir, tmp_path, monkeypatch, command):
        argv = [*command, "--in", str(roll_dir / "ambient.csv"), "--k", "10", "--p", "2"]
        if command[0] == "bench":
            argv += ["--chart", str(roll_dir / "intrinsic.csv")]
        out = tmp_path / ("bench" if command[0] == "bench" else "e.csv")
        serial = self.outputs(monkeypatch, 1, argv, out)
        assert self.outputs(monkeypatch, 2, argv, out) == serial

    @pytest.mark.parametrize("window", [[], ["--h-pct", "30"]])
    def test_eval_geodesic_bytes(self, roll_dir, tmp_path, monkeypatch, window):
        emb, data = tmp_path / "emb.csv", str(roll_dir / "ambient.csv")
        assert run_cli("embed", "--in", data, "--method", "mds", "--p", "2",
                       "--out", str(emb)) == 0
        out = tmp_path / "r"
        out.mkdir()
        argv = ["eval", "--emb", str(emb), "--data", data, "--ref", "geodesic", "--k", "8",
                *window, "--m", "5", "--csv", str(out / "r.csv")]
        serial = self.outputs(monkeypatch, 1, argv, out / "r.json")
        assert self.outputs(monkeypatch, 2, argv, out / "r.json") == serial

    def test_failing_worker_exits_4(self, roll_dir, tmp_path, monkeypatch, capsys):
        import scipy.sparse.csgraph

        from prisomap import geodesics

        parent, dijkstra = os.getpid(), scipy.sparse.csgraph.dijkstra
        monkeypatch.setattr(geodesics, "_worker_count", lambda rows, n: 2)
        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra",  # fails in the worker alone
                            lambda *a, **kw: dijkstra(*a, **kw) if os.getpid() == parent
                            else 1 / 0)
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "isomap",
                       "--k", "8", "--out", str(tmp_path / "e.csv")) == 4
        assert "a Dijkstra worker failed (exit status 1)" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Two warm evals of a labelled n = 1,400 roll in a fresh interpreter; prints
# the minor page faults of the second one.
SECOND_EVAL_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from prisomap.cli import main
    out = sys.argv[1]
    assert main(["gen", "swiss-roll", "--n", "1400", "--out", f"{out}/roll"]) == 0
    assert main(["embed", "--in", f"{out}/roll/ambient.csv", "--method", "pca",
                 "--out", f"{out}/e.csv"]) == 0
    t = np.loadtxt(f"{out}/roll/intrinsic.csv", delimiter=",", skiprows=1)[:, 0]
    quartile = np.searchsorted(np.percentile(t, [25, 50, 75]), t)
    with open(f"{out}/labels.csv", "w") as fh:
        fh.write("label\\n" + "".join(f"{q}\\n" for q in quartile))
    argv = ["eval", "--emb", f"{out}/e.csv", "--ref", "chart", "--chart",
            f"{out}/roll/intrinsic.csv", "--labels", f"{out}/labels.csv",
            "--label-column", "label", "--out", f"{out}/r.json"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


# main in a fresh interpreter where glibc's mallopt cannot be found, so the
# allocator thresholds are never set; argv[1:] is main's argv
MAIN_WITHOUT_MALLOPT = textwrap.dedent("""
    import ctypes, sys
    load = ctypes.CDLL
    ctypes.CDLL = lambda name, *args: object() if name is None else load(name, *args)
    from prisomap import linalg
    from prisomap.cli import main
    assert linalg._glibc("mallopt") is None
    sys.exit(main(sys.argv[1:]))
""")


class TestAllocatorPolicy:
    """Importing prisomap keeps freed row blocks in glibc's heap, and main is
    the same program where it cannot."""

    @pytest.mark.skipif(not sys.platform.startswith("linux") or linalg._glibc("mallopt") is None,
                        reason="glibc's mallopt is not in this process")
    def test_a_warm_eval_faults_in_no_row_blocks(self, tmp_path):
        # about 17,000 faults without the policy, about 10 with it
        env = {**os.environ, "PYTHONPATH": str(Path(prisomap.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", SECOND_EVAL_FAULTS, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2000

    def test_without_mallopt_main_writes_the_same_bytes(self, roll_dir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "pca",
                       "--out", str(emb)) == 0
        argv = ["eval", "--emb", str(emb), "--data", str(roll_dir / "ambient.csv"), "--m", "8"]
        assert run_cli(*argv, "--out", str(tmp_path / "a.json")) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(prisomap.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", MAIN_WITHOUT_MALLOPT, *argv,
                               "--out", str(tmp_path / "b.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


class TestMemoryBudget:
    """With less memory available than a stage's n x n buffer needs, the
    command exits 4 on one line naming the stage, its estimate and the
    memory available, before that buffer exists: the peak is the k-NN
    pass's 512-row blocks."""

    N = 2000

    @pytest.fixture(scope="class")
    def roll(self, tmp_path_factory):
        roll = tmp_path_factory.mktemp("budget")
        assert run_cli("gen", "swiss-roll", "--n", str(self.N), "--seed", "7",
                       "--out", str(roll)) == 0
        assert run_cli("embed", "--in", str(roll / "ambient.csv"), "--method", "pca",
                       "--out", str(roll / "pca.csv")) == 0
        return roll

    @pytest.mark.parametrize("command, stage, columns", [
        (["embed", "--method", "isomap", "--k", "10", "--in", "{roll}/ambient.csv",
          "--out", "{out}/emb.csv"], "all-pairs geodesics", 32),
        (["embed", "--method", "mds", "--in", "{roll}/ambient.csv", "--out", "{out}/emb.csv"],
         "pairwise distances", 256),
        (["eval", "--ref", "geodesic", "--k", "10", "--data", "{roll}/ambient.csv",
          "--emb", "{roll}/pca.csv", "--out", "{out}/eval.json"], "all-pairs geodesics", 32),
        (["bench", "--methods", "isomap,pca", "--k", "10", "--in", "{roll}/ambient.csv",
          "--out", "{out}"], "all-pairs geodesics", 32),
    ])
    def test_exits_4_on_one_line_and_allocates_nothing_large(self, roll, tmp_path, monkeypatch,
                                                             capsys, command, stage, columns):
        argv = [arg.format(roll=roll, out=tmp_path) for arg in command]
        monkeypatch.setattr(linalg, "_available_memory", lambda: 2**20)
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = self.N
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"numeric error: {stage} needs an estimated {8 * n * (n + columns) / 2**20:.1f} "
            "MiB, but 1.0 MiB of memory is available"]
        assert peak < 0.75 * 8 * n * n


class TestLibraryDescriptor:
    def test_isomap_matches_cli_descriptor(self, roll_dir, tmp_path):
        out = tmp_path / "emb.csv"
        assert run_cli("embed", "--in", str(roll_dir / "ambient.csv"), "--method", "isomap",
                       "--k", "8", "--p", "2", "--out", str(out)) == 0
        desc = json.loads(out.with_suffix(".json").read_text())
        emb = isomap(load_csv(roll_dir / "ambient.csv").data, 8, 2)
        assert json_safe(emb.method) == desc["method"]
        assert desc["method"]["h"] == "inf"


# In one process, every output under argv[1]: the bundled OpenBLAS
# libraries' thread counts read back once prisomap is imported, the library
# calls, then the pipeline of ROADMAP item 3 through main
BLAS_THREAD_RUN = textwrap.dedent("""
    import ctypes, importlib.util, sys
    from pathlib import Path
    import numpy as np
    import prisomap
    from prisomap.bench import MethodSpec, Neighbors, resolve_h, run_bench
    from prisomap.cli import main

    read = 0
    for package in ("numpy", "scipy"):
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for path in libs.glob("libscipy_openblas*"):
            lib = ctypes.CDLL(str(path))
            get = (getattr(lib, "scipy_openblas_get_num_threads64_", None)
                   or getattr(lib, "scipy_openblas_get_num_threads"))
            get.restype = ctypes.c_int
            assert get() == 1, (path, get())
            read += 1
    assert read, "no bundled OpenBLAS found"

    out = sys.argv[1]
    Path(out).mkdir()
    sample = prisomap.gen_swiss_roll(1500, seed=0)
    x, chart = sample.ambient, prisomap.swiss_roll_unrolled(sample.intrinsic)
    specs = [MethodSpec("pr-isomap", 2, 12, h_percentile=80), MethodSpec("isomap", 2, 12),
             MethodSpec("mds", 2)]
    h = resolve_h(specs[0], Neighbors(x))
    np.save(f"{out}/lib_mds.npy", prisomap.classical_mds(x, 2, spectrum=20).coordinates)
    np.save(f"{out}/lib_pr.npy", prisomap.pr_isomap(
        x, 12, h, 2, component_policy="largest_component", spectrum=20).coordinates)
    for name, run in run_bench(x, specs, reference_points=chart).runs.items():
        np.save(f"{out}/lib_bench_{name}.npy", run.embedding.coordinates)

    roll = f"{out}/roll"
    graph = ["--k", "12", "--h-pct", "80"]
    for argv in (
            ["gen", "swiss-roll", "--n", "1500", "--seed", "0", "--out", roll],
            ["embed", "--in", f"{roll}/ambient.csv", "--method", "mds", "--spectrum", "20",
             "--out", f"{out}/mds.csv"],
            ["embed", "--in", f"{roll}/ambient.csv", "--method", "pr-isomap", *graph,
             "--policy", "largest-component", "--spectrum", "20", "--out", f"{out}/pr.csv"],
            ["eval", "--emb", f"{out}/pr.csv", "--ref", "chart", "--chart",
             f"{roll}/intrinsic.csv", "--out", f"{out}/eval.json"],
            ["bench", "--in", f"{roll}/ambient.csv", "--methods", "pr-isomap,isomap,mds,pca",
             *graph, "--chart", f"{roll}/intrinsic.csv", "--out", f"{out}/bench"]):
        assert main(argv) == 0, argv
""")


class TestBlasThreads:
    """Importing prisomap holds BLAS to one thread, whatever
    OPENBLAS_NUM_THREADS says, so neither an output byte nor a library
    result depends on it; at two threads, without the pin, the embeddings,
    the eval report and the bench files all differed, and so did the
    library's coordinates while only main set the pin."""

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        work = tmp_path / "work"  # one path for both runs: the files record it
        files = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(prisomap.__file__).resolve().parents[1])}
            proc = subprocess.run([sys.executable, "-c", BLAS_THREAD_RUN, str(work)], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            files[threads] = {str(p.relative_to(work)): p.read_bytes()
                              for p in work.rglob("*") if p.is_file()}
            shutil.rmtree(work)
        # gen's 3 files, 2 embeddings with their descriptors, the report, bench's 2;
        # the library's mds and pr-isomap coordinates, and its bench's 3
        assert len(files["1"]) == 15
        assert sorted(name for name, data in files["1"].items()
                      if files["2"].get(name) != data) == []
