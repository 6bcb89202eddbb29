"""Self-test of the benchmark at tiny n.

    python3 -m pytest perfbench

Runs every workload for the fewest ops, untraced and traced, and checks
the result line, the metric names and units, and that each traced op's
span self times add up to the op's time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import END_TO_END, PER_LAYER, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_N = 300


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--n", str(TINY_N))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {tuple(line.split()[1:2] + line.split()[3:4]) for line in lines[:-1]}
    assert {(name, unit) for name, unit in want.items()} <= printed
    if trace:
        assert_self_times_add_up(WORK / f"trace-{workload}.jsonl")


def assert_self_times_add_up(spans_file: Path) -> None:
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(r["name"] == "op" for r in roots)
    for root in roots:
        in_op = [s for s in spans if s["op"] == root["op"]]
        self_total = sum(s["end"] - s["start"] - child_s.get(s["id"], 0.0) for s in in_op)
        assert self_total == pytest.approx(root["end"] - root["start"], abs=1e-9)
        assert len(in_op) > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bench-paired", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_trustworthiness_matches_the_definition():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = x[:, :2] + 0.3 * rng.normal(size=(40, 2))
    d_ref, d_emb = checks.distances(x), checks.distances(y)
    n, m = 40, 5
    penalty = 0
    for i in range(n):
        ref_order = [j for j in np.lexsort((np.arange(n), d_ref[i])) if j != i]
        emb_nn = [j for j in np.lexsort((np.arange(n), d_emb[i])) if j != i][:m]
        penalty += sum(ref_order.index(j) + 1 - m for j in emb_nn if j not in ref_order[:m])
    want = 1.0 - 2.0 / (n * m * (2 * n - 3 * m - 1)) * penalty
    assert checks.trustworthiness(d_ref, d_emb, m) == pytest.approx(want, abs=1e-12)


def test_digest_skips_and_counts_wall_clock_fields(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"stress": 0.5, "timings": {"metrics_seconds": 1.0}}))
    b.write_text(json.dumps({"stress": 0.5, "timings": {"metrics_seconds": 2.0}}))
    assert checks.normalized_digest(a) == checks.normalized_digest(b)
    assert checks.normalized_digest(a)[1] == 1
    c = tmp_path / "c.csv"
    c.write_text("method,stress,embed_seconds\npca,0.5,0.25\n")
    assert checks.normalized_digest(c)[1] == 1
