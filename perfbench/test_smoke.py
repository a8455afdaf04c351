"""Smoke tests of the benchmark: every workload, untraced and traced, at the
small smoke shapes.  Run with `python3 -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def declared(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


def run(*args):
    proc = subprocess.run([sys.executable, str(RUN), *args], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["train-toy", "train-paper", "generate-paper"])
def test_untraced_run_prints_checked_end_to_end_metrics(workload):
    report, result = run("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--smoke")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["peak_rss_mb"] > 0
    assert "layers" not in report and "spans_file" not in report


@pytest.mark.parametrize("workload", ["train-toy", "generate-paper"])
def test_traced_run_reports_layers_and_keeps_outputs(workload):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]
    plain, _ = run(*args, "--trace", "0")
    traced, result = run(*args, "--trace", "1")
    digest = "prediction_digest" if workload.startswith("generate") else "loss_digest"
    assert traced[digest] == plain[digest]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")
    assert metrics["features.embed_passage_calls_per_example"]["value"] == 2.0
    assert metrics["autodiff.tensors_per_example"]["value"] > 0
    shares = [v["value"] for k, v in metrics.items() if k.startswith("self_pct.")]
    assert sum(shares) == pytest.approx(100.0)
    assert (Path(__file__).resolve().parent.parent / traced["spans_file"]).is_file()


def test_same_seed_gives_same_outputs():
    args = ["--workload", "train-paper", "--seconds", "1", "--trace", "0", "--smoke"]
    first, _ = run(*args, "--seed", "5")
    again, _ = run(*args, "--seed", "5")
    other, _ = run(*args, "--seed", "6")
    assert first["loss_digest"] == again["loss_digest"] != other["loss_digest"]


def test_refuses_to_run_without_qgen_sources():
    bare = RUN.parent / ".work" / f"bare-{os.getpid()}"
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    try:
        for f in RUN.parent.glob("*.py"):
            shutil.copy(f, bench / f.name)
        proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train-toy",
                               "--seed", "1", "--seconds", "1"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
