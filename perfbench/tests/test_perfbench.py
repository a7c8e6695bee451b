"""The benchmark's own tests: every workload at tiny size reports every
named metric, and the output checks bite.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

import run as bench  # noqa: E402
import serveload  # noqa: E402
import tasks  # noqa: E402
from repro.serve.app import StudyCatalogHandler, make_server  # noqa: E402
from spec import BENCHMARK_JSON, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from speed import Speedometer, reference  # noqa: E402
from tracer import SELF_TIME  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT, env=None):
    return subprocess.run([sys.executable, str(PERFBENCH / "run.py"),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _result(_bench("--workload", workload, "--seed", "7",
                            "--seconds", "0.5", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert reported["value"] > 0, metric.name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics(workload):
    result = _result(_bench("--workload", workload, "--seed", "7",
                            "--seconds", "0.5", "--trace", "1", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    assert set(metrics) == {m.name for m in PER_LAYER}
    selves = sum(metrics[name] for name in SELF_TIME)
    assert selves + metrics["trace.other_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6)
    assert metrics["trace.wall_s"] > 0
    # The layer each workload exists to stress did work.
    busiest = {"measure": "crawler.visits", "guard": "cookieguard.decisions",
               "analyze": "analysis.reingested", "serve": "serve.requests"}
    assert metrics[busiest[workload]] > 0
    if workload == "measure":
        assert metrics["cookieguard.decisions"] == 0
        assert metrics["store.misses"] == WORKLOADS["measure"].tiny.shards


def test_list_prints_every_metric_with_its_unit():
    proc = _bench("--list")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    for metric in END_TO_END + PER_LAYER:
        assert any(line.split()[:2] == [metric.name, metric.unit]
                   for line in lines), metric.name


def test_every_benchmark_json_metric_has_a_layer():
    config = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(m["name"] for m in config["per_layer"]) == sorted(
        m.name for m in PER_LAYER)


def test_speedometer_scales_and_leaves_out_its_samples():
    meter = Speedometer().start()
    try:
        begin = monotonic()
        while monotonic() - begin < 0.5:
            reference()
        end = monotonic()
    finally:
        meter.stop()
    assert len(meter.took) >= 5
    assert 0 < meter.spent(begin, end) < 0.2 * (end - begin)
    assert meter.net(begin, end) == pytest.approx(
        end - begin - meter.spent(begin, end))
    assert meter.scaled(begin, end) == pytest.approx(
        meter.net(begin, end) * meter.scale(begin, end))
    assert Speedometer().scale(begin, end) == 1.0     # never sampled


def test_refuses_fault_injection():
    env = dict(os.environ, REPRO_FAULT_PLAN='{"points": []}')
    proc = _bench("--workload", "measure", "--tiny", env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", "measure", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run(tmp_path: Path, workload: str) -> bench.Run:
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.5,
                              trace=0, tiny=True)
    run = bench.Run(args, ROOT)
    run.dir = tmp_path / "run"
    run.dir.mkdir()
    return run


def _tiny_dataset(directory: Path) -> dict:
    size = WORKLOADS["analyze"].tiny
    return tasks.dataset({"dir": str(directory), "seed": 7,
                          "sites": size.sites, "shards": size.shards},
                         Speedometer())


def test_flipped_shard_byte_fails_the_checks(tmp_path):
    run = _run(tmp_path, "analyze")
    clean = tmp_path / "clean"
    _tiny_dataset(clean)
    expected = tasks.analyze_reference({"dir": str(tmp_path / "ref"),
                                        "dataset": str(clean), "touch": 0},
                                       Speedometer())
    flipped = tmp_path / "flipped"
    shutil.copytree(clean, flipped)
    shard = flipped / "shard-0001.jsonl.gz"
    data = bytearray(shard.read_bytes())
    data[len(data) // 2] ^= 0x01
    shard.write_bytes(bytes(data))

    problems: list = []
    tasks._verify(flipped, problems)
    assert problems and "verify_shard_files" in problems[0]

    run.child(dict(kind="analyze_pass", dir=str(run.dir / "pass0"),
                   dataset=str(flipped), touch=0, trace=False,
                   spans=str(run.dir / "pass0.spans"), **expected))
    assert run.failed > 0
    assert run.failed / run.attempted > 0


def test_tampered_response_body_fails_the_checks(tmp_path, monkeypatch):
    catalog = tmp_path / "catalog"
    data = _tiny_dataset(catalog / serveload.STUDY_ID)
    honest = StudyCatalogHandler._dispatch

    def tampered(self):
        etag, body = honest(self)
        return etag, body.replace(b'"rank"', b'"rank" ')

    monkeypatch.setattr(StudyCatalogHandler, "_dispatch", tampered)
    server = make_server(catalog)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        loop = serveload.run_loop(server.server_address[1], 7, data["ranks"],
                                  count=400)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    assert not loop.errors      # statuses were all as expected ...
    run = _run(tmp_path, "serve")
    bench._tally_loop(run, loop, catalog / serveload.STUDY_ID)
    assert run.failed > 0       # ... but the bodies were not
    assert run.failed / run.attempted > 0

