"""The perf gate script, ``scripts/perf_ab.py``, over a stub runner.

No perfbench run happens here: ``collect`` takes the runner as an
argument, and these tests pass one that returns made-up results.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import perf_ab  # noqa: E402

BASE, HEAD = Path("base"), Path("head")
BENCHMARK = perf_ab.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
VALUES = {"setup_s": 1.0, "pass_s": 2.0, "items_per_s": 100.0,
          "bytes_per_visit": 2500.0}


def stub(head=None, head_failed=0, calls=None):
    """A runner: every run reports VALUES, head's overridden by
    ``head[workload][metric]`` (a factor) and failing ``head_failed`` of
    its 100 operations."""
    def run(root, workload, seed, seconds):
        if calls is not None:
            calls.append((root, workload, seed, seconds))
        factors = (head or {}).get(workload, {}) if root == HEAD else {}
        return {"attempted": 100,
                "failed": head_failed if root == HEAD else 0,
                "metrics": {name: {"value": value * factors.get(name, 1.0),
                                   "unit": ""}
                            for name, value in VALUES.items()}}
    return run


def gate(run, capsys):
    results = perf_ab.collect(BENCHMARK, BASE, HEAD, run)
    capsys.readouterr()
    regressions = perf_ab.verdict(BENCHMARK, results)
    return regressions, capsys.readouterr().out


def test_equal_medians_pass_and_print_every_median(capsys):
    regressions, out = gate(stub(), capsys)
    assert regressions == []
    rows = [line for line in out.splitlines()
            if line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(BENCHMARK["end_to_end"]) == 16


@pytest.mark.parametrize("workload, metric, factor", [
    ("measure", "pass_s", 1.3),          # lower is better, bound 20%
    ("analyze", "items_per_s", 0.7),     # higher is better, bound 20%
    ("serve", "bytes_per_visit", 1.06),  # lower is better, bound 5%
])
def test_past_the_bound_fails_and_names_the_row(capsys, workload, metric,
                                                factor):
    regressions, out = gate(stub({workload: {metric: factor}}), capsys)
    assert len(regressions) == 1
    assert regressions[0].startswith(f"{workload} {metric}:")
    assert f"{workload:<9} {metric:<16}" in out and "WORSE" in out


def test_inside_the_bound_and_improvements_pass(capsys):
    head = {"measure": {"pass_s": 1.15, "items_per_s": 0.85},
            "guard": {"setup_s": 1.2, "bytes_per_visit": 1.04},
            "analyze": {"pass_s": 0.5, "items_per_s": 2.0},
            "serve": {"setup_s": 0.1}}
    regressions, _ = gate(stub(head), capsys)
    assert regressions == []


def test_larger_failed_share_fails(capsys):
    regressions, _ = gate(stub(head_failed=1), capsys)
    assert [line.split(":")[0] for line in regressions] == ["failed share"]


def test_one_slow_run_does_not_move_the_median(capsys):
    inner = stub()

    def run(root, workload, seed, seconds):
        result = inner(root, workload, seed, seconds)
        if root == HEAD and seed == 3:
            result["metrics"]["pass_s"]["value"] *= 3
        return result

    regressions, _ = gate(run, capsys)
    assert regressions == []


def test_pairs_share_a_seed_and_alternate_the_first_side(capsys):
    calls = []
    perf_ab.collect(BENCHMARK, BASE, HEAD, stub(calls=calls))
    assert {seconds for *_, seconds in calls} == {BENCHMARK["run_seconds"]}
    assert len(calls) == perf_ab.PAIRS * len(WORKLOADS) * 2
    for root in (BASE, HEAD):
        for workload in WORKLOADS:
            seeds = [seed for r, w, seed, _ in calls
                     if (r, w) == (root, workload)]
            assert seeds == list(range(1, perf_ab.PAIRS + 1))
    firsts = {}
    for i in range(0, len(calls), 2):
        (first, workload, seed, _), (second, workload2, seed2, _) = \
            calls[i:i + 2]
        assert (workload, seed) == (workload2, seed2)
        assert {first, second} == {BASE, HEAD}
        firsts.setdefault(seed, set()).add(first)
    assert firsts == {k + 1: {BASE if k % 2 == 0 else HEAD}
                      for k in range(perf_ab.PAIRS)}


def test_stage_puts_heads_benchmark_beside_the_checkouts_src(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "repro" / "__pycache__").mkdir(parents=True)
    (checkout / "src" / "repro" / "__init__.py").write_text("# base\n")
    root = perf_ab.stage(checkout, tmp_path / "root")
    # perfbench's children import the src/ beside their own perfbench/.
    child = (root / "perfbench" / "child.py").resolve()
    assert (child.parents[1] / "src" / "repro" / "__init__.py"
            ).read_text() == "# base\n"
    assert not (root / "src" / "repro" / "__pycache__").exists()
    for name in ("perfbench/child.py", "perfbench/run.py", "BENCHMARK.json"):
        assert (root / name).read_bytes() == \
            (perf_ab.HEAD / name).read_bytes()


def test_usage_error_without_a_base_checkout(tmp_path, capsys):
    assert perf_ab.main([]) == 2
    assert perf_ab.main([str(tmp_path / "missing")]) == 2
    assert perf_ab.main([str(tmp_path)]) == 2   # no src/
    assert "perf_ab.py BASE" in capsys.readouterr().err
