#!/usr/bin/env python3
"""Perf gate: the repository benchmark on a base checkout and on this one.

Usage::

    python3 scripts/perf_ab.py BASE

BASE is a checkout of the commit to compare against; head is the
checkout this script lives in.  Both sides run head's benchmark, so
they share its code and settings and differ only in the program under
test: each side runs from a root of its own in a temporary directory,
holding copies of head's ``perfbench/`` and ``BENCHMARK.json`` next to
a copy of the side's ``src/``.  They run on one machine, in pairs that
share a seed and alternate which side goes first.  Workloads,
``run_seconds``, metric names, directions and bounds all come from
head's ``BENCHMARK.json``.

The gate fails when, on any workload, head's median of an end-to-end
metric is worse than base's by more than the metric's bound, or when
head's share of failed operations is larger than base's.  It exits 0
on a pass, 1 on a regression, and 2 when a perfbench run exits
non-zero (its standard error is shown; such a run is never read as a
result).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List

HEAD = Path(__file__).resolve().parent.parent

#: Runs per side and workload.  The median of five shrugs off two bad
#: runs on either side, and five pairs of all four workloads take about
#: 13 minutes on a 2-vCPU machine, inside the CI job's 30.
PAIRS = 5

#: ``run(root, workload, seed, seconds)``: one perfbench result object.
Runner = Callable[[Path, str, int, float], Dict]


class RunFailed(Exception):
    """A perfbench run exited non-zero."""


def load_benchmark() -> Dict:
    return json.loads((HEAD / "BENCHMARK.json").read_text(encoding="utf-8"))


def stage(checkout: Path, root: Path) -> Path:
    """Make ``root`` run head's benchmark over ``checkout``'s program.

    perfbench's child processes import the ``src/`` beside their own
    ``perfbench/``, whatever directory they start in, so running head's
    ``perfbench/run.py`` from the base checkout would time head's code
    on both sides.  Bytecode caches are left behind, so both sides
    start equally cold.
    """
    no_cache = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HEAD / "perfbench", root / "perfbench", ignore=no_cache)
    shutil.copy2(HEAD / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(checkout / "src", root / "src", ignore=no_cache)
    return root


def run_perfbench(root: Path, workload: str, seed: int,
                  seconds: float) -> Dict:
    """One untraced run of the benchmark staged at ``root``."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"perfbench {workload} seed {seed} in {root} exited "
                        f"{proc.returncode}:\n{proc.stderr.rstrip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(benchmark: Dict, base: Path, head: Path,
            run: Runner = run_perfbench) -> Dict[str, Dict[str, List[Dict]]]:
    """Every workload on both sides, PAIRS times: results[side][workload].

    Pair ``k`` runs both sides on seed ``k + 1``; base goes first in
    even pairs and head in odd ones.
    """
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    roots = {"base": base, "head": head}
    results: Dict[str, Dict[str, List[Dict]]] = {
        side: {name: [] for name in names} for side in roots}
    total = PAIRS * len(names) * len(roots)
    done = 0
    for k in range(PAIRS):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for name in names:
            for side in order:
                result = run(roots[side], name, k + 1, seconds)
                results[side][name].append(result)
                done += 1
                metrics = " ".join(f"{metric}={value['value']:.5g}"
                                   for metric, value
                                   in result["metrics"].items())
                print(f"[{done}/{total}] seed {k + 1} {side} {name}: "
                      f"{metrics} failed={result['failed']}/"
                      f"{result['attempted']}", flush=True)
    return results


def failed_share(runs: Dict[str, List[Dict]]) -> float:
    results = [r for rs in runs.values() for r in rs]
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def verdict(benchmark: Dict, results: Dict[str, Dict[str, List[Dict]]]
            ) -> List[str]:
    """Print the table of medians; return one line per regression."""
    regressions: List[str] = []
    print(f"{'workload':<9} {'metric':<16} {'base':>10} {'head':>10} "
          f"{'change':>8} {'bound':>6}")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            base, head = (median(r["metrics"][metric["name"]]["value"]
                                 for r in results[side][name])
                          for side in ("base", "head"))
            change = head / base - 1
            worse = change if metric["better"] == "lower" else -change
            flag = "WORSE" if worse > metric["bound"] else "ok"
            print(f"{name:<9} {metric['name']:<16} {base:>10.5g} "
                  f"{head:>10.5g} {change:>+8.1%} {metric['bound']:>6.0%} "
                  f"{flag}")
            if flag == "WORSE":
                regressions.append(
                    f"{name} {metric['name']}: head median {head:.5g} vs "
                    f"base {base:.5g} ({change:+.1%}; {metric['better']} is "
                    f"better, bound {metric['bound']:.0%})")
    shares = {side: failed_share(results[side]) for side in results}
    print(f"failed share: base {shares['base']:.4%}, "
          f"head {shares['head']:.4%}")
    if shares["head"] > shares["base"]:
        regressions.append(f"failed share: head {shares['head']:.4%} vs "
                           f"base {shares['base']:.4%}")
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src").is_dir():
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        base = stage(Path(argv[0]), Path(scratch) / "base")
        head = stage(HEAD, Path(scratch) / "head")
        try:
            results = collect(benchmark, base, head)
        except RunFailed as exc:
            print(f"perf gate aborted: {exc}", file=sys.stderr)
            return 2
    regressions = verdict(benchmark, results)
    for line in regressions:
        print(f"REGRESSION {line}")
    print("perf gate failed" if regressions else "perf gate passed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
