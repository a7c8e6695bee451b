"""The repository benchmark: four pipeline workloads, end to end and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload measure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Each timed pass runs in a fresh interpreter (``child.py``) with fresh
scratch directories under ``.bench_scratch/``, so memo tables start cold
every pass.  With ``--trace 0`` the last line of standard output is a
JSON object carrying every end-to-end metric, its times at the reference
speed of ``speed.py``; with ``--trace 1`` the passes alternate untraced
and traced, and it carries every per-layer metric instead.  ``--tiny``
shrinks every workload for the tests.  Output checks run outside the
timed intervals; every failed check, failed shard attempt or unexpected
HTTP response counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import serveload  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from speed import Speedometer  # noqa: E402

#: Environment switches that inject faults into the pipeline under test.
FAULT_ENV = ("REPRO_FAULT_PLAN", "REPRO_FAULT_ONCE_DIR")
#: Untraced passes per run, even when one pass outlasts ``--seconds``.
MIN_PASSES = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170


class Run:
    """One benchmark invocation: scratch space, children, the tally."""

    def __init__(self, args: argparse.Namespace, root: Path):
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        spec = WORKLOADS[args.workload]
        self.tiny = args.tiny
        self.size = spec.tiny if args.tiny else spec.full
        self.dir = (root / ".bench_scratch"
                    / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Unscaled figures, printed to standard error for the record.
        self.notes: List[str] = []

    # -- the tally ----------------------------------------------------------
    def check(self, ok: bool, problem: str) -> None:
        self.tally(1, [] if ok else [problem])

    def tally(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems)

    # -- children -----------------------------------------------------------
    def command(self, task: Dict) -> List[str]:
        return [sys.executable, str(HERE / "child.py"), json.dumps(task)]

    def child(self, task: Dict) -> Optional[Dict]:
        """Run one task in a fresh interpreter; None (counted) on failure.

        Its result carries ``elapsed_s`` (and ``setup_s`` for a pass)
        from ``spawned``, taken here, at the reference speed.
        """
        task = dict(task, spawned=monotonic())
        try:
            proc = subprocess.run(self.command(task), cwd=self.root,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(False, f"{task['kind']} timed out")
            return None
        if proc.returncode != 0:
            self.check(False, f"{task['kind']} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        retried = [f"{task['kind']}: a shard attempt failed and was retried"
                   ] * result.get("retries", 0)
        self.tally(result.get("attempts", 0) + result.get("checks", 0),
                   result.get("failed", []) + retried)
        return result

    def passes(self, task: Dict) -> List[Dict]:
        """Timed passes until ``--seconds`` is spent.

        Untraced: at least MIN_PASSES.  Traced: untraced and traced
        passes alternate, at least one of each.  Untraced passes run
        the speedometer.
        """
        results: List[Dict] = []
        began = monotonic()
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            if not traced and k >= (2 if self.trace else MIN_PASSES):
                # Start another pass (traced: another pair) only if it
                # fits in the time left, judged by the passes so far.
                spent = monotonic() - began
                if spent + spent / k * (2 if self.trace else 1) \
                        > self.seconds:
                    break
            pass_dir = self.dir / f"pass{k}"
            result = self.child(dict(task, dir=str(pass_dir), trace=traced,
                                     sample=not traced,
                                     spans=str(self.spans_path(k))))
            shutil.rmtree(pass_dir, ignore_errors=True)
            if result is not None:
                result.update(traced=traced, index=k)
                results.append(result)
            k += 1
        return results

    def spans_path(self, k: int) -> Path:
        return self.dir / f"pass{k}.spans"

    def keep_spans(self, source: Path) -> None:
        """Keep the reported traced pass's spans past the run's cleanup."""
        traces = self.root / ".bench_scratch" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        if source.exists():
            shutil.copyfile(source, traces / f"{self.workload}.spans")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _same(run: Run, results: List[Dict], key: str, what: str) -> None:
    values = {json.dumps(r[key], sort_keys=True) for r in results}
    run.check(len(values) == 1, f"{what} differ across passes")


def _note_scale(run: Run, results: Sequence[Dict]) -> None:
    """Record the passes' unscaled median and the median scale."""
    wall = median(r["wall_s"] for r in results)
    scale = median(sum(r["phase_s"]) / r["wall_s"] for r in results)
    run.notes.append(f"unscaled pass wall median {wall:.4f} s, "
                     f"median scale {scale:.4f}")


def _layers(run: Run, results: List[Dict],
            extra: Callable[[Dict], Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics from the traced pass with the median wall."""
    traced = sorted((r for r in results if r["traced"]),
                    key=lambda r: r["wall_s"])
    untraced = [r["wall_s"] for r in results if not r["traced"]]
    if not traced or not untraced:
        raise RuntimeError("no traced and untraced pass to compare")
    chosen = traced[(len(traced) - 1) // 2]
    run.keep_spans(run.spans_path(chosen["index"]))
    layers = {m.name: 0.0 for m in PER_LAYER}
    layers.update(chosen["layers"])
    layers.update(extra(chosen))
    layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                  - median(untraced))
    return layers


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def crawl_workload(run: Run) -> Dict[str, float]:
    """measure and guard: each pass crawls the population from scratch."""
    guard = run.workload == "guard"
    results = run.passes(dict(kind="crawl_pass", seed=run.seed,
                              sites=run.size.sites, shards=run.size.shards,
                              guard=guard, store=not guard,
                              analyze=not guard))
    if not results:
        raise RuntimeError("every pass failed")
    _same(run, results, "digests", "dataset digests")
    _same(run, results, "report_sha256", "report bytes")
    _same(run, results, "blocked", "cookieguard blocked counts")
    if run.trace:
        return _layers(run, results, lambda r: {
            "crawler.retained_share": r["retained"] / r["visits"],
            "storage.shard_bytes": float(r["bytes"]),
            "cookieguard.blocked_reads": float(r["blocked"][0]),
            "cookieguard.blocked_writes": float(r["blocked"][1])})
    _note_scale(run, results)
    return {
        "setup_s": median([r["setup_s"] for r in results]),
        "pass_s": median([sum(r["phase_s"]) for r in results]),
        "items_per_s": median([r["visits"] / r["phase_s"][0]
                                for r in results]),
        "bytes_per_visit": results[0]["bytes"] / results[0]["retained"],
    }


def analyze_workload(run: Run) -> Dict[str, float]:
    """analyze: a dataset crawled once; each pass analyzes a fresh copy."""
    source = run.dir / "dataset"
    data = run.child(dict(kind="dataset", dir=str(source), seed=run.seed,
                          sites=run.size.sites, shards=run.size.shards,
                          sample=True))
    if data is None:
        raise RuntimeError("dataset crawl failed")
    touch = random.Random(run.seed).randrange(run.size.shards)
    reference = run.child(dict(kind="analyze_reference",
                               dir=str(run.dir / "reference"),
                               dataset=str(source), touch=touch))
    if reference is None:
        raise RuntimeError("reference analysis failed")
    results = run.passes(dict(kind="analyze_pass", dataset=str(source),
                              touch=touch,
                              cold_sha256=reference["cold_sha256"],
                              refresh_sha256=reference["refresh_sha256"]))
    if not results:
        raise RuntimeError("every pass failed")
    if run.trace:
        return _layers(run, results, lambda r: {})
    _note_scale(run, results)
    return {
        "setup_s": data["elapsed_s"] + median([r["setup_s"]
                                                for r in results]),
        "pass_s": median([sum(r["phase_s"]) for r in results]),
        "items_per_s": median([data["retained"] / r["phase_s"][0]
                                for r in results]),
        "bytes_per_visit": data["bytes"] / data["retained"],
    }


class Host:
    """``make_server`` in a fresh interpreter, driven over stdin/stdout."""

    def __init__(self, run: Run, study: Path, traced: bool):
        self.spans = run.dir / ("serve-traced.spans" if traced
                                else "serve.spans")
        task = dict(kind="serve_host", root=str(study.parent), trace=traced,
                    spans=str(self.spans))
        self._log = open(run.dir / f"serve-host-{int(traced)}.log", "w")
        self.proc = subprocess.Popen(run.command(task), cwd=run.root,
                                     env=run.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        # A wedged host must not hang the run: kill it at the deadline.
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()
        try:
            self.port = self.read()["port"]
        except BaseException:
            self.close()
            raise

    def read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serve host exited early")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.send("quit")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            self._log.close()


def _start_host(run: Run, study: Path, traced: bool):
    """Start a host and do the cold study build plus warm-ups; returns
    (host, study build seconds)."""
    host = Host(run, study, traced)
    build_s = 0.0
    try:
        for i, report in enumerate(("summary", "prevalence?bucket=500")):
            start = perf_counter()
            status, _etag, _body = serveload.fetch(
                host.port, f"/studies/{serveload.STUDY_ID}/reports/{report}")
            if i == 0:
                build_s = perf_counter() - start
            run.check(status == 200, f"warm-up {report}: {status}")
    except BaseException:
        host.close()
        raise
    return host, build_s


def _tally_loop(run: Run, loop: serveload.LoopResult, study: Path) -> None:
    """Count every request and every sampled body comparison."""
    run.tally(len(loop.outcomes), loop.errors)
    run.tally(len(loop.samples), serveload.check_bodies(study, loop.samples))


def serve_workload(run: Run) -> Dict[str, float]:
    """serve: a dataset crawled once, served by a fresh server process.

    The client (this process) runs the speedometer from the server's
    start to the end of the untraced loop.  Client and server share one
    CPU, so the samples time the CPU the server runs on, and a sample
    that delays the server is left out of the block it delayed.  The
    loop is closed and has one client, so the two never both have work.
    Traced runs pin nothing: on one CPU a handler thread that has sent
    its response is often descheduled before its span ends, the next
    request's span overlaps it, and the self times overrun the wall.
    """
    study = run.dir / "catalog" / serveload.STUDY_ID
    data = run.child(dict(kind="dataset", dir=str(study), seed=run.seed,
                          sites=run.size.sites, shards=run.size.shards,
                          sample=True))
    if data is None:
        raise RuntimeError("dataset crawl failed")
    ranks = data["ranks"]
    if not run.trace:
        # The server process started below inherits the pinning.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = Speedometer().start()
    try:
        began = monotonic()
        host, build_s = _start_host(run, study, traced=False)
        host_setup_s = meter.scaled(began, monotonic())
        try:
            loop = serveload.run_loop(
                host.port, run.seed, ranks,
                seconds=run.seconds / 3 if run.trace else run.seconds,
                minimum=(3 * serveload.BLOCK if run.tiny
                         else serveload.P99_MIN_REQUESTS))
        finally:
            host.close()
    finally:
        meter.stop()
    _tally_loop(run, loop, study)
    outcomes = loop.outcomes
    wall = meter.net(outcomes[0].start, outcomes[-1].end)
    if not run.trace:
        windows = serveload.blocks(outcomes)
        blocks = [meter.scaled(begin, end) for begin, end in windows]
        run.notes.append(
            f"unscaled block median "
            f"{median(meter.net(b, e) for b, e in windows):.4f} s, "
            f"median scale {median(meter.scale(b, e) for b, e in windows):.4f}")
        return {
            "setup_s": data["elapsed_s"] + host_setup_s,
            "pass_s": median(blocks),
            "items_per_s": median([serveload.BLOCK / t for t in blocks]),
            "bytes_per_visit": data["bytes"] / data["retained"],
        }
    traced_host, _build = _start_host(run, study, traced=True)
    try:
        traced_host.send("trace-on")
        traced = serveload.run_loop(traced_host.port, run.seed, ranks,
                                    count=len(outcomes))
        traced_wall = traced.outcomes[-1].end - traced.outcomes[0].start
        traced_host.send(f"trace-off {traced_wall!r}")
        summary = traced_host.read()["layers"]
    finally:
        traced_host.close()
    _tally_loop(run, traced, study)
    run.keep_spans(traced_host.spans)
    layers = {m.name: 0.0 for m in PER_LAYER}
    layers.update(summary)
    layers.update(serveload.latency_summary(outcomes, meter))
    layers["serve.study_build_s"] = build_s
    layers["trace.overhead_s"] = traced_wall - wall
    return layers


RUNNERS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "measure": crawl_workload, "guard": crawl_workload,
    "analyze": analyze_workload, "serve": serve_workload,
}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def print_list() -> None:
    """Every metric by name with its unit, and the workloads."""
    print("end-to-end metrics (--trace 0; median over a run's passes; "
          "times at the reference speed of speed.py):")
    for m in END_TO_END:
        print(f"  {m.name:<18} {m.unit:<6} {m.better} is better, "
              f"bound {m.bound:.0%}: {m.meaning}")
    print("per-layer metrics (--trace 1):")
    for m in PER_LAYER:
        print(f"  {m.name:<28} {m.unit:<6} [{m.layer}] moves {m.moves}")
    print("workloads (--workload NAME --seed N):")
    for w in WORKLOADS.values():
        print(f"  {w.name:<8} {w.full.sites} sites, {w.full.shards} shards: "
              f"{w.why}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the tests)")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.list:
        print_list()
        return 0
    for name in FAULT_ENV:
        if os.environ.get(name):
            print(f"refusing to run: {name} is set, and injected faults "
                  f"would be measured as the program's speed",
                  file=sys.stderr)
            return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("no repro source tree at ./src/repro: run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run = Run(args, root)
    run.dir.mkdir(parents=True)
    try:
        values = RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for note in run.notes:
        print(note, file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {m.name: m.unit for m in (END_TO_END if not run.trace
                                      else PER_LAYER)}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
