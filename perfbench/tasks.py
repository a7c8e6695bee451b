"""The work one fresh interpreter does: a dataset crawl, a timed pass,
the reference analyses, or hosting the study server.

``child.py`` runs exactly one task per interpreter, so the process-wide
memo tables (PSL and URL LRUs, analysis memos, ``default_combined_list``)
start cold in every pass, as they do for a CLI user.  Importing this
module is part of each pass's set-up time.

Layer functions are called through their modules (``columnar.
iter_shard_batches``), never through names bound here, so the traced
run's patches reach them.

Every task takes the task description and the interpreter's
:class:`speed.Speedometer` (running in untraced passes, idle otherwise)
and returns a JSON-able dict.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import threading
from pathlib import Path
from time import monotonic
from typing import Dict, List, Optional, Tuple

from repro.analysis import columnar, snapshot
from repro.analysis.reports import Study, StudyAccumulator
from repro.crawler import storage
from repro.crawler.crawler import CrawlConfig
from repro.crawler.distributed import (Coordinator, InProcessBackend,
                                       ShardStore)
from repro.ecosystem import population as population_mod
from repro.serve import app

from spec import POPULATION_SEED
from speed import Speedometer
from tracer import Tracer


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Timed:
    """The timed interval of a pass, possibly in several phases.

    Tracing, when on, records only inside a phase; checks and untimed
    steps between phases leave no spans.  ``wall`` is the phases' wall
    time less the speedometer's sampling; :meth:`scaled` gives each
    phase at the reference speed (see ``speed.py``).
    """

    def __init__(self, tracer: Optional[Tracer], meter: Speedometer):
        self.tracer = tracer
        self.meter = meter
        self.phases: List[Tuple[float, float]] = []
        self._start = 0.0

    def __enter__(self) -> "Timed":
        if self.tracer is not None:
            self.tracer.active = True
        self._start = monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.phases.append((self._start, monotonic()))
        if self.tracer is not None:
            self.tracer.active = False

    @property
    def wall(self) -> float:
        return sum(self.meter.net(begin, end) for begin, end in self.phases)

    def scaled(self) -> List[float]:
        return [self.meter.scaled(begin, end) for begin, end in self.phases]


def _tracer(task: Dict) -> Optional[Tracer]:
    if not task.get("trace"):
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(task: Dict, out: Dict, timed: Timed) -> Dict:
    """Attach the timed wall and the scaled phases and, when traced,
    write the spans and attach their summary."""
    out["wall_s"] = timed.wall
    out["phase_s"] = timed.scaled()
    if timed.tracer is not None:
        timed.tracer.write(Path(task["spans"]))
        out["layers"] = timed.tracer.summary(timed.wall)
    return out


def _dataset_facts(directory: Path) -> Dict:
    manifest = storage.ShardManifest.load(directory)
    return {"digests": list(manifest.digests), "retained": manifest.total,
            "bytes": sum((directory / name).stat().st_size
                         for name in manifest.files)}


def _collect_guards() -> List:
    """Keep every ``CookieGuardExtension`` made from now on, so a pass can
    read their blocked counters afterwards.

    The crawler makes one guard per visit, deep inside the coordinator's
    shard execution, and drops it.  This one hook adds a list append per
    visit; it is the only patch an untraced pass carries.
    """
    from repro.cookieguard.guard import CookieGuardExtension
    guards: List = []
    init = CookieGuardExtension.__init__

    def collecting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        guards.append(self)

    CookieGuardExtension.__init__ = collecting
    return guards


def _crawl(directory: Path, seed: int, sites: int, shards: int, *,
           guard: bool, store: Optional[Path]):
    population = population_mod.generate_population(
        population_mod.PopulationConfig(n_sites=sites, seed=POPULATION_SEED))
    coordinator = Coordinator(
        population, CrawlConfig(seed=seed, install_guard=guard),
        backend=InProcessBackend(),
        store=ShardStore(store) if store is not None else None,
        compress=True)
    return coordinator.run(directory, n_shards=shards)


def _plain_report(directory: Path) -> bytes:
    """``repro analyze DATASET`` without a snapshot: the reference path."""
    acc = StudyAccumulator()
    for batch in columnar.iter_shard_batches(directory):
        acc.add_shard_batch(batch)
    return Study.from_accumulator(acc).report_bytes()


def _verify(directory: Path, checks: List[str]) -> None:
    try:
        storage.verify_shard_files(directory)
    except storage.ManifestError as exc:
        checks.append(f"verify_shard_files: {exc}")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def crawl_pass(task: Dict, meter: Speedometer) -> Dict:
    """measure / guard: population -> verified manifest [-> report]."""
    root = Path(task["dir"])
    out_dir = root / "out"
    tracer = _tracer(task)
    guards = _collect_guards() if task["guard"] else []
    ready = monotonic()
    timed = Timed(tracer, meter)
    with timed:
        report = _crawl(out_dir, task["seed"], task["sites"],
                        task["shards"], guard=task["guard"],
                        store=root / "store" if task["store"] else None)
    report_bytes = b""
    if task["analyze"]:
        with timed:
            report_bytes = _plain_report(out_dir)
    failed: List[str] = []
    _verify(out_dir, failed)
    if report.visits_executed != task["sites"]:
        failed.append(f"executed {report.visits_executed} visits, "
                      f"expected {task['sites']}")
    out = dict(_dataset_facts(out_dir), ready=ready,
               visits=report.visits_executed, retries=report.retries,
               attempts=task["shards"] + report.retries, checks=2,
               failed=failed, report_sha256=_sha(report_bytes),
               blocked=[sum(g.blocked_reads for g in guards),
                        sum(g.blocked_writes for g in guards)])
    return _finish(task, out, timed)


def dataset(task: Dict, meter: Speedometer) -> Dict:
    """Set-up for analyze and serve: crawl the dataset once."""
    directory = Path(task["dir"])
    report = _crawl(directory, task["seed"], task["sites"], task["shards"],
                    guard=False, store=None)
    failed: List[str] = []
    _verify(directory, failed)
    manifest = storage.ShardManifest.load(directory)
    ranks = []
    for name in manifest.files:
        index = storage.load_shard_index(directory, name)
        ranks.extend(index.ranks if index is not None else ())
    if len(ranks) != manifest.total:
        failed.append(f"sidecar indexes list {len(ranks)} ranks, "
                      f"manifest says {manifest.total}")
    return dict(_dataset_facts(directory), ranks=ranks,
                attempts=task["shards"] + report.retries, checks=2,
                failed=failed)


def touch_shard(directory: Path, index: int) -> None:
    """Rewrite shard ``index`` without its last visit and republish the
    manifest: the smallest realistic dataset-version bump."""
    manifest = storage.ShardManifest.load(directory)
    logs = storage.load_shard(directory, index)[:-1]
    written = storage.write_shard(logs, directory, index,
                                  compress=manifest.compress)
    counts = list(manifest.counts)
    digests = list(manifest.digests)
    counts[index] = written.count
    digests[index] = written.sha256
    storage.ShardManifest(
        n_shards=manifest.n_shards, total=sum(counts),
        compress=manifest.compress, files=manifest.files,
        counts=tuple(counts), digests=tuple(digests)).save(directory)


def analyze_reference(task: Dict, meter: Speedometer) -> Dict:
    """Report digests a pass must reproduce: the plain analysis of the
    dataset, and of the dataset after the refresh's shard rewrite."""
    directory = Path(task["dir"])
    shutil.copytree(task["dataset"], directory)
    cold = _sha(_plain_report(directory))
    touch_shard(directory, task["touch"])
    return {"cold_sha256": cold,
            "refresh_sha256": _sha(_plain_report(directory))}


def analyze_pass(task: Dict, meter: Speedometer) -> Dict:
    """Cold ``analyze --snapshot``, then a one-shard ``--resume``."""
    root = Path(task["dir"])
    directory = root / "dataset"
    shutil.copytree(task["dataset"], directory)
    snapshot_path = root / "study.snapshot.json"
    tracer = _tracer(task)
    ready = monotonic()
    timed = Timed(tracer, meter)
    with timed:
        cold = snapshot.refresh_study(None, directory)
        snapshot.save_snapshot(cold.snapshot, snapshot_path)
        cold_bytes = cold.snapshot.study().report_bytes()
    failed: List[str] = []
    _verify(directory, failed)
    touch_shard(directory, task["touch"])
    with timed:
        old = snapshot.load_snapshot(snapshot_path)
        warm = snapshot.refresh_study(old, directory)
        snapshot.save_snapshot(warm.snapshot, snapshot_path)
        warm_bytes = warm.snapshot.study().report_bytes()
    if _sha(cold_bytes) != task["cold_sha256"]:
        failed.append("snapshot-path report differs from the plain "
                      "iter_shard_batches report")
    if _sha(warm_bytes) != task["refresh_sha256"]:
        failed.append("refreshed report differs from a from-scratch "
                      "analysis of the rewritten dataset")
    if len(warm.reingested) != 1:
        failed.append(f"refresh re-ingested {len(warm.reingested)} shards, "
                      f"expected 1")
    out = dict(ready=ready, checks=4, failed=failed)
    return _finish(task, out, timed)


def serve_host(task: Dict, meter: Speedometer) -> Dict:
    """Host ``make_server`` until stdin says ``quit``.

    Prints ``{"port": N}`` once listening.  ``trace-on`` starts span
    recording; ``trace-off WALL`` stops it, writes the spans and prints
    their summary against the client-measured loop wall.
    """
    tracer = _tracer(task)
    server = app.make_server(task["root"], "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "trace-on" and tracer is not None:
                tracer.active = True
            elif command == "trace-off" and tracer is not None:
                tracer.active = False
                tracer.write(Path(task["spans"]))
                print(json.dumps({"layers": tracer.summary(float(arg))}),
                      flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    return {}


TASKS = {"crawl_pass": crawl_pass, "dataset": dataset,
         "analyze_reference": analyze_reference,
         "analyze_pass": analyze_pass, "serve_host": serve_host}
