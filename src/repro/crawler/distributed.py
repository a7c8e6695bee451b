"""Distributed crawl coordination (ROADMAP rungs 3–4).

A crawl is an unordered set of idempotent shard artifacts: every visit
is seeded ``[seed, site.rank]``, shard files are deterministic bytes
(zeroed gzip headers), and the manifest pins each shard with a SHA-256.
This module turns that contract into a coordinator/worker system:

* :class:`WorkQueue` — a durable append-only journal (``queue.jsonl``)
  of :class:`ShardTask` state transitions.  A crashed coordinator (or a
  lost worker lease) is recovered by replaying the journal: tasks that
  leased but never completed simply become pending again, and tasks
  recorded done are re-verified against their recorded digest.
* :class:`WorkerBackend` — pluggable shard executors.
  :class:`InProcessBackend` runs shards in the coordinator process,
  :class:`ProcessPoolBackend` fans them over a local multiprocessing
  pool, and :class:`SubprocessBackend` execs
  ``python -m repro crawl-shard <workspec.json> <index>`` per shard —
  the worker protocol a remote machine would speak: regenerate the
  population from the spec, crawl the shard's ranks, write the shard
  file, print one JSON result line ``{"index", "file", "count",
  "sha256"}`` on stdout.
* :class:`Coordinator` — drives the queue to completion: resolves cache
  hits, dispatches pending tasks, retries failed/lost/crashed shards up
  to ``max_retries`` times (verifying that a retried shard's bytes hash
  to any previously recorded digest — a divergence means the
  determinism contract broke and is an error, never silently accepted),
  then assembles, saves, and verifies the final
  :class:`~repro.crawler.storage.ShardManifest`.
* :class:`ShardStore` — a content-addressed shard cache keyed by
  ``sha256(population fingerprint, config fingerprint, shard ranks,
  compress)``.  Population fingerprint covers every
  :class:`~repro.ecosystem.population.PopulationConfig` lever; config
  fingerprint is :func:`~repro.crawler.crawler.config_fingerprint`
  (everything output-affecting, including the cookie-guard policy).
  The shard's index, worker count and backend choice are pure
  scheduling and never enter the key, so a warm cache survives any
  ``--jobs``/``--backend`` change while a seed or policy change
  re-crawls.  Stale entries (bytes that no longer hash to the
  recorded digest) are evicted and treated as a miss.

Fault injection: the runtime declares :mod:`repro.faults` injection
points — ``worker.exec`` in :func:`run_shard_worker` (crash/hang),
``journal.append`` in :meth:`WorkQueue._append` (torn record) — so a
seeded :class:`~repro.faults.FaultPlan` can drive reproducible chaos
schedules (the chaos matrix in ``tests/test_faults.py`` and the
``chaos-smoke`` CI job).

Resilience: ``SubprocessBackend(task_timeout=...)`` arms a lease
deadline — a worker whose deadline passes is killed (its log is
preserved and named in the outcome) and the task is re-pended under
the same digest-checked retry invariant; the in-process and pool
backends cannot stop a shard mid-run, so :func:`make_backend` refuses
a timeout for them.  A :class:`ShardStore`
constructed with ``overflow_dir`` degrades gracefully when its backend
is unreachable: fetches become misses, puts spill to the local
overflow directory, and :meth:`ShardStore.reconcile_overflow` uploads
the spill once the store answers again — a flaky shared store costs
warnings and re-crawls, never a failed run or wrong bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..ecosystem.population import (POPULATION_VERSION, Population,
                                    PopulationConfig)
from ..faults import InjectedFault, maybe_fire
from .crawler import CrawlConfig, Crawler, config_fingerprint
from .parallel import CrawlProgress, ShardPlan
from .storage import (ManifestError, SHARD_FORMAT_VERSION,
                      ShardManifest, ShardWriteResult, compute_digest,
                      shard_filename, verify_shard_files, write_shard)
from .storebackends import (META_NAME, HTTPStoreBackend, InMemoryBackend,
                            LocalDirectoryBackend, ShardStoreBackend,
                            StoreBackendError)

__all__ = [
    "CoordinationError",
    "Coordinator",
    "CrawlReport",
    "HTTPStoreBackend",
    "InMemoryBackend",
    "InProcessBackend",
    "LocalDirectoryBackend",
    "ProcessPoolBackend",
    "ShardKeyFactory",
    "ShardOutcome",
    "ShardStore",
    "ShardStoreBackend",
    "ShardTask",
    "StoreBackendError",
    "SubprocessBackend",
    "WorkQueue",
    "WorkSpec",
    "WorkerBackend",
    "decode_ranks",
    "encode_ranks",
    "make_backend",
    "population_fingerprint",
    "run_shard_worker",
]

QUEUE_NAME = "queue.jsonl"
WORKSPEC_NAME = "workspec.json"
#: Version 2: shard files switched to compact JSON separators (PR 5),
#: so digests recorded by version-1 journals can never be reproduced by
#: a retry — loading such a queue must refuse up front rather than
#: fail later with a misleading "determinism contract broken" error.
#: Version 3: population synthesis moved to per-rank RNG streams
#: (``POPULATION_VERSION`` 2), changing site — and therefore shard —
#: bytes, and task/spec rank lists gained a compact range encoding.
#: Version 4: shards became columnar row groups (``SHARD_FORMAT_VERSION``
#: 3), so no retry can reproduce a version-3 journal's digests.
QUEUE_VERSION = 4

# Task states (journal values, also in-memory).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"


class CoordinationError(RuntimeError):
    """The distributed crawl cannot make progress or broke its contract."""


# ---------------------------------------------------------------------------
# Fingerprints and cache keys
# ---------------------------------------------------------------------------

def population_fingerprint(population: Union[Population,
                                             PopulationConfig]) -> str:
    """Stable SHA-256 over every population calibration lever.

    The population is a pure function of its :class:`PopulationConfig`
    (``generate_population`` is deterministic), so hashing the config
    identifies the site/service ecosystem exactly.
    """
    config = (population.config if isinstance(population, Population)
              else population)
    payload = dataclasses.asdict(config)
    # The synthesis algorithm is an input too: POPULATION_VERSION 2
    # (per-rank RNG streams) produces different sites from the same
    # config than version 1 did, so cached shards keyed under the old
    # algorithm must miss rather than serve stale bytes.
    payload["synthesis"] = POPULATION_VERSION
    blob = json.dumps(payload, sort_keys=True, default=list).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ShardKeyFactory:
    """Precomputed shard-key maker for one (population, config, compress).

    The cache key hashes a canonical JSON payload.  Within one plan only
    the ranks vary shard to shard, so the factory serializes the fixed
    fields once into a prefix and completes each key with the ranks
    list — divide-and-conquer precomputation instead of rebuilding and
    re-sorting the whole payload per shard.  Keys are byte-identical to
    :func:`_shard_key` (locked in by the equivalence tests).

    The payload includes :data:`~repro.crawler.storage.
    SHARD_FORMAT_VERSION`: shard bytes are a function of the serializer
    too, so entries written by an older serializer miss (and re-crawl)
    rather than smuggling old-format bytes — and their unreproducible
    digests — into a newer run's journal and manifest.
    """

    def __init__(self, population_fp: str, config_fp: str, compress: bool):
        self.population_fp = population_fp
        self.config_fp = config_fp
        self.compress = bool(compress)
        # json.dumps(payload, sort_keys=True) orders the keys
        # compress < config < format < population < ranks; everything
        # up to the ranks value is constant across the plan.
        self._prefix = (
            f'{{"compress": {json.dumps(self.compress)}, '
            f'"config": {json.dumps(config_fp)}, '
            f'"format": {SHARD_FORMAT_VERSION}, '
            f'"population": {json.dumps(population_fp)}, '
            f'"ranks": '
        )

    def key_for(self, ranks: Sequence[int]) -> str:
        blob = (self._prefix + json.dumps(list(ranks)) + "}").encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _shard_key(population_fp: str, config_fp: str, ranks: Sequence[int],
               compress: bool) -> str:
    payload = {
        "population": population_fp,
        "config": config_fp,
        "format": SHARD_FORMAT_VERSION,
        "ranks": list(ranks),
        "compress": bool(compress),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Compact rank encoding (spec + journal)
# ---------------------------------------------------------------------------

def encode_ranks(ranks: Sequence[int]) -> Union[Dict, List[int]]:
    """JSON form of a shard's ranks, compact for arithmetic progressions.

    Plans over whole populations carry ranges (contiguous runs or
    strides), which encode as ``{"start", "stop", "step"}`` — a 1M-site
    plan's workspec and journal stay O(shards) bytes instead of
    O(sites).  Arbitrary rank tuples are detected too (any arithmetic
    progression normalizes to the same encoding regardless of the
    sequence type); irregular rank sets fall back to an explicit list.
    Cache keys are NOT affected: they always serialize the explicit
    rank list (see :class:`ShardKeyFactory`).
    """
    seq: Optional[range] = None
    if isinstance(ranks, range):
        seq = ranks
    else:
        n = len(ranks)
        if n == 0:
            seq = range(0)
        elif n == 1:
            seq = range(ranks[0], ranks[0] + 1)
        else:
            step = ranks[1] - ranks[0]
            if step > 0 and all(ranks[i + 1] - ranks[i] == step
                                for i in range(n - 1)):
                seq = range(ranks[0], ranks[-1] + step, step)
    if seq is not None:
        return {"start": seq.start, "stop": seq.stop, "step": seq.step}
    return [int(r) for r in ranks]


def decode_ranks(data: Union[Dict, List]) -> Sequence[int]:
    """Inverse of :func:`encode_ranks`: a range or an int tuple."""
    if isinstance(data, dict):
        return range(int(data["start"]), int(data["stop"]),
                     int(data["step"]))
    return tuple(int(r) for r in data)


# ---------------------------------------------------------------------------
# The work spec (worker protocol input)
# ---------------------------------------------------------------------------

def _config_to_dict(config: CrawlConfig) -> Dict:
    """JSON form of a :class:`CrawlConfig` for the worker protocol.

    A ``guard_policy`` carrying an ``entity_of`` callable cannot cross a
    process boundary; the in-process backends keep the live object, so
    only the subprocess worker path hits this limit.
    """
    policy = config.guard_policy
    policy_desc = None
    if policy is not None:
        if policy.entity_of is not None:
            raise CoordinationError(
                "guard policies with an entity_of callable are not "
                "serializable for subprocess workers; use an in-process "
                "backend")
        policy_desc = {"inline_mode": policy.inline_mode.name,
                       "owner_full_access": bool(policy.owner_full_access)}
    return {
        "seed": config.seed,
        "interact": config.interact,
        "max_clicks": config.max_clicks,
        "install_guard": config.install_guard,
        "guard_policy": policy_desc,
        "guard_uncloak_dns": config.guard_uncloak_dns,
    }


def _config_from_dict(data: Dict) -> CrawlConfig:
    policy = None
    if data.get("guard_policy") is not None:
        from ..cookieguard.policy import InlineMode, PolicyConfig
        desc = data["guard_policy"]
        policy = PolicyConfig(
            inline_mode=InlineMode[desc["inline_mode"]],
            owner_full_access=bool(desc["owner_full_access"]))
    return CrawlConfig(
        seed=int(data["seed"]),
        interact=bool(data["interact"]),
        max_clicks=int(data["max_clicks"]),
        install_guard=bool(data["install_guard"]),
        guard_policy=policy,
        guard_uncloak_dns=bool(data["guard_uncloak_dns"]),
    )


def _population_config_from_dict(data: Dict) -> PopulationConfig:
    kwargs = {}
    for f in dataclasses.fields(PopulationConfig):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return PopulationConfig(**kwargs)


@dataclass(frozen=True)
class WorkSpec:
    """Everything a (possibly remote) worker needs to execute a shard.

    Serialized as ``workspec.json`` next to the queue; the worker
    regenerates the population from the spec, so the only shared state
    between coordinator and worker is this file and the shard output.
    """

    population: Dict          # PopulationConfig as a JSON dict
    config: Dict              # CrawlConfig as a JSON dict
    shards: Tuple[Sequence[int], ...]     # ranks per shard index
    #: Fingerprints of the population and config, so workers (and
    #: anything that keys the shard cache from a spec) never re-hash
    #: the population/config payloads.
    population_fp: str
    config_fp: str
    compress: bool = False

    @classmethod
    def build(cls, population: Population, config: CrawlConfig,
              plan: ShardPlan, compress: bool) -> "WorkSpec":
        return cls(
            population=json.loads(json.dumps(
                dataclasses.asdict(population.config), default=list)),
            config=_config_to_dict(config),
            shards=tuple(shard.ranks if isinstance(shard.ranks, range)
                         else tuple(shard.ranks) for shard in plan),
            compress=compress,
            population_fp=population_fingerprint(population),
            config_fp=config_fingerprint(config),
        )

    def key_factory(self) -> ShardKeyFactory:
        """Shard-cache keys for this spec's plan, from the fingerprints
        the spec carries."""
        return ShardKeyFactory(self.population_fp, self.config_fp,
                               self.compress)

    def to_dict(self) -> Dict:
        return {
            "version": QUEUE_VERSION,
            "population": self.population,
            "config": self.config,
            "shards": [encode_ranks(ranks) for ranks in self.shards],
            "compress": self.compress,
            "population_fp": self.population_fp,
            "config_fp": self.config_fp,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkSpec":
        """Refuses a spec of another ``QUEUE_VERSION``: its shard bytes
        are not what this build's worker writes for it."""
        try:
            version = int(data["version"])
            if version != QUEUE_VERSION:
                raise CoordinationError(
                    f"unsupported workspec version {version} "
                    f"(expected {QUEUE_VERSION}; shard bytes from other "
                    f"versions are not reproducible — run the "
                    f"coordinator and its workers from one build)")
            return cls(
                population=dict(data["population"]),
                config=dict(data["config"]),
                shards=tuple(decode_ranks(ranks)
                             for ranks in data["shards"]),
                compress=bool(data["compress"]),
                population_fp=str(data["population_fp"]),
                config_fp=str(data["config_fp"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CoordinationError(f"malformed workspec: {exc}") from exc

    def save(self, directory: Union[str, Path]) -> Path:
        path = Path(directory) / WORKSPEC_NAME
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CoordinationError(
                f"unreadable workspec {path}: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Tasks and the durable queue
# ---------------------------------------------------------------------------

@dataclass
class ShardTask:
    """One shard's lifecycle in the work-queue."""

    index: int
    ranks: Sequence[int]      # range for whole-population plans
    state: str = PENDING
    attempts: int = 0         # leases so far (1 = first execution)
    file: Optional[str] = None
    count: int = 0
    sha256: Optional[str] = None
    source: Optional[str] = None      # "crawl" | "cache" once done
    error: Optional[str] = None
    #: Digest a retry must reproduce (from a prior attempt/journal).
    expected_sha256: Optional[str] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What a backend reports for one executed shard task."""

    index: int
    ok: bool
    file: Optional[str] = None
    count: int = 0
    sha256: Optional[str] = None
    error: Optional[str] = None


def _apply(tasks: Dict[int, ShardTask], record: Dict) -> None:
    """Apply one ``task``, ``lease``, ``done`` or ``fail`` record.

    This is the only code that says what a journal event does to a
    :class:`ShardTask`: :meth:`WorkQueue.load` folds it over the
    replayed records, and :meth:`WorkQueue.lease`/``done``/``fail``
    append their record and then apply it.  A malformed record raises
    ``KeyError``, ``TypeError`` or ``ValueError``; an unknown event
    raises :class:`CoordinationError`.
    """
    event = record["event"]
    if event == "task":
        index = int(record["index"])
        tasks[index] = ShardTask(index=index,
                                 ranks=decode_ranks(record["ranks"]))
        return
    if event not in ("lease", "done", "fail"):
        raise CoordinationError(f"unknown event {event!r}")
    task = tasks[int(record["index"])]
    if event == "lease":
        task.state = LEASED
        task.attempts = int(record["attempt"])
        task.error = None
        if task.sha256:
            # A re-lease after a recorded completion: the retry must
            # reproduce those exact bytes, even if the coordinator
            # crashes before the outcome.
            task.expected_sha256 = task.sha256
    elif event == "done":
        task.state = DONE
        task.file = str(record["file"])
        task.count = int(record["count"])
        task.sha256 = str(record["sha256"])
        task.source = str(record["source"])
        task.error = None
    else:
        task.state = FAILED
        task.error = str(record.get("error") or "unknown")


class WorkQueue:
    """Durable shard work-queue: an append-only ``queue.jsonl`` journal.

    The plan header (a ``plan`` record and one ``task`` record per
    shard) is published whole, and every later state transition is one
    JSON line, flushed immediately, so the queue survives a coordinator
    crash at any point.  Loading replays the journal; a task whose last
    event is a ``lease`` (worker lost mid-flight) comes back as pending
    with its attempt count intact, and a ``done`` task keeps its digest
    so re-verification and idempotent retry are possible.
    """

    def __init__(self, path: Path, run_key: str,
                 tasks: Dict[int, ShardTask]):
        self.path = Path(path)
        self.run_key = run_key
        self.tasks = tasks

    # -- construction ------------------------------------------------------
    @classmethod
    def create(cls, path: Union[str, Path], plan: ShardPlan,
               run_key: str) -> "WorkQueue":
        """Write the plan header atomically (temp file, fsync,
        ``os.replace``, as :meth:`ShardManifest.save` does): a crash
        mid-write leaves no ``queue.jsonl``, so the next run starts
        over instead of refusing a header it cannot read."""
        path = Path(path)
        tasks: Dict[int, ShardTask] = {}
        records = [{"event": "plan", "version": QUEUE_VERSION,
                    "run_key": run_key, "n_shards": plan.n_shards}]
        records += [{"event": "task", "index": shard.index,
                     "ranks": encode_ranks(shard.ranks)} for shard in plan]
        for record in records[1:]:
            _apply(tasks, record)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(record, sort_keys=True) + "\n"
                                 for record in records))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return cls(path, run_key, tasks)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkQueue":
        path = Path(path)
        tasks: Dict[int, ShardTask] = {}
        run_key: Optional[str] = None
        n_shards = 0
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise CoordinationError(f"unreadable queue {path}: {exc}") from exc
        last_content = max((i for i, text in enumerate(lines, 1)
                            if text.strip()), default=0)
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == last_content:
                    # A crash mid-append leaves exactly one torn line,
                    # and only at the tail.  Drop it: whatever lease or
                    # completion it recorded is replayed as lost work,
                    # which idempotent shard re-execution makes safe.
                    # Torn bytes anywhere *before* the tail cannot come
                    # from an append crash and stay a hard error below.
                    warnings.warn(
                        f"queue {path}: dropping torn final line "
                        f"{lineno} ({exc}); its event is replayed as "
                        f"lost work", RuntimeWarning, stacklevel=2)
                    break
                raise CoordinationError(
                    f"corrupt queue {path} line {lineno}: {exc}") from exc
            try:
                if record["event"] != "plan":
                    _apply(tasks, record)
                    continue
                if int(record["version"]) != QUEUE_VERSION:
                    raise CoordinationError(
                        f"unsupported queue version {record['version']} "
                        f"(expected {QUEUE_VERSION}; shard bytes from "
                        f"older versions are not reproducible — "
                        f"re-crawl into a fresh directory)")
                run_key = str(record["run_key"])
                n_shards = int(record["n_shards"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CoordinationError(
                    f"corrupt queue {path} line {lineno}: {exc}") from exc
        if run_key is None or len(tasks) != n_shards:
            raise CoordinationError(
                f"queue {path} is missing its plan header or tasks")
        # A lease with no matching done/fail is a lost worker: the shard
        # goes back to pending (idempotent re-execution is safe).
        for task in tasks.values():
            if task.state == LEASED:
                task.state = PENDING
        return cls(path, run_key, tasks)

    # -- journal appends ---------------------------------------------------
    def _append(self, record: Dict) -> None:
        # flush + fsync on every append: a recorded done/fail must be on
        # stable storage before the coordinator acts on it, or an OS
        # crash could reorder a completion record after the shard file
        # it describes and break the digest-checked retry invariant.
        line = json.dumps(record, sort_keys=True) + "\n"
        point = maybe_fire("journal.append")
        with open(self.path, "a", encoding="utf-8") as handle:
            if point is not None and point.kind == "torn":
                # Simulate a crash mid-append: half the record reaches
                # stable storage, then the process "dies".  load()'s
                # torn-tail tolerance must replay this as lost work.
                handle.write(line[:max(len(line) // 2, 1)])
                handle.flush()
                os.fsync(handle.fileno())
                raise InjectedFault(
                    f"torn journal append at {self.path}")
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        _apply(self.tasks, record)

    def lease(self, task: ShardTask, worker: str) -> None:
        self._append({"event": "lease", "index": task.index,
                      "attempt": task.attempts + 1, "worker": worker})

    def done(self, task: ShardTask, *, file: str, count: int, sha256: str,
             source: str) -> None:
        self._append({"event": "done", "index": task.index, "file": file,
                      "count": count, "sha256": sha256, "source": source})

    def fail(self, task: ShardTask, error: str) -> None:
        self._append({"event": "fail", "index": task.index,
                      "attempt": task.attempts, "error": error})

    # -- views -------------------------------------------------------------
    def in_order(self) -> List[ShardTask]:
        return [self.tasks[index] for index in sorted(self.tasks)]

    def unfinished(self) -> List[ShardTask]:
        return [task for task in self.in_order() if task.state != DONE]


# ---------------------------------------------------------------------------
# Shard execution (shared by every backend and the CLI worker)
# ---------------------------------------------------------------------------

def _execute_shard(population: Population, config: CrawlConfig,
                   task_ranks: Sequence[int], index: int,
                   out_dir: Union[str, Path],
                   compress: bool) -> ShardWriteResult:
    """Crawl one shard's ranks and stream them to its shard file.

    Sites synthesize per rank — a worker executing one shard of a
    million-site plan allocates O(shard) site specs, never the
    population (``tests/test_lazy_population.py`` pins the memory
    budget with tracemalloc).
    """
    crawler = Crawler(population, config)
    sites = list(population.iter_sites(task_ranks))
    stream = crawler.icrawl(sites)
    return write_shard(stream, out_dir, index, compress=compress)


def _run_task(population: Population, config: CrawlConfig,
              ranks: Sequence[int], index: int, out_dir: Union[str, Path],
              compress: bool) -> ShardOutcome:
    """Crawl one shard for an in-process or pool backend.

    A task failure is an outcome, never an exception: one raised inside
    the pool's ``imap_unordered`` would abort the whole iteration in the
    parent and lose the other shards' outcomes.
    """
    try:
        written = _execute_shard(population, config, ranks, index, out_dir,
                                 compress)
    except Exception as exc:                   # noqa: BLE001 — reported
        return ShardOutcome(index=index, ok=False,
                            error=f"{type(exc).__name__}: {exc}")
    return ShardOutcome(index=index, ok=True, file=written.name,
                        count=written.count, sha256=written.sha256)


def _worker_exec_fault(index: int) -> None:
    """Evaluate the ``worker.exec`` injection point for one shard.

    ``crash`` hard-exits like a killed worker (no result line, exit 3);
    ``hang`` blocks like a wedged one (exercising ``--task-timeout``).
    """
    from .. import faults
    point = maybe_fire("worker.exec", scope=str(index))
    if point is not None:
        if point.kind == "crash":
            os._exit(3)
        if point.kind == "hang":
            faults.sleep_for(point)


def run_shard_worker(spec_path: Union[str, Path], index: int,
                     cache_dir: Optional[Union[str, Path]] = None) -> Dict:
    """The ``python -m repro crawl-shard`` worker body.

    Reads the :class:`WorkSpec`, regenerates the population, crawls the
    shard, writes the shard file next to the spec, and returns the
    result record the CLI prints as one JSON line.

    With ``cache_dir`` the worker consults (and backfills) a
    :class:`ShardStore` *on its side of the protocol* — keyed via
    :meth:`WorkSpec.key_factory` from the fingerprints the spec
    carries, so the worker never re-hashes the population/config
    payloads.  A remote worker sharing a cache volume can then satisfy
    repeat shards with zero visits while speaking the exact same result
    protocol.  A spec from another build's ``QUEUE_VERSION`` raises
    :class:`CoordinationError`.
    """
    spec_path = Path(spec_path)
    spec = WorkSpec.load(spec_path)
    if not 0 <= index < len(spec.shards):
        raise CoordinationError(
            f"shard index {index} out of range 0..{len(spec.shards) - 1}")
    _worker_exec_fault(index)
    target = spec_path.parent
    store = key = None
    if cache_dir is not None:
        # Workers degrade gracefully by default: a store outage spills
        # shards to a local overflow dir next to the output instead of
        # failing the task (the coordinator reconciles later).
        store = ShardStore(cache_dir,
                           overflow_dir=target / "store-overflow")
        key = spec.key_factory().key_for(spec.shards[index])
        cached = store.fetch(key, target, index)
        if cached is not None:
            return {"index": index, "file": cached.name,
                    "count": cached.count, "sha256": cached.sha256}
    from ..ecosystem.population import generate_population
    population = generate_population(
        _population_config_from_dict(spec.population))
    config = _config_from_dict(spec.config)
    written = _execute_shard(population, config, spec.shards[index], index,
                             target, spec.compress)
    if store is not None and key is not None:
        store.put(key, target / written.name, written.count, spec.compress,
                  sha256=written.sha256)
    return {"index": index, "file": written.name, "count": written.count,
            "sha256": written.sha256}


# ---------------------------------------------------------------------------
# Worker backends
# ---------------------------------------------------------------------------

@dataclass
class WorkContext:
    """What a backend needs to execute tasks for one coordinator run."""

    population: Population
    config: CrawlConfig
    plan: ShardPlan
    out_dir: Path
    compress: bool


class WorkerBackend:
    """Executes shard tasks; yields :class:`ShardOutcome`\\ s as they finish.

    Backends never raise for a *task* failure — they report it in the
    outcome so the coordinator can retry idempotently.  They may raise
    for infrastructure failures (e.g. the pool itself dying).
    """

    name = "abstract"

    def run(self, ctx: WorkContext,
            tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        raise NotImplementedError


class InProcessBackend(WorkerBackend):
    """Runs every shard in the coordinator process, one at a time."""

    name = "inprocess"

    def run(self, ctx: WorkContext,
            tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        for task in tasks:
            yield _run_task(ctx.population, ctx.config, task.ranks,
                            task.index, ctx.out_dir, ctx.compress)


# Populated once per pool worker by the initializer; workers then only
# receive (small) task tuples per shard.
_WORKER: Dict[str, object] = {}


def _init_worker(population: Population, config: CrawlConfig) -> None:
    _WORKER["population"] = population
    _WORKER["config"] = config


def _pool_run_shard(args) -> ShardOutcome:
    return _run_task(_WORKER["population"], _WORKER["config"], *args)


class ProcessPoolBackend(WorkerBackend):
    """Fans shard tasks over a local multiprocessing pool.

    The population and config are shipped once per worker via the pool
    initializer; each task is a small tuple naming one shard's ranks.
    """

    name = "pool"

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, ctx: WorkContext,
            tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        if len(tasks) == 1 or self.jobs == 1:
            # One worker would only add pickling overhead.
            yield from InProcessBackend().run(ctx, tasks)
            return
        import multiprocessing
        args_list = [(task.ranks, task.index, str(ctx.out_dir),
                      ctx.compress) for task in tasks]
        context = multiprocessing.get_context()
        processes = min(self.jobs, len(args_list))
        with context.Pool(processes=processes, initializer=_init_worker,
                          initargs=(ctx.population, ctx.config)) as pool:
            yield from pool.imap_unordered(_pool_run_shard, args_list)


class SubprocessBackend(WorkerBackend):
    """Execs ``python -m repro crawl-shard`` per shard.

    This is the cross-machine worker protocol run locally: the only
    coordinator→worker channel is the ``workspec.json`` file and the
    shard index argument; the only worker→coordinator channel is the
    shard file plus one JSON result line on stdout.  A worker that
    crashes (non-zero exit, no result line) is a failed task, which the
    coordinator retries idempotently.

    ``cache_dir`` — a path or a ``store-serve`` URL — is forwarded to
    every worker as ``crawl-shard --cache-dir``: workers then consult
    and backfill the shared shard store *themselves* (uploading shard
    bytes directly, e.g. to the cluster's HTTP store), and the
    coordinator only moves digests.

    ``task_timeout`` is a lease deadline in seconds: a worker still
    running past it is killed, its log kept as evidence, and the task
    reported lost so the coordinator re-pends it.  Like the worker
    count, it never enters a run or cache key.
    """

    name = "subprocess"

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 task_timeout: Optional[float] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # Spelled so NaN, which no deadline ever reaches, fails too.
        if task_timeout is not None and not task_timeout > 0:
            raise ValueError(
                f"task_timeout must be > 0 seconds, got {task_timeout}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.task_timeout = task_timeout

    def _command(self, spec_path: Path, index: int) -> List[str]:
        # The worker runs with cwd=out_dir, so the spec path must be
        # absolute to survive the directory change.
        command = [sys.executable, "-m", "repro", "crawl-shard",
                   str(spec_path.resolve()), str(index)]
        if self.cache_dir is not None:
            cache = str(self.cache_dir)
            if "://" not in cache:
                # Paths must survive the worker's cwd change too.
                cache = str(Path(cache).resolve())
            command += ["--cache-dir", cache]
        return command

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not existing
                             else os.pathsep.join([package_root, existing]))
        return env

    def run(self, ctx: WorkContext,
            tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        spec_path = WorkSpec.build(ctx.population, ctx.config, ctx.plan,
                                   ctx.compress).save(ctx.out_dir)
        env = self._env()
        queue = list(tasks)
        running: List[Tuple[ShardTask, subprocess.Popen, Path,
                            Optional[float]]] = []
        while queue or running:
            while queue and len(running) < self.jobs:
                task = queue.pop(0)
                # Worker output goes to files, not pipes: a chatty
                # worker would fill the OS pipe buffer, block in
                # write(), and never exit — deadlocking this poll loop.
                # The attempt number is part of the name so a log kept
                # as evidence (timeout, protocol failure) is never
                # clobbered by the retry's output.
                log_path = ctx.out_dir / (
                    f".worker-{task.index:04d}-a{task.attempts:02d}.log")
                with open(log_path, "w", encoding="utf-8") as log:
                    proc = subprocess.Popen(
                        self._command(spec_path, task.index), env=env,
                        stdout=log, stderr=subprocess.STDOUT,
                        cwd=str(ctx.out_dir))
                deadline = (time.monotonic() + self.task_timeout
                            if self.task_timeout is not None else None)
                running.append((task, proc, log_path, deadline))
            still_running: List[Tuple[ShardTask, subprocess.Popen, Path,
                                      Optional[float]]] = []
            progressed = False
            for task, proc, log_path, deadline in running:
                if proc.poll() is None:
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        progressed = True
                        yield self._kill_on_deadline(task, proc, log_path)
                        continue
                    still_running.append((task, proc, log_path, deadline))
                    continue
                progressed = True
                yield self._finish(task, proc, log_path)
            running = still_running
            if running and not progressed:
                time.sleep(0.02)

    def _kill_on_deadline(self, task: ShardTask, proc: subprocess.Popen,
                          log_path: Path) -> ShardOutcome:
        """Kill a worker whose lease deadline passed; report the task lost.

        The worker log is deliberately preserved — it is the only
        evidence of where the worker wedged — and the outcome names its
        path (the parse-failure retention precedent).  The coordinator
        re-pends the task under the digest-checked retry invariant.
        """
        proc.kill()
        proc.wait()
        return ShardOutcome(
            index=task.index, ok=False,
            error=f"worker exceeded task deadline ({self.task_timeout:g}s) "
                  f"and was killed (worker log kept at {log_path})")

    def _finish(self, task: ShardTask, proc: subprocess.Popen,
                log_path: Path) -> ShardOutcome:
        try:
            stdout = log_path.read_text(encoding="utf-8")
        except OSError:
            stdout = ""
        if proc.returncode != 0:
            detail = stdout.strip().splitlines()
            tail = detail[-1] if detail else "no output"
            return ShardOutcome(
                index=task.index, ok=False,
                error=f"worker exited {proc.returncode}: {tail}")
        # stderr is merged into the log, so scan from the end for the
        # result record rather than trusting the very last line.  The
        # log file is unlinked only once a result has actually been
        # parsed out of it: a "no parseable result line" failure keeps
        # the log — it IS the diagnostic evidence — and names its path.
        lines = [line for line in stdout.splitlines() if line.strip()]
        for line in reversed(lines):
            try:
                record = json.loads(line)
                outcome = ShardOutcome(index=task.index, ok=True,
                                       file=str(record["file"]),
                                       count=int(record["count"]),
                                       sha256=str(record["sha256"]))
            except (KeyError, TypeError, ValueError):
                continue
            log_path.unlink(missing_ok=True)
            return outcome
        return ShardOutcome(
            index=task.index, ok=False,
            error=f"worker produced no parseable result line "
                  f"(worker log kept at {log_path})")


def make_backend(name: Optional[str] = None, jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 task_timeout: Optional[float] = None) -> WorkerBackend:
    """Backend factory for the CLI: inprocess | pool | subprocess.

    With no ``name``, ``jobs > 1`` picks ``pool`` and ``jobs == 1``
    picks ``inprocess``.  ``cache_dir`` only reaches the subprocess
    backend (whose workers speak ``--cache-dir`` themselves); in-process
    backends share the coordinator's store object instead.  Only the
    subprocess backend can kill a shard past its deadline, so a
    ``task_timeout`` for another backend is refused, not ignored.
    """
    if name is None:
        name = "pool" if jobs > 1 else "inprocess"
    if name == "subprocess":
        return SubprocessBackend(jobs=jobs, cache_dir=cache_dir,
                                 task_timeout=task_timeout)
    if name not in ("inprocess", "pool"):
        raise ValueError(f"unknown backend {name!r} "
                         "(expected inprocess, pool, or subprocess)")
    if task_timeout is not None:
        raise ValueError(f"--task-timeout needs --backend subprocess; the "
                         f"{name} backend cannot stop a shard mid-run")
    return InProcessBackend() if name == "inprocess" \
        else ProcessPoolBackend(jobs=jobs)


# ---------------------------------------------------------------------------
# The shard store (content-addressed cache)
# ---------------------------------------------------------------------------

class ShardStore:
    """Content-addressed cache of crawled shard files.

    Byte movement is delegated to a :class:`~repro.crawler.storebackends.
    ShardStoreBackend`; every semantic guarantee lives here, above the
    seam, and holds for *any* backend:

    * **Content addressing** — entries are keyed :meth:`shard_key`
      (population fp × config fp × ranks × compression × shard format);
      scheduling knobs never enter the key.
    * **Atomic publication** — an entry's blobs are written data-first,
      ``meta.json`` last (backends write each blob atomically), so meta
      is the commit record and a torn upload is just a miss.
    * **Digest verification on fetch** — fetched bytes are re-hashed
      against the digest recorded in meta; any mismatch (corruption,
      truncation, a lying remote) evicts the entry and reports a miss.
      A corrupted cache can only cost a re-crawl, never wrong results.
    * **Eviction on corruption** — unreadable meta, missing data, or a
      digest mismatch removes the whole entry so the next run re-crawls
      and re-publishes cleanly.

    ``ShardStore(root)`` accepts a directory path (wrapped in a
    :class:`LocalDirectoryBackend`, preserving the pre-seam layout
    ``<root>/objects/<key[:2]>/<key>/…`` byte-for-byte), an
    ``http(s)://`` URL (a ``store-serve`` endpoint, via
    :class:`HTTPStoreBackend`), or a backend instance.

    **Degraded mode.**  Without ``overflow_dir`` the store is strict: a
    backend that cannot be reached raises :class:`StoreBackendError`
    and fails the run (the historical behavior).  With ``overflow_dir``
    the store degrades gracefully past the backend's retry budget:
    fetches/existence checks fall back to the local overflow directory
    (then report a miss), puts spill entries there, and each incident
    raises a :class:`RuntimeWarning` — the run completes with re-crawls
    and warnings instead of an error.  :meth:`reconcile_overflow`
    uploads spilled entries once the backend answers again.  Overflow
    placement is pure scheduling; keys, bytes, and digests are
    identical either way.
    """

    def __init__(self, root: Union[str, Path, ShardStoreBackend],
                 overflow_dir: Optional[Union[str, Path]] = None):
        if isinstance(root, str) and root.startswith(("http://",
                                                      "https://")):
            self.backend = HTTPStoreBackend(root)
        elif isinstance(root, (str, Path)):
            self.backend = LocalDirectoryBackend(root)
        else:
            # Any backend-shaped object (including wrappers like
            # repro.faults.FaultyBackend that don't subclass the base).
            self.backend = root
        self.overflow_dir = (Path(overflow_dir) if overflow_dir is not None
                             else None)
        self._overflow: Optional[LocalDirectoryBackend] = (
            LocalDirectoryBackend(self.overflow_dir)
            if self.overflow_dir is not None else None)
        #: Degradation counters (observability + test assertions).
        self.stats: Dict[str, int] = {"store_errors": 0, "spilled": 0,
                                      "reconciled": 0}

    def _degrade(self, op: str, exc: StoreBackendError) -> None:
        """The one fallback rule: a strict store re-raises ``exc``; a
        degraded one counts and warns, and the caller falls back to
        its overflow directory."""
        if self._overflow is None:
            raise exc
        self.stats["store_errors"] += 1
        warnings.warn(
            f"shard store degraded ({op}: {exc}); continuing with local "
            f"overflow at {self.overflow_dir}", RuntimeWarning,
            stacklevel=3)

    # -- keys --------------------------------------------------------------
    @staticmethod
    def shard_key(population_fp: str, config_fp: str, ranks: Sequence[int],
                  compress: bool = False) -> str:
        """The cache key: population × config × ranks × compression.

        Scheduling (worker count, backend, shard *index*) is absent by
        design — only inputs that can change the shard's bytes count.
        """
        return _shard_key(population_fp, config_fp, ranks, compress)

    def _data_name(self, compress: bool) -> str:
        return "shard.jsonl" + (".gz" if compress else "")

    # -- operations --------------------------------------------------------
    def contains(self, key: str) -> bool:
        try:
            return self.backend.exists(key)
        except StoreBackendError as exc:
            self._degrade("exists", exc)
            return self._overflow.exists(key)

    def fetch(self, key: str, out_dir: Union[str, Path],
              index: int) -> Optional[ShardWriteResult]:
        """Materialize a cached shard as ``shard-NNNN`` in ``out_dir``.

        Returns None on a miss *or* a stale entry (which is evicted).
        The fetched bytes are re-hashed so a hit is always verified.
        In degraded mode an unreachable backend falls back to the local
        overflow directory and then reports a miss — never an error.
        """
        try:
            return self._fetch_from(self.backend, key, out_dir, index)
        except StoreBackendError as exc:
            self._degrade("fetch", exc)
            return self._fetch_from(self._overflow, key, out_dir, index)

    def _fetch_from(self, backend: ShardStoreBackend, key: str,
                    out_dir: Union[str, Path],
                    index: int) -> Optional[ShardWriteResult]:
        blob = backend.get(key, META_NAME)
        if blob is None:
            return None
        try:
            meta = json.loads(blob.decode("utf-8"))
            compress = bool(meta["compress"])
            count = int(meta["count"])
            recorded = str(meta["sha256"])
            data_name = str(meta["file"])
        except (KeyError, TypeError, ValueError):
            # meta.json is the commit record; torn/garbage bytes there
            # mean the commit never happened.  Evict so the entry reads
            # as a clean miss and can republish — it must never linger
            # corrupt-but-present.
            backend.evict(key)
            return None
        data = backend.get(key, data_name)
        if data is None or hashlib.sha256(data).hexdigest() != recorded:
            backend.evict(key)
            return None
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = shard_filename(index, compress)
        (out_dir / name).write_bytes(data)
        return ShardWriteResult(name=name, count=count, sha256=recorded)

    def put(self, key: str, shard_path: Union[str, Path], count: int,
            compress: bool, sha256: Optional[str] = None) -> None:
        """Insert a crawled shard file under ``key`` (idempotent).

        The entry is the shard under its canonical data name plus
        ``meta.json``; both go to the backend in one call, meta last.
        In degraded mode an unreachable backend spills the entry to the
        overflow directory instead of failing the crawl.
        """
        shard_path = Path(shard_path)
        data_name = self._data_name(compress)
        data = shard_path.read_bytes()
        digest = sha256 or hashlib.sha256(data).hexdigest()
        blobs: Dict[str, bytes] = {data_name: data}
        meta = {"key": key, "file": data_name, "count": int(count),
                "compress": bool(compress), "sha256": digest}
        blobs[META_NAME] = (json.dumps(meta, sort_keys=True, indent=2)
                            + "\n").encode("utf-8")
        try:
            self.backend.put(key, blobs)
        except StoreBackendError as exc:
            self._degrade("put", exc)
            self._overflow.put(key, blobs)
            self.stats["spilled"] += 1

    def reconcile_overflow(self) -> int:
        """Upload spilled overflow entries to the backend; count moved.

        Stops at the first backend error (the store is still down) —
        the remaining entries stay spilled for a later reconcile.  A
        spilled entry without its committing ``meta.json`` is skipped
        (a torn spill is a miss, same as everywhere else).
        """
        if self.overflow_dir is None:
            return 0
        objects = self.overflow_dir / "objects"
        if not objects.is_dir():
            return 0
        moved = 0
        for entry in sorted(objects.glob("*/*")):
            if not entry.is_dir():
                continue
            blobs = {blob.name: blob.read_bytes()
                     for blob in entry.iterdir()
                     if blob.is_file() and not blob.name.endswith(".tmp")}
            if META_NAME not in blobs:
                continue
            try:
                self.backend.put(entry.name, blobs)
            except StoreBackendError as exc:
                self._degrade("reconcile", exc)
                break
            self._overflow.evict(entry.name)
            moved += 1
            self.stats["reconciled"] += 1
        return moved


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrawlReport:
    """What a coordinator run did, and the manifest it produced."""

    manifest: ShardManifest
    executed_shards: int      # shards crawled by a backend this run
    cached_shards: int        # shards materialized from the ShardStore
    reused_shards: int        # shards already done in the journal
    visits_executed: int      # site visits actually performed this run
    retries: int              # extra attempts beyond each shard's first


class Coordinator:
    """Drives a :class:`ShardPlan` to a complete, verified crawl dataset.

    The loop is: load-or-create the durable queue → resolve cache hits →
    dispatch pending tasks to the backend → retry failures/losses up to
    ``max_retries`` → assemble and verify the manifest → backfill the
    cache.  Re-running a coordinator over an interrupted ``out_dir``
    resumes exactly where the journal left off; shard re-execution is
    idempotent, and any previously recorded digest is enforced against
    retried bytes.
    """

    def __init__(self, population: Population,
                 config: Optional[CrawlConfig] = None,
                 backend: Optional[WorkerBackend] = None,
                 max_retries: int = 2,
                 store: Optional[ShardStore] = None,
                 compress: bool = False,
                 progress: Optional[Callable[[CrawlProgress], None]] = None):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.population = population
        self.config = config or CrawlConfig()
        policy = self.config.guard_policy
        if store is not None and policy is not None \
                and policy.entity_of is not None:
            # The fingerprint records entity_of as a presence bit only,
            # so two different entity maps would share cache keys.
            raise CoordinationError(
                "guard policies with an entity_of callable cannot be "
                "fingerprinted for the shard cache; run without a store")
        self.backend = backend or InProcessBackend()
        self.max_retries = max_retries
        self.store = store
        self.compress = compress
        self.progress = progress
        # Both fingerprints are computed once per coordinator (they
        # hash the full population/config payloads); every shard key
        # derives from the precomputed factory, and the workspec
        # carries the same two fingerprints to workers.
        self.population_fp = population_fingerprint(population)
        self.config_fp = config_fingerprint(self.config)
        self._key_factory = ShardKeyFactory(self.population_fp,
                                            self.config_fp, self.compress)

    # ------------------------------------------------------------------
    def plan(self, n_shards: int) -> ShardPlan:
        return ShardPlan.for_population(self.population, n_shards)

    def _run_key(self, plan: ShardPlan) -> str:
        payload = {
            "population": self.population_fp,
            "config": self.config_fp,
            "compress": self.compress,
            # encode_ranks normalizes ranges and arithmetic tuples to one
            # form, so the run key is O(shards) to compute and identical
            # however the plan's rank sequences are represented.
            "shards": [encode_ranks(shard.ranks) for shard in plan],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _key_for(self, task: ShardTask) -> str:
        # No memo here on purpose: a second run() can use a different
        # plan, and shard *index* does not identify shard *ranks*
        # across plans.  The factory's precomputed prefix already makes
        # each key one small json.dumps + sha256.
        return self._key_factory.key_for(task.ranks)

    # ------------------------------------------------------------------
    def run(self, out_dir: Union[str, Path],
            n_shards: Optional[int] = None) -> CrawlReport:
        """Execute (or resume) the crawl into ``out_dir``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        plan = self.plan(n_shards if n_shards is not None
                         else max(len(self.population) // 256, 1))
        run_key = self._run_key(plan)
        queue = self._open_queue(out_dir, plan, run_key)

        started = time.monotonic()
        stats = {"executed": 0, "cached": 0, "reused": 0, "visits": 0,
                 "retries": 0}
        if self.store is not None:
            # A previous degraded run may have spilled shards locally;
            # move them to the shared store before resolving cache hits
            # so a recovered store serves them instead of re-crawling.
            self.store.reconcile_overflow()
        self._reconcile_done(queue, out_dir, stats)
        self._resolve_cache_hits(queue, out_dir, plan, stats, started)
        self._dispatch(queue, out_dir, plan, stats, started)

        manifest = self._assemble_manifest(queue, out_dir)
        self._backfill_store(queue, out_dir)
        return CrawlReport(
            manifest=manifest,
            executed_shards=stats["executed"],
            cached_shards=stats["cached"],
            reused_shards=stats["reused"],
            visits_executed=stats["visits"],
            retries=stats["retries"],
        )

    # ------------------------------------------------------------------
    def _open_queue(self, out_dir: Path, plan: ShardPlan,
                    run_key: str) -> WorkQueue:
        queue_path = out_dir / QUEUE_NAME
        if queue_path.exists():
            queue = WorkQueue.load(queue_path)
            if queue.run_key != run_key:
                raise CoordinationError(
                    f"{queue_path} belongs to a different crawl "
                    f"(population/config/plan changed); refusing to mix "
                    f"shard artifacts")
            return queue
        return WorkQueue.create(queue_path, plan, run_key)

    def _reconcile_done(self, queue: WorkQueue, out_dir: Path,
                        stats: Dict[str, int]) -> None:
        """Re-verify journal-done shards; demote damaged ones to pending.

        A demoted task keeps its recorded digest as ``expected_sha256``:
        the retry must reproduce those exact bytes or the run fails —
        that is the idempotency verification the journal makes possible.
        """
        for task in queue.in_order():
            if task.state != DONE:
                continue
            path = out_dir / (task.file or "")
            if task.file and path.exists() \
                    and compute_digest(path) == task.sha256:
                stats["reused"] += 1
                continue
            task.expected_sha256 = task.sha256
            task.state = PENDING
            task.file = None
            task.source = None

    def _resolve_cache_hits(self, queue: WorkQueue, out_dir: Path,
                            plan: ShardPlan, stats: Dict[str, int],
                            started: float) -> None:
        if self.store is None:
            return
        for task in queue.unfinished():
            written = self.store.fetch(self._key_for(task), out_dir,
                                       task.index)
            if written is None:
                continue
            self._done(queue, task, "cache", written.name, written.count,
                       written.sha256)
            stats["cached"] += 1
            self._report_progress(queue, plan, task, stats, started)

    def _dispatch(self, queue: WorkQueue, out_dir: Path, plan: ShardPlan,
                  stats: Dict[str, int], started: float) -> None:
        ctx = WorkContext(population=self.population, config=self.config,
                          plan=plan, out_dir=out_dir, compress=self.compress)
        while True:
            todo = queue.unfinished()
            if not todo:
                return
            exhausted = [t for t in todo
                         if t.attempts > self.max_retries]
            if exhausted:
                worst = exhausted[0]
                raise CoordinationError(
                    f"shard {worst.index} failed after {worst.attempts} "
                    f"attempts (max_retries={self.max_retries}): "
                    f"{worst.error or 'worker lost'}")
            for task in todo:
                if task.attempts > 0:
                    stats["retries"] += 1
                queue.lease(task, worker=self.backend.name)
            for outcome in self.backend.run(ctx, todo):
                task = queue.tasks[outcome.index]
                if not outcome.ok:
                    queue.fail(task, outcome.error or "worker failed")
                    continue
                self._done(queue, task, "crawl", outcome.file or "",
                           outcome.count, outcome.sha256 or "")
                stats["executed"] += 1
                stats["visits"] += len(task.ranks)
                self._report_progress(queue, plan, task, stats, started)

    @staticmethod
    def _done(queue: WorkQueue, task: ShardTask, source: str, file: str,
              count: int, sha256: str) -> None:
        """Journal ``task`` done from ``source`` (``"cache"`` or
        ``"crawl"``) once its bytes match any digest the journal
        recorded for it: a cache hit and a crawled retry answer to the
        same check."""
        expected = task.expected_sha256
        if expected and sha256 != expected:
            raise CoordinationError(
                f"shard {task.index}: {source} bytes hash to "
                f"{(sha256 or '?')[:12]}…, the journal recorded "
                f"{expected[:12]}… — the determinism contract is broken")
        queue.done(task, file=file, count=count, sha256=sha256,
                   source=source)

    def _report_progress(self, queue: WorkQueue, plan: ShardPlan,
                         task: ShardTask, stats: Dict[str, int],
                         started: float) -> None:
        if self.progress is None:
            return
        done = [t for t in queue.in_order() if t.state == DONE]
        self.progress(CrawlProgress(
            shard_index=task.index,
            n_shards=plan.n_shards,
            shard_visits=task.count,
            done_shards=len(done),
            total_visits=sum(t.count for t in done),
            elapsed=time.monotonic() - started,
        ))

    def _assemble_manifest(self, queue: WorkQueue,
                           out_dir: Path) -> ShardManifest:
        tasks = queue.in_order()
        manifest = ShardManifest(
            n_shards=len(tasks),
            total=sum(task.count for task in tasks),
            compress=self.compress,
            files=tuple(task.file or "" for task in tasks),
            counts=tuple(task.count for task in tasks),
            digests=tuple(task.sha256 for task in tasks),
        )
        manifest.save(out_dir)
        try:
            verify_shard_files(out_dir, manifest)
        except ManifestError as exc:
            raise CoordinationError(
                f"assembled dataset failed verification: {exc}") from exc
        return manifest

    def _backfill_store(self, queue: WorkQueue, out_dir: Path) -> None:
        if self.store is None:
            return
        for task in queue.in_order():
            if task.source != "crawl" or not task.file:
                continue
            key = self._key_for(task)
            if not self.store.contains(key):
                self.store.put(key, out_dir / task.file, task.count,
                               self.compress, sha256=task.sha256)
