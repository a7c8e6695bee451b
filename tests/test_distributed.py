"""The distributed crawl coordinator (ROADMAP rungs 3–4).

The contract under test: a :class:`Coordinator` run produces
*bit-for-bit* the serial pipeline's logs (hence identical ``Study``
results) for every worker backend, after injected worker crashes with
retry, across coordinator crash/resume, and across a cold-vs-warm
:class:`ShardStore` run — where the warm run executes **zero** visits.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import pytest

from repro.analysis import Study
from repro.cookieguard.policy import InlineMode, PolicyConfig
from repro.crawler import (
    CoordinationError,
    Coordinator,
    CrawlConfig,
    Crawler,
    InProcessBackend,
    ProcessPoolBackend,
    ShardStore,
    SubprocessBackend,
    config_fingerprint,
    load_logs,
    make_backend,
    population_fingerprint,
)
from repro.crawler.distributed import (
    QUEUE_NAME,
    QUEUE_VERSION,
    ShardKeyFactory,
    ShardOutcome,
    ShardTask,
    WorkQueue,
    WorkSpec,
    _apply,
    _config_from_dict,
    _config_to_dict,
    run_shard_worker,
)
from repro.crawler.storage import ShardManifest
from repro.ecosystem import PopulationConfig, generate_population
from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultPoint

N_SITES = 48
SEED = 2025
N_SHARDS = 3


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


def _study_digest(logs):
    """A canonical rendering of the Study results for equality checks."""
    study = Study(logs)
    payload = {
        "sec51": study.sec51_prevalence(),
        "sec52": {k: str(v) for k, v in study.sec52_api_usage().items()},
        "sec56": study.sec56_inclusion(),
    }
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def small_population():
    return generate_population(PopulationConfig(n_sites=N_SITES, seed=SEED))


@pytest.fixture(scope="module")
def serial_logs(small_population):
    return Crawler(small_population, CrawlConfig(seed=SEED)).crawl()


@pytest.fixture(scope="module")
def serial_stream(serial_logs):
    return _stream(serial_logs)


class CountingBackend(InProcessBackend):
    """In-process backend that tallies the visits it actually executes."""

    def __init__(self):
        self.visits_executed = 0
        self.shards_executed = 0

    def run(self, ctx, tasks):
        for outcome in super().run(ctx, [t for t in tasks]):
            task = next(t for t in tasks if t.index == outcome.index)
            self.shards_executed += 1
            self.visits_executed += len(task.ranks)
            yield outcome


class FlakyBackend(InProcessBackend):
    """Fails each shard index in ``fail_once`` exactly once, then works."""

    def __init__(self, fail_once):
        self.remaining = set(fail_once)

    def run(self, ctx, tasks):
        healthy = []
        for task in tasks:
            if task.index in self.remaining:
                self.remaining.discard(task.index)
                yield ShardOutcome(index=task.index, ok=False,
                                   error="injected worker crash")
            else:
                healthy.append(task)
        yield from super().run(ctx, healthy)


class DeadBackend(InProcessBackend):
    """Every task fails, every time."""

    def run(self, ctx, tasks):
        for task in tasks:
            yield ShardOutcome(index=task.index, ok=False,
                               error="injected permanent failure")


# ---------------------------------------------------------------------------
# Backend equivalence (acceptance: bit-identical across all three)
# ---------------------------------------------------------------------------

class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def backend_runs(self, small_population, tmp_path_factory):
        """One coordinator run per backend; returns dir + report each."""
        runs = {}
        backends = {
            "inprocess": InProcessBackend(),
            "pool": ProcessPoolBackend(jobs=2),
            "subprocess": SubprocessBackend(jobs=2),
        }
        for name, backend in backends.items():
            out = tmp_path_factory.mktemp(f"dist-{name}")
            coordinator = Coordinator(small_population,
                                      CrawlConfig(seed=SEED),
                                      backend=backend)
            report = coordinator.run(out, n_shards=N_SHARDS)
            runs[name] = (out, report)
        return runs

    @pytest.mark.parametrize("name", ["inprocess", "pool", "subprocess"])
    def test_backend_matches_serial(self, backend_runs, serial_stream, name):
        out, report = backend_runs[name]
        assert _stream(load_logs(out)) == serial_stream
        assert report.executed_shards == N_SHARDS
        assert report.visits_executed == N_SITES

    def test_study_identical_across_backends(self, backend_runs,
                                             serial_logs):
        reference = _study_digest(serial_logs)
        for name, (out, _report) in backend_runs.items():
            assert _study_digest(load_logs(out)) == reference, name

    def test_manifests_identical_across_backends(self, backend_runs):
        manifests = {name: ShardManifest.load(out).to_dict()
                     for name, (out, _r) in backend_runs.items()}
        assert manifests["inprocess"] == manifests["pool"]
        assert manifests["inprocess"] == manifests["subprocess"]

    def test_subprocess_rerun_with_nothing_to_dispatch_writes_no_workspec(
            self, backend_runs, small_population, tmp_path):
        """The subprocess backend writes ``workspec.json`` only when it
        runs a shard; a re-run that reuses every shard runs none."""
        import shutil
        source, _report = backend_runs["subprocess"]
        out = tmp_path / "rerun"
        shutil.copytree(source, out)
        (out / "workspec.json").unlink()
        report = Coordinator(small_population, CrawlConfig(seed=SEED),
                             backend=SubprocessBackend(jobs=2)).run(
            out, n_shards=N_SHARDS)
        assert report.reused_shards == N_SHARDS
        assert not (out / "workspec.json").exists()

    def test_manifest_records_digests(self, backend_runs):
        out, _report = backend_runs["inprocess"]
        manifest = ShardManifest.load(out)
        assert len(manifest.digests) == N_SHARDS
        assert all(d for d in manifest.digests)

    def test_make_backend_factory(self):
        assert make_backend("inprocess").name == "inprocess"
        assert make_backend("pool", jobs=3).name == "pool"
        assert make_backend("subprocess").name == "subprocess"
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_make_backend_respects_explicit_single_job(self):
        assert make_backend("pool", jobs=1).jobs == 1

    def test_make_backend_without_a_name_picks_by_jobs(self):
        assert make_backend().name == "inprocess"
        assert make_backend(jobs=1).name == "inprocess"
        pool = make_backend(jobs=3)
        assert pool.name == "pool" and pool.jobs == 3


# ---------------------------------------------------------------------------
# Durable queue
# ---------------------------------------------------------------------------

class TestWorkQueue:
    def test_journal_replay_roundtrip(self, small_population, tmp_path):
        out = tmp_path / "out"
        Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=N_SHARDS)
        queue = WorkQueue.load(out / QUEUE_NAME)
        assert len(queue.tasks) == N_SHARDS
        assert all(task.state == "done" for task in queue.in_order())
        assert all(task.sha256 for task in queue.in_order())

    def test_journal_is_jsonl(self, small_population, tmp_path):
        out = tmp_path / "out"
        Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=2)
        lines = (out / QUEUE_NAME).read_text().splitlines()
        events = [json.loads(line)["event"] for line in lines if line]
        assert events[0] == "plan"
        assert events.count("task") == 2
        assert events.count("done") == 2

    def test_lost_lease_becomes_pending(self, tmp_path):
        path = tmp_path / QUEUE_NAME
        records = [
            {"event": "plan", "version": QUEUE_VERSION, "run_key": "k", "n_shards": 2},
            {"event": "task", "index": 0, "ranks": [1, 2]},
            {"event": "task", "index": 1, "ranks": [3, 4]},
            {"event": "lease", "index": 0, "attempt": 1, "worker": "w"},
            {"event": "done", "index": 0, "file": "shard-0000.jsonl",
             "count": 2, "sha256": "abc", "source": "crawl"},
            {"event": "lease", "index": 1, "attempt": 2, "worker": "w"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        queue = WorkQueue.load(path)
        assert queue.tasks[0].state == "done"
        assert queue.tasks[1].state == "pending"   # lost worker
        assert queue.tasks[1].attempts == 2        # attempts survive
        assert [t.index for t in queue.unfinished()] == [1]

    def test_release_after_done_pins_the_recorded_digest(self, tmp_path):
        """done → lease → crash: the retry must reproduce the old bytes."""
        path = tmp_path / QUEUE_NAME
        records = [
            {"event": "plan", "version": QUEUE_VERSION, "run_key": "k", "n_shards": 1},
            {"event": "task", "index": 0, "ranks": [1, 2]},
            {"event": "lease", "index": 0, "attempt": 1, "worker": "w"},
            {"event": "done", "index": 0, "file": "shard-0000.jsonl",
             "count": 2, "sha256": "digest-of-attempt-1",
             "source": "crawl"},
            {"event": "lease", "index": 0, "attempt": 2, "worker": "w"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        queue = WorkQueue.load(path)
        task = queue.tasks[0]
        assert task.state == "pending"
        assert task.expected_sha256 == "digest-of-attempt-1"

    def test_corrupt_journal_raises(self, tmp_path):
        path = tmp_path / QUEUE_NAME
        path.write_text('{"event": "plan", "version": %d}\n' % QUEUE_VERSION)
        with pytest.raises(CoordinationError, match="corrupt queue"):
            WorkQueue.load(path)

    def test_pre_compact_serializer_queue_refused(self, tmp_path):
        """Version-1 journals recorded digests of the pre-PR5 shard
        bytes; resuming one must refuse up front, not fail later with a
        misleading determinism-break error."""
        path = tmp_path / QUEUE_NAME
        records = [
            {"event": "plan", "version": 1, "run_key": "k", "n_shards": 1},
            {"event": "task", "index": 0, "ranks": [1, 2]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(CoordinationError,
                           match="unsupported queue version 1"):
            WorkQueue.load(path)

    def test_create_killed_mid_write_leaves_no_queue(
            self, small_population, tmp_path, monkeypatch):
        """The plan header is published whole or not at all: a crawl
        killed while writing it leaves no ``queue.jsonl`` to refuse, and
        the next run into OUT starts over and writes the golden bytes."""
        from repro.crawler import distributed as dist

        class DiesMidWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                self.handle.flush()
                raise OSError("killed mid-write")

        def dying_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if mode == "w" and Path(file).name.startswith(QUEUE_NAME):
                return DiesMidWrite(handle)
            return handle

        out = tmp_path / "out"
        monkeypatch.setattr(dist, "open", dying_open, raising=False)
        with pytest.raises(OSError, match="killed mid-write"):
            Coordinator(small_population, CrawlConfig(seed=SEED)).run(
                out, n_shards=N_SHARDS)
        monkeypatch.undo()
        assert not (out / QUEUE_NAME).exists()
        golden = tmp_path / "golden"
        Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            golden, n_shards=N_SHARDS)
        report = Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=N_SHARDS)
        assert report.executed_shards == N_SHARDS
        assert sorted(path.name for path in out.iterdir()) \
            == sorted(path.name for path in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_foreign_queue_rejected(self, small_population, tmp_path):
        out = tmp_path / "out"
        Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=2)
        other = Coordinator(small_population, CrawlConfig(seed=7))
        with pytest.raises(CoordinationError, match="different crawl"):
            other.run(out, n_shards=2)


# ---------------------------------------------------------------------------
# Crash, retry, idempotence (acceptance: crash + retry stays bit-identical)
# ---------------------------------------------------------------------------

class TestCrashRetry:
    def test_flaky_backend_retries_to_identical_output(
            self, small_population, serial_stream, tmp_path):
        out = tmp_path / "out"
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=FlakyBackend(fail_once={1}),
                                  max_retries=2)
        report = coordinator.run(out, n_shards=N_SHARDS)
        assert report.retries == 1
        assert _stream(load_logs(out)) == serial_stream
        events = [json.loads(line)["event"]
                  for line in (out / QUEUE_NAME).read_text().splitlines()]
        assert "fail" in events and events.count("done") == N_SHARDS

    def test_retry_exhaustion_raises(self, small_population, tmp_path):
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=DeadBackend(), max_retries=1)
        with pytest.raises(CoordinationError, match="failed after 2 attempts"):
            coordinator.run(tmp_path / "out", n_shards=2)

    def test_zero_retries_fails_fast(self, small_population, tmp_path):
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=DeadBackend(), max_retries=0)
        with pytest.raises(CoordinationError, match="failed after 1 attempt"):
            coordinator.run(tmp_path / "out", n_shards=2)

    def test_resume_after_coordinator_crash(self, small_population,
                                            serial_stream, tmp_path):
        """A second coordinator over a half-done out_dir finishes the rest."""
        out = tmp_path / "out"
        # Crash mid-run: the first coordinator dies after one shard fails
        # terminally; the journal keeps the two completed shards.
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=FlakyBackend(fail_once={2}),
                                  max_retries=0)
        with pytest.raises(CoordinationError):
            coordinator.run(out, n_shards=N_SHARDS)
        resumed = Coordinator(small_population, CrawlConfig(seed=SEED),
                              backend=InProcessBackend(), max_retries=1)
        report = resumed.run(out, n_shards=N_SHARDS)
        assert report.reused_shards == 2
        assert report.executed_shards == 1
        assert _stream(load_logs(out)) == serial_stream


# ---------------------------------------------------------------------------
# Fault injection (run by the coordinator-faults CI job)
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_killed_subprocess_worker_is_retried(
            self, small_population, serial_stream, tmp_path, monkeypatch):
        """Every worker is hard-killed once; retries still converge."""
        # An ambient crash-once plan: the subprocess workers inherit it,
        # and its state_dir keeps each shard's fire count across them.
        plan = FaultPlan([FaultPoint("worker.exec", kind="crash", times=1)],
                         state_dir=tmp_path / "faults")
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan.to_spec()))
        out = tmp_path / "out"
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=SubprocessBackend(jobs=2),
                                  max_retries=2)
        report = coordinator.run(out, n_shards=2)
        assert report.retries == 2                 # each shard died once
        assert _stream(load_logs(out)) == serial_stream

    def test_truncated_shard_file_is_recrawled_and_verified(
            self, small_population, serial_stream, tmp_path):
        """Damage after completion: resume re-crawls and re-verifies."""
        out = tmp_path / "out"
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED))
        first = coordinator.run(out, n_shards=N_SHARDS)
        victim = out / first.manifest.files[1]
        victim.write_bytes(victim.read_bytes()[:-20])
        resumed = Coordinator(small_population, CrawlConfig(seed=SEED))
        report = resumed.run(out, n_shards=N_SHARDS)
        assert report.reused_shards == N_SHARDS - 1
        assert report.executed_shards == 1
        assert _stream(load_logs(out)) == serial_stream

    def test_retried_bytes_must_match_recorded_digest(
            self, small_population, tmp_path):
        """A journal digest a retry cannot reproduce is an error."""
        out = tmp_path / "out"
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED))
        first = coordinator.run(out, n_shards=2)
        queue_path = out / QUEUE_NAME
        doctored = []
        for line in queue_path.read_text().splitlines():
            record = json.loads(line)
            if record["event"] == "done" and record["index"] == 0:
                record["sha256"] = "0" * 64
            doctored.append(json.dumps(record))
        queue_path.write_text("\n".join(doctored) + "\n")
        (out / first.manifest.files[0]).unlink()
        resumed = Coordinator(small_population, CrawlConfig(seed=SEED))
        with pytest.raises(CoordinationError, match="determinism contract"):
            resumed.run(out, n_shards=2)

    def test_stale_cache_entry_is_evicted_and_recrawled(
            self, small_population, serial_stream, tmp_path):
        """Corrupt cached bytes cost a re-crawl, never wrong results."""
        store = ShardStore(tmp_path / "cache")
        cold = Coordinator(small_population, CrawlConfig(seed=SEED),
                           store=store)
        cold.run(tmp_path / "out1", n_shards=2)
        # Corrupt every cached object's data file in place.
        objects = list((tmp_path / "cache" / "objects").rglob("shard.jsonl"))
        assert objects
        for obj in objects:
            obj.write_bytes(obj.read_bytes() + b'{"bogus": 1}\n')
        backend = CountingBackend()
        warm = Coordinator(small_population, CrawlConfig(seed=SEED),
                           backend=backend, store=store)
        report = warm.run(tmp_path / "out2", n_shards=2)
        assert report.cached_shards == 0           # stale entries evicted
        assert backend.visits_executed == N_SITES  # full re-crawl
        assert _stream(load_logs(tmp_path / "out2")) == serial_stream
        # The re-crawl repopulated the cache with good bytes.
        rewarmed = Coordinator(small_population, CrawlConfig(seed=SEED),
                               backend=CountingBackend(), store=store)
        assert rewarmed.run(tmp_path / "out3", n_shards=2).cached_shards == 2


# ---------------------------------------------------------------------------
# The shard store (acceptance: warm run executes zero visits)
# ---------------------------------------------------------------------------

class TestShardStore:
    def test_cold_then_warm_run_zero_visits(self, small_population,
                                            serial_stream, tmp_path):
        store = ShardStore(tmp_path / "cache")
        cold_backend = CountingBackend()
        cold = Coordinator(small_population, CrawlConfig(seed=SEED),
                           backend=cold_backend, store=store)
        cold_report = cold.run(tmp_path / "cold", n_shards=N_SHARDS)
        assert cold_backend.visits_executed == N_SITES
        assert cold_report.cached_shards == 0

        warm_backend = CountingBackend()
        warm = Coordinator(small_population, CrawlConfig(seed=SEED),
                           backend=warm_backend, store=store)
        warm_report = warm.run(tmp_path / "warm", n_shards=N_SHARDS)
        assert warm_backend.visits_executed == 0
        assert warm_backend.shards_executed == 0
        assert warm_report.visits_executed == 0
        assert warm_report.cached_shards == N_SHARDS
        assert _stream(load_logs(tmp_path / "warm")) == serial_stream
        cold_manifest = ShardManifest.load(tmp_path / "cold")
        warm_manifest = ShardManifest.load(tmp_path / "warm")
        assert cold_manifest == warm_manifest

    def test_replanned_rerun_keys_by_ranks_not_index(self, small_population,
                                                     serial_stream,
                                                     tmp_path):
        """One Coordinator, two run() calls with different shard counts:
        the second plan's cache keys must derive from each task's ranks,
        never from a stale index-keyed memo of the first plan."""
        store = ShardStore(tmp_path / "cache")
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  store=store)
        coordinator.run(tmp_path / "two", n_shards=2)
        coordinator.run(tmp_path / "three", n_shards=3)
        fresh = Coordinator(small_population, CrawlConfig(seed=SEED))
        fresh.run(tmp_path / "fresh-three", n_shards=3)
        for name in ("shard-0000.jsonl", "shard-0001.jsonl",
                     "shard-0002.jsonl"):
            assert (tmp_path / "three" / name).read_bytes() == \
                (tmp_path / "fresh-three" / name).read_bytes()
        assert _stream(load_logs(tmp_path / "three")) == serial_stream

    def test_store_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path / "cache")
        payload = tmp_path / "shard-0000.jsonl"
        payload.write_text('{"x": 1}\n')
        key = ShardStore.shard_key("pop", "cfg", [1, 2, 3])
        assert store.fetch(key, tmp_path / "out", 0) is None
        store.put(key, payload, count=1, compress=False)
        fetched = store.fetch(key, tmp_path / "out", 4)
        assert fetched is not None
        assert fetched.count == 1
        assert (tmp_path / "out" / "shard-0004.jsonl").read_text() \
            == payload.read_text()


class TestShardStoreKeying:
    """The cache key covers outputs, never scheduling."""

    BASE = CrawlConfig(seed=SEED)

    def _key(self, config=None, pop_seed=SEED, ranks=(1, 2, 3)):
        pop_fp = population_fingerprint(
            PopulationConfig(n_sites=N_SITES, seed=pop_seed))
        return ShardStore.shard_key(pop_fp,
                                    config_fingerprint(config or self.BASE),
                                    ranks)

    def test_population_seed_changes_key(self):
        assert self._key(pop_seed=SEED) != self._key(pop_seed=SEED + 1)

    def test_crawl_seed_changes_key(self):
        assert self._key(CrawlConfig(seed=SEED)) \
            != self._key(CrawlConfig(seed=SEED + 1))

    def test_guard_policy_changes_key(self):
        plain = CrawlConfig(seed=SEED)
        guarded = CrawlConfig(seed=SEED, install_guard=True)
        permissive = CrawlConfig(
            seed=SEED, install_guard=True,
            guard_policy=PolicyConfig(inline_mode=InlineMode.RELAXED))
        keys = {self._key(plain), self._key(guarded), self._key(permissive)}
        assert len(keys) == 3

    def test_ranks_change_key(self):
        assert self._key(ranks=(1, 2, 3)) != self._key(ranks=(1, 2, 4))

    def test_jobs_and_backend_hit_the_warm_cache(self, small_population,
                                                 tmp_path):
        """Scheduling changes (jobs, backend) must not miss the cache."""
        store = ShardStore(tmp_path / "cache")
        cold = Coordinator(small_population, CrawlConfig(seed=SEED),
                           backend=ProcessPoolBackend(jobs=2), store=store)
        cold.run(tmp_path / "cold", n_shards=2)
        warm = Coordinator(small_population, CrawlConfig(seed=SEED),
                           backend=InProcessBackend(), store=store)
        report = warm.run(tmp_path / "warm", n_shards=2)
        assert report.cached_shards == 2
        assert report.visits_executed == 0



# ---------------------------------------------------------------------------
# The worker protocol
# ---------------------------------------------------------------------------

class TestWorkerProtocol:
    def test_workspec_roundtrip(self, small_population, tmp_path):
        from repro.crawler import ShardPlan
        plan = ShardPlan.for_population(small_population, 3)
        spec = WorkSpec.build(small_population, CrawlConfig(seed=SEED),
                              plan, compress=True)
        spec.save(tmp_path)
        loaded = WorkSpec.load(tmp_path / "workspec.json")
        assert loaded == spec

    def test_config_dict_roundtrip_with_policy(self):
        config = CrawlConfig(
            seed=7, max_clicks=1, install_guard=True,
            guard_policy=PolicyConfig(inline_mode=InlineMode.RELAXED,
                                      owner_full_access=False))
        restored = _config_from_dict(_config_to_dict(config))
        assert restored.seed == 7
        assert restored.guard_policy.inline_mode is InlineMode.RELAXED
        assert restored.guard_policy.owner_full_access is False
        assert config_fingerprint(restored) == config_fingerprint(config)

    def test_entity_whitelist_policy_not_serializable(self):
        config = CrawlConfig(
            install_guard=True,
            guard_policy=PolicyConfig(entity_of=lambda domain: None))
        with pytest.raises(CoordinationError, match="entity_of"):
            _config_to_dict(config)

    def test_entity_whitelist_policy_refuses_the_cache(self, tmp_path,
                                                       small_population):
        """entity_of fingerprints as a presence bit, so no ShardStore."""
        config = CrawlConfig(
            install_guard=True,
            guard_policy=PolicyConfig(entity_of=lambda domain: None))
        with pytest.raises(CoordinationError, match="shard cache"):
            Coordinator(small_population, config,
                        store=ShardStore(tmp_path / "cache"))
        # Without a store the same config is fine (in-process backends).
        Coordinator(small_population, config)

    def test_run_shard_worker_matches_coordinator(self, small_population,
                                                  serial_stream, tmp_path):
        """A bare worker produces the exact shard the coordinator records."""
        from repro.crawler import ShardPlan
        plan = ShardPlan.for_population(small_population, 2)
        spec = WorkSpec.build(small_population, CrawlConfig(seed=SEED),
                              plan, compress=False)
        spec_path = spec.save(tmp_path)
        results = [run_shard_worker(spec_path, index) for index in range(2)]
        out = tmp_path / "coordinated"
        report = Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=2)
        assert [r["sha256"] for r in results] \
            == list(report.manifest.digests)
        for r in results:
            assert (tmp_path / r["file"]).read_bytes() \
                == (out / r["file"]).read_bytes()
        assert _stream(load_logs(out)) == serial_stream

    def test_worker_rejects_bad_index(self, small_population, tmp_path):
        from repro.crawler import ShardPlan
        plan = ShardPlan.for_population(small_population, 2)
        spec = WorkSpec.build(small_population, CrawlConfig(seed=SEED),
                              plan, compress=False)
        spec_path = spec.save(tmp_path)
        with pytest.raises(CoordinationError, match="out of range"):
            run_shard_worker(spec_path, 5)

    def test_workspec_of_another_version_is_refused(self, small_population,
                                                    tmp_path, capsys):
        """A spec another build wrote (here a ``QUEUE_VERSION`` 3 one),
        like a torn one or one that is not UTF-8, is refused by
        ``WorkSpec.load`` and by ``crawl-shard``, which exits 1 on one
        line and writes no shard."""
        from repro.__main__ import main
        from repro.crawler import ShardPlan
        plan = ShardPlan.for_population(small_population, 2)
        spec_path = WorkSpec.build(small_population, CrawlConfig(seed=SEED),
                                   plan, compress=False).save(tmp_path)
        original = spec_path.read_bytes()
        data = json.loads(original)
        data["version"] = 3
        unreadable = f"unreadable workspec {spec_path}: "
        for damaged, message in (
                (json.dumps(data).encode(), "unsupported workspec version 3 "
                                            "(expected 4;"),
                (b"{", unreadable),
                (b"\xff\xfe" + original, unreadable)):
            spec_path.write_bytes(damaged)
            with pytest.raises(CoordinationError) as exc_info:
                WorkSpec.load(spec_path)
            assert str(exc_info.value).startswith(message)
            with pytest.raises(SystemExit) as exit_info:
                main(["crawl-shard", str(spec_path), "0"])
            assert exit_info.value.code == 1
            captured = capsys.readouterr()
            assert captured.out.startswith(f"crawl-shard: {message}")
            assert "Traceback" not in captured.out + captured.err
            assert [path.name for path in tmp_path.iterdir()] \
                == ["workspec.json"]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_population_fingerprint_stable(self, small_population):
        assert population_fingerprint(small_population) \
            == population_fingerprint(
                PopulationConfig(n_sites=N_SITES, seed=SEED))

    def test_population_sites_change_fingerprint(self):
        a = population_fingerprint(PopulationConfig(n_sites=10, seed=1))
        b = population_fingerprint(PopulationConfig(n_sites=11, seed=1))
        assert a != b

    def test_cache_key_inputs_are_pinned(self):
        """The shard-store key's inputs, pinned to literal digests: a
        change that moved one would turn every store entry into a
        miss without failing anything else."""
        config_fp = config_fingerprint(CrawlConfig())
        population_fp = population_fingerprint(PopulationConfig())
        assert config_fp == ("6723a1402e35ad6f009fa1a4c066b9a5"
                             "a36a9ec0009cba69487123f68fe74b94")
        assert population_fp == ("af805380292add231ced6284aabaf9e0"
                                 "0e628dd35f08415a8d1958ba0a7df7e1")
        key = ShardKeyFactory(population_fp, config_fp, True) \
            .key_for(range(1, 257))
        assert key == ("325d9d0e35b1b009a092907816f6ab33"
                       "323bb11a32f13ea63fdd126450a83bae")

    def test_config_fingerprint_covers_guard_switches(self):
        base = CrawlConfig(seed=1)
        variants = [
            CrawlConfig(seed=1, install_guard=True),
            CrawlConfig(seed=1, install_guard=True, guard_uncloak_dns=True),
            CrawlConfig(seed=1, interact=False),
            CrawlConfig(seed=1, max_clicks=1),
        ]
        fingerprints = {config_fingerprint(c) for c in [base] + variants}
        assert len(fingerprints) == len(variants) + 1


# ---------------------------------------------------------------------------
# The slow distributed determinism matrix (CI: determinism-matrix job)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestDistributedMatrix:
    """Backend × compression, all bit-identical."""

    @pytest.mark.parametrize("backend_name",
                             ["inprocess", "pool", "subprocess"])
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_full_matrix_matches_serial(self, small_population,
                                        serial_stream, tmp_path,
                                        backend_name, compress):
        backend = make_backend(backend_name, jobs=2)
        coordinator = Coordinator(small_population, CrawlConfig(seed=SEED),
                                  backend=backend, compress=compress)
        report = coordinator.run(tmp_path / "out", n_shards=N_SHARDS)
        assert report.executed_shards == N_SHARDS
        assert _stream(load_logs(tmp_path / "out")) == serial_stream

    def test_warm_cache_matches_serial(self, small_population,
                                       serial_stream, tmp_path):
        store = ShardStore(tmp_path / "cache")
        Coordinator(small_population, CrawlConfig(seed=SEED),
                    store=store).run(tmp_path / "cold", n_shards=N_SHARDS)
        warm = Coordinator(small_population, CrawlConfig(seed=SEED),
                           store=store)
        report = warm.run(tmp_path / "warm", n_shards=N_SHARDS)
        assert report.visits_executed == 0
        assert _stream(load_logs(tmp_path / "warm")) == serial_stream


# ---------------------------------------------------------------------------
# Crash-resume: torn journal tails (the crash window _append leaves open)
# ---------------------------------------------------------------------------

def _journal_header(n_shards=2):
    records = [{"event": "plan", "version": QUEUE_VERSION, "run_key": "k",
                "n_shards": n_shards}]
    records += [{"event": "task", "index": i, "ranks": [2 * i + 1, 2 * i + 2]}
                for i in range(n_shards)]
    return records


class TestTornJournalTail:
    """A crash mid-append leaves a truncated final line; loading must
    tolerate exactly that — and nothing more."""

    def test_torn_final_line_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / QUEUE_NAME
        records = _journal_header() + [
            {"event": "lease", "index": 0, "attempt": 1, "worker": "w"},
        ]
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        torn = json.dumps({"event": "done", "index": 0,
                           "file": "shard-0000.jsonl", "count": 2,
                           "sha256": "abc", "source": "crawl"})
        path.write_text(text + torn[:len(torn) // 2])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            queue = WorkQueue.load(path)
        # The torn done never happened: the lease is a lost worker and
        # the shard is replayed (idempotent re-execution is safe).
        assert queue.tasks[0].state == "pending"
        assert queue.tasks[0].attempts == 1
        assert queue.tasks[1].state == "pending"

    def test_mid_file_corruption_still_hard_errors(self, tmp_path):
        path = tmp_path / QUEUE_NAME
        records = _journal_header()
        lines = [json.dumps(r) for r in records]
        lines[1] = lines[1][:10]                 # torn, but NOT the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CoordinationError, match="corrupt queue"):
            WorkQueue.load(path)

    def test_torn_tail_does_not_mask_semantic_errors(self, tmp_path):
        """Only undecodable JSON is tolerated at the tail; a final line
        that parses but is semantically wrong stays a hard error."""
        path = tmp_path / QUEUE_NAME
        records = _journal_header() + [
            {"event": "no-such-event", "index": 0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(CoordinationError, match="unknown event"):
            WorkQueue.load(path)

    def test_resume_after_torn_append(self, small_population, serial_stream,
                                      tmp_path):
        """Integration: truncate the journal mid-byte after a full run;
        a resuming coordinator replays the lost shard and converges to
        the serial bytes.  (This load crashed with CoordinationError
        before torn-tail tolerance existed.)"""
        out = tmp_path / "out"
        Coordinator(small_population, CrawlConfig(seed=SEED)).run(
            out, n_shards=N_SHARDS)
        queue_path = out / QUEUE_NAME
        raw = queue_path.read_bytes().rstrip(b"\n")
        queue_path.write_bytes(raw[:-7])         # tear the last done record
        resumed = Coordinator(small_population, CrawlConfig(seed=SEED),
                              backend=CountingBackend())
        with pytest.warns(RuntimeWarning, match="torn final line"):
            report = resumed.run(out, n_shards=N_SHARDS)
        assert report.executed_shards == 1       # only the torn-away shard
        assert report.reused_shards == N_SHARDS - 1
        assert _stream(load_logs(out)) == serial_stream


# ---------------------------------------------------------------------------
# Every journal prefix (CI: coordinator-faults job)
# ---------------------------------------------------------------------------

PREFIX_SITES = 24


def _shards_and_manifest(out_dir):
    """The output bytes a resumed crawl must reproduce."""
    return {path.name: path.read_bytes()
            for path in sorted(Path(out_dir).iterdir())
            if path.name.startswith("shard-") or path.name == "manifest.json"}


class TestJournalPrefixes:
    """Each byte prefix of a finished crawl's ``queue.jsonl`` is what a
    crash at that byte leaves behind.  Loading it must give exactly the
    state ``_apply`` folds from the prefix's whole records, or refuse it
    with :class:`CoordinationError`, and a coordinator resumed from it
    must write the golden shard and manifest bytes."""

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        population = generate_population(
            PopulationConfig(n_sites=PREFIX_SITES, seed=SEED))
        out = tmp_path_factory.mktemp("journal-golden")
        Coordinator(population, CrawlConfig(seed=SEED)).run(
            out, n_shards=N_SHARDS)
        return population, out

    @staticmethod
    def _fold(lines):
        """The reference replay: ``_apply`` over the whole records after
        the plan header, then lost leases pending again."""
        tasks = {}
        for line in lines[1:]:
            _apply(tasks, json.loads(line))
        for task in tasks.values():
            if task.state == "leased":
                task.state = "pending"
        return tasks

    def test_every_byte_prefix_loads_its_fold_or_is_refused(self, finished,
                                                           tmp_path):
        _population, golden = finished
        data = (golden / QUEUE_NAME).read_bytes()
        lines = data.decode("ascii").splitlines()
        # Line i spans [starts[i], ends[i]) without its newline.
        starts, ends, offset = [], [], 0
        for line in lines:
            starts.append(offset)
            ends.append(offset + len(line))
            offset += len(line) + 1
        assert offset == len(data)
        header = 1 + N_SHARDS
        path = tmp_path / QUEUE_NAME
        refused = 0
        for n in range(len(data) + 1):
            path.write_bytes(data[:n])
            whole = [line for line, end in zip(lines, ends) if end <= n]
            torn = any(start < n < end for start, end in zip(starts, ends))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    queue = WorkQueue.load(path)
                except CoordinationError:
                    assert len(whole) < header, n
                    refused += 1
                    continue
            assert len(whole) >= header, n
            assert queue.run_key == json.loads(whole[0])["run_key"]
            assert queue.tasks == self._fold(whole), n
            torn_warnings = [w for w in caught
                             if issubclass(w.category, RuntimeWarning)
                             and "torn final line" in str(w.message)]
            assert len(torn_warnings) == int(torn), n
        # Exactly the prefixes shorter than the plan header are refused.
        assert refused == ends[header - 1]
        assert len(lines) == header + 2 * N_SHARDS   # a lease, a done each

    def test_resume_from_every_record_boundary_and_torn_record(
            self, finished, tmp_path):
        population, golden = finished
        expected = _shards_and_manifest(golden)
        lines = (golden / QUEUE_NAME).read_bytes().splitlines(keepends=True)
        header = 1 + N_SHARDS
        cuts = []
        for k in range(len(lines) - header + 1):
            whole = b"".join(lines[:header + k])
            cuts.append(whole)
            if header + k < len(lines):
                following = lines[header + k]
                cuts.append(whole + following[:len(following) // 2])
        for i, cut in enumerate(cuts):
            out = tmp_path / f"cut-{i:02d}"
            out.mkdir()
            (out / QUEUE_NAME).write_bytes(cut)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                done = [task for task in
                        WorkQueue.load(out / QUEUE_NAME).in_order()
                        if task.state == "done"]
                # The crash left the shards the prefix records as done.
                for task in done:
                    (out / task.file).write_bytes(
                        (golden / task.file).read_bytes())
                report = Coordinator(population, CrawlConfig(seed=SEED)) \
                    .run(out, n_shards=N_SHARDS)
            assert report.reused_shards == len(done), i
            assert report.executed_shards == N_SHARDS - len(done), i
            assert _shards_and_manifest(out) == expected, i


# ---------------------------------------------------------------------------
# Worker protocol: the result log survives a parse failure
# ---------------------------------------------------------------------------

class TestWorkerLogRetention:
    def _finish(self, tmp_path, log_text):
        from types import SimpleNamespace
        backend = SubprocessBackend(jobs=1)
        log_path = tmp_path / ".worker-0000.log"
        log_path.write_text(log_text)
        task = ShardTask(index=0, ranks=(1,))
        proc = SimpleNamespace(returncode=0)
        return backend._finish(task, proc, log_path), log_path

    def test_unparseable_result_keeps_log_and_names_it(self, tmp_path):
        """Before the fix, _finish unlinked the log before scanning it
        for a result line — destroying the only diagnostic evidence of
        what the worker actually printed."""
        outcome, log_path = self._finish(
            tmp_path, "Traceback (most recent call last):\n  boom\n")
        assert not outcome.ok
        assert str(log_path) in outcome.error
        assert log_path.exists()                 # evidence survives
        assert "boom" in log_path.read_text()

    def test_successful_parse_unlinks_log(self, tmp_path):
        result = json.dumps({"file": "shard-0000.jsonl", "count": 1,
                             "sha256": "abc"})
        outcome, log_path = self._finish(
            tmp_path, f"some stderr chatter\n{result}\n")
        assert outcome.ok and outcome.sha256 == "abc"
        assert not log_path.exists()             # clean on success

    def test_nonzero_exit_reports_tail(self, tmp_path):
        from types import SimpleNamespace
        backend = SubprocessBackend(jobs=1)
        log_path = tmp_path / ".worker-0000.log"
        log_path.write_text("x\nlast line of output\n")
        task = ShardTask(index=0, ranks=(1,))
        outcome = backend._finish(task, SimpleNamespace(returncode=3),
                                  log_path)
        assert not outcome.ok
        assert "exited 3" in outcome.error
        assert "last line of output" in outcome.error


# ---------------------------------------------------------------------------
# Durability: completions reach stable storage before anyone acts on them
# ---------------------------------------------------------------------------

class TestDurabilityFsync:
    @pytest.fixture()
    def fsync_calls(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_queue_appends_fsync(self, tmp_path, fsync_calls):
        # Build via journal replay to avoid depending on plan internals.
        path = tmp_path / QUEUE_NAME
        path.write_text("\n".join(json.dumps(r) for r in _journal_header(1))
                        + "\n")
        queue = WorkQueue.load(path)
        task = queue.tasks[0]
        before = len(fsync_calls)
        queue.lease(task, worker="w")
        queue.done(task, file="shard-0000.jsonl", count=2, sha256="abc",
                   source="crawl")
        queue.fail(task, error="x")
        assert len(fsync_calls) == before + 3    # one fsync per append

    def test_manifest_save_fsyncs_tmp_before_rename(self, tmp_path,
                                                    fsync_calls):
        manifest = ShardManifest(n_shards=1, total=1, compress=False,
                                 files=("shard-0000.jsonl",), counts=(1,),
                                 digests=("0" * 64,))
        before = len(fsync_calls)
        manifest.save(tmp_path)
        assert len(fsync_calls) == before + 1
        assert ShardManifest.load(tmp_path).to_dict() == manifest.to_dict()


# ---------------------------------------------------------------------------
# Lease deadlines: hung workers are killed, evidenced, and retried
# ---------------------------------------------------------------------------

class TestTaskDeadline:
    def test_subprocess_backend_rejects_nonpositive_timeout(self):
        for bad in (0, -1.5, float("nan")):
            with pytest.raises(ValueError):
                SubprocessBackend(task_timeout=bad)

    def test_timeout_reaches_only_the_subprocess_backend(self):
        """A deadline the chosen backend cannot enforce is refused, not
        silently ignored."""
        assert make_backend("subprocess",
                            task_timeout=12.5).task_timeout == 12.5
        for name, jobs in (("inprocess", 1), ("pool", 2), (None, 1),
                           (None, 2)):
            with pytest.raises(ValueError, match="--backend subprocess"):
                make_backend(name, jobs=jobs, task_timeout=12.5)
        assert make_backend(None, jobs=2).name == "pool"

    def test_kill_on_deadline_preserves_log_and_names_it(self, tmp_path):
        import subprocess
        import sys
        backend = SubprocessBackend(jobs=1, task_timeout=1.5)
        log_path = tmp_path / ".worker-0000-a01.log"
        log_path.write_text("partial worker chatter\n")
        task = ShardTask(index=0, ranks=(1,), attempts=1)
        proc = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(600)"])
        outcome = backend._kill_on_deadline(task, proc, log_path)
        assert proc.poll() is not None          # actually dead
        assert not outcome.ok
        assert outcome.index == 0
        assert "exceeded task deadline" in outcome.error
        assert "1.5" in outcome.error
        assert str(log_path) in outcome.error   # evidence is named...
        assert log_path.exists()                # ...and survives
        assert "partial worker chatter" in log_path.read_text()

    def test_attempt_suffixed_logs_never_clobber_prior_evidence(self):
        # The poll loop names logs .worker-NNNN-aAA.log by lease
        # attempt, so a deadline-killed attempt's kept log can't be
        # truncated by its own retry reopening the same filename.
        first = f".worker-{0:04d}-a{1:02d}.log"
        retry = f".worker-{0:04d}-a{2:02d}.log"
        assert first != retry
