"""The seeded fault-injection layer and the chaos matrix.

Two contracts under test.  First, :mod:`repro.faults` itself: a fault
schedule is a pure function of ``(seed, plan spec)`` — reproducible
across plan instances and across processes (state-dir counters), with
``times``/``after``/``rate`` pacing each ``(point, scope)`` stream
independently.  Second — the acceptance bar for the whole resilience
stack — every seeded fault schedule (store outage → spill + reconcile,
HTTP 5xx flaps → backoff retry, torn journal/shard writes, killed and
hung workers → lease-deadline kill) completes and reproduces the
fault-free golden run's shard bytes and manifest exactly.  Faults and
their knobs are scheduling, never output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.crawler import (
    Coordinator,
    CrawlConfig,
    HTTPStoreBackend,
    InMemoryBackend,
    RetryPolicy,
    ShardStore,
    StoreBackendError,
    SubprocessBackend,
)
from repro.crawler.distributed import shard_key
from repro.ecosystem import PopulationConfig, generate_population
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPoint,
    FaultyBackend,
    InjectedFault,
    active_plan,
    clear_plan,
    install_plan,
    maybe_fire,
)
from repro.serve import make_store_server

N_SITES = 48
SEED = 2025
N_SHARDS = 3
KEY = "ab" * 32


@pytest.fixture(autouse=True)
def _no_plan_leaks(monkeypatch):
    """Every test starts and ends without an ambient fault plan."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(n_sites=N_SITES, seed=SEED))


def _dataset_bytes(out_dir):
    """Shard + manifest bytes — the byte-identity the matrix asserts."""
    out_dir = Path(out_dir)
    data = {path.name: path.read_bytes()
            for path in sorted(out_dir.glob("shard-*.jsonl"))}
    data["manifest.json"] = (out_dir / "manifest.json").read_bytes()
    return data


@pytest.fixture(scope="module")
def golden(population, tmp_path_factory):
    """The fault-free run every chaos schedule must reproduce."""
    out = tmp_path_factory.mktemp("golden") / "crawl"
    report = Coordinator(population, CrawlConfig(seed=SEED)).run(
        out, n_shards=N_SHARDS)
    assert report.visits_executed == N_SITES
    return _dataset_bytes(out)


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        fire = lambda plan: [plan.fires("p", "s") is not None
                             for _ in range(64)]
        a = fire(FaultPlan([FaultPoint("p", rate=0.5)], seed=11))
        b = fire(FaultPlan([FaultPoint("p", rate=0.5)], seed=11))
        assert a == b
        assert 8 < sum(a) < 56  # an actual Bernoulli stream, not all/none

    def test_different_seed_different_schedule(self):
        fire = lambda plan: [plan.fires("p", "s") is not None
                             for _ in range(64)]
        a = fire(FaultPlan([FaultPoint("p", rate=0.5)], seed=1))
        b = fire(FaultPlan([FaultPoint("p", rate=0.5)], seed=2))
        assert a != b

    def test_scopes_are_independent_streams(self):
        plan = FaultPlan([FaultPoint("p", times=1)], seed=3)
        assert plan.fires("p", "0") is not None
        assert plan.fires("p", "0") is None      # capped for this scope
        assert plan.fires("p", "1") is not None  # fresh stream

    def test_after_skips_leading_evaluations(self):
        plan = FaultPlan([FaultPoint("p", after=2)], seed=3)
        assert [plan.fires("p") is not None for _ in range(4)] \
            == [False, False, True, True]

    def test_unknown_point_never_fires(self):
        plan = FaultPlan([FaultPoint("p")], seed=3)
        assert plan.fires("other") is None

    def test_spec_roundtrip(self, tmp_path):
        plan = FaultPlan([FaultPoint("a", kind="hang", rate=0.25, times=2,
                                     after=1, arg=30.0),
                          FaultPoint("b")],
                         seed=9, state_dir=tmp_path / "state")
        clone = FaultPlan.from_spec(json.loads(json.dumps(plan.to_spec())))
        assert clone.to_spec() == plan.to_spec()
        assert clone.points == plan.points

    def test_state_dir_counters_survive_process_boundaries(self, tmp_path):
        # Two plan instances over one state_dir model a worker that
        # fired, died, and was retried in a fresh process: the fire is
        # on record, so the retry must not fire again.
        first = FaultPlan([FaultPoint("w", kind="crash", times=1)],
                          state_dir=tmp_path)
        assert first.fires("w", "4") is not None
        retry = FaultPlan([FaultPoint("w", kind="crash", times=1)],
                          state_dir=tmp_path)
        assert retry.fires("w", "4") is None
        assert retry.fires("w", "5") is not None

    def test_env_plumbing_installs_and_clears(self, tmp_path):
        plan = FaultPlan([FaultPoint("p")], seed=1,
                         state_dir=tmp_path / "state")
        install_plan(plan)
        assert active_plan() is plan
        assert maybe_fire("p") is not None
        clear_plan()
        assert active_plan() is None
        assert maybe_fire("p") is None

    def test_env_spec_hydrates_in_fresh_process_view(self, tmp_path,
                                                     monkeypatch):
        spec = FaultPlan([FaultPoint("p", times=1)], seed=5,
                         state_dir=tmp_path / "state").to_spec()
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(spec))
        assert maybe_fire("p", "x") is not None   # hydrated from env
        assert maybe_fire("p", "x") is None       # counters persist


class TestFaultyBackend:
    def test_error_kind_raises_store_backend_error(self):
        backend = FaultyBackend(
            InMemoryBackend(),
            FaultPlan([FaultPoint("store.get", times=1)], seed=1))
        with pytest.raises(StoreBackendError):
            backend.get(KEY, "meta.json")
        assert backend.get(KEY, "meta.json") is None  # budget spent

    def test_corrupt_get_costs_a_recrawl_never_wrong_bytes(self, tmp_path):
        inner = InMemoryBackend()
        store = ShardStore(FaultyBackend(
            inner, FaultPlan([FaultPoint("store.get", kind="corrupt",
                                         times=1, after=1)], seed=1)))
        payload = tmp_path / "shard-0000.jsonl"
        payload.write_text('{"rank": 1}\n')
        store.put(KEY, payload, count=1, compress=False)
        # after=1 lets the meta read through, then corrupts the data
        # read: the digest check must evict and miss.
        assert store.fetch(KEY, tmp_path / "out", 0) is None
        assert not inner.exists(KEY)

    def test_torn_put_leaves_a_publishable_miss(self, tmp_path):
        inner = InMemoryBackend()
        store = ShardStore(FaultyBackend(
            inner, FaultPlan([FaultPoint("store.put", kind="torn",
                                         times=1)], seed=1)))
        payload = tmp_path / "shard-0000.jsonl"
        payload.write_text('{"rank": 1}\n')
        store.put(KEY, payload, count=1, compress=False)
        assert not store.contains(KEY)               # no commit record
        assert inner.get(KEY, "shard.jsonl") is not None
        store.put(KEY, payload, count=1, compress=False)  # publish later
        assert store.contains(KEY)


class TestChaosMatrix:
    """Every seeded schedule reproduces the golden bytes exactly."""

    def test_store_outage_spills_then_reconciles(self, population, golden,
                                                 tmp_path):
        shared = InMemoryBackend()
        dead = FaultyBackend(shared, FaultPlan(
            [FaultPoint("store.get"), FaultPoint("store.put"),
             FaultPoint("store.exists"), FaultPoint("store.evict")],
            seed=7))
        overflow = tmp_path / "overflow"
        store = ShardStore(dead, overflow_dir=overflow)
        with pytest.warns(RuntimeWarning, match="shard store degraded"):
            report = Coordinator(population, CrawlConfig(seed=SEED),
                                 store=store).run(tmp_path / "cold",
                                                  n_shards=N_SHARDS)
        assert report.visits_executed == N_SITES   # nothing served
        assert store.stats["spilled"] == N_SHARDS  # everything spilled
        assert _dataset_bytes(tmp_path / "cold") == golden

        # The store comes back: reconcile moves the spill, and a warm
        # run serves every shard from the shared store with zero visits.
        healed = ShardStore(shared, overflow_dir=overflow)
        assert healed.reconcile_overflow() == N_SHARDS
        assert not list((overflow / "objects").glob("*/*"))
        warm = Coordinator(population, CrawlConfig(seed=SEED),
                           store=ShardStore(shared)).run(
            tmp_path / "warm", n_shards=N_SHARDS)
        assert warm.visits_executed == 0
        assert warm.cached_shards == N_SHARDS
        assert _dataset_bytes(tmp_path / "warm") == golden

    def test_strict_store_still_fails_loudly(self, population, tmp_path):
        # Without an overflow dir the historical contract holds: a dead
        # store is an error, never silently degraded.
        dead = FaultyBackend(InMemoryBackend(),
                             FaultPlan([FaultPoint("store.get")], seed=7))
        with pytest.raises(StoreBackendError):
            Coordinator(population, CrawlConfig(seed=SEED),
                        store=ShardStore(dead)).run(tmp_path / "out",
                                                    n_shards=N_SHARDS)

    def test_http_5xx_flaps_are_retried_through(self, population, golden,
                                                tmp_path):
        import threading
        plan = FaultPlan([FaultPoint("http.response", kind="http-503",
                                     rate=0.3)], seed=13)
        server = make_store_server(tmp_path / "remote", port=0,
                                   fault_plan=plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = (f"http://{server.server_address[0]}:"
                   f"{server.server_address[1]}")
            retry = RetryPolicy(attempts=5, backoff=0.01)
            cold = Coordinator(
                population, CrawlConfig(seed=SEED),
                store=ShardStore(HTTPStoreBackend(url, retry=retry))).run(
                tmp_path / "cold", n_shards=N_SHARDS)
            assert cold.visits_executed == N_SITES
            assert _dataset_bytes(tmp_path / "cold") == golden
            warm = Coordinator(
                population, CrawlConfig(seed=SEED),
                store=ShardStore(HTTPStoreBackend(url, retry=retry))).run(
                tmp_path / "warm", n_shards=N_SHARDS)
            assert warm.visits_executed == 0
            assert warm.cached_shards == N_SHARDS
            assert _dataset_bytes(tmp_path / "warm") == golden
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_torn_journal_append_resumes_identically(self, population,
                                                     golden, tmp_path):
        # The 5th append (a mid-run done record) tears mid-line; the
        # "crashed" coordinator is then resumed over the same out dir.
        install_plan(FaultPlan([FaultPoint("journal.append", kind="torn",
                                           times=1, after=4)], seed=3))
        out = tmp_path / "crawl"
        with pytest.raises(InjectedFault):
            Coordinator(population, CrawlConfig(seed=SEED)).run(
                out, n_shards=N_SHARDS)
        clear_plan()
        with pytest.warns(RuntimeWarning, match="torn final line"):
            report = Coordinator(population, CrawlConfig(seed=SEED)).run(
                out, n_shards=N_SHARDS)
        assert report.manifest.n_shards == N_SHARDS
        assert _dataset_bytes(out) == golden

    def test_torn_shard_write_is_retried_in_run(self, population, golden,
                                                tmp_path):
        # Every shard's first write tears (times=1 caps per scope, and
        # the point scopes by shard index); each task fails once and the
        # same run's retries reproduce the digests the journal never saw.
        install_plan(FaultPlan([FaultPoint("storage.write_shard",
                                           kind="torn", times=1)], seed=3))
        out = tmp_path / "crawl"
        report = Coordinator(population, CrawlConfig(seed=SEED)).run(
            out, n_shards=N_SHARDS)
        assert report.retries == N_SHARDS
        assert _dataset_bytes(out) == golden

    def test_killed_workers_via_env_plan(self, population, golden,
                                         tmp_path, monkeypatch):
        # Every shard's worker crashes once (counters in state_dir keep
        # the cap across worker processes); retries finish the run.
        spec = FaultPlan([FaultPoint("worker.exec", kind="crash", times=1)],
                         seed=5, state_dir=tmp_path / "state").to_spec()
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(spec))
        out = tmp_path / "crawl"
        report = Coordinator(population, CrawlConfig(seed=SEED),
                             backend=SubprocessBackend(jobs=2),
                             max_retries=2).run(out, n_shards=N_SHARDS)
        assert report.retries == N_SHARDS
        assert _dataset_bytes(out) == golden

    def test_hung_workers_killed_on_deadline(self, population, golden,
                                             tmp_path, monkeypatch):
        # Every shard's worker hangs once; the lease deadline kills it,
        # preserves its log, and the retry reproduces the bytes.
        spec = FaultPlan([FaultPoint("worker.exec", kind="hang", times=1,
                                     arg=60.0)],
                         seed=5, state_dir=tmp_path / "state").to_spec()
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(spec))
        out = tmp_path / "crawl"
        report = Coordinator(population, CrawlConfig(seed=SEED),
                             backend=SubprocessBackend(jobs=N_SHARDS,
                                                       task_timeout=2.0),
                             max_retries=4).run(out, n_shards=N_SHARDS)
        # >= not ==: a busy host can push a legitimate retry past the
        # deadline too; what must hold is that every hang was killed
        # and the final bytes are golden.
        assert report.retries >= N_SHARDS
        assert _dataset_bytes(out) == golden
        journal = (out / "queue.jsonl").read_text(encoding="utf-8")
        assert "exceeded task deadline" in journal
        kept = sorted(p.name for p in out.glob(".worker-*-a01.log"))
        assert len(kept) == N_SHARDS   # the evidence survived the retry
        for line in journal.splitlines():
            record = json.loads(line)
            if record["event"] == "fail":
                assert ".log" in record["error"]

    def test_fault_and_retry_knobs_never_enter_keys(self, population):
        # task_timeout, retry policy, overflow: all scheduling.  The run
        # key and shard cache keys must be identical with or without.
        plain = Coordinator(population, CrawlConfig(seed=SEED))
        tuned = Coordinator(population, CrawlConfig(seed=SEED),
                            backend=SubprocessBackend(task_timeout=42.0),
                            max_retries=7)
        plan = plain.plan(N_SHARDS)
        assert plain._run_key(plan) == tuned._run_key(plan)
        for shard in plan:
            key = shard_key(plain.population_fp, plain.config_fp,
                            shard.ranks, False)
            assert key == shard_key(tuned.population_fp, tuned.config_fp,
                                    shard.ranks, False)


class TestReadiness:
    def test_readyz_distinct_from_healthz(self, tmp_path):
        import threading
        import urllib.request
        server = make_store_server(tmp_path / "remote", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = (f"http://{server.server_address[0]}:"
               f"{server.server_address[1]}")
        try:
            with urllib.request.urlopen(f"{url}/healthz") as response:
                assert json.load(response) == {"status": "ok"}
            with urllib.request.urlopen(f"{url}/readyz") as response:
                assert json.load(response) == {"status": "ready"}
            # A root that can't take writes keeps liveness but drops
            # readiness.  (chmod tricks don't bind under root, so point
            # the backend at a directory that no longer exists — the
            # same OSError path a full or yanked disk takes.)
            server.backend.root = tmp_path / "vanished"
            try:
                with urllib.request.urlopen(f"{url}/healthz") as response:
                    assert response.status == 200
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{url}/readyz")
                assert err.value.code == 503
                assert json.load(err.value)["status"] == "unavailable"
            finally:
                server.backend.root = tmp_path / "remote"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
