"""Pluggable ShardStore backends and the HTTP store service.

The contract under test: every backend moves opaque blobs with
meta-as-commit-record semantics (a torn upload is a miss), while every
*guarantee* — digest verification, eviction of corrupt entries,
bit-identical crawl output — lives in :class:`ShardStore` above the
seam and therefore holds identically for local directories, in-memory
stores, and a ``store-serve`` endpoint reached over HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import urllib.request

import pytest

from repro.crawler import (
    Coordinator,
    CrawlConfig,
    Crawler,
    HTTPStoreBackend,
    InMemoryBackend,
    LocalDirectoryBackend,
    RetryPolicy,
    ShardStore,
    StoreBackendError,
    load_logs,
)
from repro.crawler.distributed import WorkSpec, run_shard_worker
from repro.crawler.storebackends import META_NAME
from repro.faults import FaultPlan, FaultPoint
from repro.ecosystem import PopulationConfig, generate_population
from repro.serve import make_store_server

N_SITES = 48
SEED = 2025
KEY = hashlib.sha256(b"entry").hexdigest()


@pytest.fixture()
def store_server(tmp_path):
    """A live store-serve endpoint over ``tmp_path/remote`` (loopback)."""
    server = make_store_server(tmp_path / "remote", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(params=["local", "memory", "http"])
def backend(request, tmp_path):
    if request.param == "local":
        yield LocalDirectoryBackend(tmp_path / "store")
    elif request.param == "memory":
        yield InMemoryBackend()
    else:
        server = make_store_server(tmp_path / "remote", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield HTTPStoreBackend(
                f"http://{server.server_address[0]}:"
                f"{server.server_address[1]}")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestBackendContract:
    def test_roundtrip_exact_bytes(self, backend):
        blobs = {"shard.jsonl": b'{"x": 1}\n' * 100,
                 "shard.index.json": b'{"version": 1}\n',
                 META_NAME: b'{"sha256": "abc"}\n'}
        backend.put(KEY, blobs)
        assert backend.exists(KEY)
        for name, data in blobs.items():
            assert backend.get(KEY, name) == data

    def test_missing_blob_is_none(self, backend):
        assert backend.get(KEY, "shard.jsonl") is None
        assert not backend.exists(KEY)

    def test_torn_upload_without_meta_is_a_miss(self, backend):
        # Data arrived but the committing meta blob never did: the
        # entry must read as absent, ready to be published later.
        backend.put(KEY, {"shard.jsonl": b"half an upload"})
        assert not backend.exists(KEY)
        assert backend.get(KEY, "shard.jsonl") == b"half an upload"

    def test_evict_is_idempotent_and_complete(self, backend):
        backend.evict(KEY)  # evicting a missing entry is a no-op
        backend.put(KEY, {"shard.jsonl": b"data", META_NAME: b"{}"})
        backend.evict(KEY)
        backend.evict(KEY)
        assert not backend.exists(KEY)
        assert backend.get(KEY, "shard.jsonl") is None

    def test_put_overwrites_in_place(self, backend):
        backend.put(KEY, {"shard.jsonl": b"v1", META_NAME: b"m1"})
        backend.put(KEY, {"shard.jsonl": b"v2", META_NAME: b"m2"})
        assert backend.get(KEY, "shard.jsonl") == b"v2"
        assert backend.get(KEY, META_NAME) == b"m2"


class TestStoreFaults:
    """Corruption costs a re-crawl, never wrong bytes."""

    def _seeded_store(self, tmp_path, backend):
        store = ShardStore(backend)
        payload = tmp_path / "shard-0000.jsonl"
        payload.write_text('{"rank": 1}\n')
        store.put(KEY, payload, count=1, compress=False)
        return store, payload.read_bytes()

    def test_digest_mismatch_evicts_and_misses(self, tmp_path):
        backend = InMemoryBackend()
        store, _ = self._seeded_store(tmp_path, backend)
        backend._entries[KEY]["shard.jsonl"] = b"corrupted bytes"
        assert store.fetch(KEY, tmp_path / "out", 0) is None
        assert not store.contains(KEY)  # the poisoned entry is gone

    def test_local_on_disk_corruption_evicts(self, tmp_path):
        backend = LocalDirectoryBackend(tmp_path / "cache")
        store, _ = self._seeded_store(tmp_path, backend)
        blob = backend._entry_dir(KEY) / "shard.jsonl"
        blob.write_bytes(b"flipped")
        assert store.fetch(KEY, tmp_path / "out", 0) is None
        assert not store.contains(KEY)

    def test_recrawl_after_corruption_republishes_cleanly(self, tmp_path):
        backend = InMemoryBackend()
        store, original = self._seeded_store(tmp_path, backend)
        backend._entries[KEY]["shard.jsonl"] = b"corrupted bytes"
        assert store.fetch(KEY, tmp_path / "out", 0) is None
        payload = tmp_path / "recrawled.jsonl"
        payload.write_bytes(original)
        store.put(KEY, payload, count=1, compress=False)
        fetched = store.fetch(KEY, tmp_path / "out", 0)
        assert fetched is not None
        assert (tmp_path / "out" / "shard-0000.jsonl").read_bytes() \
            == original

    def test_unparseable_meta_is_a_miss(self, tmp_path):
        backend = InMemoryBackend()
        store, _ = self._seeded_store(tmp_path, backend)
        backend._entries[KEY][META_NAME] = b"not json"
        assert store.fetch(KEY, tmp_path / "out", 0) is None


class TestHTTPService:
    def test_healthz(self, store_server):
        with urllib.request.urlopen(f"{store_server}/healthz") as response:
            assert json.load(response) == {"status": "ok"}

    def test_invalid_keys_and_names_are_unroutable(self, store_server):
        backend = HTTPStoreBackend(store_server)
        # Traversal components never match the key/name grammar, so the
        # server 404s them before any path is built.
        assert backend.get("..", "shard.jsonl") is None
        assert backend.get(KEY, "..") is None
        assert backend.get("ZZ-not-hex", META_NAME) is None

    def test_unreachable_store_raises_not_misses(self):
        backend = HTTPStoreBackend("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(StoreBackendError):
            backend.get(KEY, META_NAME)

    def test_http_and_local_views_of_one_directory_agree(self, tmp_path,
                                                         store_server):
        over_http = HTTPStoreBackend(store_server)
        over_http.put(KEY, {"shard.jsonl": b"data", META_NAME: b"{}"})
        direct = LocalDirectoryBackend(tmp_path / "remote")
        assert direct.exists(KEY)
        assert direct.get(KEY, "shard.jsonl") == b"data"
        direct.put(KEY, {"extra.json": b"[]"})
        assert over_http.get(KEY, "extra.json") == b"[]"


class TestRemoteStoreEndToEnd:
    def test_remote_cache_matches_local_and_serves_warm_runs(
            self, tmp_path, store_server):
        population = generate_population(
            PopulationConfig(n_sites=N_SITES, seed=SEED))
        config = CrawlConfig(seed=SEED)

        cold = Coordinator(population, config, store=ShardStore(store_server))
        cold_report = cold.run(tmp_path / "cold", n_shards=3)
        assert cold_report.cached_shards == 0
        assert cold_report.visits_executed == N_SITES

        # Warm run against the remote store: zero visits, full reuse.
        warm = Coordinator(population, config, store=ShardStore(store_server))
        warm_report = warm.run(tmp_path / "warm", n_shards=3)
        assert warm_report.visits_executed == 0
        assert warm_report.cached_shards == 3

        # Bit-identical to a local-directory-store run.
        local = Coordinator(population, config,
                            store=ShardStore(tmp_path / "local-cache"))
        local.run(tmp_path / "local", n_shards=3)
        for index in range(3):
            name = f"shard-{index:04d}.jsonl"
            assert (tmp_path / "warm" / name).read_bytes() \
                == (tmp_path / "local" / name).read_bytes()
        assert cold_report.manifest == warm_report.manifest

        # The served directory doubles as a local store, unchanged layout.
        direct = Coordinator(population, config,
                             store=ShardStore(tmp_path / "remote"))
        direct_report = direct.run(tmp_path / "direct", n_shards=3)
        assert direct_report.visits_executed == 0
        assert direct_report.cached_shards == 3

    def test_worker_consults_remote_cache_directly(self, tmp_path,
                                                   store_server):
        """A bare crawl-shard worker given ``--cache-dir URL`` serves a
        warm shard from the shared store without synthesizing a site."""
        from repro.crawler import ShardPlan
        population = generate_population(
            PopulationConfig(n_sites=N_SITES, seed=SEED))
        config = CrawlConfig(seed=SEED)
        report = Coordinator(population, config,
                             store=ShardStore(store_server)).run(
            tmp_path / "seed-run", n_shards=2)

        plan = ShardPlan.for_population(population, 2)
        spec = WorkSpec.build(population, config, plan, compress=False)
        (tmp_path / "worker").mkdir()
        spec_path = spec.save(tmp_path / "worker")
        results = [run_shard_worker(spec_path, index,
                                    cache_dir=store_server)
                   for index in range(2)]
        assert [r["sha256"] for r in results] \
            == list(report.manifest.digests)
        for r in results:
            assert (tmp_path / "worker" / r["file"]).read_bytes() \
                == (tmp_path / "seed-run" / r["file"]).read_bytes()
        serial = Crawler(population, config).crawl()
        assert [log.to_dict() for log in
                sorted(load_logs(tmp_path / "seed-run"),
                       key=lambda l: l.rank)] \
            == [log.to_dict() for log in serial]


def _rogue_server(conversation):
    """A one-request-at-a-time socket server speaking broken HTTP.

    ``conversation(conn)`` decides how to mistreat each client.  Models
    the failure classes urllib does *not* wrap into URLError: a garbage
    status line and a body shorter than its Content-Length.
    """
    server = socket.create_server(("127.0.0.1", 0))

    def loop():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            with conn:
                try:
                    conversation(conn)
                except OSError:
                    pass

    threading.Thread(target=loop, daemon=True).start()
    return server, f"http://127.0.0.1:{server.getsockname()[1]}"


class TestConnectionFailureIsNeverAMiss:
    """Satellite contract: broken transport raises, never misses.

    Before the fix, ``http.client.BadStatusLine`` and ``IncompleteRead``
    escaped ``HTTPStoreBackend`` as raw exceptions (or worse, turned
    into a "miss" upstream) because urllib only wraps errors raised
    while *opening* the connection.  Each scenario here must surface as
    :class:`StoreBackendError` — a cache miss answer is how a healthy
    store says "re-crawl"; a broken wire must never impersonate it.
    """

    NO_RETRY = RetryPolicy(attempts=1)

    def test_garbage_status_line_raises(self):
        def slam(conn):
            conn.recv(65536)
            conn.sendall(b"this is not http\r\n")

        server, url = _rogue_server(slam)
        try:
            backend = HTTPStoreBackend(url, timeout=2.0,
                                       retry=self.NO_RETRY)
            with pytest.raises(StoreBackendError):
                backend.get(KEY, META_NAME)
            with pytest.raises(StoreBackendError):
                backend.exists(KEY)
        finally:
            server.close()

    def test_truncated_body_raises(self):
        def truncate(conn):
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Length: 4096\r\n\r\n"
                         b"only this much")

        server, url = _rogue_server(truncate)
        try:
            backend = HTTPStoreBackend(url, timeout=2.0,
                                       retry=self.NO_RETRY)
            with pytest.raises(StoreBackendError):
                backend.get(KEY, META_NAME)
        finally:
            server.close()

    def test_connection_slam_mid_service_retries_through(self, tmp_path):
        # A store-serve that drops one connection per method without a
        # status line (kind="close"): the retrying client rides it out.
        plan = FaultPlan([FaultPoint("http.response", kind="close",
                                     times=1)], seed=1)
        server = make_store_server(tmp_path / "remote", port=0,
                                   fault_plan=plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = (f"http://{server.server_address[0]}:"
                   f"{server.server_address[1]}")
            backend = HTTPStoreBackend(
                url, retry=RetryPolicy(attempts=3, backoff=0.01))
            backend.put(KEY, {META_NAME: b"{}"})   # PUT slammed once
            assert backend.get(KEY, META_NAME) == b"{}"  # GET slammed once
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestRetryPolicy:
    def test_delay_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=6, backoff=0.25)
        assert [policy.delay(i) for i in range(5)] \
            == [0.25, 0.5, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("kwargs", [
        {"attempts": 0}, {"backoff": -0.1},
    ])
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def _flaky_server(self, tmp_path, times):
        plan = FaultPlan([FaultPoint("http.response", kind="http-503",
                                     times=times)], seed=1)
        server = make_store_server(tmp_path / "remote", port=0,
                                   fault_plan=plan)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = (f"http://{server.server_address[0]}:"
               f"{server.server_address[1]}")
        return server, thread, url

    def test_get_retries_503_with_backoff_then_succeeds(self, tmp_path):
        server, thread, url = self._flaky_server(tmp_path, times=2)
        try:
            policy = RetryPolicy(attempts=3, backoff=0.05)
            backend = HTTPStoreBackend(url, retry=policy)
            delays = []
            backend._sleep = delays.append
            backend.put(KEY, {META_NAME: b"{}"})
            assert backend.get(KEY, META_NAME) == b"{}"
            # times=2 caps per method scope: the PUT and the GET each
            # rode out two 503s on the policy's exponential schedule.
            assert delays == [policy.delay(0), policy.delay(1)] * 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        server, thread, url = self._flaky_server(tmp_path, times=None)
        try:
            policy = RetryPolicy(attempts=3, backoff=0.01)
            backend = HTTPStoreBackend(url, retry=policy)
            delays = []
            backend._sleep = delays.append
            with pytest.raises(StoreBackendError):
                backend.get(KEY, META_NAME)
            assert len(delays) == policy.attempts - 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_delete_is_not_idempotent_safe_and_fails_fast(self, tmp_path):
        server, thread, url = self._flaky_server(tmp_path, times=None)
        try:
            backend = HTTPStoreBackend(
                url, retry=RetryPolicy(attempts=5, backoff=0.01))
            delays = []
            backend._sleep = delays.append
            with pytest.raises(StoreBackendError):
                backend.evict(KEY)
            assert delays == []   # DELETE gets exactly one attempt
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_miss_is_not_retried(self, store_server):
        backend = HTTPStoreBackend(
            store_server, retry=RetryPolicy(attempts=5, backoff=0.01))
        delays = []
        backend._sleep = delays.append
        assert backend.get(KEY, META_NAME) is None   # honest 404
        assert delays == []


class TestLocalPutDurability:
    """Satellite contract: blob bytes are fsynced before the rename."""

    def test_every_blob_fsyncs_before_replace(self, tmp_path,
                                              monkeypatch):
        synced = []
        replaced = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            synced.append(len(replaced))   # replaces seen so far
            return real_fsync(fd)

        def spy_replace(src, dst):
            replaced.append(str(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        backend = LocalDirectoryBackend(tmp_path / "store")
        backend.put(KEY, {"shard.jsonl": b"data", META_NAME: b"{}"})
        # Two blobs -> two fsyncs, each before its own rename landed.
        assert synced == [0, 1]
        assert [dst.rsplit("/", 1)[1] for dst in replaced] \
            == ["shard.jsonl", META_NAME]   # meta commits last
        assert not list((tmp_path / "store").rglob("*.tmp"))


class TestTornMeta:
    """Satellite contract: a torn meta.json is a miss, never a
    corrupt-but-present entry that poisons every later fetch."""

    def _published(self, tmp_path):
        backend = LocalDirectoryBackend(tmp_path / "cache")
        store = ShardStore(backend)
        payload = tmp_path / "shard-0000.jsonl"
        payload.write_text('{"rank": 1}\n')
        store.put(KEY, payload, count=1, compress=False)
        return backend, store, payload.read_bytes()

    def test_meta_absent_is_a_clean_miss(self, tmp_path):
        backend, store, _ = self._published(tmp_path)
        (backend._entry_dir(KEY) / META_NAME).unlink()
        assert not store.contains(KEY)
        assert store.fetch(KEY, tmp_path / "out", 0) is None

    def test_leftover_tmp_is_not_a_commit(self, tmp_path):
        backend, store, _ = self._published(tmp_path)
        entry = backend._entry_dir(KEY)
        (entry / META_NAME).rename(entry / (META_NAME + ".tmp"))
        assert not store.contains(KEY)
        assert store.fetch(KEY, tmp_path / "out", 0) is None

    def test_garbage_meta_is_evicted_not_poisonous(self, tmp_path):
        backend, store, original = self._published(tmp_path)
        (backend._entry_dir(KEY) / META_NAME).write_bytes(b'{"count"')
        assert store.fetch(KEY, tmp_path / "out", 0) is None
        # The half-written commit record is gone, not lingering where
        # contains() would keep answering True forever.
        assert not store.contains(KEY)
        assert not backend.exists(KEY)
        payload = tmp_path / "again.jsonl"
        payload.write_bytes(original)
        store.put(KEY, payload, count=1, compress=False)
        fetched = store.fetch(KEY, tmp_path / "out", 0)
        assert fetched is not None
        assert (tmp_path / "out" / "shard-0000.jsonl").read_bytes() \
            == original
