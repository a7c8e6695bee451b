"""The study-catalog HTTP service (``repro.serve``).

The contract under test: every response is a pure function of (shard
bytes, resource, canonical params) — ETags are stable across server
restarts, ``If-None-Match`` revalidation yields 304, and report bodies
are byte-identical to what an in-process ``Study`` over the same logs
computes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import os
import sys
import threading
import urllib.error
import urllib.request
from functools import cached_property
from pathlib import Path
from urllib.parse import quote

import pytest

import report_oracle as oracle
from repro.analysis import Study, default_entity_map
from repro.crawler import save_logs
from repro.serve import (StudyCatalog, canonical_resource, etag_matches,
                         make_server, parse_params, get_query, QueryError)
from repro.serve.app import render_json

N_SHARDS = 3


@pytest.fixture(scope="module")
def study_dir(crawl_logs, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-root")
    directory = root / "demo"
    directory.mkdir()
    save_logs(crawl_logs, directory, shards=N_SHARDS, compress=True)
    return root


@pytest.fixture(scope="module")
def server(study_dir):
    server = make_server(study_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def client(server):
    port = server.server_address[1]

    def get(path, headers=None, method="GET"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", headers=headers or {},
            method=method)
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, dict(response.headers), \
                    response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    return get


class TestRouting:
    def test_listing(self, client):
        status, headers, body = client("/studies")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert [s["id"] for s in payload["studies"]] == ["demo"]
        assert payload["studies"][0]["n_shards"] == N_SHARDS

    def test_study_summary_lists_reports(self, client):
        status, _, body = client("/studies/demo")
        assert status == 200
        payload = json.loads(body)
        assert payload["id"] == "demo"
        assert "top-exfiltrators" in payload["reports"]
        assert "summary" in payload["reports"]

    def test_shards_expose_manifest_digests(self, client, study_dir):
        from repro.crawler import ShardManifest
        manifest = ShardManifest.load(study_dir / "demo")
        status, _, body = client("/studies/demo/shards")
        assert status == 200
        rows = json.loads(body)["shards"]
        assert [r["sha256"] for r in rows] == list(manifest.digests)
        assert [r["count"] for r in rows] == list(manifest.counts)

    def test_site_returns_full_visit_log(self, client, crawl_logs):
        log = crawl_logs[5]
        status, _, body = client(f"/studies/demo/sites/{log.rank}")
        assert status == 200
        assert json.loads(body) == json.loads(
            json.dumps(log.to_dict(), sort_keys=True))

    def test_head_matches_get(self, client):
        get_status, get_headers, body = client("/studies/demo")
        head_status, head_headers, head_body = client("/studies/demo",
                                                      method="HEAD")
        assert (get_status, get_headers["ETag"]) \
            == (head_status, head_headers["ETag"])
        assert head_body == b"" and body

    @pytest.mark.parametrize("path,status", [
        ("/studies/nope", 404),
        ("/studies/demo/sites/999999999", 404),
        ("/studies/demo/sites/abc", 400),
        ("/studies/demo/reports/nope", 404),
        ("/studies/demo/reports/top-exfiltrators?limit=x", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=0", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=501", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=1&limit=2", 400),
        ("/studies/demo/reports/top-exfiltrators?frobnicate=1", 400),
        ("/studies/demo/reports/prevalence?bucket=0", 400),
        ("/studies/demo/reports/prevalence?bucket=1.5", 400),
        ("/studies/demo/reports/entity", 400),     # missing required name
        ("/studies/demo/shards?x=1", 400),         # takes no params
        ("/nope", 404),
    ])
    def test_error_statuses_are_json(self, client, path, status):
        got, headers, body = client(path)
        assert got == status
        payload = json.loads(body)
        assert payload["status"] == status and payload["error"]
        # A rejected request is not a cacheable resource: no ETag, and
        # the body is the structured error, never an HTML traceback.
        assert "ETag" not in headers
        assert headers["Content-Type"].startswith("application/json")


class TestETags:
    def test_etag_stable_across_restarts(self, study_dir, client):
        """A second server over the same bytes issues the same ETags —
        they derive from the manifest digests, not server state."""
        _, first_headers, _ = client("/studies/demo/reports/summary")
        other = make_server(study_dir, port=0)
        thread = threading.Thread(target=other.serve_forever, daemon=True)
        thread.start()
        try:
            port = other.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/studies/demo/reports/summary"
            ) as response:
                assert response.headers["ETag"] == first_headers["ETag"]
        finally:
            other.shutdown()
            other.server_close()

    def test_if_none_match_yields_304_with_empty_body(self, client):
        status, headers, body = client("/studies/demo/shards")
        assert status == 200
        etag = headers["ETag"]
        status2, headers2, body2 = client("/studies/demo/shards",
                                          {"If-None-Match": etag})
        assert status2 == 304 and body2 == b""
        assert headers2["ETag"] == etag
        # RFC 9110 §8.6: a 304 may carry Content-Length only as the 200
        # body's length, which a revalidation answered unread never knew.
        assert "Content-Length" not in headers2

    def test_star_and_weak_validators_match(self, client):
        _, headers, _ = client("/studies/demo")
        etag = headers["ETag"]
        for candidate in ("*", f"W/{etag}", f'"zzz", {etag}'):
            status, _, _ = client("/studies/demo",
                                  {"If-None-Match": candidate})
            assert status == 304, candidate
        status, _, _ = client("/studies/demo", {"If-None-Match": '"zzz"'})
        assert status == 200

    def test_default_params_share_an_etag(self, client):
        """?limit=20 and an omitted limit canonicalize identically."""
        _, h1, b1 = client("/studies/demo/reports/top-exfiltrators")
        _, h2, b2 = client("/studies/demo/reports/top-exfiltrators?limit=20")
        assert h1["ETag"] == h2["ETag"] and b1 == b2
        _, h3, _ = client("/studies/demo/reports/top-exfiltrators?limit=5")
        assert h3["ETag"] != h1["ETag"]

    def test_distinct_resources_distinct_etags(self, client):
        etags = set()
        for path in ("/studies", "/studies/demo", "/studies/demo/shards",
                     "/studies/demo/reports",
                     "/studies/demo/reports/summary"):
            _, headers, _ = client(path)
            etags.add(headers["ETag"])
        assert len(etags) == 5

    def test_dataset_change_changes_etags(self, crawl_logs, client,
                                          tmp_path):
        """Same logs, different sharding → different shard digests →
        every study etag moves (it pins bytes, not content)."""
        other = tmp_path / "demo"
        other.mkdir()
        save_logs(crawl_logs, other, shards=N_SHARDS + 1, compress=True)
        catalog = StudyCatalog(tmp_path)
        _, headers, _ = client("/studies/demo")
        assert catalog.get("demo").etag != headers["ETag"].strip('"')


@contextlib.contextmanager
def _serving(root):
    """A catalog server over ``root`` on an ephemeral port."""
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]

    def get(path, headers=None, method="GET"):
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)
        try:
            connection.request(method, path, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.headers), response.read()
        finally:
            connection.close()

    try:
        yield get
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestConditionalBeforeRead:
    """A matching ``If-None-Match`` is answered from the ETag, before any
    shard byte is read or any report is run; every other request takes
    the read path, with its 404s and 400s."""

    @pytest.fixture()
    def study(self, crawl_logs, tmp_path):
        directory = tmp_path / "root" / "demo"
        directory.mkdir(parents=True)
        save_logs(crawl_logs, directory, shards=N_SHARDS, compress=True)
        return directory

    def test_site_revalidation_reads_no_shard(self, study, crawl_logs):
        from repro.crawler import ShardManifest
        path = f"/studies/demo/sites/{crawl_logs[5].rank}"
        with _serving(study.parent) as get:
            status, headers, _ = get(path)
            assert status == 200
            for name in ShardManifest.load(study).files:
                (study / name).write_bytes(b"\xff" * 64)
            assert get(path)[0] == 500       # the shards are unreadable
            status, headers2, body = get(
                path, {"If-None-Match": headers["ETag"]})
        assert (status, body) == (304, b"")
        assert headers2["ETag"] == headers["ETag"]
        assert "Content-Length" not in headers2

    def test_star_matches_listed_ranks_only(self, client, crawl_logs):
        rank = crawl_logs[5].rank
        status, _, body = client(f"/studies/demo/sites/{rank}",
                                 {"If-None-Match": "*"})
        assert (status, body) == (304, b"")
        status, headers, body = client("/studies/demo/sites/999999999",
                                       {"If-None-Match": "*"})
        assert status == 404 and "ETag" not in headers
        assert json.loads(body)["status"] == 404

    def test_site_revalidation_without_sidecars_scans(
            self, study, crawl_logs, monkeypatch):
        """A fresh server indexes every shard on its first site request,
        a revalidation included, and never again for the entry."""
        import repro.serve.catalog as catalog_module
        from repro.crawler import ShardManifest
        log = crawl_logs[7]
        path = f"/studies/demo/sites/{log.rank}"
        with _serving(study.parent) as get:
            _, headers, body = get(path)
        indexed = []
        real = catalog_module.load_shard_index

        def counting(directory, name, *checks):
            indexed.append(name)
            return real(directory, name, *checks)

        monkeypatch.setattr(catalog_module, "load_shard_index", counting)
        with _serving(study.parent) as get:
            assert get(path, {"If-None-Match": headers["ETag"]})[0] == 304
            assert indexed == list(ShardManifest.load(study).files)
            assert get(path, {"If-None-Match": "*"})[0] == 304
            status, headers2, body2 = get(path)
            assert get("/studies/demo/sites/999999999",
                       {"If-None-Match": "*"})[0] == 404
        assert len(indexed) == N_SHARDS
        assert (status, headers2["ETag"], body2) \
            == (200, headers["ETag"], body)

    @pytest.mark.parametrize("digests", [True], ids=["digests"])
    def test_unpinned_sidecar_is_not_trusted(self, study, crawl_logs,
                                             digests):
        """A ``shard-0000.index.json`` that an older build left next to
        its shard is never read: not to answer a revalidation, not to
        steer a lookup, even when it records the shard's own digest
        (which the manifest pins too)."""
        from repro.crawler.storage import (ShardManifest, compute_digest,
                                           load_shard_index)
        manifest = ShardManifest.load(study)
        name = manifest.files[0]
        index = load_shard_index(study, name)
        log = next(log for log in crawl_logs if log.rank == index.ranks[0])
        # The older build's layout: the first rank at a bogus offset
        # (trusted, it would misread) and a rank the study lacks.
        (study / "shard-0000.index.json").write_text(json.dumps({
            "version": 2, "file": name, "count": len(index.ranks) + 1,
            "sha256": compute_digest(study / name),
            "ranks": [*index.ranks, 999999999],
            "offsets": [7, *index.offsets[1:], 0],
            "lengths": [*index.lengths, 1], "rows": [*index.rows, 0]}))
        with _serving(study.parent) as get:
            assert get("/studies/demo/sites/999999999",
                       {"If-None-Match": "*"})[0] == 404
            status, _, body = get(f"/studies/demo/sites/{log.rank}")
        assert status == 200
        assert json.loads(body) == json.loads(json.dumps(log.to_dict()))

    def test_report_revalidation_runs_no_query(self, client, monkeypatch):
        from repro.serve import queries
        path = "/studies/demo/reports/top-exfiltrators?limit=7"
        status, headers, _ = client(path)
        assert status == 200

        def boom(entry, params):
            raise AssertionError("a revalidation ran the query")

        monkeypatch.setitem(queries._REGISTRY, "top-exfiltrators",
                            dataclasses.replace(
                                get_query("top-exfiltrators"), run=boom))
        status, headers2, body = client(path,
                                        {"If-None-Match": headers["ETag"]})
        assert (status, body) == (304, b"")
        assert headers2["ETag"] == headers["ETag"]
        assert client(path)[0] == 500        # the patch is live

    def test_head_with_a_matching_tag_answers_304(self, client, crawl_logs):
        for path in (f"/studies/demo/sites/{crawl_logs[2].rank}",
                     "/studies/demo/reports/summary"):
            _, headers, _ = client(path)
            status, headers2, body = client(
                path, {"If-None-Match": headers["ETag"]}, method="HEAD")
            assert (status, body) == (304, b""), path
            assert headers2["ETag"] == headers["ETag"], path

    @pytest.mark.parametrize("path", [
        "/studies/demo/reports/top-exfiltrators?limit=0",
        "/studies/demo/reports/top-exfiltrators?frobnicate=1",
        "/studies/demo/reports/entity",
        "/studies/demo/sites/abc",
        "/studies/demo/sites/1?x=1",
    ])
    def test_bad_requests_stay_400_under_star(self, client, path):
        status, headers, body = client(path, {"If-None-Match": "*"})
        assert status == 400 and "ETag" not in headers
        assert json.loads(body)["status"] == 400


class TestConcurrentSiteLookups:
    def test_lookups_do_not_wait_on_each_other(self, crawl_logs, tmp_path,
                                                monkeypatch):
        """Two lookups must both be inside the row read at once, which a
        lock held across the read (file read, inflate, decode) forbids."""
        from repro.crawler import storage
        from repro.serve.catalog import StudyEntry

        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:20], directory, shards=2, compress=True)
        entry = StudyEntry("study", directory)
        meet = threading.Barrier(2, timeout=5)
        real = storage._read_group

        def read_group(*args):
            meet.wait()
            return real(*args)

        monkeypatch.setattr(storage, "_read_group", read_group)
        logs = [crawl_logs[1], crawl_logs[15]]
        got = {}
        errors = []

        def lookup(log, method):
            try:
                got[log.rank] = getattr(entry, method)(log.rank)
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=lookup, args=(log, method))
                   for log, method in zip(logs, ("site", "site_dict"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not [thread for thread in threads if thread.is_alive()]
        assert errors == []
        assert got[logs[0].rank].to_dict() == logs[0].to_dict()
        assert got[logs[1].rank] == logs[1].to_dict()

    def test_racing_first_lookups_index_each_shard_once(
            self, crawl_logs, tmp_path, monkeypatch):
        """Handler threads racing into a fresh entry share one build of
        its shard indexes, and every one of them reads through it."""
        import repro.serve.catalog as catalog_module
        from repro.serve.catalog import StudyEntry

        directory = tmp_path / "study"
        directory.mkdir()
        logs = crawl_logs[:20]
        save_logs(logs, directory, shards=2, compress=True)
        entry = StudyEntry("study", directory)
        indexed = []
        real = catalog_module.load_shard_index

        def counting(directory, name, *checks):
            indexed.append(name)
            return real(directory, name, *checks)

        monkeypatch.setattr(catalog_module, "load_shard_index", counting)
        n_threads = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def lookup(slot):
            try:
                barrier.wait(timeout=10)
                log = logs[slot % len(logs)]
                results[slot] = (log, entry.lists_site(log.rank),
                                 entry.site_dict(log.rank))
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=lookup, args=(slot,))
                   for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        assert errors == []
        assert sorted(indexed) == sorted(entry.manifest.files)
        for log, listed, body in results:
            assert listed and body == log.to_dict()


class TestReportFidelity:
    def test_top_exfiltrators_matches_in_process_study(self, client,
                                                       crawl_logs):
        study = Study(crawl_logs)
        expected = [{"domain": r.domain, "n_cookies": r.n_cookies,
                     "pct_of_all_cookies": r.pct_of_all_cookies}
                    for r in study.figure2(top=10)]
        status, _, body = client(
            "/studies/demo/reports/top-exfiltrators?limit=10")
        assert status == 200
        payload = json.loads(body)
        assert payload["result"] == json.loads(
            json.dumps(expected, sort_keys=True))
        # Byte-level: the served body IS the canonical rendering.
        assert body == (json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()

    def test_top_exfiltrated_matches_oracle(self, client, crawl_logs):
        expected = [dataclasses.asdict(row)
                    for row in oracle.table2(Study(crawl_logs), top=10)]
        assert len(expected) == 10
        status, _, body = client(
            "/studies/demo/reports/top-exfiltrated?limit=10")
        assert status == 200
        payload = json.loads(body)
        assert payload["result"] == json.loads(json.dumps(expected))
        assert body == (json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()

    def test_entity_drilldown_matches_oracle(self, client, crawl_logs):
        study = Study(crawl_logs)
        entity_of = default_entity_map().entity_of
        event = study.exfil_events[0]
        names = {entity_of(event.actor), entity_of(event.destination),
                 entity_of(study.manipulations[0].actor), "Google",
                 "", "Nope", "google"}
        for name in sorted(names):
            status, _, body = client(
                f"/studies/demo/reports/entity?name={quote(name)}")
            assert status == 200, name
            payload = json.loads(body)
            assert payload["params"] == {"name": name}
            assert payload["result"] == json.loads(
                json.dumps(oracle.entity(study, name))), name

    def test_summary_matches_in_process_study(self, client, crawl_logs):
        study = Study(crawl_logs)
        status, _, body = client("/studies/demo/reports/summary")
        assert status == 200
        result = json.loads(body)["result"]
        assert result["n_sites"] == study.n_sites
        assert result["sec51_prevalence"] == study.sec51_prevalence()
        assert result["sec56_inclusion"] == study.sec56_inclusion()

    def test_prevalence_buckets_partition_the_study(self, client,
                                                    crawl_logs):
        status, _, body = client("/studies/demo/reports/prevalence?bucket=7")
        assert status == 200
        rows = json.loads(body)["result"]
        assert sum(r["n_sites"] for r in rows) == len(crawl_logs)
        ranks = sorted(log.rank for log in crawl_logs)
        assert rows[0]["bucket"] == ranks[0] // 7
        for row in rows:
            assert row["rank_lo"] == row["bucket"] * 7
            assert row["rank_hi"] == row["rank_lo"] + 6
            assert "pct_sites_with_third_party" in row

    def test_each_bucket_equals_a_study_of_its_sites(self, client,
                                                     crawl_logs):
        """Each row counts exactly its bucket's visits: a Study over
        only those logs reports the same §5.1 numbers."""
        status, _, body = client("/studies/demo/reports/prevalence?bucket=7")
        assert status == 200
        rows = json.loads(body)["result"]
        by_bucket = {}
        for log in crawl_logs:
            by_bucket.setdefault(log.rank // 7, []).append(log)
        assert [row["bucket"] for row in rows] == sorted(by_bucket)
        for row in rows:
            study = Study(by_bucket[row["bucket"]])
            assert row["n_sites"] == study.n_sites
            got = {k: v for k, v in row.items()
                   if k not in ("bucket", "rank_lo", "rank_hi", "n_sites")}
            assert got == study.sec51_prevalence(), row["bucket"]

    def test_whole_study_bucket_equals_global_prevalence(self, client,
                                                         crawl_logs):
        """One bucket spanning every rank must reproduce the global
        sec51 numbers exactly — the accumulator decomposition is
        associative."""
        study = Study(crawl_logs)
        bucket = 10 ** 6
        status, _, body = client(
            f"/studies/demo/reports/prevalence?bucket={bucket}")
        assert status == 200
        rows = json.loads(body)["result"]
        assert len(rows) == 1
        got = {k: v for k, v in rows[0].items()
               if k not in ("bucket", "rank_lo", "rank_hi", "n_sites")}
        assert got == study.sec51_prevalence()

    def test_entity_drilldown_counts_events(self, client, crawl_logs):
        study = Study(crawl_logs)
        if not study.exfil_events:
            pytest.skip("fixture crawl produced no exfiltration")
        entity_of = default_entity_map().entity_of
        entity = entity_of(study.exfil_events[0].actor)
        status, _, body = client(
            f"/studies/demo/reports/entity?name={entity}")
        assert status == 200
        result = json.loads(body)["result"]
        expected = sum(1 for e in study.exfil_events
                       if entity_of(e.actor) == entity)
        assert result["as_exfiltrator"]["n_events"] == expected
        assert result["n_sites"] >= 1


class TestQueryHelpers:
    def test_parse_params_defaults_and_rejects(self):
        query = get_query("top-exfiltrators")
        assert parse_params(query, {}) == {"limit": 20}
        assert parse_params(query, {"limit": ["3"]}) == {"limit": 3}
        with pytest.raises(QueryError, match="unknown parameter"):
            parse_params(query, {"nope": ["1"]})
        with pytest.raises(QueryError, match="more than once"):
            parse_params(query, {"limit": ["1", "2"]})
        with pytest.raises(QueryError, match=">= 1"):
            parse_params(query, {"limit": ["0"]})

    def test_canonical_resource_sorts_params(self):
        assert canonical_resource("/r", {"b": 2, "a": 1}) == "/r?a=1&b=2"
        assert canonical_resource("/r") == "/r"

    def test_etag_matches_variants(self):
        assert etag_matches('"x"', "x")
        assert etag_matches('W/"x"', "x")
        assert etag_matches('"a", "x"', "x")
        assert etag_matches("*", "x")
        assert not etag_matches('"y"', "x")
        assert not etag_matches(None, "x")
        assert not etag_matches("", "x")


class TestCatalogDiscovery:
    def test_single_study_root(self, study_dir):
        catalog = StudyCatalog(study_dir / "demo")
        assert catalog.study_ids() == ["demo"]

    def test_refresh_picks_up_new_and_dropped_studies(self, crawl_logs,
                                                      tmp_path):
        root = tmp_path
        first = root / "alpha"
        first.mkdir()
        save_logs(crawl_logs, first, shards=2)
        catalog = StudyCatalog(root)
        assert catalog.study_ids() == ["alpha"]
        second = root / "beta"
        second.mkdir()
        save_logs(crawl_logs, second, shards=2)
        catalog.refresh()
        assert catalog.study_ids() == ["alpha", "beta"]
        entry = catalog.get("alpha")
        assert entry.is_current()
        import shutil
        shutil.rmtree(second)
        catalog.refresh()
        assert catalog.study_ids() == ["alpha"]


# ---------------------------------------------------------------------------
# Catalog refresh: non-blocking, crash-safe, and incrementally aggregated
# ---------------------------------------------------------------------------

def _touch_shard(directory, shard=0):
    """Drop one log from a shard and republish the manifest — the
    smallest dataset-version bump a re-crawl can produce."""
    from repro.crawler.storage import ShardManifest, load_shard, write_shard
    manifest = ShardManifest.load(directory)
    changed = load_shard(directory, shard)[:-1]
    written = write_shard(changed, directory, shard,
                          compress=manifest.compress)
    counts = list(manifest.counts)
    digests = list(manifest.digests)
    counts[shard] = written.count
    digests[shard] = written.sha256
    ShardManifest(n_shards=manifest.n_shards, total=sum(counts),
                  compress=manifest.compress, files=manifest.files,
                  counts=tuple(counts), digests=tuple(digests),
                  ).save(directory)


class TestCatalogRefreshLocking:
    def test_refresh_does_not_hold_the_lock_while_hashing(
            self, crawl_logs, tmp_path, monkeypatch):
        """Entry construction (which reads the study's manifest) must
        not stall concurrent get()/listing() calls."""
        from repro.crawler import storage

        root = tmp_path
        alpha = root / "alpha"
        alpha.mkdir()
        save_logs(crawl_logs[:20], alpha, shards=2)
        catalog = StudyCatalog(root)

        # A second study, whose manifest load in StudyEntry.__init__
        # blocks until the readers are done.
        beta = root / "beta"
        beta.mkdir()
        save_logs(crawl_logs[:20], beta, shards=2)

        loading = threading.Event()
        release = threading.Event()
        real_load = storage.ShardManifest.load.__func__

        def slow_load(cls, directory):
            if Path(directory) == beta:
                loading.set()
                assert release.wait(timeout=10), "test deadlocked"
            return real_load(cls, directory)

        monkeypatch.setattr(storage.ShardManifest, "load",
                            classmethod(slow_load))
        refresher = threading.Thread(target=catalog.refresh)
        refresher.start()
        try:
            assert loading.wait(timeout=10)
            # The rebuild is mid-load: reads must not block on it.
            got = {}
            reader = threading.Thread(target=lambda: got.update(
                ids=catalog.study_ids(), listing=catalog.listing(),
                entry=catalog.get("alpha")))
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), \
                "get()/listing() blocked behind the refresh rebuild"
            assert got["ids"] == ["alpha"]
        finally:
            release.set()
            refresher.join(timeout=10)
        assert catalog.study_ids() == ["alpha", "beta"]

    def test_report_query_does_not_wait_behind_a_bucket_scan(
            self, crawl_logs, tmp_path, monkeypatch):
        """A cold prevalence scan holds the aggregation lock for a full
        shard scan; a report on the already built study must not wait."""
        import repro.serve.catalog as catalog_module
        from repro.serve.catalog import StudyEntry

        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:40], directory, shards=2)
        entry = StudyEntry("study", directory)
        study = entry.study()

        scanning = threading.Event()
        release = threading.Event()
        real_scan = catalog_module.iter_shard_batches

        def slow_scan(*args, **kwargs):
            scanning.set()
            assert release.wait(timeout=10), "test deadlocked"
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(catalog_module, "iter_shard_batches", slow_scan)
        scanner = threading.Thread(target=entry.prevalence_by_bucket,
                                   args=(7,))
        got = {}
        reader = threading.Thread(target=lambda: got.update(
            rows=get_query("top-exfiltrators").run(entry, {"limit": 5})))
        scanner.start()
        try:
            assert scanning.wait(timeout=10)
            # The scan holds the lock: the report must not block on it.
            reader.start()
            reader.join(timeout=2)
            assert not reader.is_alive(), \
                "top-exfiltrators blocked behind the prevalence scan"
        finally:
            release.set()
            scanner.join(timeout=10)
            if reader.is_alive():
                reader.join(timeout=10)
        assert not scanner.is_alive()
        assert [row["domain"] for row in got["rows"]] == \
            [row.domain for row in oracle.figure2(study, 5)]

    def test_refresh_skips_a_study_that_vanished_after_discovery(
            self, crawl_logs, tmp_path, monkeypatch):
        root = tmp_path
        alpha = root / "alpha"
        alpha.mkdir()
        save_logs(crawl_logs[:20], alpha, shards=2)
        catalog = StudyCatalog(root)
        ghost = root / "ghost"   # discovered, then deleted before build
        monkeypatch.setattr(
            catalog, "_discover",
            lambda: {"alpha": alpha, "ghost": ghost})
        catalog.refresh()        # must not raise
        assert catalog.study_ids() == ["alpha"]
        with pytest.raises(KeyError):
            catalog.get("ghost")


class TestConcurrentFirstUse:
    """Handler threads share one Study, whose tables are built on first
    use: racing first reads must render exactly like a serial read."""

    QUERIES = (("top-exfiltrated", {"limit": 20}),
               ("top-exfiltrators", {"limit": 20}),
               ("entity", {"name": "Google"}),
               ("entity", {"name": "Meta"}),
               ("entity", {"name": "Microsoft"}),
               ("entity", {"name": "Criteo"}),
               ("entity", {"name": ""}))

    def _render(self, entry, index):
        name, params = self.QUERIES[index]
        return render_json(get_query(name).run(entry, params))

    def test_racing_first_reads_render_like_a_serial_read(self, crawl_logs,
                                                          tmp_path):
        from repro.serve.catalog import StudyEntry

        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs, directory, shards=N_SHARDS, compress=True)
        serial = StudyEntry("study", directory)
        expected = [self._render(serial, i) for i in range(len(self.QUERIES))]

        entry = StudyEntry("study", directory)
        study = entry.study()
        tables = [name for name, attr in vars(Study).items()
                  if isinstance(attr, cached_property)]
        assert tables
        assert not [name for name in tables if name in vars(study)]

        n_threads = 2 * (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def reader(slot):
            try:
                barrier.wait(timeout=10)
                got = {}
                # Each thread starts on a different query, so every
                # table sees several threads build it at once.
                for step in range(len(self.QUERIES)):
                    index = (slot + step) % len(self.QUERIES)
                    got[index] = self._render(entry, index)
                results[slot] = [got[i] for i in range(len(self.QUERIES))]
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        assert errors == []
        for got in results:
            assert got == expected
        assert [name for name in tables if name in vars(study)] == tables


class TestBucketSizeGuard:
    def test_zero_bucket_raises_value_error_not_zero_division(
            self, crawl_logs, tmp_path):
        from repro.serve.catalog import StudyEntry
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:20], directory, shards=2)
        entry = StudyEntry("study", directory)
        for bad in (0, -4):
            with pytest.raises(ValueError, match="bucket_size must be >= 1"):
                entry.prevalence_by_bucket(bad)

    def test_entry_keeps_rows_for_a_bounded_number_of_sizes(
            self, crawl_logs, tmp_path, monkeypatch):
        """40 distinct sizes leave rows for at most BUCKET_SIZES_KEPT of
        them; the most recent are answered without a scan, and an
        evicted size is rescanned into rows equal to its first answer."""
        from repro.serve import catalog
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:20], directory, shards=2)
        entry = catalog.StudyEntry("study", directory)
        sizes = list(range(1, 41))
        first = {size: entry.prevalence_by_bucket(size) for size in sizes}
        assert len(entry._buckets) <= catalog.BUCKET_SIZES_KEPT
        scans = []
        real = catalog.iter_shard_batches

        def counting(*args, **kwargs):
            scans.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(catalog, "iter_shard_batches", counting)
        for size in sizes[-catalog.BUCKET_SIZES_KEPT:]:
            assert entry.prevalence_by_bucket(size) is first[size]
        assert scans == []
        assert entry.prevalence_by_bucket(1) == first[1]
        assert scans == [directory]
        assert len(entry._buckets) <= catalog.BUCKET_SIZES_KEPT


class TestReadsPinnedToTheEntry:
    def test_prevalence_refuses_a_shard_rewritten_under_the_entry(
            self, crawl_logs, tmp_path):
        """Every read of an entry checks the digests its ETag pins: once
        shard 0 is rewritten and the manifest republished, the study,
        the prevalence rows and a site lookup all refuse it."""
        from repro.crawler import ManifestError
        from repro.serve.catalog import StudyEntry
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        entry = StudyEntry("study", directory)
        _touch_shard(directory)
        with pytest.raises(ManifestError, match=r"shard 0 \(.* hashes to"):
            entry.study()
        with pytest.raises(ManifestError, match=r"shard 0 \(.* hashes to"):
            entry.prevalence_by_bucket(100000)
        with pytest.raises(ManifestError, match=r"shard-0000\.jsonl"):
            entry.site_dict(crawl_logs[0].rank)

    def test_server_answers_a_rewritten_study_from_a_rebuilt_entry(
            self, crawl_logs, tmp_path):
        """The server's entry has built its study but no shard index
        when shard 0 is rewritten: a bucket it never counted and a site
        lookup must rebuild the entry once and answer 200 under the
        new study ETag, with no listing request in between."""
        from repro.serve.etag import quote_etag, resource_etag
        root = tmp_path / "root"
        directory = root / "demo"
        directory.mkdir(parents=True)
        save_logs(crawl_logs[:40], directory, shards=3, compress=True)
        with _serving(root) as get:
            status, _, body = get("/studies/demo/reports/summary")
            assert status == 200, body
            old = json.loads(get("/studies/demo")[2])["etag"]
            _touch_shard(directory)
            new = StudyCatalog(root).get("demo").etag
            assert new != old
            rank = crawl_logs[0].rank
            for path, params in (
                    ("/studies/demo/reports/prevalence", {"bucket": 9}),
                    (f"/studies/demo/sites/{rank}", None)):
                url = path + (f"?bucket={params['bucket']}" if params
                              else "")
                status, headers, body = get(url)
                assert status == 200, (url, body)
                assert headers["ETag"] == quote_etag(
                    resource_etag(new, path, params)), url
            assert json.loads(get("/studies/demo")[2])["etag"] == new


class TestSnapshotSidecar:
    def _entry(self, directory):
        from repro.serve.catalog import StudyEntry
        return StudyEntry(directory.name, directory)

    def _counting_ingest(self, monkeypatch):
        import repro.analysis.snapshot as snapshot_module
        calls = []
        real = snapshot_module._ingest_shard

        def counting(dataset, manifest, pos):
            calls.append(manifest.files[pos])
            return real(dataset, manifest, pos)

        monkeypatch.setattr(snapshot_module, "_ingest_shard", counting)
        return calls

    def test_study_persists_a_sidecar_snapshot(self, crawl_logs, tmp_path,
                                               monkeypatch):
        from repro.serve.catalog import SNAPSHOT_NAME
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        entry = self._entry(directory)
        etag_before = entry.etag
        reference = entry.study().report_bytes()
        assert (directory / SNAPSHOT_NAME).exists()

        # A fresh entry (catalog rebuild, server restart) resumes from
        # the sidecar: zero shards re-ingested, identical report bytes,
        # and the ETag untouched by the sidecar's existence.
        calls = self._counting_ingest(monkeypatch)
        fresh = self._entry(directory)
        assert fresh.etag == etag_before
        assert fresh.study().report_bytes() == reference
        assert calls == []

    @pytest.mark.parametrize("version", [1, 2, None],
                             ids=["version-1", "version-2", "non-utf8"])
    def test_an_older_or_unreadable_sidecar_is_replaced_once(
            self, crawl_logs, tmp_path, monkeypatch, version):
        """A sidecar an older build wrote, or one that is not UTF-8, is
        refused, rebuilt from the shards into the current version, and
        reused after."""
        from repro.analysis.snapshot import SNAPSHOT_VERSION
        from repro.serve.catalog import SNAPSHOT_NAME
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        reference = self._entry(directory).study().report_bytes()
        sidecar = directory / SNAPSHOT_NAME
        if version is None:
            sidecar.write_bytes(b"\xff\xfe" + sidecar.read_bytes())
        else:
            data = json.loads(sidecar.read_text())
            data["version"] = version
            sidecar.write_text(json.dumps(data))

        calls = self._counting_ingest(monkeypatch)
        assert self._entry(directory).study().report_bytes() == reference
        assert len(calls) == 3
        assert json.loads(sidecar.read_text())["version"] == SNAPSHOT_VERSION
        calls.clear()
        assert self._entry(directory).study().report_bytes() == reference
        assert calls == []

    def test_catalog_refresh_upgrades_a_stale_entry_incrementally(
            self, crawl_logs, tmp_path, monkeypatch):
        from repro.analysis.reports import Study, StudyAccumulator
        from repro.analysis.columnar import iter_shard_batches
        root = tmp_path
        directory = root / "alpha"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        catalog = StudyCatalog(root)
        catalog.get("alpha").study()          # builds + persists sidecar

        _touch_shard(directory)
        calls = self._counting_ingest(monkeypatch)
        catalog.refresh()
        entry = catalog.get("alpha")
        refreshed = entry.study().report_bytes()
        assert calls == [entry.manifest.files[0]], \
            "refresh must re-ingest exactly the changed shard"

        acc = StudyAccumulator()
        for batch in iter_shard_batches(directory):
            acc.add_shard_batch(batch)
        assert refreshed == Study.from_accumulator(acc).report_bytes()


class TestKeepAlive:
    """A reused HTTP/1.1 connection must not stall each response.

    The handlers write headers and body separately; with Nagle's
    algorithm on, the body waits for the client's delayed ACK, ~40 ms
    per response on Linux loopback.  A fresh connection per request
    does not show it, so these tests reuse one.
    """

    REQUESTS = 25
    #: Well under the ~40 ms delayed-ACK floor; a stall-free response
    #: over loopback takes ~1 ms.
    BUDGET_MS = 15.0

    def _p50_ms(self, port: int, path: str) -> float:
        import http.client
        import statistics
        import time
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        took = []
        try:
            for _ in range(self.REQUESTS):
                start = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                took.append((time.perf_counter() - start) * 1000)
                assert response.status == 200 and body
                assert not response.will_close
        finally:
            connection.close()
        return statistics.median(took)

    def test_site_answers_200_304_200_on_one_connection(self, server,
                                                         crawl_logs):
        """A 304 carries no body and no Content-Length: the connection
        must still frame the next response right."""
        path = f"/studies/demo/sites/{crawl_logs[4].rank}"
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10)

        def fetch(headers):
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            body = response.read()
            assert not response.will_close
            return (response.status, response.getheader("ETag"), body,
                    response.getheader("Content-Length"))

        try:
            status, etag, body, length = first = fetch({})
            second = fetch({"If-None-Match": etag})
            third = fetch({})
        finally:
            connection.close()
        assert status == 200 and body and int(length) == len(body)
        assert second == (304, etag, b"", None)
        assert third == first

    def test_catalog_answers_keep_alive_requests_without_stalling(
            self, server, client):
        path = "/studies/demo/reports/summary"
        assert client(path)[0] == 200      # build the study first
        assert self._p50_ms(server.server_address[1], path) \
            < self.BUDGET_MS

    def test_store_answers_keep_alive_requests_without_stalling(
            self, tmp_path):
        from repro.serve import make_store_server
        store = make_store_server(tmp_path / "store", port=0)
        thread = threading.Thread(target=store.serve_forever, daemon=True)
        thread.start()
        try:
            p50 = self._p50_ms(store.server_address[1], "/healthz")
        finally:
            store.shutdown()
            store.server_close()
            thread.join(timeout=10)
        assert p50 < self.BUDGET_MS
