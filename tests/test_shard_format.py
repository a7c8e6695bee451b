"""Shard format v3: the row-group codec, the v2 oracle, and versioning.

* The codec round-trips every column a ``VisitLog`` carries: strings
  (non-ASCII, NUL, empty), ``None`` in every optional column, empty
  families and tuples, float64 timestamps bit for bit, ints and bools.
  ``row_dict`` equals ``log(i).to_dict()`` leaf for leaf.
* The record dataclasses and ``COLUMNS`` agree: a log with every field
  set survives a row group, renders to the dict spelled out here, and
  parses back from it.
* One crawl written as v2 JSON lines (``v2_oracle``) and as v3 row
  groups decodes to identical columns, report bytes and
  ``/sites/<rank>`` bodies.
* Datasets, journals and readers from the v2 era are refused with a
  message that says to re-crawl.
* Per-shard readers (``refresh_study``, ``load_shard``) hold each shard
  to its manifest count and digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.columnar import (COLUMNS, RowGroupError, ShardBatch,
                                     decode_row_group, encode_row_group,
                                     iter_shard_batches)
from repro.analysis.reports import Study, StudyAccumulator
from repro.analysis.snapshot import refresh_study
from repro.crawler import CrawlConfig, Crawler, ManifestError, ShardManifest
from repro.crawler.distributed import (QUEUE_NAME, CoordinationError,
                                       WorkQueue)
from repro.crawler.storage import (load_shard, read_site, save_logs,
                                   shard_filename, write_shard)
from repro.ecosystem import PopulationConfig, generate_population
from repro.records import (EVENT_FAMILIES, VISIT_SCALARS, CookieReadEvent,
                           CookieWriteEvent, DomMutationEvent,
                           HeaderCookieEvent, RequestEvent, ScriptRecord,
                           VisitLog)
from repro.serve.app import render_json
from v2_oracle import columns, from_dicts, read_v2_dicts, write_v2_shard

# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------

text = st.text(max_size=8) | st.sampled_from(
    ["", "\x00", "a\x00b", "é日", "\ud83d", "\udca9x"])
opt = st.none() | text
names = st.lists(text, max_size=3).map(tuple)
stamp = st.floats(allow_nan=True, allow_infinity=True)
int64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)


@st.composite
def visit_logs(draw):
    site = draw(text)
    log = VisitLog(site=site, url=draw(text), rank=draw(int64))
    log.cookie_writes = draw(st.lists(st.builds(
        CookieWriteEvent, site=st.just(site), cookie_name=text,
        cookie_value=text, api=text, kind=text, script_url=opt,
        script_domain=opt, inclusion=text, raw=text, prev_value=opt,
        attrs_changed=names, timestamp=stamp), max_size=3))
    log.cookie_reads = draw(st.lists(st.builds(
        CookieReadEvent, site=st.just(site), api=text, script_url=opt,
        script_domain=opt, inclusion=text, cookie_names=names,
        timestamp=stamp), max_size=3))
    log.header_cookies = draw(st.lists(st.builds(
        HeaderCookieEvent, site=st.just(site), cookie_name=text,
        cookie_value=text, response_url=text, response_domain=text,
        initiator_domain=opt, first_party=st.booleans(),
        timestamp=stamp), max_size=3))
    log.requests = draw(st.lists(st.builds(
        RequestEvent, site=st.just(site), url=text, host=text, domain=text,
        method=text, resource_type=text, query=text, body=text,
        script_url=opt, script_domain=opt, stack=names, timestamp=stamp),
        max_size=3))
    log.dom_mutations = draw(st.lists(st.builds(
        DomMutationEvent, site=st.just(site), kind=text, target_tag=text,
        actor_domain=opt, owner_domain=opt, cross_script=st.booleans(),
        timestamp=stamp), max_size=3))
    log.scripts = draw(st.lists(st.builds(
        ScriptRecord, url=opt, domain=opt, inclusion=text, depth=int64,
        parent_domain=opt), max_size=3))
    log.n_scripts = draw(int64)
    log.n_third_party_scripts = draw(int64)
    log.n_direct_third_party = draw(int64)
    log.n_indirect_third_party = draw(int64)
    log.cookie_op_count = draw(int64)
    log.interacted = draw(st.booleans())
    return log


def _bits(batch: ShardBatch) -> dict:
    """Every column, floats as their IEEE bytes (NaN-safe, -0.0-exact)."""
    out = columns([batch])
    for name, kind, _family in COLUMNS:
        if kind == "d":
            out[name] = [struct.pack("<d", v) for v in out[name]]
    return out


def _render(logs) -> str:
    """The logs' ``to_dict`` as JSON: NaN-safe equality of renderings."""
    return json.dumps([log.to_dict() for log in logs], sort_keys=True)


class TestCodecRoundTrip:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(visit_logs(), max_size=4))
    def test_columns_survive_encode_and_decode(self, logs):
        batch = ShardBatch.from_logs(logs)
        data = encode_row_group(batch)
        back = decode_row_group(data)
        assert _bits(back) == _bits(batch)
        assert _render(back.logs()) == _render(logs)
        assert encode_row_group(back) == data   # tables fill canonically
        rows = [back.row_dict(row) for row in range(len(back))]
        assert json.dumps(rows, sort_keys=True) == _render(logs)

    def test_optional_strings_keep_none_apart_from_empty(self):
        log = VisitLog(site="", url="")
        log.cookie_writes.append(CookieWriteEvent(
            site="", cookie_name="", cookie_value="", api="", kind="",
            script_url=None, script_domain="", inclusion="", raw="",
            prev_value=None, attrs_changed=("", "\x00"), timestamp=-0.0))
        back = decode_row_group(encode_row_group(ShardBatch.from_logs([log])))
        assert back.w_script_url == [None] and back.w_script_domain == [""]
        assert back.w_attrs == [("", "\x00")]
        assert struct.pack("<d", back.w_ts[0]) == struct.pack("<d", -0.0)

    def test_decoder_refuses_other_bytes(self):
        data = encode_row_group(ShardBatch.from_logs([VisitLog("a", "b")]))
        for bad in (b"", data[:-1], data + b"\x00", b"{" + data[1:],
                    b'{"site":"a"}\n'):
            with pytest.raises(RowGroupError):
                decode_row_group(bad)


class TestRowDict:
    """``row_dict(i)`` is ``log(i).to_dict()``, leaf for leaf, type for
    type: the serve site endpoint renders one in place of the other."""

    def _same(self, got, expected, path="") -> None:
        assert type(got) is type(expected), path
        if isinstance(expected, dict):
            assert list(got) == list(expected), path
            for key in expected:
                self._same(got[key], expected[key], f"{path}/{key}")
        elif isinstance(expected, list):
            assert len(got) == len(expected), path
            for i, (a, b) in enumerate(zip(got, expected)):
                self._same(a, b, f"{path}[{i}]")
        else:
            assert got == expected, path

    def _check(self, logs) -> None:
        batch = decode_row_group(encode_row_group(
            ShardBatch.from_logs(logs)))
        for i in range(len(batch)):
            self._same(batch.row_dict(i), batch.log(i).to_dict(), f"#{i}")

    def test_on_the_fixture_crawl(self, crawl_logs):
        self._check(crawl_logs)

    def test_on_seeded_crawls(self, seeded_logs):
        self._check(seeded_logs)


def _every_field_log() -> VisitLog:
    """One event in every family; every field holds a distinct value
    that is not its default."""
    site = "site.test"
    return VisitLog(
        site=site, url="https://site.test/", rank=101,
        cookie_writes=[CookieWriteEvent(
            site=site, cookie_name="w-name", cookie_value="w-value",
            api="w-api", kind="w-kind", script_url="w-script-url",
            script_domain="w-script-domain", inclusion="w-inclusion",
            raw="w-raw", prev_value="w-prev", attrs_changed=("w-a1", "w-a2"),
            timestamp=1.25)],
        cookie_reads=[CookieReadEvent(
            site=site, api="r-api", script_url="r-script-url",
            script_domain="r-script-domain", inclusion="r-inclusion",
            cookie_names=("r-n1", "r-n2"), timestamp=2.25)],
        header_cookies=[HeaderCookieEvent(
            site=site, cookie_name="h-name", cookie_value="h-value",
            response_url="h-response-url", response_domain="h-response-domain",
            initiator_domain="h-initiator-domain", first_party=True,
            timestamp=3.25)],
        requests=[RequestEvent(
            site=site, url="q-url", host="q-host", domain="q-domain",
            method="q-method", resource_type="q-resource-type",
            query="q-query", body="q-body", script_url="q-script-url",
            script_domain="q-script-domain", stack=("q-s1", "q-s2"),
            timestamp=4.25)],
        dom_mutations=[DomMutationEvent(
            site=site, kind="d-kind", target_tag="d-target-tag",
            actor_domain="d-actor-domain", owner_domain="d-owner-domain",
            cross_script=False, timestamp=5.25)],
        scripts=[ScriptRecord(
            url="s-url", domain="s-domain", inclusion="s-inclusion",
            depth=107, parent_domain="s-parent-domain")],
        n_scripts=102, n_third_party_scripts=103, n_direct_third_party=104,
        n_indirect_third_party=105, cookie_op_count=106, interacted=True)


#: ``_every_field_log().to_dict()``: each record's keys in field order,
#: then ``event``; lists in place of tuples.
EVERY_FIELD_DICT = {
    "site": "site.test", "url": "https://site.test/", "rank": 101,
    "cookie_writes": [{
        "site": "site.test", "cookie_name": "w-name",
        "cookie_value": "w-value", "api": "w-api", "kind": "w-kind",
        "script_url": "w-script-url", "script_domain": "w-script-domain",
        "inclusion": "w-inclusion", "raw": "w-raw", "prev_value": "w-prev",
        "attrs_changed": ["w-a1", "w-a2"], "timestamp": 1.25,
        "event": "cookie_write"}],
    "cookie_reads": [{
        "site": "site.test", "api": "r-api", "script_url": "r-script-url",
        "script_domain": "r-script-domain", "inclusion": "r-inclusion",
        "cookie_names": ["r-n1", "r-n2"], "timestamp": 2.25,
        "event": "cookie_read"}],
    "header_cookies": [{
        "site": "site.test", "cookie_name": "h-name",
        "cookie_value": "h-value", "response_url": "h-response-url",
        "response_domain": "h-response-domain",
        "initiator_domain": "h-initiator-domain", "first_party": True,
        "timestamp": 3.25, "event": "header_cookie"}],
    "requests": [{
        "site": "site.test", "url": "q-url", "host": "q-host",
        "domain": "q-domain", "method": "q-method",
        "resource_type": "q-resource-type", "query": "q-query",
        "body": "q-body", "script_url": "q-script-url",
        "script_domain": "q-script-domain", "stack": ["q-s1", "q-s2"],
        "timestamp": 4.25, "event": "request"}],
    "dom_mutations": [{
        "site": "site.test", "kind": "d-kind", "target_tag": "d-target-tag",
        "actor_domain": "d-actor-domain", "owner_domain": "d-owner-domain",
        "cross_script": False, "timestamp": 5.25, "event": "dom_mutation"}],
    "scripts": [{
        "url": "s-url", "domain": "s-domain", "inclusion": "s-inclusion",
        "depth": 107, "parent_domain": "s-parent-domain",
        "event": "script"}],
    "n_scripts": 102, "n_third_party_scripts": 103,
    "n_direct_third_party": 104, "n_indirect_third_party": 105,
    "cookie_op_count": 106, "interacted": True,
}


class TestSchemaTable:
    """The record dataclasses and ``COLUMNS`` agree field for column: a
    swapped pair of columns, or a field without a column, fails here."""

    def test_every_field_has_a_column_and_a_value(self):
        log = _every_field_log()
        for family, (attr, record) in enumerate(EVENT_FAMILIES):
            names = [f.name for f in dataclasses.fields(record)
                     if f.name != "site"]
            assert len(names) == sum(f == family for _n, _k, f in COLUMNS)
            (event,) = getattr(log, attr)
            for f in dataclasses.fields(record):
                assert getattr(event, f.name) != f.default, (attr, f.name)
        assert len(VISIT_SCALARS) == sum(f == -1 for _n, _k, f in COLUMNS)

    def test_every_field_survives_the_row_group(self):
        log = _every_field_log()
        back = decode_row_group(encode_row_group(ShardBatch.from_logs([log])))
        assert back.log(0) == log

    def test_to_dict_spells_every_field_in_order(self):
        got = _every_field_log().to_dict()
        assert got == EVERY_FIELD_DICT
        # Key order and JSON types (true, not 1) too.
        assert json.dumps(got) == json.dumps(EVERY_FIELD_DICT)

    def test_from_dict_inverts_to_dict(self):
        log = _every_field_log()
        assert VisitLog.from_dict(log.to_dict()) == log


# ---------------------------------------------------------------------------
# v2 oracle: one crawl, both formats, identical content
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[7, 31], ids=["seed7", "seed31"])
def seeded_logs(request):
    population = generate_population(PopulationConfig(n_sites=90,
                                                      seed=2025))
    return Crawler(population, CrawlConfig(seed=request.param)).crawl()


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
class TestV2OracleEquivalence:
    def _datasets(self, logs, tmp_path, compress):
        v3 = tmp_path / "v3"
        save_logs(logs, v3, shards=3, compress=compress)
        manifest = ShardManifest.load(v3)
        v2_shards = []
        start = 0
        for name, count in zip(manifest.files, manifest.counts):
            path = tmp_path / "v2" / name
            path.parent.mkdir(exist_ok=True)
            write_v2_shard(logs[start:start + count], path)
            v2_shards.append(path)
            start += count
        return v3, v2_shards

    def test_columns_reports_and_site_bodies_match(self, seeded_logs,
                                                   tmp_path, compress):
        v3, v2_shards = self._datasets(seeded_logs, tmp_path, compress)
        v2_dicts = [read_v2_dicts(path) for path in v2_shards]
        v2_batches = [from_dicts(dicts) for dicts in v2_dicts]
        assert columns(iter_shard_batches(v3)) == columns(v2_batches)

        oracle = StudyAccumulator()
        for batch in v2_batches:
            oracle.add_shard_batch(batch)
        acc = StudyAccumulator()
        for batch in iter_shard_batches(v3):
            acc.add_shard_batch(batch)
        assert Study.from_accumulator(acc).report_bytes() \
            == Study.from_accumulator(oracle).report_bytes()

        cache: dict = {}
        for dicts in v2_dicts:
            for data in dicts:
                body = render_json(VisitLog.from_dict(data).to_dict())
                got = read_site(v3, data["rank"], index_cache=cache)
                assert render_json(got.to_dict()) == body

    def test_every_event_site_is_its_visits_site(self, seeded_logs,
                                                 tmp_path, compress):
        """v3 stores no per-event ``site``; the crawl never needs one."""
        _v3, v2_shards = self._datasets(seeded_logs, tmp_path, compress)
        events = 0
        for path in v2_shards:
            for data in read_v2_dicts(path):
                for family in ("cookie_writes", "cookie_reads",
                               "header_cookies", "requests",
                               "dom_mutations"):
                    for event in data[family]:
                        assert event["site"] == data["site"]
                        events += 1
        assert events > 1000


# ---------------------------------------------------------------------------
# v2-era artifacts are refused
# ---------------------------------------------------------------------------

class TestV2EraRefusals:
    def test_version_3_journal_asks_for_a_recrawl(self, tmp_path):
        """A v2-era ``queue.jsonl`` recorded digests of JSON-lines
        shards that no retry can reproduce now."""
        path = tmp_path / QUEUE_NAME
        records = [{"event": "plan", "version": 3, "run_key": "k",
                    "n_shards": 1},
                   {"event": "task", "index": 0, "ranks": [1, 2]}]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(CoordinationError,
                           match="unsupported queue version 3.*re-crawl"):
            WorkQueue.load(path)

    @staticmethod
    def _v2_dataset(logs, directory):
        """A one-shard dataset as format v2 wrote it."""
        directory.mkdir()
        name = shard_filename(0, compress=True)
        write_v2_shard(logs, directory / name)
        (directory / "manifest.json").write_text(json.dumps({
            "version": 1, "n_shards": 1, "total": len(logs),
            "compress": True,
            "shards": [{"index": 0, "file": name, "count": len(logs)}]}))
        return directory

    def test_v2_dataset_directory_asks_for_a_recrawl(self, crawl_logs,
                                                     tmp_path):
        directory = self._v2_dataset(crawl_logs[:4], tmp_path / "old")
        with pytest.raises(ManifestError, match="re-crawl"):
            list(iter_shard_batches(directory))

    def test_serve_catalog_skips_a_v2_study(self, crawl_logs, tmp_path):
        from repro.serve import StudyCatalog, StudyEntry
        save_logs(crawl_logs[:6], tmp_path / "current", shards=2)
        self._v2_dataset(crawl_logs[:4], tmp_path / "old")
        assert StudyCatalog(tmp_path).study_ids() == ["current"]
        with pytest.raises(ManifestError, match="re-crawl"):
            StudyEntry("old", tmp_path / "old")

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_v2_shard_under_a_v3_manifest_is_named(self, crawl_logs,
                                                   tmp_path, suffix):
        directory = tmp_path / "mixed"
        save_logs(crawl_logs[:4], directory, shards=1,
                  compress=suffix.endswith(".gz"))
        manifest = ShardManifest.load(directory)
        data = write_v2_shard(crawl_logs[:4], directory / manifest.files[0])
        dataclasses.replace(manifest, digests=(
            hashlib.sha256(data).hexdigest(),)).save(directory)
        with pytest.raises(ManifestError, match=r"shard 0 .*not a readable"):
            load_shard(directory, 0)


# ---------------------------------------------------------------------------
# Per-shard readers hold each shard to its manifest entry
# ---------------------------------------------------------------------------

@pytest.fixture()
def forty_site_crawl(tmp_path):
    """A 40-site plain crawl in 2 shards."""
    population = generate_population(PopulationConfig(n_sites=40,
                                                      seed=2025))
    logs = Crawler(population, CrawlConfig(seed=2025)).crawl()
    directory = tmp_path / "crawl"
    save_logs(logs, directory, shards=2)
    return directory


def _drop_last_group(directory, pos):
    """Cut shard ``pos`` back by its last row group, manifest untouched."""
    from repro.crawler.storage import load_shard_index
    manifest = ShardManifest.load(directory)
    index = load_shard_index(directory, manifest.files[pos])
    path = directory / manifest.files[pos]
    path.write_bytes(path.read_bytes()[:index.offsets[-1]])


class TestPerShardChecks:
    def test_refresh_refuses_a_shard_short_of_its_digest(
            self, forty_site_crawl):
        _drop_last_group(forty_site_crawl, 0)
        with pytest.raises(ManifestError, match=r"shard 0 .*hashes to"):
            list(iter_shard_batches(forty_site_crawl))
        with pytest.raises(ManifestError, match=r"shard 0 .*hashes to"):
            refresh_study(None, forty_site_crawl)

    def test_refresh_refuses_a_shard_short_of_its_count(
            self, forty_site_crawl):
        """Digest republished, count stale: the count check bites."""
        manifest = ShardManifest.load(forty_site_crawl)
        written = write_shard(load_shard(forty_site_crawl, 0)[:-1],
                              forty_site_crawl, 0)
        dataclasses.replace(manifest, digests=(
            written.sha256, manifest.digests[1])).save(forty_site_crawl)
        with pytest.raises(ManifestError, match=r"shard 0 .*manifest says"):
            refresh_study(None, forty_site_crawl)

    def test_refresh_checks_the_digest_its_part_is_filed_under(
            self, forty_site_crawl):
        """A manifest passed in, not the one on disk: parts are filed
        under its digests, and the ingested bytes must hash to them."""
        manifest = ShardManifest.load(forty_site_crawl)
        stale = dataclasses.replace(
            manifest, digests=("0" * 64, manifest.digests[1]))
        with pytest.raises(ManifestError, match=r"shard 0 .*hashes to"):
            list(iter_shard_batches(forty_site_crawl, shard=0,
                                    manifest=stale))
        with pytest.raises(ManifestError, match=r"shard 0 .*hashes to"):
            refresh_study(None, forty_site_crawl, manifest=stale)
        result = refresh_study(None, forty_site_crawl, manifest=manifest)
        assert [part.sha256 for part in result.snapshot.parts] \
            == list(manifest.digests)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_load_shard_names_a_garbled_shard(self, crawl_logs, tmp_path,
                                              compress):
        directory = tmp_path / "crawl"
        save_logs(crawl_logs[:20], directory, shards=2, compress=compress)
        manifest = ShardManifest.load(directory)
        path = directory / manifest.files[1]
        garbled = b"\x1f\x8b" + bytes(200) if compress else b"\xff" * 200
        path.write_bytes(garbled)
        dataclasses.replace(manifest, digests=(
            manifest.digests[0],
            hashlib.sha256(garbled).hexdigest())).save(directory)
        with pytest.raises(ManifestError, match=r"shard 1 \(shard-0001"):
            load_shard(directory, 1)
