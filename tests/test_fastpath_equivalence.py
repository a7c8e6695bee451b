"""Property-style equivalence of the PR 5 + PR 7 fast paths.

Every optimization in the hot-path sweeps claims "same answers, fewer
cycles".  This suite makes that claim falsifiable with randomized
inputs:

* memoized PSL lookups == the uncached reference algorithm;
* cached ``parse_url`` + interned ``Origin`` == a fresh parse;
* the domain-indexed ``CookieJar`` == a brute-force full-scan reference
  implementation (same cookies, same order, same touch effects);
* reads served from the jar's read memo == reads that re-scan, through
  seeded write/read sequences on a forward and a backward clock;
* the memoized ``parse_cookie_string`` == the uncached split, across
  the bound that empties its table, and the names and read-only
  mapping served from the same table == the ones built from the split;
* the visit hot path's per-input memos == what they replaced: the PSL
  cache keyed by raw host, attribution off the live call stack, the
  jar's ``document.cookie`` string memo, CookieGuard's per-site creator
  map, the cached ``str(url)``, and the crawler's resolved service
  specs;
* the compact single-buffer shard serializer round-trips the golden
  fixture byte-for-byte against a line-at-a-time reference;
* ``ShardKeyFactory`` keys == the original whole-payload hash;
* the columnar analysis pipeline (``ShardBatch`` + batch report
  passes) == the per-log oracle in ``tests/analysis_oracle.py``, event
  for event and down to the report bytes, over randomly seeded crawled
  populations — and batch-built accumulators merge associatively.

Randomness is seeded — failures reproduce.
"""

from __future__ import annotations

import gzip
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.page import Page
from repro.browser.scripts import Script
from repro.cookies import serialize
from repro.cookies.cookie import (Cookie, domain_match, parse_cookie_pair,
                                  path_match)
from repro.cookies.jar import CookieJar
from repro.cookies.serialize import to_cookie_string
from repro.crawler.distributed import ShardKeyFactory, ShardStore, WorkSpec
from repro.crawler.storage import (ShardManifest, compute_digest,
                                   load_logs, save_logs, write_shard)
from repro.net.psl import DEFAULT_PSL, PublicSuffixList
from repro.net.url import URL, parse_url
from repro.records import VisitLog
from analysis_oracle import object_path_study

GOLDEN = Path(__file__).parent / "data" / "golden_visitlog.json"

_LABELS = ["a", "b", "www", "api", "cdn", "example", "site-7", "x" * 40,
           "tracker", "metrics", "shop", "1", "255", "256", "999",
           "1" * 30, "0" * 300]
_SUFFIXES = ["com", "co.uk", "github.io", "ck", "bd", "com.bd", "zz",
             "org", "net.au", "blogspot.com"]


def _random_host(rng: random.Random) -> str:
    n = rng.randint(1, 4)
    host = ".".join(rng.choice(_LABELS) for _ in range(n))
    if rng.random() < 0.7:
        host += "." + rng.choice(_SUFFIXES)
    if rng.random() < 0.1:
        host = host.upper()
    if rng.random() < 0.1:
        host += "."
    if rng.random() < 0.05:
        host = "." + host
    if rng.random() < 0.08:
        host = ".".join(str(rng.randint(0, 300)) for _ in range(4))
    return host


class TestPSLMemoEquivalence:
    def test_randomized_hosts_agree_with_reference(self):
        rng = random.Random(2025)
        psl = PublicSuffixList()  # fresh instance: cold caches
        hosts = [_random_host(rng) for _ in range(2000)]
        for host in hosts + hosts:  # second pass exercises warm cache
            assert psl.public_suffix(host) == \
                psl.public_suffix_uncached(host), host
            assert psl.registrable_domain(host) == \
                psl.registrable_domain_uncached(host), host

    def test_default_psl_agrees_on_fixed_corpus(self):
        for host in ["example.com", "a.b.example.co.uk", "www.ck",
                     "sub.www.ck", "example.com.bd", "192.168.1.1",
                     "[2001:db8::1]", "EXAMPLE.ORG.", "com", "co.uk"]:
            assert DEFAULT_PSL.registrable_domain(host) == \
                DEFAULT_PSL.registrable_domain_uncached(host)

    def test_cache_is_bounded(self):
        psl = PublicSuffixList(cache_size=64)
        for i in range(1000):
            psl.registrable_domain(f"site-{i}.example.com")
        assert psl._domain_cached.cache_info().maxsize == 64
        assert psl._domain_cached.cache_info().currsize <= 64

    def test_is_ip_bounds_digit_runs(self):
        # A 300-digit label must not be treated as an IPv4 octet (and
        # must not cost a big-int conversion).
        assert not DEFAULT_PSL.is_ip("1.2.3." + "9" * 300)
        assert not DEFAULT_PSL.is_ip("1000.1000.1000.1000")
        assert DEFAULT_PSL.is_ip("255.255.255.255")
        assert not DEFAULT_PSL.is_ip("256.1.1.1")
        # Zero-padded octets keep their historical int() semantics.
        assert DEFAULT_PSL.is_ip("1.2.3.0255")
        assert DEFAULT_PSL.is_ip("0.0.0." + "0" * 300)
        assert not DEFAULT_PSL.is_ip("1.2.3.0256")
        # The giant-label host still resolves through the full paths.
        monster = "9" * 300 + ".example.com"
        assert DEFAULT_PSL.registrable_domain(monster) == "example.com"


class TestURLCacheEquivalence:
    RAWS = [
        "https://example.com/",
        "https://example.com/a/b?x=1&y=2#frag",
        "http://shop.example.co.uk:8080/checkout",
        "wss://live.example.com/socket",
        "https://EXAMPLE.com./path",
        "https://api.tracker.net/collect?uid=abc",
    ]

    def test_cached_parse_equals_fresh_dataclass(self):
        for raw in self.RAWS * 2:
            url = parse_url(raw)
            again = parse_url(raw)
            assert url == again
            # Compare against an uncached reconstruction of the fields.
            rebuilt = URL(url.scheme, url.host, url.port, url.path,
                          url.query, url.fragment)
            assert rebuilt == url and str(rebuilt) == str(url)

    def test_interned_origin_identity_and_equality(self):
        a = parse_url("https://example.com/a").origin
        b = parse_url("https://example.com/b?q=1").origin
        assert a == b and a is b  # interned: one instance per triple
        c = parse_url("https://example.com:8443/").origin
        assert c != a

    def test_opaque_origins_stay_opaque(self):
        from repro.net.url import Origin
        opaque = Origin.opaque()
        # Never same-origin, not even with itself — interning must not
        # (and does not) apply to opaque origins.
        assert not opaque.same_origin(opaque)
        assert not opaque.same_origin(Origin.opaque())

    def test_relative_parse_still_resolves_against_base(self):
        base = parse_url("https://example.com/dir/page.html")
        assert str(parse_url("/x?q=1", base=base)) == \
            "https://example.com/x?q=1"
        assert str(parse_url("img.gif", base=base)) == \
            "https://example.com/dir/img.gif"
        assert parse_url("//cdn.example.com/l.js", base=base).host == \
            "cdn.example.com"


def _reference_cookies_for_url(store_snapshot, url, now,
                               include_http_only=True):
    """The pre-index full-scan retrieval (verbatim from the old jar)."""
    matches = []
    for cookie in store_snapshot:
        if cookie.is_expired(now):
            continue
        if cookie.host_only:
            if url.host.lower() != cookie.domain:
                continue
        elif not domain_match(url.host, cookie.domain):
            continue
        if not path_match(url.path, cookie.path):
            continue
        if cookie.secure and not url.is_secure:
            continue
        if cookie.http_only and not include_http_only:
            continue
        matches.append(cookie)
    matches.sort(key=lambda c: (-len(c.path), c.creation_time))
    return matches


class TestJarIndexEquivalence:
    DOMAINS = ["example.com", "www.example.com", "sub.www.example.com",
               "other.net", "example.co.uk", "deep.a.b.example.com"]
    PATHS = ["/", "/a", "/a/", "/a/b", "/long/path/here"]
    HOSTS = ["example.com", "www.example.com", "sub.www.example.com",
             "unrelated.org", "a.b.example.com", "example.co.uk"]

    def _random_jar(self, rng: random.Random, n: int) -> CookieJar:
        jar = CookieJar()
        for i in range(n):
            cookie = Cookie(
                name=f"c{rng.randint(0, 30)}",
                value=f"v{i}",
                domain=rng.choice(self.DOMAINS),
                path=rng.choice(self.PATHS),
                expires=None if rng.random() < 0.7
                else rng.uniform(-10.0, 500.0),
                secure=rng.random() < 0.3,
                http_only=rng.random() < 0.3,
                host_only=rng.random() < 0.5,
                creation_time=float(rng.randint(0, 5)),
                last_access_time=float(rng.randint(0, 5)),
            )
            jar.set(cookie, now=0.0)
            if rng.random() < 0.1 and len(jar):
                victim = rng.choice(jar.all())
                jar.delete(victim.name, victim.domain, victim.path)
        return jar

    @pytest.mark.parametrize("seed", [1, 7, 42, 2025])
    def test_randomized_jars_match_full_scan(self, seed):
        rng = random.Random(seed)
        jar = self._random_jar(rng, 150)
        for trial in range(60):
            scheme = rng.choice(["https", "http"])
            url = parse_url(f"{scheme}://{rng.choice(self.HOSTS)}"
                            f"{rng.choice(self.PATHS)}")
            now = rng.uniform(0.0, 60.0)
            include = rng.random() < 0.5
            # Snapshot BEFORE the indexed call (it touches cookies).
            snapshot = jar.all()
            expected = _reference_cookies_for_url(
                snapshot, url, now, include_http_only=include)
            got = jar.cookies_for_url(url, now=now,
                                      include_http_only=include)
            assert [c.key for c in got] == [c.key for c in expected], \
                (seed, trial, str(url), now)
            # Touch semantics: every returned cookie is stored with
            # last_access_time == now.
            for cookie in got:
                assert jar.get(*cookie.key).last_access_time == now

    def test_index_survives_overwrite_delete_expire_evict(self):
        jar = CookieJar()
        url = parse_url("https://example.com/")
        jar.set(Cookie(name="a", value="1", domain="example.com"), now=0.0)
        jar.set(Cookie(name="a", value="2", domain="example.com",
                       creation_time=9.0), now=1.0)
        got = jar.cookies_for_url(url, now=1.0)
        assert [c.value for c in got] == ["2"]
        # Overwrite preserved the original creation time (§5.3 11.3).
        assert got[0].creation_time == 0.0
        jar.set(Cookie(name="a", value="", domain="example.com",
                       expires=-1.0), now=2.0)
        assert jar.cookies_for_url(url, now=2.0) == []
        assert len(jar) == 0
        assert jar._by_domain == {}  # index emptied in lockstep


class TestJarReadMemoEquivalence:
    """Reads through the jar's read memo == reads that bypass it.

    Two jars take one seeded sequence of writes and reads.  ``memo``
    serves repeated reads from its table; ``fresh`` empties the table
    before every read, so each of its reads re-scans.  After every
    operation the results and the stores — ``last_access_time``
    included — must agree.
    """

    DOMAINS = ["example.com", "www.example.com", "sub.www.example.com",
               "other.net"]
    NAMES = ["a", "b", "c", "_ga", "sid"]
    PATHS = ["/", "/a", "/a/b"]
    URLS = [parse_url(raw) for raw in (
        "https://example.com/", "https://www.example.com/a/b",
        "http://www.example.com/", "https://sub.www.example.com/a",
        "https://other.net/", "https://unrelated.org/")]

    def _cookie(self, rng: random.Random, now: float,
                expired: bool = False) -> Cookie:
        if expired:
            expires = now - rng.uniform(0.0, 5.0)
        elif rng.random() < 0.5:
            expires = None
        else:
            expires = now + rng.uniform(0.0, 6.0)
        return Cookie(name=rng.choice(self.NAMES),
                      value=f"v{rng.randint(0, 99)}",
                      domain=rng.choice(self.DOMAINS),
                      path=rng.choice(self.PATHS), expires=expires,
                      secure=rng.random() < 0.3,
                      http_only=rng.random() < 0.3,
                      host_only=rng.random() < 0.5,
                      creation_time=now, last_access_time=now)

    def _operations(self, rng: random.Random, n: int):
        """(kind, now, args) triples; reads often repeat a recent read."""
        forward, backward = 0.0, 50.0
        recent: list = []
        for _ in range(n):
            if rng.random() < 0.5:
                forward += rng.choice([0.0, 0.0, 0.5, 1.0])
                now = forward
            else:
                backward -= rng.choice([0.0, 0.0, 0.5, 1.0])
                now = backward
            roll = rng.random()
            if roll < 0.7:
                if recent and rng.random() < 0.5:
                    yield rng.choice(recent)
                    continue
                read = ("read", now, (rng.choice(self.URLS),
                                      rng.random() < 0.5,
                                      rng.random() < 0.7))
                recent = recent[-3:] + [read]
                yield read
            elif roll < 0.82:
                yield "set", now, (self._cookie(rng, now),)
            elif roll < 0.88:
                yield "expire", now, (self._cookie(rng, now, expired=True),)
            elif roll < 0.96:
                yield "delete", now, (rng.choice(self.NAMES),
                                      rng.choice(self.DOMAINS),
                                      rng.choice(self.PATHS))
            elif roll < 0.99:
                yield "purge", now, ()
            else:
                yield "clear", now, ()

    @staticmethod
    def _apply(jar: CookieJar, kind: str, now: float, args, *,
               bypass: bool):
        if kind == "read":
            url, include_http_only, touch = args
            if bypass:
                jar._reads.clear()
            return jar.cookies_for_url(url, now=now,
                                       include_http_only=include_http_only,
                                       touch=touch)
        if kind in ("set", "expire"):
            return jar.set(args[0], now=now)
        if kind == "delete":
            return jar.delete(*args)
        if kind == "purge":
            return jar.purge_expired(now)
        return jar.clear()

    @pytest.mark.parametrize("seed", [1, 7, 42, 2025])
    def test_memoized_reads_match_rescans(self, seed):
        rng = random.Random(seed)
        memo, fresh = CookieJar(), CookieJar()
        scans = {"memo": 0, "fresh": 0}
        for label, jar in (("memo", memo), ("fresh", fresh)):
            def counting(host, _scan=jar._candidates, _label=label):
                scans[_label] += 1
                return _scan(host)
            jar._candidates = counting
        reads = 0
        for step, (kind, now, args) in enumerate(
                self._operations(rng, 3000)):
            got = self._apply(memo, kind, now, args, bypass=False)
            expected = self._apply(fresh, kind, now, args, bypass=True)
            assert got == expected, (seed, step, kind, now)
            assert memo.all() == fresh.all(), (seed, step, kind, now)
            reads += kind == "read"
        assert scans["fresh"] == reads
        # The memo really served repeats, or the test proves nothing.
        assert scans["memo"] < reads * 0.9, scans

    def test_returned_list_is_the_callers_own(self):
        jar = CookieJar()
        url = parse_url("https://example.com/")
        jar.set(Cookie(name="a", value="1", domain="example.com"), now=0.0)
        first = jar.cookies_for_url(url, now=1.0)
        first.clear()
        assert [c.name for c in jar.cookies_for_url(url, now=1.0)] == ["a"]

    def test_every_store_write_clears_the_memo(self):
        jar = CookieJar()
        url = parse_url("https://example.com/")

        def read():
            jar.cookies_for_url(url, now=1.0)
            assert jar._reads

        read()
        jar.set(Cookie(name="a", value="1", domain="example.com"), now=1.0)
        assert not jar._reads
        read()
        jar.cookies_for_url(url, now=2.0)  # touches "a": a store write
        assert len(jar._reads) == 1
        read()
        jar.delete("a", "example.com")
        assert not jar._reads
        read()
        jar.clear()
        assert not jar._reads


def _uncached_parse_cookie_string(cookie_string: str):
    """The split ``parse_cookie_string`` ran before it was memoized."""
    pairs = []
    for chunk in cookie_string.split(";"):
        parsed = parse_cookie_pair(chunk)
        if parsed is not None:
            pairs.append(parsed)
    return pairs


class TestParseCookieStringMemoEquivalence:
    ALPHABET = "abXY09_-=;; \"%."

    def test_randomized_strings_agree_with_uncached_parse(self):
        rng = random.Random(2025)
        limit = serialize._PARSE_CACHE_LIMIT
        distinct = ["", ";", "a", "a=", "=b", " a = \"b\" ; c"]
        distinct += ["".join(rng.choice(self.ALPHABET)
                             for _ in range(rng.randint(0, 40)))
                     for _ in range(3 * limit)]
        # Every string twice, the repeats well after the table has been
        # emptied by the bound at least once.
        for cookie_string in distinct + distinct:
            got = serialize.parse_cookie_string(cookie_string)
            assert isinstance(got, tuple)
            assert list(got) == \
                _uncached_parse_cookie_string(cookie_string), cookie_string
            assert len(serialize._PARSE_CACHE) <= limit

    def test_repeats_share_one_parse(self):
        value = "a=1; b=2; c"
        first = serialize.parse_cookie_string(value)
        assert serialize.parse_cookie_string(value) is first
        assert first == (("a", "1"), ("b", "2"), ("c", ""))


class TestSerializerEquivalence:
    def test_golden_logs_round_trip_bit_identical(self, tmp_path):
        """GOLDEN fixture → new serializer → load → re-render == fixture."""
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        save_logs(logs, tmp_path)
        loaded = load_logs(tmp_path)
        rendered = json.dumps([log.to_dict() for log in loaded],
                              sort_keys=True, indent=1) + "\n"
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_row_groups_match_v2_oracle_columns(self, tmp_path):
        """The golden logs as v3 row groups decode to exactly the
        columns the v2 JSON lines of the same logs decode to."""
        from repro.analysis.columnar import iter_shard_batches
        from v2_oracle import columns, from_dicts, v2_lines
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        save_logs(logs, tmp_path)
        oracle = from_dicts([json.loads(line) for line in v2_lines(logs)])
        assert columns(iter_shard_batches(tmp_path)) == columns([oracle])

    def test_streaming_digest_matches_file_digest(self, tmp_path):
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        for compress in (False, True):
            written = write_shard(logs, tmp_path, 1, compress=compress)
            assert written.sha256 == \
                compute_digest(tmp_path / written.name)

    def test_gzip_member_header_stays_zeroed(self, tmp_path):
        """Every row group's gzip member is byte-identical to what
        ``GzipFile(filename="", mtime=0)`` writes for the group, so the
        file is plain multi-member gzip with zeroed headers."""
        import io
        from repro.crawler import storage
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        a = write_shard(logs, tmp_path / "one", 0, compress=True)
        b = write_shard(logs, tmp_path / "two", 0, compress=True)
        plain = write_shard(logs, tmp_path / "plain", 0)
        bytes_a = (tmp_path / "one" / a.name).read_bytes()
        bytes_b = (tmp_path / "two" / b.name).read_bytes()
        assert bytes_a == bytes_b  # mtime zeroed: pure function of logs
        groups = [bytes(group) for _o, _n, group in storage._row_groups(
            (tmp_path / "plain" / plain.name).read_bytes(), False)]
        members = []
        for group in groups:
            buffer = io.BytesIO()
            with gzip.GzipFile(filename="", mode="wb", fileobj=buffer,
                               mtime=0,
                               compresslevel=storage.GZIP_LEVEL) as out:
                out.write(group)
            members.append(buffer.getvalue())
        assert len(groups) == -(-len(logs) // storage.ROW_GROUP_VISITS)
        assert bytes_a == b"".join(members)
        assert gzip.decompress(bytes_a) == b"".join(groups)


class TestShardKeyFactoryEquivalence:
    @pytest.mark.parametrize("compress", [False, True])
    def test_factory_matches_reference_key(self, compress):
        rng = random.Random(5)
        factory = ShardKeyFactory("pop" * 20, "cfg" * 20, compress)
        for _ in range(50):
            ranks = sorted(rng.sample(range(10_000), rng.randint(1, 40)))
            assert factory.key_for(ranks) == ShardStore.shard_key(
                "pop" * 20, "cfg" * 20, ranks, compress)

    def test_serializer_format_version_is_part_of_the_key(self):
        """Pre-PR5 cache entries (old JSON separators) must MISS under
        the new keys — old-format bytes carry digests a v2 retry can
        never reproduce, so they must not enter a v2 run's journal."""
        import hashlib
        legacy_payload = {"population": "p" * 64, "config": "c" * 64,
                          "ranks": [1, 2], "compress": False}
        legacy_key = hashlib.sha256(json.dumps(
            legacy_payload, sort_keys=True).encode("utf-8")).hexdigest()
        assert ShardStore.shard_key("p" * 64, "c" * 64, (1, 2), False) \
            != legacy_key

    def test_workspec_threads_fingerprints(self, tmp_path):
        spec = WorkSpec(population={"n_sites": 4, "seed": 1},
                        config={"seed": 1, "interact": True,
                                "max_clicks": 3, "install_guard": False,
                                "guard_policy": None,
                                "guard_uncloak_dns": False},
                        shards=((0, 1), (2, 3)),
                        population_fp="p" * 64, config_fp="c" * 64)
        spec.save(tmp_path)
        loaded = WorkSpec.load(tmp_path / "workspec.json")
        assert loaded.population_fp == "p" * 64
        assert loaded.config_fp == "c" * 64
        factory = loaded.key_factory()
        assert factory.key_for((0, 1)) == ShardStore.shard_key(
            "p" * 64, "c" * 64, (0, 1), False)

    def test_worker_side_cache_serves_repeat_shards(self, tmp_path,
                                                    monkeypatch):
        """crawl-shard --cache-dir: the spec-carried fingerprints key a
        worker-side ShardStore, so a repeat shard is served from cache
        (zero visits) with byte-identical output."""
        from repro.crawler import (CrawlConfig, config_fingerprint,
                                   population_fingerprint,
                                   run_shard_worker)
        from repro.crawler import distributed as dist
        from repro.crawler.parallel import ShardPlan
        from repro.ecosystem import PopulationConfig, generate_population

        population = generate_population(
            PopulationConfig(n_sites=6, seed=2025))
        config = CrawlConfig(seed=2025)
        plan = ShardPlan.for_population(population, 2)
        spec = WorkSpec.build(population, config, plan, False)
        assert (spec.population_fp, spec.config_fp) == (
            population_fingerprint(population), config_fingerprint(config))
        # A worker writes its shard next to its spec: one spec per side.
        for side in ("one", "two"):
            (tmp_path / side).mkdir()
            spec.save(tmp_path / side)
        cache = tmp_path / "cache"

        first = run_shard_worker(tmp_path / "one" / "workspec.json", 0,
                                 cache_dir=cache)
        # Any further crawl attempt would prove the cache was bypassed.
        monkeypatch.setattr(
            dist, "_execute_shard",
            lambda *a, **k: pytest.fail("cache miss: shard re-crawled"))
        second = run_shard_worker(tmp_path / "two" / "workspec.json", 0,
                                  cache_dir=cache)
        assert second == first
        assert (tmp_path / "two" / first["file"]).read_bytes() == \
            (tmp_path / "one" / first["file"]).read_bytes()


def _report_blob(study) -> str:
    """Every §5 report of a Study as one canonical JSON string.

    Byte equality of this blob is the PR 7 equivalence bar: the
    columnar path may order intermediate event lists differently, but
    every emitted report table/figure must be identical bytes.
    """
    import dataclasses
    payload = {
        "sec51_prevalence": study.sec51_prevalence(),
        "sec52_api_usage": study.sec52_api_usage(),
        "table1": [dataclasses.asdict(r) for r in study.table1()],
        "table2": [dataclasses.asdict(r) for r in study.table2()],
        "figure2": [dataclasses.asdict(r) for r in study.figure2()],
        "sec55_overwrite": study.sec55_overwrite_attributes(),
        "table5": [dataclasses.asdict(r) for r in study.table5()],
        "figure8": {key: [dataclasses.asdict(r) for r in rows]
                    for key, rows in study.figure8().items()},
        "sec56_inclusion": study.sec56_inclusion(),
        "sec8_dom_pilot": study.sec8_dom_pilot(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestColumnarEquivalence:
    """``ShardBatch`` analysis == ``tests/analysis_oracle.py``, byte for
    byte."""

    def _crawled(self, seed: int, n_sites: int = 40):
        from repro.crawler import CrawlConfig, Crawler
        from repro.ecosystem import PopulationConfig, generate_population
        population = generate_population(
            PopulationConfig(n_sites=n_sites, seed=seed))
        return Crawler(population, CrawlConfig(seed=seed)).crawl(
            population.successful_sites(), keep_incomplete=True)

    @pytest.mark.parametrize("seed", [3, 11, 2025])
    def test_random_populations_report_identical_bytes(self, seed):
        from repro.analysis.columnar import ShardBatch
        from repro.analysis.reports import Study, StudyAccumulator
        logs = self._crawled(seed)
        reference = _report_blob(object_path_study(logs))
        # Path 1: Study(logs) — routes through ShardBatch.from_logs.
        assert _report_blob(Study(logs)) == reference
        # Path 2: an explicit batch fed whole to an accumulator.
        acc = StudyAccumulator()
        acc.add_shard_batch(ShardBatch.from_logs(logs))
        assert _report_blob(Study.from_accumulator(acc)) == reference

    @pytest.mark.parametrize("seed", [3, 11, 2025, "golden"])
    def test_events_equal_the_oracle_field_for_field(self, seed):
        """Every exfiltration event and manipulation, in order, field
        for field; every compared field is one a report reads."""
        from repro.analysis.reports import Study
        if seed == "golden":
            logs = [VisitLog.from_dict(entry) for entry in
                    json.loads(GOLDEN.read_text(encoding="utf-8"))]
        else:
            logs = self._crawled(seed)
        study, oracle = Study(logs), object_path_study(logs)
        assert study.exfil_events == oracle.exfil_events
        assert study.manipulations == oracle.manipulations
        assert study.exfil_events and study.manipulations

    def test_shard_dict_decode_matches_object_path(self, tmp_path):
        """JSON dicts → columns (no VisitLog objects) == object path."""
        from repro.analysis.columnar import iter_shard_batches
        from repro.analysis.reports import Study, StudyAccumulator
        from repro.crawler.storage import save_logs
        logs = self._crawled(7)
        save_logs(logs, tmp_path, shards=3, compress=True)
        acc = StudyAccumulator()
        for batch in iter_shard_batches(tmp_path):
            acc.add_shard_batch(batch)
        assert _report_blob(Study.from_accumulator(acc)) == \
            _report_blob(object_path_study(logs))

    def test_batch_object_view_round_trips(self, crawl_logs):
        """``ShardBatch.logs()`` rebuilds the exact VisitLog dicts."""
        from repro.analysis.columnar import ShardBatch
        logs = list(crawl_logs[:60])
        batch = ShardBatch.from_logs(logs)
        assert len(batch) == len(logs)
        assert [log.to_dict() for log in batch.logs()] == \
            [log.to_dict() for log in logs]

    def test_merge_is_associative_on_report_bytes(self, crawl_logs):
        """merge(a, merge(b, c)) == merge(merge(a, b), c) — the property
        the shard merge, the serve catalog, and the rank-bucket
        decomposition all rely on."""
        from repro.analysis.columnar import ShardBatch
        from repro.analysis.reports import Study, StudyAccumulator
        logs = list(crawl_logs[:90])
        thirds = [logs[0:30], logs[30:60], logs[60:90]]

        def acc_of(chunk):
            acc = StudyAccumulator()
            acc.add_shard_batch(ShardBatch.from_logs(chunk))
            return acc

        a_then_bc = StudyAccumulator()
        a_then_bc.update(acc_of(thirds[0]))
        bc = StudyAccumulator()
        bc.update(acc_of(thirds[1]))
        bc.update(acc_of(thirds[2]))
        a_then_bc.update(bc)

        ab_then_c = StudyAccumulator()
        ab = StudyAccumulator()
        ab.update(acc_of(thirds[0]))
        ab.update(acc_of(thirds[1]))
        ab_then_c.update(ab)
        ab_then_c.update(acc_of(thirds[2]))

        left = _report_blob(Study.from_accumulator(a_then_bc))
        right = _report_blob(Study.from_accumulator(ab_then_c))
        assert left == right
        # And both equal the unsplit whole.
        assert left == _report_blob(Study.from_accumulator(acc_of(logs)))

    def test_golden_fixture_through_the_batch_path(self, tmp_path):
        from repro.analysis.columnar import iter_shard_batches
        from repro.analysis.reports import Study, StudyAccumulator
        from v2_oracle import from_dicts
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        reference = _report_blob(object_path_study(logs))
        assert _report_blob(Study(logs)) == reference
        # The v2 decode loop: straight off the JSON entries.
        acc = StudyAccumulator()
        acc.add_shard_batch(from_dicts(entries))
        assert _report_blob(Study.from_accumulator(acc)) == reference
        # The v3 decode loop: row groups off a one-shard dataset.
        save_logs(logs, tmp_path, compress=True)
        acc = StudyAccumulator()
        for batch in iter_shard_batches(tmp_path):
            acc.add_shard_batch(batch)
        assert _report_blob(Study.from_accumulator(acc)) == reference


class TestSplitCandidatesFastEquivalence:
    CORPUS = [
        "", "short", "abcdefgh", "abcdefg",  # boundary at MIN length
        "uid=4f3a9b2c1d8e7f60&session=zzzz; theme=dark",
        "a" * 7 + "-" + "b" * 8 + "_" + "c" * 64,
        "%7Btoken%7D=ABCDEFGH12345678&x=----",
        "trailing-run-ends-here-0123456789abcdef",
        "0123456789abcdef",  # one pure run, no delimiters
        # Non-ASCII: isalnum() admits these, the ASCII class must not —
        # the fast path has to fall back to the reference loop.
        "αβγδεζηθικλμνξο",
        "abcd1234日本語efgh5678",
        "Ωmega-uid-ABCDEFGH87654321",
        "é" * 10 + "&" + "x" * 12,
        "ＡＢＣＤＥＦＧＨ",  # fullwidth letters are alnum too
    ]

    def test_fixed_corpus_agrees_with_reference(self):
        from repro.analysis.exfiltration import (split_candidates,
                                                 split_candidates_fast)
        for value in self.CORPUS:
            assert split_candidates_fast(value) == \
                split_candidates(value), value

    def test_randomized_values_agree_with_reference(self):
        from repro.analysis.exfiltration import (split_candidates,
                                                 split_candidates_fast)
        rng = random.Random(2025)
        alphabet = ("abcXYZ0189" + "-_.;&= %" + "éλ語Ω")
        for trial in range(400):
            value = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 80)))
            assert split_candidates_fast(value) == \
                split_candidates(value), (trial, value)


class TestAtomicManifestSave:
    def _manifest(self) -> ShardManifest:
        return ShardManifest(n_shards=1, total=2, compress=False,
                             files=("shard-0000.jsonl",), counts=(2,),
                             digests=("0" * 64,))

    def test_save_leaves_no_temp_file(self, tmp_path):
        self._manifest().save(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json"}
        assert ShardManifest.load(tmp_path).total == 2

    def test_save_replaces_existing_manifest_atomically(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"torn', encoding="utf-8")
        self._manifest().save(tmp_path)
        assert ShardManifest.load(tmp_path).n_shards == 1


# -- the visit hot path's per-input memos ------------------------------------

_HOST_LABELS = ["a", "WWW", "Example", "co", "UK", "github", "io", "ck",
                "www", "bd", "com", "net", "1", "255", "256", "x" * 30]


@st.composite
def _raw_hosts(draw):
    """Hosts the way callers hand them over: any case, edge dots and
    whitespace, IP literals, empty."""
    kind = draw(st.sampled_from(["name", "name", "ipv4", "ipv6", "blank"]))
    if kind == "ipv4":
        host = ".".join(str(draw(st.integers(0, 300))) for _ in range(4))
    elif kind == "ipv6":
        host = draw(st.sampled_from(["[2001:db8::1]", "::1", "[::1]",
                                     "fe80::1", "2001:DB8::A"]))
    elif kind == "blank":
        host = draw(st.sampled_from(["", " ", ".", "..", " . "]))
    else:
        host = ".".join(draw(st.lists(st.sampled_from(_HOST_LABELS),
                                      min_size=1, max_size=4)))
    host = draw(st.sampled_from(["", ".", ".."])) + host
    host += draw(st.sampled_from(["", ".", ".."]))
    return draw(st.sampled_from(["", " ", "\t"])) + host + \
        draw(st.sampled_from(["", " ", "\n"]))


class TestRawHostPSLCache:
    """The PSL memo is keyed by the raw host; normalizing happens inside
    the cached function, so every spelling must still agree with the
    reference algorithm, cold and warm."""

    PSL = PublicSuffixList(cache_size=32)  # shared: warm across examples

    @settings(max_examples=400, deadline=None)
    @given(_raw_hosts())
    def test_raw_hosts_agree_with_reference(self, host):
        psl = self.PSL
        for _ in range(2):
            assert psl.registrable_domain(host) == \
                psl.registrable_domain_uncached(host)
            assert psl.public_suffix(host) == psl.public_suffix_uncached(host)
        assert psl._domain_cached.cache_info().currsize <= 32
        assert psl._suffix_cached.cache_info().currsize <= 32


class TestLiveStackAttribution:
    """``CallStack`` and the network layer read the live frames; the
    answers must be the ones a snapshot of the same stack gives."""

    SCRIPTS = [Script.inline(label="inline"),
               Script.external("https://site.com/main.js"),
               Script.external("https://cdn.tracker.com/t.js"),
               Script.inline(label="ext-owned"),
               Script.external("https://ads.example.co.uk/a.js?v=2")]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 4),
                              st.booleans()), max_size=30))
    def test_live_walk_equals_snapshot(self, steps):
        page = Page("https://site.com/")
        stack = page.stack
        open_frames = []
        try:
            for push, index, async_boundary in steps:
                if push or not open_frames:
                    frame = stack.executing(self.SCRIPTS[index],
                                            async_boundary=async_boundary)
                    frame.__enter__()
                    open_frames.append(frame)
                else:
                    open_frames.pop().__exit__(None, None, None)
                snapshot = stack.snapshot()
                for async_traces in (True, False):
                    assert stack.attribute(async_traces=async_traces) is \
                        snapshot.attribute(async_traces=async_traces)
                assert stack.attributed_urls() == snapshot.attributed_urls()
                page.network.request(parse_url("https://x.com/p"))
                request = page.network.requests[-1]
                initiator = snapshot.attribute()
                assert request.initiator_url == \
                    (initiator.url if initiator is not None else None)
                assert request.initiator_stack == snapshot.attributed_urls()
        finally:
            # Innermost first, as the frames were entered: left to the
            # garbage collector they unwind in any order and the stack
            # raises "call stack corrupted" from a finalizer.
            while open_frames:
                open_frames.pop().__exit__(None, None, None)


class _SetClock:
    """A clock the test moves to any time, backwards included."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time


class TestDocumentCookieStringMemo:
    """``document.cookie`` served from the jar's string memo == the
    string joined from a re-scanning read, after every step of the
    ``TestJarReadMemoEquivalence`` stream, with equal stores after."""

    @pytest.mark.parametrize("seed", [1, 7, 42, 2025])
    def test_memoized_string_matches_rescan(self, seed):
        from repro.browser.document_cookie import DocumentCookie
        rng = random.Random(seed)
        stream = TestJarReadMemoEquivalence()
        memo, fresh = CookieJar(), CookieJar()
        clock = _SetClock()
        documents = {url: DocumentCookie(memo, url, clock)
                     for url in stream.URLS}
        joins = 0

        def counting(url, now, _read=memo.script_visible):
            nonlocal joins
            joins += 1
            return _read(url, now)

        memo.script_visible = counting
        gets = 0
        for step, (kind, now, args) in enumerate(
                stream._operations(rng, 3000)):
            stream._apply(memo, kind, now, args, bypass=False)
            stream._apply(fresh, kind, now, args, bypass=True)
            urls = rng.sample(stream.URLS, 2)
            for url in urls + urls:
                clock.time = now
                got = documents[url].get()
                fresh._reads.clear()
                assert got == to_cookie_string(
                    fresh.script_visible(url, now)), (seed, step, str(url))
                assert memo.all() == fresh.all(), (seed, step, str(url))
                gets += 1
        # The string memo really served repeats.
        assert joins < gets * 0.6, (joins, gets)


class TestCreatorStoreMap:
    """The per-site creator map == the comprehension over (site, name)
    keys it replaced, after every record and forget."""

    SITES = ["a.com", "b.com", "c.org"]
    NAMES = ["_ga", "uid", "sid", "x"]
    CREATORS = ["a.com", "tracker.com", "cdn.net", "<inline>"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_map_equals_comprehension(self, seed):
        from repro.cookieguard.metadata import CreatorStore
        rng = random.Random(seed)
        store = CreatorStore()
        reference = {}
        for _ in range(600):
            site, name = rng.choice(self.SITES), rng.choice(self.NAMES)
            if rng.random() < 0.7:
                creator = rng.choice(self.CREATORS)
                store.record_creation(site, name, creator)
                reference.setdefault((site, name), creator)
            else:
                store.forget(site, name)
                reference.pop((site, name), None)
            for each in self.SITES + ["never.com"]:
                assert dict(store.known_cookies(each)) == \
                    {n: c for (s, n), c in reference.items() if s == each}
                for n in self.NAMES:
                    assert store.creator_of(each, n) == \
                        reference.get((each, n))
            assert len(store) == len(reference)

    def test_known_cookies_is_read_only(self):
        from repro.cookieguard.metadata import CreatorStore
        store = CreatorStore()
        store.record_creation("a.com", "_ga", "tracker.com")
        for site in ("a.com", "never.com"):
            with pytest.raises(TypeError):
                store.known_cookies(site)["_ga"] = "evil.com"
        assert store.creator_of("a.com", "_ga") == "tracker.com"


class TestURLTextCache:
    RAWS = TestURLCacheEquivalence.RAWS + [
        "http://example.com:8080/p?q=1#f", "https://a.b.example.com"]

    def test_text_is_stable_and_invisible_to_value_semantics(self):
        import dataclasses
        import pickle
        for raw in self.RAWS:
            url = parse_url(raw)
            fields = (url.scheme, url.host, url.port, url.path, url.query,
                      url.fragment)
            cold = URL(*fields)
            first = str(url)
            assert str(url) is first  # rendered once, then served
            assert first == str(URL(*fields))
            assert url == cold and hash(url) == hash(cold)
            assert repr(url) == repr(cold)
            assert "_text" not in {f.name for f in dataclasses.fields(URL)}
            assert str(pickle.loads(pickle.dumps(url))) == first
            assert url.with_query("z=1") != url
            assert str(url.with_query("z=1")) != first


class TestParseTableViews:
    ALPHABET = "abXY09_-=;; \"%."

    def test_names_and_mapping_agree_with_pairs(self):
        rng = random.Random(7)
        strings = ["", "a=1; a=2; b", " x = \"y\" ; =z; w"]
        strings += ["".join(rng.choice(self.ALPHABET)
                            for _ in range(rng.randint(0, 40)))
                    for _ in range(2 * serialize._PARSE_CACHE_LIMIT)]
        for cookie_string in strings + strings:
            pairs = _uncached_parse_cookie_string(cookie_string)
            assert serialize.cookie_names(cookie_string) == \
                tuple(name for name, _value in pairs)
            mapping = serialize.cookie_mapping(cookie_string)
            assert dict(mapping) == dict(pairs)
            assert list(mapping) == list(dict(pairs))
            with pytest.raises(TypeError):
                mapping["a"] = "mutated"

    def test_behaviours_get_the_shared_read_only_mapping(self):
        from repro.ecosystem.behaviors import _visible_cookies
        page = Page("https://site.com/")
        page.js.set_cookie("a=1")
        jar = _visible_cookies(page.js)
        assert jar is serialize.cookie_mapping(page.js.get_cookie())
        with pytest.raises(TypeError):
            jar["b"] = "2"


class TestResolvedSpecMemo:
    """The crawler's memoized spec == the ``with_overrides`` chain it
    replaced, for direct, indirect and cloaked services, case-study
    overrides included."""

    @staticmethod
    def _chain(services, site, key):
        spec = services[key]
        overrides = site.service_overrides.get(key)
        if overrides:
            spec = spec.with_overrides(**overrides)
        assigned = site.indirect_assignments.get(key)
        if assigned:
            return spec.with_overrides(children=assigned,
                                       child_count=(len(assigned),
                                                    len(assigned)))
        return spec.with_overrides(children=(), child_count=(0, 0))

    def test_memo_equals_override_chain(self):
        from repro.crawler.crawler import Crawler
        from repro.ecosystem.population import (PopulationConfig,
                                                generate_population)
        population = generate_population(PopulationConfig(n_sites=320,
                                                          seed=2025))
        services = population.services
        crawler = Crawler(population)
        overridden = 0
        for rank in list(range(1, 61)) + [240, 310]:
            site = population.site(rank)
            resolve = crawler._resolver_for(site)
            keys = list(site.direct_services)
            for children in site.indirect_assignments.values():
                keys.extend(children)
            for key in keys:
                spec, _behavior = resolve(key)
                assert spec == self._chain(services, site, key), (rank, key)
                assert resolve(key)[0] is spec  # one spec per triple
                overridden += bool(site.service_overrides.get(key))
            for key in site.cloaked_services:
                assert crawler._resolved_spec(key, (), ()) == \
                    services[key].with_overrides(children=(),
                                                 child_count=(0, 0))
        assert overridden == 2  # both case-study sites were checked
