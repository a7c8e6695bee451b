"""Sharded crawl-dataset storage: round-trips, streaming, manifest errors."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis import Study
from repro.crawler import (
    ManifestError,
    ShardManifest,
    VisitLog,
    iter_logs,
    load_logs,
    save_logs,
)
from repro.crawler.storage import (MANIFEST_NAME, MANIFEST_VERSION,
                                   compute_digest, load_shard,
                                   shard_filename, verify_shard_files,
                                   write_shard)


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


def _republish(directory, index, sha256):
    """Record ``sha256`` as shard ``index``'s digest, counts untouched."""
    manifest = ShardManifest.load(directory)
    digests = list(manifest.digests)
    digests[index] = sha256
    dataclasses.replace(manifest, digests=tuple(digests)).save(directory)


@pytest.fixture()
def sharded_dir(crawl_logs, tmp_path):
    directory = tmp_path / "crawl"
    save_logs(crawl_logs, directory, shards=4)
    return directory


class TestShardedRoundTrip:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_save_load_identical(self, crawl_logs, tmp_path, compress):
        directory = tmp_path / "crawl"
        written = save_logs(crawl_logs, directory, shards=3,
                            compress=compress)
        assert written == len(crawl_logs)
        suffix = ".jsonl.gz" if compress else ".jsonl"
        assert (directory / f"shard-0000{suffix}").exists()
        assert _stream(load_logs(directory)) == _stream(crawl_logs)

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_sharded_study_equals_in_memory(self, crawl_logs, tmp_path,
                                            compress):
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        manifest = ShardManifest.load(directory)
        shards = [load_shard(directory, i)
                  for i in range(manifest.n_shards)]
        merged = Study.from_shards(shards)
        mono = Study(crawl_logs)
        assert merged.table1() == mono.table1()
        assert merged.table2(20) == mono.table2(20)
        assert merged.table5(10) == mono.table5(10)
        assert merged.sec51_prevalence() == mono.sec51_prevalence()

    def test_existing_directory_implies_sharded(self, crawl_logs, tmp_path):
        directory = tmp_path / "crawl"
        directory.mkdir()
        save_logs(crawl_logs[:6], directory)
        manifest = ShardManifest.load(directory)
        assert manifest.n_shards == 1
        assert manifest.total == 6

    def test_iter_logs_streams_in_shard_order(self, sharded_dir, crawl_logs):
        streamed = list(iter_logs(sharded_dir))
        assert _stream(streamed) == _stream(crawl_logs)

    def test_load_shard_partition(self, sharded_dir, crawl_logs):
        manifest = ShardManifest.load(sharded_dir)
        pieces = [load_shard(sharded_dir, i)
                  for i in range(manifest.n_shards)]
        assert [len(piece) for piece in pieces] == list(manifest.counts)
        flat = [log for piece in pieces for log in piece]
        assert _stream(flat) == _stream(crawl_logs)

    def test_single_file_layout_unchanged(self, crawl_logs, tmp_path):
        path = tmp_path / "crawl.jsonl"
        save_logs(crawl_logs[:5], path)
        assert path.is_file()
        assert len(load_logs(path)) == 5


class TestManifestErrors:
    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ManifestError, match="no manifest"):
            load_logs(empty)

    def test_missing_shard_file(self, sharded_dir):
        (sharded_dir / shard_filename(2)).unlink()
        with pytest.raises(ManifestError, match="missing shard"):
            load_logs(sharded_dir)

    def test_count_mismatch(self, sharded_dir):
        """Shard 1 rewritten one log short, its digest republished but
        its count left stale: the count check names the shard."""
        written = write_shard(load_shard(sharded_dir, 1)[:-1], sharded_dir, 1)
        _republish(sharded_dir, 1, written.sha256)
        with pytest.raises(ManifestError,
                           match=r"shard 1 .*holds \d+ logs, manifest says"):
            load_logs(sharded_dir)

    def test_total_mismatch(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["total"] += 1
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="sum of shard counts"):
            load_logs(sharded_dir)

    def test_unsupported_version(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["version"] = 99
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="version"):
            load_logs(sharded_dir)

    def test_malformed_json(self, sharded_dir):
        (sharded_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_logs(sharded_dir)

    def test_missing_fields(self, sharded_dir):
        (sharded_dir / MANIFEST_NAME).write_text(
            json.dumps({"version": MANIFEST_VERSION}))
        with pytest.raises(ManifestError, match="malformed"):
            load_logs(sharded_dir)

    def test_non_contiguous_indexes(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["shards"][0]["index"] = 7
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="non-contiguous"):
            load_logs(sharded_dir)

    def test_shard_index_out_of_range(self, sharded_dir):
        with pytest.raises(ManifestError, match="out of range"):
            load_shard(sharded_dir, 11)

    def test_gz_name_over_plain_bytes_names_the_shard(self, crawl_logs,
                                                      tmp_path):
        """Manifest says gzip, disk holds plain row groups (with a
        matching digest): ManifestError naming the layout."""
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=2, compress=True)
        plain = write_shard(load_shard(directory, 1), tmp_path / "plain", 1)
        victim = directory / shard_filename(1, compress=True)
        victim.write_bytes((tmp_path / "plain" / plain.name).read_bytes())
        _republish(directory, 1, compute_digest(victim))
        with pytest.raises(ManifestError,
                           match=r"shard 1 .*not a readable gzip"):
            load_logs(directory)

    def test_plain_name_over_gzip_bytes_names_the_shard(self, crawl_logs,
                                                        tmp_path):
        """Manifest says plain, disk holds gzip bytes: ManifestError."""
        import gzip

        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=2)
        victim = directory / shard_filename(0)
        victim.write_bytes(gzip.compress(victim.read_bytes()))
        _republish(directory, 0, compute_digest(victim))
        with pytest.raises(ManifestError,
                           match=r"shard 0 .*not a readable plain"):
            load_logs(directory)

    def test_version_1_manifest_asks_for_a_recrawl(self, sharded_dir):
        """A format-v2 (JSON lines) dataset is refused up front."""
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["version"] = 1
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="JSON-lines.*re-crawl"):
            load_logs(sharded_dir)

    def test_load_shard_names_a_corrupt_shard(self, sharded_dir):
        victim = sharded_dir / shard_filename(2)
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(ManifestError, match=r"shard 2 .*hashes to"):
            load_shard(sharded_dir, 2)
        # Cut mid-group with the digest republished: the framing fails.
        victim.write_bytes(bytes(data[:len(data) // 2]))
        _republish(sharded_dir, 2, compute_digest(victim))
        with pytest.raises(ManifestError,
                           match=r"shard 2 .*truncated row group"):
            load_shard(sharded_dir, 2)

    def test_json_lines_single_file_asks_for_a_recrawl(self, crawl_logs,
                                                       tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(crawl_logs[0].to_dict()) + "\n")
        with pytest.raises(ManifestError, match="format v2.*re-crawl"):
            load_logs(path)


class TestShardDigests:
    def test_save_logs_records_digests(self, sharded_dir):
        manifest = ShardManifest.load(sharded_dir)
        assert len(manifest.digests) == manifest.n_shards
        for index, name in enumerate(manifest.files):
            assert manifest.digest_for(index) \
                == compute_digest(sharded_dir / name)

    def test_verify_shard_files_passes_clean_dataset(self, sharded_dir):
        verify_shard_files(sharded_dir)

    def test_verify_shard_files_catches_tampering(self, sharded_dir):
        victim = sharded_dir / shard_filename(2)
        victim.write_bytes(victim.read_bytes() + b"extra\n")
        with pytest.raises(ManifestError, match="shard 2 .*hashes to"):
            verify_shard_files(sharded_dir)

    def test_verify_shard_files_catches_missing_file(self, sharded_dir):
        (sharded_dir / shard_filename(1)).unlink()
        with pytest.raises(ManifestError, match="missing shard"):
            verify_shard_files(sharded_dir)

    def test_digestless_manifest_still_loads(self, sharded_dir, crawl_logs):
        """Datasets written before digests existed remain readable."""
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        for shard in data["shards"]:
            shard.pop("sha256", None)
        manifest_path.write_text(json.dumps(data))
        manifest = ShardManifest.load(sharded_dir)
        assert manifest.digests == ()
        assert manifest.digest_for(0) is None
        verify_shard_files(sharded_dir)    # existence-only check
        assert len(load_logs(sharded_dir)) == len(crawl_logs)

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_write_shard_digest_is_pure_function_of_logs(self, crawl_logs,
                                                         tmp_path, compress):
        """Byte-determinism: same logs, same digest — even gzipped."""
        first = write_shard(crawl_logs[:5], tmp_path / "a", 0,
                            compress=compress)
        second = write_shard(crawl_logs[:5], tmp_path / "b", 0,
                             compress=compress)
        assert first.sha256 == second.sha256
        assert (tmp_path / "a" / first.name).read_bytes() \
            == (tmp_path / "b" / second.name).read_bytes()


# ---------------------------------------------------------------------------
# Sidecar seek indexes (PR 6): derived data, never part of the dataset
# ---------------------------------------------------------------------------

class TestShardIndexes:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_sidecars_written_alongside_shards(self, crawl_logs, tmp_path,
                                               compress):
        from repro.crawler.storage import (index_filename, load_shard_index)
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        manifest = ShardManifest.load(directory)
        for i, name in enumerate(manifest.files):
            assert (directory / index_filename(name)).exists()
            index = load_shard_index(directory, name)
            assert index is not None
            assert index.count == manifest.counts[i]
            assert index.sha256 == manifest.digests[i]
            assert list(index.ranks) == sorted(index.ranks)

    def test_sidecar_does_not_change_shard_bytes_or_digests(
            self, crawl_logs, tmp_path):
        """The index is derived data: digests (and therefore cache keys,
        run keys, and the golden fixture) are untouched by its
        existence."""
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3)
        manifest = ShardManifest.load(directory)
        for i, name in enumerate(manifest.files):
            assert compute_digest(directory / name) == manifest.digests[i]

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_read_site_indexed_equals_scan(self, crawl_logs, tmp_path,
                                           compress):
        from repro.crawler.storage import read_site
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        cache = {}
        for log in crawl_logs:
            indexed = read_site(directory, log.rank, index_cache=cache)
            scanned = read_site(directory, log.rank,
                                index_cache=dict.fromkeys(range(3)))
            assert indexed.to_dict() == log.to_dict()
            assert scanned.to_dict() == indexed.to_dict()

    def test_read_site_missing_rank_raises(self, sharded_dir):
        from repro.crawler.storage import read_site
        with pytest.raises(KeyError):
            read_site(sharded_dir, 10**9)

    def test_missing_sidecars_fall_back_to_scan(self, crawl_logs,
                                                sharded_dir):
        from repro.crawler.storage import read_site
        for path in sharded_dir.glob("*.index.json"):
            path.unlink()
        log = crawl_logs[3]
        assert read_site(sharded_dir, log.rank).to_dict() == log.to_dict()

    def test_stale_sidecar_is_ignored(self, crawl_logs, sharded_dir):
        """A sidecar whose recorded sha disagrees with the manifest
        digest (e.g. the shard was re-crawled) must not be trusted."""
        from repro.crawler.storage import (index_filename, load_shard_index,
                                          read_site)
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        sidecar = sharded_dir / index_filename(name)
        doctored = json.loads(sidecar.read_text())
        doctored["sha256"] = "0" * 64
        # Point the first entry at a bogus offset: a reader trusting
        # this sidecar would return garbage instead of falling back.
        doctored["offsets"][0] = 7
        sidecar.write_text(json.dumps(doctored))
        assert load_shard_index(sharded_dir, name) is not None  # loads...
        ranks = json.loads(sidecar.read_text())["ranks"]
        log = next(l for l in crawl_logs if l.rank == ranks[0])
        # ...but read_site cross-checks against the manifest and scans.
        got = read_site(sharded_dir, log.rank, manifest=manifest)
        assert got.to_dict() == log.to_dict()

    def test_torn_sidecar_is_ignored(self, crawl_logs, sharded_dir):
        from repro.crawler.storage import (index_filename, load_shard_index,
                                          read_site)
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        sidecar = sharded_dir / index_filename(name)
        sidecar.write_text(sidecar.read_text()[:25])
        assert load_shard_index(sharded_dir, name) is None
        log = crawl_logs[0]
        assert read_site(sharded_dir, log.rank,
                         manifest=manifest).to_dict() == log.to_dict()

    def test_backfill_rebuilds_byte_identical_sidecars(self, sharded_dir):
        from repro.crawler.storage import build_shard_indexes, index_filename
        manifest = ShardManifest.load(sharded_dir)
        originals = {name: (sharded_dir / index_filename(name)).read_bytes()
                     for name in manifest.files}
        for name in manifest.files:
            (sharded_dir / index_filename(name)).unlink()
        result = build_shard_indexes(sharded_dir)
        assert (result.built, result.up_to_date) == (manifest.n_shards, 0)
        for name, blob in originals.items():
            assert (sharded_dir / index_filename(name)).read_bytes() == blob
        # Valid sidecars are left alone on a second pass — and counted,
        # so the CLI can report "N indexed, M up-to-date" truthfully.
        result = build_shard_indexes(sharded_dir)
        assert (result.built, result.up_to_date) == (0, manifest.n_shards)

    def test_format_v2_sidecar_is_ignored_and_backfilled(self, crawl_logs,
                                                         sharded_dir):
        """A version-1 sidecar (line offsets into JSON lines) never
        steers a lookup; ``build_shard_indexes`` replaces it."""
        from repro.crawler.storage import (build_shard_indexes,
                                           index_filename, load_shard_index,
                                           read_site)
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        sidecar = sharded_dir / index_filename(name)
        current = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({
            "version": 1, "file": name, "count": current["count"],
            "sha256": current["sha256"], "ranks": current["ranks"],
            "offsets": [0] * current["count"],
            "lengths": [1] * current["count"]}))
        assert load_shard_index(sharded_dir, name) is None
        log = next(l for l in crawl_logs if l.rank == current["ranks"][0])
        assert read_site(sharded_dir, log.rank).to_dict() == log.to_dict()
        assert build_shard_indexes(sharded_dir).built == 1
        assert json.loads(sidecar.read_text()) == current


# ---------------------------------------------------------------------------
# Indexed and scan paths must return the same log for the same rank
# ---------------------------------------------------------------------------

class TestLookupPathEquivalence:
    """read_site: backfilled sidecar lookup == full-scan fallback.

    Every row of a row-group shard keeps its rank in an int64 column,
    so a rank-less row cannot be written: a log read from a record
    without a rank carries :class:`VisitLog`'s default rank 0 into the
    shard.  Both lookup paths must file it there, and must answer a
    rank no shard holds with the same ``KeyError``.
    """

    def test_rankless_line_misses_identically_on_both_paths(
            self, crawl_logs, tmp_path):
        from repro.crawler.storage import (build_shard_indexes,
                                           index_filename, read_site)
        log = next(l for l in crawl_logs if l.rank)
        data = crawl_logs[1].to_dict()
        del data["rank"]
        rankless = VisitLog.from_dict(data)
        directory = tmp_path / "crawl"
        save_logs([rankless, log], directory, shards=1)
        (directory / index_filename(shard_filename(0))).unlink()
        assert build_shard_indexes(directory).built == 1
        for rank, expected in ((0, rankless), (log.rank, log)):
            indexed = read_site(directory, rank)
            scanned = read_site(directory, rank, index_cache={0: None})
            assert indexed.to_dict() == scanned.to_dict() \
                == expected.to_dict()
        for cache in ({}, {0: None}):
            with pytest.raises(KeyError):
                read_site(directory, 10 ** 9, index_cache=cache)


# ---------------------------------------------------------------------------
# Truncation: every byte prefix of a shard is refused or a row-group prefix
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTruncatedShards:
    """Cut a small shard at every byte: each reader raises ManifestError
    or, only at a row-group boundary, returns a prefix of the rows."""

    @pytest.mark.parametrize("group", [1, 2], ids=["g1", "g2"])
    @pytest.mark.parametrize("digests", [True, False],
                             ids=["digests", "digestless"])
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_every_prefix(self, crawl_logs, tmp_path, monkeypatch, group,
                          digests, compress):
        from repro.analysis.columnar import iter_shard_batches
        from repro.crawler import storage
        monkeypatch.setattr(storage, "ROW_GROUP_VISITS", group)
        logs = sorted(crawl_logs, key=lambda log: len(
            json.dumps(log.to_dict())))[:3]
        expected = [log.to_dict() for log in logs]
        directory = tmp_path / "crawl"
        save_logs(logs, directory, shards=1, compress=compress)
        if not digests:
            manifest = ShardManifest.load(directory)
            dataclasses.replace(manifest, digests=()).save(directory)
        shard = directory / shard_filename(0, compress)
        single = tmp_path / shard.name
        full = shard.read_bytes()
        index = storage.load_shard_index(directory, shard.name)
        ends = {offset + length: rows for offset, length, rows in zip(
            index.offsets, index.lengths, range(1, len(logs) + 1))}
        boundaries = {0: 0, **ends}

        def rows_of(path, **kwargs):
            return [log.to_dict()
                    for batch in iter_shard_batches(path, **kwargs)
                    for log in batch.logs()]

        for cut in range(len(full)):
            prefix = full[:cut]
            shard.write_bytes(prefix)
            single.write_bytes(prefix)
            with pytest.raises(ManifestError):
                rows_of(directory)
            with pytest.raises(ManifestError):
                load_shard(directory, 0)
            for log in logs:
                cache = {}
                try:
                    got = storage.read_site(directory, log.rank,
                                            index_cache=cache)
                except ManifestError:
                    pass
                else:   # its whole row group survived the cut
                    assert got.to_dict() == log.to_dict(), cut
                    offset, length, _row = cache[0].entry_for(log.rank)
                    assert offset + length <= cut
                with pytest.raises(ManifestError):
                    storage.read_site(directory, log.rank,
                                      index_cache={0: None})
            if cut in boundaries:
                assert rows_of(single) == expected[:boundaries[cut]], cut
            else:
                with pytest.raises(ManifestError):
                    rows_of(single)
