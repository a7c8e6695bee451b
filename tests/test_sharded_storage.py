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
        """A one-shard dataset whose shard holds a JSON line (format v2),
        its digest republished: the read asks for a re-crawl."""
        directory = tmp_path / "old"
        save_logs(crawl_logs[:1], directory)
        shard = directory / shard_filename(0)
        shard.write_text(json.dumps(crawl_logs[0].to_dict()) + "\n")
        _republish(directory, 0, compute_digest(shard))
        with pytest.raises(ManifestError, match="format v2.*re-crawl"):
            load_logs(directory)


class TestShardDigests:
    def test_save_logs_records_digests(self, sharded_dir):
        manifest = ShardManifest.load(sharded_dir)
        assert len(manifest.digests) == manifest.n_shards
        for index, name in enumerate(manifest.files):
            assert manifest.digests[index] \
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

    def test_digestless_manifest_is_refused(self, sharded_dir, crawl_logs,
                                            capsys):
        """A manifest with a shard that records no digest is refused by
        the readers, by ``analyze`` (exit 1, no traceback) and by the
        serve catalog, which lists the other studies."""
        from repro.__main__ import main
        from repro.serve import StudyCatalog
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        del data["shards"][1]["sha256"]
        manifest_path.write_text(json.dumps(data))
        message = ("shard 1 (shard-0001.jsonl) records no sha256 in "
                   "manifest.json; re-crawl or re-save the dataset")
        for read in (ShardManifest.load, load_logs, verify_shard_files):
            with pytest.raises(ManifestError) as exc_info:
                read(sharded_dir)
            assert str(exc_info.value) == message
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(sharded_dir)])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.out.splitlines()[-1] == f"analyze: {message}"
        save_logs(crawl_logs[:6], sharded_dir.parent / "current", shards=2)
        catalog = StudyCatalog(sharded_dir.parent)
        assert catalog.study_ids() == ["current"]
        assert [row["id"] for row in catalog.listing()] == ["current"]

    @pytest.mark.parametrize("damage", ["non-utf8", "directory"])
    def test_unreadable_manifest_is_refused(self, sharded_dir, crawl_logs,
                                            capsys, damage):
        """A ``manifest.json`` that is not UTF-8, or not a file, is
        refused by the loader, by ``analyze`` (exit 1, no traceback) and
        by the serve catalog, which still starts and lists the other
        studies."""
        from repro.__main__ import main
        from repro.serve import make_server
        manifest_path = sharded_dir / MANIFEST_NAME
        if damage == "non-utf8":
            manifest_path.write_bytes(b"\xff\xfe" + manifest_path.read_bytes())
        else:
            manifest_path.unlink()
            manifest_path.mkdir()
        message = f"unreadable manifest {manifest_path}: "
        with pytest.raises(ManifestError) as exc_info:
            ShardManifest.load(sharded_dir)
        assert str(exc_info.value).startswith(message)
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(sharded_dir)])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.out.splitlines()[-1].startswith(f"analyze: {message}")
        save_logs(crawl_logs[:6], sharded_dir.parent / "current", shards=2)
        server = make_server(sharded_dir.parent, port=0)
        try:
            assert server.catalog.study_ids() == ["current"]
        finally:
            server.server_close()

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
# Shard indexes: built from the checked shard bytes, never written
# ---------------------------------------------------------------------------

class TestShardIndexes:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_sidecars_written_alongside_shards(self, crawl_logs, tmp_path,
                                               compress):
        """None are: the directory holds only the shards and the
        manifest, and the index built from a shard lists its ranks in
        order, in groups that tile the file from byte 0 to its size."""
        from repro.crawler.storage import load_shard_index
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        manifest = ShardManifest.load(directory)
        for i, name in enumerate(manifest.files):
            index = load_shard_index(directory, name, manifest.digests[i],
                                     manifest.counts[i])
            assert list(index.ranks) \
                == [log.rank for log in load_shard(directory, i)]
            end = 0
            for offset, length, row in zip(index.offsets, index.lengths,
                                           index.rows):
                if row == 0:        # each group starts where the last ended
                    assert offset == end
                    end = offset + length
            assert end == (directory / name).stat().st_size
        assert sorted(path.name for path in directory.iterdir()) \
            == sorted([*manifest.files, MANIFEST_NAME])

    def test_index_refuses_a_wrong_digest_or_count(self, sharded_dir):
        from repro.crawler.storage import load_shard_index
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        with pytest.raises(ManifestError, match=f"{name} hashes to"):
            load_shard_index(sharded_dir, name, sha256="0" * 64)
        with pytest.raises(ManifestError, match=f"{name} holds"):
            load_shard_index(sharded_dir, name,
                             count=manifest.counts[0] + 1)

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
        """Lookups through a shared index cache and lookups that index
        the shards afresh both return the crawled logs."""
        from repro.crawler.storage import read_site
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        cache = {}
        for log in crawl_logs:
            cached = read_site(directory, log.rank, index_cache=cache)
            fresh = read_site(directory, log.rank)
            assert cached.to_dict() == fresh.to_dict() == log.to_dict()
        assert sorted(cache) == [0, 1, 2]

    def test_read_site_missing_rank_raises(self, sharded_dir):
        from repro.crawler.storage import read_site
        with pytest.raises(KeyError):
            read_site(sharded_dir, 10**9)

    def test_stale_sidecar_is_ignored(self, crawl_logs, sharded_dir):
        """A ``shard-0000.index.json`` that an older build left next to
        its shard is never read, even one recording the shard's digest."""
        from repro.crawler.storage import load_shard_index, read_site
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        index = load_shard_index(sharded_dir, name)
        # The older build's layout, pointing the first rank at a bogus
        # offset: a reader trusting this file would misread.
        (sharded_dir / "shard-0000.index.json").write_text(json.dumps({
            "version": 2, "file": name, "count": len(index.ranks),
            "sha256": manifest.digests[0], "ranks": list(index.ranks),
            "offsets": [7, *index.offsets[1:]],
            "lengths": list(index.lengths), "rows": list(index.rows)}))
        log = next(l for l in crawl_logs if l.rank == index.ranks[0])
        got = read_site(sharded_dir, log.rank, manifest=manifest)
        assert got.to_dict() == log.to_dict()


# ---------------------------------------------------------------------------
# Cached and uncached lookups must return the same log for the same rank
# ---------------------------------------------------------------------------

class TestLookupPathEquivalence:
    """read_site with and without a shared index cache.

    Every row of a row-group shard keeps its rank in an int64 column,
    so a rank-less row cannot be written: a log read from a record
    without a rank carries :class:`VisitLog`'s default rank 0 into the
    shard.  Both lookups must find it there, and must answer a rank no
    shard holds with the same ``KeyError``.
    """

    def test_rankless_line_misses_identically_on_both_paths(
            self, crawl_logs, tmp_path):
        from repro.crawler.storage import read_site
        log = next(l for l in crawl_logs if l.rank)
        data = crawl_logs[1].to_dict()
        del data["rank"]
        rankless = VisitLog.from_dict(data)
        directory = tmp_path / "crawl"
        save_logs([rankless, log], directory, shards=1)
        for cache in (None, {}):
            for rank, expected in ((0, rankless), (log.rank, log)):
                got = read_site(directory, rank, index_cache=cache)
                assert got.to_dict() == expected.to_dict()
            with pytest.raises(KeyError):
                read_site(directory, 10 ** 9, index_cache=cache)


# ---------------------------------------------------------------------------
# Truncation: every byte prefix of a shard is refused or a row-group prefix
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestTruncatedShards:
    """Cut a small shard at every byte: every read of the manifest's
    shard, a single-site lookup included, raises ManifestError; the
    unchecked index of the cut shard raises or, only at a row-group
    boundary, lists the first ranks."""

    @pytest.mark.parametrize("group", [1, 2], ids=["g1", "g2"])
    @pytest.mark.parametrize("digests", [True], ids=["digests"])
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_every_prefix(self, crawl_logs, tmp_path, monkeypatch, group,
                          digests, compress):
        from repro.analysis.columnar import iter_shard_batches
        from repro.crawler import storage
        monkeypatch.setattr(storage, "ROW_GROUP_VISITS", group)
        logs = sorted(crawl_logs, key=lambda log: len(
            json.dumps(log.to_dict())))[:3]
        ranks = [log.rank for log in logs]
        directory = tmp_path / "crawl"
        save_logs(logs, directory, shards=1, compress=compress)
        shard = directory / shard_filename(0, compress)
        full = shard.read_bytes()
        index = storage.load_shard_index(directory, shard.name)
        ends = {offset + length: rows for offset, length, rows in zip(
            index.offsets, index.lengths, range(1, len(logs) + 1))}
        boundaries = {0: 0, **ends}

        for cut in range(len(full)):
            shard.write_bytes(full[:cut])
            with pytest.raises(ManifestError):
                list(iter_shard_batches(directory))
            with pytest.raises(ManifestError):
                load_shard(directory, 0)
            for log in logs:
                with pytest.raises(ManifestError):
                    storage.read_site(directory, log.rank)
            if cut in boundaries:
                unchecked = storage.load_shard_index(directory, shard.name)
                assert list(unchecked.ranks) == ranks[:boundaries[cut]], cut
            else:
                with pytest.raises(ManifestError):
                    storage.load_shard_index(directory, shard.name)
