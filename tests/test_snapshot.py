"""Study snapshots (``repro.analysis.snapshot``): persist, resume, refresh.

The contract under test: a snapshot is a faithful, versioned, canonical
serialization of ``StudyAccumulator`` state — *save some shards' parts →
load → refresh against the whole dataset* and *partial refresh over a
changed dataset* both produce report output byte-identical to a
monolithic analysis (``Study.report_bytes()``), for any shard split and
either compression.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.columnar import ShardBatch, iter_shard_batches
from repro.analysis.reports import COUNTER_FIELDS, Study, StudyAccumulator
from repro.analysis.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotPart,
    StudySnapshot,
    accumulator_state,
    load_snapshot,
    refresh_study,
    save_snapshot,
    state_accumulator,
)
from repro.crawler import ShardManifest, save_logs
from repro.crawler.storage import load_shard, write_shard


@pytest.fixture(scope="module")
def logs(crawl_logs):
    return crawl_logs[:60]


@pytest.fixture(scope="module")
def reference(logs):
    """Monolithic-analysis report bytes: the equivalence bar."""
    return Study(logs).report_bytes()


def _dataset(tmp_path, logs, n_shards=4, compress=False):
    directory = tmp_path / "ds"
    save_logs(logs, directory, shards=n_shards, compress=compress)
    return directory


def _touch_shard(directory, shard=0):
    """Drop one log from a shard and republish the manifest."""
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


class TestStateRoundTrip:
    def test_state_rebuilds_an_equivalent_accumulator(self, logs,
                                                      reference):
        acc = StudyAccumulator().add_shard_batch(ShardBatch.from_logs(logs))
        rebuilt = state_accumulator(accumulator_state(acc))
        assert Study.from_accumulator(rebuilt).report_bytes() == reference

    def test_state_is_independent_of_ingestion_order(self, logs):
        forward = StudyAccumulator().add_shard_batch(
            ShardBatch.from_logs(logs))
        backward = StudyAccumulator().add_shard_batch(
            ShardBatch.from_logs(logs[::-1]))
        assert accumulator_state(forward) == accumulator_state(backward)

    def test_counter_fields_are_every_integer_attribute(self):
        """What ``update`` sums and a snapshot saves is one list: a
        counter missing from it would be summed but not saved, or saved
        but not summed."""
        fresh = vars(StudyAccumulator())
        assert sorted(COUNTER_FIELDS) == sorted(
            name for name, value in fresh.items() if type(value) is int)

    def test_malformed_state_is_refused(self):
        with pytest.raises(SnapshotError, match="malformed"):
            state_accumulator({"counters": {}})


class TestSaveLoad:
    def test_roundtrip_preserves_digest_and_reports(self, logs, tmp_path,
                                                    reference):
        directory = _dataset(tmp_path, logs)
        snapshot = refresh_study(None, directory).snapshot
        path = tmp_path / "snap.json"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.digest() == snapshot.digest()
        assert loaded.study().report_bytes() == reference

    def test_equal_state_saves_equal_bytes(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_snapshot(refresh_study(None, directory).snapshot, a)
        save_snapshot(refresh_study(None, directory).snapshot, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("names, occurrences", [
        (None, 1), ({"uid": 1, "version": 2}, 2)],
        ids=["no-parts", "version-cookie"])
    def test_saved_bytes_are_the_stamped_canonical_dump(
            self, tmp_path, names, occurrences):
        """``save_snapshot`` splices the stamp into the payload it
        hashed, before the last ``,"version":``; a cookieStore name
        ``version`` puts an earlier one inside ``parts``."""
        parts = []
        if names is not None:
            acc = StudyAccumulator()
            acc.store_name_counts.update(names)
            parts.append(SnapshotPart(state=accumulator_state(acc),
                                      file="shard-0000.jsonl",
                                      sha256="0" * 64, count=0))
        snap = StudySnapshot(parts)
        assert snap.payload_bytes().count(b',"version":') == occurrences
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        expected = json.dumps({**snap.to_dict(), "sha256": snap.digest()},
                              sort_keys=True,
                              separators=(",", ":")).encode() + b"\n"
        assert path.read_bytes() == expected
        assert load_snapshot(path).parts == snap.parts

    def test_cold_snapshot_merges_the_accumulators_it_filled(
            self, logs, tmp_path):
        """A cold refresh's parts carry the accumulators they were read
        off, and merging them equals rebuilding every part from its
        saved state, with two empty shards (one digest) among them."""
        directory = _dataset(tmp_path, logs[:2], n_shards=4)
        assert ShardManifest.load(directory).counts == (1, 1, 0, 0)
        cold = refresh_study(None, directory).snapshot
        assert all(part.accumulator is not None for part in cold.parts)
        path = tmp_path / "snap.json"
        save_snapshot(cold, path)
        loaded = load_snapshot(path)
        assert loaded.parts == cold.parts
        assert all(part.accumulator is None for part in loaded.parts)
        assert cold.study().report_bytes() == \
            loaded.study().report_bytes() == Study(logs[:2]).report_bytes()
        assert accumulator_state(cold.accumulator()) == \
            accumulator_state(loaded.accumulator())

    def test_version_mismatch_is_refused_with_reanalyze_message(
            self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(refresh_study(None, directory).snapshot, path)
        data = json.loads(path.read_text())
        data["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError, match="re-analyze"):
            load_snapshot(path)

    def test_tampered_payload_is_refused(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(refresh_study(None, directory).snapshot, path)
        data = json.loads(path.read_text())
        data["parts"][0]["state"]["counters"]["n_logs"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_snapshot(path)

    def test_torn_file_is_refused(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(refresh_study(None, directory).snapshot, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SnapshotError, match="unparseable"):
            load_snapshot(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.json")


def _resume_from_split(directory, split, path):
    """Save the first ``split`` shards' parts, load them, and refresh
    against the whole dataset: the rest are ingested from their bytes."""
    cold = refresh_study(None, directory).snapshot
    save_snapshot(StudySnapshot(cold.parts[:split]), path)
    return refresh_study(load_snapshot(path), directory)


class TestResumeEquivalence:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_save_load_resume_equals_monolithic(self, logs, tmp_path,
                                                reference, compress):
        """save half → load → refresh the rest == one-pass analysis."""
        directory = _dataset(tmp_path, logs, n_shards=4, compress=compress)
        manifest = ShardManifest.load(directory)
        result = _resume_from_split(directory, 2, tmp_path / "snap.json")
        assert result.reused == manifest.files[:2]
        assert result.reingested == manifest.files[2:]
        assert result.snapshot.study().report_bytes() == reference

    def test_overlapping_parts_fail_loudly(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs[:10], n_shards=1)
        part, = refresh_study(None, directory).snapshot.parts
        acc = StudyAccumulator().add_shard_batch(
            ShardBatch.from_logs(logs[:10]))
        doubled = StudySnapshot([part, part])
        assert doubled.parts[0].state == accumulator_state(acc)
        with pytest.raises(ValueError, match="overlapping"):
            doubled.accumulator()


class TestMergeAssociativity:
    def test_parts_merge_identically_in_any_grouping(self, logs, tmp_path,
                                                     reference):
        directory = _dataset(tmp_path, logs, n_shards=3)
        parts = refresh_study(None, directory).snapshot.parts
        assert len(parts) == 3

        def merge(groups):
            out = StudyAccumulator()
            for group in groups:
                partial = StudyAccumulator()
                for part in group:
                    partial.update(state_accumulator(part.state))
                out.update(partial)
            return Study.from_accumulator(out).report_bytes()

        a, b, c = parts
        assert merge([[a], [b, c]]) == merge([[a, b], [c]]) \
            == merge([[c, b, a]]) == reference

    def test_part_order_does_not_change_reports(self, logs, tmp_path,
                                                reference):
        directory = _dataset(tmp_path, logs, n_shards=3)
        snapshot = refresh_study(None, directory).snapshot
        shuffled = StudySnapshot(reversed(snapshot.parts))
        assert shuffled.study().report_bytes() == reference


class TestPartialRefresh:
    def test_unchanged_dataset_reuses_every_part(self, logs, tmp_path,
                                                 reference):
        directory = _dataset(tmp_path, logs)
        snapshot = refresh_study(None, directory).snapshot
        result = refresh_study(snapshot, directory)
        assert result.reingested == () and result.dropped == 0
        assert len(result.reused) == 4 and not result.changed
        assert result.snapshot.study().report_bytes() == reference

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_touched_shard_is_the_only_one_reingested(self, logs, tmp_path,
                                                      compress):
        directory = _dataset(tmp_path, logs, compress=compress)
        snapshot = refresh_study(None, directory).snapshot
        _touch_shard(directory, shard=1)
        manifest = ShardManifest.load(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == (manifest.files[1],)
        assert len(result.reused) == 3
        assert result.dropped == 1      # the touched shard's old part
        # Byte-identical to analyzing the changed dataset from scratch.
        scratch = StudyAccumulator()
        for batch in iter_shard_batches(directory):
            scratch.add_shard_batch(batch)
        assert result.snapshot.study().report_bytes() \
            == Study.from_accumulator(scratch).report_bytes()

    def test_removed_shard_is_dropped(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=3)
        snapshot = refresh_study(None, directory).snapshot
        manifest = ShardManifest.load(directory)
        kept = list(range(manifest.n_shards - 1))
        remaining = [log for i in kept
                     for log in load_shard(directory, i)]
        (directory / manifest.files[-1]).unlink()
        ShardManifest(n_shards=len(kept),
                      total=len(remaining),
                      compress=manifest.compress,
                      files=manifest.files[:-1],
                      counts=manifest.counts[:-1],
                      digests=manifest.digests[:-1]).save(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == () and result.dropped == 1
        assert result.changed
        assert result.snapshot.study().report_bytes() \
            == Study(remaining).report_bytes()

    def test_renamed_shard_is_rebound_not_reingested(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        snapshot = refresh_study(None, directory).snapshot
        manifest = ShardManifest.load(directory)
        old_name = manifest.files[0]
        new_name = "renamed-" + old_name
        (directory / old_name).rename(directory / new_name)
        ShardManifest(n_shards=manifest.n_shards, total=manifest.total,
                      compress=manifest.compress,
                      files=(new_name,) + manifest.files[1:],
                      counts=manifest.counts,
                      digests=manifest.digests).save(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == ()
        assert result.reused == (new_name, manifest.files[1])
        assert result.snapshot.parts[0].file == new_name

    def test_snapshot_artifacts_leave_the_dataset_untouched(self, logs,
                                                            tmp_path):
        """Snapshots are a new, versioned artifact: shard bytes, digests,
        and the manifest must be identical with or without one."""
        from repro.crawler.storage import compute_digest
        directory = _dataset(tmp_path, logs, n_shards=2)
        manifest = ShardManifest.load(directory)
        before = {name: compute_digest(directory / name)
                  for name in manifest.files}
        save_snapshot(refresh_study(None, directory).snapshot,
                      directory / "study.snapshot.json")
        after = ShardManifest.load(directory)
        assert after.to_dict() == manifest.to_dict()
        for name in manifest.files:
            assert compute_digest(directory / name) == before[name]


class TestAnalyzeCLI:
    def test_cold_resume_and_scratch_reports_are_byte_identical(
            self, logs, tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=3)
        snap = tmp_path / "snap.json"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        scratch = tmp_path / "scratch.json"

        main(["analyze", str(directory), "--snapshot", str(snap),
              "--report", str(cold)])
        assert "re-ingested=3" in capsys.readouterr().out

        _touch_shard(directory)
        main(["analyze", str(directory), "--snapshot", str(snap),
              "--resume", "--report", str(warm)])
        out = capsys.readouterr().out
        assert "reused=2" in out and "re-ingested=1" in out

        main(["analyze", str(directory), "--report", str(scratch)])
        capsys.readouterr()
        assert warm.read_bytes() == scratch.read_bytes()
        assert cold.read_bytes() != warm.read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_snapshot_is_refused_on_resume(self, logs, tmp_path,
                                                 capsys, version):
        """A snapshot from an older build is refused, never misread."""
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        snap = tmp_path / "snap.json"
        save_snapshot(refresh_study(None, directory).snapshot, snap)
        data = json.loads(snap.read_text())
        data["version"] = version
        snap.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(directory), "--snapshot", str(snap),
                  "--resume"])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert f"unsupported snapshot version {version}" in out
        assert "re-analyze" in out

    def test_non_utf8_snapshot_is_refused_on_resume(self, logs, tmp_path,
                                                    capsys):
        directory = _dataset(tmp_path, logs, n_shards=2)
        snap = tmp_path / "snap.json"
        save_snapshot(refresh_study(None, directory).snapshot, snap)
        snap.write_bytes(b"\xff\xfe" + snap.read_bytes())
        out = self._refused([str(directory), "--snapshot", str(snap),
                             "--resume"], capsys)
        assert out.startswith(f"analyze: unparseable snapshot {snap}: ")

    def test_resume_requires_snapshot_flag(self, logs, tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        with pytest.raises(SystemExit):
            main(["analyze", str(directory), "--resume"])
        assert "--resume requires --snapshot" in capsys.readouterr().out

    def test_snapshot_rejects_single_file_datasets(self, logs, tmp_path,
                                                   capsys):
        """A bare shard file is not a dataset, with or without
        ``--snapshot``."""
        shard = _dataset(tmp_path, logs, n_shards=1) / "shard-0000.jsonl"
        for flags in ([], ["--snapshot", str(tmp_path / "s.json")]):
            out = self._refused([str(shard), *flags], capsys)
            assert out == f"analyze: no manifest.json in {shard}"

    def test_corrupt_snapshot_fails_with_clear_message(self, logs,
                                                       tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        snap = tmp_path / "snap.json"
        main(["analyze", str(directory), "--snapshot", str(snap)])
        capsys.readouterr()
        snap.write_bytes(snap.read_bytes()[:-40])
        with pytest.raises(SystemExit):
            main(["analyze", str(directory), "--snapshot", str(snap),
                  "--resume"])
        assert "unparseable snapshot" in capsys.readouterr().out

    @staticmethod
    def _refused(args, capsys):
        """``analyze`` must exit 1 on an ``analyze:`` line and print no
        traceback; that line."""
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", *args])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        last = captured.out.splitlines()[-1]
        assert last.startswith("analyze: ")
        return last

    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["plain", "snapshot"])
    def test_damaged_shard_is_refused(self, logs, tmp_path, capsys,
                                      snapshot):
        directory = _dataset(tmp_path, logs, n_shards=2)
        shard = directory / "shard-0001.jsonl"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        args = [str(directory)]
        if snapshot:
            args += ["--snapshot", str(tmp_path / "s.json")]
        out = self._refused(args, capsys)
        assert out.startswith("analyze: shard 1 (shard-0001.jsonl) "
                              "hashes to ")

    def test_missing_dataset_is_refused(self, tmp_path, capsys):
        out = self._refused([str(tmp_path / "absent")], capsys)
        assert "no manifest.json" in out

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_costs_no_output_file(self, logs, tmp_path,
                                               capsys, unbuffered):
        """A reader that closed stdout before ``analyze`` prints (``|
        head``) still gets the snapshot and report of a normal run; the
        run exits 1 and prints no traceback."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        main(["analyze", str(directory), "--snapshot",
              str(tmp_path / "snap.json"), "--report",
              str(tmp_path / "report.json")])
        capsys.readouterr()
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "analyze", str(directory),
                 "--snapshot", str(tmp_path / "closed-snap.json"),
                 "--report", str(tmp_path / "closed-report.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr
        for name in ("snap.json", "report.json"):
            assert (tmp_path / f"closed-{name}").read_bytes() \
                == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--snapshot", "--report"])
    def test_unwritable_output_is_refused(self, logs, tmp_path, capsys,
                                          monkeypatch, flag):
        """Refused before the analysis reads a shard."""
        from repro.analysis import columnar, snapshot

        def analysed(*args, **kwargs):
            raise AssertionError("analyze ran before checking its output")

        directory = _dataset(tmp_path, logs, n_shards=2)
        monkeypatch.setattr(snapshot, "refresh_study", analysed)
        monkeypatch.setattr(columnar, "iter_shard_batches", analysed)
        target = tmp_path / "no" / "such" / "out.json"
        out = self._refused([str(directory), flag, str(target)], capsys)
        assert out.startswith(f"analyze: cannot write {flag[2:]} {target}: ")


@pytest.mark.slow
class TestResumeDeterminismMatrix:
    """The resume axis of the determinism matrix: every split point of
    every compression must reproduce the monolithic report bytes."""

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_every_split_point_matches_monolithic(self, logs, tmp_path,
                                                  reference, compress):
        n_shards = 4
        directory = tmp_path / ("gz" if compress else "plain")
        save_logs(logs, directory, shards=n_shards, compress=compress)
        manifest = ShardManifest.load(directory)
        for split in range(n_shards + 1):
            path = tmp_path / f"split-{compress}-{split}.json"
            result = _resume_from_split(directory, split, path)
            assert result.reingested == manifest.files[split:]
            assert result.snapshot.study().report_bytes() \
                == reference, f"resume diverged at split {split}"
