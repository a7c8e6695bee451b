"""Golden-log regression: the canonical ``VisitLog`` byte stream.

``tests/data/golden_visitlog.json`` freezes the full serialized crawl
of a 6-site population (seed 2025, the seed-repo byte stream).  Any
change to the visit path, the event schemas, or the serialization that
shifts a single byte fails here loudly — which is exactly the alarm a
determinism-contract refactor (like a change to the visit driver) must
trip if it is not perfectly equivalence-preserving.

The guarded crawl — the same 6 sites with CookieGuard installed — is
pinned by the SHA-256 of its rendering, ``GUARDED_SHA256``: every other
guarded test compares two schedules of the same code, so only this
digest notices a change to the guard's read or write path.

``SHARD_SHA256`` pins the shard bytes: the golden crawl written as one
gzip and one plain shard (format v3).  CI runs this file on several
Python versions, so one constant per layout shows the bytes do not
depend on the interpreter.  ``MANIFEST_SHA256`` and ``STUDY_ETAG`` pin
what a dataset adds to its shards: the golden crawl saved as a
two-shard dataset, its ``manifest.json`` bytes and the serve catalog's
study ETag over it.  ``SNAPSHOT_SHA256`` pins the study snapshot that
``repro analyze --snapshot`` writes for those datasets: a change to the
snapshot state moves it, and must bump ``SNAPSHOT_VERSION`` too.

If a change is *intentional* (a new log field, a schema migration),
regenerate the fixture and print the new guarded digest with::

    PYTHONPATH=src python tests/test_golden_log.py --regenerate

and call the change out in the PR, since it breaks byte-compatibility
of stored crawl datasets.  A shard-format change moves only
``SHARD_SHA256``, ``MANIFEST_SHA256``, ``STUDY_ETAG`` and
``SNAPSHOT_SHA256``; ``--regenerate`` prints those too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population

FIXTURE = Path(__file__).parent / "data" / "golden_visitlog.json"
GOLDEN_N_SITES = 6
GOLDEN_SEED = 2025
#: SHA-256 of ``_render(_golden_crawl(install_guard=True))``.
GUARDED_SHA256 = (
    "1482cb0fac0bc36fa188b9443e2b402163f180ea1d13e75df364c0ddd2a430bc")
#: SHA-256 of the golden crawl written by ``write_shard``, per layout.
SHARD_SHA256 = {
    "gzip": "04270b729535ace55178adec4b04dd26a782f76a740d778d899ab3cde6c834fd",
    "plain": "617385e1299ce683837c37c93d8a220a5ac2800955ce4b25fdf66feebcd611cf",
}
#: SHA-256 of the ``manifest.json`` that ``save_logs`` writes for the
#: golden crawl in two shards, per layout.
MANIFEST_SHA256 = {
    "gzip": "778c5043e5b7152bf997e23f3ca7ac6888652d45d0e7be17570f339131c0c814",
    "plain": "3e5a6db4fb83f97a0294c546ca01b4da338f230d9285db5ae9e1e129b78342ec",
}
#: ``StudyEntry.etag`` of those two datasets.
STUDY_ETAG = {
    "gzip": "a2a0661f07a841f9acf1552187234803a1c361991b3925b5e51f93443cfec5b4",
    "plain": "7ca0ad6a2d3f681c1c2af5996eb53aa90865ecc2e4a748e82ee3d2c636f8be85",
}
#: SHA-256 of the snapshot file ``save_snapshot`` writes for them.
SNAPSHOT_SHA256 = {
    "gzip": "1c8ec18974e0d1039831c76b3cf9c10710c4e01ca38fff7b778f65de630d915e",
    "plain": "7730f3e36b5a33651e83743158264acc0436eefdad9210f7c382ced26f77ab8d",
}


def _golden_crawl(install_guard: bool = False):
    population = generate_population(
        PopulationConfig(n_sites=GOLDEN_N_SITES, seed=GOLDEN_SEED))
    crawler = Crawler(population, CrawlConfig(seed=GOLDEN_SEED,
                                              install_guard=install_guard))
    return crawler.crawl(keep_incomplete=True)


def _guarded_digest() -> str:
    rendered = _render(_golden_crawl(install_guard=True))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _shard_digests(directory: Path) -> dict:
    from repro.crawler.storage import write_shard
    logs = _golden_crawl()
    return {layout: write_shard(logs, directory / layout, 0,
                                compress=layout == "gzip").sha256
            for layout in ("gzip", "plain")}


def _dataset_pins(directory: Path) -> tuple:
    """(manifest SHA-256, study ETag) per layout of the golden crawl
    saved as a two-shard dataset."""
    from repro.crawler import save_logs
    from repro.serve.catalog import StudyEntry
    logs = _golden_crawl()
    manifests, etags = {}, {}
    for layout in ("gzip", "plain"):
        target = directory / layout
        save_logs(logs, target, shards=2, compress=layout == "gzip")
        manifests[layout] = hashlib.sha256(
            (target / "manifest.json").read_bytes()).hexdigest()
        etags[layout] = StudyEntry("golden", target).etag
    return manifests, etags


def _snapshot_digests(directory: Path) -> dict:
    """Snapshot file SHA-256 per layout of the golden crawl saved as a
    two-shard dataset."""
    from repro.analysis.snapshot import refresh_study, save_snapshot
    from repro.crawler import save_logs
    logs = _golden_crawl()
    digests = {}
    for layout in ("gzip", "plain"):
        target = directory / layout
        save_logs(logs, target, shards=2, compress=layout == "gzip")
        path = save_snapshot(refresh_study(None, target).snapshot,
                             directory / f"{layout}.snapshot.json")
        digests[layout] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _render(logs) -> str:
    return json.dumps([log.to_dict() for log in logs],
                      sort_keys=True, indent=1) + "\n"


class TestGoldenLog:
    def test_fixture_exists_and_is_nonempty(self):
        data = json.loads(FIXTURE.read_text(encoding="utf-8"))
        assert isinstance(data, list) and data
        for entry in data:
            assert entry["site"] and entry["url"]

    def test_serial_crawl_matches_golden_bytes(self):
        assert _render(_golden_crawl()) == FIXTURE.read_text(encoding="utf-8")

    def test_guarded_crawl_matches_golden_digest(self):
        assert _guarded_digest() == GUARDED_SHA256

    def test_shard_bytes_match_golden_digests(self, tmp_path):
        assert _shard_digests(tmp_path) == SHARD_SHA256

    def test_manifest_and_study_etag_match_golden_digests(self, tmp_path):
        assert _dataset_pins(tmp_path) == (MANIFEST_SHA256, STUDY_ETAG)

    def test_snapshot_bytes_match_golden_digests(self, tmp_path):
        assert _snapshot_digests(tmp_path) == SNAPSHOT_SHA256

    def test_round_trip_through_from_dict(self):
        from repro.crawler import VisitLog
        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for entry in golden:
            rebuilt = VisitLog.from_dict(entry).to_dict()
            assert rebuilt == entry


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(_render(_golden_crawl()), encoding="utf-8")
        print(f"regenerated {FIXTURE}")
        print(f"GUARDED_SHA256 = {_guarded_digest()!r}")
        import tempfile
        with tempfile.TemporaryDirectory() as scratch:
            print(f"SHARD_SHA256 = {_shard_digests(Path(scratch))!r}")
        with tempfile.TemporaryDirectory() as scratch:
            manifests, etags = _dataset_pins(Path(scratch))
            print(f"MANIFEST_SHA256 = {manifests!r}")
            print(f"STUDY_ETAG = {etags!r}")
        with tempfile.TemporaryDirectory() as scratch:
            print(f"SNAPSHOT_SHA256 = {_snapshot_digests(Path(scratch))!r}")
    else:
        print(__doc__)
