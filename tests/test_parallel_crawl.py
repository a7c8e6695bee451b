"""Shard planning, progress reporting and merge determinism.

The contract under test: a population's ranks partition deterministically
into shards, the coordinator reports one progress event per shard without
the callback ever changing a byte, and ``Study`` aggregation is
independent of the shard partition and merge order.  Crawl output across
worker backends is pinned by ``tests/test_distributed.py``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ShardBatch, Study, StudyAccumulator
from repro.crawler import (
    Coordinator,
    CrawlConfig,
    CrawlProgress,
    Crawler,
    ProcessPoolBackend,
    ShardPlan,
    ShardStore,
)
from repro.crawler.crawler import _stable_token
from repro.crawler.parallel import print_progress
from repro.ecosystem import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def small_population():
    return generate_population(PopulationConfig(n_sites=24, seed=2025))


def _dataset_bytes(out_dir):
    """Shard and manifest bytes (the journal keys on the config)."""
    return {path.name: path.read_bytes()
            for path in sorted(Path(out_dir).iterdir())
            if path.name != "queue.jsonl"}


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

class TestShardPlan:
    def test_partition_covers_all_ranks(self, population):
        plan = ShardPlan.for_population(population, 7)
        seen = [rank for shard in plan for rank in shard.ranks]
        assert sorted(seen) == list(population.ranks)
        assert len(seen) == len(set(seen))

    def test_contiguous_shards_are_rank_runs(self, population):
        plan = ShardPlan.for_population(population, 5)
        for shard in plan:
            assert list(shard.ranks) == sorted(shard.ranks)
            assert shard.ranks[-1] - shard.ranks[0] == len(shard.ranks) - 1

    def test_deterministic(self, population):
        a = ShardPlan.for_population(population, 4)
        b = ShardPlan.for_population(population, 4)
        assert a == b

    def test_near_even_sizes(self, population):
        plan = ShardPlan.for_population(population, 7)
        sizes = [len(shard) for shard in plan]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_sites(self):
        plan = ShardPlan.for_ranks([1, 2, 3], 10)
        assert plan.n_shards == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ShardPlan.for_ranks([1, 2], 0)


# ---------------------------------------------------------------------------
# Study merge determinism
# ---------------------------------------------------------------------------

def _results(study: Study):
    return (study.table1(), study.table2(20), study.table5(10),
            study.figure2(20), study.figure8(20),
            study.sec51_prevalence(), study.sec52_api_usage(),
            study.sec55_overwrite_attributes(), study.sec56_inclusion(),
            study.sec8_dom_pilot())


class TestStudyMerge:
    @pytest.fixture(scope="class")
    def shards(self, crawl_logs):
        return [list(crawl_logs)[i::3] for i in range(3)]

    def test_from_shards_equals_monolithic(self, study, shards):
        assert _results(Study.from_shards(shards)) == _results(study)

    def test_shard_order_independent(self, study, shards):
        reordered = [shards[2], shards[0], shards[1]]
        assert _results(Study.from_shards(reordered)) == _results(study)

    def test_from_accumulators_without_logs(self, study, shards):
        accs = [StudyAccumulator().add_shard_batch(ShardBatch.from_logs(shard))
                for shard in shards]
        merged = Study.from_shards(accs)
        assert merged.n_sites == study.n_sites
        assert _results(merged) == _results(study)

    def test_overlapping_shards_rejected(self, crawl_logs):
        shard = list(crawl_logs)[:5]
        with pytest.raises(ValueError, match="overlapping"):
            Study.from_shards([shard, shard])


# ---------------------------------------------------------------------------
# Per-shard progress reporting (off by default)
# ---------------------------------------------------------------------------

class TestProgressReporting:
    def test_off_by_default(self, small_population):
        coordinator = Coordinator(small_population, CrawlConfig(seed=2025))
        assert coordinator.progress is None

    def test_one_event_per_shard_batch(self, small_population, tmp_path):
        store = ShardStore(tmp_path / "cache")
        for run in ("cold", "warm"):
            events = []
            report = Coordinator(small_population, CrawlConfig(seed=2025),
                                 store=store, progress=events.append).run(
                tmp_path / run, n_shards=3)
            total = report.manifest.total
            # Store hits report progress just like crawled shards.
            assert report.cached_shards == (3 if run == "warm" else 0)
            assert len(events) == 3
            assert sorted(e.shard_index for e in events) == [0, 1, 2]
            assert all(isinstance(e, CrawlProgress) for e in events)
            assert all(e.n_shards == 3 for e in events)
            assert events[-1].done_shards == 3
            assert events[-1].total_visits == total
            assert sum(e.shard_visits for e in events) == total
            assert all(e.elapsed >= 0.0 for e in events)

    def test_callback_never_changes_the_output(self, small_population,
                                               tmp_path):
        Coordinator(small_population, CrawlConfig(seed=2025)).run(
            tmp_path / "quiet", n_shards=3)
        Coordinator(small_population, CrawlConfig(seed=2025),
                    progress=lambda event: None).run(
            tmp_path / "noisy", n_shards=3)
        assert _dataset_bytes(tmp_path / "noisy") == \
            _dataset_bytes(tmp_path / "quiet")

    def test_print_progress_writes_one_line(self, capsys):
        print_progress(CrawlProgress(shard_index=1, n_shards=4,
                                     shard_visits=17, done_shards=2,
                                     total_visits=33, elapsed=1.25))
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shard 1" in err and "2/4" in err and "33 visits" in err

    @pytest.mark.slow
    def test_progress_fires_across_process_pool(self, small_population,
                                                tmp_path):
        events = []
        report = Coordinator(small_population, CrawlConfig(seed=2025),
                             backend=ProcessPoolBackend(jobs=2),
                             progress=events.append).run(tmp_path,
                                                         n_shards=2)
        assert sorted(e.shard_index for e in events) == [0, 1]
        assert sum(e.shard_visits for e in events) == report.manifest.total


# ---------------------------------------------------------------------------
# Crawler state hygiene (the satellite bug fixes)
# ---------------------------------------------------------------------------

class TestCrawlerStateHygiene:
    def test_guards_reset_between_crawls(self, population):
        crawler = Crawler(population, CrawlConfig(install_guard=True))
        sites = population.successful_sites()[:4]
        crawler.crawl(sites)
        assert len(crawler.guards) == 4
        crawler.crawl(sites)
        assert len(crawler.guards) == 4

    def test_stable_token_is_process_independent(self):
        # Locked-in constants: blake2b is keyless and unsalted, so these
        # values cannot drift across processes or PYTHONHASHSEED values
        # (unlike the builtin hash() they replaced).
        assert _stable_token("example.com", 10**12) == 772579972710
        assert _stable_token("moc.elpmaxe", 10**10) == 1519728271

    @pytest.mark.slow
    def test_cookie_values_stable_across_hash_seeds(self):
        script = (
            "import hashlib, json\n"
            "from repro.ecosystem import PopulationConfig, generate_population\n"
            "from repro.crawler import CrawlConfig, Crawler\n"
            "pop = generate_population(PopulationConfig(n_sites=5, seed=2025))\n"
            "logs = Crawler(pop, CrawlConfig(seed=2025)).crawl(\n"
            "    keep_incomplete=True)\n"
            "stream = ''.join(json.dumps(l.to_dict(), sort_keys=True)\n"
            "                 for l in logs)\n"
            "print(len(stream), hashlib.sha256(stream.encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
                     "PATH": "/usr/bin:/bin"})
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
