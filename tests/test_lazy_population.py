"""The lazy population protocol (ROADMAP rung: million-site populations).

Contract under test: a :class:`Population` synthesizes each site on
demand from ``[seed, rank]``, so (a) cached lazy access, a fresh
instance's uncached ``synthesize(rank)``, and a second independent
instance all agree bit-for-bit, (b) the crawl fingerprint and output
bytes are identical whether sites stream or arrive as an eager list,
and (c) crawling one shard of a million-site plan holds O(shard)
memory.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.crawler import CrawlConfig, Crawler, population_fingerprint
from repro.ecosystem import PopulationConfig, generate_population

N = 150
SEED = 2025


def _fresh(n_sites=N, seed=SEED):
    return generate_population(PopulationConfig(n_sites=n_sites, seed=seed))


class TestLazyEagerEquivalence:
    def test_site_matches_materialized_list(self):
        lazy, eager = _fresh(), _fresh()
        materialized = [eager.synthesize(rank) for rank in eager.ranks]
        assert len(materialized) == len(lazy) == N
        for rank in lazy.ranks:
            assert lazy.site(rank) == materialized[rank - 1]

    def test_iter_sites_streams_in_rank_order(self):
        population = _fresh()
        ranks = [site.rank for site in population.iter_sites()]
        assert ranks == list(range(1, N + 1))
        subset = list(population.iter_sites([7, 3, 99]))
        assert [s.rank for s in subset] == [7, 3, 99]
        assert list(population.iter_sites(range(5, 9))) \
            == [population.site(r) for r in range(5, 8 + 1)]

    def test_two_instances_are_bit_identical(self):
        a, b = _fresh(), _fresh()
        assert [a.site(r) for r in a.ranks] == [b.site(r) for r in b.ranks]

    def test_out_of_range_rank_raises(self):
        population = _fresh()
        with pytest.raises(IndexError):
            population.site(0)
        with pytest.raises(IndexError):
            population.site(N + 1)

    def test_fingerprint_identical_lazy_vs_materialized(self):
        lazy, eager = _fresh(), _fresh()
        for rank in eager.ranks:
            eager.site(rank)
        assert population_fingerprint(lazy) == population_fingerprint(eager)

    def test_crawl_bytes_identical_lazy_vs_eager(self, tmp_path):
        from repro.crawler import save_logs
        lazy, eager = _fresh(60), _fresh(60)
        lazy_logs = Crawler(lazy, CrawlConfig(seed=SEED)).crawl()
        eager_logs = Crawler(eager, CrawlConfig(seed=SEED)).crawl(
            [eager.synthesize(rank) for rank in eager.ranks])
        save_logs(lazy_logs, tmp_path / "lazy")
        save_logs(eager_logs, tmp_path / "eager")
        for name in ("shard-0000.jsonl", "manifest.json"):
            assert (tmp_path / "lazy" / name).read_bytes() \
                == (tmp_path / "eager" / name).read_bytes()


class TestRankDeterminism:
    """Per-rank synthesis: any access order, same bytes."""

    def test_access_order_does_not_matter(self):
        forward, backward = _fresh(), _fresh()
        fwd = [forward.site(r) for r in forward.ranks]
        bwd = [backward.site(r) for r in reversed(backward.ranks)]
        assert fwd == list(reversed(bwd))

    def test_domains_are_unique_without_shared_state(self):
        population = _fresh(500)
        domains = [population.site(r).domain for r in population.ranks]
        assert len(set(domains)) == len(domains)

    def test_special_sites_keep_their_domains(self):
        population = _fresh(400)
        assert population.site(12).domain == "facebook.com"
        assert population.site(48).domain == "zoom.us"
        assert population.site(61).domain == "cnn.com"
        assert population.site(310).domain == "goosecreekcandle.com"

    def test_rank_crawl_fails_stays_in_rng_lockstep(self):
        """The fail-filter fast path replays a prefix of the synthesis
        draws; if synthesize_site's draw order changes, this guard
        catches the divergence."""
        fast, full = _fresh(300), _fresh(300)
        fast_flags = [fast.rank_crawl_fails(r) for r in fast.ranks]
        full_flags = [full.site(r).crawl_fails for r in full.ranks]
        assert fast_flags == full_flags

    def test_successful_sites_view_matches_eager_filter(self):
        population, eager = _fresh(), _fresh()
        view = population.successful_sites()
        wanted = [site for site in map(eager.synthesize, eager.ranks)
                  if not site.crawl_fails]
        assert len(view) == len(wanted)
        assert list(view) == wanted
        assert view[0] == wanted[0]
        assert view[-1] == wanted[-1]
        assert view[:5] == wanted[:5]


class TestHashSeedIndependence:
    def test_sites_identical_under_any_hash_seed(self):
        """Synthesis must not follow the per-process string-hash salt:
        iterating a set of service keys into a site's functional
        dependencies once made Table 3 vary with PYTHONHASHSEED."""
        script = (
            "import hashlib\n"
            "from repro.ecosystem import PopulationConfig, "
            "generate_population\n"
            f"pop = generate_population(PopulationConfig(n_sites=400, "
            f"seed={SEED}))\n"
            "text = '\\n'.join(repr(pop.site(r)) for r in pop.ranks)\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src,
                             "PYTHONHASHSEED": hash_seed}).stdout
            for hash_seed in ("0", "26", "424242")}
        assert len(digests) == 1, digests


class TestMemoryDiscipline:
    def test_site_cache_is_bounded(self, monkeypatch):
        from repro.ecosystem import population as population_mod
        monkeypatch.setattr(population_mod, "SITE_CACHE_SIZE", 16)
        population = _fresh(200)
        for rank in population.ranks:
            population.site(rank)
        assert len(population._cache) <= 16

    def test_pickle_is_config_sized_not_population_sized(self):
        tiny = pickle.dumps(_fresh(100))
        huge = pickle.dumps(_fresh(10_000_000))
        # A 10M-site population pickles to the same few hundred bytes:
        # workers ship a config, never a site list.
        assert len(huge) <= len(tiny) + 64
        clone = pickle.loads(pickle.dumps(_fresh(100)))
        reference = _fresh(100)
        assert [clone.site(r) for r in clone.ranks] \
            == [reference.site(r) for r in reference.ranks]

    def test_shard_crawl_memory_independent_of_population_size(self):
        """Crawling one 16-site shard of a 1M-site plan must allocate
        no more than the same shard width in a 2k-site plan (the
        acceptance bound for coordinator→cluster scale)."""
        shard_width = 16

        def peak_for(n_sites):
            population = generate_population(
                PopulationConfig(n_sites=n_sites, seed=SEED))
            ranks = range(n_sites - shard_width + 1, n_sites + 1)
            crawler = Crawler(population, CrawlConfig(seed=SEED))
            tracemalloc.start()
            logs = crawler.crawl(population.iter_sites(ranks))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(logs) <= shard_width
            return peak

        peak_for(2_000)  # warm numpy/catalog allocations out of the bill
        small = peak_for(2_000)
        large = peak_for(1_000_000)
        assert large < small * 1.5 + (4 << 20), \
            f"1M-site shard crawl peaked at {large} bytes " \
            f"vs {small} for a 2k-site population"
