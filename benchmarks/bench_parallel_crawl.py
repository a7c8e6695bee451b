"""Serial vs process crawl throughput.

Not a paper figure; it records what process workers (``jobs``) buy on
this hardware: the crawl coordinator's
:class:`~repro.crawler.ProcessPoolBackend`, one shard per worker.
Per-site seeding makes the output bit-identical to the serial crawl,
so the only variable is wall-clock.  Speedup tracks the machine's core
count: on a single-core runner the figures show pure process overhead,
on an M-core box jobs=M approaches M×.
"""

import json
import os
import tempfile
import time
from dataclasses import replace

from repro.crawler import (Coordinator, CrawlConfig, Crawler,
                           ProcessPoolBackend, load_logs)
from repro.ecosystem import generate_population

from conftest import banner

SAMPLE = int(os.environ.get("REPRO_BENCH_SAMPLE", "50"))


def _sample(population):
    return population.successful_sites()[:SAMPLE]


def _sample_population(population):
    """The top-ranked slice of ``population`` that holds the sample.

    The coordinator crawls whole populations.  Sites synthesize per
    rank, so this slice holds exactly the sample's sites plus the failed
    crawls ranked between them, which retain no log and cost no visit.
    """
    last = _sample(population)[-1].rank
    return generate_population(replace(population.config, n_sites=last))


def _pool_crawl(population, jobs):
    """Crawl ``population`` over ``jobs`` pool workers, one shard each."""
    coordinator = Coordinator(population, CrawlConfig(seed=2025),
                              backend=ProcessPoolBackend(jobs=jobs))
    with tempfile.TemporaryDirectory(prefix="bench-pool-") as out:
        coordinator.run(out, n_shards=jobs)
        return load_logs(out)


def test_serial_crawl(benchmark, population):
    sites = _sample(population)
    crawler = Crawler(population, CrawlConfig(seed=2025))
    logs = benchmark(crawler.crawl, sites)
    assert logs


def test_parallel_crawl_two_jobs(benchmark, population):
    logs = benchmark(_pool_crawl, _sample_population(population), 2)
    assert logs


def test_parallel_crawl_four_jobs(benchmark, population):
    logs = benchmark(_pool_crawl, _sample_population(population), 4)
    assert logs


def test_serial_vs_process_summary(population):
    """One-shot wall-clock comparison with a determinism cross-check:
    the serial crawl against the process pool at 2 and 4 workers."""
    sites = _sample(population)
    timings = {}

    def run(label, crawl, *args):
        t0 = time.perf_counter()
        logs = crawl(*args)
        timings[label] = time.perf_counter() - t0
        return [json.dumps(log.to_dict(), sort_keys=True) for log in logs]

    reference = run(
        "serial", Crawler(population, CrawlConfig(seed=2025)).crawl, sites)
    sample_population = _sample_population(population)
    for jobs in (2, 4):
        assert run(f"jobs={jobs}", _pool_crawl, sample_population,
                   jobs) == reference

    banner("Serial vs process crawl", "process workers, not a paper figure")
    cores = os.cpu_count() or 1
    print(f"sample: {len(sites)} sites; machine cores: {cores}")
    for label, seconds in timings.items():
        rate = len(sites) / seconds
        speedup = timings["serial"] / seconds
        print(f"  {label:<16} {seconds:7.2f}s  {rate:7.1f} sites/s  "
              f"{speedup:5.2f}x vs serial")
    assert timings["serial"] > 0
