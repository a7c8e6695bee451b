"""The serial visit driver (``repro.crawler.engine``).

Two layers of guarantees:

* **Driver unit tests** — results stream in submission order, a visit
  starts only once the previous result is taken, exceptions propagate,
  and the ``WaitPoint``/``drive`` protocol rejects bad yields.
* **Cross-engine equivalence** — the crawl's ``VisitLog`` stream (and
  the merged ``Study`` output) is bit-identical between ``icrawl`` and
  the coordinator's process-pool workers.  ``icrawl`` streams lazily:
  a site is synthesized only when its visit starts.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import Study
from repro.crawler import (
    Coordinator,
    CrawlConfig,
    Crawler,
    ProcessPoolBackend,
    VisitEngine,
    WaitPoint,
    drive,
    load_logs,
)
from repro.ecosystem import PopulationConfig, generate_population

SEED_CFG = CrawlConfig(seed=2025)


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


# ---------------------------------------------------------------------------
# Scheduler unit tests
# ---------------------------------------------------------------------------

def _job(name, waits, trace, result=None, fail_at=None):
    """A visit coroutine that records its resume points in ``trace``."""
    def factory():
        trace.append((name, "start"))
        for step, wait in enumerate(waits):
            yield WaitPoint(wait, reason=f"{name}:{step}")
            if fail_at == step:
                raise ValueError(f"{name} failed at step {step}")
            trace.append((name, step))
        trace.append((name, "end"))
        return result if result is not None else name
    return factory


class TestVisitEngine:
    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            WaitPoint(-0.1)

    def test_run_ordered_is_the_serial_schedule(self):
        trace = []
        jobs = [_job("a", [1.0, 1.0], trace), _job("b", [0.1], trace)]
        results = list(VisitEngine().run_ordered(jobs))
        assert results == ["a", "b"]
        # b never starts before a has fully finished.
        assert trace == [("a", "start"), ("a", 0), ("a", 1), ("a", "end"),
                         ("b", "start"), ("b", 0), ("b", "end")]

    def test_run_ordered_streams_before_later_jobs_start(self):
        trace = []
        jobs = [_job("a", [1.0], trace), _job("b", [1.0], trace)]
        stream = VisitEngine().run_ordered(jobs)
        assert next(stream) == "a"
        # Lazy start: b's coroutine has not even started yet.
        assert ("b", "start") not in trace
        assert list(stream) == ["b"]

    def test_immediate_return_coroutines(self):
        def empty():
            return None
            yield  # pragma: no cover — makes this a generator

        trace = []
        jobs = [empty, _job("a", [1.0], trace), empty]
        assert list(VisitEngine().run_ordered(jobs)) == [None, "a", None]

    def test_exception_propagates_and_later_jobs_never_start(self):
        trace = []
        jobs = [_job("first", [1.0], trace),
                _job("boom", [1.0], trace, fail_at=0),
                _job("never-started", [1.0], trace)]
        stream = VisitEngine().run_ordered(jobs)
        assert next(stream) == "first"
        with pytest.raises(ValueError, match="boom failed"):
            next(stream)
        assert ("never-started", "start") not in trace

    def test_non_waitpoint_yield_rejected(self):
        def bad():
            yield 2.0

        with pytest.raises(TypeError, match="expected WaitPoint"):
            list(VisitEngine().run_ordered([bad]))
        with pytest.raises(TypeError, match="expected WaitPoint"):
            drive(bad())

    def test_drive_returns_the_coroutine_value(self):
        trace = []
        assert drive(_job("solo", [1.0, 2.0], trace, result=42)()) == 42
        assert trace[-1] == ("solo", "end")


# ---------------------------------------------------------------------------
# Cross-engine equivalence: icrawl vs the coordinator's process pool
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def subset(population):
    """A small site sample *including* failing crawls (None results)."""
    return list(population.iter_sites(
        range(1, min(len(population), 60) + 1)))


@pytest.fixture(scope="module")
def subset_stream(population, subset):
    return _stream(Crawler(population, SEED_CFG).crawl(subset))


@pytest.fixture(scope="module")
def subset_population(population, subset):
    """The subset as a population of its own, for coordinator crawls.

    Sites synthesize per rank, so the top-60 population holds exactly
    the subset's sites.
    """
    return generate_population(replace(population.config,
                                       n_sites=len(subset)))


def _pool_crawl(population, out, jobs, n_shards):
    """Crawl through the coordinator's process pool; the loaded logs."""
    coordinator = Coordinator(population, SEED_CFG,
                              backend=ProcessPoolBackend(jobs=jobs))
    coordinator.run(out, n_shards=n_shards)
    return load_logs(out)


class TestCrossEngineEquivalence:
    def test_sharded_matches_serial(self, subset_population, subset_stream,
                                    tmp_path):
        logs = _pool_crawl(subset_population, tmp_path, jobs=1, n_shards=3)
        assert _stream(logs) == subset_stream

    def test_study_output_matches_serial(self, population, subset,
                                         subset_population, tmp_path):
        serial = Study(Crawler(population, SEED_CFG).crawl(subset))
        merged = Study(_pool_crawl(subset_population, tmp_path, jobs=1,
                                   n_shards=4))
        assert merged.table1() == serial.table1()
        assert merged.table2(20) == serial.table2(20)
        assert merged.sec51_prevalence() == serial.sec51_prevalence()
        assert merged.sec56_inclusion() == serial.sec56_inclusion()

    def test_icrawl_streams_in_rank_order(self, population, subset,
                                          subset_stream):
        crawler = Crawler(population, SEED_CFG)
        seen = []
        stream = []
        for log in crawler.icrawl(subset):
            seen.append(log.rank)
            stream.append(json.dumps(log.to_dict(), sort_keys=True))
        assert seen == sorted(seen)
        assert stream == subset_stream

    def test_icrawl_synthesizes_sites_as_it_visits(self, monkeypatch):
        """A whole-population icrawl synthesizes no site ahead of its
        visit: the first log arrives after exactly one synthesis."""
        population = generate_population(
            PopulationConfig(n_sites=300, seed=2025))
        synthesized = []
        synthesize = population.synthesize
        monkeypatch.setattr(
            population, "synthesize",
            lambda rank: synthesized.append(rank) or synthesize(rank))
        first = next(Crawler(population, SEED_CFG).icrawl())
        assert first.rank == 1
        assert synthesized == [1]

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_process_worker_matrix(self, subset_population, subset_stream,
                                   tmp_path, jobs):
        """Pool workers, one and two, against the serial crawl."""
        logs = _pool_crawl(subset_population, tmp_path, jobs=jobs,
                           n_shards=2 * jobs)
        assert _stream(logs) == subset_stream

    @pytest.mark.slow
    def test_process_study_matches_serial(self, population, subset,
                                          subset_population, tmp_path):
        serial = Study(Crawler(population, SEED_CFG).crawl(subset))
        merged = Study.from_shards(
            [_pool_crawl(subset_population, tmp_path, jobs=2, n_shards=4)])
        assert merged.table1() == serial.table1()
        assert merged.sec52_api_usage() == serial.sec52_api_usage()
        assert merged.sec55_overwrite_attributes() == \
            serial.sec55_overwrite_attributes()


# ---------------------------------------------------------------------------
# The trivial schedule really is the old serial path
# ---------------------------------------------------------------------------

class TestSerialPathIsTrivialSchedule:
    def test_visit_site_equals_engine_run(self, population):
        site = population.successful_sites()[0]
        direct = Crawler(population, SEED_CFG).visit_site(site)
        crawler = Crawler(population, SEED_CFG)
        [via_engine] = VisitEngine().run_ordered(
            [lambda: crawler.visit_steps(site)])
        assert json.dumps(direct.to_dict(), sort_keys=True) == \
            json.dumps(via_engine.to_dict(), sort_keys=True)

    def test_failed_crawl_yields_none(self, population):
        failed = [s for s in population.iter_sites() if s.crawl_fails][0]
        crawler = Crawler(population, SEED_CFG)
        assert list(VisitEngine().run_ordered(
            [lambda: crawler.visit_steps(failed)])) == [None]

    def test_guards_accumulate_in_site_order(self, population):
        sites = population.successful_sites()[:6]
        config = CrawlConfig(seed=2025, install_guard=True)
        crawler = Crawler(population, config)
        crawler.crawl(sites)
        assert len(crawler.guards) == len(sites)
