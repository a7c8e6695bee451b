"""The ranked report tables against the loops they replaced.

A :class:`~repro.analysis.reports.Study` builds Table 2, Figure 2 and
every entity's drill-down counters once, on first use, from one
domain → entity table, and each ``top``/``name`` reads them.
``report_oracle`` keeps the per-call loops over every event.  Rows,
drill-down payloads and ``report_bytes()`` must be identical, on the
shared ``crawl_logs`` crawl and on two seeded crawls.
"""

from __future__ import annotations

import pytest

import report_oracle as oracle
from repro.analysis.entities import default_entity_map
from repro.analysis.reports import Study
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population

#: Population and crawl seeds of the two extra crawls, and their size.
SEEDS = (7, 31)
N_SEEDED = 150
#: Names that appear nowhere: empty, unknown, and a case variant.
ABSENT = ("", "Nope", "google")


@pytest.fixture(scope="module",
                params=["fixture-crawl"] + [f"seed-{s}" for s in SEEDS])
def logs(request, crawl_logs):
    if request.param == "fixture-crawl":
        return crawl_logs
    seed = int(request.param.split("-")[1])
    population = generate_population(
        PopulationConfig(n_sites=N_SEEDED, seed=seed))
    return Crawler(population, CrawlConfig(seed=seed)).crawl()


@pytest.fixture(scope="module")
def study(logs):
    return Study(logs)


def _limits(n_ranked):
    """1, 5, 20 and one past the ranked count."""
    return (1, 5, 20, n_ranked + 1)


def _event_entities(study):
    """Every entity an event names as actor, destination or manipulator,
    resolved the oracle's way."""
    entity_of = default_entity_map().entity_of
    names = set()
    for event in study.exfil_events:
        names.update((entity_of(event.actor), entity_of(event.destination)))
    for manipulation in study.manipulations:
        names.add(entity_of(manipulation.actor))
    names.discard(None)
    return sorted(names)


class TestRankingsMatchOracle:
    def test_table2_every_limit(self, study):
        ranked = oracle.table2(study, top=10 ** 9)
        assert len(ranked) > 20, "crawl too small to rank past 20 pairs"
        for k in _limits(len(ranked)):
            assert study.table2(k) == oracle.table2(study, k) == ranked[:k]
        assert study.table2(len(ranked) + 1) == ranked

    def test_figure2_every_limit(self, study):
        ranked = oracle.figure2(study, top=10 ** 9)
        assert len(ranked) > 20, "crawl too small to rank past 20 domains"
        for k in _limits(len(ranked)):
            assert study.figure2(k) == oracle.figure2(study, k) == ranked[:k]
        assert study.figure2(len(ranked) + 1) == ranked

    def test_table5(self, study):
        assert study.table5(10) == oracle.table5(study, 10)
        assert study.table5(10 ** 6) == oracle.table5(study, 10 ** 6)

    def test_first_use_in_any_order(self, study):
        """A fresh study whose first read is a small limit still ranks
        every row, and its report matches the oracle's."""
        fresh = Study.from_accumulator(study.accumulator)
        assert fresh.figure2(1) == oracle.figure2(study, 1)
        assert fresh.table2(1) == oracle.table2(study, 1)
        assert fresh.table2(20) == oracle.table2(study, 20)
        assert fresh.entity_drilldown("Google") \
            == oracle.entity(study, "Google")


class TestEntityDrilldownMatchesOracle:
    def test_every_event_entity(self, study):
        names = _event_entities(study)
        assert len(names) > 20
        for name in names:
            assert study.entity_drilldown(name) == oracle.entity(study, name), \
                name

    @pytest.mark.parametrize("name", ABSENT)
    def test_absent_name_answers_all_zeros(self, study, name):
        assert name not in _event_entities(study)
        payload = study.entity_drilldown(name)
        assert payload == oracle.entity(study, name)
        assert payload["entity"] == name
        assert payload["n_sites"] == 0
        assert payload["as_exfiltrator"]["n_events"] == 0
        assert payload["as_destination"]["n_events"] == 0
        assert payload["manipulations"] == {}

    def test_payloads_are_not_shared(self, study):
        """Each call gets its own lists: a caller editing one payload
        cannot change the next."""
        first = study.entity_drilldown("Google")
        first["as_exfiltrator"]["top_cookies"].clear()
        assert study.entity_drilldown("Google") == oracle.entity(study,
                                                                 "Google")


class TestReportBytesMatchOracle:
    def test_fresh_and_built(self, study):
        expected = oracle.report_bytes(study)
        fresh = Study.from_accumulator(study.accumulator)
        assert fresh.report_bytes() == expected
        assert fresh.report_bytes() == expected
