"""Shared crawl state for the pytest-benchmark files.

Every bench regenerates one of the paper's tables or figures.  The crawl
size defaults to a laptop-quick sample; set ``REPRO_SITES=20000`` to
reproduce at the paper's full scale (``scripts/full_scale_run.py``
writes the same tables for a whole run).  The files are ``bench_*.py``,
which plain pytest does not collect; name them::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q

The repository's performance benchmark is ``perfbench/`` instead.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import Study
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population

N_SITES = int(os.environ.get("REPRO_SITES", "800"))
SEED = int(os.environ.get("REPRO_SEED", "2025"))


def banner(title: str, paper: str) -> None:
    """The header every bench prints above its table."""
    print(f"\n=== {title} ===")
    print(f"paper reference: {paper}")


@pytest.fixture(scope="session")
def population():
    return generate_population(PopulationConfig(n_sites=N_SITES, seed=SEED))


@pytest.fixture(scope="session")
def crawl_logs(population):
    return Crawler(population, CrawlConfig(seed=SEED)).crawl()


@pytest.fixture(scope="session")
def study(crawl_logs):
    return Study(crawl_logs)
