#!/usr/bin/env python3
"""The full §5 measurement study at a configurable scale.

Generates the synthetic site population, crawls it with the
instrumentation extension, and prints every §5 table/figure next to the
paper's numbers.

Run:  python examples/measurement_study.py [n_sites] [--jobs J]
                                           [--cache-dir D] [--backend B]
      (default 2000; the paper's scale is 20000.  The crawl runs
      through the crawl coordinator: --jobs fans its shards over J
      worker processes with bit-identical results.  --cache-dir adds
      the coordinator's shard cache, so re-running the analysis over
      the same population performs zero visits)
"""

import sys
import tempfile
import time

from repro.analysis import Study
from repro.analysis.reports import (
    render_ranked,
    render_table1,
    render_table2,
    render_table5,
)
from repro.cliutil import (pop_choice_flag, pop_flag, pop_int_flag,
                           reject_unknown_flags)
from repro.crawler import (CrawlConfig, Coordinator, ShardStore, load_logs,
                           make_backend)
from repro.ecosystem import PopulationConfig, generate_population


def main():
    args = sys.argv[1:]
    jobs = pop_int_flag(args, "--jobs", 1, minimum=1)
    cache_dir = pop_flag(args, "--cache-dir")
    backend_name = pop_choice_flag(args, "--backend",
                                   ["inprocess", "pool", "subprocess"])
    reject_unknown_flags(args)
    n_sites = int(args[0]) if args else 2000
    print(f"Generating a {n_sites}-site population (seed 2025)...")
    population = generate_population(PopulationConfig(n_sites=n_sites,
                                                      seed=2025))
    print(f"Crawling (scroll + up to 3 link clicks per site, "
          f"jobs={jobs})...")
    start = time.time()
    config = CrawlConfig(seed=2025)
    backend = make_backend(backend_name, jobs=jobs, cache_dir=cache_dir)
    store = ShardStore(cache_dir) if cache_dir else None
    coordinator = Coordinator(population, config, backend=backend,
                              store=store)
    # The coordinator's population-sized shard count is jobs-independent:
    # shard ranks key the cache, so a --jobs change keeps hitting a warm
    # store.
    with tempfile.TemporaryDirectory(prefix="measurement-crawl-") \
            as crawl_dir:
        report = coordinator.run(crawl_dir)
        logs = load_logs(crawl_dir)
    print(f"(coordinator: executed={report.executed_shards} shards, "
          f"cached={report.cached_shards}, "
          f"visits executed={report.visits_executed})")
    print(f"Retained {len(logs)}/{n_sites} sites with complete data "
          f"(paper: 14,917/20,000) in {time.time() - start:.0f}s\n")

    study = Study(logs)

    stats = study.sec51_prevalence()
    print("== §5.1 prevalence (paper: 93.3% sites, 19 scripts, 70% "
          "tracking, 15 vs 4 cookies) ==")
    for key, value in stats.items():
        print(f"  {key:<36} {value:8.1f}")

    stats = study.sec52_api_usage()
    print("\n== §5.2 API usage (paper: 96.3% document.cookie, "
          "2.8% cookieStore) ==")
    for key, value in stats.items():
        print(f"  {key:<36} {value}")

    print("\n== Table 1 (paper: exfil 55.7%/5.9%, overwrite 31.5%/2.7%, "
          "delete 6.3%/1.8%) ==")
    print(render_table1(study.table1()))

    print("\n== Table 2 — top exfiltrated cookies ==")
    print(render_table2(study.table2(20)))

    print("\n== Figure 2 — top exfiltrators (paper: GTM at 3.29%) ==")
    print(render_ranked(study.figure2(20), "top-20 exfiltrator domains:"))

    attrs = study.sec55_overwrite_attributes()
    print("\n== §5.5 overwritten attributes (paper: 85.3/69.4/6.0/1.2) ==")
    for key, value in attrs.items():
        print(f"  {key:<10} {value:6.1f}%")

    print("\n== Table 5 — most manipulated cookies ==")
    print(render_table5(study.table5(10)))

    figure8 = study.figure8(20)
    print("\n== Figure 8 (paper: GTM tops overwriting at 0.47%; "
          "prettylittlething.com tops deleting at 0.31%) ==")
    print(render_ranked(figure8["overwriting"], "(a) overwriting:"))
    print(render_ranked(figure8["deleting"], "(b) deleting:"))

    stats = study.sec56_inclusion()
    print("\n== §5.6 inclusion paths (paper: indirect/direct = 2.5) ==")
    for key, value in stats.items():
        print(f"  {key:<34} {value:8.2f}")

    stats = study.sec8_dom_pilot()
    print("\n== §8 DOM pilot (paper: 9.4% of sites) ==")
    for key, value in stats.items():
        print(f"  {key:<44} {value:6.1f}")


if __name__ == "__main__":
    main()
