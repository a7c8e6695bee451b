#!/usr/bin/env python3
"""Full-scale reproduction run (paper scale: 20,000 sites).

Writes every measured number to OUT (default results_full_scale.txt).

Usage: full_scale_run.py [N] [OUT] [--jobs J] [--shards S]
                         [--backend B] [--cache-dir D]
                         [--crawl-dir W] [--max-retries R]

The crawl runs through the crawl coordinator
(``repro.crawler.distributed``): shard files are written under
``--crawl-dir`` (default ``full-scale-crawl``) with a durable work-queue
and per-shard digests.  A re-run into the same ``--crawl-dir`` resumes
it; one with another N, shard count or crawl config is refused, so give
it a fresh ``--crawl-dir``.  ``--jobs`` fans the shards over J worker
processes (``--backend`` picks another worker backend), bit-identical
to the serial crawl.
``--shards`` sets the coordinator's shard count and also aggregates the
study shard by shard through ``Study.from_shards`` — all paths produce
identical tables by construction.  With ``--cache-dir`` a re-run over
the same population and crawl config reuses every cached shard without
executing a single visit — repeated analysis passes become essentially
free.
"""

import sys
import time

from repro.analysis import Study
from repro.analysis.reports import (
    render_ranked,
    render_table1,
    render_table2,
    render_table5,
)
from repro.cliutil import pop_choice_flag, pop_flag, pop_int_flag, \
    reject_unknown_flags
from repro.crawler import (CrawlConfig, Coordinator, ShardPlan, ShardStore,
                           load_logs, make_backend)
from repro.ecosystem import PopulationConfig, generate_population
from repro.evaluation import (
    evaluate_access_control,
    evaluate_breakage,
    evaluate_dom_pilot,
    evaluate_performance,
)

_ARGS = sys.argv[1:]
JOBS = pop_int_flag(_ARGS, "--jobs", 1, minimum=1)
SHARDS = pop_int_flag(_ARGS, "--shards", 0, minimum=1)
BACKEND = pop_choice_flag(_ARGS, "--backend",
                          ["inprocess", "pool", "subprocess"])
CACHE_DIR = pop_flag(_ARGS, "--cache-dir")
CRAWL_DIR = pop_flag(_ARGS, "--crawl-dir") or "full-scale-crawl"
MAX_RETRIES = pop_int_flag(_ARGS, "--max-retries", 2, minimum=0)
reject_unknown_flags(_ARGS)
N = int(_ARGS[0]) if _ARGS else 20_000
OUT = _ARGS[1] if len(_ARGS) > 1 else "results_full_scale.txt"


def main():
    lines = []

    def emit(text=""):
        print(text, flush=True)
        lines.append(str(text))

    t0 = time.time()
    population = generate_population(PopulationConfig(n_sites=N, seed=2025))
    emit(f"population: {N} sites ({time.time()-t0:.0f}s)")

    t0 = time.time()
    config = CrawlConfig(seed=2025)
    backend = make_backend(BACKEND, jobs=JOBS, cache_dir=CACHE_DIR)
    store = ShardStore(CACHE_DIR) if CACHE_DIR else None
    coordinator = Coordinator(population, config, backend=backend,
                              max_retries=MAX_RETRIES, store=store)
    report = coordinator.run(CRAWL_DIR,
                             n_shards=SHARDS if SHARDS > 0 else None)
    logs = load_logs(CRAWL_DIR)
    emit(f"crawl: retained {len(logs)}/{N} sites ({time.time()-t0:.0f}s, "
         f"backend={backend.name}, jobs={JOBS}, "
         f"executed={report.executed_shards}, "
         f"cached={report.cached_shards}, "
         f"visits executed={report.visits_executed}) "
         f"[paper: 14,917/20,000]")

    t0 = time.time()
    if SHARDS > 0:
        plan = ShardPlan.for_ranks([log.rank for log in logs], SHARDS)
        by_rank = {log.rank: log for log in logs}
        study = Study.from_shards(
            [[by_rank[rank] for rank in shard.ranks] for shard in plan])
        emit(f"analysis: {time.time()-t0:.0f}s ({SHARDS}-shard merge)")
    else:
        study = Study(logs)
        emit(f"analysis: {time.time()-t0:.0f}s")
    emit()
    emit("== §5.1 ==")
    for key, value in study.sec51_prevalence().items():
        emit(f"  {key:<38} {value:9.2f}")
    emit("== §5.2 ==")
    for key, value in study.sec52_api_usage().items():
        emit(f"  {key:<38} {value}")
    emit("== Table 1 ==")
    emit(render_table1(study.table1()))
    emit("== Table 2 ==")
    emit(render_table2(study.table2(20)))
    emit("== Figure 2 ==")
    emit(render_ranked(study.figure2(20), "top exfiltrators:"))
    emit("== §5.5 ==")
    for key, value in study.sec55_overwrite_attributes().items():
        emit(f"  {key:<10} {value:6.1f}%")
    emit("== Table 5 ==")
    emit(render_table5(study.table5(10)))
    figure8 = study.figure8(20)
    emit("== Figure 8 ==")
    emit(render_ranked(figure8["overwriting"], "(a) overwriting:"))
    emit(render_ranked(figure8["deleting"], "(b) deleting:"))
    emit("== §5.6 ==")
    for key, value in study.sec56_inclusion().items():
        emit(f"  {key:<36} {value:8.2f}")
    emit("== §8 DOM pilot ==")
    emit(evaluate_dom_pilot(logs).render())

    emit()
    emit("== Figure 5 (paired crawl on 3,000-site sample) ==")
    t0 = time.time()
    access = evaluate_access_control(
        population, population.sites_for(range(1, min(N, 3000) + 1)))
    emit(access.render())
    emit(f"({time.time()-t0:.0f}s)")

    emit()
    emit("== Table 3 (100 random top-10k sites) ==")
    plain = evaluate_breakage(population, sample_size=100, top_k=10_000)
    emit("without whitelist:")
    emit(plain.render())
    whitelisted = evaluate_breakage(population, sample_size=100,
                                    top_k=10_000, use_entity_whitelist=True)
    emit("with entity whitelist:")
    emit(whitelisted.render())
    emit(f"SSO broken: {plain.pct_sites_sso_broken:.0f}% -> "
         f"{whitelisted.pct_sites_sso_broken:.0f}%  [paper: 11% -> 3%]")

    emit()
    emit("== Table 4 (top-10k crawl -> paired timings) ==")
    top10k = [log for log in logs if log.rank <= 10_000]
    perf = evaluate_performance(population, logs=top10k)
    emit(f"paired sites: {perf.n_sites} [paper: 8,171]")
    emit(perf.render_table4())
    emit(perf.render_ratios())
    emit(f"mean overhead: {perf.mean_overhead_ms():.0f} ms [paper ~300 ms]")
    emit("boxplot stats (Figures 6/9):")
    for metric, pair in perf.boxplots().items():
        emit("  " + pair["no_extension"].render(f"{metric} no-ext"))
        emit("  " + pair["with_extension"].render(f"{metric} guarded"))
    emit("ratio boxplots (Figures 7/10):")
    for metric, stats in perf.ratio_stats().items():
        emit("  " + stats.render(metric, unit="x"))

    with open(OUT, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"\nwritten: {OUT}")


if __name__ == "__main__":
    main()
