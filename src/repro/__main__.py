"""Command-line interface: ``python -m repro <command> [options]``.

Commands
--------
crawl [N] [OUT] [--jobs J] [--shards S] [--gzip] [--progress]
      [--backend B] [--cache-dir D] [--max-retries R]
      [--task-timeout S] [--store-retries N] [--store-backoff S]
    crawl N sites (default 2000) through the crawl coordinator and
    save the raw visit logs.  OUT (default ``crawl``) is always a
    sharded directory: ``shard-NNNN.jsonl[.gz]`` files with their
    sidecar indexes, a digest-pinned ``manifest.json``, and the durable
    work-queue ``queue.jsonl``.  A re-run into the same OUT resumes
    from ``queue.jsonl``: finished shards are re-verified and kept,
    lost ones are re-crawled.  A re-run that changes N, ``--shards``
    or ``--gzip`` is refused (exit 1) rather than mixing shard
    artifacts, and an OUT ending in ``.jsonl`` or ``.jsonl.gz`` is
    refused (exit 2).  Shards are the unit of parallelism; the visits
    inside a shard run one after another.  ``--shards``, not
    ``--jobs``, sets how far a crawl fans out: the default is one shard
    per 256 sites, so a small crawl is one shard whatever ``--jobs``
    says
crawl-shard SPEC INDEX [--cache-dir D]
    worker entrypoint for the distributed coordinator: execute shard
    INDEX of a ``workspec.json``, write its shard file next to the
    spec, and print one JSON result line (file/count/sha256) on stdout.
    With ``--cache-dir`` the worker consults/backfills a shard cache on
    its own side (keyed by the fingerprints the spec carries), so a
    repeat shard costs zero visits
analyze DATASET [--snapshot PATH] [--resume] [--report F]
    run the §5 analysis over a crawl dataset (a single shard file or a
    sharded directory) and print the headline prevalence
    numbers.  With ``--snapshot PATH`` the per-shard accumulator state
    is saved as a versioned snapshot (sharded datasets only); with
    ``--resume`` an existing snapshot at PATH is diffed against the
    dataset's current shard digests and only changed/added shards are
    re-analyzed — O(delta), not O(population) — with unchanged shards
    merged from their saved state.  ``--report F`` writes the full
    canonical report JSON (byte-identical for identical studies, the
    equivalence the snapshot tests pin)
serve [ROOT] [--host H] [--port P]
    HTTP study-catalog service (``repro.serve``) over the sharded
    crawl directories under ROOT (default ``studies``; a ROOT that is
    itself a crawl directory serves as a single study).  Endpoints:
    ``/studies``, ``/studies/<id>``, ``/studies/<id>/shards``,
    ``/studies/<id>/sites/<rank>`` (seek via sidecar indexes), and
    parameterized ``/studies/<id>/reports/<name>`` queries.  Every
    response carries a digest-derived strong ETag and honors
    ``If-None-Match`` with 304
store-serve [ROOT] [--host H] [--port P] [--verbose]
    share a shard-cache directory (default ``shard-cache``) over HTTP
    (``repro.serve.store``) so that ``crawl``/``crawl-shard`` on other
    machines can use ``--cache-dir http://HOST:PORT`` and read/upload
    shards through one cluster-wide content-addressed store.
    ``/healthz`` reports liveness; ``/readyz`` reports readiness (the
    root is writable, so uploads will land)
index-shards DIR [DIR ...] [--force]
    backfill sidecar seek indexes (``shard-NNNN.index.json``) for
    existing sharded crawl directories, replacing missing, stale and
    older-version sidecars; shard bytes, digests, and manifests are
    untouched.  ``--force`` rewrites valid sidecars too

Options
-------
--jobs J         run up to J shards at once (default 1 = serial).
                 Without ``--backend``, J > 1 uses the ``pool``
                 backend.  Per-site seeding makes the result
                 bit-identical to a serial crawl for any J.
--shards S       split the crawl into S shards (default: one per 256
                 sites).  Shard ranks key the shard cache, so the
                 default never depends on --jobs.
--gzip           gzip shard files.
--progress       print one stderr line per completed shard.
--backend B      the coordinator's worker backend: ``inprocess``
                 (this process), ``pool`` (local worker processes),
                 or ``subprocess`` (each shard execs ``python -m repro
                 crawl-shard``, the cross-machine worker protocol).
                 The result is bit-identical for every backend.
--cache-dir D    content-addressed shard cache: shards already crawled
                 for the same population/config/ranks are reused
                 without executing a single visit, and new shards are
                 stored for the next run.
                 D is a local directory or an ``http(s)://`` URL of a
                 ``store-serve`` endpoint; with the subprocess backend
                 the value is forwarded to every worker, so workers
                 hit the shared store directly and the coordinator
                 only moves digests.
--max-retries R  retry a failed/lost shard up to R times (default 2)
                 before giving up; retried bytes must match any
                 previously recorded digest.
--task-timeout S lease deadline in seconds (subprocess backend): a
                 worker still running past it is killed, its log kept
                 as evidence, and the shard re-pended under the same
                 digest-checked retry invariant.  Default: no deadline.
--store-retries N / --store-backoff S
                 retry policy for an ``http(s)://`` --cache-dir store:
                 N total attempts (default 3) with exponential backoff
                 starting at S seconds (default 0.1) for idempotent
                 requests (GET/HEAD/content-addressed PUT).  When the
                 store stays down past the budget the crawl degrades:
                 shards spill to ``OUT/store-overflow`` and are
                 reconciled to the store by a later run.  None of
                 these knobs enter cache keys or output bytes.

A lone ``--`` ends option parsing; later arguments are positional.
"""

from __future__ import annotations

import sys
from typing import List

from .cliutil import (pop_choice_flag, pop_flag, pop_float_flag,
                      pop_int_flag, pop_switch, reject_unknown_flags)


def _usage() -> None:
    print(__doc__)
    raise SystemExit(2)


def _run_crawl(args: List[str]) -> None:
    jobs = pop_int_flag(args, "--jobs", 1, minimum=1)
    shards = pop_int_flag(args, "--shards", 0, minimum=1) or None
    compress = pop_switch(args, "--gzip")
    show_progress = pop_switch(args, "--progress")
    backend_name = pop_choice_flag(args, "--backend",
                                   ["inprocess", "pool", "subprocess"])
    cache_dir = pop_flag(args, "--cache-dir")
    max_retries = pop_int_flag(args, "--max-retries", 2, minimum=0)
    task_timeout = pop_float_flag(args, "--task-timeout", None,
                                  minimum=0, exclusive_minimum=True)
    store_retries = pop_int_flag(args, "--store-retries", 3, minimum=1)
    store_backoff = pop_float_flag(args, "--store-backoff", 0.1, minimum=0)
    reject_unknown_flags(args)
    n_sites = int(args[0]) if args else 2000
    out = args[1] if len(args) > 1 else "crawl"
    if out.endswith((".jsonl", ".jsonl.gz")):
        print(f"crawl: OUT is a sharded directory, not a single file; "
              f"got {out!r}")
        raise SystemExit(2)

    from pathlib import Path

    from .crawler import (CoordinationError, Coordinator, CrawlConfig,
                          HTTPStoreBackend, RetryPolicy, ShardStore,
                          make_backend, print_progress)
    from .ecosystem import PopulationConfig, generate_population
    population = generate_population(PopulationConfig(n_sites=n_sites,
                                                      seed=2025))
    config = CrawlConfig(seed=2025)
    backend = make_backend(backend_name, jobs=jobs, cache_dir=cache_dir)
    store = None
    if cache_dir:
        # The CLI runs resilient by default: a store outage spills
        # to OUT/store-overflow (reconciled by a later run) instead
        # of failing the crawl.  Retry/backoff/overflow are pure
        # scheduling — cache keys and shard bytes are unaffected.
        target = (HTTPStoreBackend(
            cache_dir, retry=RetryPolicy(attempts=store_retries,
                                         backoff=store_backoff))
            if "://" in cache_dir else cache_dir)
        store = ShardStore(target, overflow_dir=Path(out) / "store-overflow")
    progress = print_progress if show_progress else None
    coordinator = Coordinator(population, config, backend=backend,
                              max_retries=max_retries, store=store,
                              compress=compress, progress=progress,
                              task_timeout=task_timeout)
    try:
        report = coordinator.run(out, n_shards=shards)
    except CoordinationError as exc:
        print(f"crawl: {exc}")
        raise SystemExit(1)
    print(f"saved {report.manifest.total} visit logs to {out}/ "
          f"({report.manifest.n_shards} shards, "
          f"backend={backend.name}, jobs={jobs}, "
          f"executed={report.executed_shards}, "
          f"cached={report.cached_shards}, "
          f"reused={report.reused_shards}, "
          f"visits executed={report.visits_executed}, "
          f"retries={report.retries})")


def _run_analyze(args: List[str]) -> None:
    """Analyze a crawl dataset, optionally through the snapshot layer."""
    from pathlib import Path

    snapshot_path = pop_flag(args, "--snapshot")
    resume = pop_switch(args, "--resume")
    report_out = pop_flag(args, "--report")
    reject_unknown_flags(args)
    if len(args) != 1:
        print("analyze needs exactly one DATASET (file or sharded dir)")
        raise SystemExit(2)
    if resume and not snapshot_path:
        print("analyze: --resume requires --snapshot PATH")
        raise SystemExit(2)
    dataset = Path(args[0])

    from .analysis.reports import Study, StudyAccumulator
    if snapshot_path:
        if not dataset.is_dir():
            print("analyze: --snapshot needs a sharded dataset directory "
                  "(snapshots are diffed against per-shard digests)")
            raise SystemExit(2)
        from .analysis.snapshot import (SnapshotError, load_snapshot,
                                        refresh_study, save_snapshot)
        old = None
        if resume and Path(snapshot_path).exists():
            try:
                old = load_snapshot(snapshot_path)
            except SnapshotError as exc:
                print(f"analyze: {exc}")
                raise SystemExit(1)
        try:
            result = refresh_study(old, dataset)
        except SnapshotError as exc:
            print(f"analyze: {exc}")
            raise SystemExit(1)
        save_snapshot(result.snapshot, snapshot_path)
        study = result.snapshot.study()
        print(f"analyzed {dataset}: {study.n_sites} sites "
              f"(reused={len(result.reused)}, "
              f"re-ingested={len(result.reingested)}, "
              f"dropped={result.dropped}); snapshot -> {snapshot_path}")
    else:
        from .analysis.columnar import iter_shard_batches
        acc = StudyAccumulator()
        for batch in iter_shard_batches(dataset):
            acc.add_shard_batch(batch)
        study = Study.from_accumulator(acc)
        print(f"analyzed {dataset}: {study.n_sites} sites")
    for key, value in sorted(study.sec51_prevalence().items()):
        print(f"  {key:<34} {value:8.2f}")
    if report_out:
        Path(report_out).write_bytes(study.report_bytes() + b"\n")
        print(f"wrote {report_out}")


def _run_crawl_shard(args: List[str]) -> None:
    """Distributed worker: one shard of a workspec, result JSON on stdout."""
    import json

    cache_dir = pop_flag(args, "--cache-dir")
    reject_unknown_flags(args)
    if len(args) != 2:
        print("crawl-shard needs exactly: SPEC_PATH SHARD_INDEX")
        raise SystemExit(2)
    try:
        index = int(args[1])
    except ValueError:
        print(f"crawl-shard INDEX expects an integer, got {args[1]!r}")
        raise SystemExit(2)
    from .crawler import run_shard_worker
    result = run_shard_worker(args[0], index, cache_dir=cache_dir)
    print(json.dumps(result, sort_keys=True))


def _run_serve(args: List[str]) -> None:
    """Serve the study catalog over HTTP until interrupted."""
    host = pop_flag(args, "--host") or "127.0.0.1"
    port = pop_int_flag(args, "--port", 8311, minimum=0)
    reject_unknown_flags(args)
    if len(args) > 1:
        print("serve takes at most one positional argument: ROOT")
        raise SystemExit(2)
    root = args[0] if args else "studies"
    from pathlib import Path
    if not Path(root).is_dir():
        print(f"serve: root {root!r} is not a directory")
        raise SystemExit(2)
    from .serve import serve
    serve(root, host=host, port=port)


def _run_store_serve(args: List[str]) -> None:
    """Share a shard-cache directory over HTTP until interrupted."""
    host = pop_flag(args, "--host") or "127.0.0.1"
    port = pop_int_flag(args, "--port", 8412, minimum=0)
    verbose = pop_switch(args, "--verbose")
    reject_unknown_flags(args)
    if len(args) > 1:
        print("store-serve takes at most one positional argument: ROOT")
        raise SystemExit(2)
    root = args[0] if args else "shard-cache"
    from .serve import serve_store
    serve_store(root, host=host, port=port, verbose=verbose)


def _run_index_shards(args: List[str]) -> None:
    """Backfill sidecar seek indexes for sharded crawl directories."""
    force = pop_switch(args, "--force")
    reject_unknown_flags(args)
    if not args:
        print("index-shards needs at least one crawl directory")
        raise SystemExit(2)
    from .crawler import build_shard_indexes
    for directory in args:
        result = build_shard_indexes(directory, force=force)
        print(f"{directory}: {result.built} indexed, "
              f"{result.up_to_date} up-to-date")


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        _usage()
    command, *args = argv

    if command == "crawl":
        _run_crawl(args)
    elif command == "crawl-shard":
        _run_crawl_shard(args)
    elif command == "analyze":
        _run_analyze(args)
    elif command == "serve":
        _run_serve(args)
    elif command == "store-serve":
        _run_store_serve(args)
    elif command == "index-shards":
        _run_index_shards(args)
    else:
        _usage()


if __name__ == "__main__":
    main()
