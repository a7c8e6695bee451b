"""Shard planning for the sharded crawl (divide-and-conquer over ranks).

The crawl is embarrassingly parallel by construction: every visit is
seeded with ``[seed, site.rank]`` (see :class:`~repro.crawler.crawler.
Crawler.visit_site`), so no visit can observe another visit's state.
This module holds the pieces of that decomposition; the one executor
is :class:`~repro.crawler.distributed.Coordinator`, whose worker
backends run the shards in this process, over a process pool, or as
``crawl-shard`` subprocesses, all with bit-identical output:

* :class:`ShardPlan` deterministically partitions a population's site
  ranks into shards of contiguous rank ranges.  Every shard is crawled
  under the one crawl config: a shard is its index and its ranks,
  nothing else, and the seed is never varied per shard.
* :class:`CrawlProgress` is the per-shard progress event, and
  :func:`print_progress` a ready-made callback for it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..ecosystem.population import Population

__all__ = ["Shard", "ShardPlan", "CrawlProgress", "print_progress"]


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shard:
    """One unit of parallel work: a set of site ranks.

    ``ranks`` is any ordered int sequence — plans derived from a whole
    population keep it as a :class:`range`, so a shard of a 10M-site plan
    is O(1) memory; explicit rank lists yield tuples.
    """

    index: int
    ranks: Sequence[int]

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of site ranks into shards.

    The rank-ordered site list is split into near-even contiguous runs
    (shard files then hold adjacent ranks, which keeps the on-disk
    layout browsable); the plan is a pure function of the site list and
    shard count.
    """

    shards: Tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    @classmethod
    def for_population(cls, population: Population,
                       n_shards: int) -> "ShardPlan":
        # population.ranks is a range — the plan's shards stay O(1) memory
        # (range slices), never materializing the population.
        return cls.for_ranks(population.ranks, n_shards)

    @classmethod
    def for_ranks(cls, ranks: Sequence[int], n_shards: int) -> "ShardPlan":
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not (isinstance(ranks, range) and ranks.step > 0):
            ranks = sorted(ranks)
        n_shards = min(n_shards, max(len(ranks), 1))
        base, extra = divmod(len(ranks), n_shards)
        parts: List[Sequence[int]] = []
        start = 0
        for index in range(n_shards):
            size = base + (1 if index < extra else 0)
            part = ranks[start:start + size]
            # Slicing a range yields a range; slicing a list yields a
            # list — freeze it to a tuple so explicit plans stay hashable.
            parts.append(part if isinstance(part, range) else tuple(part))
            start += size
        shards = tuple(Shard(index=i, ranks=part)
                       for i, part in enumerate(parts))
        return cls(shards=shards)


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrawlProgress:
    """One completed shard of a coordinator run (crawled or cache-served).

    Reporting only — arrival order depends on worker timing, so nothing
    downstream may consume these for anything but display.
    """

    shard_index: int
    n_shards: int
    shard_visits: int     # retained logs in this shard
    done_shards: int      # shards completed so far (including this one)
    total_visits: int     # retained logs across completed shards
    elapsed: float        # seconds since the crawl started


def print_progress(event: CrawlProgress) -> None:
    """A ready-made ``progress`` callback: one stderr line per shard."""
    print(f"[crawl] shard {event.shard_index} done: "
          f"{event.shard_visits} visits "
          f"({event.done_shards}/{event.n_shards} shards, "
          f"{event.total_visits} visits, {event.elapsed:.1f}s)",
          file=sys.stderr, flush=True)
