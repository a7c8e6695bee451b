"""The visit driver: runs visit coroutines one after another.

A visit is a resumable coroutine (a plain generator,
:meth:`repro.crawler.crawler.Crawler.visit_steps`) that yields a
:class:`WaitPoint` wherever the simulated browser would sit idle.  A
wait-point is simulated time only — the page clock advances, no wall
time passes — and each visit is a CPU-bound simulation, so overlapping
visits in one process cannot raise throughput: every wait resumes
immediately and visits run in submission order.  Crawl parallelism
comes from sharding ranks (:mod:`repro.crawler.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Iterator

__all__ = ["WaitPoint", "VisitEngine", "drive"]


@dataclass(frozen=True)
class WaitPoint:
    """One simulated wait inside a visit.

    ``seconds`` is virtual-clock time (the same unit as the page clock);
    ``reason`` is a label for traces and tests.
    """

    seconds: float
    reason: str = ""

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError(
                f"wait-point cannot go backwards: {self.seconds}")


def drive(coroutine: Generator) -> Any:
    """Run one visit coroutine to completion and return its value.

    Every wait-point resumes immediately; a yield that is not a
    :class:`WaitPoint` closes the coroutine and raises ``TypeError``.
    """
    try:
        while True:
            wait = next(coroutine)
            if not isinstance(wait, WaitPoint):
                coroutine.close()
                raise TypeError(
                    f"visit coroutine yielded {wait!r}, expected WaitPoint")
    except StopIteration as stop:
        return stop.value


# A job is a zero-argument callable producing the visit coroutine; the
# driver calls it only when the visit starts, so one browser exists at
# a time.
JobFactory = Callable[[], Generator]


class VisitEngine:
    """Drives visit coroutines serially, in submission order.

    An exception raised by a visit propagates unchanged to the caller;
    later jobs never start.
    """

    def run_ordered(self, jobs: Iterable[JobFactory]) -> Iterator[Any]:
        """Yield each job's result in turn, starting a job only once the
        previous result has been taken."""
        for job in jobs:
            yield drive(job())
