"""Run one task from ``tasks.py`` in this (fresh) interpreter.

Usage: ``python3 perfbench/child.py '<task JSON>'``.  The result is the
last line of standard output, as one JSON object.

With ``"sample": true`` the speedometer runs from the first line, so
the program's imports are sampled too.  With ``"spawned"`` (the
parent's ``time.monotonic()`` just before it started this process) the
result also carries ``elapsed_s`` and, for a task that reports when it
was ``ready`` to start timing, ``setup_s``; both at the reference speed.
"""

import json
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from speed import Speedometer  # noqa: E402  (needs the paths above)


def main() -> None:
    task = json.loads(sys.argv[1])
    meter = Speedometer()
    if task.get("sample"):
        meter.start()
    import tasks  # the program's imports are part of set-up
    result = tasks.TASKS[task["kind"]](task, meter)
    meter.stop()
    if "spawned" in task:
        result["elapsed_s"] = meter.scaled(task["spawned"], monotonic())
        if "ready" in result:
            result["setup_s"] = meter.scaled(task["spawned"], result["ready"])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
