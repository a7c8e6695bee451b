"""Tiny shared flag parsing for ``python -m repro`` and the scripts.

One implementation, four consumers (``repro.__main__``,
``examples/measurement_study.py``, ``scripts/full_scale_run.py``, the
benchmarks), so ``--flag VALUE`` and ``--flag=VALUE`` behave identically
everywhere and a missing value or a typo'd flag is always a clean
exit 2, never a traceback or a silently-serial 20,000-site run.

Conventions (locked in by ``tests/test_cliutil.py``):

* A repeated flag follows last-occurrence-wins, like argparse.
* A lone ``--`` ends flag parsing: everything after it is positional,
  invisible to ``pop_*`` and exempt from ``reject_unknown_flags`` (which
  removes the marker itself).
* Integer flags validate their ``minimum`` (so ``--jobs 0``,
  ``--shards -3`` etc. exit 2 with a one-line message).
"""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["pop_choice_flag", "pop_flag", "pop_float_flag", "pop_int_flag",
           "pop_switch", "reject_unknown_flags"]


def _flag_region(args: List[str]) -> int:
    """Index of the ``--`` end-of-flags marker (or ``len(args)``)."""
    try:
        return args.index("--")
    except ValueError:
        return len(args)


def pop_flag(args: List[str], name: str) -> Optional[str]:
    """Extract ``--name VALUE`` or ``--name=VALUE`` from ``args``.

    Every occurrence before ``--`` is removed; the last one wins.
    """
    value: Optional[str] = None
    i = 0
    while i < _flag_region(args):
        arg = args[i]
        if arg == name:
            if i + 1 >= len(args) or args[i + 1] == "--":
                print(f"{name} needs a value")
                raise SystemExit(2)
            value = args[i + 1]
            del args[i:i + 2]
            continue
        if arg.startswith(name + "="):
            value = arg.split("=", 1)[1]
            del args[i]
            continue
        i += 1
    return value


def pop_int_flag(args: List[str], name: str, default: int,
                 minimum: Optional[int] = None) -> int:
    raw = pop_flag(args, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        print(f"{name} expects an integer, got {raw!r}")
        raise SystemExit(2)
    if minimum is not None and value < minimum:
        print(f"{name} must be >= {minimum}, got {value}")
        raise SystemExit(2)
    return value


def pop_float_flag(args: List[str], name: str,
                   default: Optional[float] = None,
                   minimum: Optional[float] = None,
                   exclusive_minimum: bool = False) -> Optional[float]:
    """Extract ``--name VALUE`` as a float (exit 2 on a bad value).

    ``nan`` and ``inf`` are bad values: a bound compared with NaN is
    never crossed.  ``minimum`` validates the lower bound; with
    ``exclusive_minimum`` the bound itself is rejected too (e.g. a
    timeout must be > 0).
    """
    raw = pop_flag(args, name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        print(f"{name} expects a number, got {raw!r}")
        raise SystemExit(2)
    if not math.isfinite(value):
        print(f"{name} expects a finite number, got {raw!r}")
        raise SystemExit(2)
    if minimum is not None:
        if value < minimum or (exclusive_minimum and value == minimum):
            op = ">" if exclusive_minimum else ">="
            print(f"{name} must be {op} {minimum:g}, got {raw}")
            raise SystemExit(2)
    return value


def pop_choice_flag(args: List[str], name: str, choices: List[str],
                    default: Optional[str] = None) -> Optional[str]:
    """Extract ``--name VALUE`` restricted to ``choices`` (exit 2 otherwise).

    Returns ``default`` when the flag is absent; the default itself is
    not validated, so ``None`` can mean "flag not given".
    """
    raw = pop_flag(args, name)
    if raw is None:
        return default
    if raw not in choices:
        print(f"{name} must be one of {', '.join(choices)}; got {raw!r}")
        raise SystemExit(2)
    return raw


def pop_switch(args: List[str], name: str) -> bool:
    """Extract a valueless ``--name`` switch (before ``--`` only)."""
    found = False
    i = 0
    while i < _flag_region(args):
        if args[i] == name:
            del args[i]
            found = True
            continue
        i += 1
    return found


def reject_unknown_flags(args: List[str]) -> None:
    """Exit 2 on any unparsed ``-x``/``--x`` left before the ``--`` marker.

    The marker itself is removed, so everything after it flows through
    to positional parsing verbatim (e.g. a site count of ``-1`` can be
    passed as ``crawl -- -1`` and rejected by the command, not the flag
    parser).
    """
    barrier = _flag_region(args)
    unknown = [arg for arg in args[:barrier] if arg.startswith("-")]
    if unknown:
        print(f"unknown option: {' '.join(unknown)}")
        raise SystemExit(2)
    if barrier < len(args):
        del args[barrier]
