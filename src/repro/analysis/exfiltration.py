"""Exfiltration detection (§4.4, "Detecting Exfiltration").

Pipeline, exactly as described in the paper:

1. split each observed cookie value on non-alphanumeric delimiters and
   keep substrings of ≥ 8 characters — the *candidate identifiers*;
2. a candidate's forms are its plaintext, Base64, MD5 and SHA1; the
   plain and Base64 forms are looked up in a table per visit, and
   candidates are hashed only for a token shaped like a digest (32 or
   40 lowercase hex characters), the only tokens MD5 or SHA1 can equal;
3. split the query string (and POST body) of every outbound request the
   same way;
4. a token found in (2) confirms exfiltration; it is *cross-domain*
   when the initiating script's eTLD+1 differs from the cookie's
   creator, and only cross-domain events are reported.

This module holds the candidate split (steps 1 and 3) and the
:class:`ExfilEvent` record; the forms are :mod:`repro.encoding`'s.  The
lookup and matching (steps 2 and 4) are
:func:`repro.analysis.columnar.detect_exfiltration_batch`.

An event keeps what a report reads: the site, the cookie pair, the
actor, the destination and the cookie's creation API.  Which form
matched and the request URL stay in the visit log, where the §5.4 case
studies (``examples/case_studies.py``) read them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .attribution import CookiePair

__all__ = ["MIN_IDENTIFIER_LENGTH", "split_candidates",
           "split_candidates_fast", "ExfilEvent"]

MIN_IDENTIFIER_LENGTH = 8


def split_candidates(value: str,
                     min_length: int = MIN_IDENTIFIER_LENGTH) -> List[str]:
    """Alphanumeric segments of ``value`` at least ``min_length`` long."""
    out: List[str] = []
    current: List[str] = []
    for char in value:
        if char.isalnum():
            current.append(char)
        else:
            if len(current) >= min_length:
                out.append("".join(current))
            current = []
    if len(current) >= min_length:
        out.append("".join(current))
    return out


#: ``str.isalnum()`` restricted to ASCII is exactly ``[0-9A-Za-z]`` — the
#: regex engine's C scan replaces the per-character Python loop above.
_ASCII_RUNS = re.compile(r"[0-9A-Za-z]{%d,}" % MIN_IDENTIFIER_LENGTH)


def split_candidates_fast(value: str) -> List[str]:
    """:func:`split_candidates` for the default length, regex-accelerated.

    ASCII inputs (the overwhelming case for cookie values, query
    strings, and POST bodies) go through one compiled-regex scan; any
    non-ASCII input falls back to the reference implementation, because
    ``isalnum`` admits non-ASCII letters/digits the ASCII class doesn't.
    ``tests/test_fastpath_equivalence.py`` pins the two as equivalent.
    """
    if value.isascii():
        return _ASCII_RUNS.findall(value)
    return split_candidates(value)


@dataclass(frozen=True)
class ExfilEvent:
    """One confirmed cross-domain identifier transmission."""

    site: str
    pair: CookiePair
    actor: str                 # eTLD+1 of the exfiltrating script
    destination: str           # eTLD+1 receiving the identifier
    api_of_cookie: str         # creation API of the cookie ("http" included)
