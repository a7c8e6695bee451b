"""Exfiltration detection (§4.4, "Detecting Exfiltration").

Pipeline, exactly as described in the paper:

1. split each observed cookie value on non-alphanumeric delimiters and
   keep substrings of ≥ 8 characters — the *candidate identifiers*;
2. compute each candidate's Base64, MD5 and SHA1 forms (plus plaintext);
3. split the query string (and POST body) of every outbound request the
   same way;
4. a match between (2) and (3) confirms exfiltration; it is
   *cross-domain* when the initiating script's eTLD+1 differs from the
   cookie's creator.

This module holds the candidate split and the encoded forms (steps 1
to 3) and the :class:`ExfilEvent` record.  The matching (step 4) is
:func:`repro.analysis.columnar.detect_exfiltration_batch`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..encoding import encoded_forms
from .attribution import CookiePair

__all__ = ["MIN_IDENTIFIER_LENGTH", "split_candidates",
           "split_candidates_fast", "encoded_forms_cached", "ExfilEvent"]

MIN_IDENTIFIER_LENGTH = 8

#: Bound for the pure-function memo tables below; one study's distinct
#: identifiers sit far under this, the cap only guards degenerate input.
_CACHE_LIMIT = 1 << 16

_FORMS_CACHE: Dict[str, Tuple[str, str, str, str]] = {}


def encoded_forms_cached(candidate: str) -> Tuple[str, str, str, str]:
    """:func:`repro.encoding.encoded_forms` behind a memo table.

    Hashing every candidate three ways dominates identifier-index
    construction, and the same identifiers recur — across the sites
    that share a third-party cookie, and across repeated analyses of
    one dataset.  ``encoded_forms`` is a pure function of the string,
    so the memo cannot change any result.
    """
    forms = _FORMS_CACHE.get(candidate)
    if forms is None:
        if len(_FORMS_CACHE) >= _CACHE_LIMIT:
            _FORMS_CACHE.clear()
        forms = _FORMS_CACHE[candidate] = encoded_forms(candidate)
    return forms


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
    """One confirmed identifier transmission."""

    site: str
    pair: CookiePair
    actor: str                 # eTLD+1 of the exfiltrating script
    destination: str           # eTLD+1 receiving the identifier
    url: str
    matched_form: str          # "plain" | "b64" | "md5" | "sha1"
    api_of_cookie: str         # creation API of the cookie ("http" included)

    @property
    def cross_domain(self) -> bool:
        return self.actor != self.pair.creator
