"""Cookie ownership and cross-domain manipulation detection (§4.4).

The unit of analysis is the *cookie pair* — ``(cookie_name, creator
domain)`` — where the creator is the eTLD+1 of the script that first set
the cookie (or the site itself for HTTP-set and inline-set cookies).  A
read, overwrite, deletion, or exfiltration is **cross-domain** when the
acting script's eTLD+1 differs from the creator's.

Note the direction-agnostic definition (it matches the paper's): a
first-party script deleting a tracker's cookie is as cross-domain as a
tracker clobbering the site's — that's how prettylittlething.com tops
Figure 8b.

This module holds the records; the detectors that fill them are the
per-site kernels in :mod:`repro.analysis.columnar`
(:func:`~repro.analysis.columnar.build_ownership_batch` and
:func:`~repro.analysis.columnar.detect_manipulations_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["CookiePair", "SiteOwnership", "CrossDomainAction"]


@dataclass(frozen=True)
class CookiePair:
    """The paper's cookie identity: (name, domain of the setting script)."""

    name: str
    creator: str

    def __str__(self) -> str:
        return f"({self.name}, {self.creator})"


@dataclass
class SiteOwnership:
    """One visit's creator index plus every value each cookie ever held.

    Built and consumed per visit by the detectors; a study keeps only
    the events they emit.
    """

    site: str
    creators: Dict[str, str] = field(default_factory=dict)   # name → creator
    values: Dict[str, List[str]] = field(default_factory=dict)  # name → values
    #: API of the creating write ("document.cookie" / "cookieStore" /
    #: "http") — Table 1 is split by creation API.
    apis: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CrossDomainAction:
    """One cross-domain overwrite or deletion."""

    site: str
    pair: CookiePair
    actor: str
    kind: str                     # "overwrite" | "delete"
    api_of_cookie: str            # creation API of the cookie
    attrs_changed: Tuple[str, ...] = ()


def _attrs_from_raw(raw: str) -> Tuple[str, ...]:
    """Approximate changed attributes for a shadowing (new-key) overwrite.

    The value necessarily differs (a fresh identifier), and the key only
    differs because Domain or Path was altered; Expires changed when the
    writer attached a lifetime.
    """
    lowered = raw.lower()
    attrs = ["value"]
    if "max-age=" in lowered or "expires=" in lowered:
        attrs.append("expires")
    if "path=/" in lowered and "path=/;" not in lowered \
            and not lowered.rstrip().endswith("path=/"):
        attrs.append("path")
    return tuple(attrs)
