"""Scripts, their provenance, and inclusion chains.

A :class:`Script` models one JavaScript resource executing in a frame:

* **external** scripts have a URL; their *attributed domain* is the eTLD+1
  of the URL host — exactly what the paper's stack-trace attribution and
  CookieGuard both rely on;
* **inline** scripts have no URL; their origin "cannot be reliably
  determined" (§6.1), which is why CookieGuard's strict mode denies them;
* every script records *how* it was included: directly by the page markup
  or dynamically by another script (tag managers, ad SDK loaders), giving
  the direct/indirect inclusion-path analysis of §5.6.

CNAME cloaking (§8) is visible here too: :meth:`Script.attributed_domain`
uses the URL host, while :meth:`Script.uncloaked_domain` follows DNS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..net.dns import Resolver
from ..net.psl import DEFAULT_PSL, PublicSuffixList
from ..net.url import URL, parse_url

__all__ = ["Script", "InclusionKind"]

_script_ids = itertools.count(1)


class InclusionKind:
    """How a script ended up in the frame."""

    DIRECT = "direct"      # <script src=...> / inline markup in the page
    INDIRECT = "indirect"  # injected at runtime by another script


@dataclass
class Script:
    """One script instance executing in a page.

    Parameters
    ----------
    url:
        Source URL for external scripts; None for inline scripts.
    behavior:
        Callable invoked with the page's JS context when the script runs.
        Behaviours come from :mod:`repro.ecosystem.behaviors` in the
        measurement pipeline, or from test code.
    parent:
        The script that dynamically inserted this one (None for direct
        inclusions).
    label:
        Human-readable tag for logs ("google-analytics", "cmp", ...).
    """

    url: Optional[URL] = None
    behavior: Optional[Callable[["object"], None]] = None
    parent: Optional["Script"] = None
    label: str = ""
    script_id: int = field(default_factory=lambda: next(_script_ids))

    @classmethod
    def external(cls, src: str, behavior: Optional[Callable] = None,
                 parent: Optional["Script"] = None, label: str = "") -> "Script":
        return cls(url=parse_url(src), behavior=behavior, parent=parent, label=label)

    @classmethod
    def inline(cls, behavior: Optional[Callable] = None,
               parent: Optional["Script"] = None, label: str = "inline") -> "Script":
        return cls(url=None, behavior=behavior, parent=parent, label=label)

    # -- provenance -----------------------------------------------------
    @property
    def is_inline(self) -> bool:
        return self.url is None

    @property
    def inclusion_kind(self) -> str:
        return InclusionKind.INDIRECT if self.parent is not None else InclusionKind.DIRECT

    def inclusion_chain(self) -> List["Script"]:
        """Ancestors from the root direct inclusion down to this script."""
        chain: List[Script] = []
        node: Optional[Script] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    @property
    def inclusion_depth(self) -> int:
        return len(self.inclusion_chain()) - 1

    # -- attribution ----------------------------------------------------
    def attributed_domain(self, psl: PublicSuffixList = DEFAULT_PSL) -> Optional[str]:
        """eTLD+1 seen by URL-based attribution (None for inline scripts)."""
        if self.url is None:
            return None
        return psl.registrable_domain(self.url.host)

    def uncloaked_domain(self, resolver: Optional[Resolver],
                         psl: PublicSuffixList = DEFAULT_PSL) -> Optional[str]:
        """eTLD+1 after following DNS CNAMEs (defeats CNAME cloaking)."""
        if self.url is None:
            return None
        if resolver is None:
            return self.attributed_domain(psl)
        return resolver.uncloaked_domain(self.url.host, psl)

    def is_third_party_on(self, site_domain: str,
                          psl: PublicSuffixList = DEFAULT_PSL) -> bool:
        """True when the script's attributed eTLD+1 differs from the site's.

        Inline scripts are *not* third-party by this test — they inherit
        the page, which is exactly the evasion §8 warns about.
        """
        domain = self.attributed_domain(psl)
        return domain is not None and domain != site_domain

    def __repr__(self) -> str:
        src = str(self.url) if self.url else "<inline>"
        return f"Script(#{self.script_id} {self.label or src})"
