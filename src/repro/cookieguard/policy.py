"""CookieGuard's access-control policy.

Decision rules, straight from §6.1:

* **Owner full access** — a script whose eTLD+1 equals the visited site's
  may read and write *every* first-party cookie ("we grant full access
  control to the website owner").
* **Per-script-domain isolation** — any other external script may only see
  and touch cookies whose recorded creator matches its own eTLD+1.
* **Inline scripts** — in ``STRICT`` mode they are untrusted and denied
  all cookie access; in ``RELAXED`` mode they are treated as first-party.
  The paper evaluates strict mode only.
* **Entity whitelist** — optionally, domains belonging to the same entity
  (facebook.com / fbcdn.net) are interchangeable, the refinement that cuts
  SSO/functionality breakage from 11% to 3% (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

__all__ = ["InlineMode", "PolicyConfig", "AccessPolicy", "Decision"]


class InlineMode(Enum):
    """How inline (unattributable) scripts are treated."""

    STRICT = "strict"    # safe-by-default: deny everything
    RELAXED = "relaxed"  # treat as first-party (illustrative only)


class Decision(Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass
class PolicyConfig:
    """Tunable policy switches (the DESIGN.md ablation axes)."""

    inline_mode: InlineMode = InlineMode.STRICT
    owner_full_access: bool = True
    #: Maps an eTLD+1 to an owning-entity name (DuckDuckGo-entities style);
    #: None disables the whitelist grouping.
    entity_of: Optional[Callable[[str], Optional[str]]] = None


class AccessPolicy:
    """Pure decision logic; no I/O, trivially unit-testable."""

    def __init__(self, config: Optional[PolicyConfig] = None):
        self.config = config or PolicyConfig()

    # -- helpers ------------------------------------------------------------
    def _same_entity(self, domain_a: str, domain_b: str) -> bool:
        entity_of = self.config.entity_of
        if entity_of is None:
            return False
        a = entity_of(domain_a)
        b = entity_of(domain_b)
        return a is not None and a == b

    def _is_owner(self, script_domain: str, site_domain: str) -> bool:
        if script_domain == site_domain:
            return True
        return self._same_entity(script_domain, site_domain)

    # -- decisions -------------------------------------------------------------
    def may_read(self, *, script_domain: Optional[str], site_domain: str,
                 creator: Optional[str]) -> Decision:
        """May this script see a cookie created by ``creator``?

        ``script_domain`` None means inline/unattributable.
        ``creator`` None means the cookie predates the guard's metadata
        (e.g., set before installation) — such cookies are visible only to
        the site owner, the conservative default.
        """
        if script_domain is None:
            if self.config.inline_mode is InlineMode.STRICT:
                return Decision.DENY
            return Decision.ALLOW  # relaxed: inline == first-party
        if self.config.owner_full_access and self._is_owner(script_domain, site_domain):
            return Decision.ALLOW
        if creator is None:
            return Decision.DENY
        if creator == script_domain or self._same_entity(creator, script_domain):
            return Decision.ALLOW
        return Decision.DENY

    def may_write(self, *, script_domain: Optional[str], site_domain: str,
                  creator: Optional[str]) -> Decision:
        """May this script create/overwrite/delete this cookie?

        Creating a fresh cookie (``creator`` None) is always allowed for
        attributable scripts — the writer becomes the owner.  Overwriting
        or deleting someone else's cookie is what gets blocked.
        """
        if script_domain is None:
            if self.config.inline_mode is InlineMode.STRICT:
                return Decision.DENY
            return Decision.ALLOW
        if self.config.owner_full_access and self._is_owner(script_domain, site_domain):
            return Decision.ALLOW
        if creator is None:
            return Decision.ALLOW  # first write: claim ownership
        if creator == script_domain or self._same_entity(creator, script_domain):
            return Decision.ALLOW
        return Decision.DENY
