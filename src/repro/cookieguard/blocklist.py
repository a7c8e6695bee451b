"""The blocklist baseline (the defense CookieGuard is contrasted with).

§1: "unlike blocklist-based defenses that struggle against domain or URL
manipulation, CookieGuard does not rely on enumerating tracker domains;
it enforces isolation across *all* domains by design".

This module implements that baseline as a content-blocking extension in
the style of an ad blocker: script loads whose URLs match the combined
filter lists are cancelled, so the blocked scripts never execute.  Its
two structural weaknesses are exactly the ones the paper names:

* **coverage** — trackers absent from the lists (the generic tail's
  ``tracking=False`` services, freshly-registered domains) run untouched;
* **manipulation** — CNAME-cloaked and self-hosted scripts carry
  first-party URLs that no third-party rule matches.

``benchmarks/bench_baseline_blocklist.py`` compares both defenses.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.filterlists import FilterList
from ..analysis.lists_data import combined_list
from ..browser.browser import Browser
from ..browser.page import Page
from ..browser.scripts import Script
from ..extension.api import ExtensionBase

__all__ = ["BlocklistExtension"]


class BlocklistExtension(ExtensionBase):
    """Filter-list-based script blocking (an ad-blocker baseline)."""

    name = "blocklist"

    def __init__(self, filter_list: Optional[FilterList] = None):
        self.filters = filter_list or combined_list()
        self.blocked_scripts = 0
        self.allowed_scripts = 0
        self.blocked_urls: List[str] = []

    def content_script(self, page: Page, browser: Browser) -> None:
        """Suppress execution of scripts whose URL the lists match.

        Real content blockers cancel the network request; here the page
        queue is filtered at the same decision point (before execution),
        including dynamically inserted scripts.
        """
        site = page.site_domain
        original_queue = page.queue_script

        def should_block(script: Script) -> bool:
            if script.url is None:
                return False  # inline scripts have no URL to match
            is_third_party = script.is_third_party_on(site)
            return self.filters.should_block(
                str(script.url), resource_type="script",
                page_domain=site, is_third_party=is_third_party)

        def filtering_queue(script: Script) -> None:
            if should_block(script):
                self.blocked_scripts += 1
                self.blocked_urls.append(str(script.url))
                return
            self.allowed_scripts += 1
            original_queue(script)

        page.queue_script = filtering_queue

        # Markup scripts are added through add_script; filter those too.
        original_add = page.add_script

        def filtering_add(script: Script) -> Script:
            if should_block(script):
                self.blocked_scripts += 1
                self.blocked_urls.append(str(script.url))
                return script
            self.allowed_scripts += 1
            return original_add(script)

        page.add_script = filtering_add
