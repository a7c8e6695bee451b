"""The crawl harness (§4.2).

Mirrors the paper's data collection: a browser preloaded with the
instrumentation extension visits each site's landing page, performs light
interaction (scrolling plus up to three link clicks, two seconds apart),
and the visit log is retained only when both cookie data and network data
were collected.

The same harness drives the CookieGuard evaluation crawls: pass
``install_guard=True`` (and optionally a policy) to reproduce the
"with extension" condition of Figure 5.

Each visit is written as a resumable coroutine (:meth:`Crawler.
visit_steps`) yielding :class:`~repro.crawler.engine.WaitPoint`\\ s at
its simulated idle moments; :class:`~repro.crawler.engine.VisitEngine`
runs the visits one after another, resuming every wait immediately.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

import numpy as np

from ..browser.browser import Browser
from ..browser.scripts import Script
from ..cookieguard.guard import CookieGuardExtension
from ..cookieguard.policy import InlineMode, PolicyConfig
from ..cookies.serialize import serialize_set_cookie
from ..ecosystem.behaviors import build_behavior, first_party_behavior
from ..ecosystem.population import Population
from ..ecosystem.services import ServiceSpec
from ..ecosystem.site import SiteSpec
from ..extension.instrumentation import InstrumentationExtension
from ..net.dns import Resolver
from ..net.headers import Headers
from ..net.http import Request, Response, ResourceType
from ..records import DomMutationEvent, ScriptRecord, VisitLog
from .engine import VisitEngine, WaitPoint, drive

__all__ = ["CrawlConfig", "Crawler", "config_fingerprint"]

#: Bound on one crawler's resolved-spec memo.  A 240-site crawl resolves
#: a few hundred distinct specs; the cap guards a long crawl.
_SPEC_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class CrawlConfig:
    """Crawl-level switches; each one can change what a visit records.

    One config serves every shard of a crawl.  The ``seed`` is never
    derived per shard: every visit is seeded with ``[seed, site.rank]``,
    so shard membership can never change a visit.
    """

    seed: int = 2025
    interact: bool = True
    max_clicks: int = 3
    install_guard: bool = False
    guard_policy: Optional[PolicyConfig] = None
    guard_uncloak_dns: bool = False

    def to_dict(self) -> Dict:
        """Every field, in declaration order: the payload of
        :func:`config_fingerprint` and the ``config`` of a worker's
        ``workspec.json``.

        A guard policy is written as its ``inline_mode`` name, its
        ``owner_full_access`` switch and ``entity_whitelist``, whether
        it has an ``entity_of`` callable: a presence bit only.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        policy = self.guard_policy
        if policy is not None:
            data["guard_policy"] = {
                "inline_mode": policy.inline_mode.name,
                "owner_full_access": bool(policy.owner_full_access),
                "entity_whitelist": policy.entity_of is not None,
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CrawlConfig":
        """Inverse of :meth:`to_dict`; each other field is converted to
        its default's type.

        Raises ``ValueError`` for ``entity_whitelist: true``: no dict
        carries the ``entity_of`` callable itself.
        """
        kwargs = {f.name: type(f.default)(data[f.name]) for f in fields(cls)
                  if f.name != "guard_policy"}
        policy = data["guard_policy"]
        if policy is not None:
            if policy.get("entity_whitelist"):
                raise ValueError("a guard policy's entity_of callable "
                                 "cannot be read from a dict")
            kwargs["guard_policy"] = PolicyConfig(
                inline_mode=InlineMode[policy["inline_mode"]],
                owner_full_access=bool(policy["owner_full_access"]))
        return cls(**kwargs)


def config_fingerprint(config: CrawlConfig) -> str:
    """SHA-256 of the canonical JSON of :meth:`CrawlConfig.to_dict`.

    This is the crawl half of the shard-cache key (see
    :mod:`repro.crawler.distributed`): two configs with the same
    fingerprint are promised to produce byte-identical shard files for
    the same population and ranks.  It covers every field of
    :class:`CrawlConfig`; the shard layout and the scheduling knobs
    (worker count, backend choice) live outside it, and the crawl
    output is invariant to them by construction.

    An ``entity_of`` callable on the guard policy is recorded as a
    presence bit only — two different callables fingerprint alike — so
    such configs must not participate in shard caching (the coordinator
    refuses a :class:`~repro.crawler.distributed.ShardStore` for them).
    """
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Crawler:
    """Visits :class:`SiteSpec` sites and produces :class:`VisitLog`\\ s."""

    def __init__(self, population: Population,
                 config: Optional[CrawlConfig] = None):
        self.population = population
        self.config = config or CrawlConfig()
        #: Guard instances from guarded crawls (one per visited site).
        self.guards: List = []
        #: (service key, overrides, assigned children) -> the resolved
        #: spec; see :meth:`_resolved_spec`.
        self._specs: Dict[tuple, ServiceSpec] = {}

    # ------------------------------------------------------------------
    def crawl(self, sites: Optional[Iterable[SiteSpec]] = None,
              keep_incomplete: bool = False) -> List[VisitLog]:
        """Crawl ``sites`` (default: the whole population).

        Returns the retained visit logs — those with both cookie and
        network data, matching the paper's 14,917/20,000 criterion —
        unless ``keep_incomplete`` is set.

        ``self.guards`` holds the guard instances of *this* crawl only;
        repeated ``crawl()`` calls start from an empty list.
        """
        return list(self.icrawl(sites, keep_incomplete=keep_incomplete))

    # ------------------------------------------------------------------
    def icrawl(self, sites: Optional[Iterable[SiteSpec]] = None,
               keep_incomplete: bool = False) -> Iterator[VisitLog]:
        """Stream retained logs in site order, one visit at a time.

        Each log is yielded before the next site is visited, so shard
        files can be written incrementally in rank order.
        """
        if sites is None:
            # Lazy stream: sites synthesize per rank as they are visited,
            # so a whole-population crawl never materializes the list.
            sites = self.population.iter_sites()
        self.guards = []
        jobs = ((lambda s=site: self.visit_steps(s)) for site in sites)
        for log in VisitEngine().run_ordered(jobs):
            if log is not None and (keep_incomplete or log.complete):
                yield log

    # ------------------------------------------------------------------
    def visit_site(self, site: SiteSpec) -> Optional[VisitLog]:
        """Visit one site; None when the crawl fails (timeout/bot wall).

        Runs :meth:`visit_steps` straight through, every wait-point
        resuming immediately.
        """
        return drive(self.visit_steps(site))

    # ------------------------------------------------------------------
    def visit_steps(self, site: SiteSpec):
        """One visit as a resumable coroutine yielding wait-points.

        Every simulated idle moment — the navigation round-trip, the
        parser hand-off before scripts run, the timing-model delays
        between interactions — is a ``yield WaitPoint(...)``.  All visit
        state (browser, jar, page clock, rng) is local to this
        generator, so visits never observe one another.
        """
        if site.crawl_fails:
            return None
        rng = np.random.default_rng([self.config.seed, site.rank])
        browser = self._build_browser(site, rng)
        if self.config.install_guard:
            guard = CookieGuardExtension(
                self.config.guard_policy,
                uncloak_dns=self.config.guard_uncloak_dns)
            browser.install(guard)
            self.guards.append(guard)
        instrumentation = InstrumentationExtension()
        browser.install(instrumentation)

        scripts = self._build_scripts(site, rng)
        yield WaitPoint(0.0, "navigation round-trip")
        page = browser.visit(site.url, scripts=scripts, run=False)
        _build_markup(page)
        yield WaitPoint(0.0, "parser hand-off")
        page.run_scripts()

        if self.config.interact:
            yield from self._interact_steps(page, site, rng)

        log = instrumentation.log_for(page)
        self._finalize_log(log, page, site)
        return log

    # ------------------------------------------------------------------
    def _build_browser(self, site: SiteSpec, rng) -> Browser:
        resolver = Resolver()
        browser = Browser(resolver=resolver, rng=rng)
        browser.register_server(site.domain, _site_server(site))
        for key in site.all_service_keys():
            service = self.population.services[key]
            browser.register_server(service.domain, _service_server(service))
        for key in site.cloaked_services:
            service = self.population.services[key]
            resolver.add_cname_cloak(f"metrics.{site.domain}",
                                     service.effective_script_host)
        return browser

    # ------------------------------------------------------------------
    def _resolved_spec(self, key: str, overrides: Tuple[tuple, ...],
                       assigned: Tuple[str, ...]) -> ServiceSpec:
        """Service ``key`` with a site's ``overrides`` (field, value)
        pairs and its ``assigned`` children, resolved once per distinct
        triple: the specs are frozen and the population's services never
        change, so sites that share a triple share the spec."""
        memo_key = (key, overrides, assigned)
        spec = self._specs.get(memo_key)
        if spec is None:
            spec = self.population.services[key]
            if overrides:
                spec = spec.with_overrides(**dict(overrides))
            # Children not assigned by the population do not fan out —
            # inclusion counts stay exactly as sampled.
            spec = spec.with_overrides(children=assigned,
                                       child_count=(len(assigned),
                                                    len(assigned)))
            if len(self._specs) >= _SPEC_MEMO_LIMIT:
                self._specs.clear()
            self._specs[memo_key] = spec
        return spec

    def _resolver_for(self, site: SiteSpec) -> Callable:
        """Child resolver honouring the site's indirect assignments.

        Behaviours are built per visit: each closes over this visit's
        resolver.
        """

        def resolve(key: str) -> Tuple[ServiceSpec, Callable]:
            overrides = site.service_overrides.get(key)
            assigned = site.indirect_assignments.get(key) or ()
            spec = self._resolved_spec(
                key, tuple(overrides.items()) if overrides else (), assigned)
            return spec, build_behavior(spec, resolve if assigned else None)

        return resolve

    def _build_scripts(self, site: SiteSpec, rng) -> List[Script]:
        resolve = self._resolver_for(site)
        scripts: List[Script] = []

        fp = site.first_party
        scripts.append(Script.external(
            f"https://{site.domain}/static/main.js",
            behavior=first_party_behavior(
                session=fp.session, prefs=fp.prefs, reads_jar=fp.reads_jar,
                deletes=fp.deletes, overwrites=fp.overwrites,
                self_hosted_tracking=fp.self_hosted_tracking,
                exfil_destination=fp.exfil_destination),
            label="first-party"))

        if site.has_inline_script:
            scripts.append(Script.inline(behavior=_inline_behavior,
                                         label="inline"))

        for key in site.direct_services:
            spec, behavior = resolve(key)
            scripts.append(Script.external(spec.script_url, behavior=behavior,
                                           label=spec.key))

        for key in site.cloaked_services:
            cloaked_spec = self._resolved_spec(key, (), ())
            scripts.append(Script.external(
                f"https://metrics.{site.domain}{cloaked_spec.script_path}",
                behavior=build_behavior(cloaked_spec, None),
                label=f"cloaked:{cloaked_spec.key}"))
        return scripts

    # ------------------------------------------------------------------
    def _interact_steps(self, page, site: SiteSpec, rng):
        """Scroll and click up to three links, two seconds apart (§4.2).

        Each two-second pause is a wait-point *and* a page-clock
        advance: the page's own virtual clock (hence every logged
        timestamp) moves by two seconds while no wall time passes.
        """
        yield WaitPoint(2.0, "scroll settle")
        page.clock.advance(2.0)
        clicks = min(self.config.max_clicks, site.n_links)
        trackers = [s for s in page.scripts
                    if s.url is not None and s.behavior is not None
                    and s.is_third_party_on(site.domain)]
        for _ in range(clicks):
            yield WaitPoint(2.0, "click delay")
            page.clock.advance(2.0)
            if trackers:
                pick = trackers[int(rng.integers(0, len(trackers)))]
                ping = Script.external(str(pick.url), behavior=_ping_behavior,
                                       label=f"ping:{pick.label}")
                page.add_script(ping)
            page.run_scripts()

    # ------------------------------------------------------------------
    def _finalize_log(self, log: VisitLog, page, site: SiteSpec) -> None:
        log.rank = site.rank
        log.interacted = self.config.interact
        # The paper reports *distinct* third-party scripts; interaction
        # pings re-execute existing script URLs, so dedupe by URL and
        # attribute each URL by its first inclusion.
        seen: Dict[str, Script] = {}
        for script in page.scripts:
            key = str(script.url) if script.url else f"inline:{script.script_id}"
            seen.setdefault(key, script)
        distinct = list(seen.values())
        third_party = [s for s in distinct
                       if s.is_third_party_on(site.domain)]
        for script in distinct:
            parent = script.parent
            log.scripts.append(ScriptRecord(
                url=str(script.url) if script.url else None,
                domain=script.attributed_domain(),
                inclusion=("inline" if script.is_inline
                           else script.inclusion_kind),
                depth=script.inclusion_depth,
                parent_domain=(parent.attributed_domain()
                               if parent is not None else None),
            ))
        log.n_scripts = len(distinct)
        log.n_third_party_scripts = len(third_party)
        log.n_direct_third_party = sum(
            1 for s in third_party if s.parent is None)
        log.n_indirect_third_party = sum(
            1 for s in third_party if s.parent is not None)
        log.cookie_op_count = page.cookie_op_count
        for mutation in page.document.mutations:
            actor = mutation.actor.attributed_domain() if mutation.actor else None
            owner = mutation.owner.attributed_domain() if mutation.owner else None
            # Page markup belongs to the first party: a third-party script
            # rewriting it is as cross-domain as rewriting another
            # tracker's element (§8 pilot definition).
            effective_owner = owner if owner is not None else site.domain
            cross = actor is not None and actor != effective_owner
            log.dom_mutations.append(DomMutationEvent(
                site=site.domain,
                kind=mutation.kind,
                target_tag=mutation.target_tag,
                actor_domain=actor,
                owner_domain=owner,
                cross_script=cross,
                timestamp=page.clock.now(),
            ))


# ---------------------------------------------------------------------------
# Page-world helpers
# ---------------------------------------------------------------------------

def _build_markup(page) -> None:
    """Static page markup (owner None = the first party's own HTML)."""
    document = page.document
    for tag, css_class in (("header", "site-header"), ("main", "content"),
                           ("footer", "site-footer")):
        element = document.create_element(tag)
        element.set_attribute("class", css_class)
        document.body.append_child(element)
    document.mutations.clear()  # markup construction is not scripted


def _inline_behavior(js) -> None:
    """The site's inline snippet: a prefs cookie and a jar read."""
    js.set_cookie(serialize_set_cookie("inline_pref", "expanded",
                                       path="/", max_age=30 * 86400.0))
    js.get_cookie()


def _ping_behavior(js) -> None:
    """Interaction-triggered re-engagement ping from a present tracker."""
    jar = js.get_cookie()
    js.load_image(f"https://{js.current_script.url.host}/ping",
                  params={"n": len(jar), "site": js.site_domain})


def _stable_token(text: str, mod: int) -> int:
    """A process-independent stand-in for ``hash(text) % mod``.

    Server cookie values must be identical across worker processes (and
    across runs with different ``PYTHONHASHSEED``), so the built-in
    ``hash`` — which is salted per interpreter — cannot be used.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % mod


def _site_server(site: SiteSpec):
    """The site's own web server."""
    set_cookies: List[str] = []
    if site.http_session_cookie:
        flags = "; HttpOnly" if site.http_session_httponly else ""
        set_cookies.append(
            f"php_sessid=srv{site.rank}x{_stable_token(site.domain, 10**12)}; "
            f"Path=/{flags}")
    if site.http_marketing_cookie:
        set_cookies.append(
            f"mkt_attrib=utm{site.rank}campaign{_stable_token(site.domain[::-1], 10**10)}; "
            f"Path=/; Max-Age=2592000")

    def handler(request: Request) -> Response:
        headers = Headers()
        if request.resource_type is ResourceType.DOCUMENT:
            for text in set_cookies:
                headers.add("set-cookie", text)
        return Response(url=request.url, status=200, headers=headers)

    return handler


def _service_server(service: ServiceSpec):
    """A third-party service's server (scripts + collect endpoints)."""
    set_cookie = (f"{service.key}_srv=sv{_stable_token(service.domain, 10**12)}; "
                  f"Path=/; Max-Age=31536000"
                  if service.sets_http_cookie else None)

    def handler(request: Request) -> Response:
        headers = Headers()
        if set_cookie is not None:
            headers.add("set-cookie", set_cookie)
        return Response(url=request.url, status=200, headers=headers)

    return handler


def render_site_html(site: SiteSpec, services: Dict[str, ServiceSpec]) -> str:
    """The landing-page markup a site serves (matches the crawl order).

    The script list mirrors :meth:`Crawler._build_scripts` exactly:
    first-party main.js, the inline snippet, direct services, then any
    cloaked first-party subdomain scripts.  ``tests/test_crawler_html.py``
    verifies the round-trip against the executed script list.
    """
    from ..browser.html import render_page_html

    srcs = [f"https://{site.domain}/static/main.js"]
    inline_bodies = []
    if site.has_inline_script:
        inline_bodies.append(
            "document.cookie = 'inline_pref=expanded; Max-Age=2592000'; "
            "void document.cookie;")
    for key in site.direct_services:
        srcs_service = services[key]
        srcs.append(srcs_service.script_url)
    for key in site.cloaked_services:
        service = services[key]
        srcs.append(f"https://metrics.{site.domain}{service.script_path}")
    links = [f"/page{i}" for i in range(min(site.n_links, 10))]
    return render_page_html(title=site.domain, script_srcs=srcs,
                            inline_bodies=inline_bodies, links=links)
