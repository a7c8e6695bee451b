"""Script behaviours for every service archetype.

Each factory turns a :class:`~repro.ecosystem.services.ServiceSpec` into a
callable executed inside the page's JS context.  The behaviours perform the
operations the paper measures, using only public web APIs:

* set their own identifier cookies (``document.cookie`` with
  ``Domain=<site>`` like real SDKs, or ``cookieStore.set``);
* bulk-read the jar (``document.cookie`` returns everything, §5.5);
* send their own identifiers home (authorized, same-domain exfiltration);
* **steal** selected foreign identifiers — parse the jar, encode segments,
  append them to pixel/beacon URLs (the LinkedIn ``insight.min.js`` case
  study);
* **overwrite** foreign cookies (ID-sync / competition, the
  Criteo-vs-Pubmatic ``cto_bundle`` case);
* **delete** foreign cookies (CMP consent enforcement);
* dynamically include children (tag managers → indirect inclusion chains).

Everything that is probabilistic draws from ``js.rng`` so a crawl is fully
reproducible from its seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..browser.page import JSContext
from ..cookies.serialize import cookie_mapping, serialize_set_cookie
from ..encoding import b64, md5_hex, sha1_hex
from .identifiers import IdFactory
from .services import ServiceSpec

__all__ = ["ARCHETYPES", "build_behavior", "first_party_behavior",
           "ChildResolver"]

#: Resolves a service key to (spec, behaviour) so tag managers can include
#: children without the behaviours module knowing about the catalog.
ChildResolver = Callable[[str], Tuple[ServiceSpec, Callable[[JSContext], None]]]

_ENCODERS: Dict[str, Callable[[str], str]] = {
    "plain": lambda v: v,
    "b64": b64,
    "md5": md5_hex,
    "sha1": sha1_hex,
}

#: Identifier cookies RTB bid requests sync on.  Real exchanges do not ship
#: arbitrary first-party state — bid enrichment covers the well-known ad-tech
#: identifiers (this is why the paper's per-cookie exfiltration rate is 5.9%
#: of pairs, not the whole jar).
RTB_SYNC_COOKIES: Tuple[str, ...] = (
    "_ga", "_gid", "_gcl_au", "_fbp", "_uetvid", "_uetsid", "cto_bundle",
    "i", "pd", "PugT", "SPugT", "ajs_anonymous_id", "_ym_uid", "_ym_d",
    "us_privacy", "t_gid", "_pin_unauth", "_ttp", "_scid", "_awl",
    "lotame_domain_check", "_yjsu_yjad", "__gads", "hubspotutk",
    "_mkto_trk", "sc_is_visitor_unique", "gaconnector_GA_Client_ID",
    "gaconnector_GA_Session_ID", "__utma", "__utmb", "__utmz", "__hstc",
    "demdex", "_li_dcdm_c", "_lc2_fpi", "33x_id", "hadron_id",
)


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------

def _visible_cookies(js: JSContext) -> Mapping[str, str]:
    """Read the jar the way scripts do (filtered under CookieGuard).

    The mapping is read-only: every read of the same string shares it.
    """
    return cookie_mapping(js.get_cookie())


def _param_key(cookie_name: str) -> str:
    return cookie_name.lstrip("_") or cookie_name


def _set_own_cookies(js: JSContext, service: ServiceSpec,
                     ids: IdFactory) -> Dict[str, str]:
    """Ensure the service's cookies exist; return name → value written."""
    written: Dict[str, str] = {}
    existing = _visible_cookies(js)
    for spec in service.cookies:
        if spec.name in existing:
            written[spec.name] = existing[spec.name]
            continue
        value = getattr(ids, spec.maker)()
        written[spec.name] = value
        if spec.api == "cookieStore":
            store = js.cookie_store
            if store is None:
                continue
            expires = None
            if spec.max_age:
                expires = js._page.clock.now() + spec.max_age
            store.set(spec.name, value, expires=expires)
        else:
            js.set_cookie(serialize_set_cookie(
                spec.name, value,
                domain=None if spec.host_only else js.site_domain,
                path="/", max_age=spec.max_age))
    return written


def _beacon_own(js: JSContext, service: ServiceSpec,
                own: Dict[str, str]) -> None:
    """Authorized same-domain exfiltration of the service's own ids."""
    params = {_param_key(name): value for name, value in own.items()}
    params["dl"] = js.site_domain
    js.load_image(service.collect_url, params=params)


_ID_SUFFIXES = ("_id", "_uid", "_vid", "_sid", "utk", "uuid")


def _harvest_names(js: JSContext, jar: Mapping[str, str],
                   own_names: "set", service: ServiceSpec,
                   limit: int = 3) -> List[str]:
    """Identifier-shaped foreign cookie names (pattern harvesting)."""
    if service.harvest_prob <= 0.0 or js.rng.random() >= service.harvest_prob:
        return []
    candidates = [name for name in jar
                  if name not in own_names
                  and (name.endswith(_ID_SUFFIXES) or
                       (name.startswith("_") and len(jar[name]) >= 16))]
    if len(candidates) > limit:
        picks = js.rng.choice(len(candidates), size=limit, replace=False)
        candidates = [candidates[int(i)] for i in sorted(picks)]
    return candidates


def _steal(js: JSContext, service: ServiceSpec, ids: IdFactory) -> None:
    """Cross-domain exfiltration of foreign identifiers."""
    if not service.steal_targets and service.harvest_prob <= 0.0:
        return
    jar = _visible_cookies(js)
    encoder = _ENCODERS[service.encode]
    own_names = {spec.name for spec in service.cookies}
    names: List[str] = []
    if service.steal_targets and (service.steal_prob >= 1.0
                                  or js.rng.random() < service.steal_prob):
        names.extend(service.steal_targets)
    names.extend(_harvest_names(js, jar, own_names, service))
    loot = {}
    for name in names:
        value = jar.get(name)
        if value is None:
            continue
        # Targeted parsing: real SDKs extract identifier segments rather
        # than shipping whole values (the optimonk.com case study).
        segments = [s for s in _split_segments(value) if len(s) >= 8]
        payload = segments[0] if segments else value
        loot[_param_key(name)] = encoder(payload)
    if not loot:
        return
    loot["url"] = js.site_domain
    for host in _exfil_hosts(service):
        js.load_image(f"https://{host}/attribution", params=loot)


def _split_segments(value: str) -> List[str]:
    out, current = [], []
    for char in value:
        if char.isalnum():
            current.append(char)
        else:
            if current:
                out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def _exfil_hosts(service: ServiceSpec) -> List[str]:
    hosts = [service.effective_collect_host]
    hosts.extend(service.destinations)
    return hosts


def _overwrite(js: JSContext, service: ServiceSpec, ids: IdFactory) -> None:
    """Cross-domain overwriting (value nearly always, expiry often)."""
    if not service.overwrite_targets:
        return
    jar = _visible_cookies(js)
    for name in service.overwrite_targets:
        if name not in jar:
            continue
        if js.rng.random() >= service.overwrite_prob:
            continue
        # §5.5 attribute mix: 85.3% of overwrites change the value (the
        # rest are re-writes of the same identifier during ID-sync),
        # 69.4% change the expiry, 6.0% the domain, 1.2% the path.
        if js.rng.random() < 0.853:
            value = ids.generic_id(int(js.rng.integers(24, 64)))
        else:
            value = jar[name]
        max_age: Optional[float] = None
        domain: Optional[str] = js.site_domain
        path = "/"
        if js.rng.random() < 0.694:
            max_age = float(js.rng.integers(30, 400)) * 86400.0
        if js.rng.random() < 0.06:
            domain = None            # drop to host-only
        if js.rng.random() < 0.012:
            path = "/ads"
        js.set_cookie(serialize_set_cookie(name, value, domain=domain,
                                           path=path, max_age=max_age))


def _delete(js: JSContext, service: ServiceSpec) -> None:
    """Cross-domain deletion (CMPs enforcing declined consent)."""
    if not service.delete_targets:
        return
    if js.rng.random() >= service.delete_prob:
        return
    jar = _visible_cookies(js)
    for name in service.delete_targets:
        if name not in jar:
            continue
        js.set_cookie(serialize_set_cookie(name, "", domain=js.site_domain,
                                           path="/", max_age=0))


def _include_children(js: JSContext, service: ServiceSpec,
                      resolve: Optional[ChildResolver]) -> None:
    if resolve is None or not service.children:
        return
    low, high = service.child_count
    if high <= 0:
        return
    count = int(js.rng.integers(low, high + 1)) if high > low else high
    if count <= 0:
        return
    picks = js.rng.choice(len(service.children),
                          size=min(count, len(service.children)),
                          replace=False)
    for index in sorted(int(i) for i in picks):
        child_spec, child_behavior = resolve(service.children[index])
        js.include_script(src=child_spec.script_url, behavior=child_behavior,
                          label=child_spec.key)


def _maybe_async(js: JSContext, service: ServiceSpec,
                 action: Callable[[], None]) -> None:
    """Run ``action`` now, or inside setTimeout (async attribution path)."""
    if js.rng.random() < service.async_prob:
        js.set_timeout(lambda _js: action(), delay=0.05)
    else:
        action()


# ---------------------------------------------------------------------------
# Archetype factories
# ---------------------------------------------------------------------------

def analytics(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Analytics SDKs: own ids, bulk jar read, beacon home, light theft."""

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        _beacon_own(js, service, own)
        _maybe_async(js, service, lambda: _steal(js, service, ids))
        _overwrite(js, service, ids)
    return run


def pixel(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Conversion pixels: set an id, then harvest foreign identifiers."""

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        _beacon_own(js, service, own)
        _maybe_async(js, service, lambda: _steal(js, service, ids))
        _overwrite(js, service, ids)
        _delete(js, service)
    return run


def ad_exchange(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """RTB: enrich bid requests with known ad-tech identifiers (§5.4).

    Reads the whole jar (``document.cookie`` always returns everything)
    but ships only recognized sync identifiers — a bounded random subset,
    the way real prebid adapters enrich bids.  Also renders an ad slot
    element, giving the §8 DOM pilot something to measure.
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        jar = _visible_cookies(js)
        own_names = {spec.name for spec in service.cookies}
        syncable = [name for name in RTB_SYNC_COOKIES
                    if name in jar and name not in own_names]
        if len(syncable) > 4:
            picks = js.rng.choice(len(syncable), size=4, replace=False)
            syncable = [syncable[int(i)] for i in sorted(picks)]
        syncable.extend(_harvest_names(js, jar, own_names, service, limit=2))
        bid_payload = {}
        for name, value in own.items():
            segments = [s for s in _split_segments(value) if len(s) >= 8]
            if segments:
                bid_payload[_param_key(name)] = segments[0]
        for name in syncable:
            if js.rng.random() >= service.steal_prob:
                continue
            segments = [s for s in _split_segments(jar[name]) if len(s) >= 8]
            if segments:
                bid_payload[_param_key(name)] = segments[0]
        bid_payload["pub"] = js.site_domain
        for host in _exfil_hosts(service):
            js.load_image(f"https://{host}/bid", params=bid_payload)
        slot = js.document.create_element("ins")
        slot.set_attribute("class", f"{service.key}-ad-slot")
        js.document.body.append_child(slot)
        _overwrite(js, service, ids)
        _include_children(js, service, resolve)
    return run


def tag_manager(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Tag managers: own cookies, then inject configured child tags."""

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        _beacon_own(js, service, own)
        _include_children(js, service, resolve)
        _overwrite(js, service, ids)
        _maybe_async(js, service, lambda: _steal(js, service, ids))
    return run


def cmp(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Consent platforms: consent cookies; delete trackers on declines.

    Includes the Osano case study: a CMP that also forwards a foreign
    identifier (``_fbp``) to an ad-tech partner.
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        _beacon_own(js, service, own)
        _delete(js, service)
        _maybe_async(js, service, lambda: _steal(js, service, ids))
        _overwrite(js, service, ids)
    return run


def cookie_store_sdk(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Performance SDKs using the CookieStore API (§5.2).

    Shopify's perf kit (``keep_alive``) and Admiral (``_awl``) are the two
    deployments the paper found; both read back via ``getAll``.
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)  # api="cookieStore" specs
        store = js.cookie_store
        if store is not None:
            store.get_all()
        _beacon_own(js, service, own)
    return run


def widget(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Functional widgets (chat, search, A/B): generic colliding names.

    The ``cookie_test`` collision finding (§5.5) emerges here: many
    widgets probe with the same generic cookie name and clobber each
    other without meaning to.
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        jar = _visible_cookies(js)
        for spec in service.cookies:
            value = getattr(ids, spec.maker)()
            js.set_cookie(serialize_set_cookie(
                spec.name, value, domain=js.site_domain, path="/",
                max_age=spec.max_age))
            if spec.name in jar:
                pass  # that write was an unintentional cross-domain overwrite
        if service.steal_targets:
            _steal(js, service, ids)
        own = {s.name: jar.get(s.name, "") for s in service.cookies}
        js.load_image(service.collect_url,
                      params={"w": service.key, "site": js.site_domain})
        _delete(js, service)
    return run


def sso_provider(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Identity providers: device/login-hint cookies, own reads only.

    Actual login flows (the Table 3 breakage scenario) are driven by
    :mod:`repro.evaluation.breakage`, not by the crawl — the paper's
    crawler never authenticates (§8).
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        jar = _visible_cookies(js)  # checks its own session state
        js.load_image(service.collect_url,
                      params={"hint": own.get(service.cookies[0].name, "")
                              if service.cookies else ""})
    return run


def cdn_widget(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Same-entity CDN functionality (the facebook.com/fbcdn.net case)."""

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        jar = _visible_cookies(js)
        element = js.document.create_element("div")
        element.set_attribute("class", f"{service.key}-widget")
        js.document.body.append_child(element)
    return run


def dom_modifier(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Scripts that rewrite other parties' DOM (§8 pilot).

    Ad-recovery and affiliate-link rewriters modify content they did not
    create: other scripts' ad slots when present, otherwise the page's own
    markup (both are cross-domain modifications in the pilot's sense).
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        own = _set_own_cookies(js, service, ids)
        me = js.current_script
        target = None
        for element in js.document.body.descendants():
            if element.owner is not me:
                target = element
                break
        if target is None:
            target = js.document.body
        target.set_attribute("data-rewritten", service.domain)
        target.set_style("display", "none" if js.rng.random() < 0.3 else "block")
        _steal(js, service, ids)
    return run


def library(service: ServiceSpec, resolve: Optional[ChildResolver] = None):
    """Functional utility libraries (jQuery, CDNs, fonts, polyfills).

    No cookies, no tracking — these are the ~30% of third-party scripts
    that filter lists do *not* flag (§5.1).
    """

    def run(js: JSContext) -> None:
        helper = js.document.create_element("div")
        helper.set_attribute("class", f"{service.key}-loaded")
        js.document.head.append_child(helper)
    return run


ARCHETYPES: Dict[str, Callable] = {
    "analytics": analytics,
    "pixel": pixel,
    "ad_exchange": ad_exchange,
    "tag_manager": tag_manager,
    "cmp": cmp,
    "cookie_store_sdk": cookie_store_sdk,
    "widget": widget,
    "sso_provider": sso_provider,
    "cdn_widget": cdn_widget,
    "dom_modifier": dom_modifier,
    "library": library,
}


def build_behavior(service: ServiceSpec,
                   resolve: Optional[ChildResolver] = None) -> Callable[[JSContext], None]:
    """Instantiate the behaviour for ``service``."""
    try:
        factory = ARCHETYPES[service.archetype]
    except KeyError:
        raise ValueError(f"unknown archetype {service.archetype!r} "
                         f"for service {service.key!r}") from None
    return factory(service, resolve)


# ---------------------------------------------------------------------------
# First-party behaviour
# ---------------------------------------------------------------------------

def first_party_behavior(*, session: bool = True, prefs: bool = True,
                         reads_jar: bool = True,
                         deletes: Tuple[str, ...] = (),
                         overwrites: Tuple[str, ...] = (),
                         self_hosted_tracking: bool = False,
                         exfil_destination: str = ""):
    """The site's own script.

    Owner scripts keep full jar access under CookieGuard, so any
    cross-domain action *they* perform survives the guard — the residual
    activity that keeps Figure 5's bars above zero.  ``self_hosted_tracking``
    models sites that proxy tracker logic through first-party URLs
    (§5.7's server-side-tracking caveat).
    """

    def run(js: JSContext) -> None:
        ids = IdFactory(js.rng)
        if session:
            js.set_cookie(serialize_set_cookie(
                "fp_session", ids.session_token(), path="/",
                max_age=7 * 86400.0))
        if prefs:
            js.set_cookie(serialize_set_cookie(
                "site_prefs", f"theme-{ids.short_flag()}", path="/",
                max_age=365 * 86400.0))
            if js.rng.random() < 0.55:
                js.set_cookie(serialize_set_cookie(
                    "cart_id", ids.uuid(), path="/", max_age=14 * 86400.0))
            # Generic names the site chooses itself — the per-site cookie
            # pairs that widgets collide with (§5.5's collision cases).
            if js.rng.random() < 0.30:
                js.set_cookie(serialize_set_cookie(
                    "user_id", ids.generic_id(24), path="/",
                    domain=js.site_domain, max_age=180 * 86400.0))
            if js.rng.random() < 0.20:
                js.set_cookie(serialize_set_cookie(
                    "session_id", ids.generic_id(26), path="/",
                    domain=js.site_domain))
        if reads_jar:
            _visible_cookies(js)
        if not (deletes or overwrites or self_hosted_tracking):
            return

        def cleanup_pass(_js) -> None:
            # Runs on a DOMContentLoaded-style timer, after the trackers
            # have populated the jar — that is when compliance resets and
            # first-party proxying actually fire on real sites.  These
            # owner-script actions are the residual cross-domain activity
            # CookieGuard permits by design (Figure 5's non-zero bars).
            jar = _visible_cookies(js)
            for name in deletes:
                if name in jar:
                    js.set_cookie(serialize_set_cookie(
                        name, "", domain=js.site_domain, path="/", max_age=0))
            for name in overwrites:
                if name in jar:
                    js.set_cookie(serialize_set_cookie(
                        name, ids.generic_id(28), domain=js.site_domain,
                        path="/", max_age=390 * 86400.0))
            if self_hosted_tracking and exfil_destination:
                # Server-side tag management forwards the configured
                # marketing identifiers, not arbitrary site state.
                loot = {}
                for name in RTB_SYNC_COOKIES:
                    value = jar.get(name)
                    if value is None:
                        continue
                    segments = [s for s in _split_segments(value)
                                if len(s) >= 8]
                    if segments:
                        loot[_param_key(name)] = segments[0]
                if loot:
                    js.load_image(f"https://{exfil_destination}/fp-sync",
                                  params=loot)

        js.set_timeout(cleanup_pass, delay=0.2)
    return run
