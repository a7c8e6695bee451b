"""Ownership index and cross-domain manipulation detection (§4.4).

Each ownership case runs one hand-written visit log through
``build_ownership_batch`` and each detection case through ``Study``:
the production path (the columnar kernels).
"""

import pytest

from repro.analysis import Study
from repro.analysis.columnar import ShardBatch, build_ownership_batch
from repro.records import CookieWriteEvent, HeaderCookieEvent, VisitLog

SITE = "site.com"


def write(name, kind="set", domain="tracker.com", value="v" * 12, ts=1.0,
          api="document.cookie", attrs=(), raw=None, inclusion="direct"):
    return CookieWriteEvent(
        site=SITE, cookie_name=name, cookie_value=value, api=api, kind=kind,
        script_url=f"https://{domain}/t.js" if domain else None,
        script_domain=domain, inclusion=inclusion,
        raw=raw if raw is not None else f"{name}={value}",
        attrs_changed=tuple(attrs), timestamp=ts)


def header(name, value="srv" + "x" * 10, domain=SITE, ts=0.0, first=True):
    return HeaderCookieEvent(
        site=SITE, cookie_name=name, cookie_value=value,
        response_url=f"https://{domain}/", response_domain=domain,
        initiator_domain=None, first_party=first, timestamp=ts)


def log_with(writes=(), headers=()):
    log = VisitLog(site=SITE, url=f"https://{SITE}/")
    log.cookie_writes.extend(writes)
    log.header_cookies.extend(headers)
    return log


def build_ownership(log):
    return build_ownership_batch(ShardBatch.from_logs([log]), 0)


def detect_manipulations(log):
    return Study([log]).manipulations


class TestOwnership:
    def test_first_setter_wins(self):
        log = log_with(writes=[write("_ga", domain="gtm.com", ts=1.0),
                               write("_ga", kind="overwrite",
                                     domain="other.com", ts=2.0)])
        ownership = build_ownership(log)
        assert ownership.creators["_ga"] == "gtm.com"

    def test_http_header_creator(self):
        log = log_with(headers=[header("srv_pref")])
        ownership = build_ownership(log)
        assert ownership.creators["srv_pref"] == SITE
        assert ownership.apis["srv_pref"] == "http"

    def test_third_party_header_ignored(self):
        log = log_with(headers=[header("tp", domain="tracker.com",
                                       first=False)])
        assert "tp" not in build_ownership(log).creators

    def test_headers_before_writes_at_same_time(self):
        log = log_with(writes=[write("x", domain="script.com", ts=0.0)],
                       headers=[header("x", ts=0.0)])
        assert build_ownership(log).creators["x"] == SITE

    def test_inline_write_attributed_to_site(self):
        log = log_with(writes=[write("pref", domain=None, inclusion="inline")])
        assert build_ownership(log).creators["pref"] == SITE

    def test_values_accumulated(self):
        log = log_with(writes=[write("_ga", value="valuefirst1", ts=1.0),
                               write("_ga", kind="overwrite",
                                     value="valuesecond2", ts=2.0)])
        assert build_ownership(log).values["_ga"] == ["valuefirst1",
                                                      "valuesecond2"]

    def test_delete_does_not_create_ownership(self):
        log = log_with(writes=[write("ghost", kind="delete")])
        assert "ghost" not in build_ownership(log).creators


class TestManipulationDetection:
    def test_cross_domain_overwrite(self):
        log = log_with(writes=[
            write("_fbp", domain="facebook.net", ts=1.0),
            write("_fbp", kind="overwrite", domain="segment.com", ts=2.0,
                  attrs=("value", "expires"))])
        actions = detect_manipulations(log)
        assert len(actions) == 1
        action = actions[0]
        assert action.kind == "overwrite"
        assert action.actor == "segment.com"
        assert action.pair.creator == "facebook.net"
        assert action.attrs_changed == ("value", "expires")

    def test_own_overwrite_not_cross_domain(self):
        log = log_with(writes=[
            write("_fbp", domain="facebook.net", ts=1.0),
            write("_fbp", kind="overwrite", domain="facebook.net", ts=2.0)])
        assert detect_manipulations(log) == []

    def test_cross_domain_delete(self):
        log = log_with(writes=[
            write("_uetvid", domain="bing.com", ts=1.0),
            write("_uetvid", kind="delete", domain="cookie-script.com",
                  ts=2.0)])
        actions = detect_manipulations(log)
        assert actions[0].kind == "delete"

    def test_first_party_deleting_tracker_counts(self):
        # prettylittlething.com's own script tops Figure 8b.
        log = log_with(writes=[
            write("_ga", domain="googletagmanager.com", ts=1.0),
            write("_ga", kind="delete", domain=SITE, ts=2.0)])
        actions = detect_manipulations(log)
        assert actions and actions[0].actor == SITE

    def test_shadowing_set_counts_as_overwrite(self):
        # A new (domain, path) jar key but an existing name: name-level
        # detection treats it as an overwrite.
        log = log_with(writes=[
            write("user_id", domain="a.com", ts=1.0),
            write("user_id", kind="set", domain="b.com", ts=2.0,
                  raw="user_id=newvalue123; Path=/ads; Max-Age=100")])
        actions = detect_manipulations(log)
        assert actions[0].kind == "overwrite"
        assert "value" in actions[0].attrs_changed
        assert "path" in actions[0].attrs_changed
        assert "expires" in actions[0].attrs_changed

    def test_fresh_set_is_not_manipulation(self):
        log = log_with(writes=[write("new_cookie", domain="a.com")])
        assert detect_manipulations(log) == []

    def test_http_created_then_script_overwritten(self):
        log = log_with(
            headers=[header("srv_pref", ts=0.0)],
            writes=[write("srv_pref", kind="overwrite",
                          domain="tracker.com", ts=1.0)])
        actions = detect_manipulations(log)
        assert actions[0].pair.creator == SITE
        assert actions[0].actor == "tracker.com"

    def test_delete_of_unknown_cookie_ignored(self):
        log = log_with(writes=[write("never_set", kind="delete",
                                     domain="x.com")])
        assert detect_manipulations(log) == []

    def test_multiple_manipulators_counted_separately(self):
        log = log_with(writes=[
            write("_ga", domain="gtm.com", ts=1.0),
            write("_ga", kind="overwrite", domain="a.com", ts=2.0),
            write("_ga", kind="overwrite", domain="b.com", ts=3.0)])
        actors = {a.actor for a in detect_manipulations(log)}
        assert actors == {"a.com", "b.com"}
