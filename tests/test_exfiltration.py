"""Exfiltration detection (§4.4's identifier pipeline).

Each detection case runs one hand-written visit log through ``Study``,
the production path (the columnar kernels).
"""

import pytest

from repro.analysis import Study
from repro.analysis.columnar import (ShardBatch, _identifier_index,
                                     build_ownership_batch)
from repro.analysis.exfiltration import (
    MIN_IDENTIFIER_LENGTH,
    split_candidates,
)
from repro.encoding import b64, md5_hex, sha1_hex
from repro.records import CookieWriteEvent, RequestEvent, VisitLog

SITE = "site.com"


def write(name, value, domain="tracker.com", ts=1.0):
    return CookieWriteEvent(
        site=SITE, cookie_name=name, cookie_value=value,
        api="document.cookie", kind="set",
        script_url=f"https://{domain}/t.js", script_domain=domain,
        inclusion="direct", raw=f"{name}={value}", timestamp=ts)


def request(query, domain="dest.com", script_domain="thief.com", body=""):
    return RequestEvent(
        site=SITE, url=f"https://{domain}/px?{query}", host=domain,
        domain=domain, method="GET", resource_type="image", query=query,
        body=body, script_url=f"https://{script_domain}/t.js",
        script_domain=script_domain, timestamp=2.0)


def log_with(writes=(), requests=()):
    log = VisitLog(site=SITE, url=f"https://{SITE}/")
    log.cookie_writes.extend(writes)
    log.requests.extend(requests)
    return log


def detect_exfiltration(log):
    return Study([log]).exfil_events


def identifier_index(log):
    return _identifier_index(
        build_ownership_batch(ShardBatch.from_logs([log]), 0))


class TestSplitCandidates:
    def test_ga_value(self):
        segments = split_candidates("GA1.1.444332364.1746838827")
        assert segments == ["444332364", "1746838827"]

    def test_threshold(self):
        assert split_candidates("abc.defg.12345678") == ["12345678"]

    def test_min_length_constant(self):
        assert MIN_IDENTIFIER_LENGTH == 8

    def test_delimiters(self):
        assert split_candidates("aaaaaaaa|bbbbbbbb%cccccccc") == \
            ["aaaaaaaa", "bbbbbbbb", "cccccccc"]

    def test_short_consent_string_invisible(self):
        assert split_candidates("1YNN") == []

    def test_empty(self):
        assert split_candidates("") == []

    def test_single_long_token(self):
        assert split_candidates("x" * 20) == ["x" * 20]


class TestDetection:
    def test_plain_match(self):
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")],
            requests=[request("ga=444332364")])
        events = detect_exfiltration(log)
        assert len(events) == 1
        event = events[0]
        assert event.pair.creator == "gtm.com"
        assert event.actor == "thief.com"
        assert event.matched_form == "plain"

    def test_base64_match(self):
        # The LinkedIn insight-tag encoding (§5.4 case study).
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")],
            requests=[request(f"ga={b64('444332364')}",
                              domain="linkedin.com",
                              script_domain="licdn.com")])
        events = detect_exfiltration(log)
        assert events[0].matched_form == "b64"

    def test_md5_and_sha1_matches(self):
        value = "uniqueident99"
        log = log_with(
            writes=[write("c", value, "owner.com")],
            requests=[request(f"h={md5_hex(value)}"),
                      request(f"h={sha1_hex(value)}",
                              script_domain="other-thief.com")])
        forms = {e.matched_form for e in detect_exfiltration(log)}
        assert forms == {"md5", "sha1"}

    def test_same_domain_excluded_by_default(self):
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "ga.com")],
            requests=[request("cid=444332364", script_domain="ga.com")])
        assert detect_exfiltration(log) == []

    def test_post_body_inspected(self):
        log = log_with(
            writes=[write("tok", "secretvalue42x", "owner.com")],
            requests=[request("", body="payload=secretvalue42x")])
        assert detect_exfiltration(log)

    def test_no_false_positive_on_unrelated_values(self):
        log = log_with(
            writes=[write("tok", "secretvalue42x", "owner.com")],
            requests=[request("x=completelydifferent99")])
        assert detect_exfiltration(log) == []

    def test_short_values_never_detected(self):
        log = log_with(
            writes=[write("flag", "1", "owner.com")],
            requests=[request("flag=1")])
        assert detect_exfiltration(log) == []

    def test_deduplication(self):
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")],
            requests=[request("a=444332364"), request("b=444332364")])
        assert len(detect_exfiltration(log)) == 1

    def test_distinct_destinations_kept(self):
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")],
            requests=[request("a=444332364", domain="dest1.com"),
                      request("a=444332364", domain="dest2.com")])
        assert len(detect_exfiltration(log)) == 2

    def test_inline_actor_is_site(self):
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")])
        log.requests.append(RequestEvent(
            site=SITE, url="https://d.com/?x=444332364", host="d.com",
            domain="d.com", method="GET", resource_type="image",
            query="x=444332364", body="", script_url=None,
            script_domain=None, timestamp=2.0))
        events = detect_exfiltration(log)
        assert events[0].actor == SITE

    def test_overwritten_value_still_indexed(self):
        log = VisitLog(site=SITE, url=f"https://{SITE}/")
        log.cookie_writes.append(write("c", "originalvalue1", "a.com", ts=1.0))
        log.cookie_writes.append(CookieWriteEvent(
            site=SITE, cookie_name="c", cookie_value="replacedvalue2",
            api="document.cookie", kind="overwrite",
            script_url="https://b.com/t.js", script_domain="b.com",
            inclusion="direct", raw="c=replacedvalue2", timestamp=2.0))
        log.requests.append(request("v=originalvalue1"))
        log.requests.append(request("v=replacedvalue2"))
        events = detect_exfiltration(log)
        # Both values map to the pair (c, a.com).
        assert all(e.pair.creator == "a.com" for e in events)
        assert len(events) == 1  # same (pair, actor, dest) → deduped


class TestIdentifierIndex:
    def test_index_size(self):
        log = log_with(writes=[write("_ga", "GA1.1.444332364.1746838827",
                                     "gtm.com")])
        index = identifier_index(log)
        # Two candidate segments × 4 encoded forms.
        assert len(index) == 8

    def test_lookup_miss(self):
        log = log_with(writes=[write("c", "longidentifier1", "a.com")])
        index = identifier_index(log)
        assert index.get("notthere12345") is None
