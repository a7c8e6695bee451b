"""Exfiltration detection (§4.4's identifier pipeline).

Each detection case runs one hand-written visit log through ``Study``,
the production path (the columnar kernels).  The form-resolution
property compares generated visits against the exhaustive four-form
index of ``tests/analysis_oracle.py``.
"""

import hashlib
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

import analysis_oracle
from repro.analysis import Study
from repro.analysis.attribution import CookiePair
from repro.analysis.exfiltration import (
    MIN_IDENTIFIER_LENGTH,
    split_candidates,
)
from repro.encoding import b64, encoded_forms, md5_hex, sha1_hex
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


def sent(events):
    """(pair, actor, destination) of each event, in order."""
    return [(e.pair, e.actor, e.destination) for e in events]


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
        assert sent(detect_exfiltration(log)) == \
            [(CookiePair("_ga", "gtm.com"), "thief.com", "dest.com")]

    def test_base64_match(self):
        # The LinkedIn insight-tag encoding (§5.4 case study).
        log = log_with(
            writes=[write("_ga", "GA1.1.444332364.1746838827", "gtm.com")],
            requests=[request(f"ga={b64('444332364')}",
                              domain="linkedin.com",
                              script_domain="licdn.com")])
        assert sent(detect_exfiltration(log)) == \
            [(CookiePair("_ga", "gtm.com"), "licdn.com", "linkedin.com")]

    def test_md5_and_sha1_matches(self):
        value = "uniqueident99"
        log = log_with(
            writes=[write("c", value, "owner.com")],
            requests=[request(f"h={md5_hex(value)}"),
                      request(f"h={sha1_hex(value)}",
                              script_domain="other-thief.com")])
        pair = CookiePair("c", "owner.com")
        assert sent(detect_exfiltration(log)) == \
            [(pair, "thief.com", "dest.com"),
             (pair, "other-thief.com", "dest.com")]

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
    def test_lookup_miss(self):
        value = "longidentifier1"
        log = log_with(
            writes=[write("c", value, "a.com")],
            requests=[request("x=notthere12345&y=" + b64("notthere12345")),
                      request(f"h={md5_hex(value + 'x')}",
                              body=f"h={sha1_hex(value.upper())}")])
        assert detect_exfiltration(log) == []


# -- form resolution: the lookup tables against the four-form oracle ------

#: ``b64`` of these is 32 and 40 lowercase hex characters ("a000"
#: repeated), so their Base64 form is also shaped like an MD5 or SHA1.
HEX_SHAPED_B64 = ("kM4" * 8, "kM4" * 10)
#: Taken by ``isalnum`` as one candidate; the fast split falls back to
#: the reference loop for it.
NON_ASCII = "Ωmegaidentifier7"
NAMES = ("_ga", "uid", "sess")
DOMAINS = ("a.com", "b.com", "c.com")

identifiers = st.text(alphabet=string.ascii_letters + string.digits,
                      min_size=8, max_size=14)


@st.composite
def colliding_visits(draw):
    """One visit whose candidate pool mixes plain identifiers with the
    Base64, MD5 and SHA1 forms of other pool members, so one token can
    equal forms of several candidates."""
    base = draw(st.lists(identifiers, min_size=1, max_size=3))
    base += list(HEX_SHAPED_B64) + [NON_ASCII]
    pool = list(base)
    for member in base:
        for encode in (b64, md5_hex, sha1_hex):
            if draw(st.booleans()):
                pool.append(encode(member))
    members = st.sampled_from(pool)
    separators = st.sampled_from(".|-")
    writes = []
    for ts, (name, domain, parts, sep) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(NAMES), st.sampled_from(DOMAINS),
                      st.lists(members, min_size=1, max_size=3),
                      separators),
            min_size=1, max_size=6))):
        writes.append(write(name, sep.join(parts), domain, ts=float(ts)))
    tokens = st.lists(members.flatmap(
        lambda member: st.sampled_from(encoded_forms(member))), max_size=4)
    requests = []
    for query, body, actor, destination in draw(st.lists(
            st.tuples(tokens, tokens, st.sampled_from(DOMAINS),
                      st.sampled_from(("d.com", "e.com"))),
            min_size=1, max_size=5)):
        requests.append(request(
            "&".join(f"k{n}={token}" for n, token in enumerate(query)),
            domain=destination, script_domain=actor,
            body="&".join(f"p={token}" for token in body)))
    return log_with(writes, requests)


class TestFormResolution:
    """A token equal to forms of several candidates resolves as the
    exhaustive index does: smallest (candidate position, form)."""

    @settings(max_examples=150, deadline=None)
    @given(colliding_visits())
    # uid's Base64 is _ga's plain text and uid's MD5 is sess's: both
    # tokens resolve to uid, the earlier candidate.  The first token is
    # a Base64 form that is itself 32 lowercase hex characters.
    @example(log_with(
        writes=[write("uid", "identAAA1", "a.com"),
                write("_ga", f"{b64('identAAA1')}.{HEX_SHAPED_B64[0]}",
                      "b.com", ts=2.0),
                write("sess", md5_hex("identAAA1"), "c.com", ts=3.0)],
        requests=[request(f"x={b64(HEX_SHAPED_B64[0])}"
                          f"&y={md5_hex('identAAA1')}",
                          body=f"z={b64('identAAA1')}")]))
    def test_events_equal_the_four_form_oracle(self, log):
        assert Study([log]).exfil_events == \
            analysis_oracle.detect_exfiltration(log)

    def test_digests_only_for_hex_shaped_tokens(self, monkeypatch):
        """MD5 and SHA1 run only over the candidates of a visit that
        sends a token of 32 or 40 lowercase hex characters."""
        hashed = {"md5": [], "sha1": []}

        def counting(kind, real):
            def digest(data=b"", **kwargs):
                hashed[kind].append(data)
                return real(data, **kwargs)
            return digest

        def visit(site, value, query):
            log = VisitLog(site=site, url=f"https://{site}/")
            log.cookie_writes.append(write("uid", value, "owner.com"))
            log.requests.append(request(query))
            return log

        quiet = visit("quiet.com", "quietvalue0917",
                      "a=quietvalue0917&b=" + b64("quietvalue0917")
                      + "&c=" + md5_hex("quietvalue0917").upper())
        hexy = visit("hexy.com", "hexyvalue0917.second0917",
                     "h=" + md5_hex("second0917"))
        monkeypatch.setattr(hashlib, "md5", counting("md5", hashlib.md5))
        monkeypatch.setattr(hashlib, "sha1", counting("sha1", hashlib.sha1))
        events = Study([quiet]).exfil_events
        assert [e.site for e in events] == ["quiet.com"]
        assert hashed == {"md5": [], "sha1": []}
        events = Study([quiet, hexy]).exfil_events
        assert [e.site for e in events] == ["quiet.com", "hexy.com"]
        assert hashed == {"md5": [b"hexyvalue0917", b"second0917"],
                          "sha1": []}
