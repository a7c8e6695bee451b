"""The measurement extension (§4.1)."""

import pytest

from repro.browser.browser import Browser
from repro.browser.scripts import Script
from repro.cookies.serialize import serialize_set_cookie
from repro.extension.instrumentation import InstrumentationExtension
from repro.net.headers import Headers
from repro.net.http import Response
from repro.records import API_COOKIE_STORE, API_DOCUMENT_COOKIE


@pytest.fixture
def browser():
    b = Browser()
    b.install(InstrumentationExtension())
    return b


def inst(browser) -> InstrumentationExtension:
    return browser.extensions[0]


class TestWriteLogging:
    def test_set_logged_with_attribution(self, browser):
        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://t.com/t.js",
                            behavior=lambda js: js.set_cookie("a=1"))])
        log = inst(browser).log_for(page)
        write = log.cookie_writes[0]
        assert write.kind == "set"
        assert write.cookie_name == "a"
        assert write.script_domain == "t.com"
        assert write.inclusion == "direct"
        assert write.api == API_DOCUMENT_COOKIE

    def test_overwrite_logged_with_prev_value(self, browser):
        def one(js):
            js.set_cookie("a=first; Domain=site.com")

        def two(js):
            js.set_cookie("a=second; Domain=site.com")

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://a.com/1.js", behavior=one),
            Script.external("https://b.com/2.js", behavior=two)])
        log = inst(browser).log_for(page)
        overwrite = [w for w in log.cookie_writes if w.kind == "overwrite"][0]
        assert overwrite.prev_value == "first"
        assert "value" in overwrite.attrs_changed

    def test_delete_logged(self, browser):
        def setter(js):
            js.set_cookie("a=1; Domain=site.com")

        def deleter(js):
            js.set_cookie("a=; Domain=site.com; Max-Age=0")

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://a.com/1.js", behavior=setter),
            Script.external("https://b.com/2.js", behavior=deleter)])
        log = inst(browser).log_for(page)
        assert any(w.kind == "delete" for w in log.cookie_writes)

    def test_inline_write_marked_inline(self, browser):
        page = browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.set_cookie("a=1"))])
        write = inst(browser).log_for(page).cookie_writes[0]
        assert write.inclusion == "inline"
        assert write.script_domain is None

    def test_indirect_write_marked(self, browser):
        def loader(js):
            js.include_script(src="https://child.com/c.js",
                              behavior=lambda j: j.set_cookie("x=1"))

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://gtm.com/g.js", behavior=loader)])
        write = [w for w in inst(browser).log_for(page).cookie_writes
                 if w.cookie_name == "x"][0]
        assert write.inclusion == "indirect"
        assert write.script_domain == "child.com"

    def test_attrs_changed_expires_tolerance(self, browser):
        # Same nominal lifetime on both writes → not an expires change.
        def one(js):
            js.set_cookie(serialize_set_cookie("a", "1", domain="site.com",
                                               max_age=86400.0 * 30))

        def two(js):
            js.set_cookie(serialize_set_cookie("a", "2", domain="site.com",
                                               max_age=86400.0 * 30))

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://a.com/1.js", behavior=one),
            Script.external("https://b.com/2.js", behavior=two)])
        overwrite = [w for w in inst(browser).log_for(page).cookie_writes
                     if w.kind == "overwrite"][0]
        assert "expires" not in overwrite.attrs_changed

    def test_unparseable_write_dropped(self, browser):
        page = browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.set_cookie("=no-name"))])
        assert inst(browser).log_for(page).cookie_writes == []


class TestReadLogging:
    def test_read_logged_with_names(self, browser):
        def behavior(js):
            js.set_cookie("a=1")
            js.set_cookie("b=2")
            js.get_cookie()

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://t.com/t.js", behavior=behavior)])
        reads = inst(browser).log_for(page).cookie_reads
        assert reads[-1].cookie_names == ("a", "b")
        assert reads[-1].script_domain == "t.com"


class TestCookieStoreLogging:
    def test_cookiestore_set_logged(self, browser):
        def behavior(js):
            js.cookie_store.set("keep_alive", "uuid-here")

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://cdn.shopifycloud.com/perf.js",
                            behavior=behavior)])
        write = [w for w in inst(browser).log_for(page).cookie_writes
                 if w.api == API_COOKIE_STORE][0]
        assert write.cookie_name == "keep_alive"
        assert write.script_domain == "shopifycloud.com"

    def test_cookiestore_get_all_logged(self, browser):
        def behavior(js):
            js.cookie_store.set("x", "1")
            js.cookie_store.get_all()

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://a.com/a.js", behavior=behavior)])
        reads = [r for r in inst(browser).log_for(page).cookie_reads
                 if r.api == API_COOKIE_STORE]
        assert reads and "x" in reads[-1].cookie_names

    def test_cookiestore_delete_logged(self, browser):
        def behavior(js):
            js.cookie_store.set("x", "1")
            js.cookie_store.delete("x")

        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://a.com/a.js", behavior=behavior)])
        writes = [w for w in inst(browser).log_for(page).cookie_writes
                  if w.api == API_COOKIE_STORE]
        assert [w.kind for w in writes] == ["set", "delete"]


class TestHeaderLogging:
    def test_first_party_header_cookie(self):
        browser = Browser()
        browser.install(InstrumentationExtension())

        def server(request):
            headers = Headers()
            headers.add("set-cookie", "srv=1; Path=/")
            return Response(url=request.url, headers=headers)

        browser.register_server("site.com", server)
        page = browser.visit("https://site.com/")
        events = inst(browser).log_for(page).header_cookies
        assert events[0].first_party
        assert events[0].cookie_name == "srv"

    def test_httponly_header_not_logged(self):
        browser = Browser()
        browser.install(InstrumentationExtension())

        def server(request):
            headers = Headers()
            headers.add("set-cookie", "sid=1; HttpOnly")
            return Response(url=request.url, headers=headers)

        browser.register_server("site.com", server)
        page = browser.visit("https://site.com/")
        assert inst(browser).log_for(page).header_cookies == []

    def test_third_party_header_flagged(self):
        browser = Browser()
        browser.install(InstrumentationExtension())

        def server(request):
            headers = Headers()
            headers.add("set-cookie", "tp=1")
            return Response(url=request.url, headers=headers)

        browser.register_server("tracker.com", server)
        page = browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.fetch("https://tracker.com/x"))])
        events = inst(browser).log_for(page).header_cookies
        assert events and not events[0].first_party


class TestRequestLogging:
    def test_requests_logged_with_script_domain(self, browser):
        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://t.com/t.js",
                            behavior=lambda js: js.load_image(
                                "https://collect.t.com/px",
                                params={"k": "v"}))])
        log = inst(browser).log_for(page)
        pixel = [r for r in log.requests if r.resource_type == "image"][0]
        assert pixel.script_domain == "t.com"
        assert pixel.query == "k=v"
        assert pixel.domain == "t.com"

    def test_navigation_request_logged(self, browser):
        page = browser.visit("https://site.com/")
        log = inst(browser).log_for(page)
        assert log.requests[0].resource_type == "document"
        assert log.requests[0].script_domain is None


class TestVisitLogCompleteness:
    def test_complete_requires_both(self, browser):
        page = browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.set_cookie("a=1"))])
        log = inst(browser).log_for(page)
        assert log.complete  # navigation request + cookie write
