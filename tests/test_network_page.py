"""Network layer attribution, page execution, and the browser shell."""

import pytest

from repro.browser.browser import Browser
from repro.browser.page import Page
from repro.browser.scripts import Script
from repro.net.headers import Headers
from repro.net.http import Request, Response, ResourceType
from repro.net.url import parse_url


class TestNetworkAttribution:
    def test_initiator_from_stack(self):
        page = Page("https://site.com/")
        script = Script.external("https://tracker.com/t.js",
                                 behavior=lambda js: js.fetch("https://collect.tracker.com/x"))
        page.add_script(script)
        page.run_scripts()
        fetches = [r for r in page.network.requests
                   if r.resource_type is ResourceType.FETCH]
        assert fetches[0].initiator_url == script.url

    def test_cookies_attached_to_requests(self):
        page = Page("https://site.com/")
        page.jar.set_from_header("sid=abc", page.url)
        response_request = page.network.fetch("https://site.com/api")
        sent = page.network.requests[-1]
        assert sent.headers.get("cookie") == "sid=abc"

    def test_set_cookie_applied_from_response(self):
        def transport(request):
            headers = Headers()
            headers.add("set-cookie", "srv=1; Path=/")
            return Response(url=request.url, headers=headers)

        page = Page("https://site.com/", transport=transport)
        page.network.fetch("https://site.com/api")
        assert page.jar.get("srv", "site.com") is not None

    def test_third_party_response_sets_third_party_cookie(self):
        def transport(request):
            headers = Headers()
            headers.add("set-cookie", "tp=1")
            return Response(url=request.url, headers=headers)

        page = Page("https://site.com/", transport=transport)
        page.network.fetch("https://tracker.com/px")
        assert page.jar.get("tp", "tracker.com") is not None
        assert page.jar.get("tp", "site.com") is None

    def test_beacon_appends_params(self):
        page = Page("https://site.com/")
        page.network.send_beacon("https://t.com/c", params={"id": "xyz12345"})
        assert "id=xyz12345" in page.network.requests[-1].url.query

    def test_listeners_fire(self):
        page = Page("https://site.com/")
        sent, received = [], []
        page.network.will_send_listeners.append(sent.append)
        page.network.headers_received_listeners.append(
            lambda resp, req: received.append(resp))
        page.network.fetch("https://site.com/x")
        assert len(sent) == 1 and len(received) == 1


class TestPage:
    def test_scripts_execute_in_order(self):
        page = Page("https://site.com/")
        order = []
        page.add_script(Script.inline(behavior=lambda js: order.append(1)))
        page.add_script(Script.inline(behavior=lambda js: order.append(2)))
        page.run_scripts()
        assert order == [1, 2]

    def test_dynamic_inclusion_runs_and_links_parent(self):
        page = Page("https://site.com/")

        def parent_behavior(js):
            js.include_script(src="https://child.com/c.js",
                              behavior=lambda j: None, label="child")

        parent = Script.external("https://gtm.com/g.js", behavior=parent_behavior)
        page.add_script(parent)
        page.run_scripts()
        child = [s for s in page.scripts if s.label == "child"][0]
        assert child.parent is parent
        assert child.inclusion_kind == "indirect"

    def test_dynamic_script_fetch_recorded(self):
        page = Page("https://site.com/")
        page.add_script(Script.inline(
            behavior=lambda js: js.include_script(src="https://c.com/c.js")))
        page.run_scripts()
        script_fetches = [r for r in page.network.requests
                          if r.resource_type is ResourceType.SCRIPT]
        assert len(script_fetches) == 1

    def test_set_timeout_runs_with_owner_attribution(self):
        page = Page("https://site.com/")
        attributed = []

        def behavior(js):
            js.set_timeout(
                lambda j: attributed.append(page.stack.attribute()), 0.1)

        owner = Script.external("https://t.com/t.js", behavior=behavior)
        page.add_script(owner)
        page.run_scripts()
        assert attributed == [owner]

    def test_timer_inserted_scripts_run(self):
        page = Page("https://site.com/")
        ran = []

        def behavior(js):
            js.set_timeout(lambda j: j.include_script(
                src="https://late.com/l.js",
                behavior=lambda _: ran.append("late")), 0.1)

        page.add_script(Script.inline(behavior=behavior))
        page.run_scripts()
        assert ran == ["late"]

    def test_cookie_op_count(self):
        page = Page("https://site.com/")
        page.add_script(Script.inline(behavior=lambda js: (
            js.set_cookie("a=1"), js.get_cookie(), js.get_cookie())))
        page.run_scripts()
        assert page.cookie_op_count == 3

    def test_third_party_scripts_query(self):
        page = Page("https://site.com/")
        page.add_script(Script.external("https://site.com/own.js",
                                        behavior=lambda js: None))
        page.add_script(Script.external("https://other.com/t.js",
                                        behavior=lambda js: None))
        page.run_scripts()
        assert len(page.third_party_scripts()) == 1

    def test_first_party_cookies_query(self):
        page = Page("https://site.com/")
        page.add_script(Script.inline(behavior=lambda js: js.set_cookie("a=1")))
        page.run_scripts()
        assert [c.name for c in page.first_party_cookies()] == ["a"]

    def test_globals_shared_between_scripts(self):
        page = Page("https://site.com/")
        page.add_script(Script.inline(
            behavior=lambda js: js.globals.__setitem__("x", 42)))
        seen = []
        page.add_script(Script.inline(
            behavior=lambda js: seen.append(js.globals.get("x"))))
        page.run_scripts()
        assert seen == [42]

    def test_http_page_has_no_cookie_store(self):
        page = Page("http://site.com/")
        assert page.cookie_store is None

    def test_script_storm_guard(self):
        page = Page("https://site.com/")

        def loop_forever(js):
            js.include_script(behavior=loop_forever)

        page.add_script(Script.inline(behavior=loop_forever))
        with pytest.raises(RuntimeError):
            page.run_scripts()

    def test_timer_inclusion_loop_is_a_script_storm(self):
        """A script that re-includes itself from a timer is stopped by
        the cumulative script bound, not by Python's recursion limit."""
        page = Page("https://example.com/")

        def again(js):
            js.set_timeout(lambda j: j.include_script(behavior=again))

        page.add_script(Script.inline(behavior=again))
        with pytest.raises(RuntimeError, match="script storm"):
            page.run_scripts()
        assert len(page.scripts) == 10_001

    def test_timer_rounds_keep_execution_order(self):
        page = Page("https://site.com/")
        ran = []

        def step(name, later=()):
            def behavior(js):
                ran.append(name)
                js.include_script(behavior=lambda _js: ran.append(name + "+"))
                if later:
                    js.set_timeout(lambda j: j.include_script(
                        behavior=step(*later)), 0.1)
            return behavior

        page.add_script(Script.inline(behavior=step("a", ("c", ("e",)))))
        page.add_script(Script.inline(behavior=step("b")))
        assert page.run_scripts() == 8
        assert ran == ["a", "b", "a+", "b+", "c", "c+", "e", "e+"]


class TestBrowser:
    def test_visit_sends_document_request(self):
        browser = Browser()
        page = browser.visit("https://site.com/")
        assert page.network.requests[0].resource_type is ResourceType.DOCUMENT

    def test_markup_scripts_fetched(self):
        browser = Browser()
        page = browser.visit("https://site.com/", scripts=[
            Script.external("https://cdn.lib.com/lib.js")])
        script_fetches = [r for r in page.network.requests
                          if r.resource_type is ResourceType.SCRIPT]
        assert [r.url.host for r in script_fetches] == ["cdn.lib.com"]

    def test_server_registration(self):
        browser = Browser()
        browser.register_server("site.com", lambda req: Response(
            url=req.url, status=201))
        page = browser.visit("https://www.site.com/")
        assert page.network.responses[0].status == 201

    def test_server_cname_following(self):
        browser = Browser()
        browser.resolver.add_cname_cloak("metrics.site.com", "c.tracker.io")
        hits = []

        def tracker_server(request):
            hits.append(request.url.host)
            return Response(url=request.url)

        browser.register_server("tracker.io", tracker_server)
        page = browser.visit("https://site.com/")
        page.network.fetch("https://metrics.site.com/px")
        assert hits == ["metrics.site.com"]

    def test_profile_shared_across_visits(self):
        browser = Browser()
        page1 = browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.set_cookie("a=1"))])
        page2 = browser.visit("https://site.com/")
        seen = []
        page2.add_script(Script.inline(
            behavior=lambda js: seen.append(js.get_cookie())))
        page2.run_scripts()
        assert seen == ["a=1"]

    def test_clear_profile(self):
        browser = Browser()
        browser.visit("https://site.com/", scripts=[
            Script.inline(behavior=lambda js: js.set_cookie("a=1"))])
        browser.clear_profile()
        assert len(browser.jar) == 0

    def test_extension_install_uninstall(self):
        class Dummy:
            name = "dummy"
            pages = []

            def on_page_created(self, page, browser):
                self.pages.append(page)

        browser = Browser()
        extension = Dummy()
        browser.install(extension)
        browser.visit("https://site.com/")
        assert len(extension.pages) == 1
        browser.uninstall("dummy")
        browser.visit("https://site.com/")
        assert len(extension.pages) == 1

    def test_site_domain_helper(self):
        assert Browser().site_domain("https://www.example.co.uk/x") == "example.co.uk"
