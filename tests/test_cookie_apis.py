"""document.cookie and CookieStore APIs, including extension wrapping."""

import pytest

from repro.browser.cookiestore import CookieStore, NotSecureContext
from repro.browser.document_cookie import DocumentCookie
from repro.browser.events import Clock, EventLoop
from repro.cookies.jar import CookieJar
from repro.net.url import parse_url

HTTPS = parse_url("https://example.com/")
HTTP = parse_url("http://example.com/")


@pytest.fixture
def env():
    jar = CookieJar()
    clock = Clock()
    loop = EventLoop(clock)
    return jar, clock, loop


class TestDocumentCookie:
    def test_set_then_get(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.set("a=1; Path=/")
        assert api.get() == "a=1"

    def test_get_joins_with_semicolons(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.set("a=1")
        api.set("b=2")
        assert api.get() == "a=1; b=2"

    def test_script_write_is_not_http(self, env):
        jar, clock, _loop = env
        DocumentCookie(jar, HTTPS, clock).set("a=1")
        assert not jar.get("a", "example.com").from_http

    def test_httponly_invisible(self, env):
        jar, clock, _loop = env
        jar.set_from_header("sid=s; HttpOnly", HTTPS)
        api = DocumentCookie(jar, HTTPS, clock)
        assert api.get() == ""

    def test_delete_via_max_age_zero(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.set("a=1")
        change = api.set("a=; Max-Age=0")
        assert change.kind == "delete"
        assert api.get() == ""

    def test_wrapping_getter(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.set("secret=x")
        api.wrap(getter=lambda prev: (lambda: "FILTERED"))
        assert api.get() == "FILTERED"

    def test_wrapping_composes_in_order(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.set("a=1")
        calls = []

        def wrap_one(prev):
            def inner():
                calls.append("inner")
                return prev()
            return inner

        def wrap_two(prev):
            def outer():
                calls.append("outer")
                return prev()
            return outer

        api.wrap(getter=wrap_one)
        api.wrap(getter=wrap_two)  # installed last => outermost
        api.get()
        assert calls == ["outer", "inner"]

    def test_setter_wrapper_can_block(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)

        def deny(prev):
            return lambda raw: None

        api.wrap(setter=deny)
        assert api.set("a=1") is None
        assert len(jar) == 0

    def test_unwrap_all(self, env):
        jar, clock, _loop = env
        api = DocumentCookie(jar, HTTPS, clock)
        api.wrap(getter=lambda prev: (lambda: "X"))
        api.unwrap_all()
        api.set("a=1")
        assert api.get() == "a=1"


class TestCookieStore:
    def test_requires_secure_context(self, env):
        jar, clock, loop = env
        with pytest.raises(NotSecureContext):
            CookieStore(jar, HTTP, clock, loop)

    def test_set_and_get(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("k", "v")
        promise = store.get("k")
        loop.run_until_idle()
        item = promise.result()
        assert item.name == "k"
        assert item.value == "v"
        assert item.secure  # cookieStore writes are always Secure

    def test_get_missing_resolves_none(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        promise = store.get("missing")
        loop.run_until_idle()
        assert promise.result() is None

    def test_get_all(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1")
        store.set("b", "2")
        promise = store.get_all()
        loop.run_until_idle()
        assert {i.name for i in promise.result()} == {"a", "b"}

    def test_delete(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1")
        store.delete("a")
        promise = store.get("a")
        loop.run_until_idle()
        assert promise.result() is None

    def test_expires_option(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1", expires=100.0)
        assert jar.get("a", "example.com").expires == 100.0

    def test_foreign_domain_rejected(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        promise = store.set("a", "1", domain="other.com")
        loop.run_until_idle()
        with pytest.raises(ValueError):
            promise.result()

    def test_mutation_applies_synchronously_for_attribution(self, env):
        # The write hits the jar at call time (wrappers and stack
        # attribution need the caller's frame), even though the promise
        # resolves later.
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1")
        assert jar.get("a", "example.com") is not None

    def test_wrapping_get_all_filters(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("mine", "1")
        store.set("theirs", "2")

        def only_mine(prev):
            return lambda: [i for i in prev() if i.name == "mine"]

        store.wrap(get_all=only_mine)
        promise = store.get_all()
        loop.run_until_idle()
        assert [i.name for i in promise.result()] == ["mine"]

    def test_wrapping_set_can_block(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.wrap(set=lambda prev: (lambda n, v, o: None))
        store.set("a", "1")
        assert jar.get("a", "example.com") is None

    def test_cookie_list_item_domain_none_for_host_only(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1")
        promise = store.get("a")
        loop.run_until_idle()
        assert promise.result().domain is None

    def test_cookie_list_item_domain_set(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, HTTPS, clock, loop)
        store.set("a", "1", domain="example.com")
        promise = store.get("a")
        loop.run_until_idle()
        assert promise.result().domain == "example.com"


class TestCookieStoreDomainOption:
    """The ``domain`` option names the cookie a ``Domain`` attribute would."""

    WWW = parse_url("https://www.example.com/")

    def test_set_shares_identity_with_the_header_path(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, self.WWW, clock, loop)
        api = DocumentCookie(jar, self.WWW, clock)
        store.set("x", "1", domain="Example.com")
        api.set("x=2; Domain=example.com")
        assert api.get() == "x=2"
        assert [c.domain for c in jar.find("x")] == ["example.com"]

    def test_delete_matches_any_case_and_edge_dots(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, self.WWW, clock, loop)
        for spelled in ("EXAMPLE.com", ".example.com", "example.com."):
            DocumentCookie(jar, self.WWW, clock).set(
                "x=1; Domain=example.com")
            store.delete("x", domain=spelled)
            assert jar.find("x") == [], spelled

    def test_foreign_check_uses_the_canonical_domain(self, env):
        jar, clock, loop = env
        store = CookieStore(jar, self.WWW, clock, loop)
        store.set("ok", "1", domain="WWW.Example.COM.")
        rejected = store.set("bad", "1", domain="Other.com")
        loop.run_until_idle()
        with pytest.raises(ValueError):
            rejected.result()
        assert jar.get("ok", "www.example.com") is not None
        assert jar.find("bad") == []
