"""Page-level network layer with initiator attribution.

Every outbound request records the live JS call stack's script URLs,
reproducing the Chrome Debugger Protocol's ``Network.requestWillBeSent``
initiator stacks that the paper uses to "connect network activity (e.g.,
exfiltration) to prior cookie accesses" (§4.1).  ``Set-Cookie`` response
headers are applied to the jar exactly as a browser would, and both
request and response events fan out to extension listeners
(``webRequest.onHeadersReceived`` etc.).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cookies.jar import CookieJar
from ..cookies.serialize import to_cookie_string
from ..net.headers import Headers
from ..net.http import Request, Response, ResourceType
from ..net.url import URL, encode_qs, parse_url
from .events import Clock
from .stack import CallStack

__all__ = ["NetworkManager", "Transport"]

# A transport resolves a Request into a Response ("the internet").
Transport = Callable[[Request], Response]


def _default_transport(request: Request) -> Response:
    """A void internet: every request succeeds with an empty body."""
    return Response(url=request.url, status=200)


class NetworkManager:
    """Outbound networking for one page."""

    def __init__(self, page_url: URL, jar: CookieJar, clock: Clock,
                 stack: CallStack, transport: Optional[Transport] = None):
        self._page_url = page_url
        self._jar = jar
        self._clock = clock
        self._stack = stack
        self._transport = transport or _default_transport
        self.will_send_listeners: List[Callable[[Request], None]] = []
        self.headers_received_listeners: List[Callable[[Response, Request], None]] = []
        self.requests: List[Request] = []
        self.responses: List[Response] = []

    # -- core ---------------------------------------------------------------
    def request(self, url: URL, *, method: str = "GET",
                resource_type: ResourceType = ResourceType.OTHER,
                body: str = "", extra_headers: Optional[Headers] = None) -> Response:
        """Send a request, apply Set-Cookie, and fan out events."""
        now = self._clock.now()
        initiator = self._stack.attribute()
        headers = extra_headers.copy() if extra_headers else Headers()
        attached = self._jar.cookies_for_url(url, now=now)
        if attached:
            headers.set("cookie", to_cookie_string(attached))
        request = Request(
            url=url,
            method=method,
            resource_type=resource_type,
            headers=headers,
            initiator_url=initiator.url if initiator else None,
            initiator_stack=self._stack.attributed_urls(),
            frame_is_main=True,
            body=body,
        )
        self.requests.append(request)
        for listener in list(self.will_send_listeners):
            listener(request)

        response = self._transport(request)
        self.responses.append(response)
        for header in response.set_cookie_headers():
            self._jar.set_from_header(header, response.url, now=now, from_http=True)
        for listener in list(self.headers_received_listeners):
            listener(response, request)
        return response

    # -- conveniences mirroring web APIs --------------------------------------
    def fetch(self, url_or_str, *, method: str = "GET", body: str = "") -> Response:
        url = url_or_str if isinstance(url_or_str, URL) else parse_url(url_or_str, base=self._page_url)
        return self.request(url, method=method, resource_type=ResourceType.FETCH, body=body)

    def send_beacon(self, url_or_str, params: Optional[Dict[str, object]] = None,
                    body: str = "") -> Response:
        """``navigator.sendBeacon`` — the classic exfiltration channel."""
        url = url_or_str if isinstance(url_or_str, URL) else parse_url(url_or_str, base=self._page_url)
        if params:
            query = encode_qs(params)
            url = url.with_query(f"{url.query}&{query}" if url.query else query)
        return self.request(url, method="POST", resource_type=ResourceType.BEACON, body=body)

    def load_image(self, url_or_str, params: Optional[Dict[str, object]] = None) -> Response:
        """Tracking-pixel style GET with identifiers in the query string."""
        url = url_or_str if isinstance(url_or_str, URL) else parse_url(url_or_str, base=self._page_url)
        if params:
            query = encode_qs(params)
            url = url.with_query(f"{url.query}&{query}" if url.query else query)
        return self.request(url, resource_type=ResourceType.IMAGE)

    def xhr(self, url_or_str, *, method: str = "GET", body: str = "") -> Response:
        url = url_or_str if isinstance(url_or_str, URL) else parse_url(url_or_str, base=self._page_url)
        return self.request(url, method=method, resource_type=ResourceType.XHR, body=body)
