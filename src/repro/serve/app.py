"""The stdlib HTTP front-end for the study catalog.

Routing, conditional-request handling, and JSON rendering live here;
all data access goes through :class:`~repro.serve.catalog.StudyCatalog`
and the report-query registry.  Built on ``http.server`` only — the
serving layer adds no runtime dependencies, like the rest of the repo.

Response bodies are rendered canonically (sorted keys, compact
separators, trailing newline) so a strong ETag really does imply
byte-identical bytes across restarts and replicas.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..crawler.storage import ManifestError
from .catalog import StudyCatalog, StudyEntry
from .etag import etag_matches, quote_etag, resource_etag
from .queries import QueryError, get_query, iter_queries, parse_params

__all__ = ["ServeError", "StudyCatalogHandler", "make_server", "serve"]

CACHE_CONTROL = "public, max-age=0, must-revalidate"


class ServeError(Exception):
    """An HTTP-status-carrying error raised during request handling."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def render_json(payload: object) -> bytes:
    """Canonical response rendering: one byte sequence per value."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


class StudyCatalogHandler(BaseHTTPRequestHandler):
    """Routes GET/HEAD requests over a :class:`StudyCatalog`.

    The catalog instance is attached to the *server* (see
    :func:`make_server`), so one catalog — with its memoized studies and
    parsed shard indexes — is shared by every handler thread.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes; with Nagle's algorithm on,
    # a keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    @property
    def catalog(self) -> StudyCatalog:
        return self.server.catalog  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle(send_body=True)

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle(send_body=False)

    def _handle(self, send_body: bool) -> None:
        try:
            etag, body = self._dispatch()
        except ServeError as exc:
            self._send_error(exc.status, exc.message, send_body)
            return
        except Exception as exc:  # noqa: BLE001 — survive handler bugs
            self._send_error(500, f"internal error: {exc}", send_body)
            return
        if self._not_modified(etag):
            # No Content-Length: a 304 may only carry the length of the
            # 200 body, which a revalidation answered unread never knew.
            self.send_response(304)
            self.send_header("ETag", quote_etag(etag))
            self.send_header("Cache-Control", CACHE_CONTROL)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("ETag", quote_etag(etag))
        self.send_header("Cache-Control", CACHE_CONTROL)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if send_body:
            self.wfile.write(body)

    def _send_error(self, status: int, message: str,
                    send_body: bool) -> None:
        body = render_json({"error": message, "status": status})
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if send_body:
            self.wfile.write(body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dispatch(self) -> Tuple[str, bytes]:
        """Resolve the request to ``(etag, canonical body bytes)``.

        A site or report request whose ``If-None-Match`` matches its
        ETag resolves to ``(etag, b"")`` before any row group is read;
        a site's only when the study's shard indexes list its rank, so
        a rank the study lacks still answers 404.
        """
        split = urlsplit(self.path)
        raw_params = parse_qs(split.query, keep_blank_values=True)
        parts = [unquote(p) for p in split.path.split("/") if p]

        if parts in ([], ["studies"]):
            self._reject_params(raw_params)
            self.catalog.refresh()
            payload = {"studies": self.catalog.listing()}
            etag = resource_etag(self.catalog.etag(), "/studies")
            return etag, render_json(payload)

        if parts[0] != "studies":
            raise ServeError(404, f"no such resource {split.path!r}")

        entry = self._entry(parts[1])
        try:
            return self._study_dispatch(entry, parts[2:], raw_params,
                                        split.path)
        except ManifestError:
            if entry.is_current():
                raise
        # The study's shards were rewritten under this entry: answer
        # once from the entry the catalog rebuilds.
        self.catalog.refresh()
        return self._study_dispatch(self._entry(parts[1]), parts[2:],
                                    raw_params, split.path)

    def _study_dispatch(self, entry: StudyEntry, rest: List[str],
                        raw_params: Dict, path: str) -> Tuple[str, bytes]:
        """Resolve a request under ``/studies/<id>`` against ``entry``."""
        if not rest:
            self._reject_params(raw_params)
            payload = dict(entry.summary())
            payload["reports"] = [q.name for q in iter_queries()]
            return self._resource(entry, f"/studies/{entry.id}", payload)

        if rest == ["shards"]:
            self._reject_params(raw_params)
            return self._resource(entry, f"/studies/{entry.id}/shards",
                                  {"shards": entry.shards()})

        if len(rest) == 2 and rest[0] == "sites":
            self._reject_params(raw_params)
            try:
                rank = int(rest[1])
            except ValueError:
                raise ServeError(
                    400, f"site rank must be an integer, got {rest[1]!r}"
                ) from None
            etag = resource_etag(entry.etag,
                                 f"/studies/{entry.id}/sites/{rank}")
            if self._not_modified(etag) and entry.lists_site(rank):
                return etag, b""
            try:
                payload = entry.site_dict(rank)
            except KeyError:
                raise ServeError(
                    404, f"study {entry.id!r} has no site with rank {rank}"
                ) from None
            return etag, render_json(payload)

        if rest == ["reports"]:
            self._reject_params(raw_params)
            payload = {"reports": [q.describe() for q in iter_queries()]}
            return self._resource(entry, f"/studies/{entry.id}/reports",
                                  payload)

        if len(rest) == 2 and rest[0] == "reports":
            try:
                query = get_query(rest[1])
            except KeyError as exc:
                raise ServeError(404, str(exc)) from None
            try:
                params = parse_params(query, raw_params)
            except QueryError as exc:
                raise ServeError(400, str(exc)) from None
            path = f"/studies/{entry.id}/reports/{query.name}"
            etag = resource_etag(entry.etag, path, params)
            if self._not_modified(etag):
                return etag, b""
            payload = {"study": entry.id, "report": query.name,
                       "params": params,
                       "result": query.run(entry, params)}
            return etag, render_json(payload)

        raise ServeError(404, f"no such resource {path!r}")

    # ------------------------------------------------------------------
    def _entry(self, study_id: str) -> StudyEntry:
        try:
            return self.catalog.get(study_id)
        except KeyError:
            self.catalog.refresh()
        try:
            return self.catalog.get(study_id)
        except KeyError:
            raise ServeError(
                404, f"no study {study_id!r} "
                     f"(known: {self.catalog.study_ids() or 'none'})"
            ) from None

    def _resource(self, entry: StudyEntry, path: str,
                  payload: object) -> Tuple[str, bytes]:
        return resource_etag(entry.etag, path), render_json(payload)

    def _not_modified(self, etag: str) -> bool:
        return etag_matches(self.headers.get("If-None-Match"), etag)

    @staticmethod
    def _reject_params(raw_params: Dict) -> None:
        if raw_params:
            names = ", ".join(map(repr, sorted(raw_params)))
            raise ServeError(
                400, f"this resource takes no query parameters (got {names})")


def make_server(root: Union[str, Path], host: str = "127.0.0.1",
                port: int = 0, *,
                verbose: bool = False) -> ThreadingHTTPServer:
    """A ready-to-run server over the studies under ``root``.

    ``port=0`` binds an ephemeral port (see ``server.server_address``),
    which is what the tests and the CI smoke check use.
    """
    server = ThreadingHTTPServer((host, port), StudyCatalogHandler)
    server.catalog = StudyCatalog(root)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(root: Union[str, Path], host: str = "127.0.0.1",
          port: int = 8311) -> None:
    """Run the catalog service until interrupted (the CLI entry point)."""
    server = make_server(root, host, port, verbose=True)
    bound_host, bound_port = server.server_address[:2]
    n = len(server.catalog.study_ids())  # type: ignore[attr-defined]
    print(f"serving {n} study(ies) from {Path(root).resolve()} "
          f"on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
