"""``python -m repro store-serve`` — the shard store's HTTP face.

A minimal S3-style blob service over a :class:`~repro.crawler.
storebackends.LocalDirectoryBackend`, built on the standard library's
``http.server`` like the rest of :mod:`repro.serve`.  Running it turns
one machine's shard-cache directory into a cluster-shared store:
``crawl --cache-dir http://host:port`` coordinators and
``crawl-shard --cache-dir http://host:port`` workers then read and
upload shards through :class:`~repro.crawler.storebackends.
HTTPStoreBackend`, and the coordinator only moves digests.

Protocol (all bodies are opaque bytes)::

    GET     /objects/<key>/<name>   -> 200 blob bytes | 404
    HEAD    /objects/<key>/<name>   -> 200 | 404
    PUT     /objects/<key>/<name>   -> 204 (atomic tmp+fsync+rename write)
    DELETE  /objects/<key>          -> 204 (evict whole entry; idempotent)
    GET     /healthz                -> 200 {"status": "ok"}  (liveness)
    GET     /readyz                 -> 200 {"status": "ready"} | 503
                                       (readiness: the store root is
                                       writable, so PUTs will land)

``/healthz`` answers as long as the process is up (liveness);
``/readyz`` additionally probes that the store root is writable
(readiness) — an orchestrator should route traffic on ``/readyz`` and
restart on ``/healthz``, so a store with a full or read-only disk is
drained instead of swallowing uploads into 500s.

For chaos testing, ``make_store_server(..., fault_plan=...)`` (or an
ambient :data:`repro.faults.FAULT_PLAN_ENV` plan) arms the
``http.response`` injection point: requests can deterministically
answer 503 (kind ``http-503``) or slam the connection without a status
line (kind ``close``), exercising the client's retry policy and its
connection-failure-is-never-a-miss contract.

The server stores blobs exactly where a local :class:`ShardStore`
would (``<root>/objects/<key[:2]>/<key>/<name>``), so a directory can
be used locally and served remotely interchangeably.  Trust lives in
the client: ``ShardStore`` re-hashes every fetched blob against the
digest its meta records, so a corrupted or tampered store costs a
re-crawl, never wrong bytes.  The server only validates names — keys
are lowercase-hex content addresses, blob names a conservative
charset — which keeps path traversal impossible.
"""

from __future__ import annotations

import json
import os
import re
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import unquote, urlsplit

from ..crawler.storebackends import LocalDirectoryBackend
from ..faults import FaultPlan, active_plan

__all__ = ["ShardStoreHandler", "make_store_server", "serve_store"]

#: Cache keys are sha256 hexdigests; accept shorter hex for forward
#: compatibility but nothing outside lowercase hex.
_KEY_RE = re.compile(r"[0-9a-f]{6,64}")
#: Blob names: the conservative charset ShardStore actually uses
#: (``meta.json``, ``shard.jsonl[.gz]``).  No separators, no leading
#: dot — traversal is unexpressible.
_NAME_RE = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}")

#: Uploads larger than this are refused outright (a shard blob is
#: shard-sized; a multi-GB PUT is a client bug or abuse).
MAX_BLOB_BYTES = 1 << 30


class ShardStoreHandler(BaseHTTPRequestHandler):
    """Routes blob requests onto the server's directory backend."""

    server_version = "repro-store/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes; with Nagle's algorithm on,
    # a keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    @property
    def backend(self) -> LocalDirectoryBackend:
        return self.server.backend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _inject_fault(self) -> bool:
        """Evaluate the ``http.response`` point; True when handled.

        Scope is the HTTP method, so GETs and PUTs pace independent
        deterministic streams.  ``close`` slams the socket without a
        status line — the client sees exactly what a crashed server
        looks like (BadStatusLine / connection reset mid-exchange).
        """
        plan = getattr(self.server, "fault_plan", None) or active_plan()
        if plan is None:
            return False
        point = plan.fires("http.response", scope=self.command)
        if point is None:
            return False
        self.close_connection = True
        if point.kind == "close":
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return True
        self._respond(503, b"injected fault\n")
        return True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self._inject_fault():
            return
        self._serve_blob(send_body=True)

    def do_HEAD(self) -> None:  # noqa: N802
        if self._inject_fault():
            return
        self._serve_blob(send_body=False)

    def do_PUT(self) -> None:  # noqa: N802
        if self._inject_fault():
            return
        target = self._blob_target()
        if target is None:
            return
        key, name = target
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._respond(411, b"length required\n")
            return
        if not 0 <= length <= MAX_BLOB_BYTES:
            self._respond(413, b"blob too large\n")
            return
        data = self.rfile.read(length)
        if len(data) != length:
            # Torn upload: the client died mid-body.  Nothing is
            # written, so the entry stays publishable-later.
            self._respond(400, b"truncated body\n")
            return
        self.backend.put(key, {name: data})
        self._respond(204)

    def do_DELETE(self) -> None:  # noqa: N802
        if self._inject_fault():
            return
        parts = self._path_parts()
        if (len(parts) == 2 and parts[0] == "objects"
                and _KEY_RE.fullmatch(parts[1])):
            self.backend.evict(parts[1])
            self._respond(204)
            return
        self._respond(404, b"no such resource\n")

    # ------------------------------------------------------------------
    def _path_parts(self) -> list:
        return [unquote(p) for p in urlsplit(self.path).path.split("/")
                if p]

    def _blob_target(self) -> Optional[Tuple[str, str]]:
        """Parse and validate ``/objects/<key>/<name>``; 404 otherwise."""
        parts = self._path_parts()
        if (len(parts) == 3 and parts[0] == "objects"
                and _KEY_RE.fullmatch(parts[1])
                and _NAME_RE.fullmatch(parts[2])):
            return parts[1], parts[2]
        self._respond(404, b"no such resource\n")
        return None

    def _serve_blob(self, send_body: bool) -> None:
        parts = self._path_parts()
        if parts == ["healthz"]:
            body = (json.dumps({"status": "ok"}) + "\n").encode("utf-8")
            self._respond(200, body if send_body else b"",
                          content_length=len(body))
            return
        if parts == ["readyz"]:
            self._serve_readyz(send_body)
            return
        target = self._blob_target()
        if target is None:
            return
        data = self.backend.get(*target)
        if data is None:
            self._respond(404, b"no such blob\n" if send_body else b"")
            return
        self._respond(200, data if send_body else b"",
                      content_length=len(data))

    def _serve_readyz(self, send_body: bool) -> None:
        """Readiness: distinct from liveness — can this store take PUTs?

        Probes the root with a real write + fsync + unlink, the same
        I/O path an upload commits through.  A full or read-only disk
        answers 503 so an orchestrator drains this replica while
        ``/healthz`` keeps reporting the process itself alive.
        """
        probe = self.backend.root / ".readyz-probe"
        try:
            with open(probe, "wb") as handle:
                handle.write(b"ready\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.unlink(probe)
        except OSError as exc:
            body = (json.dumps({"status": "unavailable",
                                "error": type(exc).__name__}) +
                    "\n").encode("utf-8")
            self._respond(503, body if send_body else b"",
                          content_length=len(body))
            return
        body = (json.dumps({"status": "ready"}) + "\n").encode("utf-8")
        self._respond(200, body if send_body else b"",
                      content_length=len(body))

    def _respond(self, status: int, body: bytes = b"",
                 content_length: Optional[int] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length",
                         str(content_length if content_length is not None
                             else len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)


def make_store_server(root: Union[str, Path], host: str = "127.0.0.1",
                      port: int = 8412, verbose: bool = False,
                      fault_plan: Optional[FaultPlan] = None
                      ) -> ThreadingHTTPServer:
    """Build (but don't start) the store server; port 0 picks a free one.

    ``fault_plan`` arms the ``http.response`` injection point for this
    server only; without it an ambient :data:`repro.faults.
    FAULT_PLAN_ENV` plan (if any) applies.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    server = ThreadingHTTPServer((host, port), ShardStoreHandler)
    server.backend = LocalDirectoryBackend(root)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.fault_plan = fault_plan  # type: ignore[attr-defined]
    return server


def serve_store(root: Union[str, Path], host: str = "127.0.0.1",
                port: int = 8412, verbose: bool = False) -> None:
    """Serve ``root`` until interrupted (the CLI entry point)."""
    server = make_store_server(root, host, port, verbose=verbose)
    address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(f"store-serve: sharing {Path(root).resolve()} at {address} "
          f"(Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
