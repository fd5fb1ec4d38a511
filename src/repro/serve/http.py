"""HTTP transport for :class:`~repro.serve.service.MapService`.

Zero-dependency on purpose: a ``ThreadingHTTPServer`` with one GET
handler, so the serving layer stays cheap enough to sit next to the
measurement loop (the DIMES argument). All responses are JSON; errors
are ``{"error": ...}`` with the status carried by
:class:`~repro.serve.service.QueryError` (400 malformed parameters,
404 not covered by the map, 405 non-GET, 429 shed at the admission
gate — with a ``Retry-After`` header, 503 draining or not ready, 504
deadline expired, 500 bugs). Every response carries the served map's
digest in an ``X-Map-Digest`` header so a client can detect a hot swap
mid-session; on a query it is :attr:`Reply.digest`, the map that
produced the body.

Every request but the ``/v1/metricsz`` scrape (answered here, ungated)
goes through :meth:`MapService.handle`, the single request path the
in-process replay and the chaos harness share: it parses, validates,
admits and maps refusals to their status, and returns the body already
encoded (answers come out of the service's cache as bytes). The handler
is transport only: the chaos client-disconnect check, the write of
``reply.body`` as is, then observation.

Every response also carries an ``X-Request-Id`` header (the inbound
header value when the client sent one, a fresh sequential id
otherwise); the same id lands in the JSONL access log when one is
attached, so a slow response can be joined to its log record.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set, since the
headers and body go out in two writes and Nagle would hold the body
for the client's 40 ms delayed ACK; a non-GET answers 405 and closes
the connection, because its unread body would otherwise be parsed as
the next request.

Endpoint reference with parameters and response schemas:
``docs/serving.md``.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from ..obs.live import classify_status
from .service import (MapService, QueryError, Reply, _endpoint_label,
                      _single)


class QueryServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`MapService`.

    Handler threads are non-daemon and joined by ``server_close()``, so
    a bounded run (``--max-requests``) never cuts off an in-flight
    response at process exit; the per-connection socket timeout below
    bounds how long an idle keep-alive connection can delay that join.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, address, service: MapService,
                 quiet: bool = True,
                 request_timeout: float = 10.0) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        self.request_timeout = float(request_timeout)


def serve_http(service: MapService, host: str = "127.0.0.1",
               port: int = 0, quiet: bool = True,
               request_timeout: float = 10.0) -> QueryServer:
    """Bind a :class:`QueryServer` (``port=0`` picks a free port; the
    bound port is ``server.server_port``). The caller drives it with
    ``serve_forever()`` or ``handle_request()``."""
    return QueryServer((host, port), service, quiet=quiet,
                       request_timeout=request_timeout)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Idle keep-alive connections close after this many seconds; bounds
    # the server_close() join (see QueryServer). Overridden per server
    # by setup() from QueryServer.request_timeout (--request-timeout).
    timeout = 10
    # TCP_NODELAY on every accepted socket: a response leaves in two
    # writes (header block, then body), and on a keep-alive connection
    # Nagle holds the body until the client's delayed ACK (40 ms) of
    # the headers.
    disable_nagle_algorithm = True

    def setup(self) -> None:  # noqa: D102 - stdlib override
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, fmt, *args):  # noqa: D102 - stdlib override
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def log_error(self, fmt, *args):  # noqa: D102 - stdlib override
        # handle_one_request swallows socket timeouts after logging
        # them here; count the abort instead of dropping it silently.
        if args and isinstance(args[0], TimeoutError):
            self.server.service._recorder.count("serve.http.timeouts")
        self.log_message(fmt, *args)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service: MapService = self.server.service
        url = urlsplit(self.path)
        telemetry = service.telemetry
        # An inbound X-Request-Id wins, so a caller can thread its own
        # correlation id through; otherwise a sequential req-<n>.
        request_id = (self.headers.get("X-Request-Id")
                      or telemetry.next_request_id())
        if url.path == "/v1/metricsz":
            # The scrape observes the service without becoming part of
            # what it observes: it is never timed, logged or counted, so
            # a scrape taken after the last query exactly matches the
            # manifest flushed at shutdown.
            self._metricsz(service, url.query, request_id)
            return
        started = telemetry.now()
        disconnected = False
        try:
            reply = service.handle(self.path)
        except Exception as exc:  # pragma: no cover - bug surface
            body = json.dumps({"error": f"internal error: {exc}"})
            reply = Reply(500, body.encode(), _endpoint_label(url.path),
                          service.digest, answered=False)
        chaos = service.chaos
        if reply.answered and chaos is not None \
                and chaos.client_disconnect():
            # The simulated client went away before the body: abort the
            # response and tear the connection down, exactly the failure
            # a real disconnect leaves behind. The request still did the
            # work, so it is observed below with the status it computed.
            service._recorder.count("serve.http.client_disconnects")
            self.close_connection = True
            disconnected = True
        elapsed = max(0.0, telemetry.now() - started)
        if not disconnected:
            self._send_bytes(reply.status, reply.body,
                             "application/json", reply.digest,
                             retry_after=reply.retry_after,
                             request_id=request_id)
        telemetry.observe(reply.endpoint,
                          classify_status(reply.status), elapsed,
                          status=reply.status, path=url.path,
                          request_id=request_id, digest=reply.digest)

    def _metricsz(self, service: MapService, query: str,
                  request_id: Optional[str]) -> None:
        params = parse_qs(query, keep_blank_values=True)
        try:
            fmt = _single(params, "format")
        except QueryError as exc:
            self._send(exc.status, {"error": str(exc)}, service.digest,
                       request_id=request_id)
            return
        if fmt in (None, "text"):
            self._send_bytes(200, service.metrics_text().encode("utf-8"),
                             "text/plain; version=0.0.4; charset=utf-8",
                             service.digest, request_id=request_id)
        elif fmt == "json":
            self._send(200, service.metrics_snapshot(), service.digest,
                       request_id=request_id)
        else:
            self._send(400, {"error": f"unknown format {fmt!r} "
                                      "(expected text or json)"},
                       service.digest, request_id=request_id)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # The request body is never read, so the connection cannot be
        # reused: the stdlib would parse that body as the next request.
        self.close_connection = True
        self._send(405, {"error": "only GET is supported"},
                   self.server.service.digest)

    do_PUT = do_DELETE = do_PATCH = do_POST

    def _send(self, status: int, payload: Dict[str, Any],
              digest: str, request_id: Optional[str] = None) -> None:
        self._send_bytes(status, json.dumps(payload).encode(),
                         "application/json", digest,
                         request_id=request_id)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    digest: str, retry_after: Optional[float] = None,
                    request_id: Optional[str] = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Map-Digest", digest)
            if request_id is not None:
                self.send_header("X-Request-Id", request_id)
            if self.close_connection:
                # A 405, or a client that asked to close: say so.
                self.send_header("Connection", "close")
            if retry_after is not None:
                # Whole seconds, rounded up — never tell a client to
                # retry immediately into the same refill window.
                self.send_header("Retry-After",
                                 str(max(1, math.ceil(retry_after))))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The real client went away mid-response; account for it
            # rather than letting the handler thread die noisily.
            self.server.service._recorder.count(
                "serve.http.client_disconnects")
            self.close_connection = True
