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

Every GET, the ``/v1/metricsz`` scrape included, goes through
:meth:`MapService.handle`, the single request path the in-process
replay and the chaos harness share: it parses, validates, admits, maps
refusals to their status, times, identifies and observes the request,
makes the chaos client-disconnect draw, and returns the body already
encoded with its content type. The handler is transport only: it
passes the inbound ``X-Request-Id`` header, then either writes
``reply.body`` as is or, on a simulated disconnect, closes the
connection without a body. The request-line and header parse before
``handle`` and the socket write after it are outside the recorded
latency.

Every response also carries an ``X-Request-Id`` header (the inbound
header value when the client sent one, a fresh sequential id drawn by
``handle`` otherwise); the same id lands in the JSONL access log when
one is attached, so a slow response can be joined to its log record.

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
from typing import Optional

from .service import JSON_CONTENT_TYPE, MapService


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
                 request_timeout: float = 10.0) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.request_timeout = float(request_timeout)


def serve_http(service: MapService, host: str = "127.0.0.1",
               port: int = 0,
               request_timeout: float = 10.0) -> QueryServer:
    """Bind a :class:`QueryServer` (``port=0`` picks a free port; the
    bound port is ``server.server_port``). The caller drives it with
    ``serve_forever()`` or ``handle_request()``."""
    return QueryServer((host, port), service,
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
        # Silent: MapService.handle observes every request (telemetry
        # and access log), so the stdlib's stderr lines add nothing.
        pass

    def log_error(self, fmt, *args):  # noqa: D102 - stdlib override
        # handle_one_request swallows socket timeouts after logging
        # them here; count the abort instead of dropping it silently.
        if args and isinstance(args[0], TimeoutError):
            self.server.service._recorder.count("serve.http.timeouts")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service: MapService = self.server.service
        # An inbound X-Request-Id wins, so a caller can thread its own
        # correlation id through; otherwise handle draws a req-<n>.
        try:
            reply = service.handle(self.path,
                                   self.headers.get("X-Request-Id") or None)
        except Exception as exc:
            # A bug: handle has already observed it as a 500.
            body = json.dumps({"error": f"internal error: {exc}"})
            self._send_bytes(500, body.encode(), JSON_CONTENT_TYPE,
                             service.digest,
                             request_id=getattr(exc, "request_id", None))
            return
        if reply.disconnected:
            # The simulated client went away before the body: abort the
            # response and tear the connection down, exactly the failure
            # a real disconnect leaves behind.
            service._recorder.count("serve.http.client_disconnects")
            self.close_connection = True
            return
        self._send_bytes(reply.status, reply.body, reply.content_type,
                         reply.digest, retry_after=reply.retry_after,
                         request_id=reply.request_id)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # The request body is never read, so the connection cannot be
        # reused: the stdlib would parse that body as the next request.
        self.close_connection = True
        body = json.dumps({"error": "only GET is supported"}).encode()
        self._send_bytes(405, body, JSON_CONTENT_TYPE,
                         self.server.service.digest)

    do_PUT = do_DELETE = do_PATCH = do_POST

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
