"""The HTTP operational API: a polled, single-threaded stdlib server.

Every mesh endpoint serves one small route table (a ``GET`` per shard
view, its ``/mesh/*`` twin, plus admin POSTs; see
``repro.apps.tps.procmesh.install_routes``) over
:class:`http.server.HTTPServer` — no threads, no new dependencies.
The server never runs its own loop: the owning pump calls :meth:`poll`
once per tick, which handles at most one ready request on the caller's
thread.  Handlers therefore read broker state with the same
single-threaded safety as the control plane, and a node with no traffic
costs one zero-timeout ``select`` per tick.

Admin routes are guarded by a shared bearer token minted at mesh
construction; a request with a missing or wrong token is rejected with
401 and counted on :attr:`ObsHttpServer.unauthorized`.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

__all__ = ["HttpError", "ObsHttpServer", "json_body"]


class HttpError(Exception):
    """Raised by a route handler to produce a non-200 response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def json_body(body: bytes) -> dict:
    """Parse an admin POST body: empty means ``{}``, anything else must
    be a JSON object."""
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise HttpError(400, "body is not valid JSON")
    if not isinstance(parsed, dict):
        raise HttpError(400, "body must be a JSON object")
    return parsed


class _Handler(BaseHTTPRequestHandler):
    # Keep a slow/trickling client from wedging the pump loop forever.
    timeout = 5.0
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the pump loop is not a place for stderr chatter

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        api = self.server.api  # type: ignore[attr-defined]
        api.requests += 1
        parsed = urlparse(self.path)
        route = api.routes.get((method, parsed.path))
        if route is None:
            known = api.routes.get(("POST" if method == "GET" else "GET",
                                    parsed.path))
            if known is not None:
                self._respond(405, "text/plain; charset=utf-8",
                              b"method not allowed\n")
            else:
                self._respond(404, "text/plain; charset=utf-8",
                              b"no such route\n")
            return
        fn, needs_auth = route
        if needs_auth and not self._authorized(api):
            api.unauthorized += 1
            self._respond(401, "text/plain; charset=utf-8",
                          b"unauthorized\n")
            return
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        try:
            result = fn(query, body)
        except HttpError as error:
            self._respond(error.status, "text/plain; charset=utf-8",
                          (error.message + "\n").encode("utf-8"))
            return
        except Exception as error:  # a broken route must not kill the pump
            self._respond(500, "text/plain; charset=utf-8",
                          ("internal error: %r\n" % error).encode("utf-8"))
            return
        content_type, payload = _render(result)
        self._respond(200, content_type, payload)

    def _authorized(self, api: "ObsHttpServer") -> bool:
        if api.token is None:
            return False  # no token configured -> admin surface is sealed
        header = self.headers.get("Authorization") or ""
        return header == "Bearer " + api.token

    def _respond(self, status: int, content_type: str,
                 payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def _render(result: Any) -> Tuple[str, bytes]:
    """Route return value -> (content type, body).  A ``(type, bytes)``
    tuple passes through, ``str`` becomes text/plain, anything else is
    JSON."""
    if isinstance(result, tuple):
        content_type, payload = result
        return content_type, payload
    if isinstance(result, str):
        return "text/plain; charset=utf-8", result.encode("utf-8")
    return ("application/json",
            json.dumps(result, sort_keys=True).encode("utf-8"))


class _PollServer(HTTPServer):
    allow_reuse_address = True
    # timeout=0 turns handle_request() into "serve one ready request or
    # return immediately" — the polling contract the pump loop needs.
    timeout = 0

    def handle_timeout(self) -> None:
        pass


class ObsHttpServer:
    """One node's operational endpoint.

    Bind with port 0 to let the kernel pick; :attr:`address` is the
    ``http://host:port`` base URL to advertise.  Register routes with
    :meth:`route` (``auth=True`` for token-guarded admin operations),
    then call :meth:`poll` from the owner's pump loop.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None):
        self.token = token
        self.unauthorized = 0
        self.requests = 0
        self.routes: Dict[Tuple[str, str],
                          Tuple[Callable[[dict, bytes], Any], bool]] = {}
        self._server = _PollServer((host, port), _Handler)
        self._server.api = self  # type: ignore[attr-defined]

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return "http://%s:%d" % (host, port)

    def route(self, method: str, path: str,
              fn: Callable[[dict, bytes], Any],
              auth: bool = False) -> None:
        self.routes[(method, path)] = (fn, auth)

    def poll(self) -> None:
        """Handle at most one ready request; return immediately if none
        is waiting.  Runs the handler on the calling thread."""
        self._server.handle_request()

    def close(self) -> None:
        self._server.server_close()
