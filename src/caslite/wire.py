"""Length-prefixed request/response protocol shared by every service.

Each message is a 4-byte big-endian length followed by one canonical-form
JSON document. Requests carry ``{kind, payload}`` plus an optional ``chain``;
responses carry ``{ok, body}`` or ``{ok, error: {code, message}}``. Clients
make one request per connection; servers tolerate several per connection and
answer malformed frames with an error response rather than dropping dead.
"""

from __future__ import annotations

import logging
import signal
import socket
import socketserver
import struct
import threading
from typing import Any, Callable

from .canonical import canonical_json, parse_canonical
from .errors import CasliteError, FrameError, MalformedMessage, ResponseTooLarge, ServerError

logger = logging.getLogger(__name__)

MAX_FRAME = 8 * 1024 * 1024
IDLE_TIMEOUT = 30.0

Endpoint = tuple[str, int]


def parse_endpoint(text: str) -> Endpoint:
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise MalformedMessage(f"endpoint must be HOST:PORT, got {text!r}")
    return host, int(port)


def format_endpoint(endpoint: Endpoint) -> str:
    return f"{endpoint[0]}:{endpoint[1]}"


def write_frame(sock: socket.socket, doc: Any) -> None:
    data = canonical_json(doc)
    if len(data) > MAX_FRAME:
        raise FrameError(f"frame of {len(data)} bytes exceeds the limit", recoverable=False)
    sock.sendall(struct.pack(">I", len(data)) + data)


def _read_exactly(sock: socket.socket, count: int) -> bytearray | None:
    """Fill ``count`` bytes; None on end of stream before the first byte."""
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        received = sock.recv_into(view[got:])
        if not received:
            if got == 0:
                return None
            raise FrameError("connection closed mid-frame", recoverable=False)
        got += received
    return buf


def read_frame(sock: socket.socket) -> Any | None:
    """Read one document; None on clean end of stream."""
    header = _read_exactly(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length == 0 or length > MAX_FRAME:
        raise FrameError(f"bad frame length {length}", recoverable=False)
    data = _read_exactly(sock, length)
    if data is None:
        raise FrameError("connection closed mid-frame", recoverable=False)
    try:
        return parse_canonical(data)
    except MalformedMessage as exc:
        # The frame was consumed cleanly, so the stream stays usable.
        raise FrameError(str(exc), recoverable=True) from None


def call(
    endpoint: Endpoint | str,
    kind: str,
    payload: dict | None = None,
    chain: dict | None = None,
    timeout: float = 10.0,
) -> dict:
    """One request/response exchange; returns the response body or raises
    :class:`ServerError` with the server's error code."""
    if isinstance(endpoint, str):
        endpoint = parse_endpoint(endpoint)
    request: dict[str, Any] = {"kind": kind, "payload": payload or {}}
    if chain is not None:
        request["chain"] = chain
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        write_frame(sock, request)
        response = read_frame(sock)
    if not isinstance(response, dict) or "ok" not in response:
        raise ServerError("MalformedResponse", f"bad response document: {response!r}")
    if response["ok"]:
        body = response.get("body")
        if not isinstance(body, dict):
            raise ServerError("MalformedResponse", "response body missing")
        return body
    error = response.get("error") or {}
    raise ServerError(str(error.get("code", "Internal")), str(error.get("message", "")))


def ok_response(body: dict) -> dict:
    return {"ok": True, "body": body}


def error_response(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class FrameServer:
    """Threaded TCP server running ``handler`` for each request document.

    The handler receives ``(kind, payload, chain_or_None)`` and returns the
    response body; domain errors become error responses by code. ``stop``
    shuts the accept loop down and lets in-flight handlers finish.
    """

    def __init__(self, listen: Endpoint, handler: Callable[[str, dict, Any], dict]):
        self._handler = handler
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                self.request.settimeout(IDLE_TIMEOUT)
                while True:
                    try:
                        doc = read_frame(self.request)
                    except FrameError as exc:
                        try:
                            write_frame(self.request, error_response(exc.code, exc.message))
                        except OSError:
                            return
                        if exc.recoverable:
                            continue
                        return
                    except (OSError, socket.timeout):
                        return
                    if doc is None:
                        return
                    response = outer._dispatch(doc)
                    try:
                        try:
                            write_frame(self.request, response)
                        except FrameError as exc:
                            # Nothing was sent, so the stream is still in step.
                            write_frame(self.request,
                                        error_response(ResponseTooLarge.code, exc.message))
                    except OSError:
                        return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server(listen, _Handler)
        self._thread: threading.Thread | None = None

    def _dispatch(self, doc: Any) -> dict:
        if not isinstance(doc, dict) or not {"kind", "payload"} <= set(doc) \
                or not set(doc) <= {"kind", "payload", "chain"}:
            return error_response("MalformedRequest", "request must carry kind and payload")
        kind, payload = doc["kind"], doc["payload"]
        if not isinstance(kind, str) or not isinstance(payload, dict):
            return error_response("MalformedRequest", "bad kind or payload type")
        try:
            body = self._handler(kind, payload, doc.get("chain"))
            return ok_response(body)
        except CasliteError as exc:
            return error_response(exc.code, exc.message)
        except Exception:
            logger.exception("unhandled error serving %s", kind)
            return error_response("Internal", "internal server error")

    @property
    def endpoint(self) -> Endpoint:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def run_service(make_server: Callable[[], Any]) -> int:
    """Body of every service's ``main()``: log to stderr, build the server,
    start it, serve until SIGTERM or Ctrl-C, then stop it. Returns the exit
    code, 0. Logging and the SIGTERM handler are set up before the server is
    built, so neither its start-up messages nor an early SIGTERM are lost."""
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stopping.set())
    server = make_server()
    server.start()
    try:
        stopping.wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0
