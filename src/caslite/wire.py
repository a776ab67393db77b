"""Length-prefixed request/response protocol shared by every service.

Each message is a 4-byte big-endian length followed by one canonical-form
JSON document. Requests carry ``{kind, payload}`` plus an optional ``chain``;
responses carry ``{ok, body}`` or ``{ok, error: {code, message}}``.
Connections are persistent: :func:`call` keeps one open socket per endpoint
and calling thread and reuses it, and servers answer any number of requests
per connection, answering malformed frames with an error response rather
than dropping dead.

A service that remembers checks of presented documents takes its requests
in from the bytes that arrived: the presented chain or assertion is cut out
of the frame as its byte span, and only the rest of the frame is parsed. The
cut rests on how canonical maps compose: a map's canonical bytes are its
keys' ``"key":value`` fragments in sorted order, so a frame is canonical
exactly when the frame with a placeholder in the span's place is canonical
and the span is. The span is guessed, from the first ``"key":`` of its
place's last key to the required key that follows it, and taken only
when that ``"key":`` occurs nowhere else, the rest parses as canonical with
a value at the place (which can then only be the placeholder), and the span
is bytes the service's memo knows or parses as canonical itself. A
remembered span is neither decoded nor encoded. A frame that cannot be cut
so, a wrong guess included, is parsed whole and its presented document
handed on as a map, so every frame gets the answer a service without a memo
gives. The memo encodes such a map to key it, and a canonical frame's
document encodes to exactly its span, so both intakes key a document alike.
"""

from __future__ import annotations

import argparse
import logging
import signal
import socket
import socketserver
import struct
import sys
import threading
import time
from typing import Any, Callable

from .canonical import Encoded, canonical_json, parse_canonical
from .errors import CasliteError, FrameError, MalformedMessage, ResponseTooLarge, ServerError
from .keys import CheckedMemo, Received

logger = logging.getLogger(__name__)

MAX_FRAME = 8 * 1024 * 1024
MAX_CONNECTIONS = 64
IDLE_TIMEOUT = 30.0
FRAME_DEADLINE = 10.0

# Kinds that change nothing, so a request whose reused connection was closed
# before any byte of the answer came back may be sent again.
RETRYABLE_KINDS = frozenset({"ping", "query", "decide", "read", "list"})

Endpoint = tuple[str, int]

_OK_HEAD, _OK_TAIL = b'{"body":', b',"ok":true}'

# Where a presented document sits in a request frame: the keys that lead to
# it, and the key that follows it in its map, one its readers require. A
# caller's chain is the first key of the request, before ``kind``.
Place = tuple[tuple[str, ...], str]
CHAIN = (("chain",), "kind")


def parse_endpoint(text: str) -> Endpoint:
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise MalformedMessage(f"endpoint must be HOST:PORT, got {text!r}")
    return host, int(port)


def format_endpoint(endpoint: Endpoint) -> str:
    return f"{endpoint[0]}:{endpoint[1]}"


def write_frame(sock: socket.socket, doc: Any) -> None:
    """Send ``doc`` as one frame. The header and the document's chunks go out
    through one ``sendmsg`` loop; a frame over ``MAX_FRAME`` sends nothing.
    As with ``sendall``, the socket's timeout bounds the whole send, not
    each call."""
    chunks = doc.chunks if isinstance(doc, Encoded) else (canonical_json(doc),)
    size = sum(map(len, chunks))
    if size > MAX_FRAME:
        raise FrameError(f"frame of {size} bytes exceeds the limit", recoverable=False)
    buffers = [struct.pack(">I", size), *chunks]
    timeout = sock.gettimeout()
    started = time.monotonic()
    try:
        while True:
            sent = sock.sendmsg(buffers)
            while buffers and sent >= len(buffers[0]):
                sent -= len(buffers.pop(0))
            if not buffers:
                return
            buffers[0] = memoryview(buffers[0])[sent:]
            if timeout:
                remaining = started + timeout - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("timed out")
                sock.settimeout(remaining)
    finally:
        # Only a partly sent frame changed the timeout.
        if timeout and sock.gettimeout() != timeout:
            sock.settimeout(timeout)


def _fill(sock: socket.socket, view: memoryview, wait: float | None, deadline: float) -> None:
    """Fill ``view`` before ``deadline``, waiting at most ``wait`` seconds
    (None: no limit) for each read."""
    got = 0
    while got < len(view):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FrameError(f"frame not complete within {FRAME_DEADLINE} s", recoverable=False)
        sock.settimeout(remaining if wait is None else min(wait, remaining))
        try:
            received = sock.recv_into(view[got:])
        except TimeoutError:
            raise FrameError(f"frame not complete within {FRAME_DEADLINE} s",
                             recoverable=False) from None
        except ConnectionResetError:
            received = 0
        if not received:
            raise FrameError("connection closed mid-frame", recoverable=False)
        got += received


def _receive(sock: socket.socket) -> bytearray | None:
    """One frame's bytes; None on clean end of stream. The socket's timeout
    bounds the wait for a frame to start; once its first byte has arrived,
    the whole frame must follow within ``FRAME_DEADLINE`` seconds."""
    header = bytearray(4)
    got = sock.recv_into(header)
    if not got:
        return None
    wait = sock.gettimeout()
    deadline = time.monotonic() + FRAME_DEADLINE
    try:
        if got < 4:
            _fill(sock, memoryview(header)[got:], wait, deadline)
        (length,) = struct.unpack(">I", header)
        if length == 0 or length > MAX_FRAME:
            raise FrameError(f"bad frame length {length}", recoverable=False)
        data = bytearray(length)
        _fill(sock, memoryview(data), wait, deadline)
    finally:
        sock.settimeout(wait)
    return data


def _parse(data: bytes) -> Any:
    try:
        return parse_canonical(data)
    except MalformedMessage as exc:
        # The frame was consumed cleanly, so the stream stays usable.
        raise FrameError(str(exc), recoverable=True) from None


def read_frame(sock: socket.socket, raw: bool = False) -> Any | None:
    """Read one document; None on clean end of stream. Waits as
    :func:`_receive` does. With ``raw``, an ok answer's frame comes back as
    its bytes, unparsed."""
    data = _receive(sock)
    if data is None or raw and data.startswith(_OK_HEAD) and data.endswith(_OK_TAIL):
        return data
    return _parse(data)


def _holder(doc: Any, path: tuple[str, ...]) -> dict | None:
    """The map holding the value at ``path`` in ``doc``; None when ``path``
    does not lead through maps to a value."""
    for key in path[:-1]:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc if isinstance(doc, dict) and path[-1] in doc else None


# The calling thread's open connections: ``sockets`` maps an endpoint to
# (socket, time of its last answer).
_pool = threading.local()


class _Sockets(dict):
    """One thread's pooled sockets, closed when the thread ends."""

    def __del__(self) -> None:
        for sock, _ in self.values():
            sock.close()


def _checkout(endpoint: Endpoint, timeout: float) -> socket.socket | None:
    """Take this thread's open socket to ``endpoint`` out of the pool if it
    is fit for another request: idle for less than half the server's idle
    limit, not closed by the server, and with no stray bytes waiting."""
    entry = getattr(_pool, "sockets", {}).pop(endpoint, None)
    if entry is None:
        return None
    sock, last_answer = entry
    if time.monotonic() - last_answer < IDLE_TIMEOUT / 2:
        sock.setblocking(False)
        try:
            sock.recv(1, socket.MSG_PEEK)
        except BlockingIOError:
            sock.settimeout(timeout)
            return sock
        except OSError:
            pass
    sock.close()
    return None


def _exchange(sock: socket.socket, request: dict, raw: bool) -> Any | None:
    """Send ``request`` and read the answer; None when the connection was
    closed or reset before its first byte. ``sock`` is closed unless a
    whole answer came back."""
    try:
        write_frame(sock, request)
        try:
            response = read_frame(sock, raw)
        except FrameError as exc:
            raise ServerError("MalformedResponse", exc.message) from None
    except (ConnectionResetError, BrokenPipeError):
        response = None
    except BaseException:
        sock.close()
        raise
    if response is None:
        sock.close()
    return response


def call(
    endpoint: Endpoint | str,
    kind: str,
    payload: dict | None = None,
    chain: dict | None = None,
    timeout: float = 10.0,
    raw: bool = False,
) -> dict | memoryview:
    """One request/response exchange; returns the response body or raises
    :class:`ServerError` with the server's error code; with ``raw``, an ok
    body as the bytes that arrived, for the caller to check.

    The connection stays open for the calling thread's next call to the same
    endpoint. When a reused connection turns out to have been closed before
    any byte of the answer arrived, a request of a kind in
    ``RETRYABLE_KINDS`` is sent once more on a new connection; any other
    kind raises ``ConnectionLost``, because the server may have acted on it.
    """
    if isinstance(endpoint, str):
        endpoint = parse_endpoint(endpoint)
    request: dict[str, Any] = {"kind": kind, "payload": payload or {}}
    if chain is not None:
        request["chain"] = chain
    sock = _checkout(endpoint, timeout)
    response = None
    if sock is not None:
        response = _exchange(sock, request, raw)
        if response is None and kind in RETRYABLE_KINDS:
            sock = None
    if sock is None:
        sock = socket.create_connection(endpoint, timeout=timeout)
        response = _exchange(sock, request, raw)
    if response is None:
        raise ServerError("ConnectionLost", "connection closed before the answer arrived")
    answered = isinstance(response, bytearray)
    if not answered and (not isinstance(response, dict) or "ok" not in response):
        sock.close()
        raise ServerError("MalformedResponse", f"bad response document: {response!r}")
    if not hasattr(_pool, "sockets"):
        _pool.sockets = _Sockets()
    _pool.sockets[endpoint] = (sock, time.monotonic())
    if answered:
        return memoryview(response)[len(_OK_HEAD):-len(_OK_TAIL)]
    if response["ok"]:
        body = response.get("body")
        if not isinstance(body, dict):
            raise ServerError("MalformedResponse", "response body missing")
        return body
    error = response.get("error") or {}
    raise ServerError(str(error.get("code", "Internal")), str(error.get("message", "")))


def ok_response(body: dict | Encoded) -> dict | Encoded:
    if isinstance(body, Encoded):
        return Encoded((_OK_HEAD, *body.chunks, _OK_TAIL))
    return {"ok": True, "body": body}


def error_response(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class FrameServer:
    """Threaded TCP server running ``handler`` for each request document; every
    service is one, passing its own ``handle``. The listener is bound on
    construction, so ``endpoint`` is known before ``start``.

    The handler receives ``(kind, payload, chain_or_None)`` and returns the
    response body, a map or :class:`Encoded`; domain errors become error
    responses by code.

    A service that remembers checks of presented documents passes
    ``presented``: their place in its requests (such as :data:`CHAIN`) and
    its :class:`~caslite.keys.CheckedMemo`. Its handler gets the document
    there as :class:`~caslite.keys.Received` bytes when the frame is cut as
    the module docstring describes, and as a map when it is parsed whole.

    Each connection gets a thread that answers its requests in order until
    the client closes it, sends a frame that leaves the stream
    untrustworthy, or stays silent for ``IDLE_TIMEOUT`` seconds.
    Once a frame has started, all of it must arrive within
    ``FRAME_DEADLINE`` seconds, so a client that drips bytes cannot hold a
    thread. At most ``MAX_CONNECTIONS`` are open at once; a connection
    beyond that gets one ``Busy`` error response and is closed without
    starting a thread.

    ``stop`` closes the listener, then shuts the read side of every open
    connection: idle handlers see end of stream and close, and a handler
    in the middle of a request still writes its answer. No request read
    once ``stop`` has begun is answered. A server never started is stopped
    by closing its listener.
    """

    def __init__(self, listen: Endpoint, handler: Callable[[str, dict, Any], dict | Encoded],
                 presented: tuple[Place, CheckedMemo] | None = None):
        self._handler = handler
        self._presented = None
        if presented is not None:
            (path, follower), memo = presented
            self._presented = (path, b'"%s":' % path[-1].encode(),
                               b',"%s":' % follower.encode(), memo)
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._stopping = False
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                self.request.settimeout(IDLE_TIMEOUT)
                while True:
                    try:
                        data = _receive(self.request)
                        if data is None or outer._stopping:
                            return
                        doc = outer._take_in(data)
                    except FrameError as exc:
                        try:
                            write_frame(self.request, error_response(exc.code, exc.message))
                        except OSError:
                            return
                        if exc.recoverable:
                            continue
                        return
                    except OSError:
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
                    # An idle connection must not keep the last request and
                    # answer alive.
                    del data, doc, response

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

            def process_request(self, request, client_address) -> None:
                with outer._lock:
                    admitted = len(outer._connections) < MAX_CONNECTIONS
                    if admitted:
                        outer._connections.add(request)
                if admitted:
                    super().process_request(request, client_address)
                    return
                try:
                    write_frame(request, error_response(
                        "Busy", f"server holds its limit of {MAX_CONNECTIONS} connections"))
                except OSError:
                    pass
                self.shutdown_request(request)

            def shutdown_request(self, request) -> None:
                with outer._lock:
                    outer._connections.discard(request)
                super().shutdown_request(request)

        self._server = _Server(listen, _Handler)
        self._thread: threading.Thread | None = None

    def _take_in(self, data: bytearray) -> Any:
        """The request document in ``data``: cut, with its presented document
        as :class:`~caslite.keys.Received`, or else parsed whole."""
        doc = self._cut(data) if self._presented is not None else None
        return _parse(data) if doc is None else doc

    def _cut(self, data: bytearray) -> Any | None:
        """The request document with its presented document's span taken in
        unparsed when remembered; None when the frame cannot be cut."""
        path, lead, end, memo = self._presented
        start = data.find(lead)
        if start < 0:
            return None
        start += len(lead)
        stop = data.find(end, start)
        if stop < 0:
            return None
        # With the lead nowhere else, the rest holds at most one key of that
        # name, so a value at ``path`` is the placeholder after the lead.
        if data.find(lead, stop) >= 0:
            return None
        try:
            doc = parse_canonical(data[:start] + b"0" + data[stop:])
        except MalformedMessage:
            return None
        holder = _holder(doc, path)
        if holder is None:
            return None
        received = Received(data[start:stop])
        if not memo.knows(received.key):
            try:
                received.doc = parse_canonical(received.data)
            except MalformedMessage:
                return None
        holder[path[-1]] = received
        return doc

    def _dispatch(self, doc: Any) -> dict | Encoded:
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
        logger.info("%s listening on %s", type(self).__name__, format_endpoint(self.endpoint))

    def stop(self) -> None:
        self._stopping = True
        if self._thread is not None:
            # Waits for the serve loop to end, so only once one was started.
            self._server.shutdown()
        self._server.server_close()
        with self._lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        if self._thread is not None:
            self._thread.join(timeout=5)


def run_service(parser: argparse.ArgumentParser,
                build: Callable[[argparse.Namespace, Endpoint], Any],
                argv: list[str] | None) -> int:
    """Body of every service's ``main()``: add ``--listen`` to ``parser``,
    parse ``argv``, log to stderr and ``build(args, listen)`` the server,
    which loads every file the service reads. A domain error or ``OSError``
    there, such as a bad file or a listen address in use, ends the service
    with one ``error:`` line and exit code 1. Otherwise serve until SIGTERM
    or Ctrl-C, stop, and return 0. Logging and the SIGTERM handler come
    before the build, so neither its messages nor an early SIGTERM are lost."""
    parser.add_argument("--listen", required=True, help="HOST:PORT to listen on")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stopping.set())
    try:
        server = build(args, parse_endpoint(args.listen))
    except (CasliteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server.start()
    try:
        stopping.wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0
