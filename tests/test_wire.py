"""Framing, the request envelope, and connection robustness."""

from __future__ import annotations

import gc
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest

from caslite import wire
from caslite.canonical import canonical_json
from caslite.credentials import chain_to_map
from caslite.errors import FrameError, MalformedMessage, ServerError

import oracles
from worldlib import stops_within


@pytest.fixture()
def echo_server():
    def handler(kind, payload, chain):
        if kind == "boom":
            raise MalformedMessage("told to fail")
        if kind == "crash":
            raise RuntimeError("unexpected")
        return {"kind": kind, "payload": payload, "had_chain": chain is not None}

    server = wire.FrameServer(("127.0.0.1", 0), handler)
    server.start()
    yield server
    server.stop()


def test_parse_endpoint():
    assert wire.parse_endpoint("localhost:8000") == ("localhost", 8000)
    with pytest.raises(MalformedMessage):
        wire.parse_endpoint("no-port")
    with pytest.raises(MalformedMessage):
        wire.parse_endpoint("host:notaport")


def test_round_trip(echo_server):
    body = wire.call(echo_server.endpoint, "hello", {"x": 1})
    assert body == {"kind": "hello", "payload": {"x": 1}, "had_chain": False}


def test_domain_error_maps_to_code(echo_server):
    with pytest.raises(ServerError) as info:
        wire.call(echo_server.endpoint, "boom", {})
    assert info.value.code == "MalformedMessage"


def test_unexpected_error_is_internal(echo_server):
    with pytest.raises(ServerError) as info:
        wire.call(echo_server.endpoint, "crash", {})
    assert info.value.code == "Internal"


def test_envelope_must_have_kind_and_payload(echo_server):
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        for request in ({"nope": 1}, {"kind": 1, "payload": {}}, {"kind": "x", "payload": []}):
            wire.write_frame(sock, request)
            response = wire.read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "MalformedRequest"


def test_malformed_frame_then_valid_request_same_connection(echo_server):
    """A bad document gets an error response and the connection stays usable."""
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        garbage = b'{"not": canonical  '
        sock.sendall(struct.pack(">I", len(garbage)) + garbage)
        response = wire.read_frame(sock)
        assert response["ok"] is False
        wire.write_frame(sock, {"kind": "hello", "payload": {}})
        response = wire.read_frame(sock)
        assert response["ok"] is True


def raw_frame(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


@pytest.mark.parametrize("data", oracles.CRASHED_REFERENCE.values(), ids=oracles.CRASHED_REFERENCE)
def test_unparseable_frame_is_a_recoverable_error(echo_server, data):
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        writer.sendall(raw_frame(data))
        with pytest.raises(FrameError) as info:
            wire.read_frame(reader)
        assert info.value.recoverable
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        sock.sendall(raw_frame(data))
        assert wire.read_frame(sock)["error"]["code"] == "MalformedRequest"
        wire.write_frame(sock, {"kind": "hello", "payload": {}})
        assert wire.read_frame(sock)["ok"] is True


def chunked(doc: dict, pieces: int) -> wire.Encoded:
    """``doc`` as Encoded, its chunks slices of its bytes."""
    data = canonical_json(doc)
    cuts = [len(data) * i // pieces for i in range(pieces + 1)]
    return wire.Encoded(tuple(memoryview(data)[a:b] for a, b in zip(cuts, cuts[1:])))


def test_encoded_response_goes_out_as_its_chunks():
    doc = {"blob": "é" * 1000, "n": [1, 2, 3]}
    response = wire.ok_response(chunked(doc, 3))
    expected = canonical_json({"ok": True, "body": doc})
    assert b"".join(response.chunks) == expected
    assert response.size == len(expected)


def test_oversized_chunked_frame_sends_nothing(monkeypatch):
    doc = {"blob": "x" * 4096}
    monkeypatch.setattr(wire, "MAX_FRAME", 1024)
    reader, writer = socket.socketpair()
    with reader, writer:
        with pytest.raises(FrameError):
            wire.write_frame(writer, chunked(doc, 4))
        reader.setblocking(False)
        with pytest.raises(BlockingIOError):
            reader.recv(1)

    server = wire.FrameServer(("127.0.0.1", 0), lambda kind, payload, chain:
                              chunked(doc, 4) if kind == "big" else {"pong": True})
    server.start()
    try:
        with socket.create_connection(server.endpoint, timeout=5) as sock:
            wire.write_frame(sock, {"kind": "big", "payload": {}})
            assert wire.read_frame(sock)["error"]["code"] == "ResponseTooLarge"
            wire.write_frame(sock, {"kind": "ping", "payload": {}})
            assert wire.read_frame(sock) == {"ok": True, "body": {"pong": True}}
    finally:
        server.stop()


class RecordingSocket(socket.socket):
    """A socket that records what each ``sendmsg`` call reports sent."""

    sent: list

    def sendmsg(self, buffers, *args):
        sent = super().sendmsg(buffers, *args)
        self.sent.append((sum(map(len, buffers)), sent))
        return sent


def test_chunked_frame_arrives_whole_through_partial_sends():
    doc = {"blob": "".join(chr(0x41 + i % 900) for i in range(300_000)), "tail": [True, 7]}
    left, reader = socket.socketpair()
    writer = RecordingSocket(left.family, left.type, left.proto, fileno=left.detach())
    writer.sent = []
    with writer, reader:
        writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        writer.settimeout(5)  # as on a server: sends stop at a full buffer
        reader.settimeout(5)
        sender = threading.Thread(target=wire.write_frame, args=(writer, chunked(doc, 5)))
        sender.start()
        assert wire.read_frame(reader) == doc
        sender.join(timeout=5)
    assert any(sent < offered for offered, sent in writer.sent)


def test_slow_reader_misses_one_deadline_for_the_whole_send():
    """A reader that keeps taking a little data cannot stretch the send past
    the socket's timeout, which bounds the whole frame as ``sendall`` does."""
    doc = {"blob": "x" * 1_000_000}
    writer, reader = socket.socketpair()
    writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    writer.settimeout(0.3)
    stop = threading.Event()

    def trickle():
        while not stop.wait(0.05):
            try:
                if not reader.recv(4096):
                    return
            except OSError:
                return

    taker = threading.Thread(target=trickle)
    with writer, reader:
        taker.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                wire.write_frame(writer, chunked(doc, 4))
        finally:
            stop.set()
            taker.join(timeout=5)
        assert time.monotonic() - start < 1.5
        assert writer.gettimeout() == 0.3
        assert not taker.is_alive()


def test_oversized_frame_is_refused(echo_server):
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        sock.sendall(struct.pack(">I", wire.MAX_FRAME + 1))
        response = wire.read_frame(sock)
        assert response["ok"] is False
        # stream is not trustworthy afterwards: server closes it
        assert sock.recv(1) == b""


def test_non_canonical_request_is_rejected(echo_server):
    doc = b'{"payload": {}, "kind": "hello"}'  # whitespace, unsorted
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        sock.sendall(struct.pack(">I", len(doc)) + doc)
        response = wire.read_frame(sock)
    assert response["ok"] is False


def test_multiple_requests_per_connection(echo_server):
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        for i in range(3):
            wire.write_frame(sock, {"kind": "hello", "payload": {"i": i}})
            response = wire.read_frame(sock)
            assert response["body"]["payload"] == {"i": i}


def test_server_port_zero_picks_ephemeral(echo_server):
    host, port = echo_server.endpoint
    assert port != 0
    assert canonical_json({"x": 1}) == b'{"x":1}'


def test_oversized_response_becomes_an_error_frame(monkeypatch):
    def handler(kind, payload, chain):
        if kind == "big":
            return {"blob": "x" * 4096}
        return {"pong": True}

    monkeypatch.setattr(wire, "MAX_FRAME", 1024)
    server = wire.FrameServer(("127.0.0.1", 0), handler)
    server.start()
    try:
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "big", {})
        assert info.value.code == "ResponseTooLarge"
        assert wire.call(server.endpoint, "ping", {}) == {"pong": True}
        with socket.create_connection(server.endpoint, timeout=5) as sock:
            wire.write_frame(sock, {"kind": "big", "payload": {}})
            assert wire.read_frame(sock)["error"]["code"] == "ResponseTooLarge"
            wire.write_frame(sock, {"kind": "ping", "payload": {}})
            assert wire.read_frame(sock) == {"ok": True, "body": {"pong": True}}
    finally:
        server.stop()


def test_frame_delivered_one_byte_at_a_time():
    doc = {"kind": "hello", "payload": {"text": "drip" * 50}}
    data = canonical_json(doc)
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        frame = struct.pack(">I", len(data)) + data
        sender = threading.Thread(target=lambda: [writer.sendall(frame[i:i + 1])
                                                  for i in range(len(frame))])
        sender.start()
        assert wire.read_frame(reader) == doc
        sender.join()
        writer.shutdown(socket.SHUT_WR)
        assert wire.read_frame(reader) is None


@pytest.mark.parametrize("cut", [2, 4, 10])
def test_truncated_frame_is_a_frame_error(cut):
    data = canonical_json({"kind": "hello", "payload": {}})
    frame = struct.pack(">I", len(data)) + data
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5)
        writer.sendall(frame[:cut])
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises(FrameError) as info:
            wire.read_frame(reader)
        assert not info.value.recoverable


# --- persistent connections -------------------------------------------------------

def pooled(endpoint):
    """The calling thread's pooled socket to ``endpoint``, or None."""
    entry = getattr(wire._pool, "sockets", {}).get(tuple(endpoint))
    return entry[0] if entry else None


def recording_server(seen, listen=("127.0.0.1", 0)):
    def handler(kind, payload, chain):
        seen.append(kind)
        return {"kind": kind, "payload": payload}

    server = wire.FrameServer(listen, handler)
    server.start()
    return server


# A scripted reply that resets the connection instead of answering.
RESET = "reset"


class ScriptedServer:
    """A bare listener serving one connection at a time. ``answer(n)`` gives
    the reply to the n-th request (counting from 1 across connections): a
    body, raw bytes to send as they are, None to close the connection
    without answering, or :data:`RESET` to reset it without answering."""

    def __init__(self, answer):
        self.answer = answer
        self.seen = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.endpoint = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._conn = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            self._conn = conn
            with conn:
                conn.settimeout(5)
                try:
                    while (doc := wire.read_frame(conn)) is not None:
                        self.seen.append(doc["kind"])
                        reply = self.answer(len(self.seen))
                        if reply is RESET:
                            # Linger on with no timeout: the close sends a reset.
                            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                            struct.pack("ii", 1, 0))
                        if reply is None or reply is RESET:
                            break
                        if isinstance(reply, bytes):
                            conn.sendall(reply)
                        else:
                            wire.write_frame(conn, wire.ok_response(reply))
                except (OSError, FrameError):
                    pass

    def close(self):
        self._closed.set()
        try:
            self._conn.shutdown(socket.SHUT_RDWR)
        except (AttributeError, OSError):
            pass
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()


@pytest.fixture()
def scripted():
    servers = []

    def make(answer):
        servers.append(ScriptedServer(answer))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def test_connection_is_reused_per_endpoint(echo_server):
    wire.call(echo_server.endpoint, "hello", {})
    sock = pooled(echo_server.endpoint)
    assert sock is not None
    wire.call(echo_server.endpoint, "hello", {})
    assert pooled(echo_server.endpoint) is sock


def test_server_restarted_on_the_same_port_is_transparent():
    seen = []
    server = recording_server(seen)
    endpoint = server.endpoint
    wire.call(endpoint, "ping")
    old = pooled(endpoint)
    server.stop()
    server = recording_server([], endpoint)
    try:
        assert wire.call(endpoint, "ping") == {"kind": "ping", "payload": {}}
        assert wire.call(endpoint, "query", {"q": 1}) == {"kind": "query", "payload": {"q": 1}}
        assert pooled(endpoint) is not old
    finally:
        server.stop()
    assert seen == ["ping"]


def test_pooled_socket_closed_by_the_server_is_replaced_before_sending():
    server = recording_server([])
    endpoint = server.endpoint
    wire.call(endpoint, "ping")
    old = pooled(endpoint)
    server.stop()
    old.settimeout(5)
    assert old.recv(1, socket.MSG_PEEK) == b""
    seen = []
    server = recording_server(seen, endpoint)
    try:
        # Never retried, so this only succeeds if the dead socket is not used.
        assert wire.call(endpoint, "admin", {"n": 1}) == {"kind": "admin", "payload": {"n": 1}}
    finally:
        server.stop()
    assert seen == ["admin"]


def test_pooled_socket_with_stray_bytes_is_replaced(scripted):
    first = canonical_json(wire.ok_response({"n": 1}))
    stray = canonical_json(wire.ok_response({"stray": True}))
    server = scripted(lambda n: b"".join(struct.pack(">I", len(d)) + d for d in (first, stray))
                      if n == 1 else {"n": n})
    assert wire.call(server.endpoint, "ping") == {"n": 1}
    time.sleep(0.05)
    assert wire.call(server.endpoint, "ping") == {"n": 2}
    assert server.connections == 2


def lost_replies(kinds):
    """Each kind with its reply lost to a clean close, and to a reset."""
    return [pytest.param(kind, lost, id=kind if lost is None else f"{kind}-reset")
            for kind in kinds for lost in (None, RESET)]


@pytest.mark.parametrize("kind, lost", lost_replies(sorted(wire.RETRYABLE_KINDS)))
def test_read_whose_reply_is_lost_is_sent_again_once(scripted, kind, lost):
    server = scripted(lambda n: lost if n == 2 else {"n": n})
    assert wire.call(server.endpoint, "ping") == {"n": 1}
    assert wire.call(server.endpoint, kind) == {"n": 3}
    assert server.seen == ["ping", kind, kind]
    assert server.connections == 2


def test_read_lost_twice_raises(scripted):
    server = scripted(lambda n: None if n > 1 else {"n": n})
    wire.call(server.endpoint, "ping")
    with pytest.raises(ServerError) as info:
        wire.call(server.endpoint, "query")
    assert info.value.code == "ConnectionLost"
    assert server.seen == ["ping", "query", "query"]


@pytest.mark.parametrize("kind, lost", lost_replies(
    ["admin", "write", "delete", "get_credential", "subscribe"]))
def test_change_whose_reply_is_lost_is_not_retried(scripted, kind, lost):
    server = scripted(lambda n: lost if n == 2 else {"n": n})
    wire.call(server.endpoint, "ping")
    with pytest.raises(ServerError) as info:
        wire.call(server.endpoint, kind)
    assert info.value.code == "ConnectionLost"
    assert server.seen == ["ping", kind]
    assert server.connections == 1
    assert pooled(server.endpoint) is None


def test_stop_ends_idle_pooled_connections():
    seen = []
    server = recording_server(seen)
    endpoint = server.endpoint
    wire.call(endpoint, "ping")
    sock = pooled(endpoint)
    server.stop()
    sock.settimeout(5)
    assert sock.recv(1, socket.MSG_PEEK) == b""
    with pytest.raises((OSError, ServerError)):
        wire.call(endpoint, "ping")
    assert seen == ["ping"]


def test_stop_without_start_returns_and_frees_the_port():
    server = wire.FrameServer(("127.0.0.1", 0), lambda kind, payload, chain: {})
    endpoint = server.endpoint
    assert stops_within(server, 2)
    with socket.socket() as sock:
        sock.bind(endpoint)
    assert stops_within(server, 2)  # a second stop is harmless too


def test_stop_answers_the_request_in_flight_and_no_later_one():
    started, release = threading.Event(), threading.Event()

    def handler(kind, payload, chain):
        if kind == "slow":
            started.set()
            release.wait(5)
        return {"kind": kind}

    server = wire.FrameServer(("127.0.0.1", 0), handler)
    server.start()
    with socket.create_connection(server.endpoint, timeout=5) as sock:
        wire.write_frame(sock, {"kind": "slow", "payload": {}})
        assert started.wait(5)
        wire.write_frame(sock, {"kind": "late", "payload": {}})
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.2)
        release.set()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert wire.read_frame(sock) == {"ok": True, "body": {"kind": "slow"}}
        assert wire.read_frame(sock) is None


def test_timed_out_socket_is_not_reused(scripted):
    def answer(n):
        if n == 2:
            time.sleep(0.5)
        return {"n": n}

    server = scripted(answer)
    wire.call(server.endpoint, "ping")
    with pytest.raises(TimeoutError):
        wire.call(server.endpoint, "query", timeout=0.1)
    assert pooled(server.endpoint) is None
    # The late answer to the timed-out request never reaches a later call.
    assert wire.call(server.endpoint, "query") == {"n": 3}
    assert server.connections == 2


@pytest.mark.parametrize("reply", [b"\x00\x00\x00\x00", struct.pack(">I", 100) + b"{"])
def test_socket_that_saw_a_frame_error_is_not_reused(scripted, monkeypatch, reply):
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.2)
    server = scripted(lambda n: reply if n == 2 else {"n": n})
    wire.call(server.endpoint, "ping")
    with pytest.raises(ServerError) as info:
        wire.call(server.endpoint, "query")
    assert info.value.code == "MalformedResponse"
    assert pooled(server.endpoint) is None
    assert wire.call(server.endpoint, "query") == {"n": 3}
    assert server.connections == 2


@pytest.mark.parametrize("reply, message", [
    (b"[1]", "bad response document: [1]"),
    (b'{"error":{}}', "bad response document: {'error': {}}"),
    (b'{"body":[1],"ok":true}', "response body missing"),
], ids=["not-a-map", "no-ok", "ok-body-not-a-map"])
def test_an_answer_that_is_not_an_ok_map_is_a_malformed_response(scripted, reply, message):
    server = scripted(lambda n: raw_frame(reply))
    with pytest.raises(ServerError) as info:
        wire.call(server.endpoint, "ping")
    assert (info.value.code, info.value.message) == ("MalformedResponse", message)


def test_threads_never_share_a_socket(echo_server):
    threads_n, calls = 4, 30
    ports = [set() for _ in range(threads_n)]
    errors = []
    barrier = threading.Barrier(threads_n)

    def client(t):
        try:
            barrier.wait(timeout=5)
            for i in range(calls):
                body = wire.call(echo_server.endpoint, "hello", {"t": t, "i": i})
                assert body["payload"] == {"t": t, "i": i}
                ports[t].add(pooled(echo_server.endpoint).getsockname()[1])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=client, args=(t,)) for t in range(threads_n)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert all(len(p) == 1 for p in ports)
    assert len(set().union(*ports)) == threads_n


def test_pooled_socket_idle_past_the_client_limit_is_replaced(echo_server, monkeypatch):
    wire.call(echo_server.endpoint, "hello", {})
    old = pooled(echo_server.endpoint)
    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.1)
    time.sleep(0.06)
    wire.call(echo_server.endpoint, "hello", {})
    assert pooled(echo_server.endpoint) is not old
    assert old.fileno() == -1


def test_idle_connection_keeps_no_request_alive(echo_server):
    wire.call(echo_server.endpoint, "hello", {})
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        wire.call(echo_server.endpoint, "sized", {"pad": "y" * 200_000})
        # The handler's thread, now waiting for the next frame on the same
        # connection, lets go of the request soon after answering it.
        deadline = time.monotonic() + 2
        while True:
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            if retained < 50_000 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
    finally:
        tracemalloc.stop()
    assert retained < 50_000


# --- server bounds ----------------------------------------------------------------

def test_connection_beyond_the_cap_is_busy(echo_server, monkeypatch):
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
    held = [socket.create_connection(echo_server.endpoint, timeout=5) for _ in range(2)]
    try:
        for sock in held:
            wire.write_frame(sock, {"kind": "hello", "payload": {}})
            assert wire.read_frame(sock)["ok"] is True
        with socket.create_connection(echo_server.endpoint, timeout=5) as third:
            assert wire.read_frame(third)["error"]["code"] == "Busy"
            assert third.recv(1) == b""
        held.pop().close()
        deadline = time.monotonic() + 5
        while True:
            try:
                assert wire.call(echo_server.endpoint, "hello", {})["kind"] == "hello"
                break
            except (OSError, ServerError):
                assert time.monotonic() < deadline
                time.sleep(0.02)
    finally:
        for sock in held:
            sock.close()


def _drip(writer, data, interval, stop):
    for i in range(len(data)):
        if stop.wait(interval):
            return
        try:
            writer.sendall(data[i:i + 1])
        except OSError:
            return


def test_slow_drip_misses_the_frame_deadline(monkeypatch):
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.3)
    data = canonical_json({"kind": "hello", "payload": {}})
    frame = struct.pack(">I", len(data)) + data
    reader, writer = socket.socketpair()
    stop = threading.Event()
    sender = threading.Thread(target=_drip, args=(writer, frame, 0.1, stop))
    with reader, writer:
        reader.settimeout(5)
        sender.start()
        start = time.monotonic()
        try:
            with pytest.raises(FrameError) as info:
                wire.read_frame(reader)
        finally:
            stop.set()
            sender.join(timeout=5)
        assert time.monotonic() - start < 1.5
        assert not info.value.recoverable
        assert not sender.is_alive()


def test_server_closes_a_connection_that_misses_the_frame_deadline(echo_server, monkeypatch):
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.3)
    with socket.create_connection(echo_server.endpoint, timeout=5) as sock:
        sock.sendall(b"\x00\x00")
        start = time.monotonic()
        response = wire.read_frame(sock)
        assert response["ok"] is False
        assert sock.recv(1) == b""
        assert time.monotonic() - start < 2


# --- raw frames against the authority ---------------------------------------------

def _mutations(rng: random.Random, data: bytes, count: int):
    """``count`` copies of ``data``, each with one byte flipped, the tail cut
    off, or a byte inserted."""
    for i in range(count):
        at = rng.randrange(len(data))
        how = ("flip", "truncate", "insert")[i % 3]
        if how == "flip":
            yield data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        elif how == "truncate":
            yield data[:at]
        else:
            yield data[:at] + bytes([rng.randrange(256)]) + data[at:]


def test_mutated_frames_get_domain_answers(world, cas_server):
    """Each mutated request gets an error frame or a domain answer on the
    same connection: never ``Internal``, and the handler thread survives."""
    chain = chain_to_map(world.proxy("alice"))
    requests = [
        {"kind": "ping", "payload": {}},
        {"kind": "query", "payload": {"query": "resource_rights", "namespace": "vo://esg/**"},
         "chain": chain},
        {"kind": "get_credential", "payload": {"mode": "restricted_proxy", "lifetime": 600},
         "chain": chain},
    ]
    rng = random.Random(20261018)
    frames = [m for r in requests for m in _mutations(rng, canonical_json(r), 40)]
    frames += oracles.CRASHED_REFERENCE.values()
    with socket.create_connection(cas_server.endpoint, timeout=10) as sock:
        for data in frames:
            if not data:
                continue  # a zero-length frame closes the connection by design
            sock.sendall(raw_frame(data))
            response = wire.read_frame(sock)
            assert response is not None, data
            assert response["ok"] or response["error"]["code"] != "Internal", (data, response)
        wire.write_frame(sock, {"kind": "ping", "payload": {}})
        assert wire.read_frame(sock)["ok"] is True
