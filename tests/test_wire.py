"""Framing, the request envelope, and connection robustness."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from caslite import wire
from caslite.canonical import canonical_json
from caslite.errors import FrameError, MalformedMessage, ServerError


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
        wire.write_frame(sock, {"nope": 1})
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
