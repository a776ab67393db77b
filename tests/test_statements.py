"""Signed statements and the lazy pull-path fetcher."""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time

import pytest

from caslite import statements, wire
from caslite.canonical import canonical_json
from caslite.errors import MalformedMessage, SourceUnavailable, StaleStatement
from caslite.keys import generate_keys
from caslite.policy import rights_from_list
from caslite.statements import (
    StatementFetcher,
    listing_rights,
    sign_statement,
    statement_answer,
    statement_from_map,
    statement_to_map,
    verify_statement,
)
from caslite.canonical import parse_canonical

from worldlib import ALICE, BOB, CAROL, NOW, rights, statement_bytes


def payload_size(statement) -> int | None:
    """Length of the statement's kept signing payload; None while none is kept."""
    payload = statement._memo.payload
    return None if payload is None else len(payload)


def response_size(statement) -> int:
    """Bytes of the wire response ``{ok, body: {statement}}`` carrying it."""
    return wire.ok_response(statement_answer(statement)).size

QUERY = {"query": "resource_rights", "namespace": "vo://esg/data/**"}
LISTING = {"listing": {ALICE: [{"action": "read", "object": "vo://esg/data/**"}]}}


@pytest.fixture(scope="module")
def authority_keys():
    return generate_keys()


@pytest.fixture(scope="module")
def statement(authority_keys):
    return sign_statement(authority_keys, QUERY, LISTING, NOW, NOW + 600)


def test_sign_verify_round_trip(statement, authority_keys):
    assert verify_statement(statement, authority_keys.public())
    assert not verify_statement(statement, generate_keys().public())
    restored = statement_from_map(parse_canonical(statement_bytes(statement)))
    assert restored == statement


def test_listing_rights_lookup(statement):
    assert listing_rights(statement, ALICE) == rights(("read", "vo://esg/data/**"))
    assert listing_rights(statement, "/VO=esg/CN=nobody") == frozenset()


def test_listing_rights_equals_each_parsed_entry(authority_keys):
    listing = {
        ALICE: [{"action": "read", "object": "vo://esg/data/**"},
                {"action": "write", "object": "vo://esg/data/public/**"}],
        BOB: [{"action": "read", "object": "vo://esg/data/**"}],
        "/VO=esg/CN=dave": [],
    }
    signed = sign_statement(authority_keys, QUERY, {"listing": listing}, NOW, NOW + 600)
    for statement in (signed, statement_from_map(parse_canonical(statement_bytes(signed)))):
        for subject, entry in listing.items():
            first = listing_rights(statement, subject)
            assert first == rights_from_list(entry)
            assert listing_rights(statement, subject) is first  # parsed once
        assert listing_rights(statement, CAROL) == frozenset()
        # one Right object per distinct right, shared between entries
        (bob_read,) = listing_rights(statement, BOB)
        assert any(r is bob_read for r in listing_rights(statement, ALICE))


def test_concurrent_lookups_parse_each_entry_once(authority_keys, monkeypatch):
    subjects = [f"/VO=esg/CN=user{i}" for i in range(40)]
    listing = {
        who: [{"action": "read", "object": f"vo://esg/data/g{i % 5}/**"},
              {"action": "write", "object": f"vo://esg/data/u{i}/**"}]
        for i, who in enumerate(subjects)
    }
    statement = sign_statement(authority_keys, QUERY, {"listing": listing}, NOW, NOW + 600)
    parses = []
    real_parse = statements.rights_from_list

    def counting_parse(doc):
        parses.append(doc)
        return real_parse(doc)

    monkeypatch.setattr(statements, "rights_from_list", counting_parse)
    wrong = []

    def worker(offset):
        for i in range(len(subjects) * 3):
            who = subjects[(i + offset) % len(subjects)]
            if listing_rights(statement, who) != real_parse(listing[who]):
                wrong.append(who)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 7,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert len(parses) == len(subjects)


def test_response_size_is_the_exact_frame_length(statement):
    expected = len(canonical_json(wire.ok_response({"statement": statement_to_map(statement)})))
    assert payload_size(statement) == len(statement.signing_payload())
    assert response_size(statement) == expected
    restored = statement_from_map(statement_to_map(statement))
    assert payload_size(restored) is None
    assert response_size(restored) == expected


def test_statement_body_shape_is_validated(statement):
    doc = statement_to_map(statement)
    doc["body"] = {"assertion": {"bogus": True}}
    with pytest.raises(MalformedMessage):
        statement_from_map(doc)
    doc = statement_to_map(statement)
    doc["query"] = {"query": "nonsense"}
    with pytest.raises(MalformedMessage):
        statement_from_map(doc)


def test_expiry_must_follow_issue(authority_keys):
    with pytest.raises(MalformedMessage):
        sign_statement(authority_keys, QUERY, LISTING, NOW, NOW)


class _FlakySource:
    """A query endpoint that can be told to go dark."""

    def __init__(self, authority_keys, lifetime=600):
        self.keys = authority_keys
        self.lifetime = lifetime
        self.body = LISTING
        self.down = False
        self.now = NOW
        self.calls = 0
        self.delay = 0.0
        self._lock = threading.Lock()
        self.server = wire.FrameServer(("127.0.0.1", 0), self.handle)
        self.server.start()

    def handle(self, kind, payload, chain):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        if self.down:
            raise MalformedMessage("gone dark")
        statement = sign_statement(self.keys, payload, self.body, self.now,
                                   self.now + self.lifetime)
        return {"statement": statement_to_map(statement)}

    def stop(self):
        self.server.stop()


@pytest.fixture()
def flaky_source(authority_keys):
    source = _FlakySource(authority_keys)
    yield source
    source.stop()


def test_fetcher_caches_until_expiry(flaky_source, authority_keys):
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    first = fetcher.current(NOW)
    flaky_source.down = True
    assert fetcher.current(NOW + 1) is first  # served from cache, source not consulted


def test_refreshed_statement_answers_from_the_new_listing(flaky_source, authority_keys):
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    first = fetcher.current(NOW)
    assert listing_rights(first, ALICE) == rights(("read", "vo://esg/data/**"))
    assert listing_rights(first, BOB) == frozenset()
    flaky_source.body = {"listing": {
        BOB: [{"action": "write", "object": "vo://esg/data/public/**"}],
    }}
    flaky_source.now = first.expires_at
    second = fetcher.current(first.expires_at + 1)
    assert second is not first
    assert listing_rights(second, ALICE) == frozenset()
    assert listing_rights(second, BOB) == rights(("write", "vo://esg/data/public/**"))
    assert listing_rights(first, ALICE) == rights(("read", "vo://esg/data/**"))


def test_fetcher_distinguishes_stale_from_unavailable(flaky_source, authority_keys):
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    fresh = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    first = fetcher.current(NOW)
    flaky_source.down = True
    with pytest.raises(StaleStatement):
        fetcher.current(first.expires_at + 1)  # had one, now expired
    with pytest.raises(SourceUnavailable):
        fresh.current(NOW)  # never had one


def test_fetcher_rejects_expired_fetch(flaky_source, authority_keys):
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    with pytest.raises(StaleStatement):
        fetcher.current(NOW + flaky_source.lifetime + 10)


def test_fetcher_rejects_wrong_signature(flaky_source):
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", generate_keys().public()
    )
    with pytest.raises(SourceUnavailable):
        fetcher.current(NOW)


@pytest.mark.parametrize("case", ["up", "down", "stale"])
def test_concurrent_refreshes_share_one_fetch(flaky_source, authority_keys, case):
    """Eight callers that find no fresh statement share one fetch: each gets
    its statement or, when it fails, fails closed as a lone caller would."""
    fetcher = StatementFetcher(
        flaky_source.server.endpoint, "vo://esg/data/**", authority_keys.public()
    )
    now = NOW
    if case == "stale":
        now = fetcher.current(NOW).expires_at + 1
        flaky_source.calls = 0
    flaky_source.down = case != "up"
    flaky_source.delay = 0.3  # the flight stays open while the others arrive
    start = threading.Barrier(8)
    results = []

    def call():
        start.wait(timeout=10)
        try:
            results.append(fetcher.current(now))
        except (StaleStatement, SourceUnavailable) as exc:
            results.append(exc)

    threads = [threading.Thread(target=call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert flaky_source.calls == 1
    assert len(results) == 8
    if case == "up":
        assert all(r is results[0] for r in results)
        assert listing_rights(results[0], ALICE) == rights(("read", "vo://esg/data/**"))
    else:
        expected = StaleStatement if case == "stale" else SourceUnavailable
        assert all(type(r) is expected for r in results)


class _TruncatingSource:
    """A bare query endpoint that answers its first ``whole`` requests with a
    signed listing frame and every later one with that frame's header and
    half its body, then closes the connection or, when ``stall``, holds it
    open without sending another byte until the client gives up."""

    def __init__(self, authority_keys, whole, stall):
        statement = sign_statement(authority_keys, QUERY, LISTING, NOW, NOW + 600)
        body = canonical_json(wire.ok_response({"statement": statement_to_map(statement)}))
        self.frame = struct.pack(">I", len(body)) + body
        self.cut = 4 + len(body) // 2
        self.whole, self.stall, self.requests = whole, stall, 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.endpoint = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                try:
                    while wire.read_frame(conn) is not None:
                        self.requests += 1
                        if self.requests <= self.whole:
                            conn.sendall(self.frame)
                            continue
                        conn.sendall(self.frame[:self.cut])
                        if self.stall:
                            conn.recv(1)  # returns once the client closes
                        break
                except OSError:
                    pass

    def close(self):
        self._closed.set()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self._listener.close()


@pytest.mark.parametrize("stall", [False, True], ids=["closed", "stalled"])
@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "expired_cache"])
def test_truncated_listing_frame_fails_closed(authority_keys, monkeypatch, cached, stall):
    """A source that sends half a listing frame never yields a statement: the
    fetcher raises SourceUnavailable with nothing cached and StaleStatement
    with an expired statement cached, within the frame deadline."""
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.5)
    source = _TruncatingSource(authority_keys, whole=int(cached), stall=stall)
    try:
        fetcher = StatementFetcher(source.endpoint, "vo://esg/data/**", authority_keys.public())
        now = fetcher.current(NOW).expires_at + 1 if cached else NOW
        for _ in range(3):
            started = time.monotonic()
            with pytest.raises(StaleStatement if cached else SourceUnavailable):
                fetcher.current(now)
            assert time.monotonic() - started < wire.FRAME_DEADLINE + 1.0
        assert source.requests == 3 + int(cached)
    finally:
        source.close()
