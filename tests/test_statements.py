"""Signed statements and the lazy pull-path fetcher."""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from caslite import statements, wire
from caslite.canonical import canonical_json
from caslite.errors import CasliteError, MalformedMessage, SourceUnavailable, StaleStatement
from caslite.keys import generate_keys, sign_payload
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

import oracles
from test_policy import AWKWARD
from worldlib import (
    ALICE, BOB, CAROL, NOW, PULLED, RawSource, answer_frame, misbound_answers, raw_answer,
    rights, statement_bytes,
)


def payload_size(statement) -> int:
    """Length of the statement's kept signing payload."""
    return len(statement._memo.payload)


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
    assert payload_size(restored) == len(statement.signing_payload())
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


def test_a_document_entry_is_checked_when_read(statement):
    """A statement document's listing is read as a fetched one is: an entry
    that is not a rights list raises a domain error for its own subject."""
    doc = statement_to_map(statement)
    doc["body"] = {"listing": {ALICE: [1], BOB: LISTING["listing"][ALICE]}}
    restored = statement_from_map(doc)
    with pytest.raises(MalformedMessage):
        listing_rights(restored, ALICE)
    assert listing_rights(restored, BOB) == rights(("read", "vo://esg/data/**"))


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
    # A statement has no CLOCK_SKEW: it is served to its last second, and
    # refused from ``expires_at`` on once its refresh fails, which keeps it.
    assert fetcher.current(first.expires_at - 1) is first
    for now in (first.expires_at, first.expires_at + 1):
        with pytest.raises(StaleStatement):
            fetcher.current(now)  # had one, now expired
    assert fetcher.current(first.expires_at - 1) is first
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
    with an expired statement cached, within the frame deadline. Eight
    callers that arrive while a stalled fetch is open share it, and each
    fails closed as a lone caller does."""
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 0.5)
    source = _TruncatingSource(authority_keys, whole=int(cached), stall=stall)
    expected = StaleStatement if cached else SourceUnavailable
    try:
        fetcher = StatementFetcher(source.endpoint, "vo://esg/data/**", authority_keys.public())
        now = fetcher.current(NOW).expires_at + 1 if cached else NOW
        rounds = 0
        for callers in (1, 8) if stall else (1,):
            for _ in range(3):
                start, results = threading.Barrier(callers), []

                def call():
                    start.wait(timeout=10)
                    started = time.monotonic()
                    try:
                        fetcher.current(now)
                    except CasliteError as exc:
                        results.append((exc, time.monotonic() - started))

                # This thread is one of the callers, so a lone caller reuses
                # the connection it fetched the cached statement on.
                threads = [threading.Thread(target=call) for _ in range(callers - 1)]
                for t in threads:
                    t.start()
                call()
                for t in threads:
                    t.join(timeout=30)
                assert len(results) == callers
                for exc, elapsed in results:
                    assert type(exc) is expected
                    assert elapsed < wire.FRAME_DEADLINE + 1.0
                rounds += 1
                assert source.requests == rounds + int(cached)
    finally:
        source.close()


# --- taking in an answer's bytes ------------------------------------------------------

@pytest.mark.parametrize("case", ["wider_namespace", "user_rights"])
def test_fetcher_refuses_a_statement_for_another_query(world, case):
    """A validly signed statement answering another query is refused: the
    fetch fails and the fetcher fails closed, as with no source at all."""
    source = RawSource(misbound_answers(world)[case])
    try:
        fetcher = StatementFetcher(source.endpoint, PULLED["namespace"], world.cas.keys.public())
        with pytest.raises(MalformedMessage, match="another query"):
            fetcher.fetch()
        with pytest.raises(SourceUnavailable):
            fetcher.current(NOW)
    finally:
        source.close()


def _answer(keys, payload: bytes) -> bytes:
    """An ok answer carrying ``payload`` as a statement's signing payload,
    signed by ``keys``, spliced as the authority splices it."""
    return b"".join((b'{"body":{"statement":', payload[:-1], b',"signature":"',
                     sign_payload(keys, payload).hex().encode(), b'"}},"ok":true}'))


def _listing_payload(entries: bytes, query: dict = QUERY) -> bytes:
    return b"".join((b'{"body":{"listing":{', entries, b'}},"caslite":"statement/1",',
                     b'"expires_at":%d,"issued_at":%d,"query":' % (NOW + 600, NOW),
                     canonical_json(query), b"}"))


def test_an_entry_that_does_not_parse_never_allows(authority_keys):
    """Signed entries that are not rights lists raise a domain error for
    their own subject only; one that is not JSON at all swallows the next
    entry, whose subject then has no rights."""
    dave = "/VO=esg/CN=dave"
    entries = (b'"%s":[1],"%s":[{"action":"read","object":"vo://esg/**"},"%s":'
               b'[{"action":"read","object":"vo://esg/**"}],"%s":[{"action":"read",'
               b'"object":"vo://esg/data/**"}]' % tuple(w.encode() for w in
                                                    (ALICE, BOB, CAROL, dave)))
    source = RawSource(_answer(authority_keys, _listing_payload(entries)))
    try:
        statement = StatementFetcher(source.endpoint, QUERY["namespace"],
                                     authority_keys.public()).fetch()
    finally:
        source.close()
    for who in (ALICE, BOB):
        with pytest.raises(MalformedMessage):
            listing_rights(statement, who)
    assert listing_rights(statement, CAROL) == frozenset()
    assert listing_rights(statement, dave) == rights(("read", "vo://esg/data/**"))


def test_a_listing_naming_a_subject_twice_is_refused(authority_keys):
    entries = b'"%s":[],"%s":[{"action":"read","object":"vo://esg/**"}]' % ((ALICE.encode(),) * 2)
    source = RawSource(_answer(authority_keys, _listing_payload(entries)))
    try:
        fetcher = StatementFetcher(source.endpoint, QUERY["namespace"], authority_keys.public())
        with pytest.raises(MalformedMessage, match="twice"):
            fetcher.fetch()
    finally:
        source.close()


# Subjects a listing may name: awkward ones, and one a prefix of another.
SUBJECTS = [ALICE, "/VO=esg/CN=alic", BOB, *AWKWARD]
# Objects holding the bytes the entry index cuts at, quotes and escapes.
OBJECTS = ["vo://esg/data/**", 'vo://esg/a],"/VO=esg/CN=bob":[/**', "vo://esg/z],",
           'vo://esg/q"],/x', "vo://esg/back\\slash/**", "vo://esg/\u00e9/\U0001d518",
           "vo://esg/t\tb\x07/**"]
LISTINGS = st.dictionaries(
    st.sampled_from(SUBJECTS),
    st.lists(st.builds(lambda a, o: {"action": a, "object": o},
                       st.sampled_from(["read", "write", "list"]), st.sampled_from(OBJECTS)),
             max_size=4, unique_by=lambda r: (r["action"], r["object"])),
)


@pytest.fixture(scope="module")
def listing_source():
    source = RawSource(b"")
    yield source
    source.close()


@pytest.mark.parametrize("intake", ["fetched", "from_map"])
@given(listing=LISTINGS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_listing_rights_from_bytes_equal_the_reference_parse(authority_keys, listing_source,
                                                             intake, listing):
    """Each subject's rights from a listing taken in as bytes, or as the
    reference parse of those bytes, equal ``rights_from_list`` over that
    parse; every subject the listing leaves out has none."""
    listing_source.doc = answer_frame(authority_keys, QUERY, {"listing": listing})
    reference = oracles.reference_parse_canonical(listing_source.doc)
    if intake == "fetched":
        statement = StatementFetcher(listing_source.endpoint, QUERY["namespace"],
                                     authority_keys.public()).fetch()
    else:
        statement = statement_from_map(reference["body"]["statement"])
    entries = reference["body"]["statement"]["body"]["listing"]
    for subject in SUBJECTS + [CAROL, "/VO=esg/CN=alice2"]:
        expected = rights_from_list(entries[subject]) if subject in entries else frozenset()
        assert listing_rights(statement, subject) == expected
    assert statement.body == {"listing": entries}


def test_mirror_forwards_awkward_listings_byte_for_byte(authority_keys, listing_source):
    """The mirror answers with the bytes the authority answered with."""
    from caslite.cache import CacheConfig, CacheServer, StatementCache

    listing = {who: [{"action": "read", "object": obj}]
               for who, obj in zip(SUBJECTS, OBJECTS + OBJECTS)}
    listing_source.doc = answer_frame(authority_keys, QUERY, {"listing": listing})
    mirror = CacheServer(("127.0.0.1", 0), StatementCache(CacheConfig(
        authority=listing_source.endpoint, refresh_interval=1, max_age=5,
        subscriptions=[QUERY])))
    mirror.start()
    try:
        request = {"kind": "query", "payload": QUERY}
        assert raw_answer(mirror.endpoint, request) == listing_source.doc
    finally:
        mirror.stop()


def test_intake_memory_stays_within_bounds(authority_keys):
    """Taking in a listing of over 1 MB, before any entry is used, retains at
    most 3 times and peaks at most 5 times the answer's bytes."""
    listing = {f"/VO=esg/CN=user{i:05d}": [
        {"action": action, "object": f"vo://esg/data/g{(i + k) % 97}/s{k}/**"}
        for k, action in enumerate(["read", "write", "list", "read", "write", "list"])]
        for i in range(3300)}
    doc = answer_frame(authority_keys, QUERY, {"listing": listing})
    assert len(doc) > 2**20
    del listing
    source = RawSource(doc)
    try:
        fetcher = StatementFetcher(source.endpoint, QUERY["namespace"], authority_keys.public())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            statement = fetcher.fetch()
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    finally:
        source.close()
    assert listing_rights(statement, "/VO=esg/CN=user00007")
    assert retained <= 3 * len(doc), retained / len(doc)
    assert peak <= 5 * len(doc), peak / len(doc)
