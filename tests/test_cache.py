"""The caching mirror: pass-through integrity, staleness, availability."""

from __future__ import annotations

import time

import pytest

from caslite import wire
from caslite.cache import CacheConfig, CacheServer, StatementCache
from caslite.canonical import canonical_json, parse_canonical
from caslite.credentials import chain_to_map
from caslite.errors import CacheMiss, MalformedMessage, ServerError, StaleEntry
from caslite.keys import generate_keys
from caslite.statements import (
    sign_statement,
    statement_from_map,
    statement_to_map,
    verify_statement,
)

from worldlib import (
    ALICE, DAY, PULLED, RawSource, answer_frame, misbound_answers, raw_answer, rights,
    statement_bytes,
)

USER_QUERY = {"query": "user_rights", "subject": ALICE}
RES_QUERY = {"query": "resource_rights", "namespace": "vo://esg/data/**"}


@pytest.fixture()
def cache(world, cas_server):
    return StatementCache(CacheConfig(
        authority=cas_server.endpoint,
        refresh_interval=1,
        max_age=5,
        subscriptions=[USER_QUERY],
        client_chain=chain_to_map(world.proxy("alice")),
    ))


def test_config_requires_refresh_below_max_age():
    for refresh_interval in (5, 0, -1):
        with pytest.raises(MalformedMessage):
            CacheConfig(authority="x:1", refresh_interval=refresh_interval, max_age=5)


def test_subscribe_fetches_immediately(cache):
    statement = cache.serve_cached(USER_QUERY, int(time.time()))
    assert statement.query == USER_QUERY


def test_subscribe_is_idempotent(cache):
    cache.subscribe(USER_QUERY)
    cache.subscribe(USER_QUERY)
    assert cache.subscriptions() == [USER_QUERY]


def test_unsubscribed_query_misses(cache):
    with pytest.raises(CacheMiss):
        cache.serve_cached(RES_QUERY, int(time.time()))


def test_pass_through_is_byte_identical(world, cas_server, cache):
    """The mirror serves the authority's statement untouched."""
    direct = wire.call(cas_server.endpoint, "query", RES_QUERY,
                       chain=chain_to_map(world.proxy("alice")))
    cache.subscribe(RES_QUERY)
    mirrored = cache.serve_cached(RES_QUERY, int(time.time()))
    assert verify_statement(mirrored, world.cas.keys.public())
    direct_statement = statement_from_map(direct["statement"])
    assert mirrored.body == direct_statement.body  # same policy content
    assert verify_statement(direct_statement, world.cas.keys.public())


def test_listing_answers_are_the_canonical_bytes(world, cas_server, cache):
    """Authority and mirror send a listing as the statement's signed bytes,
    which are exactly the canonical form of the answer map."""
    request = {"kind": "query", "payload": RES_QUERY,
               "chain": chain_to_map(world.proxy("alice"))}
    cache.subscribe(RES_QUERY)
    mirror = CacheServer(("127.0.0.1", 0), cache)
    mirror.start()
    try:
        for endpoint in (cas_server.endpoint, mirror.endpoint):
            data = raw_answer(endpoint, request)
            statement = statement_from_map(parse_canonical(data)["body"]["statement"])
            assert verify_statement(statement, world.cas.keys.public())
            assert data == canonical_json(wire.ok_response({"statement": statement_to_map(statement)}))
        mirrored = cache.serve_cached(RES_QUERY, int(time.time()))
        assert data == canonical_json(wire.ok_response({"statement": statement_to_map(mirrored)}))
    finally:
        mirror.stop()


def test_entries_age_out(cache):
    now = int(time.time())
    statement = cache.serve_cached(USER_QUERY, now)
    assert statement is cache.serve_cached(USER_QUERY, now + 5)
    with pytest.raises(StaleEntry):
        cache.serve_cached(USER_QUERY, now + 6)


def test_entry_never_outlives_statement_expiry(world, cas_server):
    cache = StatementCache(CacheConfig(
        authority=cas_server.endpoint, refresh_interval=1, max_age=10 * 86400,
        subscriptions=[USER_QUERY], client_chain=chain_to_map(world.proxy("alice")),
    ))
    now = int(time.time())
    statement = cache.serve_cached(USER_QUERY, now)
    # A statement has no CLOCK_SKEW: it is served to its last second, and
    # refused from ``expires_at`` on.
    assert cache.serve_cached(USER_QUERY, statement.expires_at - 1) is statement
    for now in (statement.expires_at, statement.expires_at + 1):
        with pytest.raises(StaleEntry):
            cache.serve_cached(USER_QUERY, now)


def test_refresh_survives_authority_outage(world, cas_server, cache):
    now = int(time.time())
    before = cache.serve_cached(USER_QUERY, now)
    cas_server.stop()
    report = cache.refresh(now + 1)
    assert report["updated"] == [] and report["failed"] == [USER_QUERY]
    # the old entry keeps serving inside max_age
    assert cache.serve_cached(USER_QUERY, now + 2) is before


def test_refresh_picks_up_policy_changes(world, cas_server, cache):
    owner_chain = chain_to_map(world.proxy("owner"))
    wire.call(cas_server.endpoint, "admin", {"command": {
        "op": "grant", "subject": ALICE, "action": "list",
        "object": "vo://esg/data/public/**",
    }}, chain=owner_chain)
    now = int(time.time())
    report = cache.refresh(now)
    assert report["failed"] == []
    statement = cache.serve_cached(USER_QUERY, now)
    from caslite.assertions import assertion_from_map

    assertion = assertion_from_map(statement.body["assertion"])
    assert assertion.db_revision == 2
    assert rights(("list", "vo://esg/data/public/**")) <= assertion.rights


def test_cache_server_over_the_wire(world, cas_server, cache):
    server = CacheServer(("127.0.0.1", 0), cache)
    server.start()
    try:
        body = wire.call(server.endpoint, "query", USER_QUERY)
        statement = statement_from_map(body["statement"])
        assert verify_statement(statement, world.cas.keys.public())
        # byte-for-byte what the authority handed the mirror
        held = cache.entry(USER_QUERY).statement
        assert statement_bytes(statement) == statement_bytes(held)
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "query", RES_QUERY)
        assert info.value.code == "CacheMiss"
        cache.subscribe(RES_QUERY)
        body = wire.call(server.endpoint, "query", RES_QUERY)
        assert statement_from_map(body["statement"]).query == RES_QUERY
    finally:
        server.stop()


def test_subscriptions_cannot_be_added_over_the_wire(cache):
    """Subscriptions come from the mirror's own configuration: a ``subscribe``
    request is an unknown kind and leaves them as they were."""
    server = CacheServer(("127.0.0.1", 0), cache)
    server.start()
    try:
        before = cache.subscriptions()
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "subscribe", RES_QUERY)
        assert info.value.code == MalformedMessage.code
        assert cache.subscriptions() == before == [USER_QUERY]
        assert cache.entry(RES_QUERY) is None
    finally:
        server.stop()


def test_background_refresh_loop(world, cas_server):
    cache = StatementCache(CacheConfig(
        authority=cas_server.endpoint, refresh_interval=1, max_age=5,
        subscriptions=[USER_QUERY], client_chain=chain_to_map(world.proxy("alice")),
    ))
    server = CacheServer(("127.0.0.1", 0), cache)
    server.start()
    try:
        first = cache.serve_cached(USER_QUERY, int(time.time()))
        deadline = time.time() + 5
        while time.time() < deadline:
            current = cache.serve_cached(USER_QUERY, int(time.time()))
            if current.issued_at > first.issued_at:
                break
            time.sleep(0.1)
        else:
            pytest.fail("refresh loop never refetched the subscription")
    finally:
        server.stop()


def test_mirror_survives_malformed_authority_answers(world):
    """A stub authority answers with malformed statements: the mirror still
    starts, reports each refresh as failed, keeps serving the last good
    statement, and its refresh thread lives on."""
    now = int(time.time())
    good = statement_to_map(sign_statement(world.cas.keys, RES_QUERY, {"listing": {}},
                                           now, now + 3600))
    bad = dict(good, body={"listing": []})
    bad_namespace = dict(good, query={"query": "resource_rights", "namespace": "no-scheme"})
    answers = {"statement": bad}
    served = []

    def authority(kind, payload, chain):
        served.append(kind)
        return dict(answers)

    stub = wire.FrameServer(("127.0.0.1", 0), authority)
    stub.start()
    try:
        cache = StatementCache(CacheConfig(authority=stub.endpoint, refresh_interval=1,
                                           max_age=5, subscriptions=[RES_QUERY]))
        with pytest.raises(CacheMiss):
            cache.serve_cached(RES_QUERY, now)
        answers["statement"] = good
        assert cache.refresh(now) == {"updated": [RES_QUERY], "failed": []}
        kept = cache.serve_cached(RES_QUERY, now)
        for answers["statement"] in (bad_namespace, bad):
            assert cache.refresh(now) == {"updated": [], "failed": [RES_QUERY]}
            assert cache.serve_cached(RES_QUERY, now) is kept

        server = CacheServer(("127.0.0.1", 0), cache)
        server.start()
        try:
            before = len(served)
            deadline = time.time() + 5
            while len(served) < before + 2 and time.time() < deadline:
                time.sleep(0.05)
            assert len(served) >= before + 2, "refresh loop stopped asking the authority"
            assert server._refresher.is_alive()
            assert cache.serve_cached(RES_QUERY, now) is kept
        finally:
            server.stop()
    finally:
        stub.stop()


def test_mirror_refuses_a_statement_for_another_query(world):
    """A refresh answered with a validly signed statement for another query,
    or for this one but already expired, counts as failed, and the mirror
    keeps serving its last good entry."""
    now = int(time.time())
    source = RawSource(answer_frame(world.cas.keys, PULLED, {"listing": {}}, now))
    try:
        cache = StatementCache(CacheConfig(authority=source.endpoint, refresh_interval=1,
                                           max_age=5, subscriptions=[PULLED]))
        kept = cache.serve_cached(PULLED, now)
        expired = answer_frame(world.cas.keys, PULLED, {"listing": {}}, now - 2 * DAY)
        for source.doc in [*misbound_answers(world).values(), expired]:
            assert cache.refresh(now) == {"updated": [], "failed": [PULLED]}
            assert cache.serve_cached(PULLED, now) is kept
    finally:
        source.close()


def test_mirror_with_the_authority_key_refuses_a_badly_signed_refresh(world):
    """Given the authority's key, a refresh answered unsigned, signed by
    another key, or with one signature digit changed counts as failed, and
    the mirror keeps serving its last good entry; a good answer replaces it."""
    now = int(time.time())
    good = answer_frame(world.cas.keys, PULLED, {"listing": {}}, now)
    source = RawSource(good)
    try:
        cache = StatementCache(CacheConfig(authority=source.endpoint, refresh_interval=1,
                                           max_age=5, subscriptions=[PULLED],
                                           authority_public=world.cas.keys.public()))
        kept = cache.serve_cached(PULLED, now)
        answer = parse_canonical(good)
        statement = answer["body"]["statement"]
        unsigned = {key: value for key, value in statement.items() if key != "signature"}
        flipped = dict(statement, signature=format(int(statement["signature"][0], 16) ^ 1, "x")
                       + statement["signature"][1:])
        bad = [canonical_json(dict(answer, body={"statement": doc})) for doc in (unsigned, flipped)]
        bad.append(answer_frame(generate_keys(), PULLED, {"listing": {}}, now))
        for source.doc in bad:
            assert cache.refresh(now) == {"updated": [], "failed": [PULLED]}
            assert cache.serve_cached(PULLED, now) is kept
        source.doc = answer_frame(world.cas.keys, PULLED, {"listing": {}}, now + 1)
        assert cache.refresh(now) == {"updated": [PULLED], "failed": []}
        assert cache.serve_cached(PULLED, now) is not kept
    finally:
        source.close()
