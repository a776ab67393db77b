"""The factored-out decision point must agree with inline enforcement."""

from __future__ import annotations

import time

import pytest

from caslite import wire
from caslite.assertions import assertion_to_map, embed_in_proxy, issue_assertion
from caslite.authz import (
    AuthzConfig,
    AuthzServer,
    assertion_rights,
    decide_local,
    query_from_payload,
    vouch_assertion,
)
from caslite.credentials import chain_from_map, chain_to_map
from caslite.errors import (
    CasliteError, DeniedError, MalformedMessage, MalformedPattern, ServerError,
)
from caslite.keys import CheckedMemo, generate_keys
from caslite.statements import StatementFetcher
from caslite.vault import ResourceConfig, ResourceService

import oracles
from worldlib import (
    ALICE, BOB, CAROL, CAS, DAY, NOW, PULLED, USER_NAMES, RawSource, fixture_db, fixture_site,
    misbound_answers,
)


@pytest.fixture(scope="module")
def assertions(world):
    db = fixture_db()
    return {
        user: issue_assertion(db, world.cas.keys, CAS, user, now=NOW)
        for user in (ALICE, BOB, oracles.ANN)
    }


def test_allow_with_presented_assertion(world, assertions):
    q = {"identity": ALICE, "action": "read",
         "object": "vo://esg/data/public/a.nc", "assertion": assertion_to_map(assertions[ALICE])}
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, memo=CheckedMemo())
    assert answer["allow"] and answer["reason"] == "ok"


def test_subject_binding(world, assertions):
    q = {"identity": ALICE, "action": "read",
         "object": "vo://esg/data/public/a.nc", "assertion": assertion_to_map(assertions[BOB])}
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, memo=CheckedMemo())
    assert not answer["allow"] and "does not match" in answer["reason"]


def test_bad_signature_denies(world, assertions):
    q = {"identity": ALICE, "action": "read",
         "object": "vo://esg/data/public/a.nc", "assertion": assertion_to_map(assertions[ALICE])}
    answer = decide_local(q, world.site, generate_keys().public(), CAS, NOW, memo=CheckedMemo())
    assert not answer["allow"] and "BadSignature" in answer["reason"]


def test_membership_assertion_denies_at_vo_user(world):
    """Without a group rights map a valid membership assertion denies, and the
    denial is the one the shared assertion check gives the vault."""
    membership = issue_assertion(fixture_db(), world.cas.keys, CAS, ALICE,
                                 mode="membership", now=NOW)
    q = {"identity": ALICE, "action": "read",
         "object": "vo://esg/data/public/a.nc", "assertion": assertion_to_map(membership)}
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, memo=CheckedMemo())
    with pytest.raises(DeniedError) as shared:
        assertion_rights(vouch_assertion(membership, world.cas.keys.public(), CAS), ALICE, NOW)
    assert shared.value.decision.stage == "vo_user"
    assert not answer["allow"] and answer["reason"] == shared.value.decision.reason


def test_no_policy_available_denies(world):
    q = {"identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc"}
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, memo=CheckedMemo())
    assert not answer["allow"]
    assert answer["reason"] == "no community policy available"


def test_unreachable_pull_source_becomes_deny_answer(world):
    fetcher = StatementFetcher(("127.0.0.1", 1), "vo://**", world.cas.keys.public())
    q = {"identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc"}
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, fetcher,
                          memo=CheckedMemo())
    assert not answer["allow"] and "SourceUnavailable" in answer["reason"]


@pytest.mark.parametrize("case", ["wider_namespace", "user_rights"])
def test_pull_refuses_a_statement_for_another_query(world, case):
    """A pull source answering another query with a validly signed statement
    becomes a deny answer, never an allow and never Internal."""
    source = RawSource(misbound_answers(world)[case])
    server = AuthzServer(("127.0.0.1", 0), AuthzConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        pull_source=source.endpoint, pull_namespace=PULLED["namespace"]))
    server.start()
    try:
        answer = wire.call(server.endpoint, "decide", {
            "identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc"})
        assert answer["allow"] is False and "SourceUnavailable" in answer["reason"]
    finally:
        server.stop()
        source.close()


def test_attributes_are_refused(world, assertions, authz_server):
    """No field of a query is ignored: ``attributes``, which no decision
    reads, is refused as malformed, in process and over the wire, with or
    without an assertion, and the server then still answers a good query."""
    good = {"identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc",
            "assertion": assertion_to_map(assertions[ALICE])}
    for payload in (good, {k: v for k, v in good.items() if k != "assertion"}):
        with_attributes = {**payload, "attributes": ["role=pilot"]}
        with pytest.raises(MalformedMessage, match="decision payload has wrong fields"):
            query_from_payload(with_attributes)
        with pytest.raises(ServerError) as refused:
            wire.call(authz_server.endpoint, "decide", with_attributes)
        assert refused.value.code == "MalformedMessage"
        assert "decision payload has wrong fields" in refused.value.message
    assert wire.call(authz_server.endpoint, "decide", good) == {"allow": True, "reason": "ok"}


def test_decision_matches_inline_enforcement(world, assertions):
    """PDP answers equal PEP decisions for the whole fixture table."""
    cfg = ResourceConfig(site=world.site, cas_public=world.cas.keys.public(),
                         cas_identity=CAS, anchors=world.anchors)
    service = ResourceService(cfg)
    chains = {
        ALICE: embed_in_proxy(world.proxy("alice"), assertions[ALICE]),
        BOB: embed_in_proxy(world.proxy("bob"), assertions[BOB]),
        oracles.ANN: embed_in_proxy(world.proxy("admin-ann"), assertions[oracles.ANN]),
    }
    for user, action, obj in oracles.universe():
        if user == CAROL:
            continue
        q = {"identity": user, "action": action, "object": obj,
             "assertion": assertion_to_map(assertions[user])}
        answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW,
                              memo=CheckedMemo())
        decision = service.authorize(chains[user], action, obj, NOW)
        assert answer["allow"] == decision.allow, (user, action, obj)


def test_pulled_decision_matches_pull_enforcement(world, cas_server):
    """Answers from a pulled listing equal pull-mode vault decisions."""
    cfg = ResourceConfig(site=world.site, cas_public=world.cas.keys.public(),
                         cas_identity=CAS, anchors=world.anchors, mode="pull",
                         pull_source=cas_server.endpoint, pull_namespace="vo://esg/**",
                         client_chain=chain_to_map(world.proxy("alice")))
    service = ResourceService(cfg)
    fetcher = StatementFetcher(cas_server.endpoint, "vo://esg/**", world.cas.keys.public(),
                               chain_to_map(world.proxy("alice")))
    shorts = {user: short for short, user in USER_NAMES.items()}
    now = int(time.time())
    for user, action, obj in oracles.universe():
        q = {"identity": user, "action": action, "object": obj}
        answer = decide_local(q, world.site, world.cas.keys.public(), CAS, now, fetcher,
                              memo=CheckedMemo())
        decision = service.authorize(world.proxy(shorts[user]), action, obj, now)
        assert answer["allow"] == decision.allow, (user, action, obj)
        if not decision.allow:
            assert answer["reason"] == f"{decision.stage}: {decision.reason}"


def test_pull_vault_decides_a_community_chain_from_the_listing(world, cas_server):
    """A pull vault decides a chain the community issued from the pulled
    listing, never from its restriction: alice's restricted chain, which a
    push vault honours, names only the community server, to whom the
    listing grants nothing."""
    restricted = chain_from_map(wire.call(
        cas_server.endpoint, "get_credential", {"mode": "restricted_proxy"},
        chain=chain_to_map(world.proxy("alice")))["chain"])
    common = dict(site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
                  anchors=world.anchors)
    push = ResourceService(ResourceConfig(**common))
    pull = ResourceService(ResourceConfig(
        **common, mode="pull", pull_source=cas_server.endpoint, pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice"))))
    now = int(time.time())
    assert push.authorize(restricted, "read", "vo://esg/data/public/a.nc", now).allow
    decision = pull.authorize(restricted, "read", "vo://esg/data/public/a.nc", now)
    assert not decision.allow and decision.stage == "vo_user"


def test_query_payload_strictness():
    with pytest.raises(MalformedMessage):
        query_from_payload({"identity": ALICE})
    with pytest.raises(MalformedMessage):
        query_from_payload({"identity": ALICE, "action": "fly", "object": "vo://x/y"})
    with pytest.raises(MalformedMessage, match="wrong fields"):
        query_from_payload({"identity": ALICE, "action": "read",
                            "object": "vo://esg/data/a", "attributes": ["k=v"]})
    # The query's own fields are read before its assertion.
    with pytest.raises(MalformedPattern):
        query_from_payload({"identity": ALICE, "action": "read", "object": "no scheme",
                            "assertion": {"x": 1}})


def test_answers_in_process_equal_answers_over_the_wire(world, assertions):
    """``decide_local`` is the one reader of a decide request: a payload
    decided in process with a fresh memo and the same payload sent to an
    :class:`AuthzServer` get one body, or one error code and message,
    whether allowed, denied at any stage or refused."""
    site = fixture_site(blacklist=frozenset({BOB}))
    key, source = world.cas.keys.public(), ("127.0.0.1", 1)  # a source that refuses
    server = AuthzServer(("127.0.0.1", 0), AuthzConfig(
        site=site, cas_public=key, cas_identity=CAS, pull_source=source,
        pull_namespace=PULLED["namespace"]))
    fetcher = StatementFetcher(source, PULLED["namespace"], key)
    alice, bob = (assertion_to_map(assertions[user]) for user in (ALICE, BOB))
    forged = {**alice, "signature": ("1" if alice["signature"][0] == "0" else "0")
              + alice["signature"][1:]}
    expired = assertion_to_map(issue_assertion(fixture_db(), world.cas.keys, CAS, ALICE,
                                               lifetime=600, now=int(time.time()) - DAY))
    membership = assertion_to_map(issue_assertion(fixture_db(), world.cas.keys, CAS, ALICE,
                                                  mode="membership", now=NOW))
    public, code = "vo://esg/data/public/a.nc", "vo://esg/code/x"

    def query(identity, action, obj, assertion=None, **extra):
        payload = {"identity": identity, "action": action, "object": obj, **extra}
        return payload if assertion is None else {**payload, "assertion": assertion}

    requests = [
        (query(ALICE, "read", public, alice), "ok"),
        (query(ALICE, "read", code, alice), "site_vo: "),
        (query(BOB, "write", public, bob), "vo_user: "),
        (query(BOB, "read", public, bob), "site_user: "),
        (query(ALICE, "read", public, forged), "assertion rejected: BadSignature"),
        (query(ALICE, "read", public, bob), f"assertion subject {BOB} does not match"),
        (query(ALICE, "read", public, expired), "assertion rejected: Expired"),
        (query(ALICE, "read", public, membership), "membership assertion presented"),
        (query(ALICE, "read", public), "SourceUnavailable: policy source unreachable"),
        (query(ALICE, "read", public, alice, attributes=[]), "MalformedMessage: decision payload"),
        (query(ALICE, "read", "no scheme", forged), "MalformedPattern: "),
    ]

    def outcome(decide):
        try:
            body = decide()
        except CasliteError as exc:
            return exc.code, exc.message
        assert body["allow"] is (body["reason"] == "ok")
        return "ok", body

    server.start()
    try:
        for payload, expected in requests:
            here = outcome(lambda: decide_local(payload, site, key, CAS, int(time.time()),
                                                fetcher, memo=CheckedMemo()))
            there = outcome(lambda: wire.call(server.endpoint, "decide", payload))
            assert here == there, payload
            text = here[1]["reason"] if here[0] == "ok" else f"{here[0]}: {here[1]}"
            assert text.startswith(expected), (payload, here)
    finally:
        server.stop()


@pytest.fixture()
def authz_server(world, cas_server):
    server = AuthzServer(("127.0.0.1", 0), AuthzConfig(
        site=world.site,
        cas_public=world.cas.keys.public(),
        cas_identity=CAS,
        pull_source=cas_server.endpoint,
        pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice")),
    ))
    server.start()
    yield server
    server.stop()


def test_serve_decisions_both_paths(world, assertions, authz_server):
    with_assertion = wire.call(authz_server.endpoint, "decide", {
        "identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc",
        "assertion": assertion_to_map(assertions[ALICE]),
    })
    assert with_assertion == {"allow": True, "reason": "ok"}
    via_pull = wire.call(authz_server.endpoint, "decide", {
        "identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc",
    })
    assert via_pull == {"allow": True, "reason": "ok"}
    denied = wire.call(authz_server.endpoint, "decide", {
        "identity": BOB, "action": "write", "object": "vo://esg/data/public/a.nc",
    })
    assert denied["allow"] is False and "vo_user" in denied["reason"]


def test_identical_concurrent_queries_agree(world, assertions, authz_server):
    import threading

    payload = {
        "identity": ALICE, "action": "read", "object": "vo://esg/data/public/a.nc",
        "assertion": assertion_to_map(assertions[ALICE]),
    }
    answers = []
    threads = [
        threading.Thread(target=lambda: answers.append(
            wire.call(authz_server.endpoint, "decide", payload)))
        for _ in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(answers) == 6
    assert all(a == answers[0] for a in answers)


def test_malformed_query_leaves_server_usable(authz_server):
    from caslite.errors import ServerError

    with pytest.raises(ServerError):
        wire.call(authz_server.endpoint, "decide", {"identity": "nonsense"})
    assert wire.call(authz_server.endpoint, "ping")["identity"] == "authz"
