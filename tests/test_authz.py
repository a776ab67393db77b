"""The factored-out decision point must agree with inline enforcement."""

from __future__ import annotations

import time

import pytest

from caslite import wire
from caslite.assertions import assertion_to_map, embed_in_proxy, issue_assertion
from caslite.authz import (
    AuthzConfig,
    AuthzServer,
    DecisionQuery,
    decide_local,
    query_from_payload,
)
from caslite.credentials import chain_to_map
from caslite.errors import DeniedError, MalformedMessage
from caslite.keys import generate_keys
from caslite.statements import StatementFetcher
from caslite.vault import ResourceConfig, ResourceService, assertion_rights

import oracles
from worldlib import (
    ALICE, BOB, CAROL, CAS, NOW, PULLED, USER_NAMES, RawSource, fixture_db, misbound_answers,
)


@pytest.fixture(scope="module")
def assertions(world):
    db = fixture_db()
    return {
        user: issue_assertion(db, world.cas.keys, CAS, user, now=NOW)
        for user in (ALICE, BOB, oracles.ANN)
    }


def test_allow_with_presented_assertion(world, assertions):
    q = DecisionQuery(identity=ALICE, action="read",
                      object="vo://esg/data/public/a.nc", assertion=assertions[ALICE])
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW)
    assert answer.allow and answer.reason == "ok"


def test_subject_binding(world, assertions):
    q = DecisionQuery(identity=ALICE, action="read",
                      object="vo://esg/data/public/a.nc", assertion=assertions[BOB])
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW)
    assert not answer.allow and "does not match" in answer.reason


def test_bad_signature_denies(world, assertions):
    q = DecisionQuery(identity=ALICE, action="read",
                      object="vo://esg/data/public/a.nc", assertion=assertions[ALICE])
    answer = decide_local(q, world.site, generate_keys().public(), CAS, NOW)
    assert not answer.allow and "BadSignature" in answer.reason


def test_membership_assertion_denies_at_vo_user(world):
    """Without a group rights map a valid membership assertion denies, and the
    denial is the one the shared assertion check gives the vault."""
    membership = issue_assertion(fixture_db(), world.cas.keys, CAS, ALICE,
                                 mode="membership", now=NOW)
    q = DecisionQuery(identity=ALICE, action="read",
                      object="vo://esg/data/public/a.nc", assertion=membership)
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW)
    with pytest.raises(DeniedError) as shared:
        assertion_rights(membership, ALICE, world.cas.keys.public(), CAS, None, NOW)
    assert shared.value.decision.stage == "vo_user"
    assert not answer.allow and answer.reason == shared.value.decision.reason


def test_no_policy_available_denies(world):
    q = DecisionQuery(identity=ALICE, action="read", object="vo://esg/data/public/a.nc")
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW)
    assert not answer.allow
    assert answer.reason == "no community policy available"


def test_unreachable_pull_source_becomes_deny_answer(world):
    fetcher = StatementFetcher(("127.0.0.1", 1), "vo://**", world.cas.keys.public())
    q = DecisionQuery(identity=ALICE, action="read", object="vo://esg/data/public/a.nc")
    answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW, fetcher)
    assert not answer.allow and "SourceUnavailable" in answer.reason


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


def test_attributes_are_accepted_but_unused(world, assertions):
    q = DecisionQuery(identity=ALICE, attributes=frozenset({"role=pilot", "org=lab"}),
                      action="read", object="vo://esg/data/public/a.nc",
                      assertion=assertions[ALICE])
    assert decide_local(q, world.site, world.cas.keys.public(), CAS, NOW).allow
    with pytest.raises(MalformedMessage):
        DecisionQuery(identity=ALICE, attributes=frozenset({"role=a", "role=b"}),
                      action="read", object="vo://esg/data/x")


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
        q = DecisionQuery(identity=user, action=action, object=obj,
                          assertion=assertions[user])
        answer = decide_local(q, world.site, world.cas.keys.public(), CAS, NOW)
        decision = service.authorize(chains[user], action, obj, NOW)
        assert answer.allow == decision.allow, (user, action, obj)


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
        q = DecisionQuery(identity=user, action=action, object=obj)
        answer = decide_local(q, world.site, world.cas.keys.public(), CAS, now, fetcher)
        decision = service.authorize(world.proxy(shorts[user]), action, obj, now)
        assert answer.allow == decision.allow, (user, action, obj)
        if not decision.allow:
            assert answer.reason == f"{decision.stage}: {decision.reason}"


def test_query_payload_strictness():
    with pytest.raises(MalformedMessage):
        query_from_payload({"identity": ALICE})
    with pytest.raises(MalformedMessage):
        query_from_payload({"identity": ALICE, "action": "fly", "object": "vo://x/y"})
    q = query_from_payload({"identity": ALICE, "action": "read",
                            "object": "vo://esg/data/a", "attributes": ["k=v"]})
    assert q.attributes == frozenset({"k=v"})


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
