"""Remembered credential checks at the vault, the decision service and the
authority.

Each presented chain or assertion map is checked once without the clock, and
the result is remembered by the service under the SHA-256 of the map's
canonical bytes. The validity windows, the binding to the requester and the
decision run on every request, so a remembered document must answer exactly
as a cold check would, and any changed byte must be checked afresh.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import socket
import struct
import sys
import threading
import types
from pathlib import Path

import pytest

from caslite import authz, canonical, keys, server as server_module, vault, wire
from caslite.assertions import (
    PolicyAssertion,
    assertion_bytes,
    assertion_to_map,
    embed_in_proxy,
    issue_assertion,
    issue_restricted_proxy,
    verify_assertion,
)
from caslite.authz import AuthzConfig, AuthzServer
from caslite.canonical import canonical_json
from caslite.credentials import (
    CLOCK_SKEW,
    CredentialChain,
    DelegationLink,
    EndEntityCredential,
    chain_from_map,
    chain_to_map,
    issue_eec,
    issue_proxy,
    make_ca,
    verify_chain,
)
from caslite.errors import AuthFailed, CasliteError, MalformedMessage, ServerError
from caslite.server import CasServer
from caslite.vault import ObjectStore, ResourceConfig, ResourceService, VaultServer

from test_wire import _mutations
from worldlib import ALICE, BOB, CAS, DAY, NOW

OBJ = "vo://esg/data/public/a.nc"
HEX_FIELDS = {"public_part", "signature", "extension"}
LISTING = {"query": "resource_rights", "namespace": "vo://esg/**"}


def push_config(world, anchors=None):
    return ResourceConfig(
        site=world.site,
        cas_public=world.cas.keys.public(),
        cas_identity=CAS,
        anchors=world.anchors if anchors is None else anchors,
    )


def pull_config(world, source):
    return ResourceConfig(
        site=world.site,
        cas_public=world.cas.keys.public(),
        cas_identity=CAS,
        anchors=world.anchors,
        mode="pull",
        pull_source=source,
        pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice")),
    )


def authz_config(world, cas_public=None):
    return AuthzConfig(site=world.site, cas_public=cas_public or world.cas.keys.public(),
                       cas_identity=CAS)


def alice_assertion(world, now=NOW, lifetime=3600):
    return issue_assertion(world.db, world.cas.keys, CAS, ALICE, now=now, lifetime=lifetime)


def alice_chain(world):
    return embed_in_proxy(world.proxy("alice"), alice_assertion(world))


def decide_payload(assertion_doc):
    return {"identity": ALICE, "action": "read", "object": OBJ, "assertion": assertion_doc}


@pytest.fixture
def parses(monkeypatch):
    """Count chain and assertion map parses and signing-payload encodes."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vault, "chain_from_map", counting("chain_from_map", vault.chain_from_map))
    monkeypatch.setattr(server_module, "chain_from_map",
                        counting("chain_from_map", server_module.chain_from_map))
    monkeypatch.setattr(authz, "assertion_from_map",
                        counting("assertion_from_map", authz.assertion_from_map))
    for cls in (EndEntityCredential, DelegationLink, PolicyAssertion):
        monkeypatch.setattr(cls, "signing_payload",
                            counting("signing_payload", cls.signing_payload))
    return calls


# --- single-digit flips and byte-mutated frames over the wire ------------------------------

def _flips(doc):
    """Copies of ``doc`` with one signed value changed: each hex digit of a
    key, signature or extension in turn, and one character or digit of
    every other field."""
    def edits(value, hex_field):
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            yield value + 1
        elif hex_field:
            for i, c in enumerate(value):
                yield value[:i] + format(int(c, 16) ^ 1, "x") + value[i + 1:]
        elif isinstance(value, str):
            i = len(value) // 2
            yield value[:i] + ("x" if value[i] != "x" else "y") + value[i + 1:]
        elif isinstance(value, dict):
            for key in value:
                for edited in edits(value[key], key in HEX_FIELDS):
                    yield {**value, key: edited}
        elif isinstance(value, list):
            for i, item in enumerate(value):
                for edited in edits(item, False):
                    yield value[:i] + [edited] + value[i + 1:]

    yield from edits(doc, False)


def _frame_mutations(request: dict, signed: dict):
    """The request's frame cut short at 40 points, and with one byte inserted
    at 60 points inside the signed document's bytes."""
    data = canonical_json(request)
    span = canonical_json(signed)
    start = data.index(span)
    for k in range(1, 41):
        yield data[: len(data) * k // 41]
    inserts = (b"0", b"a", b"x", b" ", b'"', b"\\", b"\xff", b"}", b",", b"9")
    for k in range(60):
        at = start + 1 + (len(span) - 2) * k // 60
        yield data[:at] + inserts[k % len(inserts)] + data[at:]


def _chain_answer(endpoint, kind, payload, chain_doc):
    try:
        wire.call(endpoint, kind, payload, chain=chain_doc)
    except ServerError as exc:
        return exc.code, exc.message
    return "allow", ""


def _vault_answer(endpoint, chain_doc):
    return _chain_answer(endpoint, "read", {"path": OBJ}, chain_doc)


def _authority_answer(endpoint, chain_doc):
    return _chain_answer(endpoint, "query", LISTING, chain_doc)


def _authz_answer(endpoint, assertion_doc):
    try:
        body = wire.call(endpoint, "decide", decide_payload(assertion_doc))
    except ServerError as exc:
        return exc.code, exc.message
    return ("allow" if body["allow"] else "deny"), body["reason"]


def _refused(kind, answer):
    code, message = answer
    if kind == "authz" and code == "deny":
        return message.startswith("assertion rejected:")
    if code == "Denied":
        return message.startswith("stage=credential")
    return code not in ("allow", "deny", "Internal")


def _raw_answer(sock, data):
    sock.sendall(struct.pack(">I", len(data)) + data)
    response = wire.read_frame(sock)
    assert response is not None
    return _answer(response)


def _answer(response):
    if not response["ok"]:
        return response["error"]["code"], response["error"]["message"]
    body = response["body"]
    if "allow" in body:
        return ("allow" if body["allow"] else "deny"), body["reason"]
    return "allow", ""


@pytest.mark.parametrize("kind", ["push", "pull", "authz", "authority"])
def test_flipped_signed_hex_digit_denies_after_allow(world, cas_server, kind):
    """Warm each service with a pristine document, then present every
    single-digit flip of its signed fields and byte-mutated frames: each
    answer is a deny at stage credential or a domain error, never allow or
    ``Internal`` (``AuthFailed`` for every flip at the authority); the
    pristine document is still allowed afterwards."""
    if kind == "authority":
        server = CasServer(cas_server.config)
        docs = [chain_to_map(world.proxy("alice"))]
        answer = _authority_answer
        request = lambda doc: {"kind": "query", "payload": LISTING, "chain": doc}
    elif kind == "authz":
        server = AuthzServer(("127.0.0.1", 0), authz_config(world))
        docs = [assertion_to_map(alice_assertion(world, lifetime=DAY))]
        answer = _authz_answer
        request = lambda doc: {"kind": "decide", "payload": decide_payload(doc)}
    else:
        cfg = push_config(world) if kind == "push" else pull_config(world, cas_server.endpoint)
        server = VaultServer(("127.0.0.1", 0), ResourceService(cfg, ObjectStore({OBJ: b"x"})))
        if kind == "push":
            restricted = issue_restricted_proxy(world.cas_chain, world.db, ALICE, now=NOW)
            docs = [chain_to_map(alice_chain(world)), chain_to_map(restricted)]
        else:
            docs = [chain_to_map(world.proxy("alice"))]
        answer = _vault_answer
        request = lambda doc: {"kind": "read", "payload": {"path": OBJ}, "chain": doc}
    server.start()
    try:
        for doc in docs:
            assert answer(server.endpoint, doc)[0] == "allow"
            flips = 0
            for flipped in _flips(doc):
                got = answer(server.endpoint, flipped)
                assert _refused(kind, got), (flipped, got)
                assert kind != "authority" or got[0] == "AuthFailed", (flipped, got)
                flips += 1
            assert flips > 128  # a 64-byte signature alone gives 128
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                for data in _frame_mutations(request(doc), doc):
                    got = _raw_answer(sock, data)
                    assert _refused(kind, got), (data, got)
            assert answer(server.endpoint, doc)[0] == "allow"
    finally:
        server.stop()


# --- clock edges on the hit path -----------------------------------------------------------

WIDE = (NOW - 1000, NOW + 20_000)
EDGE = (NOW, NOW + 10_000)


def _edge_chain(world, windows, assertion):
    eec = issue_eec(world.ca, ALICE, windows[0])
    proxy = issue_proxy(CredentialChain(eec=eec), windows[1])
    return issue_proxy(proxy, windows[2], extension=assertion_bytes(assertion))


def _cold_reason(world, chain, assertion, now):
    """The deny reason a check from scratch gives, or None when it passes."""
    try:
        verify_chain(chain, world.anchors, now)
    except CasliteError as exc:
        return f"chain rejected: {exc.code}: {exc.message}"
    try:
        verify_assertion(assertion, world.cas.keys.public(), CAS, now)
    except CasliteError as exc:
        return f"assertion rejected: {exc.code}"
    return None


@pytest.mark.parametrize("edge", ["end-entity", "link 1", "link 2", "assertion"])
def test_remembered_chain_keeps_every_clock_edge(world, parses, edge):
    """The remembered chain is allowed up to ``CLOCK_SKEW`` beyond either edge
    of the element whose window binds, and denied one second further, with
    the message a cold check gives."""
    if edge == "assertion":
        windows = [WIDE, WIDE, WIDE]
        assertion = alice_assertion(world, now=EDGE[0], lifetime=EDGE[1] - EDGE[0])
    else:
        index = ("end-entity", "link 1", "link 2").index(edge)
        windows = [WIDE] * index + [EDGE] * (3 - index)
        assertion = alice_assertion(world, now=WIDE[0], lifetime=WIDE[1] - WIDE[0])
    chain = _edge_chain(world, windows, assertion)
    doc = chain_to_map(chain)
    service = ResourceService(push_config(world))
    assert service.authorize(doc, "read", OBJ, NOW + 1).allow
    not_before, not_after = EDGE
    parses.clear()
    for now, allowed in ((not_after + CLOCK_SKEW, True), (not_before - CLOCK_SKEW, True),
                         (not_after + CLOCK_SKEW + 1, False),
                         (not_before - CLOCK_SKEW - 1, False)):
        decision = service.authorize(doc, "read", OBJ, now)
        assert parses == []  # answered from the remembered check
        assert decision.allow is allowed, now
        cold = _cold_reason(world, chain, assertion, now)
        if allowed:
            assert cold is None
        else:
            assert decision.stage == "credential"
            assert decision.reason == cold
            kind = "Expired" if now > not_after else "NotYetValid"
            assert kind in decision.reason
        parses.clear()


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_chain_remembered_while_valid_expires(world, cas_server, parses, mode):
    proxy = world.proxy("alice", lifetime=600)
    if mode == "push":
        chain = embed_in_proxy(proxy, alice_assertion(world, lifetime=DAY))
        cfg = push_config(world)
    else:
        chain, cfg = proxy, pull_config(world, cas_server.endpoint)
    doc = chain_to_map(chain)
    service = ResourceService(cfg)
    assert service.authorize(doc, "read", OBJ, NOW).allow
    parses.clear()
    decision = service.authorize(doc, "read", OBJ, NOW + 600 + CLOCK_SKEW + 1)
    assert parses == []  # answered from the remembered check
    assert not decision.allow and decision.stage == "credential"
    assert decision.reason.startswith("chain rejected: Expired: element 1 expired")
    assert service.authorize(doc, "read", OBJ, NOW).allow


def test_remembered_assertion_keeps_its_window_at_authz(world):
    server = AuthzServer(("127.0.0.1", 0), authz_config(world))
    assertion = alice_assertion(world, lifetime=600)
    payload = decide_payload(assertion_to_map(assertion))
    answers = []
    for now in (NOW, NOW + 600 + CLOCK_SKEW, NOW + 600 + CLOCK_SKEW + 1, NOW - CLOCK_SKEW - 1):
        answers.append(authz.decide_local(payload, world.site, world.cas.keys.public(), CAS, now,
                                          memo=server._checked))
    assert [a["allow"] for a in answers] == [True, True, False, False]
    assert answers[2]["reason"] == "assertion rejected: Expired"
    assert answers[3]["reason"] == "assertion rejected: NotYetValid"


def test_authority_keeps_a_remembered_caller_chain_window(world, cas_server, monkeypatch,
                                                          parses):
    """The authority answers a remembered caller chain up to ``CLOCK_SKEW``
    beyond either edge of its window and refuses it one second further,
    without parsing it again."""
    doc = chain_to_map(world.proxy("alice", lifetime=600))
    clock = [NOW]
    monkeypatch.setattr(server_module, "time", types.SimpleNamespace(time=lambda: clock[0]))
    assert cas_server.handle("query", LISTING, doc)
    parses.clear()
    for now, refusal in ((NOW + 600 + CLOCK_SKEW, None), (NOW - CLOCK_SKEW, None),
                         (NOW + 600 + CLOCK_SKEW + 1, "Expired: element 1 expired"),
                         (NOW - CLOCK_SKEW - 1, "NotYetValid: element 1 not valid")):
        clock[0] = now
        if refusal is None:
            assert cas_server.handle("query", LISTING, doc)
        else:
            with pytest.raises(AuthFailed, match=f"^caller chain rejected: {refusal}"):
                cas_server.handle("query", LISTING, doc)
    assert parses == []


# --- isolation, bound, failures and work on a hit ------------------------------------------

def test_memo_belongs_to_one_service(world):
    doc = chain_to_map(alice_chain(world))
    trusting = ResourceService(push_config(world))
    stranger = ResourceService(push_config(world, anchors=(make_ca("otherca", now=NOW - DAY),)))
    assert trusting.authorize(doc, "read", OBJ, NOW).allow
    decision = stranger.authorize(doc, "read", OBJ, NOW)
    assert not decision.allow and decision.stage == "credential"
    assert "UntrustedRoot" in decision.reason
    assert trusting.authorize(doc, "read", OBJ, NOW).allow

    payload = decide_payload(assertion_to_map(alice_assertion(world)))
    good = AuthzServer(("127.0.0.1", 0), authz_config(world))
    other = AuthzServer(("127.0.0.1", 0), authz_config(world, keys.generate_keys().public()))
    assert good.handle("decide", payload, None) == {"allow": True, "reason": "ok"}
    assert other.handle("decide", payload, None) == {
        "allow": False, "reason": "assertion rejected: BadSignature"}


def test_memo_stays_within_its_bound(world, monkeypatch, parses):
    monkeypatch.setattr(keys, "CHECKED_MEMO_SIZE", 3)
    service = ResourceService(push_config(world))
    docs = [chain_to_map(issue_proxy(CredentialChain(eec=world.eec("alice")),
                                     (NOW, NOW + 600 + i)))
            for i in range(6)]
    for doc in docs:
        service.authorize(doc, "read", OBJ, NOW)
        assert len(service._checked._entries) <= 3
    parses.clear()
    service.authorize(docs[-1], "read", OBJ, NOW)
    assert "chain_from_map" not in parses  # the newest is still remembered
    service.authorize(docs[0], "read", OBJ, NOW)
    assert "chain_from_map" in parses  # the oldest was evicted
    assert len(service._checked._entries) == 3


def _flip_hex(doc, *path):
    """A copy of ``doc`` with the first hex digit at ``path`` changed."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for step in path[:-1]:
        node = node[step]
    value = node[path[-1]]
    node[path[-1]] = format(int(value[0], 16) ^ 1, "x") + value[1:]
    return copy


def test_refused_documents_are_remembered_apart_from_passes(world, cas_server, ed25519_checks,
                                                           parses):
    """A refused document is checked once: presented again, it costs no
    parse of its map and no Ed25519 check, and gets the same answer. It is
    remembered apart from the passes, which stay empty."""
    service = ResourceService(push_config(world))
    good = alice_chain(world)
    forged = dataclasses.replace(alice_assertion(world), db_revision=99)
    framed = b'{"caslite":"assertion/1","broken":'
    failing = {
        "bad signature": _flip_hex(chain_to_map(good), "links", 0, "signature"),
        "forged assertion": chain_to_map(embed_in_proxy(world.proxy("alice"), forged)),
        "malformed extension": chain_to_map(
            issue_proxy(world.proxy("alice"), (NOW, NOW + 600), extension=framed)),
        "untrusted root": chain_to_map(
            issue_proxy(CredentialChain(eec=make_ca("rogue", now=NOW - DAY)), (NOW, NOW + 600))),
    }
    for name, doc in failing.items():
        checks, maps, decisions = [], [], []
        for _ in range(3):
            before = len(ed25519_checks), parses.count("chain_from_map")
            decision = service.authorize(doc, "read", OBJ, NOW)
            assert not decision.allow and decision.stage == "credential", name
            checks.append(len(ed25519_checks) - before[0])
            maps.append(parses.count("chain_from_map") - before[1])
            decisions.append(decision)
        assert maps == [1, 0, 0] and checks[1:] == [0, 0], (name, maps, checks)
        assert decisions[0] == decisions[1] == decisions[2], name
        if name in ("bad signature", "forged assertion"):
            assert checks[0] >= 1, (name, checks)
    assert len(service._checked._entries) == 0
    assert len(service._checked._refused) == len(failing)

    server = AuthzServer(("127.0.0.1", 0), authz_config(world))
    bad = _flip_hex(assertion_to_map(alice_assertion(world)), "signature")
    checks = []
    for _ in range(3):
        before = len(ed25519_checks)
        assert server.handle("decide", decide_payload(bad), None) == {
            "allow": False, "reason": "assertion rejected: BadSignature"}
        checks.append(len(ed25519_checks) - before)
    assert checks == [1, 0, 0]
    assert len(server._checked._entries) == 0

    # the authority reads no extension, so only the chain's own faults refuse a caller
    for name in ("bad signature", "untrusted root"):
        before = len(ed25519_checks), parses.count("chain_from_map")
        messages = []
        for _ in range(3):
            with pytest.raises(AuthFailed, match="^caller chain rejected: ") as refused:
                cas_server.handle("query", LISTING, failing[name])
            messages.append(refused.value.message)
        assert parses.count("chain_from_map") == before[1] + 1, name
        assert len(set(messages)) == 1, messages
        if name == "bad signature":
            assert len(ed25519_checks) == before[0] + 2
    assert len(cas_server._checked._entries) == 0


def test_a_refused_assertion_is_checked_once_at_authz(world, ed25519_checks, parses):
    """A badly signed assertion costs the decision service one parse of its
    map and one Ed25519 check in all, however often it comes, in process or
    over the wire, and is refused only once the query's own fields pass:
    from an identity that is not one, the same frame is malformed."""
    server = AuthzServer(("127.0.0.1", 0), authz_config(world))
    server.start()
    try:
        bad = _flip_hex(assertion_to_map(alice_assertion(world)), "signature")
        asks = (lambda payload: server.handle("decide", payload, None),
                lambda payload: wire.call(server.endpoint, "decide", payload))
        for ask in asks:
            for _ in range(3):
                assert ask(decide_payload(bad)) == {
                    "allow": False, "reason": "assertion rejected: BadSignature"}
        assert len(ed25519_checks) == 1
        assert parses.count("assertion_from_map") == 1
        with pytest.raises(MalformedMessage):
            server.handle("decide", {**decide_payload(bad), "identity": "nobody"}, None)
        with pytest.raises(ServerError) as refused:
            wire.call(server.endpoint, "decide", {**decide_payload(bad), "identity": "nobody"})
        assert refused.value.code == "MalformedMessage"
        assert len(server._checked._entries) == 0
    finally:
        server.stop()


def test_a_tampered_document_is_checked_once(world, ed25519_checks):
    """As in the benchmark's probes: a tampered copy of a chain already
    allowed at a push vault is checked cold the first time, one Ed25519
    check per signature up to the one that fails, and refused from memory
    when it comes again, with no check. Alice's chain with its last link's
    signature flipped costs three checks; a well-signed new link carrying a
    forged assertion costs four, the chain's three and the assertion's. A
    decision service's flipped-signature assertion costs one the first
    time and none after."""
    service = ResourceService(push_config(world))
    good = alice_chain(world)
    assert service.authorize(chain_to_map(good), "read", OBJ, NOW).allow
    forged = dataclasses.replace(alice_assertion(world), db_revision=99)
    tampered = {
        "flipped link signature": _flip_hex(chain_to_map(good), "links", -1, "signature"),
        "forged assertion": chain_to_map(embed_in_proxy(world.proxy("alice"), forged)),
    }
    checks = {name: [] for name in tampered}
    for _ in range(4):
        for name, doc in tampered.items():
            ed25519_checks.clear()
            decision = service.authorize(doc, "read", OBJ, NOW)
            assert not decision.allow and decision.stage == "credential", name
            checks[name].append(len(ed25519_checks))
    assert checks == {"flipped link signature": [3, 0, 0, 0], "forged assertion": [4, 0, 0, 0]}

    server = AuthzServer(("127.0.0.1", 0), authz_config(world))
    assertion = assertion_to_map(alice_assertion(world))
    assert server.handle("decide", decide_payload(assertion), None)["allow"]
    checks = []
    for _ in range(3):
        ed25519_checks.clear()
        assert server.handle("decide", decide_payload(_flip_hex(assertion, "signature")), None) == {
            "allow": False, "reason": "assertion rejected: BadSignature"}
        checks.append(len(ed25519_checks))
    assert checks == [1, 0, 0]


def test_a_check_that_fails_outside_the_domain_runs_every_time(world):
    """A check that raises an exception other than a domain error is not
    remembered: each request runs it again and is answered ``Internal``."""
    service = ResourceService(push_config(world), ObjectStore({OBJ: b"x"}))
    server = VaultServer(("127.0.0.1", 0), service)
    doc = chain_to_map(alice_chain(world))
    calls = []

    def broken(chain, anchors):
        calls.append(chain)
        raise RuntimeError("check crashed")

    server.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vault, "check_chain", broken)
            answers = [_vault_answer(server.endpoint, doc) for _ in range(3)]
        assert answers == [("Internal", "internal server error")] * 3
        assert len(calls) == 3
        assert not service._checked._entries and not service._checked._refused
        assert _vault_answer(server.endpoint, doc) == ("allow", "")
    finally:
        server.stop()


def test_bytes_that_fail_to_parse_are_not_remembered(world, monkeypatch):
    """Bytes that are not canonical never reach the check, in process or
    over the wire, and nothing is remembered of them."""
    memo = keys.CheckedMemo()
    received = keys.Received(b'{"a": 1}')
    checks = []
    for _ in range(2):
        with pytest.raises(MalformedMessage):
            memo.recall(received, checks.append)
    assert checks == [] and not memo.knows(received.key) and not memo._refused

    service = ResourceService(push_config(world), ObjectStore({OBJ: b"x"}))
    server = VaultServer(("127.0.0.1", 0), service)
    span = canonical_json(chain_to_map(alice_chain(world)))
    spaced = span.replace(b'":', b'": ', 1)
    data = b'{"chain":%s,"kind":"read","payload":{"path":"%s"}}' % (spaced, OBJ.encode())
    parsed = []
    real = wire.parse_canonical
    monkeypatch.setattr(wire, "parse_canonical", lambda data: parsed.append(data) or real(data))
    server.start()
    try:
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            for _ in range(2):
                parsed.clear()
                assert _raw_answer(sock, data)[0] == "MalformedRequest"
                assert bytes(spaced) in [bytes(arg) for arg in parsed]
    finally:
        server.stop()
    assert not service._checked.knows(keys.digest(spaced))
    assert not service._checked._entries and not service._checked._refused


def test_a_chain_not_yet_valid_is_allowed_once_it_is(world, parses):
    """A window refusal comes from the clock half, which is never
    remembered: a chain refused ``NotYetValid`` is allowed once its window
    opens, from its remembered time-free pass."""
    assertion = alice_assertion(world, now=WIDE[0], lifetime=WIDE[1] - WIDE[0])
    late = (NOW + 1000, NOW + 5000)
    doc = chain_to_map(_edge_chain(world, [WIDE, WIDE, late], assertion))
    service = ResourceService(push_config(world))
    decision = service.authorize(doc, "read", OBJ, NOW)
    assert not decision.allow and decision.stage == "credential"
    assert decision.reason.startswith("chain rejected: NotYetValid")
    assert len(service._checked._entries) == 1 and not service._checked._refused
    parses.clear()
    assert service.authorize(doc, "read", OBJ, late[0]).allow
    assert parses == []


def test_refusals_never_evict_passes(world, monkeypatch, parses):
    """With room for three of each, ten refused documents leave the three
    remembered passes in place, and hold at most three refusals."""
    monkeypatch.setattr(keys, "CHECKED_MEMO_SIZE", 3)
    service = ResourceService(push_config(world))

    def proxy(i):
        return chain_to_map(issue_proxy(CredentialChain(eec=world.eec("alice")),
                                        (NOW, NOW + 600 + i)))

    passed = [proxy(i) for i in range(3)]
    refused = [_flip_hex(proxy(100 + i), "links", 0, "signature") for i in range(10)]
    for doc in passed:
        service.authorize(doc, "read", OBJ, NOW)
    for doc in refused:
        decision = service.authorize(doc, "read", OBJ, NOW)
        assert "BadSignature" in decision.reason
        assert len(service._checked._refused) <= 3
    parses.clear()
    for doc in passed:
        service.authorize(doc, "read", OBJ, NOW)
    assert parses == []
    assert len(service._checked._entries) == 3


def test_concurrent_replays_of_a_tampered_chain_agree_with_a_cold_check(world, parses):
    """Eight threads replaying one tampered chain all get the answer a cold
    check gives, and parse it no more than once each."""
    doc = _flip_hex(chain_to_map(alice_chain(world)), "links", 1, "signature")
    expected = ResourceService(push_config(world)).authorize(
        chain_from_map(doc), "read", OBJ, NOW)
    assert not expected.allow
    service = ResourceService(push_config(world))
    parses.clear()
    start = threading.Barrier(8)
    wrong = []

    def worker():
        start.wait()
        for _ in range(30):
            decision = service.authorize(doc, "read", OBJ, NOW)
            if decision != expected:
                wrong.append(decision)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert 1 <= parses.count("chain_from_map") <= 8


def test_remembered_refusals_hold_no_exception(world, cas_server):
    """What the memos keep of their refusals reaches no exception, traceback
    or frame, so no failed check's frames stay alive."""
    service = ResourceService(push_config(world))
    bad = _flip_hex(chain_to_map(alice_chain(world)), "links", 0, "signature")
    assert not service.authorize(bad, "read", OBJ, NOW).allow
    with pytest.raises(MalformedMessage):
        service.authorize({"eec": 1}, "read", OBJ, NOW)
    with pytest.raises(AuthFailed):
        cas_server.handle("query", LISTING, bad)
    memos = [service._checked._refused, cas_server._checked._refused]
    assert [len(refused) for refused in memos] == [2, 1]
    seen, todo = set(), list(memos)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (BaseException, types.TracebackType, types.FrameType)), obj
        todo.extend(gc.get_referents(obj))


def test_the_authority_audits_each_refusal_it_remembers(world, cas_server, parses):
    """A refused caller chain sent three times is parsed once, and each
    refusal is audited alike."""
    bad = _flip_hex(chain_to_map(world.proxy("alice")), "links", 0, "signature")
    parses.clear()
    for _ in range(3):
        with pytest.raises(AuthFailed):
            cas_server.handle("query", LISTING, bad)
    assert parses.count("chain_from_map") == 1
    records = [json.loads(line) for line in
               Path(str(cas_server.config.db_path) + ".audit").read_text().splitlines()]
    refusals = [r for r in records if r["outcome"] == "error:AuthFailed"]
    assert len(refusals) == 3
    assert len({r["detail"] for r in refusals}) == 1
    assert refusals[0]["detail"].startswith("caller chain rejected: BadSignature")


def test_repeat_request_skips_parse_and_signature_work(world, cas_server, ed25519_checks, parses):
    """A repeat request makes no Ed25519 check, parses no chain or assertion
    map, and encodes no signing payload. A repeat issuance at the authority
    signs fresh payloads, but neither parses nor checks the caller's chain."""
    push = ResourceService(push_config(world))
    pull = ResourceService(pull_config(world, cas_server.endpoint), ObjectStore({OBJ: b"x"}))
    restricted = issue_restricted_proxy(world.cas_chain, world.db, BOB, now=NOW)
    server = AuthzServer(("127.0.0.1", 0), authz_config(world))
    payload = decide_payload(assertion_to_map(alice_assertion(world)))
    push_docs = [chain_to_map(alice_chain(world)), chain_to_map(restricted)]
    pull_doc = chain_to_map(world.proxy("alice"))
    requests = [
        *(lambda doc=doc: push.authorize(doc, "read", OBJ, NOW).allow for doc in push_docs),
        lambda: pull.answer(pull_doc, "read", {"path": OBJ})["data"] == b"x".hex(),
        lambda: server.handle("decide", payload, None)["allow"],
        lambda: cas_server.handle("query", LISTING, pull_doc),
    ]
    for request in requests:
        assert request()  # cold
    ed25519_checks.clear()
    parses.clear()
    for request in requests:
        assert request()
    assert ed25519_checks == []
    assert parses == []
    assert cas_server.handle("get_credential", {"mode": "assertion"}, pull_doc)
    assert ed25519_checks == []
    assert "chain_from_map" not in parses


def test_concurrent_requests_agree_with_cold_checks(world):
    service = ResourceService(push_config(world))
    good = chain_to_map(alice_chain(world))
    bob = chain_to_map(embed_in_proxy(world.proxy("bob"),
                                      issue_assertion(world.db, world.cas.keys, CAS, BOB, now=NOW)))
    cases = [
        (good, "read", OBJ),
        (good, "write", "vo://esg/code/x"),
        (bob, "write", OBJ),
        (bob, "read", OBJ),
        (_flip_hex(good, "links", 1, "extension"), "read", OBJ),
        (_flip_hex(good, "eec", "signature"), "read", OBJ),
    ]
    cold = ResourceService(push_config(world))
    expected = [cold.authorize(chain_from_map(doc), action, obj, NOW) for doc, action, obj in cases]
    wrong = []

    def worker(offset):
        for i in range(60):
            k = (i + offset) % len(cases)
            doc, action, obj = cases[k]
            decision = service.authorize(doc, action, obj, NOW)
            if decision != expected[k]:
                wrong.append((k, decision))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert [d.allow for d in expected] == [True, False, False, True, False, False]
    assert len(service._checked._entries) == 2


# --- intake from the received bytes ----------------------------------------------------------

def _intake_cases(world, cas_server):
    """(service, a fresh server, a push request as the benchmark sends it,
    its presented document) for each service that keeps a memo."""
    chain = chain_to_map(alice_chain(world))
    caller = chain_to_map(world.proxy("alice"))
    assertion = assertion_to_map(alice_assertion(world, lifetime=DAY))
    store = ObjectStore({OBJ: b"x"})
    return [
        ("vault", lambda: VaultServer(("127.0.0.1", 0), ResourceService(push_config(world), store)),
         {"kind": "read", "payload": {"path": OBJ}, "chain": chain}, chain),
        ("authz", lambda: AuthzServer(("127.0.0.1", 0), authz_config(world)),
         {"kind": "decide", "payload": decide_payload(assertion)}, assertion),
        ("authority", lambda: CasServer(cas_server.config),
         {"kind": "get_credential", "payload": {"mode": "assertion"}, "chain": caller}, caller),
    ]


def _memo(server):
    return getattr(server, "service", server)._checked


def _surrounding_faults(request):
    """The canonical frame of ``request`` with one fault outside its presented
    document."""
    data = canonical_json(request)
    kind = canonical_json({"kind": request["kind"]})[1:-1]
    yield "space after a colon", data.replace(b'"kind":', b'"kind": ', 1)
    yield "keys out of order", b"{" + b",".join(
        canonical_json({key: request[key]})[1:-1] for key in sorted(request, reverse=True)) + b"}"
    yield "duplicate kind", data.replace(kind, kind + b"," + kind, 1)
    yield "trailing space", data + b" "
    yield "trailing document", data + b"{}"


def _whole_answer(server, data):
    """The answer ``server`` gives ``data`` when it parses the frame whole and
    remembers nothing: a framing error, or its handler's answer to the
    parsed request."""
    try:
        doc = canonical.parse_canonical(data)
    except MalformedMessage as exc:
        return "MalformedRequest", str(exc)
    _memo(server)._entries.clear()
    return _answer(server._dispatch(doc))


def test_remembered_document_in_a_non_canonical_frame_is_refused(world, cas_server):
    """A frame whose presented document is remembered, but whose bytes around
    it are not canonical, gets the framing error a cold service gives, never
    an answer."""
    for name, make, request, doc in _intake_cases(world, cas_server):
        warm, cold = make(), make()
        warm.start()
        cold.start()
        try:
            with socket.create_connection(warm.endpoint, timeout=10) as hot, \
                    socket.create_connection(cold.endpoint, timeout=10) as fresh:
                assert _raw_answer(hot, canonical_json(request))[0] == "allow", name
                assert _memo(warm).knows(keys.digest(canonical_json(doc))), name
                for fault, data in _surrounding_faults(request):
                    got = _raw_answer(hot, data)
                    assert got[0] == "MalformedRequest", (name, fault, got)
                    assert got == _raw_answer(fresh, data) == _whole_answer(cold, data), \
                        (name, fault)
                assert _raw_answer(hot, canonical_json(request))[0] == "allow", name
        finally:
            warm.stop()
            cold.stop()


def _elsewhere(request, doc):
    """Canonical frames that carry ``doc`` at a place other than the one a
    service takes its presented document from, with none there."""
    if "chain" in request:
        yield canonical_json({**request, "a": {"chain": doc, "kind": 1}, "chain": 0})
        yield canonical_json({**request, "payload": {**request["payload"],
                                                     "chain": doc, "kind": 1}})
    else:
        payload = {**request["payload"], "action": {"assertion": doc, "identity": ALICE},
                   "assertion": 0}
        yield canonical_json({**request, "payload": payload})


def test_mutated_push_frames_answer_warm_as_cold(world, cas_server):
    """Byte-mutated push requests, and requests carrying the presented
    document at another place, get the same answer from a service that
    remembers the unmutated document, from one that remembers nothing, and
    from parsing the frame whole; never ``Internal``."""
    rng = random.Random(20261019)
    for name, make, request, doc in _intake_cases(world, cas_server):
        warm, cold = make(), make()
        warm.start()
        cold.start()
        try:
            with socket.create_connection(warm.endpoint, timeout=10) as hot, \
                    socket.create_connection(cold.endpoint, timeout=10) as fresh:
                assert _raw_answer(hot, canonical_json(request))[0] == "allow", name
                frames = [*_mutations(rng, canonical_json(request), 100), *_elsewhere(request, doc)]
                for data in frames:
                    if not data:
                        continue  # a zero-length frame closes the connection by design
                    _memo(cold)._entries.clear()
                    got = _raw_answer(hot, data)
                    assert got == _raw_answer(fresh, data) == _whole_answer(cold, data), \
                        (name, data)
                    assert got[0] != "Internal", (name, data, got)
                assert _memo(warm).knows(keys.digest(canonical_json(doc))), name
        finally:
            warm.stop()
            cold.stop()


def test_remembered_request_neither_parses_nor_encodes_its_document(world, cas_server,
                                                                   monkeypatch):
    """On a remembered request, the service parses one document, the frame
    around the presented one, and no ``parse_canonical`` or
    ``canonical_json`` call gets the presented document's bytes or map."""
    for name, make, request, doc in _intake_cases(world, cas_server):
        span = canonical_json(doc)
        calls = []
        server = make()
        server.start()
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                assert _raw_answer(sock, canonical_json(request))[0] == "allow", name
                with monkeypatch.context() as patch:
                    _record_canonical(patch, calls)
                    assert _raw_answer(sock, canonical_json(request))[0] == "allow", name
        finally:
            server.stop()
        served = [(fn, arg, out) for fn, thread, arg, out in calls
                  if thread != threading.get_ident()]
        parsed = [arg for fn, arg, _ in served if fn == "parse_canonical"]
        assert len(parsed) == 1 and span not in bytes(parsed[0]), (name, parsed)
        encoded = [(arg, out) for fn, arg, out in served if fn == "canonical_json"]
        assert encoded, name
        for arg, out in encoded:
            assert arg != doc and span not in out, name


def _record_canonical(patch, calls):
    """Record each ``parse_canonical`` and ``canonical_json`` call made
    through any module of the package: (name, thread, argument, result)."""
    originals = {"parse_canonical": canonical.parse_canonical,
                 "canonical_json": canonical.canonical_json}

    def recording(name, fn):
        def wrapper(value, *args, **kwargs):
            out = fn(value, *args, **kwargs)
            calls.append((name, threading.get_ident(), value, out))
            return out
        return wrapper

    for module in [m for n, m in sys.modules.items() if n.startswith("caslite.") and m]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                patch.setattr(module, name, recording(name, fn))


def test_both_intakes_key_the_memo_alike(world, cas_server, monkeypatch):
    """A caller chain from a frame that the cut refuses, and so parsed whole,
    is remembered under the digest of its span of the frame, so the next
    frame with that chain is cut and parses none of it."""
    caller = chain_to_map(world.proxy("alice"))
    span = canonical_json(caller)
    request = {"kind": "get_credential", "payload": {"mode": "assertion"}, "chain": caller}
    refused = canonical_json({**request, "payload": {"chain": caller, "mode": "assertion"}})
    server = CasServer(cas_server.config)
    assert server._cut(bytearray(refused)) is None
    assert not server._checked.knows(keys.digest(span))
    calls = []
    server.start()
    try:
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            assert _raw_answer(sock, refused)[0] == "MalformedMessage"
            assert server._checked.knows(keys.digest(span))
            with monkeypatch.context() as patch:
                _record_canonical(patch, calls)
                assert _raw_answer(sock, canonical_json(request))[0] == "allow"
    finally:
        server.stop()
    parsed = [arg for fn, thread, arg, _ in calls
              if fn == "parse_canonical" and thread != threading.get_ident()]
    assert len(parsed) == 1 and span not in bytes(parsed[0]), parsed
