"""The community authority over the wire: handlers, audit, persistence."""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time

import pytest

from caslite import wire
from caslite.assertions import MAX_LIFETIME, assertion_from_map
from caslite.credentials import CredentialChain, chain_from_map, chain_to_map, issue_proxy
from caslite.errors import LifetimeTooLong, ResponseTooLarge, ServerError
from caslite.canonical import canonical_json
from caslite.policy import (
    db_canonical_bytes, intersect_rights, load_database, rights_to_list, user_rights,
)
from caslite.server import CasServer, ServerConfig
from caslite.statements import statement_from_map, verify_statement
from caslite.vault import ResourceConfig, ResourceService

import oracles
from worldlib import (
    ALICE, BOB, CAROL, CAS, DAY, NOW, OWNER, db_to_map, listing_to_map, rights, stops_within,
)


def chain_doc(world, short):
    return chain_to_map(world.proxy(short))


def audit_lines(server):
    path = str(server.config.db_path) + ".audit"
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_ping_reports_identity_and_revision(world, cas_server):
    body = wire.call(cas_server.endpoint, "ping")
    assert body == {"identity": CAS, "revision": 1, "vo_name": "esg"}


def test_get_credential_binds_to_the_caller(world, cas_server):
    body = wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
                     chain=chain_doc(world, "alice"))
    assertion = assertion_from_map(body["assertion"])
    assert assertion.subject == ALICE
    assert assertion.issuer == CAS
    assert assertion.db_revision == 1


def test_membership_mode_over_the_wire(world, cas_server):
    body = wire.call(cas_server.endpoint, "get_credential",
                     {"mode": "assertion", "assertion_mode": "membership"},
                     chain=chain_doc(world, "alice"))
    assertion = assertion_from_map(body["assertion"])
    assert assertion.mode == "membership"
    assert assertion.groups == frozenset({"publishers"})
    assert assertion.rights is None


def test_non_member_with_valid_chain(world, cas_server):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
                  chain=chain_doc(world, "carol"))
    assert info.value.code == "NotAMember"


def test_expired_chain_fails_before_policy(world, cas_server):
    expired = issue_proxy(
        CredentialChain(eec=world.eec("carol")), (NOW - 3600, NOW - 1800)
    )
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
                  chain=chain_to_map(expired))
    assert info.value.code == "AuthFailed"
    assert "Expired" in info.value.message


def test_missing_chain_is_auth_failure(world, cas_server):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "query",
                  {"query": "user_rights", "subject": BOB})
    assert info.value.code == "AuthFailed"


def test_restricted_mode_returns_deliverable_chain(world, cas_server):
    body = wire.call(cas_server.endpoint, "get_credential",
                     {"mode": "restricted_proxy", "lifetime": 3600},
                     chain=chain_doc(world, "alice"))
    chain = chain_from_map(body["chain"])
    assert chain.subject == CAS
    assert chain.innermost_keys().private_part is not None
    assert chain.eec.keys.private_part is None  # the authority's key stays home


def test_restricted_mode_narrows_to_the_requested_rights(world, cas_server):
    requested = rights(("read", "vo://esg/data/public/**"), ("delete", "vo://esg/data/**"))
    body = wire.call(cas_server.endpoint, "get_credential",
                     {"mode": "restricted_proxy", "lifetime": 3600,
                      "requested": rights_to_list(requested)},
                     chain=chain_doc(world, "alice"))
    chain = chain_from_map(body["chain"])
    assert chain.effective_restriction() == \
        intersect_rights(user_rights(world.db, ALICE), requested) == \
        rights(("read", "vo://esg/data/public/**"))
    vault = ResourceService(ResourceConfig(site=world.site, cas_public=world.cas.keys.public(),
                                           cas_identity=CAS, anchors=world.anchors))
    now = int(time.time())
    assert vault.authorize(chain, "read", "vo://esg/data/public/a.nc", now).allow
    for action, obj in (("write", "vo://esg/data/public/a.nc"),
                        ("read", "vo://esg/data/private/p1.nc")):
        decision = vault.authorize(chain, action, obj, now)
        assert not decision.allow and decision.stage == "vo_user"


def test_lifetime_gate_over_the_wire(world, cas_server):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "get_credential",
                  {"mode": "assertion", "lifetime": 2 * DAY},
                  chain=chain_doc(world, "alice"))
    assert info.value.code == "LifetimeTooLong"


def test_admin_read_your_writes(world, cas_server):
    body = wire.call(cas_server.endpoint, "admin", {"command": {
        "op": "grant", "subject": BOB, "action": "write",
        "object": "vo://esg/data/public/**",
    }}, chain=chain_doc(world, "admin-ann"))
    assert body["revision"] == 2
    cred = wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
                     chain=chain_doc(world, "bob"))
    assertion = assertion_from_map(cred["assertion"])
    assert assertion.db_revision == 2
    assert rights(("write", "vo://esg/data/public/**")) <= assertion.rights


def test_admin_denial_leaves_revision_alone(world, cas_server):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "admin", {"command": {
            "op": "grant", "subject": BOB, "action": "write",
            "object": "vo://esg/data/private/**",
        }}, chain=chain_doc(world, "admin-ann"))
    assert info.value.code == "NotAuthorized"
    assert wire.call(cas_server.endpoint, "ping")["revision"] == 1
    assert load_database(cas_server.config.db_path).revision == 1


def test_query_user_rights_statement(world, cas_server):
    body = wire.call(cas_server.endpoint, "query",
                     {"query": "user_rights", "subject": BOB},
                     chain=chain_doc(world, "alice"))
    statement = statement_from_map(body["statement"])
    assert verify_statement(statement, world.cas.keys.public())
    assertion = assertion_from_map(statement.body["assertion"])
    assert assertion.subject == BOB
    assert assertion.rights == rights(("read", "vo://esg/data/public/**"))


def test_query_unknown_subject(world, cas_server):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "query",
                  {"query": "user_rights", "subject": CAROL},
                  chain=chain_doc(world, "alice"))
    assert info.value.code == "UnknownSubject"


def test_query_resource_rights_listing(world, cas_server):
    body = wire.call(cas_server.endpoint, "query",
                     {"query": "resource_rights", "namespace": "vo://esg/data/public/**"},
                     chain=chain_doc(world, "alice"))
    statement = statement_from_map(body["statement"])
    listing = statement.body["listing"]
    assert set(listing) == {ALICE, BOB}
    assert listing[ALICE] == [
        {"action": "read", "object": "vo://esg/data/public/**"},
        {"action": "write", "object": "vo://esg/data/public/**"},
    ]
    assert listing[BOB] == [{"action": "read", "object": "vo://esg/data/public/**"}]


def test_disjoint_namespace_is_empty_but_signed(world, cas_server):
    body = wire.call(cas_server.endpoint, "query",
                     {"query": "resource_rights", "namespace": "vo://other/**"},
                     chain=chain_doc(world, "alice"))
    statement = statement_from_map(body["statement"])
    assert statement.body["listing"] == {}
    assert verify_statement(statement, world.cas.keys.public())


def test_every_request_is_audited_once(world, cas_server, monkeypatch):
    """An unexpected error in a handler is audited too, as ``Internal``,
    the code the caller gets."""
    wire.call(cas_server.endpoint, "ping")
    with pytest.raises(ServerError):
        wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
                  chain=chain_doc(world, "carol"))
    wire.call(cas_server.endpoint, "get_credential", {"mode": "assertion"},
              chain=chain_doc(world, "alice"))

    def broken(payload, caller):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cas_server, "handle_query", broken)
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, "query",
                  {"query": "resource_rights", "namespace": "vo://esg/**"},
                  chain=chain_doc(world, "alice"))
    assert info.value.code == "Internal"
    records = audit_lines(cas_server)
    assert len(records) == 4
    assert [r["outcome"] for r in records] == ["ok", "error:NotAMember", "ok", "error:Internal"]
    assert records[1]["caller"] == CAROL
    assert records[3]["caller"] == ALICE
    timestamps = [r["timestamp"] for r in records]
    assert timestamps == sorted(timestamps)


def test_listings_during_commits_match_a_published_revision(world, cas_server):
    """Listings answered while grant/revoke pairs commit each equal the
    from-scratch listing of some published revision. The pairs alternate
    between two members, so an entry kept from an older revision beside a
    newer one makes a listing no revision had."""
    namespace = "vo://esg/**"
    published = [cas_server.db]
    answers = []
    done = threading.Event()

    def commit():
        try:
            for i in range(12):
                for op in ("grant", "revoke"):
                    wire.call(cas_server.endpoint, "admin", {"command": {
                        "op": op, "subject": (ALICE, BOB)[i % 2], "action": "read",
                        "object": f"vo://esg/data/t{i}/**",
                    }}, chain=chain_doc(world, "owner"))
                    published.append(cas_server.db)
        finally:
            done.set()

    def query(short):
        while not done.is_set():
            body = wire.call(cas_server.endpoint, "query",
                             {"query": "resource_rights", "namespace": namespace},
                             chain=chain_doc(world, short))
            answers.append(statement_from_map(body["statement"]).body["listing"])

    threads = [threading.Thread(target=commit)] + [
        threading.Thread(target=query, args=(short,)) for short in ("alice", "bob")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(published) == 25 and answers
    expected = {canonical_json(listing_to_map(db, namespace)) for db in published}
    assert len(expected) == 13
    assert all(canonical_json(listing) in expected for listing in answers)


def test_commits_and_listings_are_byte_identical_to_their_documents(world, cas_server):
    """After each grant, revoke and add_member commit, awkward identities
    included, the database file is canonical to the reference parser and
    loads back to the same bytes; each listing answered between commits
    verifies, its frame is canonical to the reference parser, and its
    listing is the one built from the database's fields alone."""
    quote, astral = '/VO=esg/CN=qu"o\\te', "/VO=esg/CN=\u00e9\U0001d518"
    commands = [
        {"op": "grant", "subject": ALICE, "action": "list", "object": "vo://esg/data/**"},
        {"op": "add_member", "identity": quote},
        {"op": "grant", "subject": quote, "action": "read", "object": "vo://esg/data/q/**"},
        {"op": "add_member", "identity": astral},
        {"op": "grant", "subject": astral, "action": "write", "object": "vo://esg/**"},
        {"op": "grant", "subject": "publishers", "action": "delete", "object": "vo://esg/x"},
        {"op": "revoke", "subject": ALICE, "action": "list", "object": "vo://esg/data/**"},
        {"op": "revoke", "subject": quote, "action": "read", "object": "vo://esg/data/q/**"},
    ]
    path = cas_server.config.db_path
    for command in commands:
        cas_server.handle_admin({"command": command}, OWNER)
        data = path.read_bytes()
        oracles.reference_parse_canonical(data)
        assert data == canonical_json(db_to_map(cas_server.db))
        assert db_canonical_bytes(load_database(path)) == data
        for namespace in ("vo://esg/**", "vo://esg/data/**"):
            answer = cas_server.handle_query(
                {"query": "resource_rights", "namespace": namespace}, ALICE)
            frame = b"".join(wire.ok_response(answer).chunks)
            statement = statement_from_map(oracles.reference_parse_canonical(frame)["body"]
                                           ["statement"])
            assert verify_statement(statement, world.cas.keys.public())
            assert statement.body["listing"] == listing_to_map(cas_server.db, namespace)
    listing = statement.body["listing"]
    assert listing[astral] == [{"action": "write", "object": "vo://esg/data/**"}]
    assert quote not in listing


PAD = "x" * 1_000_000


@pytest.mark.parametrize("kind,payload", [
    ("query", {"pad": PAD}),
    ("query", {"query": PAD}),
    ("query", {"query": "resource_rights", "namespace": "vo://esg/**", "pad": PAD}),
    ("query", {"query": "user_rights", "subject": "/VO=esg/CN=" + PAD}),
    ("admin", {"command": {"pad": PAD}}),
    ("admin", {"command": {"op": PAD}}),
    ("admin", {"command": {"op": "remove_member", "identity": "/VO=esg/CN=" + PAD}}),
])
def test_padded_requests_get_short_errors_and_audit_lines(world, cas_server, kind, payload):
    with pytest.raises(ServerError) as info:
        wire.call(cas_server.endpoint, kind, payload, chain=chain_doc(world, "owner"))
    assert len(info.value.message) <= 310
    path = str(cas_server.config.db_path) + ".audit"
    with open(path, "rb") as handle:
        last = handle.read().splitlines()[-1]
    assert len(last) <= 500
    assert json.loads(last)["outcome"] == f"error:{info.value.code}"


def _listing_query(world, server):
    return server.handle("query", {"query": "resource_rights", "namespace": "vo://esg/**"},
                         chain_doc(world, "alice"))


def test_oversized_listing_is_audited_as_refused(world, cas_server, monkeypatch):
    body = _listing_query(world, cas_server)
    frame = len(b"".join(wire.ok_response(body).chunks))
    monkeypatch.setattr(wire, "MAX_FRAME", frame)
    _listing_query(world, cas_server)  # exactly at the limit still goes out
    assert audit_lines(cas_server)[-1]["outcome"] == "ok"

    monkeypatch.setattr(wire, "MAX_FRAME", frame - 1)
    with pytest.raises(ResponseTooLarge) as info:
        _listing_query(world, cas_server)
    assert info.value.code == "ResponseTooLarge"  # the code the wire answers with
    last = audit_lines(cas_server)[-1]
    assert (last["caller"], last["kind"], last["outcome"]) == \
        (ALICE, "query", "error:ResponseTooLarge")


def test_unstarted_authority_stops_and_frees_its_port(world, tmp_path):
    paths = world.write_server_files(tmp_path)
    server = CasServer(ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                                    credential_path=paths["key"], anchors_path=paths["anchors"]))
    endpoint = server.endpoint
    assert stops_within(server, 2)
    with socket.socket() as sock:
        sock.bind(endpoint)


def test_a_default_lifetime_past_the_maximum_stops_the_authority_before_it_binds(
        world, tmp_path, monkeypatch):
    """The default lifetime is held to the issuance rule's bound at
    construction, before the listener is bound."""
    paths = world.write_server_files(tmp_path)
    binds = []
    monkeypatch.setattr(wire.FrameServer, "__init__", lambda *args: binds.append(args))
    with pytest.raises(LifetimeTooLong, match="lifetime 86401s exceeds the 86400s maximum"):
        CasServer(ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                               credential_path=paths["key"], anchors_path=paths["anchors"],
                               default_lifetime=MAX_LIFETIME + 1))
    assert binds == []


def test_an_audit_path_that_cannot_be_written_stops_the_authority_before_it_binds(
        world, tmp_path, monkeypatch):
    """The audit file is opened at construction, so an authority that could
    audit nothing never serves: it would answer every request ``Internal``
    and still commit admin commands."""
    paths = world.write_server_files(tmp_path)
    saved = paths["db"].read_bytes()
    binds = []
    monkeypatch.setattr(wire.FrameServer, "__init__", lambda *args: binds.append(args))
    with pytest.raises(OSError):
        CasServer(ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                               credential_path=paths["key"], anchors_path=paths["anchors"],
                               audit_path=tmp_path / "missing" / "audit.log"))
    assert binds == [] and paths["db"].read_bytes() == saved


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files by /proc")
def test_a_listen_address_in_use_leaves_the_audit_file_closed(world, tmp_path):
    paths = world.write_server_files(tmp_path)
    audit = tmp_path / "audit.log"
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError) as failed:
            CasServer(ServerConfig(listen=taken.getsockname(), db_path=paths["db"],
                                   credential_path=paths["key"], anchors_path=paths["anchors"],
                                   audit_path=audit))
        # ``failed`` keeps the half-built server alive, so an open handle shows.
        open_files = [os.readlink(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")
                      if os.path.islink(f"/proc/self/fd/{fd}")]
        assert failed.value.errno and str(audit) not in open_files


def test_audit_log_survives_stop_and_restart(world, tmp_path):
    paths = world.write_server_files(tmp_path)
    config = ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                          credential_path=paths["key"], anchors_path=paths["anchors"])
    server = CasServer(config)
    server.start()
    for _ in range(3):
        wire.call(server.endpoint, "ping")
    server.stop()
    assert len(audit_lines(server)) == 3
    server.handle("ping", {}, None)  # a straggler after stop reopens the file
    server.stop()

    reborn = CasServer(config)
    reborn.start()
    wire.call(reborn.endpoint, "ping")
    reborn.stop()
    records = audit_lines(reborn)
    assert len(records) == 5
    assert all(r["kind"] == "ping" and r["outcome"] == "ok" for r in records)
    timestamps = [r["timestamp"] for r in records]
    assert timestamps == sorted(timestamps)


def test_concurrent_admin_mutations_serialize(world, cas_server):
    count = 8
    errors = []

    def add(i):
        try:
            wire.call(cas_server.endpoint, "admin", {"command": {
                "op": "add_member", "identity": f"/VO=esg/CN=user{i}",
            }}, chain=chain_doc(world, "owner"))
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=add, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert wire.call(cas_server.endpoint, "ping")["revision"] == 1 + count
    final = load_database(cas_server.config.db_path)
    assert {f"/VO=esg/CN=user{i}" for i in range(count)} <= final.members


def test_restart_round_trips_database_bytes(world, tmp_path):
    paths = world.write_server_files(tmp_path)
    config = ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                          credential_path=paths["key"], anchors_path=paths["anchors"])
    server = CasServer(config)
    server.start()
    wire.call(server.endpoint, "admin", {"command": {
        "op": "add_member", "identity": "/VO=esg/CN=dave",
    }}, chain=chain_doc(world, "owner"))
    before = paths["db"].read_bytes()
    server.stop()

    reborn = CasServer(config)
    reborn.start()
    assert db_canonical_bytes(reborn.db) == before
    assert wire.call(reborn.endpoint, "ping")["revision"] == 2
    reborn.stop()
    assert paths["db"].read_bytes() == before


def test_crash_between_write_and_rename_preserves_previous(world, tmp_path, monkeypatch):
    paths = world.write_server_files(tmp_path)
    config = ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                          credential_path=paths["key"], anchors_path=paths["anchors"])
    server = CasServer(config)
    original = paths["db"].read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr("caslite.canonical.os.replace", crash)
    with pytest.raises(OSError):
        server.handle_admin(
            {"command": {"op": "add_member", "identity": "/VO=esg/CN=dave"}}, OWNER
        )
    monkeypatch.undo()
    server.stop()
    assert paths["db"].read_bytes() == original
    restarted = CasServer(config)
    assert restarted.db.revision == 1  # previous revision intact
    restarted.stop()
