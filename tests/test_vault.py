"""The enforcement pipeline, file operations, and the pull model."""

from __future__ import annotations

import time

import pytest

from caslite import wire
from caslite.assertions import (
    assertion_bytes,
    embed_in_proxy,
    issue_assertion,
    issue_restricted_proxy,
)
from caslite.credentials import CredentialChain, chain_from_map, chain_to_map, issue_proxy
from caslite.errors import (
    DeniedError,
    NotFound,
    ServerError,
    SourceUnavailable,
    StaleStatement,
)
from caslite.vault import ObjectStore, ResourceConfig, ResourceService, VaultServer

import oracles
from worldlib import (
    ALICE, BOB, CAROL, CAS, NOW, PULLED, RawSource,
    fixture_db, fixture_site, groups_only_db, misbound_answers, rights,
)


def push_config(world, site=None, group_rights=None):
    return ResourceConfig(
        site=site or world.site,
        cas_public=world.cas.keys.public(),
        cas_identity=CAS,
        anchors=world.anchors,
        group_rights=group_rights,
    )


def assertion_chain(world, short, db=None, mode="rights"):
    db = db or world.db
    ident = world.proxy(short).subject
    assertion = issue_assertion(db, world.cas.keys, CAS, ident, mode=mode, now=NOW)
    return embed_in_proxy(world.proxy(short), assertion)


@pytest.fixture(scope="module")
def seeded_store():
    return {obj: f"contents of {obj}".encode() for obj in oracles.OBJECTS}


def test_alice_reads_public_data(world):
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "alice")
    decision = service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW)
    assert decision.allow


def test_bob_cannot_write(world):
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "bob")
    decision = service.authorize(chain, "write", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "vo_user"


def test_tampered_chain_denies_at_credential(world):
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "alice")
    stranger = issue_proxy(
        CredentialChain(eec=world.eec("carol")), (NOW, NOW + 3600)
    )
    grafted = CredentialChain(eec=stranger.eec, links=chain.links)
    decision = service.authorize(grafted, "read", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "credential"


def test_flipped_signed_hex_digit_denies_after_allow(world):
    """An allowed chain leaves its signatures in the verification memo; the same
    chain with one hex digit of a signed field changed must still be denied."""
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "alice")
    obj = "vo://esg/data/public/a.nc"
    assert service.authorize(chain, "read", obj, NOW).allow
    doc = chain_to_map(chain)
    fields = [(doc["eec"]["keys"], "public_part")]
    for link in doc["links"]:
        fields.append((link["keys"], "public_part"))
        if "extension" in link:
            fields.append((link, "extension"))
    for holder, name in fields:
        original = holder[name]
        middle = len(original) // 2
        digit = "1" if original[middle] == "0" else "0"
        holder[name] = original[:middle] + digit + original[middle + 1:]
        decision = service.authorize(chain_from_map(doc), "read", obj, NOW)
        assert not decision.allow and decision.stage == "credential", name
        holder[name] = original
    assert service.authorize(chain_from_map(doc), "read", obj, NOW).allow


def test_foreign_subject_assertion_denies_at_credential(world):
    bob_assertion = issue_assertion(world.db, world.cas.keys, CAS, BOB, now=NOW)
    chain = issue_proxy(world.proxy("alice"), (NOW, NOW + 600),
                        extension=assertion_bytes(bob_assertion))
    service = ResourceService(push_config(world))
    decision = service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "credential"
    assert "does not match" in decision.reason


def test_bare_chain_has_no_community_policy(world):
    service = ResourceService(push_config(world))
    decision = service.authorize(world.proxy("alice"), "read",
                                 "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "credential"


def test_restricted_chain_enforces_user_rights(world):
    service = ResourceService(push_config(world))
    chain = issue_restricted_proxy(world.cas_chain, world.db, BOB, 3600, now=NOW)
    assert service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW).allow
    decision = service.authorize(chain, "read", "vo://esg/data/private/p1.nc", NOW)
    assert not decision.allow and decision.stage == "vo_user"


def test_restricted_chain_cannot_be_blacklisted_per_user(world):
    """The site only ever sees the community identity under this model."""
    site = fixture_site(blacklist=frozenset({ALICE}))
    service = ResourceService(push_config(world, site=site))
    restricted = issue_restricted_proxy(world.cas_chain, world.db, ALICE, 3600, now=NOW)
    assert service.authorize(restricted, "read", "vo://esg/data/public/a.nc", NOW).allow
    embedded = assertion_chain(world, "alice")
    decision = service.authorize(embedded, "read", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "site_user"


def test_unrestricted_community_chain_is_site_bounded(world):
    chain = issue_proxy(world.cas_chain, (NOW, NOW + 3600))
    service = ResourceService(push_config(world))
    assert service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW).allow
    decision = service.authorize(chain, "delete", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "site_vo"


def test_enforce_matches_oracle_over_universe(world, seeded_store):
    service = ResourceService(push_config(world), ObjectStore(seeded_store))
    chains = {user: assertion_chain(world, short)
              for short, user in [("alice", ALICE), ("bob", BOB), ("admin-ann", oracles.ANN)]}
    # carol presents a replayed full-rights assertion to probe the blacklist
    carol_assertion = issue_assertion(
        fixture_db(), world.cas.keys, CAS, ALICE, now=NOW,
    )
    for user, action, obj in oracles.universe():
        if user == CAROL:
            continue
        expected_allow, _ = oracles.naive_decide(
            CAS, oracles.naive_user_rights(user), user, action, obj
        )
        decision = service.authorize(chains[user], action, obj, NOW)
        assert decision.allow == expected_allow, (user, action, obj, decision)


def test_blacklisted_user_with_replayed_rights(world):
    """A still-valid assertion cannot get a blacklisted user in."""
    db = fixture_db()
    members = db.members | {CAROL}
    grants = dict(db.grants)
    grants[CAROL] = rights(("read", "vo://esg/data/**"))
    loose = type(db)(vo_name=db.vo_name, owner=db.owner, members=frozenset(members),
                     groups=db.groups, grants=grants, admin_caps=db.admin_caps,
                     revision=db.revision)
    chain = assertion_chain(world, "carol", db=loose)
    service = ResourceService(push_config(world))
    decision = service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "site_user"


# --- file operations -----------------------------------------------------------------

def test_write_then_read_back(world):
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "alice")
    service.write(chain, "vo://esg/data/x", b"payload bytes", now=NOW)
    assert service.read(chain, "vo://esg/data/x", now=NOW) == b"payload bytes"


def test_denied_delete_names_the_stage(world, seeded_store):
    service = ResourceService(push_config(world), ObjectStore(seeded_store))
    chain = assertion_chain(world, "bob")
    with pytest.raises(DeniedError) as info:
        service.delete(chain, "vo://esg/data/public/a.nc", now=NOW)
    assert info.value.decision.stage == "site_vo"


def test_authorization_precedes_existence(world):
    service = ResourceService(push_config(world))
    alice = assertion_chain(world, "alice")
    bob = assertion_chain(world, "bob")
    with pytest.raises(NotFound):
        service.read(alice, "vo://esg/data/absent", now=NOW)
    # bob cannot even learn whether the private path exists
    with pytest.raises(DeniedError):
        service.read(bob, "vo://esg/data/private/p1.nc", now=NOW)


def test_list_requires_list_right_on_prefix(world, seeded_store):
    service = ResourceService(push_config(world), ObjectStore(seeded_store))
    alice = assertion_chain(world, "alice")
    # alice's community rights carry read/write but not list
    with pytest.raises(DeniedError) as info:
        service.list_paths(alice, "vo://esg/data/public", now=NOW)
    assert info.value.decision.stage == "vo_user"
    db = fixture_db()
    grants = dict(db.grants)
    grants["publishers"] = grants["publishers"] | rights(("list", "vo://esg/data/**"))
    listful = type(db)(vo_name=db.vo_name, owner=db.owner, members=db.members,
                       groups=db.groups, grants=grants, admin_caps=db.admin_caps,
                       revision=2)
    chain = assertion_chain(world, "alice", db=listful)
    paths = service.list_paths(chain, "vo://esg/data/public", now=NOW)
    assert "vo://esg/data/public/a.nc" in paths
    assert all(p.startswith("vo://esg/data/public") for p in paths)


# --- membership mode ----------------------------------------------------------------------

def test_membership_mode_needs_group_map(world):
    service = ResourceService(push_config(world))
    chain = assertion_chain(world, "alice", mode="membership")
    decision = service.authorize(chain, "read", "vo://esg/data/public/a.nc", NOW)
    assert not decision.allow and decision.stage == "vo_user"


def test_membership_mode_mirrors_rights_mode(world):
    db = groups_only_db()
    group_rights = {name: db.grants.get(name, frozenset()) for name in db.groups}
    service = ResourceService(push_config(world, group_rights=group_rights))
    for short, user in [("alice", ALICE), ("bob", BOB)]:
        member_chain = assertion_chain(world, short, db=db, mode="membership")
        rights_chain = assertion_chain(world, short, db=db, mode="rights")
        for action in oracles.ACTIONS:
            for obj in oracles.OBJECTS:
                a = service.authorize(member_chain, action, obj, NOW)
                b = service.authorize(rights_chain, action, obj, NOW)
                assert a.allow == b.allow, (user, action, obj)


def test_direct_grants_are_invisible_to_membership_mode(world):
    """With the plain fixture, bob's direct grant only exists in rights mode."""
    group_rights = {"publishers": world.db.grants["publishers"]}
    service = ResourceService(push_config(world, group_rights=group_rights))
    member_chain = assertion_chain(world, "bob", mode="membership")
    rights_chain = assertion_chain(world, "bob", mode="rights")
    obj = "vo://esg/data/public/a.nc"
    assert service.authorize(rights_chain, "read", obj, NOW).allow
    assert not service.authorize(member_chain, "read", obj, NOW).allow


# --- pull model ----------------------------------------------------------------------------

@pytest.fixture()
def live_world_service(world, cas_server, seeded_store):
    cfg = ResourceConfig(
        site=world.site,
        cas_public=world.cas.keys.public(),
        cas_identity=CAS,
        anchors=world.anchors,
        mode="pull",
        pull_source=cas_server.endpoint,
        pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice")),
    )
    return ResourceService(cfg, ObjectStore(seeded_store))


def test_pull_equals_push_over_universe(world, cas_server, live_world_service, seeded_store):
    push = ResourceService(push_config(world), ObjectStore(seeded_store))
    now = int(time.time())
    shorts = {ALICE: "alice", BOB: "bob", oracles.ANN: "admin-ann"}
    for user, action, obj in oracles.universe():
        if user == CAROL:
            continue
        pull_decision = live_world_service.authorize(world.proxy(shorts[user]), action, obj, now)
        push_decision = push.authorize(assertion_chain(world, shorts[user]), action, obj, NOW)
        assert pull_decision.allow == push_decision.allow, (user, action, obj)


def test_pull_blacklist_still_applies(world, cas_server, seeded_store):
    site = fixture_site(blacklist=frozenset({ALICE}))
    cfg = ResourceConfig(
        site=site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, mode="pull", pull_source=cas_server.endpoint,
        pull_namespace="vo://esg/**", client_chain=chain_to_map(world.proxy("bob")),
    )
    service = ResourceService(cfg, ObjectStore(seeded_store))
    decision = service.authorize(world.proxy("alice"), "read",
                                 "vo://esg/data/public/a.nc", int(time.time()))
    assert not decision.allow and decision.stage == "site_user"


def test_pull_fails_closed_without_source(world, seeded_store):
    cfg = ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, mode="pull", pull_source=("127.0.0.1", 1),
        client_chain=chain_to_map(world.proxy("alice")),
    )
    service = ResourceService(cfg, ObjectStore(seeded_store))
    with pytest.raises(SourceUnavailable):
        service.read(world.proxy("alice"), "vo://esg/data/public/a.nc")


def test_pull_statement_expiry_fails_closed(world, cas_server, seeded_store):
    cfg = ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, mode="pull", pull_source=cas_server.endpoint,
        pull_namespace="vo://esg/**", client_chain=chain_to_map(world.proxy("alice")),
    )
    service = ResourceService(cfg, ObjectStore(seeded_store))
    now = int(time.time())
    assert service.authorize(world.proxy("alice"), "read",
                             "vo://esg/data/public/a.nc", now).allow
    cas_server.stop()
    # past the statement's own expiry but inside the chain's validity
    after_statement_expiry = now + 7200
    with pytest.raises(StaleStatement):
        service.authorize(world.proxy("alice"), "read",
                          "vo://esg/data/public/a.nc", after_statement_expiry)


@pytest.mark.parametrize("case", ["wider_namespace", "user_rights"])
def test_pull_refuses_a_statement_for_another_query(world, seeded_store, case):
    """A pull source answering another query with a validly signed statement
    gets a SourceUnavailable answer, never an allow and never Internal."""
    source = RawSource(misbound_answers(world)[case])
    cfg = ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, mode="pull", pull_source=source.endpoint,
        pull_namespace=PULLED["namespace"], client_chain=chain_to_map(world.proxy("alice")),
    )
    server = VaultServer(("127.0.0.1", 0), ResourceService(cfg, ObjectStore(seeded_store)))
    server.start()
    try:
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "read", {"path": "vo://esg/data/public/a.nc"},
                      chain=chain_to_map(world.proxy("alice")))
        assert info.value.code == "SourceUnavailable"
    finally:
        server.stop()
        source.close()


# --- the wire front end -----------------------------------------------------------------

def test_vault_over_the_wire(world, seeded_store):
    service = ResourceService(push_config(world), ObjectStore(seeded_store))
    server = VaultServer(("127.0.0.1", 0), service)
    server.start()
    try:
        alice = chain_to_map(assertion_chain(world, "alice"))
        body = wire.call(server.endpoint, "read",
                         {"path": "vo://esg/data/public/a.nc"}, chain=alice)
        assert bytes.fromhex(body["data"]) == b"contents of vo://esg/data/public/a.nc"
        wire.call(server.endpoint, "write",
                  {"path": "vo://esg/data/new.bin", "data": b"fresh".hex()}, chain=alice)
        body = wire.call(server.endpoint, "read",
                         {"path": "vo://esg/data/new.bin"}, chain=alice)
        assert bytes.fromhex(body["data"]) == b"fresh"
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "delete",
                      {"path": "vo://esg/data/public/a.nc"}, chain=alice)
        assert info.value.code == "Denied"
        assert "stage=site_vo" in info.value.message
        with pytest.raises(ServerError) as info:
            wire.call(server.endpoint, "read", {"path": "vo://esg/data/gone"}, chain=alice)
        assert info.value.code == "NotFound"
    finally:
        server.stop()
