"""Assertion issuance, verification, embedding, and the two credential models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from caslite.assertions import (
    ASSERTION_PREFIX,
    PolicyAssertion,
    assertion_bytes,
    assertion_from_map,
    assertion_to_map,
    embed_in_proxy,
    extract_from_proxy,
    issue_assertion,
    issue_restricted_proxy,
    verify_assertion,
)
from caslite.canonical import (
    canonical_json,
    decode_blocks,
    encode_block,
    parse_canonical,
    write_private,
)
from caslite.credentials import CLOCK_SKEW, chain_to_map, issue_proxy, verify_chain
from caslite.errors import (
    BadSignature,
    Expired,
    LifetimeTooLong,
    MalformedExtension,
    MalformedMessage,
    NotAMember,
    NotYetValid,
    SubjectMismatch,
    WrongIssuer,
)
from caslite.keys import generate_keys
from caslite.policy import user_rights

import oracles
from worldlib import ALICE, BOB, CAROL, CAS, DAY, NOW, fixture_db, rights, rights_covers

ASSERTION_TAG = "ASSERTION"


def save_assertion(a: PolicyAssertion, path) -> None:
    write_private(path, encode_block(ASSERTION_TAG, assertion_bytes(a)))


def load_assertion(path) -> PolicyAssertion:
    blocks = decode_blocks(path.read_text(encoding="utf-8"), ASSERTION_TAG)
    return assertion_from_map(parse_canonical(blocks[0]))


@pytest.fixture(scope="module")
def db():
    return fixture_db()


@pytest.fixture(scope="module")
def world_module():
    from worldlib import make_world

    return make_world()


@pytest.fixture(scope="module")
def cas_keys(world_module):
    return world_module.cas.keys


@pytest.fixture(scope="module")
def cas_public(cas_keys):
    return cas_keys.public()


def test_rights_mode_asserts_entitlements(db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    assert a.mode == "rights"
    assert a.rights == rights(("read", "vo://esg/data/**"), ("write", "vo://esg/data/**"))
    assert a.groups is None
    assert a.db_revision == db.revision
    assert (a.not_before, a.not_after) == (NOW, NOW + 3600)


def test_requested_rights_narrow_the_assertion(db, cas_keys):
    a = issue_assertion(
        db, cas_keys, CAS, ALICE,
        requested=rights(("read", "vo://esg/data/**")), now=NOW,
    )
    assert a.rights == rights(("read", "vo://esg/data/**"))


def test_over_requesting_narrows_instead_of_failing(db, cas_keys):
    a = issue_assertion(
        db, cas_keys, CAS, BOB,
        requested=rights(("read", "vo://esg/**"), ("delete", "vo://esg/**")), now=NOW,
    )
    assert a.rights == rights(("read", "vo://esg/data/public/**"))


def test_membership_mode_lists_groups(db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, ALICE, mode="membership", now=NOW)
    assert a.groups == frozenset({"publishers"})
    assert a.rights is None
    b = issue_assertion(db, cas_keys, CAS, BOB, mode="membership", now=NOW)
    assert b.groups == frozenset()


def test_non_member_and_lifetime_gates(db, cas_keys):
    with pytest.raises(NotAMember):
        issue_assertion(db, cas_keys, CAS, CAROL, now=NOW)
    with pytest.raises(LifetimeTooLong):
        issue_assertion(db, cas_keys, CAS, ALICE, lifetime=2 * DAY, now=NOW)


def test_verify_round_trip_and_expiry(db, cas_keys, cas_public):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    verify_assertion(a, cas_public, CAS, NOW + 10)
    with pytest.raises(Expired) as late:
        verify_assertion(a, cas_public, CAS, a.not_after + CLOCK_SKEW + 1)
    assert (late.value.code, late.value.index) == ("Expired", 0)
    with pytest.raises(NotYetValid) as early:
        verify_assertion(a, cas_public, CAS, a.not_before - CLOCK_SKEW - 1)
    assert (early.value.code, early.value.index) == ("NotYetValid", 0)
    # still good inside the skew window
    verify_assertion(a, cas_public, CAS, a.not_after + CLOCK_SKEW - 1)


def test_foreign_key_fails_signature(db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    stranger = generate_keys()
    with pytest.raises(BadSignature) as info:
        verify_assertion(a, stranger.public(), CAS, NOW)
    assert (info.value.code, info.value.index) == ("BadSignature", 0)


def test_wrong_issuer_is_named(db, cas_keys, cas_public):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    with pytest.raises(WrongIssuer) as info:
        verify_assertion(a, cas_public, "/VO=other/CN=cas", NOW)
    assert (info.value.code, info.value.index) == ("WrongIssuer", 0)


# --- embedding -----------------------------------------------------------------------

def test_embed_then_extract_round_trip(world_module, db, cas_keys):
    chain = world_module.proxy("alice")
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    embedded = embed_in_proxy(chain, a)
    verified = verify_chain(embedded, world_module.anchors, NOW + 60)
    assert verified.subject == ALICE
    assert len(embedded.extensions()) == 1
    assert extract_from_proxy(embedded) == a


def test_embed_rejects_foreign_subject(world_module, db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, BOB, now=NOW)
    with pytest.raises(SubjectMismatch):
        embed_in_proxy(world_module.proxy("alice"), a)


def test_assertion_ignorant_party_still_authenticates(world_module, db, cas_keys):
    """The embedded chain works like any other chain for plain verification."""
    chain = embed_in_proxy(
        world_module.proxy("alice"), issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    )
    delegated = issue_proxy(chain, (NOW, NOW + 1800))
    verified = verify_chain(delegated, world_module.anchors, NOW + 60)
    assert verified.subject == ALICE
    assert extract_from_proxy(delegated) is not None  # the payload rides along


def test_plain_chain_has_no_assertion(world_module):
    assert extract_from_proxy(world_module.proxy("bob")) is None


def test_opaque_extension_is_not_an_assertion(world_module):
    chain = issue_proxy(world_module.proxy("alice"), (NOW, NOW + 600),
                        extension=b"not an assertion at all")
    assert extract_from_proxy(chain) is None


def test_outermost_assertion_wins(world_module, db, cas_keys):
    first = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    second = issue_assertion(
        db, cas_keys, CAS, ALICE, requested=rights(("read", "vo://esg/data/**")), now=NOW
    )
    chain = embed_in_proxy(world_module.proxy("alice"), first)
    chain = embed_in_proxy(chain, second)
    assert extract_from_proxy(chain) == second


def test_truncation_sweep(world_module, db, cas_keys):
    """Every truncation that still looks like an assertion must error; shorter
    ones no longer carry the framing and are opaque."""
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    payload = assertion_bytes(a)
    proxy = world_module.proxy("alice")
    for cut in [1, 2, 7, len(payload) // 2, len(payload) - len(ASSERTION_PREFIX) - 1]:
        truncated = payload[: len(payload) - cut]
        chain = issue_proxy(proxy, (NOW, NOW + 600), extension=truncated)
        verify_chain(chain, world_module.anchors, NOW + 1)  # opacity holds regardless
        if truncated.startswith(ASSERTION_PREFIX):
            with pytest.raises(MalformedExtension):
                extract_from_proxy(chain)
        else:
            assert extract_from_proxy(chain) is None


def test_assertion_framed_garbage_is_an_error(world_module):
    chain = issue_proxy(world_module.proxy("alice"), (NOW, NOW + 600),
                        extension=ASSERTION_PREFIX + b",gibberish}")
    with pytest.raises(MalformedExtension):
        extract_from_proxy(chain)


# --- the restricted-proxy model ----------------------------------------------------

def test_restricted_proxy_carries_rights_not_identity(world_module, db):
    chain = issue_restricted_proxy(world_module.cas_chain, db, ALICE, 3600, now=NOW)
    verified = verify_chain(chain, world_module.anchors, NOW + 60)
    assert verified.subject == CAS
    assert verified.effective_restriction == user_rights(db, ALICE)
    assert chain.innermost_keys().private_part is not None
    assert chain.eec.keys.private_part is None


def test_restricted_proxy_reveals_no_user_identity(world_module, db):
    chain = issue_restricted_proxy(world_module.cas_chain, db, ALICE, 3600, now=NOW)
    wire_doc = canonical_json(chain_to_map(chain))
    assert b"alice" not in wire_doc


def test_restricted_proxy_for_non_member(world_module, db):
    with pytest.raises(NotAMember):
        issue_restricted_proxy(world_module.cas_chain, db, CAROL, 3600, now=NOW)


def test_restricted_issuance_checks_no_signature_of_the_authority_chain(world_module, db,
                                                                        ed25519_checks):
    """The authority checks its own chain once, when it loads it, so an
    issuance that extends the chain checks none of its links again."""
    cas_chain = issue_proxy(world_module.cas_chain, (NOW, NOW + DAY))
    ed25519_checks.clear()
    issue_restricted_proxy(cas_chain, db, ALICE, 3600, now=NOW)
    assert len(cas_chain.links) == 1 and ed25519_checks == []


# --- serialization ---------------------------------------------------------------------

def test_assertion_wire_round_trip(db, cas_keys):
    for mode in ("rights", "membership"):
        a = issue_assertion(db, cas_keys, CAS, ALICE, mode=mode, now=NOW)
        assert assertion_from_map(parse_canonical(assertion_bytes(a))) == a


def test_assertion_file_round_trip(tmp_path, db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    path = tmp_path / "alice.assertion"
    save_assertion(a, path)
    assert load_assertion(path) == a


def test_strict_parsing(db, cas_keys):
    a = issue_assertion(db, cas_keys, CAS, ALICE, now=NOW)
    doc = assertion_to_map(a)
    doc["groups"] = []  # rights mode must not carry groups
    with pytest.raises(MalformedMessage):
        assertion_from_map(doc)
    doc = assertion_to_map(a)
    doc["mode"] = "membership"
    with pytest.raises(MalformedMessage):
        assertion_from_map(doc)


# --- properties ----------------------------------------------------------------------------

@given(
    subject=st.sampled_from([ALICE, BOB]),
    mode=st.sampled_from(["rights", "membership"]),
    lifetime=st.integers(min_value=1, max_value=DAY),
    probe=st.integers(min_value=0, max_value=DAY),
)
@settings(max_examples=40, deadline=None)
def test_issue_verify_round_trip_property(world_module, subject, mode, lifetime, probe):
    db = fixture_db()
    a = issue_assertion(db, world_module.cas.keys, CAS, subject, mode=mode,
                        lifetime=lifetime, now=NOW)
    if probe <= lifetime + CLOCK_SKEW:
        verify_assertion(a, world_module.cas.keys.public(), CAS, NOW + probe)
    else:
        with pytest.raises(Expired):
            verify_assertion(a, world_module.cas.keys.public(), CAS, NOW + probe)


@given(requested=st.one_of(st.none(), st.sets(st.sampled_from([
    ("read", "vo://esg/data/**"),
    ("read", "vo://esg/data/public/**"),
    ("write", "vo://esg/data/private/**"),
    ("delete", "vo://esg/**"),
]), max_size=3)))
@settings(max_examples=40, deadline=None)
def test_assertion_rights_containment(world_module, requested):
    """Issued rights never exceed the database entitlements at that revision."""
    db = fixture_db()
    req = rights(*requested) if requested is not None else None
    a = issue_assertion(db, world_module.cas.keys, CAS, ALICE, requested=req, now=NOW)
    assert rights_covers(user_rights(db, ALICE), a.rights)
    for action in oracles.ACTIONS:
        for obj in oracles.OBJECTS:
            asserted = oracles.naive_rights_match(
                [(r.action, r.object) for r in a.rights], action, obj
            )
            entitled = oracles.naive_rights_match(
                oracles.naive_user_rights(ALICE), action, obj
            )
            assert not (asserted and not entitled)
