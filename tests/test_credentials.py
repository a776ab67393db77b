"""Credential chains: issuance, verification, tampering, nesting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from caslite.canonical import parse_canonical
from caslite.credentials import (
    CLOCK_SKEW,
    CredentialChain,
    DelegationLink,
    chain_bytes,
    chain_from_map,
    chain_to_map,
    issue_eec,
    issue_proxy,
    load_anchors,
    load_chain,
    make_ca,
    save_chain,
    verify_chain,
)
from caslite.errors import (
    BadSignature,
    BrokenNesting,
    Expired,
    MalformedMessage,
    NotYetValid,
    ParentUnverifiable,
    UntrustedRoot,
    ValidityOutOfRange,
)
from caslite.keys import generate_keys, sign_payload
from caslite.policy import Right

from worldlib import ALICE, DAY, NOW, YEAR, rights


@pytest.fixture(scope="module")
def ca():
    return make_ca("testca", now=NOW - DAY)


@pytest.fixture(scope="module")
def alice_eec(ca):
    return issue_eec(ca, ALICE, (NOW - 3600, NOW + YEAR))


@pytest.fixture(scope="module")
def alice_proxy(alice_eec):
    return issue_proxy(CredentialChain(eec=alice_eec), (NOW, NOW + DAY))


def test_make_ca_is_self_signed_anchor(ca):
    assert ca.subject == ca.issuer == "/CN=testca"
    verified = verify_chain(CredentialChain(eec=ca), [ca], NOW)
    assert verified.subject == "/CN=testca"


def test_empty_anchor_set_is_untrusted(ca):
    with pytest.raises(UntrustedRoot):
        verify_chain(CredentialChain(eec=ca), [], NOW)


def test_issue_eec_round_trip(ca, alice_eec):
    verified = verify_chain(CredentialChain(eec=alice_eec), [ca], NOW)
    assert verified.subject == ALICE
    assert verified.effective_restriction is None
    assert verified.extensions == []


def test_issue_eec_validity_must_nest(ca):
    with pytest.raises(ValidityOutOfRange):
        issue_eec(ca, ALICE, (NOW, ca.not_after + 1))
    with pytest.raises(ValidityOutOfRange):
        issue_eec(ca, ALICE, (ca.not_before - 1, NOW + YEAR))


def test_eec_signature_tamper_sweep(ca, alice_eec):
    """Flipping any single byte of the signature must break verification."""
    for position in range(len(alice_eec.signature)):
        mutated = bytearray(alice_eec.signature)
        mutated[position] ^= 0x01
        forged = CredentialChain(eec=type(alice_eec)(
            alice_eec.subject, alice_eec.issuer, alice_eec.keys,
            alice_eec.not_before, alice_eec.not_after, bytes(mutated),
        ))
        with pytest.raises(BadSignature):
            verify_chain(forged, [ca], NOW)


def test_one_day_proxy_delegates_full_rights(ca, alice_proxy):
    verified = verify_chain(alice_proxy, [ca], NOW + 3600)
    assert verified.subject == ALICE
    assert verified.effective_restriction is None
    assert len(alice_proxy.links) == 1


def test_second_link_delegates_to_a_service(ca, alice_proxy):
    service_chain = issue_proxy(alice_proxy, (NOW, NOW + 3600))
    verified = verify_chain(service_chain, [ca], NOW + 60)
    assert verified.subject == ALICE  # identity is still the end entity's
    assert len(service_chain.links) == 2


def test_empty_restriction_is_preserved(ca, alice_proxy):
    chain = issue_proxy(alice_proxy, (NOW, NOW + 3600), restriction=frozenset())
    verified = verify_chain(chain, [ca], NOW + 60)
    assert verified.effective_restriction == frozenset()


def test_proxy_expiry_with_skew(ca, alice_proxy):
    with pytest.raises(Expired) as info:
        verify_chain(alice_proxy, [ca], NOW + 25 * 3600)
    assert info.value.index == 1
    # still fine within the skew window
    verify_chain(alice_proxy, [ca], NOW + DAY + CLOCK_SKEW - 1)
    with pytest.raises(NotYetValid):
        verify_chain(alice_proxy, [ca], NOW - CLOCK_SKEW - 1)


def test_restriction_intersection_across_links(ca, alice_proxy):
    wide = rights(("read", "vo://esg/data/**"), ("write", "vo://esg/data/**"))
    narrow = rights(("read", "vo://esg/data/**"))
    chain = issue_proxy(alice_proxy, (NOW, NOW + 3600), restriction=wide)
    chain = issue_proxy(chain, (NOW, NOW + 3600), restriction=narrow)
    verified = verify_chain(chain, [ca], NOW + 60)
    assert verified.effective_restriction == narrow


def test_validity_must_nest_in_parent(alice_proxy):
    with pytest.raises(ValidityOutOfRange):
        issue_proxy(alice_proxy, (NOW, NOW + 2 * DAY))


def test_hand_built_nesting_violation_is_rejected(ca, alice_eec, alice_proxy):
    link = alice_proxy.links[0]
    keys = generate_keys()
    # signed correctly but with an interval escaping the parent's
    bad = DelegationLink(keys, NOW, NOW + 2 * DAY, None, None, b"")
    signature = sign_payload(alice_proxy.innermost_keys(), bad.signing_payload())
    bad = DelegationLink(keys, NOW, NOW + 2 * DAY, None, None, signature)
    chain = CredentialChain(eec=alice_eec, links=(link, bad))
    with pytest.raises(BrokenNesting) as info:
        verify_chain(chain, [ca], NOW + 60)
    assert info.value.index == 2


def test_link_signed_by_wrong_key_is_rejected(ca, alice_eec, alice_proxy):
    stranger = generate_keys()
    keys = generate_keys()
    unsigned = DelegationLink(keys, NOW, NOW + 3600, None, None, b"")
    forged = DelegationLink(
        keys, NOW, NOW + 3600, None, None,
        sign_payload(stranger, unsigned.signing_payload()),
    )
    chain = CredentialChain(eec=alice_eec, links=(forged,))
    with pytest.raises(BadSignature) as info:
        verify_chain(chain, [ca], NOW)
    assert info.value.index == 1


def test_unknown_extension_payloads_are_opaque(ca, alice_proxy):
    chain = issue_proxy(alice_proxy, (NOW, NOW + 3600), extension=b"\x00junk payload")
    verified = verify_chain(chain, [ca], NOW + 60)
    assert verified.extensions == [b"\x00junk payload"]


def test_extensions_come_back_outermost_last(ca, alice_proxy):
    chain = issue_proxy(alice_proxy, (NOW, NOW + 3600), extension=b"inner")
    chain = issue_proxy(chain, (NOW, NOW + 1800), extension=b"outer")
    verified = verify_chain(chain, [ca], NOW + 60)
    assert verified.extensions == [b"inner", b"outer"]


def test_issue_proxy_needs_private_key(ca, alice_proxy):
    stripped = CredentialChain(
        eec=alice_proxy.eec, links=tuple(l.public() for l in alice_proxy.links)
    )
    with pytest.raises(ParentUnverifiable):
        issue_proxy(stripped, (NOW, NOW + 60))


def test_issue_proxy_rejects_inconsistent_parent(ca, alice_eec):
    keys = generate_keys()
    unsigned = DelegationLink(keys, NOW, NOW + 3600, None, None, b"")
    forged = DelegationLink(
        keys, NOW, NOW + 3600, None, None,
        sign_payload(generate_keys(), unsigned.signing_payload()),
    )
    parent = CredentialChain(eec=alice_eec, links=(forged,))
    with pytest.raises(ParentUnverifiable):
        issue_proxy(parent, (NOW, NOW + 60))


def test_chain_wire_round_trip(alice_proxy):
    doc = parse_canonical(chain_bytes(alice_proxy))
    restored = chain_from_map(doc)
    assert restored.subject == alice_proxy.subject
    assert restored.innermost_keys().private_part is None
    assert restored.links[0].signature == alice_proxy.links[0].signature


def test_chain_file_round_trip_keeps_innermost_key(tmp_path, alice_proxy):
    path = tmp_path / "alice.chain"
    save_chain(alice_proxy, path)
    assert oct(path.stat().st_mode & 0o777) == "0o600"
    loaded = load_chain(path)
    assert loaded.innermost_keys().private_part is not None
    assert loaded.eec.keys.private_part is None  # ancestors are publicized
    # the reloaded chain can keep delegating
    issue_proxy(loaded, (NOW, NOW + 60))


def test_anchor_file_round_trip(tmp_path, ca, alice_eec):
    path = tmp_path / "anchors.chain"
    save_chain(CredentialChain(eec=ca), path, include_private=False)
    anchors = load_anchors(path)
    assert len(anchors) == 1 and anchors[0].keys.private_part is None
    verify_chain(CredentialChain(eec=alice_eec), anchors, NOW)


def test_deliverable_chain_strips_ancestors(ca, alice_eec):
    first = issue_proxy(CredentialChain(eec=alice_eec), (NOW, NOW + DAY))
    delivered = issue_proxy(first, (NOW, NOW + DAY))
    assert delivered.eec.keys.private_part is None
    assert delivered.links[0].keys.private_part is None
    assert delivered.innermost_keys().private_part is not None


def test_strict_parsing_rejects_unknown_fields(alice_proxy):
    doc = chain_to_map(alice_proxy)
    doc["extra"] = 1
    with pytest.raises(MalformedMessage):
        chain_from_map(doc)
    doc = chain_to_map(alice_proxy)
    doc["eec"]["caslite"] = "link/1"
    with pytest.raises(MalformedMessage):
        chain_from_map(doc)


# --- properties -------------------------------------------------------------------

intervals = st.tuples(
    st.integers(min_value=NOW - 3000, max_value=NOW + 3000),
    st.integers(min_value=1, max_value=YEAR // 2),
).map(lambda t: (t[0], t[0] + t[1]))


@given(validity=intervals, probe_offset=st.integers(-YEAR, YEAR))
@settings(max_examples=40, deadline=None)
def test_round_trip_validity_window(validity, probe_offset):
    """verify_chain succeeds exactly inside the effective window (modulo skew)."""
    ca = make_ca("propca", now=NOW - YEAR)
    eec = issue_eec(ca, "/CN=prop", (NOW - YEAR + 1, NOW + YEAR))
    chain = issue_proxy(CredentialChain(eec=eec), validity)
    probe = NOW + probe_offset
    not_before, not_after = chain.effective_interval()
    inside = not_before - CLOCK_SKEW <= probe <= not_after + CLOCK_SKEW
    if inside:
        assert verify_chain(chain, [ca], probe).subject == "/CN=prop"
    else:
        with pytest.raises((Expired, NotYetValid)):
            verify_chain(chain, [ca], probe)


pattern_segments = st.lists(
    st.sampled_from(["data", "public", "private", "x", "deep"]), min_size=0, max_size=3
)


@st.composite
def restrictions(draw):
    out = set()
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["read", "write", "list", "delete", "create"]))
        segs = draw(pattern_segments)
        out.add(Right(action, "vo://esg/" + "/".join(segs + ["**"])))
    return frozenset(out)


@given(st.lists(st.one_of(st.none(), restrictions()), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_restriction_never_grows_along_the_chain(layers):
    """Appending links only ever shrinks what the chain can assert."""
    from worldlib import rights_covers

    ca = make_ca("propca", now=NOW - YEAR)
    eec = issue_eec(ca, "/CN=prop", (NOW - 3600, NOW + YEAR))
    chain = CredentialChain(eec=eec)
    previous = None
    for layer in layers:
        chain = issue_proxy(chain, (NOW, NOW + 3600), restriction=layer)
        current = chain.effective_restriction()
        if previous is not None:
            assert current is not None
            assert rights_covers(previous, current)
        if current is not None:
            previous = current
