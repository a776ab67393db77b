"""The work one presented document can force is bounded: a chain longer than
``credentials.MAX_LINKS`` is refused before any link is parsed or any
signature checked, and intersecting sets of thousands of rights costs time
in proportion to their size, not to the product of their sizes.

Each time bound is several times what the sub-quadratic intersection takes
and well below what a pairwise loop over every two rights of one action
takes on the same inputs (about a second on one core)."""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from caslite import credentials, wire
from caslite.assertions import embed_in_proxy, issue_assertion
from caslite.credentials import (
    MAX_LINKS,
    CredentialChain,
    DelegationLink,
    chain_from_map,
    chain_to_map,
    check_chain,
    issue_proxy,
)
from caslite.errors import MalformedMessage, ServerError
from caslite.keys import generate_keys, sign_payload
from caslite.policy import Right, intersect_rights, rights_to_list
from caslite.vault import ObjectStore, ResourceConfig, ResourceService, VaultServer

from worldlib import ALICE, CAS, DAY, NOW

N_RIGHTS = 2000
INTERSECT_BOUND_S = 0.25
CHECK_BOUND_S = 0.3
WIRE_BOUND_S = 0.6

# Two sets of one action in which every right of the second lies under one of
# the first: a pairwise loop compares all N_RIGHTS ** 2 pairs.
BROAD = frozenset(Right("read", f"vo://esg/data/r{i}/**") for i in range(N_RIGHTS))
NARROW = frozenset(Right("read", f"vo://esg/data/r{i}/x") for i in range(N_RIGHTS))
PUBLIC = "vo://esg/data/public/a.nc"


def past_the_bound(chain: CredentialChain) -> CredentialChain:
    """``chain`` plus one well-signed plain link, which :func:`issue_proxy`
    refuses to add once ``chain`` holds ``MAX_LINKS`` links."""
    unsigned = DelegationLink(generate_keys(), NOW, NOW + DAY, None, None, b"")
    link = replace(unsigned, signature=sign_payload(chain.innermost_keys(),
                                                    unsigned.signing_payload()))
    return CredentialChain(chain.eec, tuple(l.public() for l in chain.links) + (link,))


@pytest.fixture(scope="module")
def at_the_bound(world):
    """Alice's chain of ``MAX_LINKS`` links whose second carries her
    assertion, so a push vault allows her a read with it."""
    assertion = issue_assertion(world.db, world.cas.keys, CAS, ALICE, now=NOW)
    chain = embed_in_proxy(world.proxy("alice"), assertion)
    while len(chain.links) < MAX_LINKS:
        chain = issue_proxy(chain, (NOW, NOW + DAY))
    return chain


@pytest.fixture(scope="module")
def wide_restrictions(world):
    """Alice's chain with two self-made links restricted to ``BROAD`` and
    then ``NARROW``: about 200 KB, made with her own credential alone."""
    chain = issue_proxy(world.proxy("alice"), (NOW, NOW + DAY), restriction=BROAD)
    return issue_proxy(chain, (NOW, NOW + DAY), restriction=NARROW)


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_intersecting_thousands_of_rights_of_one_action_is_not_quadratic():
    both, elapsed = timed(lambda: intersect_rights(BROAD, NARROW))
    assert both == NARROW
    assert elapsed < INTERSECT_BOUND_S, f"{elapsed:.3f} s"


def test_two_links_of_thousands_of_rights_check_in_bounded_time(world, wide_restrictions):
    doc = chain_to_map(wide_restrictions)
    checked, elapsed = timed(lambda: check_chain(chain_from_map(doc), world.anchors))
    assert checked.effective_restriction == NARROW
    assert elapsed < CHECK_BOUND_S, f"{elapsed:.3f} s"


def test_a_chain_past_the_link_bound_is_refused_before_any_signature(
        world, at_the_bound, monkeypatch):
    checks = []
    real = credentials.verify_payload
    monkeypatch.setattr(credentials, "verify_payload",
                        lambda *args: checks.append(1) or real(*args))
    doc = chain_to_map(past_the_bound(at_the_bound))
    with pytest.raises(MalformedMessage, match=f"bound of {MAX_LINKS}"):
        chain_from_map(doc)
    assert checks == []
    checked = check_chain(chain_from_map(chain_to_map(at_the_bound)), world.anchors)
    assert len(checked.windows) == MAX_LINKS + 1
    assert len(checks) == MAX_LINKS + 1


def test_issue_proxy_keeps_the_link_bound(at_the_bound):
    with pytest.raises(MalformedMessage, match=f"bound of {MAX_LINKS}"):
        issue_proxy(at_the_bound, (NOW, NOW + DAY))


# --- over the wire ---------------------------------------------------------------------

@pytest.fixture
def push_vault(world):
    service = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors), ObjectStore({PUBLIC: b"public"}))
    server = VaultServer(("127.0.0.1", 0), service)
    server.start()
    yield server
    server.stop()


def answer(endpoint, kind, payload, chain):
    """The answer body or the error code, and the seconds it took."""
    def call():
        try:
            return wire.call(endpoint, kind, payload, chain=chain)
        except ServerError as exc:
            return exc.code
    return timed(call)


def test_push_vault_refuses_a_chain_past_the_link_bound(push_vault, at_the_bound):
    at, _ = answer(push_vault.endpoint, "read", {"path": PUBLIC}, chain_to_map(at_the_bound))
    assert bytes.fromhex(at["data"]) == b"public"
    past, elapsed = answer(push_vault.endpoint, "read", {"path": PUBLIC},
                           chain_to_map(past_the_bound(at_the_bound)))
    assert past == "MalformedMessage"
    assert elapsed < WIRE_BOUND_S, f"{elapsed:.3f} s"


def test_push_vault_denies_two_links_of_thousands_of_rights_in_bounded_time(
        push_vault, wide_restrictions):
    got, elapsed = answer(push_vault.endpoint, "read", {"path": "vo://esg/data/r7/x"},
                          chain_to_map(wide_restrictions))
    assert got == "Denied"
    assert elapsed < WIRE_BOUND_S, f"{elapsed:.3f} s"


def test_authority_narrows_thousands_of_requested_rights_in_bounded_time(world, cas_server):
    """Alice holds no delete right, so a request for 2,000 of them gets a
    restricted proxy whose restriction is empty, and every use of it denies."""
    requested = [Right("delete", f"vo://esg/data/r{i}/**") for i in range(N_RIGHTS)]
    body, elapsed = answer(cas_server.endpoint, "get_credential",
                           {"mode": "restricted_proxy", "lifetime": 3600,
                            "requested": rights_to_list(requested)},
                           chain_to_map(world.proxy("alice")))
    assert elapsed < WIRE_BOUND_S, f"{elapsed:.3f} s"
    chain = chain_from_map(body["chain"])
    assert chain.effective_restriction() == frozenset()
    vault = ResourceService(ResourceConfig(site=world.site, cas_public=world.cas.keys.public(),
                                           cas_identity=CAS, anchors=world.anchors))
    decision = vault.authorize(chain, "read", PUBLIC, int(time.time()))
    assert not decision.allow and decision.stage == "vo_user"
