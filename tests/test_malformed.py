"""Every document reader fails closed with a domain error.

Each reader gets a valid document after one mutation at any depth: a value
swapped for one of another JSON type, a map key dropped, or a key added. The
reader may accept the result or reject it, but only a ``CasliteError`` may
escape: anything else would surface as ``Internal`` at a service.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from caslite.assertions import assertion_from_map, assertion_to_map, issue_assertion
from caslite.authz import query_from_payload
from caslite.credentials import (
    CredentialChain,
    chain_from_map,
    chain_to_map,
    eec_from_map,
    eec_to_map,
    issue_proxy,
    link_from_map,
    link_to_map,
)
from caslite.errors import CasliteError, MalformedMessage
from caslite.keys import generate_keys, key_from_map, key_to_map
from caslite.policy import (
    AdminCapability,
    VOPolicyDatabase,
    _capability_from_map,
    _capability_to_map,
    db_from_map,
    group_rights_from_map,
    rights_from_list,
    rights_to_list,
    save_database,
    site_from_map,
    site_to_map,
)
from caslite.server import CasServer, ServerConfig
from caslite.statements import sign_statement, statement_from_map, statement_to_map, validate_query

from worldlib import ALICE, ANN, BOB, CAS, DAY, NOW, OWNER, db_to_map, make_world, rights

WORLD = make_world()
RIGHTS = rights(("read", "vo://esg/data/**"), ("write", "vo://esg/data/public/**"))
CAPABILITY = AdminCapability(ANN, frozenset({"grant", "manage_group"}), "vo://esg/data/**",
                             frozenset({"publishers"}))
DB = VOPolicyDatabase(
    vo_name=WORLD.db.vo_name, owner=OWNER, members=WORLD.db.members, groups=WORLD.db.groups,
    grants=WORLD.db.grants, admin_caps=WORLD.db.admin_caps + (CAPABILITY,), revision=3,
)
ASSERTIONS = {
    mode: assertion_to_map(issue_assertion(DB, WORLD.cas.keys, CAS, ALICE, mode, now=NOW))
    for mode in ("rights", "membership")
}
CHAIN = issue_proxy(
    issue_proxy(CredentialChain(eec=WORLD.eec("alice")), (NOW, NOW + DAY), restriction=RIGHTS),
    (NOW, NOW + DAY), extension=b"opaque",
)
QUERIES = [{"query": "user_rights", "subject": ALICE},
           {"query": "resource_rights", "namespace": "vo://esg/data/**"}]
BODIES = [{"assertion": ASSERTIONS["rights"]},
          {"listing": {ALICE: rights_to_list(RIGHTS), BOB: rights_to_list(RIGHTS)}}]
COMMANDS = {
    "grant": {"subject": BOB, "action": "read", "object": "vo://esg/data/x"},
    "add_member": {"identity": "/VO=esg/CN=dave"},
    "create_group": {"group": "readers"},
    "add_to_group": {"group": "publishers", "identity": BOB},
    "add_capability": {"capability": _capability_to_map(CAPABILITY)},
}
COMMANDS["revoke"] = COMMANDS["grant"]
COMMANDS["remove_member"] = COMMANDS["add_member"]
COMMANDS["remove_from_group"] = COMMANDS["add_to_group"]

# reader name -> (reader taking one document, valid documents)
PURE_READERS = {
    "key_from_map": (key_from_map, [key_to_map(generate_keys(), include_private=True)]),
    "eec_from_map": (eec_from_map, [eec_to_map(CHAIN.eec)]),
    "link_from_map": (link_from_map, [link_to_map(l, include_private=True) for l in CHAIN.links]),
    "chain_from_map": (chain_from_map, [chain_to_map(CHAIN, include_private=True)]),
    "assertion_from_map": (assertion_from_map, list(ASSERTIONS.values())),
    "rights_from_list": (rights_from_list, [rights_to_list(RIGHTS)]),
    "capability_from_map": (_capability_from_map, [_capability_to_map(CAPABILITY)]),
    "db_from_map": (db_from_map, [db_to_map(DB)]),
    "site_from_map": (site_from_map, [site_to_map(WORLD.site)]),
    "group_rights_from_map": (group_rights_from_map, [{"publishers": rights_to_list(RIGHTS)}]),
    "validate_query": (validate_query, QUERIES),
    "statement_from_map": (statement_from_map, [
        statement_to_map(sign_statement(WORLD.cas.keys, q, b, NOW, NOW + DAY))
        for q, b in zip(QUERIES, BODIES)
    ]),
    "query_from_payload": (query_from_payload, [{
        "identity": ALICE, "action": "read", "object": "vo://esg/data/x",
        "attributes": ["role=analyst"], "assertion": ASSERTIONS["rights"],
    }]),
}


def _server_readers(server: CasServer) -> dict:
    return {
        "handle_get_credential": (
            lambda payload: server.handle_get_credential(payload, ALICE),
            [{"mode": "assertion", "lifetime": 600, "assertion_mode": "rights",
              "requested": rights_to_list(RIGHTS)},
             {"mode": "restricted_proxy", "lifetime": 600},
             {"mode": "restricted_proxy", "lifetime": 600, "requested": rights_to_list(RIGHTS)}],
        ),
        **{
            f"handle_admin by {who}": (
                lambda payload, caller=caller: server.handle_admin(payload, caller),
                [{"command": {"op": op, **COMMANDS[op]}} for op in COMMANDS],
            )
            for who, caller in (("owner", OWNER), ("capability holder", ANN))
        },
    }


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    paths = WORLD.write_server_files(tmp_path_factory.mktemp("malformed"))
    save_database(DB, paths["db"])
    server = CasServer(ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                                    credential_path=paths["key"], anchors_path=paths["anchors"]))
    yield server
    server.stop()


# Stand-ins for every JSON type this stack carries, unhashable ones included.
JSON_VALUES = [True, 0, -1, 2**40, "", "x", "/VO=esg/CN=x", [], [1], [[1]], ["x"], {}, {"x": 1}]


def _nodes(doc, path=()):
    """Every (path, value) in ``doc``, the root included."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


def _mutants(data, doc):
    """Copies of ``doc``, each with one mutation: one drawn mutation applied
    in turn at every node, at any depth, where it fits."""
    how = data.draw(st.sampled_from(["swap", "drop", "add"]), label="mutation")
    value = data.draw(st.sampled_from(JSON_VALUES), label="value")
    key = data.draw(st.text(max_size=8), label="added key")
    which = data.draw(st.integers(min_value=0, max_value=99), label="dropped key")
    for path, node in list(_nodes(doc)):
        if how == "swap" and type(node) is type(value):
            continue
        if how != "swap" and not (isinstance(node, dict) and (node or how == "add")):
            continue
        if how == "add" and key in node:
            continue
        if how == "swap" and not path:
            yield copy.deepcopy(value)
            continue
        mutant = copy.deepcopy(doc)
        parent, node = None, mutant
        for step in path:
            parent, node = node, node[step]
        if how == "swap":
            parent[path[-1]] = copy.deepcopy(value)
        elif how == "drop":
            del node[sorted(node)[which % len(node)]]
        else:
            node[key] = copy.deepcopy(value)
        yield mutant


@pytest.mark.parametrize("name", [*PURE_READERS, *_server_readers(None)])
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_mutated_documents_raise_only_domain_errors(server, name, data):
    reader, valid = {**PURE_READERS, **_server_readers(server)}[name]
    for doc in valid:
        for mutant in _mutants(data, doc):
            try:
                reader(mutant)
            except CasliteError:
                pass


# reader name -> the integer fields of its documents
INTEGER_FIELDS = {
    "assertion_from_map": ("serial", "db_revision", "not_before", "not_after"),
    "eec_from_map": ("not_before", "not_after"),
    "link_from_map": ("not_before", "not_after"),
    "statement_from_map": ("issued_at", "expires_at"),
    "db_from_map": ("revision",),
    "handle_get_credential": ("lifetime",),
}


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_json_true_is_no_integer(server, name):
    """``true`` in an integer field is refused, although Python's ``bool`` is
    an ``int``: a ``lifetime`` of ``true`` would otherwise issue a one-second
    assertion, and a database file with ``"revision":true`` would load."""
    reader, valid = {**PURE_READERS, **_server_readers(server)}[name]
    for doc in valid:
        reader(doc)
        for field in INTEGER_FIELDS[name]:
            with pytest.raises(MalformedMessage, match=field):
                reader({**doc, field: True})
