"""The canonical test world: one community, one site, a handful of users.

Built once per session; everything in it is immutable. ``NOW`` is pinned at
import so pure operations see a stable clock while long-validity credentials
remain usable by the real-time server tests in the same run.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from caslite import wire
from caslite.assertions import assertion_to_map, issue_assertion
from caslite.credentials import (
    CredentialChain,
    DelegationLink,
    EndEntityCredential,
    issue_eec,
    issue_proxy,
    make_ca,
    save_chain,
)
from caslite.canonical import canonical_json
from caslite.keys import generate_keys, sign_payload
from caslite.policy import (
    AdminCapability,
    Group,
    Right,
    SitePolicy,
    VOPolicyDatabase,
    pattern_covers,
    rights_to_list,
    save_database,
    save_site,
)
from caslite.statements import SignedStatement, sign_statement, statement_to_map

NOW = int(time.time())
DAY = 86400
YEAR = 365 * DAY

ALICE = "/VO=esg/CN=alice"
BOB = "/VO=esg/CN=bob"
CAROL = "/VO=esg/CN=carol"
ANN = "/VO=esg/CN=admin-ann"
OWNER = "/VO=esg/CN=owner"
CAS = "/VO=esg/CN=cas"

USER_NAMES = {"alice": ALICE, "bob": BOB, "carol": CAROL, "admin-ann": ANN, "owner": OWNER}


def rights(*pairs: tuple[str, str]) -> frozenset:
    return frozenset(Right(action, obj) for action, obj in pairs)


def rights_covers(broad, narrow) -> bool:
    """True iff every request matched by ``narrow`` is matched by ``broad``.

    With prefix-only patterns a right is covered by a union exactly when a
    single element covers it, so the per-right check is complete.
    """
    return all(
        any(rb.action == rn.action and pattern_covers(rb.object, rn.object) for rb in broad)
        for rn in narrow
    )


def statement_bytes(s: SignedStatement) -> bytes:
    return canonical_json(statement_to_map(s))


def db_to_map(db: VOPolicyDatabase) -> dict:
    """The database as a document, built from its fields alone: the oracle
    whose ``canonical_json`` :func:`caslite.policy.db_canonical_bytes` must
    equal, and the input of ``db_from_map`` in round-trip tests."""
    caps = []
    for cap in db.admin_caps:
        doc = {"admin": cap.admin, "powers": sorted(cap.powers)}
        if cap.namespace is not None:
            doc["namespace"] = cap.namespace
        if cap.groups:
            doc["groups"] = sorted(cap.groups)
        caps.append(doc)
    return {
        "vo_name": db.vo_name,
        "owner": db.owner,
        "members": sorted(db.members),
        "groups": {name: sorted(g.members) for name, g in db.groups.items()},
        "grants": {ref: rights_to_list(rights) for ref, rights in db.grants.items()},
        "admin_caps": caps,
        "revision": db.revision,
    }


def _naive_covers(outer: str, inner: str) -> bool:
    """Every path ``inner`` matches is matched by ``outer``, by string
    comparison: ``p/**`` matches ``p`` and everything under ``p/``."""
    if outer.endswith("/**"):
        return inner == outer[:-3] or inner.startswith(outer[:-2])
    return inner == outer


def listing_to_map(db: VOPolicyDatabase, namespace: str) -> dict:
    """A namespace's listing built from the database's fields alone: each
    member's direct and group grants narrowed to ``namespace`` by
    :func:`_naive_covers`, sorted by (action, object), members with none left
    out. The oracle whose ``canonical_json`` the joined bytes of
    :func:`caslite.policy.scoped_listing` must equal."""
    listing = {}
    for member in db.members:
        refs = [member] + [name for name, group in db.groups.items() if member in group.members]
        found = set()
        for right in (r for ref in refs for r in db.grants.get(ref, ())):
            if _naive_covers(namespace, right.object):
                found.add((right.action, right.object))
            elif _naive_covers(right.object, namespace):
                found.add((right.action, namespace))
        if found:
            listing[member] = [{"action": a, "object": o} for a, o in sorted(found)]
    return listing


def stops_within(server, seconds: float) -> bool:
    """Whether ``server.stop()`` returns within ``seconds``; a stop that hangs
    is left behind in a daemon thread rather than hanging the test."""
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=seconds)
    return not stopper.is_alive()


def fixture_db() -> VOPolicyDatabase:
    return VOPolicyDatabase(
        vo_name="esg",
        owner=OWNER,
        members=frozenset({ALICE, BOB, ANN}),
        groups={"publishers": Group("publishers", frozenset({ALICE}))},
        grants={
            "publishers": rights(("read", "vo://esg/data/**"), ("write", "vo://esg/data/**")),
            BOB: rights(("read", "vo://esg/data/public/**")),
        },
        admin_caps=(
            AdminCapability(ANN, frozenset({"grant", "revoke"}), "vo://esg/data/public/**"),
        ),
        revision=1,
    )


def groups_only_db() -> VOPolicyDatabase:
    """Fixture variant whose grants all flow through groups, so membership
    assertions can carry the complete policy."""
    db = fixture_db()
    groups = dict(db.groups)
    groups["readers"] = Group("readers", frozenset({BOB}))
    grants = {k: v for k, v in db.grants.items() if k != BOB}
    grants["readers"] = db.grants[BOB]
    return VOPolicyDatabase(
        vo_name=db.vo_name, owner=db.owner, members=db.members,
        groups=groups, grants=grants, admin_caps=db.admin_caps, revision=db.revision,
    )


def fixture_site(blacklist: frozenset | None = None) -> SitePolicy:
    return SitePolicy(
        vo_accounts={CAS: "esg"},
        site_rights={
            "esg": rights(
                ("read", "vo://esg/data/**"),
                ("write", "vo://esg/data/**"),
                ("list", "vo://esg/data/**"),
            ),
        },
        blacklist=frozenset({CAROL}) if blacklist is None else blacklist,
    )


@dataclass
class World:
    ca: EndEntityCredential
    cas: EndEntityCredential
    users: dict
    db: VOPolicyDatabase
    site: SitePolicy
    _proxies: dict = field(default_factory=dict)

    @property
    def anchors(self) -> tuple:
        return (self.ca,)

    @property
    def cas_chain(self) -> CredentialChain:
        return CredentialChain(eec=self.cas)

    def eec(self, short: str) -> EndEntityCredential:
        return self.users[short]

    def proxy(self, short: str, lifetime: int = DAY) -> CredentialChain:
        """A cached one-link proxy for one of the named users."""
        key = (short, lifetime)
        if key not in self._proxies:
            self._proxies[key] = issue_proxy(
                CredentialChain(eec=self.users[short]), (NOW, NOW + lifetime)
            )
        return self._proxies[key]

    def write_server_files(self, directory: Path) -> dict:
        """Lay out the files the server processes need; returns their paths."""
        paths = {
            "db": directory / "db.json",
            "key": directory / "cas.chain",
            "cas_public": directory / "cas_public.chain",
            "anchors": directory / "anchors.chain",
            "site": directory / "site.json",
        }
        save_database(self.db, paths["db"])
        save_chain(self.cas_chain, paths["key"])
        save_chain(self.cas_chain, paths["cas_public"], include_private=False)
        save_chain(CredentialChain(eec=self.ca), paths["anchors"], include_private=False)
        save_site(self.site, paths["site"])
        return paths


def forged_link_chain(eec: EndEntityCredential) -> CredentialChain:
    """``eec`` extended by one link that holds its private key but was
    signed by a stranger: the chain loads, and its link check fails."""
    unsigned = DelegationLink(generate_keys(), NOW, NOW + DAY, None, None, b"")
    forged = replace(unsigned, signature=sign_payload(generate_keys(), unsigned.signing_payload()))
    return CredentialChain(eec=eec, links=(forged,))


def make_world(now: int = NOW) -> World:
    ca = make_ca("testca", now=now - DAY)
    window = (now - 3600, now + YEAR)
    users = {
        short: issue_eec(ca, ident, window) for short, ident in USER_NAMES.items()
    }
    cas = issue_eec(ca, CAS, window)
    return World(ca=ca, cas=cas, users=users, db=fixture_db(), site=fixture_site())


def answer_frame(keys, query: dict, body: dict, now: int = NOW) -> bytes:
    """The document bytes of an ok answer carrying ``body`` signed by ``keys``
    as the answer to ``query``, valid for a day from ``now``."""
    statement = sign_statement(keys, query, body, now, now + DAY)
    return canonical_json(wire.ok_response({"statement": statement_to_map(statement)}))


class RawSource:
    """A bare endpoint that answers every request frame with one frame
    holding ``doc``, whatever bytes it is set to, so tests can serve answers
    no well-behaved server would send. Each connection gets a thread."""

    def __init__(self, doc: bytes):
        self.doc = doc
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                self.request.settimeout(30)
                self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    while wire.read_frame(self.request) is not None:
                        doc = outer.doc
                        self.request.sendall(struct.pack(">I", len(doc)))
                        self.request.sendall(doc)
                except OSError:
                    pass

        class _Server(socketserver.ThreadingTCPServer):
            daemon_threads = True

        self._server = _Server(("127.0.0.1", 0), _Handler)
        self.endpoint = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


def raw_answer(endpoint, request: dict) -> bytes:
    """The answer frame's document bytes, exactly as they came off the socket."""
    with socket.create_connection(endpoint, timeout=10) as sock:
        wire.write_frame(sock, request)
        stream = sock.makefile("rb")
        (length,) = struct.unpack(">I", stream.read(4))
        return stream.read(length)


# The query a pull consumer in these tests asks its source.
PULLED = {"query": "resource_rights", "namespace": "vo://esg/**"}


def misbound_answers(world: World) -> dict:
    """Answers validly signed by the world's authority to queries other than
    :data:`PULLED`, each granting alice reads that the answer to ``PULLED``
    would: a listing of a wider namespace, and her own rights."""
    assertion = issue_assertion(world.db, world.cas.keys, CAS, ALICE, now=NOW)
    wider = {"query": "resource_rights", "namespace": "vo://**"}
    listing = {ALICE: [{"action": "read", "object": "vo://**"}]}
    return {
        "wider_namespace": answer_frame(world.cas.keys, wider, {"listing": listing}),
        "user_rights": answer_frame(world.cas.keys, {"query": "user_rights", "subject": ALICE},
                                    {"assertion": assertion_to_map(assertion)}),
    }
