"""End-to-end acceptance checks for the whole stack.

Each test covers one exit criterion and prints a single pass line once its
assertions hold (run with ``-s`` to see them inline). The expected values come
from the independent string-level oracles in ``oracles.py`` or from explicit
scenario bounds, never from the code under test.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from caslite import wire
from caslite.assertions import (
    assertion_bytes,
    assertion_from_map,
    embed_in_proxy,
    issue_assertion,
    issue_restricted_proxy,
    verify_assertion,
)
from caslite.canonical import parse_canonical
from caslite.cache import CacheConfig, CacheServer, StatementCache
from caslite.credentials import (
    CredentialChain,
    chain_bytes,
    chain_from_map,
    chain_to_map,
    load_chain,
    save_chain,
    verify_chain,
)
from caslite.errors import CasliteError, ServerError, StaleEntry
from caslite.keys import CheckedMemo
from caslite.policy import VOPolicyDatabase, db_canonical_bytes, load_database
from caslite.server import CasServer, ServerConfig
from caslite.statements import (
    StatementFetcher,
    statement_from_map,
    verify_statement,
)
from caslite.vault import ResourceConfig, ResourceService
from caslite.authz import AuthzConfig, AuthzServer, decide_local

import oracles
from worldlib import (
    ALICE, ANN, BOB, CAROL, CAS, NOW, PULLED, RawSource,
    fixture_db, fixture_site, groups_only_db, raw_answer, rights, statement_bytes,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(endpoint, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            wire.call(endpoint, "ping", timeout=2)
            return
        except (OSError, ServerError):
            time.sleep(0.05)
    raise RuntimeError(f"server at {endpoint} never came up")


def run_cli(*args, expect: int = 0):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "caslite.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == expect, (result.returncode, result.stdout, result.stderr)
    return result


def spawn(module: str, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", module, *map(str, args)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )


def with_replayed_carol(db: VOPolicyDatabase) -> VOPolicyDatabase:
    """A looser revision that lets the tests mint a still-valid assertion for
    the blacklisted user, modelling policy that changed after issuance."""
    grants = dict(db.grants)
    grants[CAROL] = rights(
        ("read", "vo://esg/data/**"), ("write", "vo://esg/data/**"),
        ("list", "vo://esg/data/**"),
    )
    return VOPolicyDatabase(
        vo_name=db.vo_name, owner=db.owner, members=db.members | {CAROL},
        groups=db.groups, grants=grants, admin_caps=db.admin_caps,
        revision=db.revision,
    )


def embedded_chains(world, db=None):
    db = db or world.db
    out = {}
    for short, user in (("alice", ALICE), ("bob", BOB), ("admin-ann", ANN)):
        assertion = issue_assertion(db, world.cas.keys, CAS, user, now=NOW)
        out[user] = embed_in_proxy(world.proxy(short), assertion)
    loose = with_replayed_carol(db)
    carol_assertion = issue_assertion(loose, world.cas.keys, CAS, CAROL, now=NOW)
    out[CAROL] = embed_in_proxy(world.proxy("carol"), carol_assertion)
    return out


def oracle_pairs(user):
    if user == CAROL:
        return [("read", "vo://esg/data/**"), ("write", "vo://esg/data/**"),
                ("list", "vo://esg/data/**")]
    return oracles.naive_user_rights(user)


def test_intersection_semantics_oracle(world):
    """Enforcement equals exhaustive site-and-community intersection minus the
    blacklist, over the full request universe."""
    started = time.monotonic()
    service = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(),
        cas_identity=CAS, anchors=world.anchors,
    ))
    chains = embedded_chains(world)
    triples = agreements = 0
    for user, action, obj in oracles.universe():
        expected_allow, _ = oracles.naive_decide(CAS, oracle_pairs(user), user, action, obj)
        decision = service.authorize(chains[user], action, obj, NOW)
        assert decision.allow == expected_allow, (user, action, obj, decision)
        triples += 1
        agreements += 1
    elapsed = time.monotonic() - started
    assert triples >= 300
    assert agreements == triples
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"
    report(f"intersection-oracle ({triples} triples, {elapsed:.2f}s)")


def test_push_flow_end_to_end(world, tmp_path):
    """proxy-init, get-cred, vault access as real local processes."""
    paths = world.write_server_files(tmp_path)
    for short in ("alice", "bob", "carol"):
        save_chain(CredentialChain(eec=world.eec(short)), tmp_path / f"{short}.eec")
    cas_port, vault_port = free_port(), free_port()
    server_proc = spawn(
        "caslite.server", "--listen", f"127.0.0.1:{cas_port}",
        "--db", paths["db"], "--key", paths["key"], "--anchors", paths["anchors"],
    )
    vault_proc = spawn(
        "caslite.vault", "--listen", f"127.0.0.1:{vault_port}",
        "--site", paths["site"], "--cas-key", paths["cas_public"],
        "--mode", "push", "--anchors", paths["anchors"],
    )
    try:
        wait_ready(("127.0.0.1", cas_port))
        wait_ready(("127.0.0.1", vault_port))
        started = time.monotonic()

        # step 1: the user creates a local proxy
        run_cli("proxy-init", tmp_path / "alice.eec", "--hours", "12",
                "--out", tmp_path / "alice.proxy")
        # step 2: the authority issues the policy credential
        run_cli("get-cred", "--server", f"127.0.0.1:{cas_port}",
                "--chain", tmp_path / "alice.proxy", "--anchors", paths["anchors"],
                "--out", tmp_path / "alice.community")
        # step 3: the resource enforces it
        alice_doc = chain_to_map(load_chain(tmp_path / "alice.community"))
        vault = ("127.0.0.1", vault_port)
        wire.call(vault, "write", {"path": "vo://esg/data/public/a.nc",
                                   "data": b"climate bytes".hex()}, chain=alice_doc)
        body = wire.call(vault, "read", {"path": "vo://esg/data/public/a.nc"},
                         chain=alice_doc)
        assert bytes.fromhex(body["data"]) == b"climate bytes"
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"user journey took {elapsed:.2f}s"

        # bob holds read only: write denied at the community-user stage
        run_cli("proxy-init", tmp_path / "bob.eec", "--hours", "12",
                "--out", tmp_path / "bob.proxy")
        run_cli("get-cred", "--server", f"127.0.0.1:{cas_port}",
                "--chain", tmp_path / "bob.proxy", "--anchors", paths["anchors"],
                "--out", tmp_path / "bob.community")
        bob_doc = chain_to_map(load_chain(tmp_path / "bob.community"))
        with pytest.raises(ServerError) as info:
            wire.call(vault, "write", {"path": "vo://esg/data/public/a.nc",
                                       "data": b"x".hex()}, chain=bob_doc)
        assert info.value.code == "Denied" and "stage=vo_user" in info.value.message
        with pytest.raises(ServerError) as info:
            wire.call(vault, "delete", {"path": "vo://esg/data/public/a.nc"},
                      chain=bob_doc)
        assert "stage=site_vo" in info.value.message
        assert bytes.fromhex(wire.call(vault, "read",
                                       {"path": "vo://esg/data/public/a.nc"},
                                       chain=bob_doc)["data"]) == b"climate bytes"

        # carol is no member: the flow already fails at the authority
        run_cli("proxy-init", tmp_path / "carol.eec", "--hours", "12",
                "--out", tmp_path / "carol.proxy")
        result = run_cli("get-cred", "--server", f"127.0.0.1:{cas_port}",
                         "--chain", tmp_path / "carol.proxy",
                         "--anchors", paths["anchors"],
                         "--out", tmp_path / "carol.community", expect=1)
        assert result.stdout.strip() == "NotAMember"
    finally:
        for proc in (server_proc, vault_proc):
            proc.terminate()
            proc.wait(timeout=10)
    report(f"push-flow-end-to-end ({elapsed:.2f}s)")


def test_restricted_proxy_flow_and_blacklist_limitation(world, tmp_path, cas_server):
    """The restricted-chain flow authorizes the same requests, but a per-user
    blacklist cannot take effect because the user identity is invisible."""
    save_chain(CredentialChain(eec=world.eec("alice")), tmp_path / "alice.eec")
    run_cli("proxy-init", tmp_path / "alice.eec", "--hours", "12",
            "--out", tmp_path / "alice.proxy")
    server = f"{cas_server.endpoint[0]}:{cas_server.endpoint[1]}"
    paths = world.write_server_files(tmp_path)
    run_cli("get-cred", "--server", server, "--chain", tmp_path / "alice.proxy",
            "--anchors", paths["anchors"], "--out", tmp_path / "alice.restricted",
            "--mode", "restricted")
    restricted = load_chain(tmp_path / "alice.restricted")
    assert restricted.subject == CAS

    # same decisions as the embedded-assertion flow on the plain fixture
    embedded = embedded_chains(world)[ALICE]
    plain = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(),
        cas_identity=CAS, anchors=world.anchors,
    ))
    now = int(time.time())
    for action in oracles.ACTIONS:
        for obj in oracles.OBJECTS:
            a = plain.authorize(restricted, action, obj, now)
            b = plain.authorize(embedded, action, obj, now)
            assert a.allow == b.allow, (action, obj)

    # blacklisting alice stops the embedded flow but cannot stop the
    # restricted one: the resource never sees her identity
    hostile = ResourceService(ResourceConfig(
        site=fixture_site(blacklist=frozenset({ALICE})),
        cas_public=world.cas.keys.public(), cas_identity=CAS, anchors=world.anchors,
    ))
    obj = "vo://esg/data/public/a.nc"
    denied = hostile.authorize(embedded, "read", obj, now)
    assert not denied.allow and denied.stage == "site_user"
    assert hostile.authorize(restricted, "read", obj, now).allow
    report("restricted-proxy-flow and blacklist limitation")


def test_single_byte_tamper_rejection(world, cas_server):
    """Randomized single-byte mutations across every signed artifact kind are
    all rejected; zero false accepts."""
    rng = random.Random(20260808)
    alice_doc = chain_to_map(world.proxy("alice"))
    assertion = issue_assertion(world.db, world.cas.keys, CAS, ALICE, now=NOW)
    embedded = embed_in_proxy(world.proxy("alice"), assertion)
    restricted = issue_restricted_proxy(world.cas_chain, world.db, ALICE, 3600, now=NOW)
    statement_body = wire.call(cas_server.endpoint, "query",
                               {"query": "resource_rights", "namespace": "vo://esg/**"},
                               chain=alice_doc)
    statement = statement_from_map(statement_body["statement"])

    def chain_accepts(data: bytes) -> bool:
        verify_chain(chain_from_map(parse_canonical(data)), world.anchors, NOW)
        return True

    def assertion_accepts(data: bytes) -> bool:
        parsed = assertion_from_map(parse_canonical(data))
        verify_assertion(parsed, world.cas.keys.public(), CAS, NOW)
        return True

    def statement_accepts(data: bytes) -> bool:
        parsed = statement_from_map(parse_canonical(data))
        return verify_statement(parsed, world.cas.keys.public())

    corpus = [
        (chain_bytes(embedded), chain_accepts),
        (chain_bytes(restricted), chain_accepts),
        (assertion_bytes(assertion), assertion_accepts),
        (statement_bytes(statement), statement_accepts),
    ]
    # every artifact accepts its pristine bytes, so rejections below are real
    for data, accepts in corpus:
        assert accepts(data)

    mutations = 0
    false_accepts = []
    for data, accepts in corpus:
        for _ in range(40):
            position = rng.randrange(len(data))
            replacement = rng.randrange(256)
            while replacement == data[position]:
                replacement = rng.randrange(256)
            mutated = data[:position] + bytes([replacement]) + data[position + 1:]
            mutations += 1
            try:
                if accepts(mutated):
                    false_accepts.append((position, replacement))
            except CasliteError:
                pass
    assert mutations >= 100
    assert not false_accepts, false_accepts
    report(f"tamper-rejection ({mutations} mutations, 0 false accepts)")


def _byte_mutants(data: bytes, rng: random.Random, count: int):
    """``count`` copies of ``data``, each with one byte flipped, inserted or
    deleted, or cut short, the four in turn."""
    for i in range(count):
        at = rng.randrange(len(data))
        how = i % 4
        if how == 0:
            yield data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        elif how == 1:
            yield data[:at] + bytes([rng.randrange(256)]) + data[at:]
        elif how == 2:
            yield data[:at] + data[at + 1:]
        else:
            yield data[:at]


def test_mutated_listing_answers_never_allow(world, cas_server, monkeypatch):
    """A pull source serves byte-mutated copies of a real listing answer. The
    vault and the decision service deny or raise a domain error, each within
    the frame deadline; the mirror refuses each copy or forwards bytes that a
    consumer then refuses."""
    monkeypatch.setattr(wire, "FRAME_DEADLINE", 2.0)
    chain = world.proxy("alice")
    pristine = raw_answer(cas_server.endpoint,
                          {"kind": "query", "payload": PULLED, "chain": chain_to_map(chain)})
    source = RawSource(pristine)
    key, namespace, obj = world.cas.keys.public(), PULLED["namespace"], "vo://esg/data/public/a.nc"
    vault_cfg = ResourceConfig(site=world.site, cas_public=key, cas_identity=CAS,
                               anchors=world.anchors, mode="pull", pull_source=source.endpoint,
                               pull_namespace=namespace)
    mirror = CacheServer(("127.0.0.1", 0), StatementCache(CacheConfig(
        authority=source.endpoint, refresh_interval=3000, max_age=3500,
        subscriptions=[PULLED])))
    mirror.start()
    now = int(time.time())

    def vault_allows() -> bool:
        try:
            return ResourceService(vault_cfg).authorize(chain, "read", obj, now).allow
        except CasliteError:
            return False

    def authz_allows() -> bool:
        fetcher = StatementFetcher(source.endpoint, namespace, key)
        try:
            return decide_local({"identity": ALICE, "action": "read", "object": obj},
                                world.site, key, CAS, now, fetcher, memo=CheckedMemo())["allow"]
        except CasliteError:
            return False

    forwarded = 0
    try:
        assert vault_allows() and authz_allows()  # so the denials below are real
        mutants = list(_byte_mutants(pristine, random.Random(20261019), 120))
        for mutant in mutants:
            source.doc = mutant
            started = time.monotonic()
            assert not vault_allows()
            assert not authz_allows()
            if mirror.cache.refresh(now)["updated"]:
                forwarded += 1
                with pytest.raises(CasliteError):
                    StatementFetcher(mirror.endpoint, namespace, key).fetch()
            assert time.monotonic() - started < wire.FRAME_DEADLINE
    finally:
        mirror.stop()
        source.close()
    report(f"mutated-listing fail-closed ({len(mutants)} mutants, {forwarded} forwarded)")


def test_membership_and_rights_modes_agree(world):
    """With the grant table mirrored into the resource's group map, membership
    assertions decide exactly like rights assertions."""
    db = groups_only_db()
    group_rights = {name: db.grants.get(name, frozenset()) for name in db.groups}
    service = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, group_rights=group_rights,
    ))
    comparisons = 0
    for short, user in (("alice", ALICE), ("bob", BOB), ("admin-ann", ANN)):
        by_membership = embed_in_proxy(
            world.proxy(short),
            issue_assertion(db, world.cas.keys, CAS, user, mode="membership", now=NOW),
        )
        by_rights = embed_in_proxy(
            world.proxy(short),
            issue_assertion(db, world.cas.keys, CAS, user, mode="rights", now=NOW),
        )
        for action in oracles.ACTIONS:
            for obj in oracles.OBJECTS:
                a = service.authorize(by_membership, action, obj, NOW)
                b = service.authorize(by_rights, action, obj, NOW)
                assert (a.allow, a.stage) == (b.allow, b.stage), (user, action, obj)
                comparisons += 1
    report(f"mode-equivalence ({comparisons} comparisons)")


def test_cache_availability_and_propagation(world, tmp_path):
    """The mirror bridges an authority outage for the rest of max_age, fails
    closed afterwards, and propagates a grant within two seconds."""
    paths = world.write_server_files(tmp_path)
    authority = CasServer(ServerConfig(
        listen=("127.0.0.1", 0), db_path=paths["db"],
        credential_path=paths["key"], anchors_path=paths["anchors"],
    ))
    authority.start()
    query = {"query": "user_rights", "subject": BOB}
    cache = StatementCache(CacheConfig(
        authority=authority.endpoint, refresh_interval=1, max_age=5,
        subscriptions=[query], client_chain=chain_to_map(world.proxy("alice")),
    ))
    mirror = CacheServer(("127.0.0.1", 0), cache)
    mirror.start()
    try:
        wait_ready(mirror.endpoint)

        # propagation: one grant becomes visible through the mirror within 2s
        wire.call(authority.endpoint, "admin", {"command": {
            "op": "grant", "subject": BOB, "action": "write",
            "object": "vo://esg/data/public/**",
        }}, chain=chain_to_map(world.proxy("admin-ann")))
        granted = rights(("write", "vo://esg/data/public/**"))
        propagation_started = time.monotonic()
        while True:
            body = wire.call(mirror.endpoint, "query", query)
            mirrored = assertion_from_map(
                statement_from_map(body["statement"]).body["assertion"]
            )
            if granted <= mirrored.rights:
                break
            assert time.monotonic() - propagation_started < 2.0, \
                "grant did not propagate through the mirror in time"
            time.sleep(0.05)
        propagation = time.monotonic() - propagation_started

        # availability: kill the authority, let one refresh cycle fail
        authority.stop()
        stopped = int(time.time())  # the held statement was fetched by now
        time.sleep(1.5)
        assert statement_from_map(
            wire.call(mirror.endpoint, "query", query)["statement"]
        ).signature == cache.serve_cached(query).signature  # still serving, untouched
        with pytest.raises(StaleEntry, match=r"^entry fetched at \d+ ") as stale:
            cache.serve_cached(query, stopped + cache.config.max_age + 1)
        window_end = int(stale.value.message.split()[3]) + cache.config.max_age
        served = cache.serve_cached(query, window_end)  # the whole window holds
        assert verify_statement(served, world.cas.keys.public())
        with pytest.raises(StaleEntry):
            cache.serve_cached(query, window_end + 1)  # then fail closed
    finally:
        mirror.stop()
        authority.stop()
    report(f"cache-availability (propagation {propagation:.2f}s)")


def test_pull_equals_push(world, cas_server):
    """Bare-chain pull authorization equals credential-push enforcement on
    every request at the same database revision."""
    push = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(),
        cas_identity=CAS, anchors=world.anchors,
    ))
    pull = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        anchors=world.anchors, mode="pull", pull_source=cas_server.endpoint,
        pull_namespace="vo://esg/**", client_chain=chain_to_map(world.proxy("alice")),
    ))
    chains = embedded_chains(world)
    shorts = {ALICE: "alice", BOB: "bob", ANN: "admin-ann", CAROL: "carol"}
    now = int(time.time())
    revision = wire.call(cas_server.endpoint, "ping")["revision"]
    agreements = 0
    for user, action, obj in oracles.universe():
        if user == CAROL:
            continue  # no replayed credential on the pull path by construction
        push_decision = push.authorize(chains[user], action, obj, NOW)
        pull_decision = pull.authorize(world.proxy(shorts[user]), action, obj, now)
        assert push_decision.allow == pull_decision.allow, (user, action, obj)
        agreements += 1
    assert wire.call(cas_server.endpoint, "ping")["revision"] == revision
    report(f"push-pull-equivalence ({agreements} requests)")


def test_decision_service_matches_enforcement(world, cas_server):
    """The factored-out decision service answers exactly like the inline
    pipeline, with presented assertions and via the pull path."""
    service = ResourceService(ResourceConfig(
        site=world.site, cas_public=world.cas.keys.public(),
        cas_identity=CAS, anchors=world.anchors,
    ))
    authz = AuthzServer(("127.0.0.1", 0), AuthzConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        pull_source=cas_server.endpoint, pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice")),
    ))
    authz.start()
    try:
        db = fixture_db()
        assertions = {
            user: issue_assertion(db, world.cas.keys, CAS, user, now=NOW)
            for user in (ALICE, BOB, ANN)
        }
        chains = embedded_chains(world)
        from caslite.assertions import assertion_to_map

        checked = 0
        for user, action, obj in oracles.universe():
            if user == CAROL:
                continue
            enforced = service.authorize(chains[user], action, obj, NOW)
            presented = wire.call(authz.endpoint, "decide", {
                "identity": user, "action": action, "object": obj,
                "assertion": assertion_to_map(assertions[user]),
            })
            pulled = wire.call(authz.endpoint, "decide", {
                "identity": user, "action": action, "object": obj,
            })
            assert presented["allow"] == enforced.allow, (user, action, obj, "presented")
            assert pulled["allow"] == enforced.allow, (user, action, obj, "pulled")
            checked += 1
    finally:
        authz.stop()
    report(f"decision-service-equivalence ({checked} requests, both paths)")


def test_all_paths_converge_after_grant(world, tmp_path):
    """One admin grant becomes visible on the push, pull, mirror, and decision
    paths within one credential lifetime plus one refresh interval."""
    lifetime = 2
    refresh = 1
    deadline_s = lifetime + refresh
    paths = world.write_server_files(tmp_path)
    authority = CasServer(ServerConfig(
        listen=("127.0.0.1", 0), db_path=paths["db"],
        credential_path=paths["key"], anchors_path=paths["anchors"],
        default_lifetime=lifetime,
    ))
    authority.start()
    cache = StatementCache(CacheConfig(
        authority=authority.endpoint, refresh_interval=refresh, max_age=60,
        subscriptions=[{"query": "resource_rights", "namespace": "vo://esg/**"}],
        client_chain=chain_to_map(world.proxy("alice")),
    ))
    mirror = CacheServer(("127.0.0.1", 0), cache)
    mirror.start()

    def fresh_push_allow():
        body = wire.call(authority.endpoint, "get_credential", {"mode": "assertion"},
                         chain=chain_to_map(world.proxy("bob")))
        chain = embed_in_proxy(world.proxy("bob"), assertion_from_map(body["assertion"]))
        return push.authorize(chain, "write", obj, int(time.time())).allow

    base = dict(site=world.site, cas_public=world.cas.keys.public(),
                cas_identity=CAS, anchors=world.anchors)
    push = ResourceService(ResourceConfig(**base))
    pull_direct = ResourceService(ResourceConfig(
        **base, mode="pull", pull_source=authority.endpoint,
        pull_namespace="vo://esg/**", client_chain=chain_to_map(world.proxy("alice")),
    ))
    pull_mirrored = ResourceService(ResourceConfig(
        **base, mode="pull", pull_source=mirror.endpoint,
        pull_namespace="vo://esg/**", client_chain=chain_to_map(world.proxy("alice")),
    ))
    authz = AuthzServer(("127.0.0.1", 0), AuthzConfig(
        site=world.site, cas_public=world.cas.keys.public(), cas_identity=CAS,
        pull_source=authority.endpoint, pull_namespace="vo://esg/**",
        client_chain=chain_to_map(world.proxy("alice")),
    ))
    authz.start()

    obj = "vo://esg/data/public/a.nc"
    probes = {
        "push": fresh_push_allow,
        "pull": lambda: pull_direct.authorize(
            world.proxy("bob"), "write", obj, int(time.time())).allow,
        "mirror": lambda: pull_mirrored.authorize(
            world.proxy("bob"), "write", obj, int(time.time())).allow,
        "decision": lambda: wire.call(authz.endpoint, "decide", {
            "identity": BOB, "action": "write", "object": obj})["allow"],
    }
    try:
        assert not any(probe() for probe in probes.values())  # denied everywhere first

        wire.call(authority.endpoint, "admin", {"command": {
            "op": "grant", "subject": BOB, "action": "write",
            "object": "vo://esg/data/public/**",
        }}, chain=chain_to_map(world.proxy("admin-ann")))
        granted_at = time.monotonic()

        convergence = {}
        pending = dict(probes)
        while pending:
            for name in list(pending):
                if pending[name]():
                    convergence[name] = time.monotonic() - granted_at
                    del pending[name]
            if pending:
                assert time.monotonic() - granted_at < deadline_s + 1.0, \
                    f"paths never converged: {sorted(pending)}"
                time.sleep(0.05)
        for name, elapsed in convergence.items():
            assert elapsed <= deadline_s, f"{name} converged in {elapsed:.2f}s"
    finally:
        authz.stop()
        mirror.stop()
        authority.stop()
    summary = ", ".join(f"{k}={v:.2f}s" for k, v in sorted(convergence.items()))
    report(f"convergence-after-grant ({summary})")


def test_admin_is_linearizable_and_persistent(world, tmp_path):
    """Concurrent mutations serialize cleanly and a restart reproduces the
    database byte for byte."""
    paths = world.write_server_files(tmp_path)
    config = ServerConfig(listen=("127.0.0.1", 0), db_path=paths["db"],
                          credential_path=paths["key"], anchors_path=paths["anchors"])
    server = CasServer(config)
    server.start()
    owner_doc = chain_to_map(world.proxy("owner"))
    initial = wire.call(server.endpoint, "ping")["revision"]

    outcomes = []
    lock = threading.Lock()

    def mutate(i):
        try:
            wire.call(server.endpoint, "admin", {"command": {
                "op": "add_member", "identity": f"/VO=esg/CN=member{i}",
            }}, chain=owner_doc)
            result = "ok"
        except ServerError as exc:
            result = exc.code
        with lock:
            outcomes.append(result)

    threads = [threading.Thread(target=mutate, args=(i,)) for i in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    successes = outcomes.count("ok")
    assert successes == 10
    final_revision = wire.call(server.endpoint, "ping")["revision"]
    assert final_revision == initial + successes

    before_bytes = paths["db"].read_bytes()
    server.stop()

    reborn = CasServer(config)
    reborn.start()
    try:
        assert db_canonical_bytes(reborn.db) == before_bytes
        assert paths["db"].read_bytes() == before_bytes
        assert wire.call(reborn.endpoint, "ping")["revision"] == final_revision
        loaded = load_database(paths["db"])
        assert {f"/VO=esg/CN=member{i}" for i in range(10)} <= loaded.members
    finally:
        reborn.stop()
    report(f"linearizable-admin ({successes} concurrent mutations, byte-identical restart)")
