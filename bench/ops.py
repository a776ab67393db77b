"""Running one operation against the services and checking its answer.

An answer the oracle predicts, an expected deny or refusal included, is a
completed operation; any disagreement, or an error the oracle did not
predict, is a failed one.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from caslite import wire
from caslite.errors import CasliteError, ServerError
from caslite.statements import StatementFetcher

import oracle
from world import LIFETIME, LOADER, NAMESPACE, Op, World, asserted, initial_grants

LISTING_QUERY = {"query": "resource_rights", "namespace": NAMESPACE}


class Runner:
    """Executes operations for every client of one service stack and keeps the
    oracle's view of what the services should now hold."""

    def __init__(self, world: World, endpoints: dict):
        self.world = world
        self.endpoints = endpoints
        self.cas_key = world._cas_chain.eec.keys.public()
        self.store: dict = {}                  # vault path -> bytes, one client only
        self.pending: dict = {}                # client -> (target, (action, obj)) granted, not revoked
        self.revisions: list = []
        self.lock = threading.Lock()
        self.mirror_statement: dict | None = None
        self.base_listing = world.tables.listing() if world.workload == "community" else {}
        # What each client may have granted and not yet revoked, per target.
        self.grantable: dict = {}
        for client, stream in enumerate(world.streams):
            for op in (op for rnd in stream for op in rnd if op.kind == "admin_grant"):
                self.grantable.setdefault(client, {}).setdefault(op.target, set()).add((op.action, op.obj))

    # --- execution -------------------------------------------------------------

    def execute(self, op: Op):
        """("ok", body) or ("err", code, message) from the service, or ("fail", ...)
        when the exchange itself broke."""
        world, ep = self.world, self.endpoints
        kind = op.kind
        try:
            if kind.startswith("vault_") or kind == "probe_vault":
                chain = world.probe_docs[(op.user, op.probe)] if op.probe else world.chain_docs[op.user]
                payload = {"path": op.path}
                if op.action == "write":
                    payload["data"] = op.data.hex()
                return "ok", wire.call(ep["vault"], op.action, payload, chain=chain)
            if kind in ("authz_decide", "probe_authz"):
                payload = {"identity": op.user, "action": op.action, "object": op.path}
                if world.workload == "push":
                    payload["assertion"] = (world.probe_docs[(op.user, op.probe)] if op.probe
                                            else world.assertion_docs[op.user])
                return "ok", wire.call(ep["authz"], "decide", payload)
            chain = world.chain_docs.get(op.user)
            if kind in ("cred_assertion", "cred_restricted"):
                mode = "assertion" if kind == "cred_assertion" else "restricted_proxy"
                return "ok", wire.call(ep["server"], "get_credential", {"mode": mode}, chain=chain)
            if kind == "query_user":
                payload = {"query": "user_rights", "subject": op.target}
                return "ok", wire.call(ep["server"], "query", payload, chain=chain)
            if kind == "listing_authority":
                return "ok", StatementFetcher(ep["server"], NAMESPACE, self.cas_key, chain).fetch()
            if kind == "listing_mirror":
                return "ok", StatementFetcher(ep["cache"], NAMESPACE, self.cas_key).fetch()
            if kind.startswith("admin_"):
                command = {"op": "revoke" if kind == "admin_revoke" else "grant",
                           "subject": op.target, "action": op.action, "object": op.obj}
                return "ok", wire.call(ep["server"], "admin", {"command": command}, chain=chain)
        except ServerError as exc:
            return "err", exc.code, exc.message
        except (OSError, CasliteError) as exc:
            return "fail", type(exc).__name__, str(exc)
        raise ValueError(f"unknown op kind {kind}")

    # --- checking --------------------------------------------------------------

    def check(self, op: Op, outcome):
        """None when the answer is the oracle's, else what differs."""
        if outcome[0] == "fail":
            return f"{op.kind}: exchange failed: {outcome[1]}: {outcome[2][:120]}"
        kind = op.kind
        if kind.startswith("vault_") or kind == "probe_vault":
            return self._check_vault(op, outcome)
        if kind in ("authz_decide", "probe_authz"):
            if op.probe:
                body = outcome[1] if outcome[0] == "ok" else {}
                if body.get("allow") is False and body["reason"].startswith("assertion rejected:"):
                    return None
                return f"tampered assertion not rejected: {outcome}"
            issuer, rights, seen = asserted(self.world, op.user)
            return oracle.check_decision(outcome, *self.world.tables.decide(
                issuer, rights, seen, op.action, op.path))
        return self._check_authority(op, outcome)

    def _check_vault(self, op: Op, outcome):
        if op.probe:
            return oracle.check_denied(outcome, "credential")
        issuer, rights, seen = asserted(self.world, op.user)
        allow, stage = self.world.tables.decide(issuer, rights, seen, op.action, op.path)
        if not allow:
            return oracle.check_denied(outcome, stage)
        stored = self.store.get(op.path)
        if op.action == "read" and stored is None:
            return None if outcome[:2] == ("err", "NotFound") else f"expected NotFound, got {outcome[:2]}"
        if outcome[0] != "ok":
            return f"expected {op.action} on {op.path} allowed, got {outcome}"
        body = outcome[1]
        if op.action == "read":
            want = {"path": op.path, "data": stored.hex()}
        elif op.action == "write":
            want = {"path": op.path, "size": len(op.data)}
            self.store[op.path] = op.data
        else:
            want = {"path": op.path, "paths": sorted(
                p for p in self.store if p == op.path or p.startswith(op.path + "/"))}
        return None if body == want else f"{op.action} {op.path}: body differs"

    def _check_authority(self, op: Op, outcome):
        world, kind = self.world, op.kind
        if kind == "admin_refused":
            return None if outcome[:2] == ("err", "NotAuthorized") else f"admin not refused: {outcome[:2]}"
        if outcome[0] != "ok":
            return f"{kind}: unexpected error {outcome[1:]}"
        body = outcome[1]
        tables, key = world.tables, world.cas_public
        if kind == "cred_assertion":
            return oracle.check_assertion(body["assertion"], key, tables, op.user,
                                          tables.user_rights(op.user), LIFETIME)
        if kind == "cred_restricted":
            return oracle.check_restricted_chain(body["chain"], key, world.cas_eec_doc,
                                                 tables.user_rights(op.user), LIFETIME)
        if kind == "query_user":
            statement = body["statement"]
            query = {"query": "user_rights", "subject": op.target}
            return oracle.check_statement(statement, key, query) or oracle.check_assertion(
                statement["body"]["assertion"], key, tables, op.target,
                tables.user_rights(op.target), LIFETIME)
        if kind in ("listing_authority", "listing_mirror"):
            return self._check_listing(op, body)
        if kind in ("admin_grant", "admin_revoke"):
            revision = body.get("revision")
            if set(body) != {"revision"} or not isinstance(revision, int):
                return f"admin answer malformed: {body}"
            with self.lock:
                self.revisions.append(revision)
            if kind == "admin_grant":
                self.pending[op.client] = (op.target, (op.action, op.obj))
            else:
                self.pending.pop(op.client, None)
            return None
        return f"no check for {kind}"

    def _check_listing(self, op: Op, statement):
        doc = {"caslite": "statement/1", "query": statement.query, "body": statement.body,
               "issued_at": statement.issued_at, "expires_at": statement.expires_at,
               "signature": statement.signature.hex()}
        if op.kind == "listing_mirror" and self.mirror_statement is not None:
            # The mirror never refreshes inside a run: it must serve, unchanged,
            # the statement checked in full when it first answered.
            return None if doc == self.mirror_statement else "mirror statement changed"
        error = oracle.check_statement(doc, self.world.cas_public, LISTING_QUERY)
        if error:
            return error
        expected, loose = self.base_listing, {}
        own = self.pending.get(op.client) if op.kind == "listing_authority" else None
        if own is not None:
            target, pair = own
            expected = dict(expected)
            expected[target] = oracle.rights_list(self.world.tables.user_rights(target) | {pair})
        if op.kind == "listing_authority":
            for client, per_target in self.grantable.items():
                if client != op.client:
                    loose.update(per_target)
        error = oracle.check_listing(statement.body.get("listing", {}), expected, loose)
        if error is None and op.kind == "listing_mirror":
            self.mirror_statement = doc
        return error

    # --- set-up and run-level checks -------------------------------------------

    def first_answers(self):
        """The operations whose correct answers end set-up: one per service."""
        world = self.world
        if world.workload == "community":
            return [Op("cred_assertion", 0, world.active[0]), Op("listing_mirror", 0)]
        return [Op("vault_list", 0, LOADER, "list", "vo://bench/data/a0"),
                Op("authz_decide", 0, LOADER, "read", "vo://bench/data/a0/s0/f0.dat")]

    def preload(self):
        """Writes that fill the vault before timing, by a user allowed everywhere."""
        return [Op("vault_write", 0, LOADER, "write", path, b"\x00" * 8 + path.encode())
                for path in self.world.paths]

    def check_final(self, db_path):
        """Admin commits raised the revision by one each, and the grant/revoke
        pairs left the database file's grants as they started."""
        if self.world.workload != "community":
            return None
        db_doc = json.loads(Path(db_path).read_text())
        revisions = sorted(self.revisions)
        if revisions != list(range(2, 2 + len(revisions))):
            return "admin revisions are not consecutive from the initial one"
        if db_doc.get("revision") != 1 + len(revisions):
            return "final database revision does not count every commit"
        if db_doc.get("grants") != initial_grants(self.world):
            return "final grants differ from the initial ones"
        return None


def run_op(runner: Runner, op: Op):
    """(latency seconds, failure or None) for one operation."""
    start = time.perf_counter()
    outcome = runner.execute(op)
    latency = time.perf_counter() - start
    try:
        return latency, runner.check(op, outcome)
    except (KeyError, TypeError, AttributeError) as exc:
        return latency, f"{op.kind}: answer malformed: {exc!r}"
