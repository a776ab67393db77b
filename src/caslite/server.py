"""The networked community authority.

One process serves one community: it authenticates callers by their
credential chains, issues credentials in both models, applies admin commands
through the meta-policy, answers signed queries for the caching and pull
paths, persists the policy database atomically, and appends an audit record
for every handled request.

Reads run against an immutable database snapshot; mutations are serialized
through a single commit lock that persists the new database before publishing
it, so a crash between write and rename leaves the previous revision intact.
"""

from __future__ import annotations

import argparse
import json
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import wire
from .assertions import (
    DEFAULT_LIFETIME,
    MAX_LIFETIME,
    assertion_to_map,
    issue_assertion,
    issue_restricted_proxy,
)
from .canonical import fields
from .credentials import (
    chain_from_map,
    chain_to_map,
    load_anchors,
    load_chain,
    verify_chain,
)
from .errors import (
    AuthFailed,
    CasliteError,
    LifetimeTooLong,
    MalformedMessage,
    ResponseTooLarge,
    UnknownSubject,
)
from .policy import (
    ACTIONS,
    Identity,
    Right,
    apply_admin,
    intersect_rights,
    load_database,
    rights_from_list,
    rights_to_list,
    save_database,
    user_rights,
)
from .statements import sign_statement, statement_to_map, validate_query

logger = logging.getLogger(__name__)


@dataclass
class ServerConfig:
    listen: wire.Endpoint
    db_path: Path
    credential_path: Path
    anchors_path: Path
    max_lifetime: int = MAX_LIFETIME
    default_lifetime: int = DEFAULT_LIFETIME
    audit_path: Path | None = None


class AuditLog:
    """Append-only JSON-lines log with monotone timestamps per file.

    The file is opened in append mode on the first record and kept open;
    ``close`` releases it, and a record appended after that reopens it."""

    def __init__(self, path: Path):
        self._path = path
        self._lock = threading.Lock()
        self._last_ts = 0.0
        self._handle = None

    def append(self, caller: str, kind: str, outcome: str, detail: str) -> None:
        with self._lock:
            ts = max(time.time(), self._last_ts)
            self._last_ts = ts
            record = {
                "timestamp": ts,
                "caller": caller,
                "kind": kind,
                "outcome": outcome,
                "detail": detail,
            }
            if self._handle is None:
                self._handle = open(self._path, "a", encoding="utf-8")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class CasServer:
    """Request handlers plus persistence for one community."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._db = load_database(config.db_path)
        self._chain = load_chain(config.credential_path)
        if self._chain.innermost_keys().private_part is None:
            raise CasliteError("server credential file lacks a private key")
        self._anchors = load_anchors(config.anchors_path)
        self._write_lock = threading.Lock()
        audit_path = config.audit_path or Path(str(config.db_path) + ".audit")
        self._audit = AuditLog(audit_path)
        self._frame_server: wire.FrameServer | None = None

    @property
    def identity(self) -> Identity:
        return self._chain.subject

    @property
    def db(self):
        return self._db

    @property
    def endpoint(self) -> wire.Endpoint:
        assert self._frame_server is not None
        return self._frame_server.endpoint

    # --- request plumbing ----------------------------------------------------

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        caller = "unauthenticated"
        try:
            if kind == "ping":
                body = {"identity": self.identity, "revision": self._db.revision,
                        "vo_name": self._db.vo_name}
            elif kind in ("get_credential", "admin", "query"):
                caller = self._authenticate(chain_doc)
                handler = {
                    "get_credential": self.handle_get_credential,
                    "admin": self.handle_admin,
                    "query": self.handle_query,
                }[kind]
                body = handler(payload, caller)
            else:
                raise MalformedMessage(f"unknown request kind {kind!r}")
        except CasliteError as exc:
            self._audit.append(caller, kind, f"error:{exc.code}", exc.message)
            raise
        self._audit.append(caller, kind, "ok", "")
        return body

    def _authenticate(self, chain_doc: Any) -> Identity:
        """Credential validity is checked before any policy lookup."""
        if chain_doc is None:
            raise AuthFailed("request carries no credential chain")
        try:
            chain = chain_from_map(chain_doc)
            verified = verify_chain(chain, self._anchors, int(time.time()))
        except CasliteError as exc:
            raise AuthFailed(f"caller chain rejected: {exc.code}: {exc.message}") from None
        return verified.subject

    # --- handlers --------------------------------------------------------------

    def handle_get_credential(self, payload: dict, caller: Identity) -> dict:
        """Issue for the authenticated caller only; there is no issuing for
        third parties."""
        fields(payload, "get_credential payload", {"mode"},
               {"lifetime", "assertion_mode", "requested"})
        lifetime = payload.get("lifetime", self.config.default_lifetime)
        if not isinstance(lifetime, int):
            raise MalformedMessage("lifetime must be an integer number of seconds")
        db = self._db
        now = int(time.time())
        if payload["mode"] == "assertion":
            requested = None
            if "requested" in payload:
                requested = rights_from_list(payload["requested"])
            assertion = issue_assertion(
                db,
                self._chain.innermost_keys(),
                self.identity,
                subject=caller,
                mode=payload.get("assertion_mode", "rights"),
                requested=requested,
                lifetime=lifetime,
                now=now,
                max_lifetime=self.config.max_lifetime,
            )
            return {"assertion": assertion_to_map(assertion)}
        if payload["mode"] == "restricted_proxy":
            if lifetime > self.config.max_lifetime:
                raise LifetimeTooLong(
                    f"lifetime {lifetime}s exceeds the {self.config.max_lifetime}s maximum"
                )
            chain = issue_restricted_proxy(self._chain, db, caller, lifetime, now=now)
            # The fresh innermost private part ships to the holder; transport
            # privacy is out of scope by design.
            return {"chain": chain_to_map(chain, include_private=True)}
        raise MalformedMessage(f"unknown credential mode {payload['mode']!r}")

    def handle_admin(self, payload: dict, caller: Identity) -> dict:
        command = fields(payload, "admin payload", {"command"})["command"]
        with self._write_lock:
            new_db = apply_admin(self._db, caller, command)
            save_database(new_db, self.config.db_path)
            self._db = new_db
            return {"revision": new_db.revision}

    def handle_query(self, payload: dict, caller: Identity) -> dict:
        query = validate_query(payload)
        db = self._db
        now = int(time.time())
        lifetime = self.config.default_lifetime
        if query["query"] == "user_rights":
            subject = query["subject"]
            if not db.is_member(subject):
                raise UnknownSubject(f"{subject} is not a member of {db.vo_name}")
            assertion = issue_assertion(
                db, self._chain.innermost_keys(), self.identity,
                subject=subject, lifetime=lifetime, now=now,
                max_lifetime=self.config.max_lifetime,
            )
            body = {"assertion": assertion_to_map(assertion)}
        else:
            namespace = query["namespace"]
            namespace_rights = frozenset(Right(a, namespace) for a in sorted(ACTIONS))
            listing = {}
            for member in sorted(db.members):
                scoped = intersect_rights(user_rights(db, member), namespace_rights)
                if scoped:
                    listing[member] = rights_to_list(scoped)
            body = {"listing": listing}
        statement = sign_statement(
            self._chain.innermost_keys(), query, body,
            issued_at=now, expires_at=now + lifetime,
        )
        size = statement.response_size()
        if size > wire.MAX_FRAME:
            raise ResponseTooLarge(
                f"statement response of {size} bytes exceeds the {wire.MAX_FRAME}-byte frame limit"
            )
        return {"statement": statement_to_map(statement)}

    # --- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._frame_server = wire.FrameServer(self.config.listen, self.handle)
        self._frame_server.start()
        logger.info("authority for %s listening on %s", self._db.vo_name,
                    wire.format_endpoint(self.endpoint))

    def stop(self) -> None:
        if self._frame_server is not None:
            self._frame_server.stop()
            self._frame_server = None
        self._audit.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-server", description="Run a community authority server."
    )
    parser.add_argument("--listen", required=True, help="HOST:PORT to listen on")
    parser.add_argument("--db", required=True, type=Path, help="policy database file")
    parser.add_argument("--key", required=True, type=Path,
                        help="server credential chain file (with private key)")
    parser.add_argument("--anchors", required=True, type=Path, help="trust anchor file")
    parser.add_argument("--max-lifetime", type=int, default=MAX_LIFETIME,
                        help="maximum credential lifetime in seconds")
    parser.add_argument("--default-lifetime", type=int, default=DEFAULT_LIFETIME,
                        help="lifetime used when a request names none")
    parser.add_argument("--audit", type=Path, default=None, help="audit log path")
    args = parser.parse_args(argv)

    config = ServerConfig(
        listen=wire.parse_endpoint(args.listen),
        db_path=args.db,
        credential_path=args.key,
        anchors_path=args.anchors,
        max_lifetime=args.max_lifetime,
        default_lifetime=args.default_lifetime,
        audit_path=args.audit,
    )
    return wire.run_service(lambda: CasServer(config))


if __name__ == "__main__":
    raise SystemExit(main())
