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
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import wire
from .assertions import (
    DEFAULT_LIFETIME,
    assertion_to_map,
    check_lifetime,
    issue_assertion,
    issue_restricted_proxy,
)
from .canonical import Encoded, expect, fields
from .credentials import (
    chain_from_map,
    chain_to_map,
    check_chain,
    check_chain_internal,
    check_windows,
    load_anchors,
    load_chain,
)
from .errors import (
    AuthFailed,
    CasliteError,
    MalformedMessage,
    ResponseTooLarge,
    UnknownSubject,
)
from .keys import CheckedMemo
from .policy import (
    Identity,
    apply_admin,
    load_database,
    rights_from_list,
    save_database,
    scoped_listing,
)
from .statements import sign_statement, statement_answer, validate_query


@dataclass
class ServerConfig:
    listen: wire.Endpoint
    db_path: Path
    credential_path: Path
    anchors_path: Path
    default_lifetime: int = DEFAULT_LIFETIME
    audit_path: Path | None = None


class AuditLog:
    """Append-only JSON-lines log with monotone timestamps per file.

    The file is opened in append mode when the log is made and kept open;
    ``close`` releases it, and a record appended after that reopens it."""

    def __init__(self, path: Path):
        self._path = path
        self._lock = threading.Lock()
        self._last_ts = 0.0
        self._handle = open(path, "a", encoding="utf-8")

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


class CasServer(wire.FrameServer):
    """Request handlers plus persistence for one community, served on
    ``config.listen``."""

    def __init__(self, config: ServerConfig):
        check_lifetime(config.default_lifetime)
        self.config = config
        self._db = load_database(config.db_path)
        self._chain = load_chain(config.credential_path)
        if self._chain.innermost_keys().private_part is None:
            raise CasliteError("server credential file lacks a private key")
        check_chain_internal(self._chain)
        self._anchors = load_anchors(config.anchors_path)
        self._checked = CheckedMemo()
        self._write_lock = threading.Lock()
        audit_path = config.audit_path or Path(str(config.db_path) + ".audit")
        self._audit = AuditLog(audit_path)
        try:
            super().__init__(config.listen, self.handle, (wire.CHAIN, self._checked))
        except BaseException:
            self._audit.close()
            raise

    @property
    def identity(self) -> Identity:
        return self._chain.subject

    @property
    def db(self):
        return self._db

    # --- request plumbing ----------------------------------------------------

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict | Encoded:
        caller = "unauthenticated"
        try:
            if kind == "ping":
                fields(payload, "ping payload", frozenset())
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
        except Exception as exc:
            code, detail = ((exc.code, exc.message) if isinstance(exc, CasliteError)
                            else ("Internal", "internal server error"))
            self._audit.append(caller, kind, f"error:{code}", detail)
            raise
        self._audit.append(caller, kind, "ok", "")
        return body

    def _authenticate(self, chain_doc: Any) -> Identity:
        """Credential validity is checked before any policy lookup. The
        time-free check of each caller chain as received is remembered (see
        :class:`~caslite.keys.CheckedMemo`); its windows run on every
        request."""
        if chain_doc is None:
            raise AuthFailed("request carries no credential chain")
        try:
            checked = self._checked.recall(
                chain_doc, lambda doc: check_chain(chain_from_map(doc), self._anchors))
            check_windows(checked.windows, int(time.time()))
        except CasliteError as exc:
            raise AuthFailed(f"caller chain rejected: {exc.code}: {exc.message}") from None
        return checked.subject

    # --- handlers --------------------------------------------------------------

    def handle_get_credential(self, payload: dict, caller: Identity) -> dict:
        """Issue for the authenticated caller only; there is no issuing for
        third parties."""
        fields(payload, "get_credential payload", {"mode"},
               {"lifetime", "assertion_mode", "requested"})
        if "assertion_mode" in payload and payload["mode"] != "assertion":
            raise MalformedMessage("assertion_mode is only for mode 'assertion'")
        lifetime = expect(payload.get("lifetime", self.config.default_lifetime), int, "lifetime")
        db = self._db
        now = int(time.time())
        requested = rights_from_list(payload["requested"]) if "requested" in payload else None
        if payload["mode"] == "assertion":
            assertion = issue_assertion(
                db,
                self._chain.innermost_keys(),
                self.identity,
                subject=caller,
                mode=payload.get("assertion_mode", "rights"),
                requested=requested,
                lifetime=lifetime,
                now=now,
            )
            return {"assertion": assertion_to_map(assertion)}
        if payload["mode"] == "restricted_proxy":
            chain = issue_restricted_proxy(self._chain, db, caller, lifetime, now=now,
                                           requested=requested)
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

    def handle_query(self, payload: dict, caller: Identity) -> Encoded:
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
            )
            body = {"assertion": assertion_to_map(assertion)}
        else:
            body = (b'{"listing":', *scoped_listing(db, query["namespace"]), b"}")
        statement = sign_statement(
            self._chain.innermost_keys(), query, body,
            issued_at=now, expires_at=now + lifetime,
        )
        answer = statement_answer(statement)
        size = wire.ok_response(answer).size
        if size > wire.MAX_FRAME:
            raise ResponseTooLarge(
                f"statement response of {size} bytes exceeds the {wire.MAX_FRAME}-byte frame limit"
            )
        return answer

    def stop(self) -> None:
        super().stop()
        self._audit.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-server", description="Run a community authority server."
    )
    parser.add_argument("--db", required=True, type=Path, help="policy database file")
    parser.add_argument("--key", required=True, type=Path,
                        help="server credential chain file (with private key)")
    parser.add_argument("--anchors", required=True, type=Path, help="trust anchor file")
    parser.add_argument("--default-lifetime", type=int, default=DEFAULT_LIFETIME,
                        help="lifetime used when a request names none")
    parser.add_argument("--audit", type=Path, default=None, help="audit log path")
    return wire.run_service(parser, lambda args, listen: CasServer(ServerConfig(
        listen=listen,
        db_path=args.db,
        credential_path=args.key,
        anchors_path=args.anchors,
        default_lifetime=args.default_lifetime,
        audit_path=args.audit,
    )), argv)


if __name__ == "__main__":
    raise SystemExit(main())
