"""A community-aware toy file service.

This is the enforcement point: every file operation runs the full pipeline
in order (verify credentials, site-versus-community check under the policy
signer's identity, community-versus-user check from the carried rights, then
the site's per-user blacklist) and acts on an in-memory object store only on
allow. Authorization is checked before object existence so denied callers
cannot probe the namespace.

Push mode expects the client to present community policy in its chain, either
as an embedded assertion or as a restriction on a chain rooted at the
community server. Pull mode takes a bare user chain and fetches a signed
rights listing from the authority or a mirror instead; any verification
failure, staleness, or source failure denies. No code path defaults to allow.

Every decision is made by :func:`caslite.authz.judge`, the one decision
pipeline, which the decision service owns and this module enforces through.

Checking a presented chain has a time-free half, :func:`vouch` (the trust
anchor, every signature and nesting, the effective restriction and, in push
mode, the carried assertion's form, signature and issuer), and a clock half
that runs on every request: each element's window, then in ``judge`` the
assertion's window, its binding to the authenticated subject and the
decision. :class:`ResourceService` remembers the time-free result of each
presented chain's bytes in its own :class:`~caslite.keys.CheckedMemo`, a
refusal as well as a pass, so a replayed bad chain is denied again without
a parse or a signature check; the decision service keeps one for presented
assertions, and the authority one for its callers' chains.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .assertions import CheckedAssertion, extract_from_proxy
from .authz import AuthzConfig, judge, service_parser, service_settings, vouch_assertion
from .canonical import fields, from_hex, to_hex
from .credentials import (
    CheckedChain,
    CredentialChain,
    chain_from_map,
    check_chain,
    check_windows,
    load_anchors,
)
from .errors import CasliteError, DeniedError, MalformedMessage, NotFound
from .keys import CheckedMemo, Received
from .policy import (
    EnforcementDecision,
    deny,
    load_group_rights,
    shared_rights,
    validate_concrete,
)
from .statements import StatementFetcher

# A presented chain: parsed, its bytes as a request frame carried them, or its
# map, given in process or from a request frame parsed whole.
Presented = CredentialChain | Received | dict


class ObjectStore:
    """Concrete object paths to byte strings, single mutation lock; the
    paths are also kept sorted, for :meth:`list_under`."""

    def __init__(self, initial: Mapping[str, bytes] | None = None):
        self._lock = threading.Lock()
        self._objects: dict[str, bytes] = dict(initial or {})
        for path in self._objects:
            validate_concrete(path)
        self._paths = sorted(self._objects)

    def read(self, path: str) -> bytes | None:
        with self._lock:
            return self._objects.get(path)

    def write(self, path: str, data: bytes) -> None:
        validate_concrete(path)
        with self._lock:
            if path not in self._objects:
                insort(self._paths, path)
            self._objects[path] = data

    def delete(self, path: str) -> bool:
        with self._lock:
            if self._objects.pop(path, None) is None:
                return False
            del self._paths[bisect_left(self._paths, path)]
            return True

    def list_under(self, prefix: str) -> list[str]:
        """``prefix`` itself, if stored, then every path under ``prefix + "/"``
        in order: those sort from ``prefix + "/"`` up to ``prefix + "0"``
        (``"0"`` follows ``"/"``), while a sibling such as ``prefix + "-x"``
        sorts between ``prefix`` and that range."""
        with self._lock:
            paths = self._paths
            under = paths[bisect_left(paths, prefix + "/"):bisect_left(paths, prefix + "0")]
            return [prefix, *under] if prefix in self._objects else under


@dataclass
class ResourceConfig(AuthzConfig):
    """What a resource decides with (its :class:`~caslite.authz.AuthzConfig`) and enforces by.

    ``anchors`` are the trust roots for presented chains (typically the CA
    that issued both user and community credentials). Only push mode takes
    ``group_rights``, which maps the groups of a membership assertion to
    local rights. Only pull mode takes ``pull_source``, which it needs, and
    ``client_chain``, which authenticates its queries to that source.
    """

    anchors: tuple = ()
    mode: str = "push"
    group_rights: Mapping[str, frozenset] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("push", "pull"):
            raise MalformedMessage(f"unknown enforcement mode {self.mode!r}")
        if self.mode == "pull" and self.pull_source is None:
            raise MalformedMessage("pull mode requires a pull_source")
        for name in ("group_rights",) if self.mode == "pull" else ("pull_source", "client_chain"):
            if getattr(self, name) is not None:
                raise MalformedMessage(f"{self.mode} mode takes no {name}")
        super().__post_init__()


def _credential(label: str, check, *args):
    """Run one credential check; any failure denies at stage credential."""
    try:
        return check(*args)
    except CasliteError as exc:
        raise DeniedError(deny("credential", f"{label}: {exc.code}: {exc.message}")) from None


@dataclass(frozen=True, slots=True)
class Vouched:
    """What a presented chain's time-free checks establish (see
    :func:`vouch`)."""

    chain: CheckedChain
    assertion: CheckedAssertion | None


def vouch(cfg: ResourceConfig, chain: CredentialChain, push: bool) -> Vouched:
    """The time-free half of :func:`enforce` (``push``) and
    :func:`pull_authorize`: the chain's anchor, signatures and nesting and,
    in push mode, the carried assertion's form, signature and issuer. The
    result depends on ``cfg`` and the chain's public fields only; its rights
    sets are its own (:func:`~caslite.policy.shared_rights`). Raises
    :class:`DeniedError` at stage credential."""
    checked = _credential("chain rejected", check_chain, chain, cfg.anchors)
    checked = replace(checked, effective_restriction=shared_rights(checked.effective_restriction))
    assertion = None
    if push:
        carried = _credential("carried assertion unreadable", extract_from_proxy, chain)
        if carried is not None:
            assertion = vouch_assertion(carried, cfg.cas_public, cfg.cas_identity,
                                        cfg.group_rights)
    return Vouched(checked, assertion)


def enforce(
    cfg: ResourceConfig, vouched: Vouched, action: str, obj: str, now: int
) -> EnforcementDecision:
    """Push mode: the community half travels in the presented chain, as an
    embedded assertion or as a chain the community server issued itself.
    The chain has passed :func:`vouch` and its window check already, so only
    the assertion's clock check, the subject binding and the decision run.
    Raises :class:`DeniedError` as :func:`~caslite.authz.judge` does."""
    return judge(cfg.site, cfg.cas_identity, vouched.chain.subject, action, obj, now,
                 assertion=vouched.assertion, community_chain=vouched.chain)


def pull_authorize(
    cfg: ResourceConfig, vouched: Vouched, action: str, obj: str, now: int,
    fetcher: StatementFetcher,
) -> EnforcementDecision:
    """Pull mode: authorize a vouched bare user chain, as :func:`enforce`
    takes it, from a fetched rights listing. Raises :class:`DeniedError` as
    :func:`enforce` does, and SourceUnavailable/StaleStatement when no
    trustworthy listing can be had; both amount to deny."""
    return judge(cfg.site, cfg.cas_identity, vouched.chain.subject, action, obj, now,
                 fetcher=fetcher)


class ResourceService:
    """Enforcement plus the object store behind it; :meth:`answer` is the
    one way to a file operation, in process or from :class:`VaultServer`.

    ``chain`` is :data:`Presented`. Received bytes or a map have their
    time-free result, or refusal, remembered (see
    :class:`~caslite.keys.CheckedMemo`), so the same bytes presented again
    skip their parse and signature checks; a :class:`CredentialChain` is
    checked in full each time.
    """

    def __init__(self, cfg: ResourceConfig, store: ObjectStore | None = None):
        self.cfg = cfg
        self.store = store if store is not None else ObjectStore()
        self._fetcher = cfg.fetcher()
        self._checked = CheckedMemo()

    def authorize(self, chain: Presented, action: str, obj: str, now: int) -> EnforcementDecision:
        """The decision on a presented chain; a deny is returned, not raised."""
        push = self.cfg.mode == "push"
        try:
            if isinstance(chain, CredentialChain):
                vouched = vouch(self.cfg, chain, push)
            else:
                vouched = self._checked.recall(
                    chain, lambda doc: vouch(self.cfg, chain_from_map(doc), push))
            _credential("chain rejected", check_windows, vouched.chain.windows, now)
            if push:
                return enforce(self.cfg, vouched, action, obj, now)
            return pull_authorize(self.cfg, vouched, action, obj, now, self._fetcher)
        except DeniedError as exc:
            return exc.decision

    def answer(self, chain: Presented | None, kind: str, payload: Any,
               now: int | None = None) -> dict:
        """The wire's answer body to file operation ``kind``. The kind, the
        chain's presence, the payload's shape and a write's hex data are
        checked, in that order, before a deny raises :class:`DeniedError`."""
        if kind not in ("read", "write", "list", "delete"):
            raise MalformedMessage(f"unknown request kind {kind!r}")
        if chain is None:
            raise MalformedMessage("file operations require a credential chain")
        shape = {"path", "data"} if kind == "write" else {"path"}
        path = fields(payload, f"{kind} payload", shape)["path"]
        data = from_hex(payload["data"]) if kind == "write" else None
        now = int(time.time()) if now is None else now
        decision = self.authorize(chain, kind, path, now)
        if not decision.allow:
            raise DeniedError(decision)
        if kind == "write":
            self.store.write(path, data)
            return {"path": path, "size": len(data)}
        if kind == "list":
            return {"path": path, "paths": self.store.list_under(path)}
        if kind == "delete":
            if not self.store.delete(path):
                raise NotFound(f"no object at {path}")
            return {"path": path, "deleted": True}
        data = self.store.read(path)
        if data is None:
            raise NotFound(f"no object at {path}")
        return {"path": path, "data": to_hex(data)}


class VaultServer(wire.FrameServer):
    """Wire front end for a :class:`ResourceService`."""

    def __init__(self, listen: wire.Endpoint, service: ResourceService):
        self.service = service
        super().__init__(listen, self.handle, (wire.CHAIN, service._checked))

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            fields(payload, "ping payload", frozenset())
            return {"identity": "vault", "mode": self.service.cfg.mode}
        return self.service.answer(chain_doc, kind, payload)


def main(argv: list[str] | None = None) -> int:
    parser = service_parser("caslite-vault", "Run a community-aware file service.")
    parser.add_argument("--mode", required=True, choices=("push", "pull"))
    parser.add_argument("--groups", type=Path, default=None,
                        help="group name to rights map for membership-mode assertions")
    parser.add_argument("--anchors", required=True, type=Path,
                        help="trust anchor file for verifying presented chains")
    return wire.run_service(parser, lambda args, listen: VaultServer(listen, ResourceService(
        ResourceConfig(
            **service_settings(args),
            anchors=load_anchors(args.anchors),
            mode=args.mode,
            group_rights=load_group_rights(args.groups) if args.groups else None,
        ))), argv)


if __name__ == "__main__":
    raise SystemExit(main())
