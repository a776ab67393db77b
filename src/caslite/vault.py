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

:func:`judge` is the one decision pipeline: push, pull and the decision
service (:mod:`caslite.authz`, which has no chain to verify) all end in it.
"""

from __future__ import annotations

import argparse
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .assertions import PolicyAssertion, extract_from_proxy, verify_assertion
from .canonical import fields, from_hex, to_hex
from .credentials import (
    CredentialChain,
    VerifiedChain,
    chain_from_map,
    chain_to_map,
    load_anchors,
    load_chain,
    verify_chain,
)
from .errors import CasliteError, DeniedError, MalformedMessage, NotFound
from .keys import KeyMaterial
from .policy import (
    ACTIONS,
    EnforcementDecision,
    Identity,
    Right,
    SitePolicy,
    decide,
    deny,
    load_group_rights,
    load_site,
    split_pattern,
    validate_concrete,
)
from .statements import StatementFetcher, listing_rights

logger = logging.getLogger(__name__)

PULL_NAMESPACE = "vo://**"


class ObjectStore:
    """Concrete object paths to byte strings, single mutation lock."""

    def __init__(self, initial: Mapping[str, bytes] | None = None):
        self._lock = threading.Lock()
        self._objects: dict[str, bytes] = dict(initial or {})
        for path in self._objects:
            validate_concrete(path)

    def read(self, path: str) -> bytes | None:
        with self._lock:
            return self._objects.get(path)

    def write(self, path: str, data: bytes) -> None:
        validate_concrete(path)
        with self._lock:
            self._objects[path] = data

    def delete(self, path: str) -> bool:
        with self._lock:
            return self._objects.pop(path, None) is not None

    def list_under(self, prefix: str) -> list[str]:
        with self._lock:
            return sorted(
                p for p in self._objects if p == prefix or p.startswith(prefix + "/")
            )


@dataclass
class ResourceConfig:
    """One resource's standing configuration.

    ``anchors`` are the trust roots for verifying presented chains (typically
    the same CA that issued both user and community credentials). Membership
    mode enforcement needs ``group_rights`` to map asserted group names to
    locally configured rights. Pull mode needs ``pull_source`` and uses
    ``client_chain`` to authenticate its own queries to the source.
    """

    site: SitePolicy
    cas_public: KeyMaterial
    cas_identity: Identity
    anchors: tuple = ()
    mode: str = "push"
    pull_source: wire.Endpoint | str | None = None
    pull_namespace: str = PULL_NAMESPACE
    group_rights: Mapping[str, frozenset] | None = None
    client_chain: dict | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("push", "pull"):
            raise MalformedMessage(f"unknown enforcement mode {self.mode!r}")
        if self.mode == "pull" and self.pull_source is None:
            raise MalformedMessage("pull mode requires a pull_source")


def _unrestricted_for(obj: str) -> frozenset:
    # A chain from the community server with no restriction asserts the
    # community's full rights; model that as every action on the object's
    # whole scheme so the decision math stays a plain intersection.
    scheme, _, _ = split_pattern(obj)
    return frozenset(Right(a, f"{scheme}://**") for a in ACTIONS)


def assertion_rights(
    assertion: PolicyAssertion,
    user: Identity,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    group_rights: Mapping[str, frozenset] | None,
    now: int,
) -> frozenset:
    """Verify a presented assertion, bind it to ``user`` and return the rights
    it asserts. Membership mode maps groups through ``group_rights``. Raises
    :class:`DeniedError` when the assertion cannot vouch for ``user``."""
    verdict = verify_assertion(assertion, cas_public, cas_identity, now)
    if not verdict.ok:
        raise DeniedError(deny("credential", f"assertion rejected: {verdict.failure}"))
    if assertion.subject != user:
        raise DeniedError(deny(
            "credential",
            f"assertion subject {assertion.subject} does not match "
            f"authenticated identity {user}",
        ))
    if assertion.mode == "rights":
        return assertion.rights
    if group_rights is None:
        raise DeniedError(deny(
            "vo_user", "membership assertion presented but no group rights are configured"
        ))
    return frozenset().union(*(group_rights.get(name, frozenset()) for name in assertion.groups))


def judge(
    site: SitePolicy,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    user: Identity,
    action: str,
    obj: str,
    now: int,
    *,
    assertion: PolicyAssertion | None = None,
    group_rights: Mapping[str, frozenset] | None = None,
    community_chain: VerifiedChain | None = None,
    fetcher: StatementFetcher | None = None,
) -> EnforcementDecision:
    """Decide one request by the authenticated ``user``: allow exactly when it
    lies in site ∩ community − blacklist.

    The community half comes from the first source given: a presented
    assertion, a verified chain the community issued itself, or a rights
    listing pulled through ``fetcher``. Every source is checked against
    ``cas_identity``, which is therefore the issuer. Raises
    :class:`DeniedError` when no source vouches for ``user``; the fetcher's
    SourceUnavailable and StaleStatement pass through.
    """
    if assertion is not None:
        asserted = assertion_rights(assertion, user, cas_public, cas_identity, group_rights, now)
    elif community_chain is not None and community_chain.subject == cas_identity:
        # Restricted-proxy model: the only identity visible is the community
        # server's, so per-user site policy cannot distinguish the bearer.
        asserted = community_chain.effective_restriction
        if asserted is None:
            asserted = _unrestricted_for(obj)
    elif fetcher is not None:
        asserted = listing_rights(fetcher.current(now), user)
    else:
        raise DeniedError(deny("credential", "no community policy available"))
    return decide(site, cas_identity, asserted, user, action, obj)


def _credential(label: str, check, *args):
    """Run one credential check; any failure denies at stage credential."""
    try:
        return check(*args)
    except CasliteError as exc:
        raise DeniedError(deny("credential", f"{label}: {exc.code}: {exc.message}")) from None


def enforce(
    cfg: ResourceConfig,
    chain: CredentialChain,
    action: str,
    obj: str,
    now: int,
) -> EnforcementDecision:
    """Push mode: the community half travels in ``chain``, as an embedded
    assertion or as a chain the community server issued itself."""
    try:
        verified = _credential("chain rejected", verify_chain, chain, cfg.anchors, now)
        assertion = _credential("carried assertion unreadable", extract_from_proxy, chain)
        return judge(cfg.site, cfg.cas_public, cfg.cas_identity, verified.subject, action, obj,
                     now, assertion=assertion, group_rights=cfg.group_rights,
                     community_chain=verified)
    except DeniedError as exc:
        return exc.decision


def pull_authorize(
    cfg: ResourceConfig,
    chain: CredentialChain,
    action: str,
    obj: str,
    now: int,
    fetcher: StatementFetcher,
) -> EnforcementDecision:
    """Pull mode: authenticate a bare user chain and authorize it from a
    fetched rights listing. Raises SourceUnavailable/StaleStatement when no
    trustworthy listing can be had; both amount to deny."""
    try:
        verified = _credential("chain rejected", verify_chain, chain, cfg.anchors, now)
        return judge(cfg.site, cfg.cas_public, cfg.cas_identity, verified.subject, action, obj,
                     now, fetcher=fetcher)
    except DeniedError as exc:
        return exc.decision


class ResourceService:
    """Enforcement plus the object store behind it."""

    def __init__(self, cfg: ResourceConfig, store: ObjectStore | None = None):
        self.cfg = cfg
        self.store = store if store is not None else ObjectStore()
        self._fetcher: StatementFetcher | None = None
        if cfg.mode == "pull":
            self._fetcher = StatementFetcher(
                cfg.pull_source, cfg.pull_namespace, cfg.cas_public, cfg.client_chain
            )

    def authorize(self, chain: CredentialChain, action: str, obj: str, now: int) -> EnforcementDecision:
        if self.cfg.mode == "pull":
            return pull_authorize(self.cfg, chain, action, obj, now, self._fetcher)
        return enforce(self.cfg, chain, action, obj, now)

    def _authorize_or_raise(self, chain: CredentialChain, action: str, obj: str, now: int) -> None:
        decision = self.authorize(chain, action, obj, now)
        if not decision.allow:
            raise DeniedError(decision)

    def read(self, chain: CredentialChain, path: str, now: int | None = None) -> bytes:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "read", path, now)
        data = self.store.read(path)
        if data is None:
            raise NotFound(f"no object at {path}")
        return data

    def write(self, chain: CredentialChain, path: str, data: bytes, now: int | None = None) -> None:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "write", path, now)
        self.store.write(path, data)

    def delete(self, chain: CredentialChain, path: str, now: int | None = None) -> None:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "delete", path, now)
        if not self.store.delete(path):
            raise NotFound(f"no object at {path}")

    def list_paths(self, chain: CredentialChain, prefix: str, now: int | None = None) -> list[str]:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "list", prefix, now)
        return self.store.list_under(prefix)


class VaultServer:
    """Wire front end for a :class:`ResourceService`."""

    def __init__(self, listen: wire.Endpoint, service: ResourceService):
        self.service = service
        self._frame_server = wire.FrameServer(listen, self.handle)

    @property
    def endpoint(self) -> wire.Endpoint:
        return self._frame_server.endpoint

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            return {"identity": "vault", "mode": self.service.cfg.mode}
        if kind not in ("read", "write", "list", "delete"):
            raise MalformedMessage(f"unknown request kind {kind!r}")
        if chain_doc is None:
            raise MalformedMessage("file operations require a credential chain")
        chain = chain_from_map(chain_doc)
        shape = {"path", "data"} if kind == "write" else {"path"}
        path = fields(payload, f"{kind} payload", shape)["path"]
        if kind == "read":
            data = self.service.read(chain, path)
            return {"path": path, "data": to_hex(data)}
        if kind == "write":
            data = from_hex(payload["data"])
            self.service.write(chain, path, data)
            return {"path": path, "size": len(data)}
        if kind == "list":
            return {"path": path, "paths": self.service.list_paths(chain, path)}
        self.service.delete(chain, path)
        return {"path": path, "deleted": True}

    def start(self) -> None:
        self._frame_server.start()
        logger.info("vault listening on %s", wire.format_endpoint(self.endpoint))

    def stop(self) -> None:
        self._frame_server.stop()


def service_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """Command line with the flags the vault and the decision service share."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--listen", required=True, help="HOST:PORT to listen on")
    parser.add_argument("--site", required=True, type=Path, help="site policy file")
    parser.add_argument("--cas-key", required=True, type=Path,
                        help="community server credential file (public part is used)")
    parser.add_argument("--pull-source", default=None, help="HOST:PORT of authority or mirror")
    parser.add_argument("--pull-namespace", default=PULL_NAMESPACE,
                        help="namespace queried on the pull path; must match a "
                             "mirror subscription when pulling through one")
    parser.add_argument("--chain", type=Path, default=None,
                        help="client chain used to authenticate pull queries")
    return parser


def service_settings(args: argparse.Namespace) -> dict:
    """The config fields set by :func:`service_parser`'s flags."""
    cas_chain = load_chain(args.cas_key)
    return dict(
        site=load_site(args.site),
        cas_public=cas_chain.innermost_keys().public(),
        cas_identity=cas_chain.subject,
        pull_source=wire.parse_endpoint(args.pull_source) if args.pull_source else None,
        pull_namespace=args.pull_namespace,
        client_chain=chain_to_map(load_chain(args.chain)) if args.chain else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = service_parser("caslite-vault", "Run a community-aware file service.")
    parser.add_argument("--mode", required=True, choices=("push", "pull"))
    parser.add_argument("--groups", type=Path, default=None,
                        help="group name to rights map for membership-mode assertions")
    parser.add_argument("--anchors", type=Path, default=None,
                        help="trust anchor file for verifying presented chains")
    args = parser.parse_args(argv)
    cfg = ResourceConfig(
        **service_settings(args),
        anchors=load_anchors(args.anchors) if args.anchors else (),
        mode=args.mode,
        group_rights=load_group_rights(args.groups) if args.groups else None,
    )
    return wire.run_service(
        lambda: VaultServer(wire.parse_endpoint(args.listen), ResourceService(cfg)))


if __name__ == "__main__":
    raise SystemExit(main())
