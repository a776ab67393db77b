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

Checking a presented chain has a time-free half, :func:`vouch` (the trust
anchor, every signature and nesting, the effective restriction and, in push
mode, the carried assertion's form, signature and issuer), and a clock half
that runs on every request: each element's window, then in :func:`judge` the
assertion's window, its binding to the authenticated subject and the
decision. :class:`ResourceService` remembers the time-free result of each
presented chain's bytes in its own :class:`~caslite.keys.CheckedMemo`; the
decision service keeps one for presented assertions, and the authority one
for its callers' chains.
"""

from __future__ import annotations

import argparse
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .assertions import (
    CheckedAssertion,
    PolicyAssertion,
    check_assertion,
    check_window,
    extract_from_proxy,
)
from .canonical import fields, from_hex, to_hex
from .credentials import (
    CheckedChain,
    CredentialChain,
    chain_from_map,
    chain_to_map,
    check_chain,
    check_windows,
    load_anchors,
    load_chain,
)
from .errors import CasliteError, DeniedError, MalformedMessage, NotFound
from .keys import CheckedMemo, KeyMaterial, Received
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

PULL_NAMESPACE = "vo://**"

# A presented chain: parsed, its bytes as a request frame carried them, or its
# map, given in process or from a request frame parsed whole.
Presented = CredentialChain | Received | dict


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


def vouch_assertion(
    assertion: PolicyAssertion,
    cas_public: KeyMaterial,
    cas_identity: Identity,
) -> CheckedAssertion:
    """The time-free half of :func:`assertion_rights`: the signature and the
    issuer. Raises :class:`DeniedError` when either fails."""
    verdict = check_assertion(assertion, cas_public, cas_identity)
    if not verdict.ok:
        raise DeniedError(deny("credential", f"assertion rejected: {verdict.failure}"))
    return CheckedAssertion(
        assertion.subject, assertion.mode, assertion.not_before, assertion.not_after,
        _shared(assertion.rights), _shared(assertion.groups),
    )


def assertion_rights(
    assertion: PolicyAssertion | CheckedAssertion,
    user: Identity,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    group_rights: Mapping[str, frozenset] | None,
    now: int,
) -> frozenset:
    """Verify a presented assertion, bind it to ``user`` and return the rights
    it asserts. A :class:`CheckedAssertion` has passed
    :func:`vouch_assertion` already, so only its window is checked again.
    Membership mode maps groups through ``group_rights``. Raises
    :class:`DeniedError` when the assertion cannot vouch for ``user``."""
    if isinstance(assertion, PolicyAssertion):
        assertion = vouch_assertion(assertion, cas_public, cas_identity)
    verdict = check_window(assertion.not_before, assertion.not_after, now)
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
    assertion: PolicyAssertion | CheckedAssertion | None = None,
    group_rights: Mapping[str, frozenset] | None = None,
    community_chain: CheckedChain | None = None,
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
    result depends on ``cfg`` and the chain's public fields only. Raises
    :class:`DeniedError` at stage credential."""
    checked = _credential("chain rejected", check_chain, chain, cfg.anchors)
    checked = replace(checked, effective_restriction=_shared(checked.effective_restriction))
    assertion = None
    if push:
        carried = _credential("carried assertion unreadable", extract_from_proxy, chain)
        if carried is not None:
            assertion = vouch_assertion(carried, cfg.cas_public, cfg.cas_identity)
    return Vouched(checked, assertion)


def enforce(
    cfg: ResourceConfig, vouched: Vouched, action: str, obj: str, now: int
) -> EnforcementDecision:
    """Push mode: the community half travels in the presented chain, as an
    embedded assertion or as a chain the community server issued itself.
    The chain has passed :func:`vouch` already, so only the clock checks,
    the subject binding and the decision run."""
    try:
        _credential("chain rejected", check_windows, vouched.chain.windows, now)
        return judge(cfg.site, cfg.cas_public, cfg.cas_identity, vouched.chain.subject, action,
                     obj, now, assertion=vouched.assertion, group_rights=cfg.group_rights,
                     community_chain=vouched.chain)
    except DeniedError as exc:
        return exc.decision


def pull_authorize(
    cfg: ResourceConfig, vouched: Vouched, action: str, obj: str, now: int,
    fetcher: StatementFetcher,
) -> EnforcementDecision:
    """Pull mode: authorize a vouched bare user chain, as :func:`enforce`
    takes it, from a fetched rights listing. Raises
    SourceUnavailable/StaleStatement when no trustworthy listing can be had;
    both amount to deny."""
    try:
        _credential("chain rejected", check_windows, vouched.chain.windows, now)
        return judge(cfg.site, cfg.cas_public, cfg.cas_identity, vouched.chain.subject, action,
                     obj, now, fetcher=fetcher)
    except DeniedError as exc:
        return exc.decision


# Rights, rights sets and group sets that remembered results share: equal
# ones are held once, which keeps a memo's entries small. The table holds only
# immutable values equal to the ones it hands out, so sharing it between the
# services of one process changes no answer. Past this many entries new ones
# are kept unshared.
SHARED_SIZE = 8192

_shared_items: dict = {}


def _shared(items: frozenset | None) -> frozenset | None:
    if not items:
        return items
    shared = _shared_items.get(items)
    if shared is None:
        if len(_shared_items) + len(items) > SHARED_SIZE:
            return items
        shared = frozenset(_shared_items.setdefault(item, item) for item in items)
        shared = _shared_items.setdefault(shared, shared)
    return shared


class ResourceService:
    """Enforcement plus the object store behind it.

    ``chain`` in every method is :data:`Presented`. The time-free result of
    received bytes or a map is remembered (see
    :class:`~caslite.keys.CheckedMemo`), so the same bytes presented again
    skip their parse and their signature checks; a :class:`CredentialChain`
    is checked in full each time.
    """

    def __init__(self, cfg: ResourceConfig, store: ObjectStore | None = None):
        self.cfg = cfg
        self.store = store if store is not None else ObjectStore()
        self._fetcher: StatementFetcher | None = None
        if cfg.mode == "pull":
            self._fetcher = StatementFetcher(
                cfg.pull_source, cfg.pull_namespace, cfg.cas_public, cfg.client_chain
            )
        self._checked = CheckedMemo()

    def authorize(self, chain: Presented, action: str, obj: str, now: int) -> EnforcementDecision:
        push = self.cfg.mode == "push"
        try:
            if isinstance(chain, CredentialChain):
                vouched = vouch(self.cfg, chain, push)
            else:
                vouched = self._checked.recall(
                    chain, lambda doc: vouch(self.cfg, chain_from_map(doc), push))
        except DeniedError as exc:
            return exc.decision
        if push:
            return enforce(self.cfg, vouched, action, obj, now)
        return pull_authorize(self.cfg, vouched, action, obj, now, self._fetcher)

    def _authorize_or_raise(self, chain: Presented, action: str, obj: str, now: int) -> None:
        decision = self.authorize(chain, action, obj, now)
        if not decision.allow:
            raise DeniedError(decision)

    def read(self, chain: Presented, path: str, now: int | None = None) -> bytes:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "read", path, now)
        data = self.store.read(path)
        if data is None:
            raise NotFound(f"no object at {path}")
        return data

    def write(self, chain: Presented, path: str, data: bytes, now: int | None = None) -> None:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "write", path, now)
        self.store.write(path, data)

    def delete(self, chain: Presented, path: str, now: int | None = None) -> None:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "delete", path, now)
        if not self.store.delete(path):
            raise NotFound(f"no object at {path}")

    def list_paths(self, chain: Presented, prefix: str, now: int | None = None) -> list[str]:
        now = int(time.time()) if now is None else now
        self._authorize_or_raise(chain, "list", prefix, now)
        return self.store.list_under(prefix)


class VaultServer(wire.FrameServer):
    """Wire front end for a :class:`ResourceService`."""

    def __init__(self, listen: wire.Endpoint, service: ResourceService):
        self.service = service
        super().__init__(listen, self.handle, (wire.CHAIN, service._checked))

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            return {"identity": "vault", "mode": self.service.cfg.mode}
        if kind not in ("read", "write", "list", "delete"):
            raise MalformedMessage(f"unknown request kind {kind!r}")
        if chain_doc is None:
            raise MalformedMessage("file operations require a credential chain")
        shape = {"path", "data"} if kind == "write" else {"path"}
        path = fields(payload, f"{kind} payload", shape)["path"]
        if kind == "read":
            data = self.service.read(chain_doc, path)
            return {"path": path, "data": to_hex(data)}
        if kind == "write":
            data = from_hex(payload["data"])
            self.service.write(chain_doc, path, data)
            return {"path": path, "size": len(data)}
        if kind == "list":
            return {"path": path, "paths": self.service.list_paths(chain_doc, path)}
        self.service.delete(chain_doc, path)
        return {"path": path, "deleted": True}


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
    parser.add_argument("--anchors", required=True, type=Path,
                        help="trust anchor file for verifying presented chains")
    args = parser.parse_args(argv)
    cfg = ResourceConfig(
        **service_settings(args),
        anchors=load_anchors(args.anchors),
        mode=args.mode,
        group_rights=load_group_rights(args.groups) if args.groups else None,
    )
    return wire.run_service(
        lambda: VaultServer(wire.parse_endpoint(args.listen), ResourceService(cfg)))


if __name__ == "__main__":
    raise SystemExit(main())
