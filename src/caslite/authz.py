"""A local yes/no authorization service.

Resources that do not want community-policy logic inline can forward the
requester's identity, attributes, request, and any presented assertion here
and act on the answer: the decision point is factored out of the enforcement
point. Queries are stateless apart from an optional pull-path statement
cache, and infrastructure failures come back as deny answers with reasons
rather than errors, so callers stay fail-closed by construction.

Attributes are accepted and logged but take no part in the core decision;
group semantics already arrive inside assertions. Deploy one of these per
resource host: the answer is only as trustworthy as the channel to it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any

from . import wire
from .assertions import PolicyAssertion, assertion_from_map
from .canonical import expect, fields, set_of
from .errors import DeniedError, MalformedMessage, SourceUnavailable, StaleStatement
from .keys import KeyMaterial
from .policy import (
    Identity,
    SitePolicy,
    validate_action,
    validate_concrete,
    validate_identity,
)
from .statements import StatementFetcher
from .vault import PULL_NAMESPACE, judge, service_parser, service_settings

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecisionQuery:
    identity: Identity
    action: str
    object: str
    attributes: frozenset = frozenset()
    assertion: PolicyAssertion | None = None

    def __post_init__(self) -> None:
        validate_identity(self.identity)
        validate_action(self.action)
        validate_concrete(self.object)
        seen = set()
        for attr in self.attributes:
            name, sep, _ = attr.partition("=")
            if not sep or not name:
                raise MalformedMessage(f"attribute must be name=value: {attr!r}")
            if name in seen:
                raise MalformedMessage(f"duplicate attribute name {name!r}")
            seen.add(name)


@dataclass(frozen=True)
class DecisionAnswer:
    allow: bool
    reason: str

    def __post_init__(self) -> None:
        if not self.allow and not self.reason:
            raise MalformedMessage("a deny answer needs a reason")


def decide_local(
    q: DecisionQuery,
    site: SitePolicy,
    cas_public: KeyMaterial,
    cas_identity: Identity,
    now: int,
    fetcher: StatementFetcher | None = None,
) -> DecisionAnswer:
    """Combine local and community policy into one yes/no answer.

    This is :func:`caslite.vault.judge` without chain verification. A
    presented assertion is verified and bound to the query identity before
    use; as this service carries no group rights map, a membership assertion
    denies. Without an assertion, a configured pull source supplies the
    community half; with neither, the answer is deny.
    """
    if q.attributes:
        logger.debug("attributes for %s ignored by core decision: %s",
                     q.identity, sorted(q.attributes))
    try:
        decision = judge(site, cas_public, cas_identity, q.identity, q.action, q.object, now,
                         assertion=q.assertion, fetcher=fetcher)
    except DeniedError as exc:
        return DecisionAnswer(allow=False, reason=exc.decision.reason)
    except (SourceUnavailable, StaleStatement) as exc:
        return DecisionAnswer(allow=False, reason=f"{exc.code}: {exc.message}")
    if decision.allow:
        return DecisionAnswer(allow=True, reason="ok")
    return DecisionAnswer(allow=False, reason=f"{decision.stage}: {decision.reason}")


def query_from_payload(payload: Any) -> DecisionQuery:
    fields(payload, "decision payload", {"identity", "action", "object"},
           {"attributes", "assertion"})
    assertion = None
    if "assertion" in payload:
        assertion = assertion_from_map(payload["assertion"])
    return DecisionQuery(
        identity=payload["identity"],
        attributes=set_of(lambda attr: expect(attr, str, "attribute"),
                          payload.get("attributes", []), "attributes"),
        action=payload["action"],
        object=payload["object"],
        assertion=assertion,
    )


@dataclass
class AuthzConfig:
    site: SitePolicy
    cas_public: KeyMaterial
    cas_identity: Identity
    pull_source: wire.Endpoint | str | None = None
    pull_namespace: str = PULL_NAMESPACE
    client_chain: dict | None = None


class AuthzServer:
    def __init__(self, listen: wire.Endpoint, cfg: AuthzConfig):
        self.cfg = cfg
        self._fetcher: StatementFetcher | None = None
        if cfg.pull_source is not None:
            self._fetcher = StatementFetcher(
                cfg.pull_source, cfg.pull_namespace, cfg.cas_public, cfg.client_chain
            )
        self._frame_server = wire.FrameServer(listen, self.handle)

    @property
    def endpoint(self) -> wire.Endpoint:
        return self._frame_server.endpoint

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            return {"identity": "authz", "pull": self._fetcher is not None}
        if kind != "decide":
            raise MalformedMessage(f"unknown request kind {kind!r}")
        query = query_from_payload(payload)
        answer = decide_local(
            query, self.cfg.site, self.cfg.cas_public, self.cfg.cas_identity,
            now=int(time.time()), fetcher=self._fetcher,
        )
        return {"allow": answer.allow, "reason": answer.reason}

    def start(self) -> None:
        self._frame_server.start()
        logger.info("decision service listening on %s", wire.format_endpoint(self.endpoint))

    def stop(self) -> None:
        self._frame_server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = service_parser("caslite-authz", "Run a local authorization decision service.")
    args = parser.parse_args(argv)
    cfg = AuthzConfig(**service_settings(args))
    return wire.run_service(lambda: AuthzServer(wire.parse_endpoint(args.listen), cfg))


if __name__ == "__main__":
    raise SystemExit(main())
