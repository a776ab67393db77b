"""A lightweight partial mirror of the community authority.

The mirror keeps a :class:`~caslite.statements.StatementFetcher` per
subscribed query, re-fetches each on an interval, and serves the
authority's signed statements back over the same wire protocol as the
bytes it received. It holds no signing key, never re-signs and decodes no
listing: a served statement is byte-identical to what the authority
produced, so consumers verify it against the authority's key as if they
had asked directly. Given that key too (``authority_public``,
``--cas-key``), the mirror checks each answer's signature over the
received bytes before the answer may replace a held statement.

Failed refreshes, an expired, unsigned or badly signed answer among them,
keep the held statement; it is served only while it was fetched at most
``max_age`` ago and is inside its own validity, and requests fail closed
afterwards. That bounds both staleness and the window the mirror can
bridge across an authority outage.
"""

from __future__ import annotations

import argparse
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import wire
from .canonical import Encoded, canonical_json, expect, fields
from .credentials import chain_to_map, load_chain
from .errors import CacheMiss, CasliteError, MalformedMessage, StaleEntry
from .keys import KeyMaterial
from .statements import SignedStatement, StatementFetcher, statement_answer, validate_query

logger = logging.getLogger(__name__)


@dataclass
class CacheConfig:
    authority: wire.Endpoint | str
    refresh_interval: int
    max_age: int
    subscriptions: list = field(default_factory=list)
    client_chain: dict | None = None
    authority_public: KeyMaterial | None = None

    def __post_init__(self) -> None:
        if not 0 < self.refresh_interval < self.max_age:
            raise MalformedMessage("refresh_interval must be positive and smaller than max_age")


class StatementCache:
    """The configured subscriptions, each a :class:`StatementFetcher` of the
    authority, checked and first fetched when the cache is made (a failed
    fetch surfaces on serve) and refreshed by :meth:`refresh`."""

    def __init__(self, config: CacheConfig):
        self.config = config
        fetchers = (StatementFetcher(config.authority, query, config.authority_public,
                                     config.client_chain) for query in config.subscriptions)
        self._fetchers = {canonical_json(fetcher.query): fetcher for fetcher in fetchers}
        now = int(time.time())
        for fetcher in self._fetchers.values():
            try:
                fetcher.refresh(now)
            except CasliteError as exc:
                logger.warning("initial fetch failed for %s: %s", fetcher.query, exc)

    def subscriptions(self) -> list[dict]:
        return [fetcher.query for fetcher in self._fetchers.values()]

    def refresh(self, now: int | None = None) -> dict:
        """Re-fetch every subscription; failures keep the old statement."""
        now = int(time.time()) if now is None else now
        updated, failed = [], []
        for fetcher in self._fetchers.values():
            try:
                fetcher.refresh(now)
                updated.append(fetcher.query)
            except CasliteError as exc:
                logger.debug("refresh failed for %s: %s", fetcher.query, exc)
                failed.append(fetcher.query)
        return {"updated": updated, "failed": failed}

    def serve_cached(self, query: dict, now: int | None = None) -> SignedStatement:
        """The authority's statement, unchanged, while it is still fresh."""
        now = int(time.time()) if now is None else now
        fetcher = self._fetchers.get(canonical_json(validate_query(query)))
        if fetcher is None:
            raise CacheMiss(f"never subscribed to {query!r}")
        held = fetcher.held
        if held is None:
            raise CacheMiss("subscription has no fetched statement yet")
        statement, fetched_at = held
        if now - fetched_at > self.config.max_age:
            raise StaleEntry(f"entry fetched at {fetched_at} is older than max_age")
        if not statement.fresh_at(now):
            raise StaleEntry(f"statement expired at {statement.expires_at}")
        return statement


class CacheServer(wire.FrameServer):
    """Wire front end plus the periodic refresh loop. Subscriptions are set
    in process (``CacheConfig.subscriptions``), never over the wire."""

    def __init__(self, listen: wire.Endpoint, cache: StatementCache):
        self.cache = cache
        self._stop = threading.Event()
        self._refresher: threading.Thread | None = None
        super().__init__(listen, self.handle)

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict | Encoded:
        if kind == "ping":
            fields(payload, "ping payload", frozenset())
            return {"identity": "cache", "subscriptions": len(self.cache.subscriptions())}
        if kind == "query":
            return statement_answer(self.cache.serve_cached(payload))
        raise MalformedMessage(f"unknown request kind {kind!r}")

    def _refresh_loop(self) -> None:
        while not self._stop.wait(self.cache.config.refresh_interval):
            self.cache.refresh()

    def start(self) -> None:
        super().start()
        self._refresher = threading.Thread(target=self._refresh_loop, daemon=True)
        self._refresher.start()

    def stop(self) -> None:
        self._stop.set()
        if self._refresher is not None:
            self._refresher.join(timeout=5)
        super().stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-cache", description="Run a caching mirror of a community authority."
    )
    parser.add_argument("--authority", required=True, help="HOST:PORT of the authority")
    parser.add_argument("--refresh", required=True, type=int, help="refresh interval, seconds")
    parser.add_argument("--max-age", required=True, type=int, help="maximum entry age, seconds")
    parser.add_argument("--subscriptions", required=True, type=Path,
                        help="JSON file with a list of query payloads")
    parser.add_argument("--chain", type=Path, default=None,
                        help="client chain used to authenticate to the authority")
    parser.add_argument("--cas-key", type=Path, default=None,
                        help="community server credential file (public part is used); "
                             "with it, an answer whose signature does not verify is refused")

    def build(args: argparse.Namespace, listen: wire.Endpoint) -> CacheServer:
        try:
            subscriptions = json.loads(args.subscriptions.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise MalformedMessage(f"{args.subscriptions} is not a JSON document: {exc}") from None
        config = CacheConfig(
            authority=wire.parse_endpoint(args.authority),
            refresh_interval=args.refresh,
            max_age=args.max_age,
            subscriptions=expect(subscriptions, list, "subscriptions"),
            client_chain=chain_to_map(load_chain(args.chain)) if args.chain else None,
            authority_public=load_chain(args.cas_key).innermost_keys().public()
            if args.cas_key else None,
        )
        return CacheServer(listen, StatementCache(config))

    return wire.run_service(parser, build, argv)


if __name__ == "__main__":
    raise SystemExit(main())
