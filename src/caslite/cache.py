"""A lightweight partial mirror of the community authority.

The mirror subscribes to query payloads, re-fetches each on an interval, and
serves the authority's original signed statements back over the same wire
protocol. It holds no signing key and never re-signs: a served statement is
byte-identical to what the authority produced, so consumers verify it against
the authority's key exactly as if they had asked directly.

Failed refreshes keep the previous entry; an entry is served only while it is
younger than ``max_age`` and inside its own validity, and requests fail
closed afterwards. That bounds both staleness and the window the mirror can
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
from .canonical import canonical_json
from .credentials import chain_to_map, load_chain
from .errors import CacheMiss, CasliteError, MalformedMessage, StaleEntry
from .statements import SignedStatement, fetch_statement, statement_to_map, validate_query

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CacheEntry:
    query: dict
    statement: SignedStatement
    fetched_at: int


@dataclass
class CacheConfig:
    authority: wire.Endpoint | str
    refresh_interval: int
    max_age: int
    subscriptions: list = field(default_factory=list)
    client_chain: dict | None = None

    def __post_init__(self) -> None:
        if not self.refresh_interval < self.max_age:
            raise MalformedMessage("refresh_interval must be smaller than max_age")


def _query_key(query: dict) -> bytes:
    return canonical_json(query)


class StatementCache:
    """Subscription set plus the latest statement per subscription.

    Entry replacement is a whole-dict snapshot swap, so readers racing a
    refresh see either the old entry or the new one, never a mix.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._entries: dict[bytes, CacheEntry] = {}
        self._subscriptions: dict[bytes, dict] = {}
        self._lock = threading.Lock()
        for query in config.subscriptions:
            self.subscribe(query)

    def subscribe(self, query: dict) -> None:
        """Idempotently add a query and attempt a first fetch immediately;
        fetch failures surface later on serve."""
        query = validate_query(query)
        key = _query_key(query)
        with self._lock:
            already = key in self._subscriptions
            self._subscriptions[key] = query
        if not already:
            try:
                self._fetch_one(key, query, int(time.time()))
            except (OSError, CasliteError) as exc:
                logger.warning("initial fetch failed for %s: %s", query, exc)

    def subscriptions(self) -> list[dict]:
        with self._lock:
            return list(self._subscriptions.values())

    def entry(self, query: dict) -> CacheEntry | None:
        with self._lock:
            return self._entries.get(_query_key(validate_query(query)))

    def _fetch_one(self, key: bytes, query: dict, now: int) -> None:
        statement = fetch_statement(self.config.authority, query, self.config.client_chain)
        entry = CacheEntry(query=query, statement=statement, fetched_at=now)
        with self._lock:
            entries = dict(self._entries)
            entries[key] = entry
            self._entries = entries

    def refresh(self, now: int | None = None) -> dict:
        """Re-fetch every subscription; failures keep the old entry."""
        now = int(time.time()) if now is None else now
        updated, failed = [], []
        for key, query in list(self._subscriptions.items()):
            try:
                self._fetch_one(key, query, now)
                updated.append(query)
            except (OSError, CasliteError) as exc:
                logger.debug("refresh failed for %s: %s", query, exc)
                failed.append(query)
        return {"updated": updated, "failed": failed}

    def serve_cached(self, query: dict, now: int | None = None) -> SignedStatement:
        """The authority's statement, unchanged, while it is still fresh."""
        now = int(time.time()) if now is None else now
        key = _query_key(validate_query(query))
        with self._lock:
            entry = self._entries.get(key)
            subscribed = key in self._subscriptions
        if entry is None:
            if subscribed:
                raise CacheMiss("subscription has no fetched statement yet")
            raise CacheMiss(f"never subscribed to {query!r}")
        if now - entry.fetched_at > self.config.max_age:
            raise StaleEntry(
                f"entry fetched at {entry.fetched_at} is older than max_age"
            )
        if not entry.statement.fresh_at(now):
            raise StaleEntry(f"statement expired at {entry.statement.expires_at}")
        return entry.statement


class CacheServer:
    """Wire front end plus the periodic refresh loop."""

    def __init__(self, listen: wire.Endpoint, cache: StatementCache):
        self.cache = cache
        self._frame_server = wire.FrameServer(listen, self.handle)
        self._stop = threading.Event()
        self._refresher: threading.Thread | None = None

    @property
    def endpoint(self) -> wire.Endpoint:
        return self._frame_server.endpoint

    def handle(self, kind: str, payload: dict, chain_doc: Any) -> dict:
        if kind == "ping":
            return {"identity": "cache", "subscriptions": len(self.cache.subscriptions())}
        if kind == "query":
            statement = self.cache.serve_cached(payload)
            return {"statement": statement_to_map(statement)}
        if kind == "subscribe":
            self.cache.subscribe(payload)
            return {"subscribed": True}
        raise MalformedMessage(f"unknown request kind {kind!r}")

    def _refresh_loop(self) -> None:
        while not self._stop.wait(self.cache.config.refresh_interval):
            self.cache.refresh()

    def start(self) -> None:
        self._frame_server.start()
        self._refresher = threading.Thread(target=self._refresh_loop, daemon=True)
        self._refresher.start()
        logger.info("mirror of %s listening on %s",
                    self.cache.config.authority, wire.format_endpoint(self.endpoint))

    def stop(self) -> None:
        self._stop.set()
        if self._refresher is not None:
            self._refresher.join(timeout=5)
        self._frame_server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-cache", description="Run a caching mirror of a community authority."
    )
    parser.add_argument("--listen", required=True, help="HOST:PORT to listen on")
    parser.add_argument("--authority", required=True, help="HOST:PORT of the authority")
    parser.add_argument("--refresh", required=True, type=int, help="refresh interval, seconds")
    parser.add_argument("--max-age", required=True, type=int, help="maximum entry age, seconds")
    parser.add_argument("--subscriptions", required=True, type=Path,
                        help="JSON file with a list of query payloads")
    parser.add_argument("--chain", type=Path, default=None,
                        help="client chain used to authenticate to the authority")
    args = parser.parse_args(argv)

    subscriptions = json.loads(args.subscriptions.read_text(encoding="utf-8"))
    if not isinstance(subscriptions, list):
        raise SystemExit("subscriptions file must contain a JSON list")
    config = CacheConfig(
        authority=wire.parse_endpoint(args.authority),
        refresh_interval=args.refresh,
        max_age=args.max_age,
        subscriptions=subscriptions,
        client_chain=chain_to_map(load_chain(args.chain)) if args.chain else None,
    )
    # Built inside the runner: StatementCache fetches (and may log) on construction.
    return wire.run_service(
        lambda: CacheServer(wire.parse_endpoint(args.listen), StatementCache(config)))


if __name__ == "__main__":
    raise SystemExit(main())
