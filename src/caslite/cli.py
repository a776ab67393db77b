"""User and administrator command-line clients.

Four tools cover the whole user journey and day-to-day administration:
``caslite-proxy-init`` turns a long-term credential into a short-lived proxy
chain, ``caslite-get-cred`` fetches community credentials from the authority
(either embedding a signed assertion into the user's own chain or accepting
a restricted chain rooted at the authority), ``caslite-admin`` sends one
policy mutation per invocation, and ``caslite-inspect`` dumps a chain file.

Exit codes: 0 success, 1 server or domain error, 2 usage error. Stdout is a
single JSON document; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from . import wire
from .assertions import (
    DEFAULT_LIFETIME,
    assertion_from_map,
    assertion_to_map,
    embed_in_proxy,
    extract_from_proxy,
)
from .credentials import (
    chain_from_map,
    chain_to_map,
    issue_proxy,
    load_anchors,
    load_chain,
    save_chain,
    verify_chain,
)
from .errors import CasliteError, ServerError
from .policy import ADMIN_COMMANDS, Right, rights_to_list

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# --- caslite-proxy-init ---------------------------------------------------------

def proxy_init_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-proxy-init",
        description="Create a short-lived proxy chain from a long-term credential.",
    )
    parser.add_argument("credential", type=Path, help="credential chain file with private key")
    parser.add_argument("--hours", type=float, default=24.0, help="proxy lifetime in hours")
    parser.add_argument("--out", type=Path, required=True, help="output chain file (mode 0600)")
    args = parser.parse_args(argv)
    if args.hours <= 0:
        parser.error("--hours must be positive")

    try:
        parent = load_chain(args.credential)
        now = int(time.time())
        chain = issue_proxy(parent, (now, now + int(args.hours * 3600)))
        save_chain(chain, args.out)
    except (CasliteError, OSError) as exc:
        return _fail(str(exc))
    _emit({
        "written": str(args.out),
        "subject": chain.subject,
        "not_after": chain.effective_interval()[1],
        "links": len(chain.links),
    })
    return EXIT_OK


# --- caslite-get-cred -------------------------------------------------------------

def _parse_requested(items: list[str]) -> list[dict]:
    rights = []
    for item in items:
        action, sep, pattern = item.partition(" ")
        if not sep:
            raise CasliteError(f"--request takes 'ACTION PATTERN', got {item!r}")
        rights.append(Right(action, pattern))
    return rights_to_list(rights)


def get_cred_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-get-cred",
        description="Fetch a community credential from the authority.",
    )
    parser.add_argument("--server", required=True, help="HOST:PORT of the authority")
    parser.add_argument("--chain", required=True, type=Path, help="proxy chain file")
    parser.add_argument("--anchors", required=True, type=Path, help="trust anchor file")
    parser.add_argument("--out", required=True, type=Path, help="output chain file")
    parser.add_argument("--mode", choices=("assertion", "restricted"), default="assertion")
    parser.add_argument("--lifetime", type=int, default=DEFAULT_LIFETIME,
                        help="credential lifetime in seconds")
    parser.add_argument("--assertion-mode", choices=("rights", "membership"),
                        default="rights", help="what the assertion should carry")
    parser.add_argument("--request", action="append", default=[],
                        metavar="'ACTION PATTERN'",
                        help="narrow the assertion to these rights (repeatable)")
    args = parser.parse_args(argv)
    try:
        requested = _parse_requested(args.request) if args.request else None
    except CasliteError as exc:
        parser.error(str(exc))

    try:
        chain = load_chain(args.chain)
        anchors = load_anchors(args.anchors)
        chain_doc = chain_to_map(chain)
        if args.mode == "assertion":
            payload: dict[str, Any] = {
                "mode": "assertion",
                "lifetime": args.lifetime,
                "assertion_mode": args.assertion_mode,
            }
            if requested is not None:
                payload["requested"] = requested
            body = wire.call(args.server, "get_credential", payload, chain=chain_doc)
            assertion = assertion_from_map(body["assertion"])
            verify_chain(chain, anchors, int(time.time()))
            new_chain = embed_in_proxy(chain, assertion)
        else:
            payload = {"mode": "restricted_proxy", "lifetime": args.lifetime}
            body = wire.call(args.server, "get_credential", payload, chain=chain_doc)
            new_chain = chain_from_map(body["chain"])
        save_chain(new_chain, args.out)
    except ServerError as exc:
        print(f"server error: {exc.code}: {exc.message}", file=sys.stderr)
        print(exc.code)
        return EXIT_ERROR
    except (CasliteError, OSError) as exc:
        return _fail(str(exc))
    _emit({
        "written": str(args.out),
        "mode": args.mode,
        "subject": new_chain.subject,
        "links": len(new_chain.links),
    })
    return EXIT_OK


# --- caslite-admin ------------------------------------------------------------------

def _admin_command(args: argparse.Namespace) -> dict:
    op = args.subcommand.replace("-", "_")
    if op != "add_capability":
        return {"op": op, **{name: getattr(args, name) for name in ADMIN_COMMANDS[op][0]}}
    capability: dict[str, Any] = {
        "admin": args.admin,
        "powers": sorted(set(args.powers.split(","))),
    }
    if args.namespace:
        capability["namespace"] = args.namespace
    if args.groups:
        capability["groups"] = sorted(set(args.groups.split(",")))
    return {"op": op, "capability": capability}


def admin_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-admin", description="Apply one policy mutation at the authority."
    )
    parser.add_argument("--server", required=True, help="HOST:PORT of the authority")
    parser.add_argument("--chain", required=True, type=Path, help="administrator chain file")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # One subcommand per admin op; the capability document is spelled as flags.
    for op, (checks, _) in ADMIN_COMMANDS.items():
        sp = subs.add_parser(op.replace("_", "-"))
        if op != "add_capability":
            for name in checks:
                sp.add_argument(name)
            continue
        sp.add_argument("--admin", required=True)
        sp.add_argument("--powers", required=True, help="comma-separated powers")
        sp.add_argument("--namespace", default=None)
        sp.add_argument("--groups", default=None, help="comma-separated group names")

    args = parser.parse_args(argv)
    try:
        chain_doc = chain_to_map(load_chain(args.chain))
        body = wire.call(
            args.server, "admin", {"command": _admin_command(args)}, chain=chain_doc
        )
    except ServerError as exc:
        print(f"server error: {exc.code}: {exc.message}", file=sys.stderr)
        print(exc.code)
        return EXIT_ERROR
    except (CasliteError, OSError) as exc:
        return _fail(str(exc))
    _emit({"revision": body["revision"]})
    return EXIT_OK


# --- caslite-inspect -----------------------------------------------------------------

def inspect_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caslite-inspect", description="Dump a credential chain file."
    )
    parser.add_argument("chain", type=Path)
    args = parser.parse_args(argv)

    try:
        chain = load_chain(args.chain)
        assertion = extract_from_proxy(chain)
    except (CasliteError, OSError) as exc:
        return _fail(str(exc))

    not_before, not_after = chain.effective_interval()
    restriction = chain.effective_restriction()
    doc: dict[str, Any] = {
        "subject": chain.subject,
        "issuer": chain.eec.issuer,
        "validity": {"not_before": not_before, "not_after": not_after},
        "links": [
            {
                "not_before": link.not_before,
                "not_after": link.not_after,
                "restriction": rights_to_list(link.restriction)
                if link.restriction is not None else None,
                "extension_bytes": len(link.extension) if link.extension else 0,
            }
            for link in chain.links
        ],
        "effective_restriction": rights_to_list(restriction)
        if restriction is not None else None,
        "assertion": assertion_to_map(assertion) if assertion is not None else None,
        "has_private_key": chain.innermost_keys().private_part is not None,
    }
    _emit(doc)
    return EXIT_OK


_TOOLS = {
    "proxy-init": proxy_init_main,
    "get-cred": get_cred_main,
    "admin": admin_main,
    "inspect": inspect_main,
}


def main(argv: list[str] | None = None) -> int:
    """Dispatcher so ``python -m caslite.cli TOOL ...`` works uninstalled."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _TOOLS:
        print(f"usage: caslite.cli {{{','.join(_TOOLS)}}} ...", file=sys.stderr)
        return EXIT_USAGE
    return _TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
