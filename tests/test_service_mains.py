"""All four service binaries started as real processes with full flag sets."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from caslite import vault, wire
from caslite.credentials import CredentialChain, chain_to_map, save_chain
from caslite.errors import ServerError
from caslite.statements import statement_from_map, verify_statement

from worldlib import ALICE, BOB, CAS

SRC = Path(__file__).resolve().parent.parent / "src"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(endpoint, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            wire.call(endpoint, "ping", timeout=2)
            return
        except (OSError, ServerError):
            time.sleep(0.05)
    raise RuntimeError(f"server at {endpoint} never came up")


@pytest.fixture()
def stack(world, tmp_path):
    """caslite-server, -vault (pull), -cache, -authz as subprocesses."""
    paths = world.write_server_files(tmp_path)
    save_chain(world.proxy("alice"), tmp_path / "alice.proxy")
    (tmp_path / "subscriptions.json").write_text(json.dumps([
        {"query": "resource_rights", "namespace": "vo://esg/**"},
        {"query": "user_rights", "subject": BOB},
    ]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ports = {name: free_port() for name in ("server", "vault", "cache", "authz")}

    def spawn(module, *args):
        return subprocess.Popen(
            [sys.executable, "-m", module, *map(str, args)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )

    procs = [spawn(
        "caslite.server", "--listen", f"127.0.0.1:{ports['server']}",
        "--db", paths["db"], "--key", paths["key"], "--anchors", paths["anchors"],
    )]
    wait_ready(("127.0.0.1", ports["server"]))
    procs += [
        spawn("caslite.cache", "--listen", f"127.0.0.1:{ports['cache']}",
              "--authority", f"127.0.0.1:{ports['server']}",
              "--refresh", 1, "--max-age", 30,
              "--subscriptions", tmp_path / "subscriptions.json",
              "--chain", tmp_path / "alice.proxy", "--cas-key", paths["cas_public"]),
        spawn("caslite.vault", "--listen", f"127.0.0.1:{ports['vault']}",
              "--site", paths["site"], "--cas-key", paths["cas_public"],
              "--mode", "pull", "--pull-source", f"127.0.0.1:{ports['server']}",
              "--anchors", paths["anchors"], "--chain", tmp_path / "alice.proxy"),
        spawn("caslite.authz", "--listen", f"127.0.0.1:{ports['authz']}",
              "--site", paths["site"], "--cas-key", paths["cas_public"],
              "--pull-source", f"127.0.0.1:{ports['cache']}",
              "--pull-namespace", "vo://esg/**",
              "--chain", tmp_path / "alice.proxy"),
    ]
    for name in ("cache", "vault", "authz"):
        wait_ready(("127.0.0.1", ports[name]))
    yield {name: ("127.0.0.1", port) for name, port in ports.items()}
    for proc in procs:
        proc.terminate()
    # The shared service runner turns SIGTERM into a clean stop and exit 0.
    assert [proc.wait(timeout=10) for proc in procs] == [0, 0, 0, 0]


def test_full_stack_of_processes(world, stack):
    # the mirror holds authority-signed statements
    body = wire.call(stack["cache"], "query",
                     {"query": "user_rights", "subject": BOB})
    statement = statement_from_map(body["statement"])
    assert verify_statement(statement, world.cas.keys.public())

    # pull-mode vault authorizes bare chains from the fetched listing
    alice_doc = chain_to_map(world.proxy("alice"))
    wire.call(stack["vault"], "write",
              {"path": "vo://esg/data/public/pulled.nc", "data": b"via pull".hex()},
              chain=alice_doc)
    body = wire.call(stack["vault"], "read",
                     {"path": "vo://esg/data/public/pulled.nc"}, chain=alice_doc)
    assert bytes.fromhex(body["data"]) == b"via pull"
    bob_doc = chain_to_map(world.proxy("bob"))
    with pytest.raises(ServerError) as info:
        wire.call(stack["vault"], "write",
                  {"path": "vo://esg/data/public/pulled.nc", "data": "00"},
                  chain=bob_doc)
    assert info.value.code == "Denied" and "stage=vo_user" in info.value.message

    # the decision service pulls through the mirror
    answer = wire.call(stack["authz"], "decide", {
        "identity": ALICE, "action": "read", "object": "vo://esg/data/public/pulled.nc",
    })
    assert answer == {"allow": True, "reason": "ok"}
    answer = wire.call(stack["authz"], "decide", {
        "identity": BOB, "action": "write", "object": "vo://esg/data/public/pulled.nc",
    })
    assert answer["allow"] is False and "vo_user" in answer["reason"]


def test_vault_without_anchors_is_a_usage_error(world, tmp_path, capsys):
    """A vault with no trust anchors would refuse every chain, so the flag
    is required: leaving it out exits with argparse's usage code."""
    paths = world.write_server_files(tmp_path)
    with pytest.raises(SystemExit) as info:
        vault.main(["--listen", "127.0.0.1:0", "--site", str(paths["site"]),
                    "--cas-key", str(paths["cas_public"]), "--mode", "push"])
    assert info.value.code == 2
    assert "--anchors" in capsys.readouterr().err
