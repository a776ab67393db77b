"""Starting, probing and stopping the services of one workload.

``ProcessStack`` runs each service through its ``main()`` entry point in a
process of its own, as deployed. ``InProcessStack`` builds the same services
from the same files inside the calling process, for the traced run.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from caslite import wire
from caslite.authz import AuthzConfig, AuthzServer
from caslite.cache import CacheConfig, CacheServer, StatementCache
from caslite.credentials import chain_to_map, load_anchors, load_chain
from caslite.errors import ServerError
from caslite.policy import load_group_rights, load_site
from caslite.server import CasServer, ServerConfig
from caslite.vault import ResourceConfig, ResourceService, VaultServer

from world import NAMESPACE

SERVICES = {
    "push": ("vault", "authz"),
    "pull": ("server", "cache", "vault", "authz"),
    "community": ("server", "cache"),
}

# The mirror and the pull fetchers take their first statement during set-up;
# its lifetime and these intervals outlast every run, so no refresh falls
# inside a timed window.
REFRESH_S = 3000
MAX_AGE_S = 3500
HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def wait_ready(endpoint, deadline: float, proc=None) -> None:
    while True:
        try:
            wire.call(endpoint, "ping", timeout=5)
            return
        except (OSError, ServerError):
            if proc is not None and proc.poll() is not None:
                raise RuntimeError(f"service at {endpoint} exited with {proc.returncode}") from None
            if time.monotonic() > deadline:
                raise RuntimeError(f"service at {endpoint} never answered") from None
            time.sleep(0.01)


def argv_for(name: str, workload: str, files: dict, ports: dict) -> list:
    listen = f"{HOST}:{ports[name]}"
    if name == "server":
        return ["--listen", listen, "--db", files["db"], "--key", files["key"],
                "--anchors", files["anchors"], "--audit", files["audit"]]
    if name == "cache":
        return ["--listen", listen, "--authority", f"{HOST}:{ports['server']}",
                "--refresh", REFRESH_S, "--max-age", MAX_AGE_S,
                "--subscriptions", files["subscriptions"], "--chain", files["client"]]
    common = ["--listen", listen, "--site", files["site"], "--cas-key", files["cas_public"]]
    pull = []
    if workload == "pull":
        pull = ["--pull-source", f"{HOST}:{ports['cache']}", "--pull-namespace", NAMESPACE,
                "--chain", files["client"]]
    if name == "vault":
        mode = ["--mode", workload, "--anchors", files["anchors"]]
        return common + mode + (["--groups", files["groups"]] if workload == "push" else pull)
    return common + pull


class ProcessStack:
    """One process per service, started through ``python -m caslite.<name>``."""

    def __init__(self, workload: str, files: dict, src: Path, logdir: Path):
        self.workload = workload
        self.files = files
        self.src = src
        self.logdir = logdir
        self.procs: dict = {}
        self.endpoints: dict = {}

    def start(self) -> None:
        names = SERVICES[self.workload]
        ports = {name: free_port() for name in names}
        self.endpoints = {name: (HOST, ports[name]) for name in names}
        deadline = time.monotonic() + READY_TIMEOUT_S
        first = [n for n in names if n == "server"]
        for group in (first, [n for n in names if n not in first]):
            for name in group:
                self._spawn(name, argv_for(name, self.workload, self.files, ports))
            for name in group:
                wait_ready(self.endpoints[name], deadline, self.procs[name])

    def _spawn(self, name: str, args: list) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        log = open(self.logdir / f"{name}.log", "ab")
        try:
            self.procs[name] = subprocess.Popen(
                [sys.executable, "-m", f"caslite.{name}", *map(str, args)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
            )
        finally:
            log.close()

    def cpu_seconds(self) -> float:
        """User plus system CPU of every service process so far."""
        ticks = 0
        for proc in self.procs.values():
            stat = Path(f"/proc/{proc.pid}/stat").read_text()
            fields = stat[stat.rindex(")") + 2:].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        total_kib = 0
        for proc in self.procs.values():
            for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = {}


class InProcessStack:
    """The same services built in this process, each on its own loopback port."""

    def __init__(self, workload: str, files: dict):
        self.workload = workload
        self.files = files
        self.servers: dict = {}
        self.endpoints: dict = {}

    def start(self) -> None:
        files = self.files
        listen = (HOST, 0)
        names = SERVICES[self.workload]
        client = chain_to_map(load_chain(files["client"]))
        if "server" in names:
            server = CasServer(ServerConfig(listen, Path(files["db"]), Path(files["key"]),
                                            Path(files["anchors"]), audit_path=Path(files["audit"])))
            self._add("server", server)
        if "cache" in names:
            cache = StatementCache(CacheConfig(
                authority=self.endpoints["server"], refresh_interval=REFRESH_S, max_age=MAX_AGE_S,
                subscriptions=json.loads(Path(files["subscriptions"]).read_text()),
                client_chain=client,
            ))
            self._add("cache", CacheServer(listen, cache))
        if "vault" not in names:
            return
        cas_chain = load_chain(files["cas_public"])
        pull = self.workload == "pull"
        common = dict(
            site=load_site(files["site"]), cas_public=cas_chain.innermost_keys().public(),
            cas_identity=cas_chain.subject, pull_source=self.endpoints["cache"] if pull else None,
            pull_namespace=NAMESPACE, client_chain=client if pull else None,
        )
        vault_cfg = ResourceConfig(
            **common, anchors=load_anchors(files["anchors"]), mode=self.workload,
            group_rights=None if pull else load_group_rights(files["groups"]),
        )
        self._add("vault", VaultServer(listen, ResourceService(vault_cfg)))
        self._add("authz", AuthzServer(listen, AuthzConfig(**common)))

    def _add(self, name: str, server) -> None:
        server.start()
        self.servers[name] = server
        self.endpoints[name] = server.endpoint

    def stop(self) -> None:
        for server in reversed(list(self.servers.values())):
            server.stop()
        self.servers = {}
