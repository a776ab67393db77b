"""The traced run: per-layer costs of the same operations, in one process.

The workload's services run in this process on loopback (``InProcessStack``)
and one client thread replays every client's stream, one operation at a time,
through the same ``Runner`` as the end-to-end run. Pass-through timers are
installed on the public functions named in ``WATCHED``: each call runs the
original function unchanged and records a span (name, start, end, parent, op
id). Because one thread works at a time, a span opened on a service thread
whose own stack is empty is a child of the span most recently opened on any
thread, which is the client call that caused it. A layer's self time is its
spans' durations minus their children's; over an operation the self times of
all layers, ``bench`` (the client's own code) and ``wire`` (transport and
framing) included, add up to the operation's time.

Traced and untraced rounds alternate (the timers stay installed but only
pass calls through on untraced rounds); the gap between the two is the
tracing overhead.
"""

from __future__ import annotations

import gzip
import importlib
import json
import socket
import statistics
import struct
import sys
import threading
import time
from pathlib import Path

from caslite import wire

import ops as ops_module
from ops import Runner
from services import InProcessStack
from world import World, write_files

# layer -> functions or Class.method names in caslite.<layer>
WATCHED = {
    "wire": ("call",),
    "canonical": ("canonical_json", "parse_canonical"),
    "keys": ("sign_payload", "verify_payload"),
    "credentials": ("chain_from_map", "chain_to_map", "verify_chain", "check_chain_internal",
                    "issue_proxy"),
    "assertions": ("extract_from_proxy", "verify_assertion", "issue_assertion",
                   "issue_restricted_proxy", "assertion_from_map", "assertion_to_map"),
    "policy": ("decide", "user_rights", "apply_admin", "save_database", "rights_from_list",
               "rights_to_list", "intersect_rights"),
    "statements": ("sign_statement", "verify_statement", "statement_from_map",
                   "statement_to_map", "listing_rights", "StatementFetcher.fetch"),
    "server": ("CasServer.handle", "CasServer.handle_get_credential", "CasServer.handle_query",
               "CasServer.handle_admin", "AuditLog.append"),
    "cache": ("CacheServer.handle", "StatementCache.serve_cached"),
    "vault": ("VaultServer.handle", "enforce", "pull_authorize"),
    "authz": ("AuthzServer.handle", "decide_local", "query_from_payload"),
}
LAYERS = tuple(WATCHED) + ("bench",)

# Span fields.
NAME, START, END, PARENT, OP, THREAD, NOTE = range(7)


class Tracer:
    """Keeps spans in memory; ``install`` wraps, ``remove`` restores."""

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self.enabled = True
        self.op_kind = ""
        self.samples: dict = {}          # op kind -> one response frame, for read_frame
        self.client_thread = threading.get_ident()
        self._local = threading.local()
        self._open: list = []
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        tracer = self
        namer = _NAMERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._open[-1] if tracer._open else None)
            span = [namer(args) if namer else name, 0, 0, parent, tracer.op,
                    threading.get_ident(), None]
            if note is not None:
                span[NOTE] = note(tracer, args)
            stack.append(span)
            tracer._open.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                if tracer._open[-1] is span:
                    tracer._open.pop()
                else:
                    tracer._open[:] = [s for s in tracer._open if s is not span]
                tracer.spans.append(span)
            if name == "canonical.canonical_json":
                span[NOTE] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("caslite") and m]
        for layer, names in WATCHED.items():
            module = importlib.import_module(f"caslite.{layer}")
            for qualname in names:
                name = f"{layer}.{qualname.split('.')[-1]}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(name, original, _NOTES.get(name)))
                    continue
                original = getattr(module, qualname)
                traced = self.wrap(name, original, _NOTES.get(name))
                for mod in modules + [ops_module]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, traced)
        runner_execute = Runner.__dict__["execute"]
        self._restore.append((Runner, "execute", runner_execute))
        Runner.execute = self.wrap("bench.execute", runner_execute)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _note_parse(tracer: Tracer, args):
    data = args[0]
    if tracer.op is not None and tracer.op_kind not in tracer.samples \
            and threading.get_ident() == tracer.client_thread:
        tracer.samples[tracer.op_kind] = data
    return len(data)


_NOTES = {
    "canonical.parse_canonical": _note_parse,
    "credentials.verify_chain": lambda tracer, args: hash(args[0]),
    "policy.decide": lambda tracer, args: len(args[2]),
    "server.handle_query": lambda tracer, args: (args[0].db.revision, str(args[1].get("namespace"))),
}
_NAMERS = {
    "server.handle_query": lambda args: (
        "server.handle_query_listing" if args[1].get("query") == "resource_rights"
        else "server.handle_query_user"),
}


# --- the run --------------------------------------------------------------------

def _replay(runner: Runner, world: World, r: int, tracer: Tracer, failures: list,
            first_op: int | None = None) -> tuple:
    """Run round ``r`` of every client, their ops interleaved one by one; with
    ``first_op`` set and tracing on, spans carry op ids from it."""
    count, elapsed = 0, 0.0
    per_client = [stream[r % len(stream)] for stream in world.streams]
    for i in range(max(len(ops) for ops in per_client)):
        for ops in per_client:
            if i >= len(ops):
                continue
            op = ops[i]
            if first_op is not None and tracer.enabled:
                tracer.op, tracer.op_kind = first_op + count, op.kind
            latency, error = ops_module.run_op(runner, op)
            tracer.op = None
            elapsed += latency
            count += 1
            if error:
                failures.append(f"{op.kind}: {error}")
    return count, elapsed


def run(world: World, seconds: float, workdir: Path, results: Path) -> dict:
    files = write_files(world, workdir)
    failures: list = []
    tracer = Tracer()
    tracer.install()
    stack = InProcessStack(world.workload, files)
    try:
        stack.start()
        runner = Runner(world, stack.endpoints)
        for op in runner.first_answers() + runner.preload():
            error = ops_module.run_op(runner, op)[1]
            if error:
                failures.append(f"set-up: {error}")
        _replay(runner, world, 0, tracer, failures)
        # Traced and untraced rounds alternate, so both see the same machine.
        counts = {True: [0, 0.0], False: [0, 0.0]}
        kinds: dict = {}
        start, r = time.perf_counter(), 0
        while r % 2 or time.perf_counter() - start < seconds:
            r += 1
            tracer.enabled = bool(r % 2)
            if tracer.enabled:
                for stream in world.streams:
                    for op in stream[r % len(stream)]:
                        kinds[op.kind] = kinds.get(op.kind, 0) + 1
            n, elapsed = _replay(runner, world, r, tracer, failures, counts[True][0])
            counts[tracer.enabled][0] += n
            counts[tracer.enabled][1] += elapsed
        tracer.enabled = False
        main = stack.endpoints["server" if world.workload == "community" else "vault"]
        call_us = _ping_us(main)
        read_frame_us = _read_frame_us(tracer.samples, kinds)
    finally:
        tracer.remove()
        stack.stop()
    final = runner.check_final(files["db"])
    if final:
        failures.append(final)
    (traced_ops, traced_s), (untraced_ops, untraced_s) = counts[True], counts[False]
    metrics = layer_metrics(tracer.spans, traced_ops, tracer.client_thread)
    metrics["wire.call_us"] = (call_us, "us")
    metrics["wire.read_frame_us"] = (read_frame_us, "us")
    metrics["trace.untraced_op_us"] = (untraced_s * 1e6 / untraced_ops, "us")
    metrics["trace.overhead_share"] = (
        (traced_s / traced_ops) / (untraced_s / untraced_ops) - 1, "share")
    results.mkdir(parents=True, exist_ok=True)
    _write_spans(tracer.spans, results / f"trace_{world.workload}_seed{world.seed}.jsonl.gz")
    return {
        "attempted": traced_ops + untraced_ops,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "detail": {"traced_ops": traced_ops, "untraced_ops": untraced_ops, "rounds": r,
                   "spans": len(tracer.spans)},
    }


def _ping_us(endpoint, count: int = 200) -> float:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        wire.call(endpoint, "ping")
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _read_frame_us(samples: dict, kinds: dict) -> float:
    """read_frame on the workload's own response frames, weighted by how often
    each kind of operation ran."""
    total, weight = 0.0, 0
    for kind, data in samples.items():
        frame = struct.pack(">I", len(data)) + bytes(data)
        reps = max(3, min(50, 2_000_000 // len(frame)))
        times = []
        for _ in range(reps):
            left, right = socket.socketpair()
            with left, right:
                writer = threading.Thread(target=left.sendall, args=(frame,))
                writer.start()
                start = time.perf_counter()
                wire.read_frame(right)
                times.append(time.perf_counter() - start)
                writer.join()
        total += statistics.median(times) * 1e6 * kinds.get(kind, 0)
        weight += kinds.get(kind, 0)
    return total / weight if weight else 0.0


def _write_spans(spans: list, path: Path) -> None:
    index = {id(span): i for i, span in enumerate(spans)}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
        for span in spans:
            note = span[NOTE]
            out.write(json.dumps([
                span[NAME], span[START], span[END],
                index.get(id(span[PARENT])) if span[PARENT] is not None else None,
                span[OP], span[THREAD], note if isinstance(note, (int, str)) else None,
            ]) + "\n")


# --- aggregation ----------------------------------------------------------------

PER_CALL = {
    # metric: (span name, unit)
    "canonical.canonical_json_us": ("canonical.canonical_json", "us"),
    "canonical.parse_canonical_us": ("canonical.parse_canonical", "us"),
    "keys.verify_payload_us": ("keys.verify_payload", "us"),
    "keys.sign_payload_us": ("keys.sign_payload", "us"),
    "credentials.chain_from_map_us": ("credentials.chain_from_map", "us"),
    "credentials.verify_chain_us": ("credentials.verify_chain", "us"),
    "assertions.extract_from_proxy_us": ("assertions.extract_from_proxy", "us"),
    "assertions.verify_assertion_us": ("assertions.verify_assertion", "us"),
    "assertions.issue_restricted_proxy_us": ("assertions.issue_restricted_proxy", "us"),
    "assertions.issue_assertion_us": ("assertions.issue_assertion", "us"),
    "policy.decide_us": ("policy.decide", "us"),
    "policy.user_rights_us": ("policy.user_rights", "us"),
    "policy.apply_admin_us": ("policy.apply_admin", "us"),
    "policy.save_database_ms": ("policy.save_database", "ms"),
    "statements.listing_rights_us": ("statements.listing_rights", "us"),
    "statements.sign_statement_ms": ("statements.sign_statement", "ms"),
    "statements.statement_from_map_ms": ("statements.statement_from_map", "ms"),
    "statements.verify_statement_ms": ("statements.verify_statement", "ms"),
    "server.handle_get_credential_us": ("server.handle_get_credential", "us"),
    "server.handle_query_listing_ms": ("server.handle_query_listing", "ms"),
    "server.handle_admin_ms": ("server.handle_admin", "ms"),
    "server.audit_append_us": ("server.append", "us"),
    "cache.serve_cached_us": ("cache.serve_cached", "us"),
    "vault.enforce_us": ("vault.enforce", "us"),
    "vault.pull_authorize_us": ("vault.pull_authorize", "us"),
    "authz.decide_local_us": ("authz.decide_local", "us"),
}
SCALE = {"us": 1e-3, "ms": 1e-6}


def layer_metrics(spans: list, ops: int, client_thread: int) -> dict:
    """Every per-layer metric from the recorded spans. Per-call figures use
    every call, set-up included; per-op figures use the traced operations."""
    child_ns: dict = {}
    children: dict = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_ns[id(parent)] = child_ns.get(id(parent), 0) + span[END] - span[START]
            children.setdefault(id(parent), []).append(span)
    durations: dict = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    op_ns = 0
    for span in spans:
        duration = span[END] - span[START]
        durations.setdefault(span[NAME], []).append(duration)
        if span[OP] is None:
            continue
        self_ns[span[NAME].split(".")[0]] += duration - child_ns.get(id(span), 0)
        if span[NAME] == "bench.execute":
            op_ns += duration
    out: dict = {}
    for metric, (name, unit) in PER_CALL.items():
        values = durations.get(name)
        out[metric] = (statistics.fmean(values) * SCALE[unit] if values else 0.0, unit)
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = (self_ns[layer] / 1e3 / ops, "us")
    out["trace.op_us"] = (op_ns / 1e3 / ops, "us")
    out["trace.layer_sum_us"] = (sum(self_ns.values()) / 1e3 / ops, "us")

    in_ops = [s for s in spans if s[OP] is not None]
    verifies = sum(1 for s in in_ops if s[NAME] == "keys.verify_payload")
    out["keys.verifies_per_op"] = (verifies / ops, "count")
    decided = [s[NOTE] for s in in_ops if s[NAME] == "policy.decide"]
    out["policy.asserted_rights_per_op"] = (statistics.fmean(decided) if decided else 0.0, "count")
    seen: set = set()
    repeats = total = 0
    for span in spans:
        if span[NAME] == "credentials.verify_chain":
            total += 1
            repeats += span[NOTE] in seen
            seen.add(span[NOTE])
    out["credentials.verify_chain_repeat_share"] = (repeats / total if total else 0.0, "share")
    listings = [s[NOTE] for s in spans if s[NAME] == "server.handle_query_listing"]
    out["server.listings_per_revision"] = (
        len(listings) / len(set(listings)) if listings else 0.0, "ratio")

    requests, responses, listing_sizes = [], [], []
    for span in in_ops:
        if span[NAME] != "wire.call" or span[THREAD] != client_thread:
            continue
        for child in children.get(id(span), ()):
            if child[THREAD] != client_thread:
                continue
            if child[NAME] == "canonical.canonical_json":
                requests.append(child[NOTE])
            elif child[NAME] == "canonical.parse_canonical":
                responses.append(child[NOTE])
    for span in spans:
        if span[NAME] != "statements.fetch":
            continue
        for call in children.get(id(span), ()):
            for child in children.get(id(call), ()):
                if child[NAME] == "canonical.parse_canonical" and child[THREAD] == call[THREAD]:
                    listing_sizes.append(child[NOTE])
    out["wire.request_bytes"] = (statistics.fmean(requests) if requests else 0.0, "bytes")
    out["wire.response_bytes"] = (statistics.fmean(responses) if responses else 0.0, "bytes")
    out["statements.listing_bytes"] = (
        statistics.fmean(listing_sizes) if listing_sizes else 0.0, "bytes")
    return out
