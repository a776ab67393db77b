"""The end-to-end run: real service processes over loopback, a closed loop.

Set-up is repeated and its median reported; the last stack set up serves the
timed window. Each client runs whole rounds of its stream until the window
has passed, so every run attempts the same mix.
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path

from ops import Runner, run_op
from services import ProcessStack
from world import World, write_files


def latency_tail(latencies: list):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, capped at p99; None below forty samples."""
    n = len(latencies)
    if n < 40:
        return None
    q = min(0.99, 1 - 10 / n)
    ordered = sorted(latencies)
    return q, ordered[min(n - 1, int(q * n))]


def steal_ticks() -> tuple:
    """(steal ticks, all ticks) of this machine so far, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def _client(runner: Runner, rounds: list, deadline: float, out: list) -> None:
    n = 0
    while True:
        for op in rounds[n % len(rounds)]:
            latency, error = run_op(runner, op)
            out.append((op.kind, latency, error, time.perf_counter()))
        n += 1
        if time.perf_counter() >= deadline:
            return


def start_stack(world: World, files: dict, src: Path, workdir: Path, failures: list):
    """Start every service and wait for each one's first correct answer."""
    stack = ProcessStack(world.workload, files, src, workdir)
    started = time.perf_counter()
    try:
        stack.start()
        runner = Runner(world, stack.endpoints)
        for op in runner.first_answers():
            error = run_op(runner, op)[1]
            if error:
                failures.append(f"set-up: {error}")
    except BaseException:
        stack.stop()
        raise
    return stack, runner, time.perf_counter() - started


def run(world: World, seconds: float, src: Path, workdir: Path) -> dict:
    files = write_files(world, workdir)
    failures: list = []
    setups = []
    for repeat in range(world.sizes.setup_repeats):
        stack, runner, elapsed = start_stack(world, files, src, workdir, failures)
        setups.append(elapsed)
        if repeat < world.sizes.setup_repeats - 1:
            stack.stop()
    try:
        for op in runner.preload() + [op for stream in world.streams for op in stream[0]]:
            error = run_op(runner, op)[1]
            if error:
                failures.append(f"warm-up: {error}")
        cpu_before = stack.cpu_seconds()
        steal_before = steal_ticks()
        records = [[] for _ in world.streams]
        start = time.perf_counter()
        threads = [threading.Thread(target=_client, args=(runner, stream, start + seconds, out))
                   for stream, out in zip(world.streams, records)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu = stack.cpu_seconds() - cpu_before
        steal_after = steal_ticks()
        rss = stack.peak_rss_mib()
    finally:
        stack.stop()
    ops = [r for per_client in records for r in per_client]
    elapsed = max(r[3] for r in ops) - start
    failed = [r for r in ops if r[2]]
    failures.extend(f"{r[0]}: {r[2]}" for r in failed)
    final = runner.check_final(files["db"])
    if final:
        failures.append(final)
    done = [r for r in ops if not r[2]]
    latencies = [r[1] for r in done]
    steal = (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1])
    cpu_per_op = cpu * 1000 / len(done)
    tail = latency_tail(latencies)
    by_kind: dict = {}
    for kind, latency, _, _ in done:
        by_kind.setdefault(kind, []).append(latency)
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "failures": failures,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (len(done) / elapsed, "ops/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_p99_ms": (tail[1] * 1000 if tail else statistics.median(latencies) * 1000, "ms"),
            "service_cpu_ms_per_op": (cpu_per_op, "ms/op"),
            "service_cpu_net_ms_per_op": (cpu_per_op * (1 - steal), "ms/op"),
            "service_rss_mb": (rss, "MiB"),
        },
        "detail": {
            "setup_s_each": setups,
            "window_s": elapsed,
            "steal_share": steal,
            "latency_tail_percentile": tail[0] if tail else None,
            "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
            "p50_ms_by_kind": {k: statistics.median(v) * 1000 for k, v in sorted(by_kind.items())},
        },
    }
