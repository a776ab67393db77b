#!/usr/bin/env python3
"""caslite benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload push --seed 1 --seconds 10 --trace 0

``--trace 0`` starts the workload's services as processes over loopback and
prints the end-to-end metrics; ``--trace 1`` replays the same operations with
the services in this process and prints the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to ``bench/results/``.
``--smoke`` runs every workload at tiny sizes, both ways, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

# The end-to-end metrics of BENCHMARK.json, which the final line carries. The
# run also prints and records latency_p50_ms, latency_p99_ms,
# throughput_ops_s and service_cpu_ms_per_op, which on a shared host move
# with the hypervisor's steal too much to gate on (see README.md).
END_TO_END = ("service_cpu_net_ms_per_op", "service_rss_mb", "setup_s")


def environment(world) -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "workload": world.workload,
        "seed": world.seed,
        "sizes": world.sizes.__dict__,
        "clients": world.clients,
        "ops_per_round_per_client": len(world.streams[0][0]),
        "listing_members": len(world.tables.listing()) if world.workload != "push" else 0,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from world import FULL, SMOKE, build

    world = build(workload, seed, (SMOKE if smoke else FULL)[workload])
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if trace:
            import tracing
            result = tracing.run(world, seconds, workdir, RESULTS)
        else:
            import e2e
            result = e2e.run(world, seconds, SRC, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(world)
    return result


def summary(result: dict, names) -> dict:
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
                    for name in names},
    }


def smoke(seconds: float) -> int:
    """Every workload, end to end and traced, at tiny sizes."""
    from world import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(workload, 1, seconds, trace, smoke=True)
            line = summary(result, result["metrics"])
            good = line["correct"] and line["attempted"] > 0
            ok = ok and good
            print(f"{workload} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"attempted={line['attempted']} failed={line['failed']}")
            for failure in result["failures"][:5]:
                print(f"  {failure}", file=sys.stderr)
    print(json.dumps({"smoke": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("push", "pull", "community"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if not (SRC / "caslite" / "__init__.py").is_file():
        print(f"error: no caslite sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if args.workload is None:
        parser.error("--workload is required")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    for failure in result["failures"][:10]:
        print(f"failure: {failure}", file=sys.stderr)
    names = result["metrics"] if args.trace else END_TO_END
    print(json.dumps({k: v[0] for k, v in result["metrics"].items()}))
    print(json.dumps(summary(result, names)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
