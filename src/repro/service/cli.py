"""CLI surface of the sort service: ``serve``, ``submit``, ``jobs``.

::

    python -m repro serve --pool 4 --spill-root /tmp/sort-svc \\
        --listen 127.0.0.1:7099
    python -m repro submit --connect 127.0.0.1:7099 --data-mib 64 \\
        --nodes 4 --wait
    python -m repro jobs --connect 127.0.0.1:7099 [--stats] [--json]
    python -m repro jobs --connect 127.0.0.1:7099 --cancel j3
    python -m repro jobs --connect 127.0.0.1:7099 --shutdown

``serve`` runs the daemon in the foreground until SIGINT/SIGTERM (or a
client ``--shutdown``); everything else is a thin
:class:`~repro.service.client.SortClient` wrapper.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from .jobs import ServiceError

__all__ = ["run_serve", "run_submit", "run_jobs"]

MiB = 2**20


def _parse_addr(text: str):
    from ..net.rendezvous import parse_hostport

    return parse_hostport(text)


def run_serve(argv) -> int:
    """``python -m repro serve``: run the sort service daemon."""
    from .daemon import SortService

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        allow_abbrev=False,
        description="Run the persistent sort service over a warm PE pool.",
    )
    parser.add_argument(
        "--pool", type=int, default=4, metavar="P",
        help="warm pool size: persistent worker processes",
    )
    parser.add_argument(
        "--spill-root", required=True,
        help="shared spill directory (jobs are namespaced inside it)",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="control endpoint (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--memory-budget-mib", type=float, default=None, metavar="MIB",
        help="aggregate worker-memory admission budget "
        "(default: 64 MiB per pool worker)",
    )
    parser.add_argument(
        "--spill-budget-mib", type=float, default=None, metavar="MIB",
        help="aggregate spill-footprint admission budget (default: unmetered)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="announce the endpoint as one JSON line instead of prose",
    )
    args = parser.parse_args(argv)
    if args.pool < 1:
        print(f"--pool must be >= 1, got {args.pool}", file=sys.stderr)
        return 2

    service = SortService(
        pool_size=args.pool,
        spill_root=args.spill_root,
        listen=args.listen,
        memory_budget_bytes=(
            int(args.memory_budget_mib * MiB)
            if args.memory_budget_mib is not None else None
        ),
        spill_budget_bytes=(
            int(args.spill_budget_mib * MiB)
            if args.spill_budget_mib is not None else None
        ),
    )
    host, port = service.addr
    if args.json:
        print(json.dumps({
            "listen": f"{host}:{port}", "pool": args.pool,
            "spill_root": args.spill_root,
            "memory_budget_bytes": service.memory_budget_bytes,
            "spill_budget_bytes": service.spill_budget_bytes,
        }), flush=True)
    else:
        print(
            f"sort service: pool of {args.pool} PEs, control endpoint "
            f"{host}:{port}, spill root {args.spill_root}",
            flush=True,
        )

    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    try:
        # Wake periodically so a client-initiated shutdown (which joins
        # the scheduler) also ends the foreground process.
        while not stop.is_set() and service._scheduler.is_alive():
            stop.wait(0.5)
    finally:
        service.close()
    return 0


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--label", default="", help="human-readable job label")
    parser.add_argument(
        "--nodes", type=int, default=2, help="worker PEs for this job"
    )
    parser.add_argument("--data-mib", type=float, default=1.0)
    parser.add_argument("--memory-mib", type=float, default=8.0)
    parser.add_argument(
        "--block-kib", type=float, default=None,
        help="block size in KiB (default: the service default, 64)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workload", choices=("random", "skewed"), default="random"
    )
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument(
        "--max-restarts", type=int, default=0,
        help="per-job recovery budget (see docs/RECOVERY.md)",
    )
    parser.add_argument(
        "--cleanup-on-abort", action="store_true",
        help="purge the job's spill namespace if it fails for good",
    )
    parser.add_argument(
        "--records", choices=("fixed16", "string"), default="fixed16",
        help="record model: fixed 16-byte or variable-length string "
        "records (see docs/NATIVE.md)",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "shm"), default=None,
        help="per-job mesh substrate (default: service default, 'pipe')",
    )


def _spec_from_args(args) -> dict:
    spec = {
        "label": args.label,
        "n_workers": args.nodes,
        "data_mib": args.data_mib,
        "memory_mib": args.memory_mib,
        "seed": args.seed,
        "skew": args.workload == "skewed",
        "timeout": args.timeout,
        "max_restarts": args.max_restarts,
        "cleanup_on_abort": args.cleanup_on_abort,
        "records": args.records,
    }
    # Unset flags stay out of the spec so the service defaults apply.
    if args.block_kib is not None:
        spec["block_kib"] = args.block_kib
    if args.transport is not None:
        spec["transport"] = args.transport
    return spec


def run_submit(argv) -> int:
    """``python -m repro submit``: submit one job to a running service."""
    from .client import SortClient

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        allow_abbrev=False,
        description="Submit a sort job to a running sort service.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the service's control endpoint",
    )
    _add_spec_args(parser)
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and report its outcome",
    )
    parser.add_argument(
        "--wait-timeout", type=float, default=None, metavar="S",
        help="give up waiting after S seconds (with --wait)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        with SortClient(_parse_addr(args.connect)) as client:
            job_id = client.submit(_spec_from_args(args))
            if not args.wait:
                if args.json:
                    print(json.dumps({"id": job_id, "state": "QUEUED"}))
                else:
                    print(f"submitted {job_id}")
                return 0
            reply = client.result(job_id, timeout=args.wait_timeout)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    job = reply["job"]
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
    elif job["state"] == "DONE":
        res = reply.get("result", {})
        keys = res.get("validation", {}).get("total_keys", "?")
        print(f"{job_id} DONE: {keys} records sorted and valid")
    else:
        print(f"{job_id} {job['state']}: {job.get('error')}")
    return 0 if job["state"] == "DONE" else 1


def run_jobs(argv) -> int:
    """``python -m repro jobs``: inspect or control a running service."""
    from .client import SortClient

    parser = argparse.ArgumentParser(
        prog="python -m repro jobs",
        allow_abbrev=False,
        description="List jobs, read service stats, cancel, or shut down.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the service's control endpoint",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print service-level stats"
    )
    parser.add_argument(
        "--cancel", metavar="JOB", help="cancel the given job id"
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="stop the service"
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        with SortClient(_parse_addr(args.connect)) as client:
            if args.cancel:
                state = client.cancel(args.cancel)
                if args.json:
                    print(json.dumps({"id": args.cancel, "state": state}))
                else:
                    print(f"{args.cancel}: {state}")
                return 0
            if args.shutdown:
                client.shutdown()
                if not args.json:
                    print("service stopping")
                return 0
            if args.stats:
                stats = client.stats()
                if args.json:
                    print(json.dumps(stats, indent=2, sort_keys=True))
                else:
                    jobs, pool = stats["jobs"], stats["pool"]
                    print(
                        f"uptime {stats['uptime_s']:.0f}s — "
                        f"{jobs['done']} done, {jobs['failed']} failed, "
                        f"{jobs['cancelled']} cancelled, "
                        f"{jobs['running']} running, {jobs['queued']} queued; "
                        f"pool {pool['busy']}/{pool['size']} busy, "
                        f"utilization {pool['utilization']:.1%}, "
                        f"{stats['restarts']} restarts, "
                        f"{stats['respawns']} respawns"
                    )
                return 0
            jobs = client.jobs()
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
    else:
        if not jobs:
            print("no jobs")
        for job in jobs:
            line = (
                f"{job['id']:>6}  {job['state']:<9}  "
                f"P={job['n_workers']}  {job['total_records']} records"
            )
            if job.get("label"):
                line += f"  [{job['label']}]"
            if job.get("error"):
                line += f"  error: {job['error']}"
            print(line)
    return 0
