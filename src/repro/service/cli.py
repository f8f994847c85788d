"""``repro-serve``: run the sweep service from the command line.

Usage::

    repro-serve --state-dir runs/service                # ephemeral port
    repro-serve --port 7707 --jobs 8                    # fixed port, 8 workers
    repro-serve --port 0 --port-file /tmp/port          # test harnesses

The server owns one long-lived engine for its whole lifetime.  With
``--jobs`` > 1 that is a *persistent* :class:`~repro.engine.parallel.ParallelEngine`:
its forked workers, and the traces installed in them, survive across
jobs, so back-to-back submissions over the same trace suite skip
re-forking and re-installing (counted in ``engine.parallel.pool_reuses``).
A worker lost between jobs is replaced before the next one runs.

On startup the registry **recovers**: any job manifest in the state
directory without a stored result is resubmitted, and its journal replays
every scheme the killed run completed -- the restart contract the
kill/resume tests pin down.  SIGTERM/SIGINT stop accepting connections,
drain the in-flight job, and exit cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine import make_engine
from repro.engine.parallel import ParallelEngine
from repro.service.registry import JobRegistry
from repro.service.server import SweepServer
from repro.telemetry import Telemetry, set_telemetry

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="serve prediction sweeps, traffic runs, and scenario "
        "cells over a JSON-lines socket",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=7707,
        help="TCP port; 0 picks an ephemeral port (default 7707)",
    )
    parser.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening (for test harnesses)",
    )
    parser.add_argument(
        "--state-dir", type=Path, default=Path("runs/service"),
        help="durable state: job manifests, results, journals, telemetry "
        "(default runs/service)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="evaluation workers; >1 keeps a persistent set of forked "
        "workers shared across jobs (default 1)",
    )
    parser.add_argument(
        "--backend", default=None,
        help="evaluation backend override (default: REPRO_BACKEND, or "
        "parallel when --jobs > 1)",
    )
    parser.add_argument(
        "--hosts", default=None,
        help="comma-separated host:port addresses of running repro-worker "
        "processes; jobs without their own hosts= run on this fleet over "
        "the socket transport",
    )
    parser.add_argument(
        "--max-result-cache-mb", type=float, default=None,
        help="size cap on the durable result cache in MiB; least-recently-"
        "used results are evicted past it (default: "
        "REPRO_RESULT_CACHE_BYTES, or unbounded)",
    )
    parser.add_argument(
        "--no-recover", action="store_true",
        help="skip resubmitting unfinished jobs from the state directory",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log at INFO"
    )
    return parser


def _make_service_engine(backend: Optional[str], jobs: int, hosts: Optional[str] = None):
    """The server's engine: a persistent transport when it would use workers."""
    if backend in (None, "parallel") and (jobs > 1 or hosts):
        return ParallelEngine(jobs=jobs, hosts=hosts, persistent=True)
    return make_engine(backend=backend, jobs=jobs, hosts=hosts)


async def _serve(server: SweepServer, port_file: Optional[Path]) -> None:
    await server.start()
    if port_file is not None:
        port_file.write_text(f"{server.port}\n", encoding="utf-8")
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await server.serve_until_stopped()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    # the server always collects telemetry: it is the `telemetry` op's
    # payload and the per-job artifact the CI smoke job uploads
    set_telemetry(Telemetry())
    engine = _make_service_engine(args.backend, args.jobs, args.hosts)
    max_bytes = (
        int(args.max_result_cache_mb * 1024 * 1024)
        if args.max_result_cache_mb is not None
        else None
    )
    registry = JobRegistry(
        engine=engine, state_dir=args.state_dir, max_result_bytes=max_bytes
    )
    try:
        if not args.no_recover:
            recovered = registry.recover()
            if recovered:
                logger.info("recovered %d unfinished job(s)", recovered)
        server = SweepServer(registry, host=args.host, port=args.port)
        asyncio.run(_serve(server, args.port_file))
    finally:
        registry.close()
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
