"""The sweep service's socket front end: JSON lines over TCP, stdlib only.

One asyncio server sits in front of one :class:`~repro.service.registry.JobRegistry`.
Each request is a single JSON object on its own line; each response is one
JSON line (``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``), except
``stream``, which sends one line per job event and a final
``{"ok": true, "end": true}``.  A connection can issue any number of
requests back to back; the server handles many connections concurrently
while all actual computation serializes through the registry's single job
thread onto the shared workers.

Operations::

    {"op": "ping"}                    -> {"ok": true, "schema": 1}
    {"op": "submit", "spec": {...}}   -> {"ok": true, "job_id", "dedup", "status"}
    {"op": "status", "job_id": "..."} -> {"ok": true, "status": {...}}
    {"op": "result", "job_id": "..."} -> blocks; {"ok": true, "kind", "result"}
    {"op": "stream", "job_id": "..."} -> event lines, then {"ok": true, "end": true}
    {"op": "jobs"}                    -> {"ok": true, "jobs": [...]}
    {"op": "telemetry"}               -> {"ok": true, "telemetry": {...}}
    {"op": "shutdown"}                -> {"ok": true}; server drains and stops

Blocking registry calls (``wait``, ``events_since``) are pushed onto the
default thread-pool executor so a client parked on ``result`` never stalls
the event loop.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Optional

from repro.service.handles import FAILED
from repro.service.jobs import JOB_SCHEMA, JobSpec, JobSpecError
from repro.service.registry import JobRegistry
from repro.telemetry import get_telemetry

logger = logging.getLogger(__name__)

#: hard ceiling on one request line (a spec is small; traces never inline)
MAX_LINE_BYTES = 1 << 20


class SweepServer:
    """Serve one :class:`JobRegistry` over a host:port JSON-lines socket."""

    def __init__(
        self, registry: JobRegistry, host: str = "127.0.0.1", port: int = 0
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None

    async def start(self) -> None:
        """Bind the socket (resolving port 0 to the real one)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("repro service listening on %s:%d", self.host, self.port)

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` op) fires."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stopped.wait()

    def stop(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # oversized or torn request line: drop the connection
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    await self._send(writer, {"ok": False, "error": str(error)})
                    continue
                get_telemetry().count("service.requests")
                try:
                    done = await self._dispatch(request, writer)
                except ConnectionError:  # pragma: no cover - client vanished
                    break
                if done:
                    break
        except asyncio.CancelledError:  # pragma: no cover - server teardown
            raise
        except Exception:  # pragma: no cover - connection-level guard
            logger.exception("connection %s failed", peer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _send(self, writer, payload: dict) -> None:
        writer.write(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, request: dict, writer) -> bool:
        """Handle one request; True means close the connection after."""
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "schema": JOB_SCHEMA})
            return False
        if op == "submit":
            await self._send(writer, self._op_submit(request))
            return False
        if op == "status":
            await self._send(writer, self._op_status(request))
            return False
        if op == "result":
            await self._send(writer, await self._op_result(request))
            return False
        if op == "stream":
            await self._op_stream(request, writer)
            return False
        if op == "jobs":
            statuses = [status.to_json() for status in self.registry.jobs()]
            await self._send(writer, {"ok": True, "jobs": statuses})
            return False
        if op == "telemetry":
            await self._send(
                writer, {"ok": True, "telemetry": get_telemetry().to_json()}
            )
            return False
        if op == "shutdown":
            await self._send(writer, {"ok": True})
            self.stop()
            return True
        await self._send(writer, {"ok": False, "error": f"unknown op {op!r}"})
        return False

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_submit(self, request: dict) -> dict:
        try:
            spec = JobSpec.from_json(request.get("spec"))
            record, dedup = self.registry.submit(spec)
        except JobSpecError as error:
            return {"ok": False, "error": str(error)}
        status = record.status(dedup=dedup)
        return {
            "ok": True,
            "job_id": record.job_id,
            "kind": spec.kind,
            "dedup": dedup,
            "status": status.to_json(),
        }

    def _op_status(self, request: dict) -> dict:
        record = self.registry.get(str(request.get("job_id")))
        if record is None:
            return {"ok": False, "error": "unknown job"}
        return {"ok": True, "status": record.status().to_json()}

    async def _op_result(self, request: dict) -> dict:
        record = self.registry.get(str(request.get("job_id")))
        if record is None:
            return {"ok": False, "error": "unknown job"}
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(None, record.wait)
        except BaseException as error:  # noqa: BLE001 - relay job failure
            return {"ok": False, "error": str(error), "state": FAILED}
        return {"ok": True, "kind": record.spec.kind, "result": payload}

    async def _op_stream(self, request: dict, writer) -> None:
        record = self.registry.get(str(request.get("job_id")))
        if record is None:
            await self._send(writer, {"ok": False, "error": "unknown job"})
            return
        loop = asyncio.get_running_loop()
        index = 0
        while True:
            batch, index, finished = await loop.run_in_executor(
                None, record.events_since, index
            )
            for event in batch:
                await self._send(writer, {"ok": True, "event": event})
            if finished:
                await self._send(writer, {"ok": True, "end": True})
                return


async def serve(registry: JobRegistry, host: str, port: int) -> None:
    """Convenience: build a server and run it until a shutdown op."""
    server = SweepServer(registry, host=host, port=port)
    await server.serve_until_stopped()
