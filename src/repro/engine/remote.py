"""The socket transport: the parallel engine's one worker protocol.

A coordinator (the parallel engine) drives its workers over sockets: it
installs the batch's trace suite once per worker, then streams
demand-driven, plan-ordered scheme chunks and collects flat payloads plus
per-chunk telemetry snapshots.  The workers are either

* **local** -- ``jobs=N`` forks N workers (:func:`fork_worker`), each
  serving one end of a ``socket.socketpair()`` and exiting when it
  closes, so a coordinator that dies, even by SIGKILL, takes its workers
  with it; or
* **hosts** -- ``hosts=`` connects over TCP to long-lived
  ``repro-worker`` processes, started on each machine with the
  ``repro-worker`` console script.

Both kinds serve the same :class:`_WorkerSession` and execute through
:mod:`repro.engine.transport`'s worker functions, so install, dispatch,
re-steal and the chunk deadline run one code path and the math cannot
differ between them.

Wire protocol (version :data:`WIRE_SCHEMA`): newline-delimited JSON
messages, with one binary extension -- an ``install`` message in ``refs``
mode is followed by exactly ``nbytes`` of ``.rtrace`` image data.  Ops:

``hello``     handshake; the worker reports its schema and pid.
``install``   pin a trace suite (and kernel backend) in the worker.
              Mode ``cached`` is a zero-byte probe: the worker keeps its
              last few installed suites keyed by the transport's
              fingerprint tuple, and a coordinator whose suite matches
              re-pins them without shipping anything (coordinator-side
              counter ``engine.remote.trace_cache.hits``; a freshly
              forked local worker is never probed).  Mode ``refs``
              carries one ref per trace: a file-backed trace as its
              ``.rtrace`` path (shared-filesystem assumption), any other
              as the byte length of its image in the trailing blob.  The
              worker installs them through
              :func:`repro.engine.transport.install_traces`, which refuses
              any trace whose content fingerprint is not the ref's.  A
              worker that refuses answers ``ok: false``, and the
              coordinator resends every trace as image bytes (a file's
              image is its bytes).  Every successful install also
              populates the worker's suite cache.
``chunk``     score one chunk (``kind`` evaluate/traffic, scheme full
              names, JSON args) and reply with the payload quadruple.
``shutdown``  acknowledge and exit the worker process.

Failure model: the coordinator is the only stateful party.  A worker that
dies (connection reset, EOF) or hangs (no reply within the per-chunk
deadline) is dropped -- its socket is closed first, so a late reply can
never race a recomputation, and a local worker's process is killed -- and
its outstanding chunks are *re-stolen* by the survivors, counted under
``engine.remote.resteals`` (and, for a host,
``engine.remote.host.<addr>.resteals``).  Chunks are pure functions of
(schemes, installed traces), so a re-run is bit-identical by
construction; the engine's ``SweepJournal`` integration is untouched
because the transport still completes every chunk exactly once.  Only
when *every* worker is gone does the transport raise, handing the batch
to the engine's serial fallback (which recomputes from scratch -- same
bits, one machine).

Test hooks (read by the worker per chunk, for the fault-injection suite;
a local worker inherits them from the coordinator's environment):

* ``REPRO_WORKER_TEST_DELAY`` -- seconds to sleep before each chunk;
* ``REPRO_WORKER_TEST_EXIT_AFTER`` -- after completing N chunks,
  ``os._exit(137)`` *mid-request* on the next one (a SIGKILL stand-in
  that cannot race the test);
* ``REPRO_WORKER_TEST_DROP_AFTER`` -- after N chunk replies, drop the
  coordinator connection but keep the process alive (a network fault, as
  opposed to a dead host).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import queue
import signal
import socket
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.kernel_backends import resolve_kernel_backend
from repro.core.schemes import Scheme, parse_scheme
from repro.engine.transport import (
    INFLIGHT_PER_WORKER,
    ChunkResult,
    install_traces,
    run_chunk,
    trace_refs,
)
from repro.telemetry import Telemetry, set_thread_telemetry
from repro.trace.events import SharingTrace

logger = logging.getLogger("repro.engine.remote")

#: wire protocol version; both sides refuse a mismatch at hello time
WIRE_SCHEMA = 2

#: seconds a chunk may stay unanswered before its worker counts as hung
DEFAULT_CHUNK_TIMEOUT = 300.0


def parse_hosts(raw) -> Tuple[str, ...]:
    """Normalize a hosts option: comma-separated string or iterable."""
    if raw is None:
        return ()
    if isinstance(raw, str):
        parts = raw.split(",")
    else:
        parts = list(raw)
    hosts = []
    for part in parts:
        part = str(part).strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(
                f"host {part!r} must be host:port (e.g. 127.0.0.1:7045)"
            )
        hosts.append(part)
    return tuple(hosts)


def _host_key(address: str) -> str:
    """A telemetry-friendly spelling of ``host:port``."""
    return address.replace(":", "_").replace(".", "_")


# ----------------------------------------------------------------------
# Framing: JSON lines + an optional binary trailer
# ----------------------------------------------------------------------


def _send_message(sock: socket.socket, message: dict, blob: bytes = b"") -> int:
    data = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    sock.sendall(data)
    if blob:
        sock.sendall(blob)
    return len(data) + len(blob)


def _read_message(rfile) -> Optional[dict]:
    line = rfile.readline()
    if not line:
        return None
    return json.loads(line.decode("utf-8"))


def _read_exact(rfile, nbytes: int) -> bytes:
    chunks = []
    remaining = nbytes
    while remaining > 0:
        piece = rfile.read(remaining)
        if not piece:
            raise ConnectionError("connection closed mid binary transfer")
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Worker side: the repro-worker process
# ----------------------------------------------------------------------

#: suites a worker retains between installs (each entry is one batch's
#: whole trace list) -- enough for a coordinator alternating among a few
#: scenario cells without re-shipping, small enough to bound memory
TRACE_CACHE_CAPACITY = 4

#: worker-lifetime suite cache: transport fingerprint tuple -> the install
#: refs received for it (image bytes included).  Survives coordinator
#: reconnects, which is the whole point: a restarted sweep re-pins its
#: traces with a zero-byte ``cached`` probe.
_TRACE_CACHE: "OrderedDict[Tuple[str, ...], List[dict]]" = OrderedDict()


def _trace_cache_store(key: Tuple[str, ...], refs: List[dict]) -> None:
    """Retain the just-installed suite under the coordinator's key (LRU)."""
    if not key:
        return
    _TRACE_CACHE[key] = refs
    _TRACE_CACHE.move_to_end(key)
    while len(_TRACE_CACHE) > TRACE_CACHE_CAPACITY:
        _TRACE_CACHE.popitem(last=False)


def _receive_refs(rfile, message: dict) -> List[dict]:
    """A ``refs`` install's refs, each image a zero-copy slice of the blob.

    Reads the blob before anything can fail, so a refused install never
    leaves image bytes unread on the connection.
    """
    blob = memoryview(_read_exact(rfile, int(message["nbytes"])))
    refs = []
    offset = 0
    for entry in message["traces"]:
        if "path" in entry:
            refs.append({"fingerprint": entry["fingerprint"], "path": entry["path"]})
            continue
        size = int(entry["nbytes"])
        refs.append(
            {"fingerprint": entry["fingerprint"], "image": blob[offset : offset + size]}
        )
        offset += size
    if offset != len(blob):
        raise ValueError(f"install blob holds {len(blob)} bytes, refs claim {offset}")
    return refs


class _WorkerSession:
    """One coordinator connection served by a worker process: a
    ``repro-worker`` host or a forked local worker."""

    def __init__(self, conn: socket.socket, peer: str):
        self.conn = conn
        self.peer = peer
        self.rfile = conn.makefile("rb")
        self.chunks_done = 0

    def serve(self) -> bool:
        """Handle messages until disconnect; True means shut the worker down."""
        try:
            while True:
                message = _read_message(self.rfile)
                if message is None:
                    return False
                if self._dispatch(message):
                    return True
        except (ConnectionError, OSError) as error:
            logger.info("coordinator %s dropped: %s", self.peer, error)
            return False
        finally:
            try:
                self.rfile.close()
                self.conn.close()
            except OSError:
                pass

    def _reply(self, message: dict) -> None:
        _send_message(self.conn, message)

    def _dispatch(self, message: dict) -> bool:
        op = message.get("op")
        if op == "hello":
            self._reply({"ok": True, "schema": WIRE_SCHEMA, "pid": os.getpid()})
            if int(message.get("schema", -1)) != WIRE_SCHEMA:
                logger.warning(
                    "coordinator %s speaks schema %s, worker speaks %s",
                    self.peer,
                    message.get("schema"),
                    WIRE_SCHEMA,
                )
            return False
        if op == "install":
            return self._handle_install(message)
        if op == "chunk":
            return self._handle_chunk(message)
        if op == "shutdown":
            self._reply({"ok": True})
            return True
        self._reply({"ok": False, "error": f"unknown op {op!r}"})
        return False

    def _handle_install(self, message: dict) -> bool:
        mode = message.get("mode")
        key = tuple(message.get("key") or ())
        try:
            if mode == "cached":
                refs = _TRACE_CACHE.get(key)
                if refs is None:
                    self._reply({"ok": False, "error": "trace cache miss"})
                    return False
                _TRACE_CACHE.move_to_end(key)
            elif mode == "refs":
                refs = _receive_refs(self.rfile, message)
            else:
                raise ValueError(f"unknown install mode {mode!r}")
            install_traces({"traces": refs, "kernel": message.get("kernel")})
        except ConnectionError:
            raise
        except Exception as error:  # noqa: BLE001 - reported to the coordinator
            logger.info("install (%s) failed: %s: %s", mode, type(error).__name__, error)
            self._reply(
                {"ok": False, "error": f"{type(error).__name__}: {error}"}
            )
            return False
        if mode != "cached":
            _trace_cache_store(key, refs)
        self._reply({"ok": True, "mode": mode})
        return False

    def _handle_chunk(self, message: dict) -> bool:
        exit_after = os.environ.get("REPRO_WORKER_TEST_EXIT_AFTER")
        if exit_after is not None and self.chunks_done >= int(exit_after):
            # Deterministic SIGKILL stand-in: die mid-request, reply unsent.
            logging.shutdown()
            os._exit(137)
        delay = os.environ.get("REPRO_WORKER_TEST_DELAY")
        if delay:
            time.sleep(float(delay))
        try:
            schemes = [parse_scheme(name) for name in message["schemes"]]
            payloads, elapsed, events, snapshot = run_chunk(
                message["kind"],
                schemes,
                message.get("args", {}),
                with_telemetry=bool(message.get("telemetry")),
                prefix=message.get("prefix"),
            )
        except Exception as error:  # noqa: BLE001 - reported to the coordinator
            self._reply(
                {
                    "ok": False,
                    "id": message.get("id"),
                    "error": f"{type(error).__name__}: {error}",
                }
            )
            return False
        self.chunks_done += 1
        self._reply(
            {
                "ok": True,
                "id": message["id"],
                "payloads": payloads,
                "elapsed": elapsed,
                "events": events,
                "snapshot": snapshot,
            }
        )
        drop_after = os.environ.get("REPRO_WORKER_TEST_DROP_AFTER")
        if drop_after is not None and self.chunks_done >= int(drop_after):
            # Simulated network fault: sever the connection, stay alive.
            raise ConnectionError("test hook: dropping coordinator connection")
        return False


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
) -> None:
    """Run the repro-worker accept loop until a coordinator says shutdown.

    One coordinator is served at a time (the engine holds one connection
    per worker); a disconnect returns to ``accept``, so workers survive
    coordinator restarts and repeated batches.
    """
    listener = socket.create_server((host, port))
    bound_port = listener.getsockname()[1]
    if port_file:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(str(bound_port))
    logger.info("repro-worker pid %d listening on %s:%d", os.getpid(), host, bound_port)
    try:
        while True:
            conn, peer = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _WorkerSession(conn, f"{peer[0]}:{peer[1]}")
            logger.info("coordinator connected from %s", session.peer)
            if session.serve():
                logger.info("shutdown requested; exiting")
                return
    finally:
        listener.close()


def fork_worker(inherited: Sequence[socket.socket]) -> Tuple[int, socket.socket]:
    """Fork one local worker serving the protocol over a socket pair.

    Returns the child's pid and the coordinator's end of the pair.  The
    child closes ``inherited`` -- the coordinator ends of the workers
    forked before it -- so each worker sees EOF, and exits, once the
    coordinator's end of its own pair closes, even when the coordinator is
    killed.  Forking (not spawning) hands the child the coordinator's
    loaded modules and its already-checked kernel backend.  Tests replace
    this function to simulate a platform that cannot fork.
    """
    coordinator_end, worker_end = socket.socketpair()
    try:
        pid = os.fork()
    except BaseException:
        coordinator_end.close()
        worker_end.close()
        raise
    if pid == 0:  # pragma: no cover - the child never returns
        status = 1
        try:
            # detach, then close: close() alone leaves a socket's fd open
            # while a makefile() reader still refers to it
            for sock in (coordinator_end, *inherited):
                os.close(sock.detach())
            # signals end this process, not the coordinator's event loop,
            # and chunks record into their own sinks, not a forking job's
            signal.set_wakeup_fd(-1)
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, signal.SIG_DFL)
            set_thread_telemetry(None)
            _WorkerSession(worker_end, "coordinator").serve()
            status = 0
        except BaseException:
            logger.exception("local worker %d failed", os.getpid())
        finally:
            os._exit(status)
    worker_end.close()
    return pid, coordinator_end


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-worker`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Long-lived sweep worker: serves plan-ordered scheme chunks to a "
            "repro coordinator over the socket transport."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log connections and installs"
    )
    options = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if options.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        serve_worker(options.host, options.port, options.port_file)
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# Coordinator side: the socket transport
# ----------------------------------------------------------------------


class _RemoteWorker:
    """Coordinator-side handle for one connected worker.

    A host worker has a telemetry ``key`` (its address); a local worker has
    none and is identified by its pid, which ``child`` holds until the
    process is reaped.
    """

    def __init__(
        self, address: str, sock: socket.socket, child: Optional[int] = None
    ):
        self.address = address
        self.key = None if child is not None else _host_key(address)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.alive = True
        self.pid: Optional[int] = None
        self.child = child
        # chunk_id -> (kind, scheme names, args, with_telemetry)
        self.outstanding: Dict[int, Tuple[str, List[str], dict, bool]] = {}
        self.lock = threading.Lock()

    def send(self, message: dict, blob: bytes = b"") -> int:
        with self.lock:
            return _send_message(self.sock, message, blob)

    def close(self) -> None:
        """Sever the connection (idempotent, callable from the engine thread).

        Shuts down and closes the *socket*: a blocked reader thread wakes
        with EOF and exits.  The buffered ``rfile`` must not be closed
        here -- closing it races the reader's blocking read and can
        deadlock on the buffer lock; :meth:`release_rfile` does it once
        the reader is gone.  A local worker's process is then killed and
        reaped: an idle one would exit on the EOF anyway, and one that is
        mid-chunk or hung has been given up.
        """
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        if self.child is not None:
            try:
                os.kill(self.child, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.reap(block=True)

    def reap(self, block: bool = False) -> bool:
        """Reap a local worker's process; True once it has ended."""
        if self.child is None:
            return True
        try:
            pid, _status = os.waitpid(self.child, 0 if block else os.WNOHANG)
        except ChildProcessError:  # reaped elsewhere
            pid = self.child
        if pid:
            self.child = None
        return bool(pid)

    def release_rfile(self) -> None:
        """Close the read buffer; call only with no reader thread running."""
        try:
            self.rfile.close()
        except OSError:
            pass


class SocketTransport:
    """Drive workers over sockets with re-steal fault tolerance.

    Bound to one exact trace suite (``key``, the tuple of content
    fingerprints its workers hold).  Forks ``jobs`` local workers, or
    connects to every one of ``hosts``; installs the suite in each (hosts
    after a cache probe: file paths and ``.rtrace`` image bytes), then
    serves the engine's stealing loop:

    * :meth:`submit` hands one chunk to the least-loaded live worker,
      re-dispatching a dead or hung worker's outstanding chunks to the
      survivors, so a submitted chunk completes exactly once or the
      transport raises -- the engine's serial fallback owns total-failure
      correctness;
    * :meth:`next_completed` blocks until at least one chunk finishes and
      returns them in completion order;
    * :meth:`capacity` is how many chunks may be in flight at once.

    One reader thread per worker funnels replies into a single completion
    queue; all scheduling state -- outstanding chunks, re-steals,
    telemetry -- is mutated only on the engine thread, inside
    :meth:`submit` and :meth:`next_completed`.
    """

    def __init__(
        self,
        traces: Sequence[SharingTrace],
        key: Tuple[str, ...],
        hosts: Sequence[str] = (),
        jobs: int = 0,
        chunk_timeout: Optional[float] = None,
    ):
        self.key = key
        self.hosts = parse_hosts(hosts)
        if chunk_timeout is None:
            raw = os.environ.get("REPRO_REMOTE_TIMEOUT")
            chunk_timeout = float(raw) if raw else DEFAULT_CHUNK_TIMEOUT
        self.chunk_timeout = chunk_timeout
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._telemetry = Telemetry()
        self._workers: List[_RemoteWorker] = []
        self._readers: List[threading.Thread] = []
        # resolved (the native library compiled and self-checked) before
        # any fork, so local workers inherit it
        kernel = resolve_kernel_backend().name
        launch = self._connect if self.hosts else self._fork
        try:
            for target in self.hosts or range(jobs):
                try:
                    self._workers.append(launch(target))
                except (OSError, ValueError, RuntimeError) as error:
                    self._unavailable(target, error)
            self._handshake()
            self._install(kernel, traces)
            if not self._workers:
                raise RuntimeError(
                    f"no worker reachable among {list(self.hosts)}"
                    if self.hosts
                    else f"no local worker among {jobs} started"
                )
        except BaseException:
            self.close()
            raise
        for worker in self._workers:
            thread = threading.Thread(
                target=self._reader, args=(worker,), daemon=True,
                name=f"repro-remote-{worker.address}",
            )
            thread.start()
            self._readers.append(thread)
        self._telemetry.gauge("engine.remote.workers", len(self._workers))

    # -- setup ---------------------------------------------------------
    #
    # Every worker is started first; then each setup step asks all of
    # them before reading any reply, so workers answer -- check and hold
    # an installed suite -- concurrently rather than one after another.

    def _connect(self, address: str) -> _RemoteWorker:
        host, port = address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _RemoteWorker(address, sock)

    def _fork(self, _index: int) -> _RemoteWorker:
        # the launch seam is looked up at call time, so tests can replace it
        pid, sock = fork_worker([worker.sock for worker in self._workers])
        return _RemoteWorker(f"pid {pid}", sock, child=pid)

    def _unavailable(self, target, error: BaseException) -> None:
        logger.warning("worker %s unavailable: %s", target, error)
        self._telemetry.count("engine.remote.connect_failures")

    def _drop(self, worker: _RemoteWorker, error: BaseException) -> None:
        """Give up on a worker during setup."""
        self._workers.remove(worker)
        worker.close()
        self._unavailable(worker.address, error)

    def _round(
        self,
        workers: Sequence[_RemoteWorker],
        message: dict,
        blob: bytes = b"",
        timeout: float = 60.0,
    ) -> List[Tuple[_RemoteWorker, dict, int]]:
        """Send ``message`` to every worker, then read each one's reply.

        Returns ``(worker, reply, bytes sent)`` for each worker that
        answered; one whose exchange failed is dropped.
        """
        sent = []
        for worker in list(workers):  # a copy: dropping edits self._workers
            try:
                sent.append((worker, worker.send(message, blob)))
            except OSError as error:
                self._drop(worker, error)
        replies = []
        for worker, nbytes in sent:
            try:
                replies.append((worker, self._read_reply(worker, timeout), nbytes))
            except (OSError, ValueError) as error:
                self._drop(worker, error)
        return replies

    def _handshake(self) -> None:
        hello = {"op": "hello", "schema": WIRE_SCHEMA}
        for worker, reply, _sent in self._round(self._workers, hello, timeout=10.0):
            if not reply.get("ok") or int(reply.get("schema", -1)) != WIRE_SCHEMA:
                self._drop(
                    worker,
                    RuntimeError(f"handshake failed (schema {reply.get('schema')})"),
                )
                continue
            worker.pid = reply.get("pid")

    def _install(self, kernel: str, traces: Sequence[SharingTrace]) -> None:
        """Install the trace suite in every worker, cheapest form first.

        A zero-byte ``cached`` probe against each host's fingerprint-keyed
        suite cache (a freshly forked local worker has none); then
        file-backed traces by path and every other trace's image in the
        blob; and, to a worker that refuses (it cannot open a path, say),
        every trace as image bytes -- a file's image is its bytes, so
        nothing is materialized.
        """
        key = list(self.key)
        pending = list(self._workers)
        if key and self.hosts:
            probe = {"op": "install", "mode": "cached", "kernel": kernel, "key": key}
            pending = []
            for worker, reply, sent in self._round(self._workers, probe):
                if reply.get("ok"):
                    self._telemetry.count("engine.remote.trace_cache.hits")
                    self._telemetry.count("engine.remote.bytes_shipped", sent)
                else:
                    self._telemetry.count("engine.remote.trace_cache.misses")
                    pending.append(worker)
        if not pending:
            return
        refs = trace_refs(traces, self.key)
        refused = self._install_refs(pending, kernel, key, refs)
        if refused and any("path" in ref for ref in refs):
            from repro.trace.interchange import trace_image

            for worker, error in refused:
                logger.info(
                    "worker %s cannot open trace files (%s); shipping images",
                    worker.address,
                    error,
                )
            refs = [
                {"fingerprint": ref["fingerprint"], "image": trace_image(trace)}
                if "path" in ref
                else ref
                for ref, trace in zip(refs, traces)
            ]
            refused = self._install_refs(
                [worker for worker, _error in refused], kernel, key, refs
            )
        for worker, error in refused:
            self._drop(worker, RuntimeError(f"rejected traces: {error}"))

    def _install_refs(
        self, workers, kernel: str, key: List[str], refs: List[dict]
    ) -> List[Tuple[_RemoteWorker, str]]:
        """One ``refs`` install round (paths inline, images in the blob).

        Returns the workers that refused it, each with its error.
        """
        entries = [
            {"fingerprint": ref["fingerprint"], "path": ref["path"]}
            if "path" in ref
            else {"fingerprint": ref["fingerprint"], "nbytes": len(ref["image"])}
            for ref in refs
        ]
        blob = b"".join(ref["image"] for ref in refs if "image" in ref)
        message = {
            "op": "install",
            "mode": "refs",
            "kernel": kernel,
            "key": key,
            "traces": entries,
            "nbytes": len(blob),
        }
        refused = []
        for worker, reply, sent in self._round(workers, message, blob):
            self._telemetry.count("engine.remote.bytes_shipped", sent)
            if not reply.get("ok"):
                refused.append((worker, reply.get("error")))
                continue
            if any("path" in ref for ref in refs):
                self._telemetry.count("engine.remote.file_installs")
            if any("image" in ref for ref in refs):
                self._telemetry.count("engine.remote.bulk_installs")
        return refused

    def _read_reply(self, worker: _RemoteWorker, timeout: float = 60.0) -> dict:
        """Synchronous reply read, used only before the reader threads start."""
        worker.sock.settimeout(timeout)
        try:
            reply = _read_message(worker.rfile)
        finally:
            worker.sock.settimeout(None)
        if reply is None:
            raise ConnectionError(f"worker {worker.address} closed the connection")
        return reply

    # -- reader threads ------------------------------------------------

    def _reader(self, worker: _RemoteWorker) -> None:
        """Funnel one worker's replies into the completion queue.

        Reads block with no socket timeout: a single timed-out read would
        poison the buffered reader (CPython raises "cannot read from
        timed out object" on every read after one timeout), so hang
        detection lives in :meth:`next_completed`, which scans dispatch
        timestamps and closes the socket to wake this thread.  Only this
        thread reads the socket, so reply order is the worker's send
        order and a worker can never deliver a chunk twice.
        """
        while worker.alive:
            try:
                reply = _read_message(worker.rfile)
            except (ConnectionError, OSError, ValueError) as error:
                if worker.alive:
                    self._events.put(("dead", worker, str(error)))
                return
            if reply is None:
                if worker.alive:
                    self._events.put(("dead", worker, "connection closed"))
                return
            self._events.put(("reply", worker, reply))

    # -- the engine's surface ------------------------------------------

    @property
    def workers(self) -> int:
        """Live worker count (workers may be lost mid-batch)."""
        return sum(1 for worker in self._workers if worker.alive)

    def capacity(self) -> int:
        return max(1, self.workers) * INFLIGHT_PER_WORKER

    def _live(self) -> List[_RemoteWorker]:
        return [worker for worker in self._workers if worker.alive]

    def submit(
        self,
        chunk_id: int,
        kind: str,
        schemes: Sequence[Scheme],
        args: dict,
        with_telemetry: bool,
    ) -> None:
        """Dispatch one chunk; never blocks on chunk execution."""
        names = [scheme.full_name for scheme in schemes]
        self._dispatch(chunk_id, (kind, names, args, with_telemetry))

    def _dispatch(self, chunk_id: int, spec: tuple) -> None:
        """Send one chunk to the least-loaded live worker (retrying on death)."""
        kind, names, args, with_telemetry = spec
        while True:
            live = self._live()
            if not live:
                raise RuntimeError("all workers are gone")
            worker = min(live, key=lambda candidate: len(candidate.outstanding))
            message = {
                "op": "chunk",
                "id": chunk_id,
                "kind": kind,
                "schemes": names,
                "args": args,
                "telemetry": with_telemetry,
                # a local worker records under engine.parallel.worker.<pid>
                "prefix": f"engine.remote.worker.{worker.key}" if worker.key else None,
            }
            with worker.lock:
                worker.outstanding[chunk_id] = (spec, time.monotonic())
            try:
                sent = worker.send(message)
            except (ConnectionError, OSError) as error:
                # un-register this chunk first so _mark_dead's re-steal of the
                # worker's *other* chunks cannot double-dispatch it; the outer
                # loop retries it on a surviving worker.
                with worker.lock:
                    worker.outstanding.pop(chunk_id, None)
                self._mark_dead(worker, f"send failed: {error}", resteal=True)
                continue
            self._telemetry.count("engine.remote.bytes_shipped", sent)
            if worker.key:
                self._telemetry.count(f"engine.remote.host.{worker.key}.chunks")
            return

    def _mark_dead(self, worker: _RemoteWorker, reason: str, resteal: bool) -> None:
        """Drop a worker and (optionally) re-dispatch everything it owed.

        Closing the socket *before* re-stealing guarantees a late reply
        from this worker can never be delivered, so each chunk completes
        exactly once no matter how the worker failed.
        """
        if not worker.alive:
            return
        logger.warning("worker %s lost (%s)", worker.address, reason)
        worker.close()
        with worker.lock:
            orphans = dict(worker.outstanding)
            worker.outstanding.clear()
        self._telemetry.count("engine.remote.worker_deaths")
        if not resteal or not orphans:
            return
        self._telemetry.count("engine.remote.resteals", len(orphans))
        if worker.key:
            self._telemetry.count(
                f"engine.remote.host.{worker.key}.resteals", len(orphans)
            )
        for chunk_id, (spec, _dispatched) in orphans.items():
            self._dispatch(chunk_id, spec)

    def next_completed(self) -> List[ChunkResult]:
        completed: List[ChunkResult] = []
        poll = min(1.0, self.chunk_timeout / 4.0)
        while not completed:
            try:
                kind, worker, payload = self._events.get(timeout=poll)
            except queue.Empty:
                self._reap_overdue()
                continue
            while True:
                if kind == "dead":
                    self._mark_dead(worker, payload, resteal=True)
                elif worker.alive:  # replies from a closed worker are stale
                    completed.extend(self._handle_reply(worker, payload))
                try:
                    kind, worker, payload = self._events.get_nowait()
                except queue.Empty:
                    break
        return completed

    def _reap_overdue(self) -> None:
        """Kill workers holding a chunk past its dispatch deadline.

        The deadline is measured per chunk from its own dispatch time, so
        a chunk freshly re-stolen onto a busy worker never counts against
        it.  Runs on the engine thread between completions; closing the
        socket here wakes the worker's reader thread with an error it
        ignores (``worker.alive`` is already false), and the orphaned
        chunks are re-dispatched before we resume waiting.
        """
        now = time.monotonic()
        for worker in self._live():
            with worker.lock:
                overdue = any(
                    now - dispatched > self.chunk_timeout
                    for _spec, dispatched in worker.outstanding.values()
                )
            if overdue:
                self._mark_dead(worker, "chunk deadline exceeded", resteal=True)

    def _handle_reply(self, worker: _RemoteWorker, reply: dict) -> List[ChunkResult]:
        chunk_id = reply.get("id")
        with worker.lock:
            known = worker.outstanding.pop(chunk_id, None)
        if not reply.get("ok"):
            raise RuntimeError(
                f"worker {worker.address} failed chunk {chunk_id}: "
                f"{reply.get('error')}"
            )
        if known is None:  # stale or duplicate id: drop, never double-complete
            logger.warning(
                "worker %s sent unknown chunk id %r; ignoring", worker.address, chunk_id
            )
            return []
        return [
            ChunkResult(
                chunk_id=chunk_id,
                payloads=reply["payloads"],
                elapsed=float(reply["elapsed"]),
                events=int(reply["events"]),
                snapshot=reply.get("snapshot"),
            )
        ]

    def reusable_for(self, key: Tuple[str, ...], workers: int) -> bool:
        """Whether a retained transport can serve a new batch as-is.

        A host fleet serves while any worker lives.  Local workers must
        all be alive: a lost one makes the engine rebuild the transport,
        so a long-lived server never runs on fewer workers than it asked
        for.
        """
        if self.key != key:
            return False
        if self.hosts:
            return self.workers > 0
        for worker in self._live():
            if worker.reap():
                self._mark_dead(worker, "exited", resteal=False)
        return self.workers >= workers

    def on_reuse(self, telemetry) -> None:
        """Count a persistent engine's reuse of this transport."""
        if self.hosts:
            telemetry.count("engine.remote.transport_reuses")
        else:
            telemetry.count("engine.parallel.pool_reuses")

    def record_telemetry(self, telemetry) -> None:
        """Fold (and reset) the transport's counters into the run telemetry."""
        telemetry.gauge("engine.remote.workers", self.workers)
        drained, self._telemetry = self._telemetry, Telemetry()
        telemetry.merge(drained)

    def close(self) -> None:
        """Tear the transport down (idempotent); local workers are reaped."""
        for worker in self._workers:
            worker.close()
        for thread in self._readers:
            thread.join(timeout=5.0)
        for worker in self._workers:
            worker.release_rfile()
        self._readers = []
        self._workers = []


def shutdown_workers(hosts: Sequence[str], timeout: float = 10.0) -> int:
    """Ask each listed repro-worker to exit; returns how many acknowledged."""
    stopped = 0
    for address in parse_hosts(hosts):
        host, port = address.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=timeout) as sock:
                sock.settimeout(timeout)
                _send_message(sock, {"op": "shutdown"})
                reply = _read_message(sock.makefile("rb"))
                if reply and reply.get("ok"):
                    stopped += 1
        except (OSError, ConnectionError, ValueError) as error:
            logger.warning("cannot stop worker %s: %s", address, error)
    return stopped


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(worker_main())


__all__ = [
    "SocketTransport",
    "serve_worker",
    "worker_main",
    "shutdown_workers",
    "parse_hosts",
    "WIRE_SCHEMA",
    "DEFAULT_CHUNK_TIMEOUT",
]
