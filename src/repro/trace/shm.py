"""Shared-memory trace transport: publish an image once, map it everywhere.

The parallel engine's unit of work is tiny (a scheme description) but its
working set is not: every worker needs the full benchmark trace suite.
Rather than copy the suite into every worker, the coordinator publishes
each trace's ``.rtrace`` image (:func:`repro.trace.interchange.trace_image`)
once and hands workers a few dozen bytes per trace:

* :func:`publish_traces` copies each image into a
  ``multiprocessing.shared_memory`` segment and returns pickle-flat
  descriptors, ``{"fingerprint", "segment", "nbytes"}`` dicts;
* :func:`attach_trace` maps a segment in a worker and reads it as an
  :class:`~repro.trace.interchange.ImageTraceSource` -- checked once
  (segment CRCs, the recomputed content fingerprint, the descriptor's
  fingerprint), then served as **zero-copy** chunk views of the shared
  buffer;
* the publisher owns the segment's lifetime: :meth:`PublishedTraces.close`
  unlinks every segment after the worker pool has drained.

Shared memory is an optimization, never a requirement.  :func:`shm_enabled`
gates it behind the ``REPRO_SHM`` environment variable (``REPRO_SHM=0``
sends workers the image bytes themselves), and any ``OSError`` while
publishing (no ``/dev/shm``, exhausted segment quota, sandboxed platform)
is reported to the caller so it can send the bytes instead -- both read
the same image, so they are bit-identical by construction, and both are
exercised against the golden fixtures in ``tests/golden``.

Telemetry: the publisher records ``shm.publishes``, ``shm.bytes_published``
and ``shm.unlinks``; transport selection records ``shm.fallbacks`` at the
call site that degrades.
"""

from __future__ import annotations

import os
from typing import Iterable, List

from repro.telemetry import get_telemetry

try:  # pragma: no cover - present on every supported CPython
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic minimal builds
    _shared_memory = None


def shm_available() -> bool:
    """True when the interpreter ships ``multiprocessing.shared_memory``."""
    return _shared_memory is not None


def shm_enabled() -> bool:
    """Whether the shared-memory transport is switched on.

    Controlled by ``REPRO_SHM``: unset or truthy means on, any of
    ``0/false/off/no`` (case-insensitive) means off.  Availability of the
    underlying primitive is checked separately (:func:`shm_available`).
    """
    raw = os.environ.get("REPRO_SHM", "").strip().lower()
    if raw in ("0", "false", "off", "no"):
        return False
    return True


class PublishedTraces:
    """Owner of the shared segments backing one batch's trace suite."""

    def __init__(self) -> None:
        self.descriptors: List[dict] = []
        self._segments: List["_shared_memory.SharedMemory"] = []
        self._closed = False

    def close(self) -> None:
        """Close and unlink every segment (idempotent).

        Call only after the consuming worker pool has shut down; on POSIX
        an unlink while workers still hold mappings is also safe (the
        segment disappears when the last mapping closes).
        """
        if self._closed:
            return
        self._closed = True
        telemetry = get_telemetry()
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
                telemetry.count("shm.unlinks")
            except (FileNotFoundError, OSError):  # already reclaimed
                pass
        self._segments.clear()

    def __enter__(self) -> "PublishedTraces":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def publish_traces(refs: Iterable[dict]) -> PublishedTraces:
    """Copy each image into a shared segment of its own.

    ``refs`` are install refs: an image ref (``{"fingerprint", "image"}``)
    is published and described by ``{"fingerprint", "segment", "nbytes"}``;
    any other ref is its own descriptor.  The returned
    :class:`PublishedTraces` carries one descriptor per ref, in order.
    Refs are taken one at a time, so a generator that encodes images as it
    yields them keeps one image resident.  The caller owns cleanup via
    :meth:`PublishedTraces.close`.

    Raises:
        RuntimeError: shared memory is unavailable on this interpreter.
        OSError: the platform refused a segment (no ``/dev/shm``, quota) --
            callers should send the image bytes instead.
    """
    if _shared_memory is None:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    telemetry = get_telemetry()
    published = PublishedTraces()
    try:
        for ref in refs:
            if "image" not in ref:
                published.descriptors.append(ref)
                continue
            image = ref["image"]
            segment = _shared_memory.SharedMemory(create=True, size=max(1, len(image)))
            published._segments.append(segment)
            segment.buf[: len(image)] = image
            published.descriptors.append(
                {
                    "fingerprint": ref["fingerprint"],
                    "segment": segment.name,
                    "nbytes": len(image),
                }
            )
            telemetry.count("shm.publishes")
            telemetry.count("shm.bytes_published", len(image))
    except BaseException:
        published.close()
        raise
    return published


class AttachedTrace:
    """A worker-side mapping of one published image, read as a source.

    ``source`` is an :class:`~repro.trace.interchange.ImageTraceSource`
    whose chunks alias the shared buffer; keep this object alive for as
    long as they are in use.  Attaching refuses a damaged image
    (:class:`~repro.trace.io.TraceFormatError`) and an image whose
    fingerprint is not the descriptor's (``ValueError``).

    On CPython < 3.13 attaching re-registers the segment with the resource
    tracker; that is harmless here because pool workers share the parent's
    tracker process (registration is idempotent and the publisher's unlink
    clears the one entry), and it doubles as a leak guard if the publisher
    is killed before unlinking.
    """

    def __init__(self, descriptor: dict):
        from repro.trace.interchange import ImageTraceSource

        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._segment = _shared_memory.SharedMemory(name=descriptor["segment"])
        try:
            self.source = ImageTraceSource(self._segment.buf, descriptor["nbytes"])
        except BaseException as error:
            # the traceback's frames hold views of the segment; drop them
            # first, or the mapping cannot close
            error.__traceback__ = None
            self.close()
            raise
        if self.source.fingerprint() != descriptor["fingerprint"]:
            actual = self.source.fingerprint()
            self.close()
            raise ValueError(
                f"shared trace {descriptor['segment']} fingerprint mismatch: "
                f"{actual} != {descriptor['fingerprint']}"
            )

    def close(self) -> None:
        """Drop the source and the mapping (its chunk views become invalid)."""
        self.source = None
        try:
            self._segment.close()
        except (BufferError, OSError):  # views still exported, or closed
            pass


def attach_trace(descriptor: dict) -> AttachedTrace:
    """Map one published image into this process, zero-copy and verified."""
    return AttachedTrace(descriptor)
