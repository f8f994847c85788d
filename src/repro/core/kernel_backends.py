"""Kernel-backend registry: pure-Python oracle vs. compiled fast path.

The per-event predictor loop has exactly one semantic definition --
:class:`~repro.core.kernel.PredictorKernel` -- and more than one
*implementation*.  A kernel backend hands out resumable state at two
grains:

* ``group_stream(schemes, num_nodes)``: every member of one (index group,
  update mode) over one trace.  Its ``evaluate(chunk, keys,
  exclude_writer)`` returns each member's confusion quad for the chunk,
  carrying the predictor tables across calls; ``evaluate_ids(chunk,
  entries, blocks, exclude_writer)`` does the same for keys (and blocks)
  the caller already numbered by first appearance.  This is what
  :func:`repro.core.plan.evaluate_plan` runs.
* ``stream(scheme, num_nodes)``: one scheme, whose ``feed(chunk, keys)``
  returns the chunk's raw predictions (traffic replay, the probe battery)
  and whose ``evaluate`` returns its quad.

A backend also numbers one whole key stream by first appearance,
``first_appearance_ids(keys)``: the ids ``evaluate_ids`` takes, and the
canonical form of the key partition that lets
:func:`~repro.core.plan.evaluate_plan` find members it already ran.

A resident trace is simply one chunk, so ``predict`` / ``evaluate`` are
one-chunk calls.  The registry decides which implementation a given
evaluation uses, mirroring the evaluation-engine registry in
:mod:`repro.engine`:

* explicit :func:`set_kernel_backend` override (the CLI's ``--kernel``),
* else the ``REPRO_KERNEL`` environment variable,
* else ``auto``: the native backend when a C compiler is present and its
  build passes the oracle self-check, otherwise pure Python.

The contract every backend must honor -- and the conformance suite
(``tests/core/test_kernel_conformance.py``) enforces over every
*registered* backend, so a new backend is covered by registration alone:

* **The pure-Python backend is normative.**  Its predictions define
  correctness; a fast backend must reproduce them bit for bit on every
  trace, cut into chunks anywhere, for any mix of group members -- or
  decline the scheme via ``supports`` and let the registry run that member
  on Python inside the same group (counted under ``kernel.fallbacks``).
* **Degradation is silent-safe.**  Requesting ``native`` on a machine with
  no compiler warns once and runs pure Python -- results cannot change,
  only speed.  Requesting an unregistered name is an error.
* Raw predictions are *unmasked* (writer-bit exclusion is a scoring
  concern) and delivered in the trace's
  :class:`~repro.util.bitmaps.BitmapLayout` representation.
* A backend's numbering equals the normative numpy one,
  :func:`first_appearance_ids`, on every key stream.

Evaluations route through :func:`kernel_group_stream` or
:func:`kernel_stream` (or its one-chunk conveniences
:func:`kernel_predict` / :func:`kernel_evaluate`), which resolve the
backend once per stream and record it under ``kernel.backend.<name>``
telemetry -- including inside parallel-engine workers, whose counters
merge home with the rest of the worker snapshot.  Numbering goes through
the resolved backend too, so a run that resolves to pure Python (by
choice, or because the native build is missing or failed its self-check)
never touches compiled code.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import KernelStream
from repro.core.schemes import Scheme, parse_scheme
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.util.rng import DeterministicRng

logger = logging.getLogger("repro.core.kernel_backends")

#: registry resolution order under ``auto``
_AUTO_ORDER = ("native", "python")

#: the names ``REPRO_KERNEL`` / ``--kernel`` accept besides registered backends
AUTO = "auto"


def score_predictions(
    predictions: np.ndarray, trace: SharingTrace, exclude_writer: bool = True
) -> Tuple[int, int, int, int]:
    """Confusion quad ``(tp, fp, fn, tn)`` for a raw prediction column.

    The one normative scoring definition (popcount over the trace layout's
    words); the native backend's in-loop scorer is held to it by the
    conformance and golden suites.  ``exclude_writer`` masks each event's
    writer bit out of the predictions before counting, matching the
    evaluators' default.
    """
    layout = trace.layout
    if exclude_writer and len(trace):
        predictions = predictions & ~layout.writer_bits(trace.writer)
    full_mask = layout.mask
    truth = trace.truth
    true_positive = int(layout.popcount(predictions & truth).sum())
    false_positive = int(layout.popcount(predictions & ~truth & full_mask).sum())
    false_negative = int(layout.popcount(~predictions & truth & full_mask).sum())
    total = len(trace) * trace.num_nodes
    return (
        true_positive,
        false_positive,
        false_negative,
        total - true_positive - false_positive - false_negative,
    )


def first_appearance_ids(keys: np.ndarray) -> np.ndarray:
    """Dense int32 ids for one whole key stream, by first appearance.

    The first distinct key gets 0, the next new one 1, and so on: the
    canonical form of the partition the keys induce, so two streams split
    the events alike exactly when their ids are equal.  The normative
    numbering, which a backend's own ``first_appearance_ids`` must equal.
    """
    unique, first, inverse = np.unique(
        np.asarray(keys, dtype=np.int64), return_index=True, return_inverse=True
    )
    rank = np.empty(len(unique), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(unique), dtype=np.int32)
    return rank[inverse.reshape(-1)]


class PythonKernelStream:
    """The oracle's resumable state: a :class:`KernelStream` fed by chunk,
    driving the scheme's real
    :class:`~repro.core.functions.PredictionFunction` object, as the
    reference evaluator does."""

    __slots__ = ("_stream",)

    def __init__(self, scheme: Scheme, num_nodes: int) -> None:
        self._stream = KernelStream(scheme.update, scheme.make_function(num_nodes))

    def feed(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Raw (unmasked) predictions for the chunk, in the trace's layout."""
        # drain the generator with list() before packing: np.fromiter
        # stops *at* the n-th yield, which would leave ORDERED mode's
        # post-yield update of the chunk's last event unexecuted -- state
        # the next chunk needs
        values = list(self._stream.feed_chunk(chunk, np.asarray(keys).tolist()))
        return chunk.layout.from_int_iter(values, count=len(chunk))

    def evaluate(
        self, chunk, keys: np.ndarray, exclude_writer: bool
    ) -> Tuple[int, int, int, int]:
        """Predict, then score on the shared numpy path."""
        return score_predictions(self.feed(chunk, keys), chunk, exclude_writer)


class PythonGroupStream:
    """The oracle's group interface: one :class:`PythonKernelStream` per
    member, each scored by :func:`score_predictions`."""

    __slots__ = ("_streams",)

    def __init__(self, schemes: Sequence[Scheme], num_nodes: int) -> None:
        self._streams = [PythonKernelStream(scheme, num_nodes) for scheme in schemes]

    def evaluate(
        self, chunk, keys: np.ndarray, exclude_writer: bool
    ) -> List[Tuple[int, int, int, int]]:
        """The chunk's ``(tp, fp, fn, tn)`` quad for every member, in order."""
        return [stream.evaluate(chunk, keys, exclude_writer) for stream in self._streams]

    def evaluate_ids(
        self, chunk, entries: np.ndarray, blocks, exclude_writer: bool
    ) -> List[Tuple[int, int, int, int]]:
        """:meth:`evaluate` keyed by the caller's entry ids: the oracle's
        tables are keyed by value, so ids split the events as the keys
        did, and it reads raw blocks."""
        return self.evaluate(chunk, entries, exclude_writer)


class PythonKernelBackend:
    """The normative backend: :class:`PredictorKernel` over entry objects.

    Supports every scheme by construction -- this is the implementation
    the others are defined against.
    """

    name = "python"

    def available(self) -> bool:
        return True

    def supports(self, scheme: Scheme) -> bool:
        return True

    def first_appearance_ids(self, keys: np.ndarray) -> np.ndarray:
        """One whole key stream numbered by first appearance (numpy)."""
        return first_appearance_ids(keys)

    def group_stream(
        self, schemes: Sequence[Scheme], num_nodes: int
    ) -> PythonGroupStream:
        """Fresh resumable state for one (index group, update mode, trace)."""
        return PythonGroupStream(schemes, num_nodes)

    def stream(self, scheme: Scheme, num_nodes: int) -> PythonKernelStream:
        """Fresh resumable state for one (scheme, trace) run."""
        return PythonKernelStream(scheme, num_nodes)

    def predict(
        self, scheme: Scheme, trace: SharingTrace, keys: np.ndarray
    ) -> np.ndarray:
        """Raw (unmasked) per-event predictions: one whole-trace chunk."""
        return self.stream(scheme, trace.num_nodes).feed(trace, keys)

    def evaluate(
        self,
        scheme: Scheme,
        trace: SharingTrace,
        keys: np.ndarray,
        exclude_writer: bool,
    ) -> Tuple[int, int, int, int]:
        """The ``(tp, fp, fn, tn)`` quad: one whole-trace chunk."""
        return self.stream(scheme, trace.num_nodes).evaluate(
            trace, keys, exclude_writer
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, object] = {}
_override: Optional[str] = None
_warned_unavailable: set = set()


def register_kernel_backend(backend) -> None:
    """Register a backend instance under ``backend.name``.

    Registration is the *entire* integration surface: the conformance
    suite parametrizes over :func:`kernel_backend_names`, so a newly
    registered backend is differentially tested against the Python oracle
    with no further wiring.
    """
    _REGISTRY[backend.name] = backend


def kernel_backend_names() -> List[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


def get_kernel_backend(name: str):
    """The registered backend instance for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {kernel_backend_names()}"
        ) from None


def set_kernel_backend(name: Optional[str]) -> Optional[str]:
    """Process-wide kernel selection override; returns the previous value.

    ``None`` clears the override (resolution falls back to ``REPRO_KERNEL``
    / ``auto``).  The parallel engine calls this in worker initializers so
    every worker runs the backend the parent resolved.
    """
    global _override
    if name is not None:
        normalized = name.strip().lower()
        if normalized != AUTO:
            get_kernel_backend(normalized)  # validate eagerly
        name = normalized
    previous = _override
    _override = name
    return previous


def resolve_kernel_backend(choice: Optional[str] = None):
    """The backend the next evaluation will use.

    Precedence: explicit ``choice`` > :func:`set_kernel_backend` override >
    ``REPRO_KERNEL`` env var > ``auto``.  ``auto`` picks the first
    *available* backend in preference order (native, then python).  Naming
    an unavailable backend degrades to pure Python with a single warning --
    never an error, never a semantic change.
    """
    name = choice or _override or os.environ.get("REPRO_KERNEL") or AUTO
    name = name.strip().lower()
    if name == AUTO:
        for candidate in _AUTO_ORDER:
            backend = _REGISTRY.get(candidate)
            if backend is not None and backend.available():
                return backend
        return _REGISTRY["python"]
    backend = get_kernel_backend(name)
    if not backend.available():
        if name not in _warned_unavailable:
            _warned_unavailable.add(name)
            logger.warning(
                "kernel backend %r is unavailable on this machine "
                "(no compiler, or its self-check failed); falling back to "
                "the pure-Python kernel -- results are identical, only slower",
                name,
            )
        return _REGISTRY["python"]
    return backend


def active_kernel_name() -> str:
    """The resolved backend's name (what telemetry and the CLI report)."""
    return resolve_kernel_backend().name


# ----------------------------------------------------------------------
# Routed evaluation entry points
# ----------------------------------------------------------------------


def _backend_for(scheme: Scheme):
    """Resolve, then fall through to Python for unsupported schemes."""
    backend = resolve_kernel_backend()
    telemetry = get_telemetry()
    if backend.name != "python" and not backend.supports(scheme):
        if telemetry.enabled:
            telemetry.count("kernel.fallbacks")
        backend = _REGISTRY["python"]
    if telemetry.enabled:
        telemetry.count(f"kernel.backend.{backend.name}")
    return backend


def kernel_stream(scheme: Scheme, num_nodes: int):
    """Resumable per-event state for one (scheme, trace) run.

    Routes once per stream: the active backend if it supports ``scheme``,
    else the pure-Python oracle.  Feed the trace's chunks in order.
    """
    return _backend_for(scheme).stream(scheme, num_nodes)


class _SplitGroupStream:
    """A group whose declined members run on the oracle beside the fast
    backend's group stream; quads come back in member order."""

    __slots__ = ("_parts", "_size")

    def __init__(self, parts, size: int) -> None:
        self._parts = parts
        self._size = size

    def _merge(self, run) -> List[Tuple[int, int, int, int]]:
        quads: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)] * self._size
        for stream, offsets in self._parts:
            for offset, quad in zip(offsets, run(stream)):
                quads[offset] = quad
        return quads

    def evaluate(
        self, chunk, keys: np.ndarray, exclude_writer: bool
    ) -> List[Tuple[int, int, int, int]]:
        return self._merge(lambda stream: stream.evaluate(chunk, keys, exclude_writer))

    def evaluate_ids(
        self, chunk, entries: np.ndarray, blocks, exclude_writer: bool
    ) -> List[Tuple[int, int, int, int]]:
        return self._merge(
            lambda stream: stream.evaluate_ids(chunk, entries, blocks, exclude_writer)
        )


def kernel_group_stream(schemes: Sequence[Scheme], num_nodes: int):
    """Resumable state for one (index group, update mode, trace) run.

    ``schemes`` share one key stream and one update mode.  The active
    backend runs every member it supports in one group stream; each member
    it declines runs on the pure-Python oracle inside the same group,
    counted under ``kernel.fallbacks``.  ``kernel.backend.<name>`` counts
    group streams.  Feed the trace's chunks in order.
    """
    backend = resolve_kernel_backend()
    telemetry = get_telemetry()
    declined = [
        offset for offset, scheme in enumerate(schemes) if not backend.supports(scheme)
    ]
    if not declined:
        if telemetry.enabled:
            telemetry.count(f"kernel.backend.{backend.name}")
        return backend.group_stream(schemes, num_nodes)
    supported = [offset for offset in range(len(schemes)) if offset not in declined]
    parts = []
    for chosen, offsets in ((backend, supported), (_REGISTRY["python"], declined)):
        if offsets:
            stream = chosen.group_stream([schemes[offset] for offset in offsets], num_nodes)
            parts.append((stream, offsets))
            if telemetry.enabled:
                telemetry.count(f"kernel.backend.{chosen.name}")
    if telemetry.enabled:
        telemetry.count("kernel.fallbacks", len(declined))
    return _SplitGroupStream(parts, len(schemes))


def kernel_predict(
    scheme: Scheme, trace: SharingTrace, keys: np.ndarray
) -> np.ndarray:
    """Raw per-event predictions via the active kernel backend."""
    return kernel_stream(scheme, trace.num_nodes).feed(trace, keys)


def kernel_evaluate(
    scheme: Scheme,
    trace: SharingTrace,
    keys: np.ndarray,
    exclude_writer: bool = True,
) -> Tuple[int, int, int, int]:
    """Fused predict-and-score via the active kernel backend.

    Returns the ``(tp, fp, fn, tn)`` quad; bit-identical across backends by
    the registry contract.
    """
    return kernel_stream(scheme, trace.num_nodes).evaluate(trace, keys, exclude_writer)


# ----------------------------------------------------------------------
# Probe battery: the self-check every fast backend must pass
# ----------------------------------------------------------------------

#: schemes the probe battery runs -- all three update modes, the four
#: bitmap functions, PAs, and a confidence-gated scheme
PROBE_SCHEMES: Tuple[str, ...] = (
    "last()1[direct]",
    "last(dir+add4)1[forwarded]",
    "union(pid+add4)3[ordered]",
    "union(dir+add6)2[forwarded]",
    "inter(pid+pc4)2[direct]",
    "inter(add5)3[forwarded]",
    "overlap(dir+add4)1[direct]",
    "overlap(pc3)1[ordered]",
    "pas(pid+add4)2[direct]",
    "pas(pc4)1[forwarded]",
    "pas(dir+add4)3[ordered]",
    "cunion(pid+add4)2[forwarded]",
)


def _probe_trace(num_nodes: int, num_events: int, seed: str) -> SharingTrace:
    """A deterministic structured trace (valid epochs, mixed sharing)."""
    rng = DeterministicRng(seed)
    num_blocks = max(4, num_events // 12)
    epochs = []
    for _ in range(num_events):
        writer = rng.integers(0, num_nodes)
        pc = rng.integers(1, 8)
        block = rng.integers(0, num_blocks)
        home = block % num_nodes
        truth = 0
        for node in range(num_nodes):
            if node != writer and rng.random() < 0.2:
                truth |= 1 << node
        epochs.append((writer, pc, home, block, truth))
    return SharingTrace.from_epochs(num_nodes, epochs, name=f"kernel-probe-{seed}")


#: one mixed-family index group under one update mode: the probe battery
#: runs one-member groups only, and this one shares what only groups share
#: -- the ring at the widest window, the PAs history at the deepest depth
#: (read by a shallower member too) and the per-member confidence counters
PROBE_GROUP: Tuple[str, ...] = (
    "union(pid+add4)3[forwarded]",
    "inter(pid+add4)2[forwarded]",
    "overlap(pid+add4)1[forwarded]",
    "pas(pid+add4)1[forwarded]",
    "pas(pid+add4)3[forwarded]",
    "cunion(pid+add4)2[forwarded]",
    "cinter(pid+add4)2[forwarded]",
)


@functools.lru_cache(maxsize=1)
def probe_traces() -> Tuple[SharingTrace, ...]:
    """The fixed probe traces: a paper-width machine and a packed-wide one
    (built once per process; every self-check step reads them)."""
    return (
        _probe_trace(num_nodes=16, num_events=240, seed="kernel-probe-16"),
        _probe_trace(num_nodes=80, num_events=64, seed="kernel-probe-80"),
    )


def kernel_probe_fingerprint(backend) -> str:
    """A 16-hex-digit digest of ``backend``'s probe prediction streams.

    Hashes the raw per-event prediction bitmaps of every probe scheme over
    every probe trace (schemes the backend declines run on the Python
    oracle, exactly as the routed entry points would).  Two backends agree
    on the fingerprint iff they agree bit for bit on the battery; the
    Python oracle's value is pinned in ``tests/golden/test_golden.py``.
    """
    from repro.core.vectorized import compute_keys

    python = _REGISTRY["python"]
    digest = hashlib.sha256()
    for trace in probe_traces():
        for scheme_text in PROBE_SCHEMES:
            scheme = parse_scheme(scheme_text)
            keys = compute_keys(scheme.index, trace)
            chosen = backend if backend.supports(scheme) else python
            predictions = chosen.predict(scheme, trace, keys)
            stream = ",".join(str(v) for v in trace.layout.to_int_list(predictions))
            record = f"{trace.name}|{scheme_text}|{stream}\n"
            digest.update(record.encode("ascii"))
    return digest.hexdigest()[:16]


def _numbers_probe_keys(backend) -> bool:
    """Does ``backend`` number every probe key stream, and every probe
    trace's blocks, as :func:`first_appearance_ids` does?"""
    from repro.core.vectorized import compute_keys

    for trace in probe_traces():
        streams = [trace.block] + [
            compute_keys(parse_scheme(text).index, trace) for text in PROBE_SCHEMES
        ]
        for keys in streams:
            if not np.array_equal(
                backend.first_appearance_ids(keys), first_appearance_ids(keys)
            ):
                return False
    return True


def _runs_probe_group(backend) -> bool:
    """Does ``backend``'s group stream over :data:`PROBE_GROUP` give every
    member it supports the oracle's one-member quad on each probe trace?"""
    from repro.core.vectorized import compute_keys

    python = _REGISTRY["python"]
    schemes = [
        scheme for scheme in map(parse_scheme, PROBE_GROUP) if backend.supports(scheme)
    ]
    for trace in probe_traces():
        keys = compute_keys(schemes[0].index, trace)
        stream = backend.group_stream(schemes, trace.num_nodes)
        if stream.evaluate(trace, keys, True) != [
            python.evaluate(scheme, trace, keys, True) for scheme in schemes
        ]:
            return False
    return True


def kernel_selfcheck(backend) -> bool:
    """Does ``backend`` reproduce the Python oracle's probe battery exactly,
    run the probe group's members as the oracle runs each alone, and number
    its keys as numpy does?

    This is the gate :meth:`NativeKernelBackend.available` runs before a
    compiled engine is allowed to serve evaluations.
    """
    return (
        kernel_probe_fingerprint(backend)
        == kernel_probe_fingerprint(_REGISTRY["python"])
        and _runs_probe_group(backend)
        and _numbers_probe_keys(backend)
    )


# ----------------------------------------------------------------------
# Default registrations
# ----------------------------------------------------------------------

register_kernel_backend(PythonKernelBackend())

from repro.core.kernel_native import NativeKernelBackend  # noqa: E402

register_kernel_backend(NativeKernelBackend())
