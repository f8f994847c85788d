"""Compiled per-event predictor loop: the ``native`` kernel backend.

The design-space sweeps of paper Section 5.4 evaluate thousands of schemes
per trace, and after the planner removed the redundant *shared* work
(PR 5), the remaining cost ceiling is the per-event Python interpreter loop
of the PAs and sequential families -- :class:`~repro.core.kernel.PredictorKernel`
driving entry ops one event at a time.  This module compiles that loop: the
embedded C source below is built once with the system C compiler into a
cached shared library and driven via ``ctypes``.

The compiled loop never sees Python objects: predictor keys and block ids
are mapped to dense entry indices, bitmaps travel as bit-packed 64-bit word
rows in the trace's :class:`~repro.util.bitmaps.BitmapLayout` sense, and
confusion counting is fused ``popcount`` arithmetic over those words.
Entry state is flat arrays (:class:`NativeState`): a ring buffer of
feedback words per entry for the bitmap-history family, per-(entry, node)
history registers and 2-bit saturating counters for PAs, and the
FORWARDED pending-predictor slot per block.

The loop is resumable without any change to the C source, because every
piece of cross-event state already lives in those caller-owned arrays.
:class:`NativeKernelStream` keeps them alive between calls, assigns dense
ids that stay stable across chunks (:class:`_DenseIds`: new keys and
blocks get the next ids, kept in a sorted array for lookup), and grows the
state arrays by appending when new ids appear.  Feeding a trace as N
chunks therefore runs exactly the loop iterations one whole-trace call
would, on the same entries.

Semantics are *defined elsewhere*: the pure-Python
:class:`~repro.core.kernel.PredictorKernel` remains the normative oracle,
and this backend refuses to activate until it reproduces the oracle's
prediction stream bit for bit on the probe battery
(:func:`repro.core.kernel_backends.kernel_probe_fingerprint`) -- a build
that fails the self-check leaves the pure-Python backend in charge.  The
full proof is the kernel conformance suite
(``tests/core/test_kernel_conformance.py``), which also feeds every
backend's stream at random chunk cuts.

Build artifacts land in ``REPRO_KERNEL_CACHE`` (default: a per-user
directory under the system temp dir), keyed by a hash of the C source, so
one compile serves every process -- including the parallel engine's
workers -- and editing the kernel source can never load a stale library.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.trace.events import SharingTrace
from repro.util.bitmaps import BitmapLayout, bitmap_layout

logger = logging.getLogger("repro.core.kernel_native")

#: update-mode codes understood by the C loop
_MODE_CODES = {UpdateMode.DIRECT: 0, UpdateMode.FORWARDED: 1, UpdateMode.ORDERED: 2}

#: prediction-function codes understood by the C loop
_FUNC_CODES = {"last": 0, "union": 1, "inter": 2, "overlap": 3, "pas": 4}

#: widest bitmap-history ring the native state layout supports (uint8 ring
#: cursors); deeper schemes fall back to the pure-Python kernel
MAX_NATIVE_WINDOW = 255

#: deepest PAs history the native layout supports (counters are indexed by
#: ``node << depth | history``; 2**12 counters/node is already far past the
#: paper's design space)
MAX_NATIVE_PAS_DEPTH = 12

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define MODE_DIRECT 0
#define MODE_FORWARDED 1
#define MODE_ORDERED 2

#define FUNC_LAST 0
#define FUNC_UNION 1
#define FUNC_INTER 2
#define FUNC_OVERLAP 3
#define FUNC_PAS 4

/* ---- bitmap-history family: ring buffer of feedback word-rows ---- */

static void bitmap_update(uint64_t *hist, uint8_t *ring_len, uint8_t *ring_pos,
                          int64_t entry, int32_t window, int64_t n_words,
                          const uint64_t *feedback)
{
    uint64_t *slot = hist + ((int64_t)entry * window + ring_pos[entry]) * n_words;
    memcpy(slot, feedback, (size_t)n_words * sizeof(uint64_t));
    ring_pos[entry] = (uint8_t)((ring_pos[entry] + 1) % window);
    if (ring_len[entry] < window)
        ring_len[entry] += 1;
}

static void bitmap_predict(const uint64_t *hist, const uint8_t *ring_len,
                           const uint8_t *ring_pos, int64_t entry,
                           int32_t function, int32_t window, int64_t n_words,
                           uint64_t *out)
{
    const uint64_t *base = hist + (int64_t)entry * window * n_words;
    int32_t len = ring_len[entry];
    int64_t w;
    int32_t slot;

    if (function == FUNC_OVERLAP) {
        /* window == 2: predict the newest bitmap only when it overlaps the
           one before it; with a single bitmap stored, predict it. */
        int32_t newest, prev;
        uint64_t overlap = 0;
        if (len == 0) {
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
            return;
        }
        newest = (ring_pos[entry] + window - 1) % window;
        if (len == 1) {
            memcpy(out, base + (int64_t)newest * n_words,
                   (size_t)n_words * sizeof(uint64_t));
            return;
        }
        prev = (ring_pos[entry] + window - 2) % window;
        for (w = 0; w < n_words; w++)
            overlap |= base[(int64_t)newest * n_words + w]
                     & base[(int64_t)prev * n_words + w];
        if (overlap)
            memcpy(out, base + (int64_t)newest * n_words,
                   (size_t)n_words * sizeof(uint64_t));
        else
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
        return;
    }

    if (function == FUNC_INTER) {
        if (len == 0) {
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
            return;
        }
        /* filled slots are always 0..len-1 (writes are sequential until the
           ring wraps, at which point every slot is live) */
        memcpy(out, base, (size_t)n_words * sizeof(uint64_t));
        for (slot = 1; slot < len; slot++)
            for (w = 0; w < n_words; w++)
                out[w] &= base[(int64_t)slot * n_words + w];
        return;
    }

    /* FUNC_LAST / FUNC_UNION: the OR of every stored bitmap (last is
       union at window 1) */
    memset(out, 0, (size_t)n_words * sizeof(uint64_t));
    for (slot = 0; slot < len; slot++)
        for (w = 0; w < n_words; w++)
            out[w] |= base[(int64_t)slot * n_words + w];
}

/* ---- PAs family: per-(entry, node) two-level adaptive state ---- */

static void pas_update(uint32_t *pas_hist, uint8_t *pas_counters, int64_t entry,
                       int64_t num_nodes, int32_t depth, const uint64_t *feedback)
{
    uint32_t *hist = pas_hist + entry * num_nodes;
    uint8_t *counters = pas_counters + entry * (num_nodes << depth);
    uint32_t mask = (uint32_t)((1u << depth) - 1u);
    int64_t node;
    for (node = 0; node < num_nodes; node++) {
        uint32_t history = hist[node];
        int64_t slot = ((int64_t)node << depth) | history;
        if ((feedback[node >> 6] >> (node & 63)) & 1u) {
            if (counters[slot] < 3)
                counters[slot] += 1;
            hist[node] = ((history << 1) | 1u) & mask;
        } else {
            if (counters[slot] > 0)
                counters[slot] -= 1;
            hist[node] = (history << 1) & mask;
        }
    }
}

static void pas_predict(const uint32_t *pas_hist, const uint8_t *pas_counters,
                        int64_t entry, int64_t num_nodes, int32_t depth,
                        int64_t n_words, uint64_t *out)
{
    const uint32_t *hist = pas_hist + entry * num_nodes;
    const uint8_t *counters = pas_counters + entry * (num_nodes << depth);
    int64_t node;
    memset(out, 0, (size_t)n_words * sizeof(uint64_t));
    for (node = 0; node < num_nodes; node++)
        if (counters[((int64_t)node << depth) | hist[node]] >= 2)
            out[node >> 6] |= 1ull << (node & 63);
}

/* ---- the per-event loop: PredictorKernel.run, compiled ---- */

int repro_kernel_run(int64_t n_events, int64_t n_words, int64_t num_nodes,
                     int32_t mode, int32_t function, int32_t window,
                     int32_t depth,
                     const int32_t *entries, const int32_t *blocks,
                     const uint8_t *has_inval,
                     const uint64_t *inval, const uint64_t *truth,
                     uint64_t *bitmap_hist, uint8_t *ring_len, uint8_t *ring_pos,
                     uint32_t *pas_hist, uint8_t *pas_counters,
                     int32_t *pending, uint64_t *pred)
{
    int64_t i;
    int is_pas = (function == FUNC_PAS);
    for (i = 0; i < n_events; i++) {
        int64_t entry = entries[i];
        if (mode == MODE_DIRECT) {
            if (has_inval[i]) {
                if (is_pas)
                    pas_update(pas_hist, pas_counters, entry, num_nodes, depth,
                               inval + i * n_words);
                else
                    bitmap_update(bitmap_hist, ring_len, ring_pos, entry,
                                  window, n_words, inval + i * n_words);
            }
        } else if (mode == MODE_FORWARDED) {
            int32_t block = blocks[i];
            if (has_inval[i]) {
                /* deliver the closed epoch's truth to the entry that
                   predicted it (the pending key for this block) */
                int32_t predictor = pending[block];
                if (predictor < 0)
                    return 1; /* inconsistent trace: inval with no open epoch */
                if (is_pas)
                    pas_update(pas_hist, pas_counters, predictor, num_nodes,
                               depth, inval + i * n_words);
                else
                    bitmap_update(bitmap_hist, ring_len, ring_pos, predictor,
                                  window, n_words, inval + i * n_words);
            }
            pending[block] = (int32_t)entry;
        }
        if (is_pas)
            pas_predict(pas_hist, pas_counters, entry, num_nodes, depth,
                        n_words, pred + i * n_words);
        else
            bitmap_predict(bitmap_hist, ring_len, ring_pos, entry, function,
                           window, n_words, pred + i * n_words);
        if (mode == MODE_ORDERED) {
            if (is_pas)
                pas_update(pas_hist, pas_counters, entry, num_nodes, depth,
                           truth + i * n_words);
            else
                bitmap_update(bitmap_hist, ring_len, ring_pos, entry, window,
                              n_words, truth + i * n_words);
        }
    }
    return 0;
}

/* ---- fused popcount confusion counting over packed word rows ---- */

void repro_kernel_score(int64_t n_events, int64_t n_words,
                        const uint64_t *pred, const uint64_t *truth,
                        const uint64_t *mask_words,
                        const int64_t *writers, int32_t exclude_writer,
                        int64_t *out)
{
    int64_t tp = 0, fp = 0, fn = 0;
    int64_t i, w;
    for (i = 0; i < n_events; i++) {
        const uint64_t *p_row = pred + i * n_words;
        const uint64_t *t_row = truth + i * n_words;
        int64_t writer = writers[i];
        for (w = 0; w < n_words; w++) {
            uint64_t m = mask_words[w];
            uint64_t p = p_row[w] & m;
            uint64_t t = t_row[w];
            if (exclude_writer && (writer >> 6) == w)
                p &= ~(1ull << (writer & 63));
            tp += __builtin_popcountll(p & t);
            fp += __builtin_popcountll(p & ~t & m);
            fn += __builtin_popcountll(~p & t & m);
        }
    }
    out[0] = tp;
    out[1] = fp;
    out[2] = fn;
}
"""

#: compilers tried in order when building the C engine
_COMPILERS = ("cc", "gcc", "clang")


def kernel_cache_dir() -> Path:
    """Where compiled kernel libraries live (override: ``REPRO_KERNEL_CACHE``)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    tag = f"repro-kernel-{os.getuid()}" if hasattr(os, "getuid") else "repro-kernel"
    return Path(tempfile.gettempdir()) / tag


def _source_hash() -> str:
    return hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]


def _compile_library() -> Path:
    """Compile :data:`C_SOURCE` into the cache dir, atomically, once.

    The library file is keyed by the source hash, so a cached build can
    never be stale, and concurrent builders (e.g. spawned workers racing on
    a cold cache) converge via ``os.replace``.
    """
    cache = kernel_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    library = cache / f"libreprokernel-{_source_hash()}.so"
    if library.exists():
        return library
    source = cache / f"reprokernel-{_source_hash()}.c"
    source.write_text(C_SOURCE, encoding="utf-8")
    last_error: Optional[Exception] = None
    for compiler in _COMPILERS:
        scratch = cache / f".build-{os.getpid()}-{compiler}.so"
        command = [
            compiler, "-O2", "-shared", "-fPIC", "-std=c99",
            "-o", str(scratch), str(source),
        ]
        try:
            subprocess.run(
                command, check=True, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as error:
            last_error = error
            continue
        os.replace(scratch, library)
        return library
    raise RuntimeError(f"no working C compiler among {_COMPILERS}: {last_error}")


class _CEngine:
    """ctypes bindings over the compiled library (one instance per process)."""

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(str(_compile_library()))
        self._lib.repro_kernel_run.restype = ctypes.c_int
        self._lib.repro_kernel_score.restype = None

    @staticmethod
    def _ptr(array: np.ndarray, ctype) -> ctypes.POINTER:
        return array.ctypes.data_as(ctypes.POINTER(ctype))

    def run(
        self,
        mode: int,
        function: int,
        window: int,
        depth: int,
        num_nodes: int,
        n_words: int,
        entries: np.ndarray,
        blocks: np.ndarray,
        has_inval: np.ndarray,
        inval: np.ndarray,
        truth: np.ndarray,
        state: "NativeState",
        pred: np.ndarray,
    ) -> int:
        return self._lib.repro_kernel_run(
            ctypes.c_int64(len(entries)),
            ctypes.c_int64(n_words),
            ctypes.c_int64(num_nodes),
            ctypes.c_int32(mode),
            ctypes.c_int32(function),
            ctypes.c_int32(window),
            ctypes.c_int32(depth),
            self._ptr(entries, ctypes.c_int32),
            self._ptr(blocks, ctypes.c_int32),
            self._ptr(has_inval, ctypes.c_uint8),
            self._ptr(inval, ctypes.c_uint64),
            self._ptr(truth, ctypes.c_uint64),
            self._ptr(state.bitmap_hist, ctypes.c_uint64),
            self._ptr(state.ring_len, ctypes.c_uint8),
            self._ptr(state.ring_pos, ctypes.c_uint8),
            self._ptr(state.pas_hist, ctypes.c_uint32),
            self._ptr(state.pas_counters, ctypes.c_uint8),
            self._ptr(state.pending, ctypes.c_int32),
            self._ptr(pred, ctypes.c_uint64),
        )

    def score(
        self,
        pred: np.ndarray,
        truth: np.ndarray,
        mask_words: np.ndarray,
        writers: np.ndarray,
        exclude_writer: bool,
        n_words: int,
    ) -> Tuple[int, int, int]:
        out = np.zeros(3, dtype=np.int64)
        self._lib.repro_kernel_score(
            ctypes.c_int64(len(writers)),
            ctypes.c_int64(n_words),
            self._ptr(pred, ctypes.c_uint64),
            self._ptr(truth, ctypes.c_uint64),
            self._ptr(mask_words, ctypes.c_uint64),
            self._ptr(writers, ctypes.c_int64),
            ctypes.c_int32(1 if exclude_writer else 0),
            self._ptr(out, ctypes.c_int64),
        )
        return int(out[0]), int(out[1]), int(out[2])


class NativeState:
    """Flat per-stream predictor state, allocated numpy-side.

    One instance per (scheme, trace) stream -- predictor tables never carry
    over between traces.  Arrays start empty and :meth:`grow` appends fresh
    entries (and blocks) as a stream meets new ids, so existing state never
    moves.  The family the stream does not run keeps zero-length arrays
    (the C side only dereferences the family it was asked to run).
    """

    __slots__ = ("bitmap_hist", "ring_len", "ring_pos", "pas_hist",
                 "pas_counters", "pending", "_per_entry", "_entries")

    def __init__(
        self, is_pas: bool, window: int, depth: int, num_nodes: int, n_words: int
    ) -> None:
        # (attribute, dtype, values per entry, initial value); PAs counters
        # start weakly-not-shared (twolevel._COUNTER_INIT)
        if is_pas:
            self._per_entry = (
                ("pas_hist", np.uint32, num_nodes, 0),
                ("pas_counters", np.uint8, num_nodes << depth, 1),
            )
        else:
            self._per_entry = (
                ("bitmap_hist", np.uint64, window * n_words, 0),
                ("ring_len", np.uint8, 1, 0),
                ("ring_pos", np.uint8, 1, 0),
            )
        self.bitmap_hist = np.zeros(0, dtype=np.uint64)
        self.ring_len = np.zeros(0, dtype=np.uint8)
        self.ring_pos = np.zeros(0, dtype=np.uint8)
        self.pas_hist = np.zeros(0, dtype=np.uint32)
        self.pas_counters = np.zeros(0, dtype=np.uint8)
        self.pending = np.zeros(0, dtype=np.int32)
        self._entries = 0

    def grow(self, n_entries: int, n_blocks: int) -> None:
        """Append initial state for entries and blocks not yet allocated."""
        added = n_entries - self._entries
        if added > 0:
            for attribute, dtype, size, initial in self._per_entry:
                fresh = np.full(added * size, initial, dtype=dtype)
                setattr(self, attribute, _append(getattr(self, attribute), fresh))
            self._entries = n_entries
        added = n_blocks - len(self.pending)
        if added > 0:
            # -1: no epoch of this block has predicted yet
            self.pending = _append(self.pending, np.full(added, -1, dtype=np.int32))


def _append(array: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``array`` extended by ``fresh`` (no copy when ``array`` is empty)."""
    return np.concatenate([array, fresh]) if len(array) else fresh


class _DenseIds:
    """Dense int32 ids for int64 values, stable across chunks.

    Ids are handed out in order of first appearance, per chunk in sorted
    value order, so a one-chunk stream numbers values exactly as
    ``np.unique(..., return_inverse=True)`` would.  Known values live in a
    sorted array that each chunk's new values are merged into.
    """

    __slots__ = ("_values", "_ids")

    def __init__(self) -> None:
        self._values = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self._values)

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """The id of every value, assigning fresh ids to unseen ones."""
        unique, inverse = np.unique(
            np.asarray(values, dtype=np.int64), return_inverse=True
        )
        inverse = inverse.reshape(-1)
        if not len(self):
            # first chunk: the ids are the sorted ranks np.unique assigns
            self._values = unique
            self._ids = np.arange(len(unique), dtype=np.int32)
            return inverse.astype(np.int32)
        at = np.searchsorted(self._values, unique)
        known = at < len(self._values)
        known[known] = self._values[at[known]] == unique[known]
        ids = np.empty(len(unique), dtype=np.int32)
        ids[known] = self._ids[at[known]]
        fresh = ~known
        count = int(fresh.sum())
        if count:
            ids[fresh] = np.arange(len(self), len(self) + count, dtype=np.int32)
            self._values = np.insert(self._values, at[fresh], unique[fresh])
            self._ids = np.insert(self._ids, at[fresh], ids[fresh])
        return ids[inverse]


def _to_word_rows(column: np.ndarray, layout: BitmapLayout) -> np.ndarray:
    """A bitmap column as an aligned, C-contiguous ``(events, n_words)``
    uint64 array (columns read from an ``.rtrace`` image may be unaligned)."""
    if not layout.packed:
        column = column.reshape(-1, 1)
    return np.require(column, dtype=np.uint64, requirements="CA")


def _from_word_rows(words: np.ndarray, layout: BitmapLayout) -> np.ndarray:
    """Word rows back into the layout's canonical column representation."""
    if layout.packed:
        return words
    return words.reshape(-1).astype(layout.dtype)


def _window(scheme: Scheme) -> int:
    return 2 if scheme.function == "overlap" else scheme.depth


class NativeKernelStream:
    """One scheme's compiled-loop state over one trace, fed chunk by chunk.

    ``chunk`` is anything with the trace column surface (a
    :class:`~repro.trace.source.TraceChunk` or a whole ``SharingTrace``);
    ``keys`` is its :func:`~repro.core.vectorized.compute_keys` stream.
    """

    __slots__ = ("_engine", "_layout", "_num_nodes", "_mode", "_function",
                 "_window", "_depth", "_keys", "_blocks", "_state")

    def __init__(self, engine: _CEngine, scheme: Scheme, num_nodes: int) -> None:
        self._engine = engine
        self._layout = bitmap_layout(num_nodes)
        self._num_nodes = num_nodes
        self._mode = _MODE_CODES[scheme.update]
        self._function = _FUNC_CODES[scheme.function]
        self._window = _window(scheme)
        self._depth = scheme.depth
        self._keys = _DenseIds()
        self._blocks = _DenseIds()
        self._state = NativeState(
            scheme.function == "pas", self._window, scheme.depth, num_nodes,
            self._layout.n_words,
        )

    def _run(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Drive the compiled loop over one chunk; returns prediction word rows."""
        layout = self._layout
        entries = self._keys.lookup(keys)
        blocks = self._blocks.lookup(chunk.block)
        self._state.grow(len(self._keys), len(self._blocks))
        pred = np.zeros((len(entries), layout.n_words), dtype=np.uint64)
        status = self._engine.run(
            self._mode,
            self._function,
            self._window,
            self._depth,
            self._num_nodes,
            layout.n_words,
            entries,
            blocks,
            np.ascontiguousarray(chunk.has_inval, dtype=np.uint8),
            _to_word_rows(chunk.inval, layout),
            _to_word_rows(chunk.truth, layout),
            self._state,
            pred,
        )
        if status != 0:
            raise ValueError(
                "native kernel: has_inval set on an event whose block has no "
                "open epoch (inconsistent trace)"
            )
        return pred

    def feed(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Raw (unmasked) predictions for the chunk, in the trace's layout."""
        if len(chunk) == 0:
            return self._layout.zeros(0)
        return _from_word_rows(self._run(chunk, keys), self._layout)

    def evaluate(
        self, chunk, keys: np.ndarray, exclude_writer: bool
    ) -> Tuple[int, int, int, int]:
        """Fused predict + popcount confusion counting, all compiled.

        Returns the chunk's ``(tp, fp, fn, tn)`` quad -- bit-identical to
        masking :meth:`feed` and scoring it on the shared numpy path,
        enforced by the conformance suite.
        """
        if len(chunk) == 0:
            return 0, 0, 0, 0
        layout = self._layout
        pred = self._run(chunk, keys)
        tp, fp, fn = self._engine.score(
            pred,
            _to_word_rows(chunk.truth, layout),
            np.ascontiguousarray(layout.mask_words, dtype=np.uint64),
            np.require(chunk.writer, dtype=np.int64, requirements="CA"),
            exclude_writer,
            layout.n_words,
        )
        total = len(chunk) * self._num_nodes
        return tp, fp, fn, total - tp - fp - fn


class NativeKernelBackend:
    """The compiled kernel backend (registry name: ``native``).

    Covers the PAs and bitmap-history families at every machine width and
    all three update modes; arbitrary :class:`~repro.core.functions
    .PredictionFunction` objects (the confidence-gated extensions) are
    declined via :meth:`supports`, which the registry resolves as a
    per-scheme fall-through to the pure-Python backend.
    """

    name = "native"

    def __init__(self) -> None:
        self._engine: Optional[_CEngine] = None
        self._checked = False

    def available(self) -> bool:
        """Build the C library and gate it behind the oracle self-check.

        The result is cached for the process lifetime.
        """
        if self._checked:
            return self._engine is not None
        self._checked = True
        from repro.core.kernel_backends import kernel_selfcheck

        try:
            self._engine = _CEngine()
        except (OSError, RuntimeError) as error:
            logger.warning(
                "C kernel engine unavailable (%s: %s)", type(error).__name__, error
            )
            return False
        try:
            if kernel_selfcheck(self):
                logger.debug("native kernel passed the oracle self-check")
                return True
            logger.warning("native kernel failed the oracle self-check; skipping")
        except Exception as error:  # noqa: BLE001 - any engine failure skips it
            logger.warning(
                "native kernel raised during self-check (%s: %s); skipping",
                type(error).__name__, error,
            )
        self._engine = None
        return False

    def supports(self, scheme: Scheme) -> bool:
        function = scheme.function
        if function == "pas":
            return scheme.depth <= MAX_NATIVE_PAS_DEPTH
        if function in ("last", "union", "inter", "overlap"):
            return _window(scheme) <= MAX_NATIVE_WINDOW
        return False

    def stream(self, scheme: Scheme, num_nodes: int) -> NativeKernelStream:
        """Fresh resumable state for one (scheme, trace) run."""
        if self._engine is None and not self.available():
            raise RuntimeError(
                "native kernel backend is unavailable on this machine; "
                "route through repro.core.kernel_backends.kernel_stream, "
                "which falls back to the pure-Python backend"
            )
        return NativeKernelStream(self._engine, scheme, num_nodes)

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
        """The fused ``(tp, fp, fn, tn)`` quad: one whole-trace chunk."""
        return self.stream(scheme, trace.num_nodes).evaluate(
            trace, keys, exclude_writer
        )
