"""Compiled group pass: the ``native`` kernel backend.

The design-space sweeps of paper Section 5.4 evaluate over a thousand
schemes per trace, and every scheme of one index group reads the same key
stream.  This module compiles the per-event loop of
:class:`~repro.core.kernel.PredictorKernel` for a whole group: one call
runs every member of an (index group, update mode) over a chunk of events,
on state shared across the group, and scores each member in the same
loop.  The embedded C source below is built once with the system C
compiler into a cached shared library and driven via ``ctypes``.

The compiled loop never sees Python objects: predictor keys and blocks
are numbered into dense entry indices, and bitmaps travel as bit-packed
64-bit word rows in the trace's :class:`~repro.util.bitmaps.BitmapLayout`
sense.
Entry state is flat arrays (:class:`NativeState`) in that word layout,
shared where the members allow it:

* the bitmap-history members (``last``/``union``/``inter``/``overlap``)
  and the bases of the confidence-gated ``cunion``/``cinter`` share one
  ring of feedback rows per entry, at the group's largest window.  Per
  event the loop builds the OR and the AND of the newest 1..len rows once;
  a member of window *w* reads row ``min(len, w)``, and ``overlap`` reads
  the newest row and the AND of the two newest;
* PAs members share one history per entry at the group's largest depth,
  as bit planes: plane *k* holds every node's history bit *k* (newest
  first).  A member's 2-bit counters are one plane pair per history
  pattern -- the high bits, which predict, and the inverted low bits, so
  zeroed planes hold the counters' initial value 1.  Per word the loop
  splits the nodes, level by level, into the non-empty classes that agree
  on their low history bits (at most min(2^d, 64) at level *d*, shared by
  every member); a member of depth *d* steps, or reads, the plane pair of
  each level-*d* class's pattern with a few bitwise operations;
* each ``cunion``/``cinter`` member keeps one such plane pair of
  confidence counters per word.  A delivery first steps them toward the
  bits where the member's base prediction agreed with the feedback, and
  only then does the ring absorb the feedback -- the order of
  ``_ConfidenceGatedFunction.update``; the member predicts its base where
  the high bit is set;
* the FORWARDED pending-predictor slot per block, one per group.

No loop runs over nodes: an event costs O(words x classes), and a counter
plane pair takes 16 bytes per word -- a byte per node at 16 nodes, a
quarter byte at 64.

Scoring happens in the loop: per member it counts the true positives and
the predicted positives of the prediction masked to the node mask with
the writer bit optionally cleared, and it counts the chunk's truth bits
once.  Then ``fp = predicted - tp``, ``fn = truth - tp`` and
``tn = events * nodes - tp - fp - fn``.  A one-member stream can also
write its raw per-event prediction rows, for traffic replay and the
probe battery.

Ids are assigned by first appearance: the first distinct key gets 0, the
next new one 1, and so on.  A second compiled entry point,
``repro_number_keys``, does it in one hash pass over an open-addressing
table that :class:`KeyNumbering` carries across chunks (the sorted
``np.unique`` / ``searchsorted`` / ``np.insert`` ranking of the former
``_DenseIds`` is gone).  The numbering is the canonical form of the
partition the keys induce, which is what lets
:func:`repro.core.plan.evaluate_plan` find members it already ran;
:meth:`NativeKernelBackend.first_appearance_ids` numbers one whole stream
with it once the backend has passed its self-check, and every other
selection numbers in numpy
(:func:`repro.core.kernel_backends.first_appearance_ids`).

The loop is resumable: every piece of cross-event state lives in the
caller-owned arrays.  :class:`NativeGroupStream` keeps them alive between
calls, numbers keys and blocks with ids that stay stable across chunks
(or takes ids its caller numbered), and grows the state arrays by
appending when new ids appear, so feeding a trace as N chunks runs
exactly the loop iterations one whole-trace call would.  Each entry
point's argument types are declared once when the library loads, and
arrays cross as bare addresses.

Semantics are *defined elsewhere*: the pure-Python
:class:`~repro.core.kernel.PredictorKernel` remains the normative oracle,
and this backend refuses to activate until it reproduces the oracle's
prediction stream bit for bit on the probe battery
(:func:`repro.core.kernel_backends.kernel_probe_fingerprint`) and numbers
the battery's keys and blocks as numpy does -- a build that fails the
self-check leaves the pure-Python backend, and its numbering, in charge.
The full proof is the kernel conformance suite
(``tests/core/test_kernel_conformance.py``), which feeds every backend's
group streams a mixed-family group at random chunk cuts.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.trace.events import SharingTrace
from repro.util.bitmaps import BitmapLayout, bitmap_layout

logger = logging.getLogger("repro.core.kernel_native")

#: update-mode codes understood by the C loop
_MODE_CODES = {UpdateMode.DIRECT: 0, UpdateMode.FORWARDED: 1, UpdateMode.ORDERED: 2}

#: prediction-function codes understood by the C loop
_FUNC_CODES = {
    "last": 0, "union": 1, "inter": 2, "overlap": 3, "pas": 4, "cunion": 5, "cinter": 6,
}

#: confidence-gated functions: a base bitmap function plus per-node counters
_GATED = ("cunion", "cinter")

#: widest bitmap-history ring the native state layout supports (uint8 ring
#: cursors); deeper schemes fall back to the pure-Python kernel
MAX_NATIVE_WINDOW = 255

#: deepest PAs history the native layout supports (the C loop's
#: ``MAX_PAS_DEPTH``; a member keeps 2**depth plane pairs per word, and
#: 2**12 is already far past the paper's design space)
MAX_NATIVE_PAS_DEPTH = 12

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MODE_DIRECT 0
#define MODE_FORWARDED 1
#define MODE_ORDERED 2

#define FUNC_LAST 0
#define FUNC_UNION 1
#define FUNC_INTER 2
#define FUNC_OVERLAP 3
#define FUNC_PAS 4
#define FUNC_CUNION 5
#define FUNC_CINTER 6

/* deepest shared PAs history the class scratch is laid out for */
#define MAX_PAS_DEPTH 12

/* the nodes of one word whose low history bits equal `pattern` */
typedef struct {
    uint64_t nodes;
    int32_t pattern;
} class_t;

typedef struct {
    int64_t n_words;
    const uint64_t *valid;             /* per word: the machine's nodes */
    const int32_t *functions, *params; /* per member: code, window or depth */
    const int64_t *offsets;            /* per member: counter word offset in an entry */
    int32_t window;                    /* shared ring slots (0: no ring) */
    uint64_t *ring;
    uint8_t *ring_len, *ring_pos;
    int32_t depth;                     /* shared PAs history planes (0: none) */
    uint64_t *pas_hist;                /* plane k: every node's bit k, newest 0 */
    int64_t pas_stride;                /* PAs counter words per entry */
    uint64_t *pas_counters;            /* per member and word: a plane pair per
                                          history pattern */
    int64_t conf_stride;               /* confidence counter words per entry */
    uint64_t *conf_counters;           /* per member: a plane pair per word */
    int32_t n_pas, n_conf;
    int32_t *pas_members, *conf_members;
    uint64_t *or_pref, *and_pref;      /* window + 1 rows each; row 0 is zero */
    uint64_t *rows;                    /* one prediction row per member */
    class_t *classes;                  /* one word's classes, level by level */
} group_t;

/* SWAR popcount: the compiler builtin is a library call without -mpopcnt */
static inline int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int64_t)((x * 0x0101010101010101ull) >> 56);
}

/* Step the 2-bit saturating counters of the nodes in `sel` one toward their
   bit of `toward`.  A word of counters is a plane pair: c[0] holds the high
   bits (the prediction) and c[1] the inverted low bits, so zeroed planes
   hold the initial value 1. */
static inline void step(uint64_t *c, uint64_t toward, uint64_t sel)
{
    uint64_t hi = c[0], nlo = c[1];
    /* the majorities of (hi, lo, toward) and (hi, ~lo, toward) */
    uint64_t new_hi = (hi & ~nlo) | (toward & (hi | ~nlo));
    uint64_t new_lo = (hi & nlo) | (toward & (hi | nlo));
    c[0] = hi ^ ((hi ^ new_hi) & sel);
    c[1] = nlo ^ ((nlo ^ ~new_lo) & sel);
}

/* Row k (1 <= k <= len) of or_pref / and_pref becomes the OR / AND of the
   entry's newest k feedback rows; returns len. */
static inline int32_t build_prefixes(const group_t *g, int64_t entry)
{
    int64_t n_words = g->n_words, w;
    int32_t window = g->window, len = g->ring_len[entry], pos = g->ring_pos[entry];
    const uint64_t *base = g->ring + entry * window * n_words;
    int32_t k;
    for (k = 1; k <= len; k++) {
        const uint64_t *row = base + (int64_t)((pos - k + window) % window) * n_words;
        uint64_t *o = g->or_pref + (int64_t)k * n_words;
        uint64_t *a = g->and_pref + (int64_t)k * n_words;
        for (w = 0; w < n_words; w++) {
            o[w] = k == 1 ? row[w] : o[w - n_words] | row[w];
            a[w] = k == 1 ? row[w] : a[w - n_words] & row[w];
        }
    }
    return len;
}

/* the base row a bitmap-history or gated member reads (prefixes built) */
static inline const uint64_t *base_row(const group_t *g, int32_t m, int32_t len)
{
    int32_t k = len < g->params[m] ? len : g->params[m];
    int32_t f = g->functions[m];
    if (f == FUNC_INTER || f == FUNC_CINTER)
        return g->and_pref + (int64_t)k * g->n_words;
    return g->or_pref + (int64_t)k * g->n_words;
}

/* Split word w of an entry's nodes by their low history bits, level by
   level: level j's non-empty classes (nodes agreeing on their low j bits)
   land at classes[start[j] .. start[j + 1]), at most min(2^j, 64) of them.
   Level 0 is the word's nodes. */
static inline void split_word(const group_t *g, const uint64_t *hist, int64_t w,
                              int32_t *start)
{
    class_t *cls = g->classes;
    int32_t j, k, n = 1;
    cls[0].nodes = g->valid[w];
    cls[0].pattern = 0;
    start[0] = 0;
    start[1] = 1;
    for (j = 1; j <= g->depth; j++) {
        uint64_t h = hist[(int64_t)(j - 1) * g->n_words + w];
        for (k = start[j - 1]; k < start[j]; k++) {
            /* write both halves, keep the non-empty ones (no branches) */
            uint64_t nodes = cls[k].nodes;
            int32_t pattern = cls[k].pattern;
            cls[n].nodes = nodes & ~h;
            cls[n].pattern = pattern;
            n += (nodes & ~h) != 0;
            cls[n].nodes = nodes & h;
            cls[n].pattern = pattern | (1 << (j - 1));
            n += (nodes & h) != 0;
        }
        start[j + 1] = n;
    }
}

/* Deliver one feedback row to an entry: gates score their base first,
   then the ring and the PAs history and counters absorb it. */
static inline void deliver(const group_t *g, int64_t entry, const uint64_t *fb)
{
    int64_t n_words = g->n_words, w;
    int32_t j, k;
    if (g->n_conf) {
        int32_t len = build_prefixes(g, entry);
        for (j = 0; j < g->n_conf; j++) {
            int32_t m = g->conf_members[j];
            const uint64_t *base = base_row(g, m, len);
            uint64_t *c = g->conf_counters + entry * g->conf_stride + g->offsets[m];
            /* confidence rises where the base agreed with the feedback */
            for (w = 0; w < n_words; w++)
                step(c + 2 * w, ~(base[w] ^ fb[w]), g->valid[w]);
        }
    }
    if (g->window) {
        int32_t pos = g->ring_pos[entry];
        uint64_t *slot = g->ring + (entry * g->window + pos) * n_words;
        for (w = 0; w < n_words; w++)
            slot[w] = fb[w];
        g->ring_pos[entry] = (uint8_t)((pos + 1) % g->window);
        if (g->ring_len[entry] < g->window)
            g->ring_len[entry] += 1;
    }
    if (g->depth) {
        uint64_t *hist = g->pas_hist + entry * g->depth * n_words;
        uint64_t *counters = g->pas_counters + entry * g->pas_stride;
        int32_t start[MAX_PAS_DEPTH + 2];
        for (w = 0; w < n_words; w++) {
            split_word(g, hist, w, start);
            for (j = 0; j < g->n_pas; j++) {
                int32_t m = g->pas_members[j], d = g->params[m];
                uint64_t *c = counters + g->offsets[m] + (w << d) * 2;
                for (k = start[d]; k < start[d + 1]; k++)
                    step(c + 2 * g->classes[k].pattern, fb[w], g->classes[k].nodes);
            }
            for (k = g->depth - 1; k > 0; k--)
                hist[k * n_words + w] = hist[(k - 1) * n_words + w];
            hist[w] = fb[w];
        }
    }
}

/* Every PAs member's prediction row for an entry: per class, the high
   counter bits its pattern selects. */
static inline void predict_pas(const group_t *g, int64_t entry)
{
    int64_t n_words = g->n_words, w;
    const uint64_t *hist = g->pas_hist + entry * g->depth * n_words;
    const uint64_t *counters = g->pas_counters + entry * g->pas_stride;
    int32_t start[MAX_PAS_DEPTH + 2], j, k;
    for (w = 0; w < n_words; w++) {
        split_word(g, hist, w, start);
        for (j = 0; j < g->n_pas; j++) {
            int32_t m = g->pas_members[j], d = g->params[m];
            const uint64_t *c = counters + g->offsets[m] + (w << d) * 2;
            uint64_t row = 0;
            for (k = start[d]; k < start[d + 1]; k++)
                row |= c[2 * g->classes[k].pattern] & g->classes[k].nodes;
            g->rows[m * n_words + w] = row;
        }
    }
}

/* member m's raw prediction for an entry whose prefixes are built (and
   whose PAs rows are predicted) */
static inline const uint64_t *member_row(const group_t *g, int32_t m,
                                         int64_t entry, int32_t len)
{
    int64_t n_words = g->n_words, w;
    switch (g->functions[m]) {
    case FUNC_OVERLAP:
        /* the newest row when it overlaps the one before it; with one
           row stored, that row */
        if (len < 2)
            return g->or_pref + (int64_t)len * n_words;
        for (w = 0; w < n_words; w++)
            if (g->and_pref[2 * n_words + w])
                return g->or_pref + n_words;
        return g->or_pref;
    case FUNC_PAS:
        return g->rows + m * n_words;
    case FUNC_CUNION:
    case FUNC_CINTER: {
        /* the base where the confidence counter is high */
        const uint64_t *base = base_row(g, m, len);
        const uint64_t *c = g->conf_counters + entry * g->conf_stride + g->offsets[m];
        uint64_t *row = g->rows + m * n_words;
        for (w = 0; w < n_words; w++)
            row[w] = c[2 * w] & base[w];
        return row;
    }
    default: /* FUNC_LAST / FUNC_UNION / FUNC_INTER */
        return base_row(g, m, len);
    }
}

/* ---- the per-event loop: PredictorKernel.run for a group, compiled ---- */

static inline int group_loop(const group_t *g, int64_t n_events, int32_t mode,
                             int32_t n_members,
                             const int32_t *entries, const int32_t *blocks,
                             const uint8_t *has_inval,
                             const uint64_t *inval, const uint64_t *truth,
                             const int64_t *writers,
                             int32_t exclude_writer, int32_t *pending,
                             int64_t *counts, uint64_t *pred)
{
    int64_t n_words = g->n_words, i, w, truth_bits = 0;
    const uint64_t *mask_words = g->valid;
    int32_t m, status = 0;
    for (i = 0; i < n_events; i++) {
        int64_t entry = entries[i];
        const uint64_t *t_row = truth + i * n_words;
        int64_t writer = writers[i];
        int32_t len = 0;
        if (mode == MODE_DIRECT) {
            if (has_inval[i])
                deliver(g, entry, inval + i * n_words);
        } else if (mode == MODE_FORWARDED) {
            int32_t block = blocks[i];
            if (has_inval[i]) {
                /* deliver the closed epoch's truth to the entry that
                   predicted it (the pending key for this block) */
                int32_t predictor = pending[block];
                if (predictor < 0) {
                    status = 1; /* inval with no open epoch */
                    break;
                }
                deliver(g, predictor, inval + i * n_words);
            }
            pending[block] = (int32_t)entry;
        }
        if (g->window)
            len = build_prefixes(g, entry);
        if (g->depth)
            predict_pas(g, entry);
        /* sharing is sparse: words with nothing to count are skipped */
        for (w = 0; w < n_words; w++)
            if (t_row[w])
                truth_bits += popcount64(t_row[w] & mask_words[w]);
        for (m = 0; m < n_members; m++) {
            const uint64_t *row = member_row(g, m, entry, len);
            int64_t tp = 0, predicted = 0;
            if (pred != NULL)
                memcpy(pred + (i * n_members + m) * n_words, row,
                       (size_t)n_words * sizeof(uint64_t));
            for (w = 0; w < n_words; w++) {
                uint64_t p = row[w] & mask_words[w];
                if (exclude_writer && (writer >> 6) == w)
                    p &= ~(1ull << (writer & 63));
                if (p) {
                    tp += popcount64(p & t_row[w]);
                    predicted += popcount64(p);
                }
            }
            counts[2 * m] += tp;
            counts[2 * m + 1] += predicted;
        }
        if (mode == MODE_ORDERED)
            deliver(g, entry, t_row);
    }
    counts[2 * n_members] += truth_bits;
    return status;
}

/* counts gets, per member m, the true positives at 2m and the predicted
   positives at 2m + 1, and the chunk's truth bits at 2 * n_members.  pred,
   when not NULL, gets member m's raw row of event i at row
   i * n_members + m.  Returns 1 on an inconsistent trace, 2 when out of
   memory, 3 for a PAs history deeper than MAX_PAS_DEPTH. */

int repro_group_run(int64_t n_events, int64_t n_words,
                    int32_t mode, int32_t n_members,
                    const int32_t *functions, const int32_t *params,
                    const int64_t *offsets,
                    const int32_t *entries, const int32_t *blocks,
                    const uint8_t *has_inval,
                    const uint64_t *inval, const uint64_t *truth,
                    const int64_t *writers, const uint64_t *mask_words,
                    int32_t exclude_writer,
                    int32_t window, uint64_t *ring, uint8_t *ring_len,
                    uint8_t *ring_pos,
                    int32_t depth, int64_t pas_stride, uint64_t *pas_hist,
                    uint64_t *pas_counters,
                    int64_t conf_stride, uint64_t *conf_counters,
                    int32_t *pending, int64_t *counts, uint64_t *pred)
{
    group_t g;
    int32_t *members;
    uint64_t *buffers;
    class_t *classes;
    int32_t m, j, status, n_classes = 1;

    if (depth > MAX_PAS_DEPTH)
        return 3;
    /* one slot past the last class: a split writes both halves first */
    for (j = 1; j <= depth; j++)
        n_classes += j < 6 ? 1 << j : 64;
    n_classes += 1;
    members = (int32_t *)malloc(2 * (size_t)n_members * sizeof(int32_t) + 1);
    buffers = (uint64_t *)calloc(
        (size_t)(2 * (window + 1) + n_members) * (size_t)n_words, sizeof(uint64_t));
    classes = (class_t *)malloc((size_t)n_classes * sizeof(class_t));
    if (members == NULL || buffers == NULL || classes == NULL) {
        free(members);
        free(buffers);
        free(classes);
        return 2;
    }
    g.n_words = n_words;
    g.valid = mask_words;
    g.functions = functions;
    g.params = params;
    g.offsets = offsets;
    g.window = window;
    g.ring = ring;
    g.ring_len = ring_len;
    g.ring_pos = ring_pos;
    g.depth = depth;
    g.pas_hist = pas_hist;
    g.pas_stride = pas_stride;
    g.pas_counters = pas_counters;
    g.conf_stride = conf_stride;
    g.conf_counters = conf_counters;
    g.pas_members = members;
    g.conf_members = members + n_members;
    g.n_pas = 0;
    g.n_conf = 0;
    for (m = 0; m < n_members; m++) {
        if (functions[m] == FUNC_PAS)
            g.pas_members[g.n_pas++] = m;
        else if (functions[m] == FUNC_CUNION || functions[m] == FUNC_CINTER)
            g.conf_members[g.n_conf++] = m;
    }
    g.or_pref = buffers;
    g.and_pref = buffers + (int64_t)(window + 1) * n_words;
    g.rows = buffers + (int64_t)2 * (window + 1) * n_words;
    g.classes = classes;

    status = group_loop(&g, n_events, mode, n_members, entries, blocks,
                        has_inval, inval, truth, writers,
                        exclude_writer, pending, counts, pred);
    free(members);
    free(buffers);
    free(classes);
    return status;
}

/* ---- key numbering: dense ids by first appearance ---- */

/* splitmix64's finalizer: spreads clustered keys over the table */
static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/* ids[i] gets the id of keys[i]: the id an earlier key equal to it got
   (this call or an earlier one), else the next id, *count.  The table is
   open addressing with linear probing over mask + 1 slots; slot_ids < 0
   marks a free slot.  Stops before handing out id `limit` and returns
   how many keys it numbered, so the caller can grow the table and go
   on. */
int64_t repro_number_keys(int64_t n, const int64_t *keys, int32_t *ids,
                          int64_t *slot_keys, int32_t *slot_ids, int64_t mask,
                          int64_t *count, int64_t limit)
{
    int64_t i, next = *count;
    for (i = 0; i < n; i++) {
        int64_t key = keys[i];
        uint64_t s = mix64((uint64_t)key) & (uint64_t)mask;
        while (slot_ids[s] >= 0 && slot_keys[s] != key)
            s = (s + 1) & (uint64_t)mask;
        if (slot_ids[s] < 0) {
            if (next >= limit)
                break;
            slot_keys[s] = key;
            slot_ids[s] = (int32_t)next++;
        }
        ids[i] = slot_ids[s];
    }
    *count = next;
    return i;
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


_I32, _I64, _PTR = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p

#: each library entry point's (result type, argument types); arrays travel
#: as bare addresses
_SIGNATURES = {
    "repro_group_run": (ctypes.c_int, (
        _I64, _I64, _I32, _I32,        # events, words, mode, members
        _PTR, _PTR, _PTR,              # functions, params, offsets
        _PTR, _PTR, _PTR,              # entries, blocks, has_inval
        _PTR, _PTR, _PTR,              # inval, truth, writers
        _PTR, _I32,                    # mask_words, exclude_writer
        _I32, _PTR, _PTR, _PTR,        # window, ring, ring_len, ring_pos
        _I32, _I64, _PTR, _PTR,        # depth, pas_stride, pas_hist, pas_counters
        _I64, _PTR,                    # conf_stride, conf_counters
        _PTR, _PTR, _PTR,              # pending, counts, pred
    )),
    "repro_number_keys": (_I64, (
        _I64, _PTR, _PTR,              # n, keys, ids
        _PTR, _PTR, _I64,              # slot_keys, slot_ids, mask
        _PTR, _I64,                    # count, limit
    )),
}

#: the loaded library, once a build was attempted (None: it cannot be built)
_LIBRARY: List[Optional[ctypes.CDLL]] = []


def compiled_library() -> Optional[ctypes.CDLL]:
    """The compiled library with its entry points declared, built and loaded
    once per process; None (after one warning) when it cannot be built."""
    if not _LIBRARY:
        try:
            library = ctypes.CDLL(str(_compile_library()))
        except (OSError, RuntimeError) as error:
            logger.warning(
                "C kernel library unavailable (%s: %s)", type(error).__name__, error
            )
            library = None
        else:
            for name, (restype, argtypes) in _SIGNATURES.items():
                function = getattr(library, name)
                function.restype = restype
                function.argtypes = argtypes
        _LIBRARY.append(library)
    return _LIBRARY[0]


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


class KeyNumbering:
    """Dense int32 ids for int64 keys, by first appearance, across chunks.

    The first distinct key gets 0, the next new one 1, and so on, however
    the keys are cut into calls.  The ids are the canonical form of the
    partition the keys induce: two key streams split the events alike
    exactly when their ids are equal.  One compiled hash pass per call; the
    open-addressing table lives in numpy arrays, starts at ``slots`` (a
    power of two) and doubles once half its slots are taken, re-inserting
    the known keys in id order so every id stays put.
    """

    __slots__ = ("_library", "_slot_keys", "_slot_ids", "_count")

    def __init__(self, library: ctypes.CDLL, slots: int = 1024) -> None:
        self._library = library
        self._count = ctypes.c_int64(0)
        self._allocate(slots)

    def __len__(self) -> int:
        return self._count.value

    def _allocate(self, slots: int) -> None:
        self._slot_keys = np.zeros(slots, dtype=np.int64)
        self._slot_ids = np.full(slots, -1, dtype=np.int32)

    def _number(self, keys: np.ndarray, ids: np.ndarray) -> int:
        slots = len(self._slot_ids)
        return self._library.repro_number_keys(
            len(keys), _address(keys), _address(ids), _address(self._slot_keys),
            _address(self._slot_ids), slots - 1, ctypes.addressof(self._count),
            slots // 2,
        )

    def _grow(self) -> None:
        used = self._slot_ids >= 0
        by_id = np.empty(len(self), dtype=np.int64)
        by_id[self._slot_ids[used]] = self._slot_keys[used]
        self._allocate(2 * len(self._slot_ids))
        self._count.value = 0
        self._number(by_id, np.empty(len(by_id), dtype=np.int32))

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """The id of every key, numbering unseen keys as they appear."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        ids = np.empty(len(keys), dtype=np.int32)
        done = self._number(keys, ids)
        while done < len(keys):
            self._grow()
            done += self._number(keys[done:], ids[done:])
        return ids


#: the largest table a whole-stream numbering starts with (768 KiB); a
#: stream with more than half as many distinct keys grows it
_MAX_START_SLOTS = 1 << 16


class NativeState:
    """Flat predictor state of one group stream, allocated numpy-side.

    One instance per (index group, update mode, trace) -- predictor tables
    never carry over between traces.  Arrays start empty and :meth:`grow`
    appends zeroed entries (and blocks) as the stream meets new ids, so
    existing state never moves.  Every per-entry array starts at zero: the
    PAs and confidence counters are bit planes whose zero value is the
    counters' initial 1.  A family the group lacks keeps zero-length arrays
    (the C side never dereferences them).
    """

    __slots__ = ("window", "depth", "pas_stride", "conf_stride", "ring",
                 "ring_len", "ring_pos", "pas_hist", "pas_counters",
                 "conf_counters", "pending", "_per_entry", "_entries")

    def __init__(
        self, window: int, depth: int, pas_stride: int, conf_stride: int, n_words: int
    ) -> None:
        self.window = window
        self.depth = depth
        self.pas_stride = pas_stride
        self.conf_stride = conf_stride
        # (attribute, dtype, values per entry)
        layout = (
            ("ring", np.uint64, window * n_words),
            ("ring_len", np.uint8, 1 if window else 0),
            ("ring_pos", np.uint8, 1 if window else 0),
            ("pas_hist", np.uint64, depth * n_words),
            ("pas_counters", np.uint64, pas_stride),
            ("conf_counters", np.uint64, conf_stride),
        )
        for attribute, dtype, _ in layout:
            setattr(self, attribute, np.zeros(0, dtype=dtype))
        self._per_entry = tuple(spec for spec in layout if spec[2])
        self.pending = np.zeros(0, dtype=np.int32)
        self._entries = 0

    def grow(self, n_entries: int, n_blocks: int) -> None:
        """Append initial state for entries and blocks not yet allocated."""
        added = n_entries - self._entries
        if added > 0:
            for attribute, dtype, size in self._per_entry:
                fresh = np.zeros(added * size, dtype=dtype)
                setattr(self, attribute, _append(getattr(self, attribute), fresh))
            self._entries = n_entries
        added = n_blocks - len(self.pending)
        if added > 0:
            # -1: no epoch of this block has predicted yet
            self.pending = _append(self.pending, np.full(added, -1, dtype=np.int32))


def _append(array: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``array`` extended by ``fresh`` (no copy when ``array`` is empty)."""
    return np.concatenate([array, fresh]) if len(array) else fresh


def _to_word_rows(column: np.ndarray, layout: BitmapLayout) -> np.ndarray:
    """A bitmap column as an aligned, C-contiguous ``(events, n_words)``
    uint64 array (columns read from an ``.rtrace`` image may be unaligned)."""
    if not layout.packed:
        column = column.reshape(-1, 1)
    return np.require(column, dtype=np.uint64, requirements="CA")


def _param(scheme: Scheme) -> int:
    """A member's loop parameter: ring slots it reads, or its PAs depth.

    Overlap-last keeps two bitmaps regardless of nominal depth.
    """
    return 2 if scheme.function == "overlap" else scheme.depth


Quad = Tuple[int, int, int, int]


class NativeGroupStream:
    """Every member of one (index group, update mode) over one trace.

    ``chunk`` is anything with the trace column surface (a
    :class:`~repro.trace.source.TraceChunk` or a whole ``SharingTrace``);
    ``keys`` is its :func:`~repro.core.vectorized.compute_keys` stream,
    shared by every member.  Feed the trace's chunks in order, all through
    :meth:`evaluate` or all through :meth:`evaluate_ids`.
    """

    __slots__ = ("layout", "mode", "functions", "params", "offsets",
                 "mask_words", "state", "_library", "_forwarded", "_keys", "_blocks")

    def __init__(
        self, library: ctypes.CDLL, schemes: Sequence[Scheme], num_nodes: int
    ) -> None:
        modes = {scheme.update for scheme in schemes}
        if len(modes) != 1:
            raise ValueError(f"a group stream runs one update mode, got {modes}")
        self._library = library
        self.layout = bitmap_layout(num_nodes)
        mode = modes.pop()
        self.mode = _MODE_CODES[mode]
        # only FORWARDED reads block ids (the pending-predictor slots)
        self._forwarded = mode is UpdateMode.FORWARDED
        self.functions = np.array(
            [_FUNC_CODES[scheme.function] for scheme in schemes], dtype=np.int32
        )
        self.params = np.array([_param(scheme) for scheme in schemes], dtype=np.int32)
        # each PAs and each gated member owns a slice of its entry's counter
        # words: a plane pair per word and history pattern, or per word
        n_words = self.layout.n_words
        offsets = []
        pas_stride = conf_stride = 0
        for scheme in schemes:
            if scheme.function == "pas":
                offsets.append(pas_stride)
                pas_stride += (2 * n_words) << scheme.depth
            elif scheme.function in _GATED:
                offsets.append(conf_stride)
                conf_stride += 2 * n_words
            else:
                offsets.append(0)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.mask_words = np.ascontiguousarray(self.layout.mask_words, dtype=np.uint64)
        self.state = NativeState(
            window=max(
                (_param(s) for s in schemes if s.function != "pas"), default=0
            ),
            depth=max((s.depth for s in schemes if s.function == "pas"), default=0),
            pas_stride=pas_stride,
            conf_stride=conf_stride,
            n_words=n_words,
        )
        # the numberings :meth:`evaluate` carries across chunks
        self._keys: Optional[KeyNumbering] = None
        self._blocks: Optional[KeyNumbering] = None

    def _number(self, chunk, keys: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The chunk's entry ids and, under forwarded update, block ids."""
        if self._keys is None:
            self._keys = KeyNumbering(self._library)
            if self._forwarded:
                self._blocks = KeyNumbering(self._library)
        blocks = self._blocks(chunk.block) if self._forwarded else None
        return self._keys(keys), blocks

    def _run(
        self, chunk, entries: np.ndarray, blocks: Optional[np.ndarray],
        exclude_writer: bool, pred: Optional[np.ndarray] = None,
    ) -> List[Quad]:
        """Drive the compiled loop over one chunk of numbered events;
        returns one quad per member."""
        self.state.grow(
            int(entries.max()) + 1, 0 if blocks is None else int(blocks.max()) + 1
        )
        size = len(self.functions)
        counts = np.zeros(2 * size + 1, dtype=np.int64)
        layout = self.layout
        state = self.state
        # converted columns stay bound until the call returns
        has_inval = np.ascontiguousarray(chunk.has_inval, dtype=np.uint8)
        inval = _to_word_rows(chunk.inval, layout)
        truth = _to_word_rows(chunk.truth, layout)
        writers = np.require(chunk.writer, dtype=np.int64, requirements="CA")
        status = self._library.repro_group_run(
            len(entries), layout.n_words, self.mode, size,
            _address(self.functions), _address(self.params), _address(self.offsets),
            _address(entries), _address(entries if blocks is None else blocks),
            _address(has_inval), _address(inval), _address(truth), _address(writers),
            _address(self.mask_words), 1 if exclude_writer else 0,
            state.window, _address(state.ring), _address(state.ring_len),
            _address(state.ring_pos),
            state.depth, state.pas_stride, _address(state.pas_hist),
            _address(state.pas_counters),
            state.conf_stride, _address(state.conf_counters),
            _address(state.pending), _address(counts),
            None if pred is None else _address(pred),
        )
        if status == 1:
            raise ValueError(
                "native kernel: has_inval set on an event whose block has no "
                "open epoch (inconsistent trace)"
            )
        if status == 2:
            raise MemoryError("native kernel: scratch allocation failed")
        if status:
            raise ValueError(
                f"native kernel: PAs depth {state.depth} beyond the compiled cap"
            )
        truth_bits = int(counts[-1])
        total = len(chunk) * self.layout.num_nodes
        quads = []
        for tp, predicted in counts[:-1].reshape(size, 2).tolist():
            fp = predicted - tp
            fn = truth_bits - tp
            quads.append((tp, fp, fn, total - tp - fp - fn))
        return quads

    def evaluate(self, chunk, keys: np.ndarray, exclude_writer: bool) -> List[Quad]:
        """The chunk's ``(tp, fp, fn, tn)`` quad for every member, in order."""
        if len(chunk) == 0:
            return [(0, 0, 0, 0)] * len(self.functions)
        return self._run(chunk, *self._number(chunk, keys), exclude_writer)

    def evaluate_ids(
        self,
        chunk,
        entries: np.ndarray,
        blocks: Optional[np.ndarray],
        exclude_writer: bool,
    ) -> List[Quad]:
        """:meth:`evaluate` for a chunk numbered by the caller: ``entries``
        (int32 ids from 0, one per distinct key) and, under forwarded
        update, ``blocks`` likewise (ignored otherwise)."""
        if len(chunk) == 0:
            return [(0, 0, 0, 0)] * len(self.functions)
        return self._run(
            chunk,
            np.ascontiguousarray(entries, dtype=np.int32),
            np.ascontiguousarray(blocks, dtype=np.int32) if self._forwarded else None,
            exclude_writer,
        )


class NativeKernelStream:
    """One scheme's state over one trace: a one-member group stream that
    can also hand back its raw prediction rows."""

    __slots__ = ("_group",)

    def __init__(self, library: ctypes.CDLL, scheme: Scheme, num_nodes: int) -> None:
        self._group = NativeGroupStream(library, [scheme], num_nodes)

    def feed(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Raw (unmasked) predictions for the chunk, in the trace's layout."""
        group = self._group
        layout = group.layout
        if len(chunk) == 0:
            return layout.zeros(0)
        pred = np.zeros((len(chunk), layout.n_words), dtype=np.uint64)
        group._run(chunk, *group._number(chunk, keys), False, pred)
        return pred if layout.packed else pred.reshape(-1).astype(layout.dtype)

    def evaluate(self, chunk, keys: np.ndarray, exclude_writer: bool) -> Quad:
        """The chunk's ``(tp, fp, fn, tn)`` quad, predicted and scored in C."""
        [quad] = self._group.evaluate(chunk, keys, exclude_writer)
        return quad


class NativeKernelBackend:
    """The compiled kernel backend (registry name: ``native``).

    Covers every function family at every machine width and all three
    update modes.  Only rings wider than :data:`MAX_NATIVE_WINDOW` and
    PAs histories deeper than :data:`MAX_NATIVE_PAS_DEPTH` are declined
    via :meth:`supports`, which the registry resolves as a per-scheme
    fall-through to the pure-Python backend.
    """

    name = "native"

    def __init__(self) -> None:
        self._library: Optional[ctypes.CDLL] = None
        self._checked = False

    def available(self) -> bool:
        """Build the C library and gate it behind the oracle self-check.

        The result is cached for the process lifetime.
        """
        if self._checked:
            return self._library is not None
        self._checked = True
        from repro.core.kernel_backends import kernel_selfcheck

        self._library = compiled_library()
        if self._library is None:
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
        self._library = None
        return False

    def supports(self, scheme: Scheme) -> bool:
        if scheme.function == "pas":
            return scheme.depth <= MAX_NATIVE_PAS_DEPTH
        return scheme.function in _FUNC_CODES and _param(scheme) <= MAX_NATIVE_WINDOW

    def _ready_library(self) -> ctypes.CDLL:
        if self._library is None and not self.available():
            raise RuntimeError(
                "native kernel backend is unavailable on this machine; "
                "route through repro.core.kernel_backends.kernel_group_stream, "
                "which falls back to the pure-Python backend"
            )
        return self._library

    def first_appearance_ids(self, keys: np.ndarray) -> np.ndarray:
        """One whole key stream numbered by first appearance, in one
        compiled hash pass."""
        # room for every key to be distinct, so below the cap the table never
        # grows: the 4,339 streams both seed-0 sweeps number (median 576,
        # at most 6,377 distinct keys) take 0.38 s so against 0.96 s from
        # the default 1,024 slots, whose doublings cost more than the fill
        slots = min(1 << (2 * len(keys)).bit_length(), _MAX_START_SLOTS)
        return KeyNumbering(self._ready_library(), slots)(keys)

    def group_stream(
        self, schemes: Sequence[Scheme], num_nodes: int
    ) -> NativeGroupStream:
        """Fresh resumable state for one (index group, update mode, trace)."""
        return NativeGroupStream(self._ready_library(), schemes, num_nodes)

    def stream(self, scheme: Scheme, num_nodes: int) -> NativeKernelStream:
        """Fresh resumable state for one (scheme, trace) run."""
        return NativeKernelStream(self._ready_library(), scheme, num_nodes)

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
    ) -> Quad:
        """The fused ``(tp, fp, fn, tn)`` quad: one whole-trace chunk."""
        return self.stream(scheme, trace.num_nodes).evaluate(
            trace, keys, exclude_writer
        )
