"""The one predictor state machine: update-mode feedback timing.

Every evaluator in the system used to re-implement the DIRECT / FORWARDED /
ORDERED timing rules (the reference interpreter, the vectorized engine's
generic sequential path, and its PAs fast path) -- three copies of the
subtlest semantics in the repo, and the likeliest place for drift.
:class:`PredictorKernel` is now the single owner of that state machine; the
callers differ only in how they produce per-event keys and what an *entry*
is.

The kernel is deliberately agnostic about entry contents.  It drives any
``ops`` object exposing the :class:`~repro.core.functions.PredictionFunction`
trio:

* ``ops.new_entry() -> entry`` -- fresh predictor-entry state;
* ``ops.update(entry, feedback_bitmap)`` -- fold one delivered reader set
  into the entry, in place;
* ``ops.predict(entry) -> int`` -- the raw (unmasked) prediction bitmap.

Timing semantics (the normative statement; DESIGN.md section 3):

* DIRECT: at each event, the reader set just invalidated (``inval``) enters
  the entry the event consults, then the entry predicts.  The first event
  on a block closes no epoch and performs no update.
* FORWARDED: when event *i* closes the epoch opened by event *j*, feedback
  ``truth[j]`` (== ``inval[i]``) is delivered to entry ``key[j]`` -- the
  entry that made prediction *j* -- at event *i*, before event *i*'s own
  prediction.  Each event closes at most one epoch, so delivery order is
  unambiguous.
* ORDERED: feedback ``truth[i]`` reaches entry ``key[i]`` immediately after
  prediction *i* -- before the entry's next use, even if the epoch is still
  open then (the idealized scheme of paper Figure 4).

The compiled group pass in :mod:`repro.core.kernel_native` runs these
exact rules for a whole index group at once and is held bit for bit to
kernel-driven evaluation by the conformance suite, so the kernel stays the
semantic oracle.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

from repro.core.update import UpdateMode


class KernelStream:
    """Resumable predictor-kernel state: feed event windows, get predictions.

    The chunked twin of :meth:`PredictorKernel.run`: the table and the
    FORWARDED pending bookkeeping live on the instance, so a trace can be
    fed as any sequence of windows -- :meth:`feed` n times is
    bit-identical to one ``run`` over the concatenation.  Both the
    DIRECT/FORWARDED/ORDERED timing rules and the per-event loop body are
    the same code; ``PredictorKernel.run`` delegates here with a
    throwaway stream, so there is still exactly one copy of the timing
    semantics.  (FORWARDED needs no close indices at all -- delivery
    piggy-backs on the closing event's ``inval`` -- which is what makes
    the per-event families naturally chunk-feedable.)
    """

    __slots__ = ("mode", "ops", "_table", "_pending_key_by_block")

    def __init__(self, mode: UpdateMode, ops) -> None:
        self.mode = mode
        self.ops = ops
        self._table: Dict[int, object] = {}
        # Forwarded update: key under which each still-open epoch predicted,
        # so its truth can be routed there when the epoch closes.  Indexed
        # by block because the closing event identifies the epoch via its
        # block.
        self._pending_key_by_block: Dict[int, int] = {}

    def feed(
        self,
        keys: Sequence[int],
        blocks: Sequence[int],
        has_inval: Sequence[bool],
        inval: Sequence[int],
        truth: Sequence[int],
    ) -> Iterator[int]:
        """Yield the raw prediction bitmap for each event in this window."""
        mode = self.mode
        ops = self.ops
        new_entry = ops.new_entry
        update = ops.update
        predict = ops.predict
        table = self._table
        get = table.get
        pending_key_by_block = self._pending_key_by_block
        direct = mode is UpdateMode.DIRECT
        forwarded = mode is UpdateMode.FORWARDED
        ordered = mode is UpdateMode.ORDERED

        for position in range(len(keys)):
            key = keys[position]
            entry = get(key)
            if entry is None:
                entry = new_entry()
                table[key] = entry
            if direct:
                if has_inval[position]:
                    update(entry, inval[position])
            elif forwarded:
                block = blocks[position]
                if has_inval[position]:
                    # This event closes its block's previous epoch; deliver
                    # that epoch's truth (== this event's inval bitmap) to
                    # the entry that predicted it.  That entry always
                    # exists: it was created at its predicting event.
                    update(table[pending_key_by_block[block]], inval[position])
                pending_key_by_block[block] = key
            yield predict(entry)
            if ordered:
                update(entry, truth[position])

    def feed_chunk(self, chunk, keys: Sequence[int]) -> Iterator[int]:
        """:meth:`feed` with the columns pulled off a trace chunk."""
        return self.feed(
            keys,
            chunk.block.tolist(),
            chunk.has_inval.tolist(),
            chunk.inval_ints(),
            chunk.truth_ints(),
        )


class PredictorKernel:
    """Drive one predictor table over an event stream, one update mode.

    The kernel owns the table (``key -> entry``) and the FORWARDED pending
    bookkeeping; ``ops`` owns what an entry is.  One kernel instance is one
    trace run: state never carries over between traces (each benchmark is a
    separate machine run in the paper), so callers construct a fresh kernel
    per (scheme, trace) pair.
    """

    __slots__ = ("mode", "ops")

    def __init__(self, mode: UpdateMode, ops) -> None:
        self.mode = mode
        self.ops = ops

    def run(
        self,
        keys: Sequence[int],
        blocks: Sequence[int],
        has_inval: Sequence[bool],
        inval: Sequence[int],
        truth: Sequence[int],
    ) -> Iterator[int]:
        """Yield the raw prediction bitmap for every event, in trace order.

        All five columns are parallel, one element per event; ``keys`` is
        the per-event predictor index (scalar :meth:`IndexSpec.key` values
        or a shared vectorized key stream -- the kernel does not care).
        Predictions are *raw*: writer-bit masking is a scoring concern and
        stays with the callers.
        """
        return KernelStream(self.mode, self.ops).feed(
            keys, blocks, has_inval, inval, truth
        )
