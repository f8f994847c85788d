"""Kernel-backend conformance: every registered backend vs. the Python oracle.

The registry contract (:mod:`repro.core.kernel_backends`) says the
pure-Python :class:`PredictorKernel` backend is normative and every other
backend must reproduce its prediction streams bit for bit -- or decline the
scheme via ``supports`` and let the registry fall through.  This suite is
the enforcement mechanism: it parametrizes over
:func:`kernel_backend_names`, so a future backend is covered by
registration alone, with no edits here.

Coverage axes:

* every registered backend (unavailable ones skip, matching the degraded
  environments they'd degrade in);
* both entry points: one-scheme streams (raw predictions and quads) and
  group streams, which run a mixed-family index group at once and must
  give each member the oracle's one-member quad;
* all three update modes and every function family (bitmap, PAs, and the
  confidence-gated ``cunion``/``cinter``);
* bitmap widths 8 / 16 / 32 / 64 (scalar-word layouts and both word-size
  boundaries) and 256 / 1024 (packed multi-word layouts);
* arbitrary Hypothesis-generated traces and schemes on top of the
  structured deterministic ones;
* chunked feeds: each fast backend's resumable ``stream`` and
  ``group_stream`` fed the same trace cut at Hypothesis-drawn points
  (always with a one-event first chunk and a cut inside an open FORWARDED
  epoch) must reproduce the oracle's one-chunk predictions and confusion
  quads, at 8, 16, 64, 65 and 80 nodes and with PAs members up to the
  native depth cap.  The oracle's own group stream is checked directly:
  across a chunk cut, every member scores as a fresh one-member oracle
  stream;
* the bits past the last node: the native bit-plane families (PAs and
  the confidence-gated ones) never predict one, even when the feedback
  sets them.

Every backend numbers a key stream by first appearance; its numbering
must equal the normative numpy one on adversarial keys, and the native
streams' compiled numbering, carried across chunks, must equal it at any
cuts.  Group streams are also fed keys and blocks numbered that way
(``evaluate_ids``), which must give the same quads as raw keys.

Registry *behavior* (resolution precedence, degradation, telemetry
attribution) is tested at the bottom; pure kernel-loop edge semantics live
in ``tests/core/test_kernel.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel_backends as kb
from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import (
    PROBE_SCHEMES,
    get_kernel_backend,
    kernel_backend_names,
    kernel_evaluate,
    kernel_group_stream,
    kernel_predict,
    kernel_probe_fingerprint,
    register_kernel_backend,
    resolve_kernel_backend,
    set_kernel_backend,
)
from repro.core.kernel_native import (
    C_SOURCE,
    MAX_NATIVE_PAS_DEPTH,
    KeyNumbering,
    compiled_library,
)
from repro.core.schemes import Scheme, parse_scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import compute_keys
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import TraceChunk
from tests.conftest import make_random_trace

#: the scalar-word layouts, both word-size boundaries, and two packed widths
WIDTHS = (8, 16, 32, 64, 256, 1024)

#: events per width -- wide machines pay per-node Python cost in the oracle,
#: so the packed widths run shorter traces (still multiple epochs per block)
_EVENTS = {8: 240, 16: 240, 32: 160, 64: 120, 256: 48, 1024: 16}

#: every function family x every update mode, with mixed index specs
CONFORMANCE_SCHEMES = (
    "last()1[direct]",
    "last(dir+add4)1[ordered]",
    "union(pid+add4)3[forwarded]",
    "union(pc4)2[ordered]",
    "inter(add5)2[direct]",
    "inter(pid+pc4)3[forwarded]",
    "overlap(dir+add4)1[direct]",
    "overlap(pc3)1[ordered]",
    "pas(pid+add4)2[direct]",
    "pas(pc4)1[forwarded]",
    "pas(add4)2[ordered]",
    "cunion(pid+add4)2[direct]",
    "cinter(pc4)2[forwarded]",
)


def assert_backend_conforms(backend, trace, scheme_texts=CONFORMANCE_SCHEMES):
    """Assert ``backend`` reproduces the oracle on every scheme over ``trace``.

    Mirrors the routed path exactly: schemes the backend declines run on
    the Python oracle (a trivially passing comparison, which is the point
    -- declining is a *correct* outcome, silently wrong results are not).
    Checks both the raw prediction stream and the fused confusion quad,
    with and without writer exclusion.
    """
    oracle = get_kernel_backend("python")
    layout = trace.layout
    for text in scheme_texts:
        scheme = parse_scheme(text)
        keys = compute_keys(scheme.index, trace)
        chosen = backend if backend.supports(scheme) else oracle
        got = layout.to_int_list(chosen.predict(scheme, trace, keys))
        want = layout.to_int_list(oracle.predict(scheme, trace, keys))
        assert got == want, (
            f"backend {backend.name!r} diverged from the python oracle on "
            f"{text} over {trace.name} ({trace.num_nodes} nodes): first "
            f"mismatch at event "
            f"{next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)}"
        )
        for exclude_writer in (False, True):
            assert chosen.evaluate(scheme, trace, keys, exclude_writer) == (
                oracle.evaluate(scheme, trace, keys, exclude_writer)
            ), f"{backend.name!r} quad mismatch on {text} ({trace.name})"


def _chunks_at(trace, cuts):
    """``trace`` as zero-copy chunks split at the sorted positions ``cuts``."""
    bounds = [0, *cuts, len(trace)]
    return [
        TraceChunk(
            num_nodes=trace.num_nodes,
            start=start,
            writer=trace.writer[start:stop],
            pc=trace.pc[start:stop],
            home=trace.home[start:stop],
            block=trace.block[start:stop],
            truth=trace.truth[start:stop],
            inval=trace.inval[start:stop],
            has_inval=trace.has_inval[start:stop],
            close=trace.close[start:stop],
            name=trace.name,
        )
        for start, stop in zip(bounds, bounds[1:])
    ]


def _open_epoch_cut(trace):
    """A cut with an epoch open across it: opened before, closed after."""
    for event, close in enumerate(trace.close.tolist()):
        if event + 1 < close < len(trace):
            return event + 1
    raise AssertionError(f"{trace.name} has no epoch spanning two events")


def assert_stream_conforms(backend, trace, cuts, scheme_texts=CONFORMANCE_SCHEMES):
    """Assert ``backend``'s stream, fed ``trace`` cut at ``cuts``, matches the
    oracle's one-chunk run: the concatenated predictions and the summed
    confusion quad, with and without writer exclusion.  Declined schemes
    run the oracle's own stream, exactly as the routed path would."""
    oracle = get_kernel_backend("python")
    layout = trace.layout
    chunks = _chunks_at(trace, cuts)
    for text in scheme_texts:
        scheme = parse_scheme(text)
        keys = compute_keys(scheme.index, trace)
        chosen = backend if backend.supports(scheme) else oracle
        stream = chosen.stream(scheme, trace.num_nodes)
        got = []
        for chunk in chunks:
            got += layout.to_int_list(stream.feed(chunk, keys[chunk.start:chunk.end]))
        want = layout.to_int_list(oracle.predict(scheme, trace, keys))
        assert got == want, (
            f"backend {backend.name!r} stream diverged from the python oracle on "
            f"{text} over {trace.name} cut at {cuts}"
        )
        for exclude_writer in (False, True):
            stream = chosen.stream(scheme, trace.num_nodes)
            quads = [
                stream.evaluate(chunk, keys[chunk.start:chunk.end], exclude_writer)
                for chunk in chunks
            ]
            summed = tuple(sum(column) for column in zip(*quads))
            assert summed == oracle.evaluate(scheme, trace, keys, exclude_writer), (
                f"{backend.name!r} chunked quad mismatch on {text} cut at {cuts}"
            )


#: one index group mixing every function family at several depths and
#: windows; the update mode is appended per run
GROUP_MEMBERS = (
    "last(pid+add4)1",
    "union(pid+add4)2",
    "union(pid+add4)4",
    "inter(pid+add4)2",
    "inter(pid+add4)3",
    "overlap(pid+add4)1",
    "pas(pid+add4)1",
    "pas(pid+add4)3",
    "pas(pid+add4)2",
    "pas(pid+add4)6",
    f"pas(pid+add4){MAX_NATIVE_PAS_DEPTH}",
    "cunion(pid+add4)2",
    "cinter(pid+add4)3",
    "cunion(pid+add4)1",
)


def group_schemes(mode):
    return [parse_scheme(f"{text}[{mode.value}]") for text in GROUP_MEMBERS]


def assert_group_conforms(backend, trace, cuts, oracle_cache=None):
    """Assert ``backend``'s group stream over :data:`GROUP_MEMBERS`, fed
    ``trace`` cut at ``cuts``, gives every member the oracle's one-member
    one-chunk quad: all three update modes, with and without writer
    exclusion, fed raw keys (``evaluate``) and fed keys and blocks numbered
    by first appearance (``evaluate_ids``; the whole trace is numbered at
    once, so the ids carry across chunks).  Members the backend declines
    are left out of its group, exactly as :func:`kernel_group_stream`
    routes them.  ``oracle_cache`` memoizes the oracle's quads for a trace
    that is checked repeatedly."""
    oracle = get_kernel_backend("python")
    chunks = _chunks_at(trace, cuts)
    cache = {} if oracle_cache is None else oracle_cache
    blocks = kb.first_appearance_ids(trace.block)
    for mode in UpdateMode:
        schemes = [scheme for scheme in group_schemes(mode) if backend.supports(scheme)]
        keys = compute_keys(schemes[0].index, trace)
        entries = kb.first_appearance_ids(keys)
        feeds = {
            "evaluate": lambda stream, chunk, exclude_writer: stream.evaluate(
                chunk, keys[chunk.start:chunk.end], exclude_writer
            ),
            "evaluate_ids": lambda stream, chunk, exclude_writer: stream.evaluate_ids(
                chunk,
                entries[chunk.start:chunk.end],
                blocks[chunk.start:chunk.end],
                exclude_writer,
            ),
        }
        for (via, feed), exclude_writer in itertools.product(
            feeds.items(), (False, True)
        ):
            stream = backend.group_stream(schemes, trace.num_nodes)
            summed = [(0, 0, 0, 0)] * len(schemes)
            for chunk in chunks:
                quads = feed(stream, chunk, exclude_writer)
                summed = [
                    tuple(a + b for a, b in zip(total, quad))
                    for total, quad in zip(summed, quads)
                ]
            for scheme, got in zip(schemes, summed):
                key = (scheme.full_name, exclude_writer)
                if key not in cache:
                    cache[key] = oracle.evaluate(scheme, trace, keys, exclude_writer)
                assert got == cache[key], (
                    f"backend {backend.name!r} group stream diverged from the "
                    f"python oracle through {via} on {scheme.full_name} over "
                    f"{trace.name} ({trace.num_nodes} nodes) cut at {cuts}"
                )


def _cuts(trace, drawn):
    """A one-event first chunk, a cut inside an open FORWARDED epoch when
    the trace has one, and the drawn cuts."""
    cuts = {1, *drawn}
    try:
        cuts.add(_open_epoch_cut(trace))
    except AssertionError:
        pass
    return sorted(cut for cut in cuts if 0 < cut < len(trace))


@pytest.fixture(scope="module", params=kernel_backend_names())
def backend(request):
    """Every registered kernel backend; unavailable ones skip.

    Skipping (not failing) mirrors the degraded environments the registry
    is designed for: a machine with no compiler runs the python rows and
    skips the native ones, exactly like the CI ``REPRO_KERNEL=python`` leg.
    """
    instance = get_kernel_backend(request.param)
    if not instance.available():
        pytest.skip(f"kernel backend {request.param!r} unavailable here")
    return instance


@pytest.fixture(
    scope="module",
    params=[name for name in kernel_backend_names() if name != "python"],
)
def fast_backend(request):
    """Every registered backend but the normative one, for the checks that
    would only compare the oracle with itself (the python group stream is
    one oracle stream per member: :class:`TestPythonGroupStream` checks that
    directly)."""
    instance = get_kernel_backend(request.param)
    if not instance.available():
        pytest.skip(f"kernel backend {request.param!r} unavailable here")
    return instance


class TestBackendConformance:
    @pytest.mark.parametrize("num_nodes", WIDTHS)
    def test_all_widths_all_families_all_modes(self, backend, num_nodes):
        trace = make_random_trace(
            num_nodes=num_nodes,
            num_events=_EVENTS[num_nodes],
            num_blocks=max(6, _EVENTS[num_nodes] // 12),
            seed=f"kernel-conformance-{num_nodes}",
        )
        assert_backend_conforms(backend, trace)

    def test_empty_trace(self, backend):
        trace = make_random_trace(num_nodes=16, num_events=0, seed="conf-empty")
        scheme = parse_scheme("pas(pid+add4)2[direct]")
        keys = compute_keys(scheme.index, trace)
        assert len(backend.predict(scheme, trace, keys)) == 0
        assert backend.evaluate(scheme, trace, keys, True) == (0, 0, 0, 0)

    def test_probe_fingerprint_matches_oracle(self, backend):
        # The same gate available() applies to compiled engines, asserted
        # here for every backend so the probe battery itself is exercised.
        assert kernel_probe_fingerprint(backend) == kernel_probe_fingerprint(
            get_kernel_backend("python")
        )


# ----------------------------------------------------------------------
# Hypothesis: arbitrary traces and schemes, every backend
# ----------------------------------------------------------------------

# writer/pc/home/block/truth tuples on an 8-node machine (idiom shared with
# tests/core/test_vectorized_equivalence.py)
epoch_strategy = st.tuples(
    st.integers(0, 7),
    st.integers(0, 50),
    st.integers(0, 7),
    st.integers(0, 12),
    st.integers(0, 0xFF),
)

index_strategy = st.builds(
    IndexSpec,
    use_pid=st.booleans(),
    pc_bits=st.integers(0, 4),
    use_dir=st.booleans(),
    addr_bits=st.integers(0, 4),
)


@st.composite
def scheme_strategy(draw):
    function = draw(st.sampled_from(["last", "union", "inter", "overlap", "pas"]))
    # last-prediction and overlap-last have depth 1 by definition
    depth = 1 if function in ("last", "overlap") else draw(st.integers(1, 3))
    return Scheme(
        function=function,
        index=draw(index_strategy),
        depth=depth,
        update=draw(st.sampled_from(list(UpdateMode))),
    )


def _trace_from_epochs(epochs):
    cleaned = [
        (writer, pc, home, block, truth & 0xFF & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    return SharingTrace.from_epochs(8, cleaned, name="kernel-conformance-hyp")


class TestHypothesisConformance:
    @given(epochs=st.lists(epoch_strategy, max_size=40), scheme=scheme_strategy())
    def test_prediction_stream_bit_identical(self, backend, epochs, scheme):
        trace = _trace_from_epochs(epochs)
        keys = compute_keys(scheme.index, trace)
        chosen = backend if backend.supports(scheme) else (
            get_kernel_backend("python")
        )
        oracle = get_kernel_backend("python")
        assert trace.layout.to_int_list(
            chosen.predict(scheme, trace, keys)
        ) == trace.layout.to_int_list(oracle.predict(scheme, trace, keys))

    @given(
        epochs=st.lists(epoch_strategy, min_size=1, max_size=40),
        scheme=scheme_strategy(),
        exclude_writer=st.booleans(),
    )
    def test_fused_evaluate_matches_predict_then_score(
        self, backend, epochs, scheme, exclude_writer
    ):
        trace = _trace_from_epochs(epochs)
        keys = compute_keys(scheme.index, trace)
        chosen = backend if backend.supports(scheme) else (
            get_kernel_backend("python")
        )
        predictions = chosen.predict(scheme, trace, keys)
        assert chosen.evaluate(scheme, trace, keys, exclude_writer) == (
            kb.score_predictions(predictions, trace, exclude_writer)
        )


#: traces for the chunked feeds: scalar words (8, 16), a full word (64),
#: one node past it (65) and a packed pair of words (80)
_CHUNKED_TRACES = {
    8: make_random_trace(num_nodes=8, num_events=48, num_blocks=5, seed="kernel-chunked-8"),
    16: make_random_trace(
        num_nodes=16, num_events=64, num_blocks=6, seed="kernel-chunked-16"
    ),
    64: make_random_trace(
        num_nodes=64, num_events=16, num_blocks=3, seed="kernel-chunked-64"
    ),
    65: make_random_trace(
        num_nodes=65, num_events=16, num_blocks=3, seed="kernel-chunked-65"
    ),
    80: make_random_trace(
        num_nodes=80, num_events=24, num_blocks=4, seed="kernel-chunked-80"
    ),
}


class TestChunkedConformance:
    @pytest.mark.parametrize("num_nodes", sorted(_CHUNKED_TRACES))
    @given(data=st.data())
    def test_chunked_stream_matches_one_chunk(self, fast_backend, num_nodes, data):
        trace = _CHUNKED_TRACES[num_nodes]
        drawn = data.draw(
            st.sets(st.integers(1, len(trace) - 1), max_size=6), label="cuts"
        )
        cuts = sorted({1, _open_epoch_cut(trace), *drawn})
        assert_stream_conforms(fast_backend, trace, cuts)


_GROUP_ORACLE_CACHE = {num_nodes: {} for num_nodes in _CHUNKED_TRACES}


@st.composite
def wide_trace_strategy(draw, num_nodes):
    """An arbitrary valid trace on a ``num_nodes`` machine."""
    epochs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, 50),
                st.integers(0, num_nodes - 1),
                st.integers(0, 6),
                st.integers(0, (1 << num_nodes) - 1),
            ),
            min_size=2,
            max_size=24,
        )
    )
    cleaned = [
        (writer, pc, home, block, truth & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    return SharingTrace.from_epochs(
        num_nodes, cleaned, name=f"group-conformance-hyp-{num_nodes}"
    )


class TestGroupConformance:
    @pytest.mark.parametrize("num_nodes", sorted(_CHUNKED_TRACES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_group_stream_matches_oracle(self, fast_backend, num_nodes, data):
        trace = _CHUNKED_TRACES[num_nodes]
        drawn = data.draw(
            st.sets(st.integers(1, len(trace) - 1), max_size=6), label="cuts"
        )
        assert_group_conforms(
            fast_backend, trace, _cuts(trace, drawn), _GROUP_ORACLE_CACHE[num_nodes]
        )

    @pytest.mark.parametrize("num_nodes", sorted(_CHUNKED_TRACES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_group_stream_matches_oracle_on_arbitrary_traces(
        self, fast_backend, num_nodes, data
    ):
        trace = data.draw(wide_trace_strategy(num_nodes), label="trace")
        drawn = data.draw(
            st.sets(st.integers(1, len(trace) - 1), max_size=4), label="cuts"
        )
        assert_group_conforms(fast_backend, trace, _cuts(trace, drawn))

    def test_empty_chunk_scores_nothing(self, backend):
        trace = make_random_trace(num_nodes=16, num_events=0, seed="group-empty")
        schemes = group_schemes(UpdateMode.FORWARDED)
        stream = backend.group_stream(schemes, trace.num_nodes)
        keys = compute_keys(schemes[0].index, trace)
        assert stream.evaluate(trace, keys, True) == [(0, 0, 0, 0)] * len(schemes)


class TestPythonGroupStream:
    """The oracle's group stream is one oracle stream per member; the
    conformance rows above would only compare the oracle with itself."""

    @pytest.mark.parametrize("num_nodes", sorted(_CHUNKED_TRACES))
    @pytest.mark.parametrize("exclude_writer", [False, True], ids=["incl", "excl"])
    @pytest.mark.parametrize("mode", list(UpdateMode), ids=lambda mode: mode.value)
    def test_chunked_members_score_as_one_chunk_streams(
        self, mode, exclude_writer, num_nodes
    ):
        """Fed the trace cut into chunks, through raw keys and through ids,
        every member's summed quads equal a fresh one-member oracle
        stream's over the whole trace as one chunk."""
        trace = _CHUNKED_TRACES[num_nodes]
        schemes = group_schemes(mode)
        keys = compute_keys(schemes[0].index, trace)
        entries = kb.first_appearance_ids(keys)
        blocks = kb.first_appearance_ids(trace.block)
        python = get_kernel_backend("python")
        by_keys = python.group_stream(schemes, trace.num_nodes)
        by_ids = python.group_stream(schemes, trace.num_nodes)
        summed = {"keys": [(0, 0, 0, 0)] * len(schemes)}
        summed["ids"] = summed["keys"]
        # a one-event chunk, then a cut inside an open forwarded epoch
        for chunk in _chunks_at(trace, _cuts(trace, ())):
            window = slice(chunk.start, chunk.end)
            fed = {
                "keys": by_keys.evaluate(chunk, keys[window], exclude_writer),
                "ids": by_ids.evaluate_ids(
                    chunk, entries[window], blocks[window], exclude_writer
                ),
            }
            for via, quads in fed.items():
                summed[via] = [
                    tuple(a + b for a, b in zip(total, quad))
                    for total, quad in zip(summed[via], quads)
                ]
        want = [
            kb.PythonKernelStream(scheme, trace.num_nodes).evaluate(
                trace, keys, exclude_writer
            )
            for scheme in schemes
        ]
        assert summed == {"keys": want, "ids": want}


# ----------------------------------------------------------------------
# Word boundaries: the bits past the last node
# ----------------------------------------------------------------------

#: the families whose native state is per-node bit planes, on a coarse
#: index so every entry absorbs many deliveries
_PLANE_SCHEMES = tuple(
    f"{function}(add2){depth}[{mode.value}]"
    for function, depth in (("pas", 1), ("pas", 3), ("cunion", 2), ("cinter", 2))
    for mode in UpdateMode
)


def _padding_set(trace):
    """``trace`` as one chunk whose truth and inval bitmaps also set every
    bit past the last node that their words hold."""
    layout = trace.layout
    padding = ~layout.mask
    return TraceChunk(
        num_nodes=trace.num_nodes,
        start=0,
        writer=trace.writer,
        pc=trace.pc,
        home=trace.home,
        block=trace.block,
        truth=trace.truth | padding,
        inval=trace.inval | padding,
        has_inval=trace.has_inval,
        close=trace.close,
        name=f"{trace.name}-padded",
    )


@pytest.fixture(scope="module")
def native():
    instance = get_kernel_backend("native")
    if not instance.available():
        pytest.skip("native kernel backend unavailable here")
    return instance


class TestWordBoundaries:
    @pytest.mark.parametrize("num_nodes", (8, 65, 80))
    @pytest.mark.parametrize("padded", (False, True), ids=("clean", "padding-set"))
    def test_plane_families_never_predict_past_the_last_node(
        self, native, num_nodes, padded
    ):
        """Raw rows equal the oracle's and keep every bit past ``num_nodes``
        clear, also when the feedback sets those bits (which the oracle's
        per-node state never reads)."""
        trace = _CHUNKED_TRACES[num_nodes]
        chunk = _padding_set(trace) if padded else _chunks_at(trace, [])[0]
        layout = trace.layout
        oracle = get_kernel_backend("python")
        for text in _PLANE_SCHEMES:
            scheme = parse_scheme(text)
            keys = compute_keys(scheme.index, trace)
            got = native.stream(scheme, num_nodes).feed(chunk, keys)
            want = oracle.stream(scheme, num_nodes).feed(chunk, keys)
            assert layout.to_int_list(got) == layout.to_int_list(want), text
            assert not layout.has_excess_bits(got), f"{text} predicted a padding bit"

    def test_c_depth_cap_is_the_supported_depth(self):
        """The class scratch the C loop sizes by its cap must hold every
        depth :meth:`NativeKernelBackend.supports` admits."""
        [cap] = re.findall(r"#define MAX_PAS_DEPTH (\d+)", C_SOURCE)
        assert int(cap) == MAX_NATIVE_PAS_DEPTH
        native = get_kernel_backend("native")
        index = IndexSpec(use_pid=True, addr_bits=4)
        assert native.supports(Scheme("pas", index, depth=MAX_NATIVE_PAS_DEPTH))
        assert not native.supports(Scheme("pas", index, depth=MAX_NATIVE_PAS_DEPTH + 1))

    def test_group_past_the_depth_cap_is_refused(self, native):
        """A group stream built around :meth:`supports` fails loudly rather
        than overrun the class scratch."""
        scheme = Scheme(
            "pas", IndexSpec(use_pid=True, addr_bits=4), depth=MAX_NATIVE_PAS_DEPTH + 1
        )
        trace = _CHUNKED_TRACES[8]
        stream = native.group_stream([scheme], trace.num_nodes)
        with pytest.raises(ValueError, match="beyond the compiled cap"):
            stream.evaluate(trace, compute_keys(scheme.index, trace), True)


# ----------------------------------------------------------------------
# Key numbering: the compiled pass vs numpy
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _mix64(key: int) -> int:
    """The C numbering's slot hash (splitmix64's finalizer), in Python."""
    x = key & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _colliding_keys(count: int, bits: int) -> np.ndarray:
    """``count`` keys whose hashes agree in their low ``bits`` bits, so they
    share a slot in every table up to ``2**bits`` slots."""
    keys = []
    candidate = -(1 << 40)
    while len(keys) < count:
        if _mix64(candidate) & ((1 << bits) - 1) == 0:
            keys.append(candidate)
        candidate += 1
    return np.array(keys, dtype=np.int64)


#: adversarial key streams for the numbering
ADVERSARIAL_KEYS = {
    "empty": np.zeros(0, dtype=np.int64),
    "all-equal": np.full(300, 7, dtype=np.int64),
    "all-distinct": np.arange(3000, 0, -1, dtype=np.int64),
    "negative": np.array([-1, -5, -1, 0, -(1 << 63), 3, -5, -(1 << 63)], dtype=np.int64),
    "past-32-bits": np.array(
        [1 << 32, 1, (1 << 32) + 1, 1 << 32, (1 << 63) - 1, 1, (1 << 40)] * 3,
        dtype=np.int64,
    ),
    # one slot in every table up to the default 1024 slots, repeated in
    # reverse so every probe walks the whole cluster
    "hash-collisions": np.concatenate(
        [_colliding_keys(120, 10), _colliding_keys(120, 10)[::-1]]
    ),
}


def _reference_ids(keys: np.ndarray) -> np.ndarray:
    """First-appearance ids by a dict, the definition spelled out."""
    seen = {}
    return np.array(
        [seen.setdefault(key, len(seen)) for key in keys.tolist()], dtype=np.int32
    )


@pytest.fixture(scope="module")
def library():
    built = compiled_library()
    if built is None:
        pytest.skip("the C kernel library cannot be built here")
    return built


def _numbered_at(library, keys, cuts, slots=4):
    """``keys`` numbered by one carried numbering, fed cut at ``cuts``."""
    numbering = KeyNumbering(library, slots)
    bounds = [0, *cuts, len(keys)]
    ids = [numbering(keys[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    assert len(numbering) == len(np.unique(keys))
    return np.concatenate(ids)


class TestKeyNumbering:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_KEYS))
    def test_normative_numbering_is_first_appearance(self, name):
        keys = ADVERSARIAL_KEYS[name]
        want = kb.first_appearance_ids(keys)
        assert want.dtype == np.int32
        assert np.array_equal(want, _reference_ids(keys))

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_KEYS))
    def test_backend_numbering_matches_numpy(self, backend, name):
        keys = ADVERSARIAL_KEYS[name]
        got = backend.first_appearance_ids(keys)
        assert got.dtype == np.int32
        assert np.array_equal(got, kb.first_appearance_ids(keys))

    def test_backend_numbers_stream_after_stream(self, backend):
        """One backend numbers many streams, the native one in one reused
        table: each from scratch, also around a stream with more distinct
        keys than the largest table a stream starts with."""
        outgrows = np.random.default_rng(7).integers(0, 1 << 40, size=70_000)
        streams = [ADVERSARIAL_KEYS[name] for name in sorted(ADVERSARIAL_KEYS)]
        for keys in [*streams, outgrows, *streams]:
            got = backend.first_appearance_ids(keys)
            assert np.array_equal(got, kb.first_appearance_ids(keys))

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_KEYS))
    def test_carried_numbering_at_cuts(self, library, name):
        keys = ADVERSARIAL_KEYS[name]
        want = kb.first_appearance_ids(keys)
        for cuts in ([], [len(keys) // 2], sorted({1, len(keys) // 3, len(keys) - 1})):
            cuts = [cut for cut in cuts if 0 < cut < len(keys)]
            assert np.array_equal(_numbered_at(library, keys, cuts), want), cuts

    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_cuts_match_numpy(self, library, data):
        keys = np.array(
            data.draw(
                st.lists(
                    st.integers(-(1 << 63), (1 << 63) - 1) | st.integers(-4, 40),
                    max_size=200,
                ),
                label="keys",
            ),
            dtype=np.int64,
        )
        cuts = sorted(
            data.draw(st.sets(st.integers(1, max(1, len(keys) - 1)), max_size=6),
                      label="cuts")
        )
        cuts = [cut for cut in cuts if cut < len(keys)]
        want = _reference_ids(keys)
        assert np.array_equal(kb.first_appearance_ids(keys), want)
        assert np.array_equal(_numbered_at(library, keys, cuts), want)


# ----------------------------------------------------------------------
# Registration alone brings a backend under test
# ----------------------------------------------------------------------


class _BitFlippingBackend:
    """A deliberately nonconforming backend: flips node 0 of every event."""

    name = "bitflip-test"

    def available(self):
        return True

    def supports(self, scheme):
        return True

    def predict(self, scheme, trace, keys):
        python = get_kernel_backend("python")
        predictions = python.predict(scheme, trace, keys)
        if len(trace):
            layout = trace.layout
            flipped = layout.from_int_iter(
                (value ^ 1 for value in layout.to_int_list(predictions)),
                count=len(trace),
            )
            return flipped
        return predictions

    def evaluate(self, scheme, trace, keys, exclude_writer):
        return kb.score_predictions(
            self.predict(scheme, trace, keys), trace, exclude_writer
        )

    def stream(self, scheme, num_nodes):
        return _BitFlippingStream(get_kernel_backend("python").stream(scheme, num_nodes))

    def group_stream(self, schemes, num_nodes):
        return _BitFlippingGroupStream(
            [self.stream(scheme, num_nodes) for scheme in schemes]
        )


class _BitFlippingStream:
    """The bit-flipping backend's resumable state: the oracle's, corrupted."""

    def __init__(self, inner):
        self.inner = inner

    def feed(self, chunk, keys):
        layout = chunk.layout
        return layout.from_int_iter(
            (value ^ 1 for value in layout.to_int_list(self.inner.feed(chunk, keys))),
            count=len(chunk),
        )

    def evaluate(self, chunk, keys, exclude_writer):
        return kb.score_predictions(self.feed(chunk, keys), chunk, exclude_writer)


class _BitFlippingGroupStream:
    """The bit-flipping backend's group state: one corrupted stream per member."""

    def __init__(self, streams):
        self.streams = streams

    def evaluate(self, chunk, keys, exclude_writer):
        return [stream.evaluate(chunk, keys, exclude_writer) for stream in self.streams]

    def evaluate_ids(self, chunk, entries, blocks, exclude_writer):
        return self.evaluate(chunk, entries, exclude_writer)


class _IdsFlippingBackend(_BitFlippingBackend):
    """A backend whose group streams give the oracle's quads through
    ``evaluate`` and flipped ones through ``evaluate_ids``."""

    name = "idsflip-test"

    def group_stream(self, schemes, num_nodes):
        return _IdsFlippingGroupStream(
            get_kernel_backend("python").group_stream(schemes, num_nodes),
            super().group_stream(schemes, num_nodes),
        )


class _IdsFlippingGroupStream:
    def __init__(self, honest, flipping):
        self.honest = honest
        self.flipping = flipping

    def evaluate(self, chunk, keys, exclude_writer):
        return self.honest.evaluate(chunk, keys, exclude_writer)

    def evaluate_ids(self, chunk, entries, blocks, exclude_writer):
        return self.flipping.evaluate_ids(chunk, entries, blocks, exclude_writer)


class _DeepestHistoryBackend(kb.PythonKernelBackend):
    """A backend wrong only in multi-member groups: every PAs member reads
    the history at the group's deepest PAs depth (a shallower member
    indexing its counters by the deepest level's classes).  Everything
    else is the oracle's."""

    name = "deepest-history-test"

    def group_stream(self, schemes, num_nodes):
        deepest = max(
            (scheme.depth for scheme in schemes if scheme.function == "pas"), default=1
        )
        return super().group_stream(
            [
                dataclasses.replace(scheme, depth=deepest)
                if scheme.function == "pas"
                else scheme
                for scheme in schemes
            ],
            num_nodes,
        )


@pytest.fixture
def scratch_registration():
    """Register a backend for one test, guaranteed unregistered after."""
    added = []

    def _register(instance):
        added.append(instance.name)
        register_kernel_backend(instance)
        return instance

    try:
        yield _register
    finally:
        for name in added:
            kb._REGISTRY.pop(name, None)
            kb._warned_unavailable.discard(name)


class TestHarnessCatchesNonconformance:
    def test_registered_backend_is_enumerated(self, scratch_registration):
        scratch_registration(_BitFlippingBackend())
        assert "bitflip-test" in kernel_backend_names()

    def test_conformance_harness_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        trace = make_random_trace(num_nodes=8, num_events=60, seed="bitflip")
        with pytest.raises(AssertionError, match="diverged from the python oracle"):
            assert_backend_conforms(backend, trace)

    def test_probe_fingerprint_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        assert not kb.kernel_selfcheck(backend)

    def test_selfcheck_flags_divergence_in_groups_alone(self, scratch_registration):
        backend = scratch_registration(_DeepestHistoryBackend())
        oracle = get_kernel_backend("python")
        # the one-member battery and the numbering pass; the probe group fails
        assert kernel_probe_fingerprint(backend) == kernel_probe_fingerprint(oracle)
        assert kb._numbers_probe_keys(backend)
        assert not kb._runs_probe_group(backend)
        assert not kb.kernel_selfcheck(backend)

    def test_probe_group_shares_what_only_groups_share(self):
        schemes = [parse_scheme(text) for text in kb.PROBE_GROUP]
        assert len({(scheme.index, scheme.update) for scheme in schemes}) == 1
        functions = [scheme.function for scheme in schemes]
        assert {"union", "inter", "overlap", "cunion", "cinter"} <= set(functions)
        assert len({scheme.depth for scheme in schemes if scheme.function == "pas"}) >= 2
        assert len({scheme.depth for scheme in schemes if scheme.function != "pas"}) >= 2

    def test_native_passes_its_selfcheck_where_it_builds(self):
        """A compiler that builds the library must give a backend that passes
        the self-check: a failure would otherwise only skip the native rows."""
        if compiled_library() is None:
            pytest.skip("the C kernel library cannot be built here")
        assert kb.kernel_selfcheck(get_kernel_backend("native"))
        assert get_kernel_backend("native").available()

    def test_chunked_harness_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        trace = make_random_trace(num_nodes=8, num_events=60, seed="bitflip")
        cuts = sorted({1, _open_epoch_cut(trace), 30})
        with pytest.raises(AssertionError, match="diverged from the python oracle"):
            assert_stream_conforms(backend, trace, cuts)

    def test_group_harness_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        trace = make_random_trace(num_nodes=8, num_events=60, seed="bitflip")
        with pytest.raises(AssertionError, match="diverged from the python oracle"):
            assert_group_conforms(backend, trace, _cuts(trace, {30}))

    def test_group_harness_flags_divergence_through_ids_alone(
        self, scratch_registration
    ):
        backend = scratch_registration(_IdsFlippingBackend())
        trace = make_random_trace(num_nodes=8, num_events=60, seed="bitflip")
        with pytest.raises(AssertionError, match="oracle through evaluate_ids"):
            assert_group_conforms(backend, trace, _cuts(trace, {30}))


# ----------------------------------------------------------------------
# Registry behavior: resolution, degradation, telemetry
# ----------------------------------------------------------------------


class _UnavailableBackend:
    name = "unavailable-test"

    def available(self):
        return False

    def supports(self, scheme):  # pragma: no cover - must never be reached
        raise AssertionError("unavailable backend must not serve evaluations")

    predict = evaluate = supports


@pytest.fixture
def clean_selection(monkeypatch):
    """No env var, no override -- and both restored afterwards."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    previous = set_kernel_backend(None)
    try:
        yield monkeypatch
    finally:
        set_kernel_backend(previous)


class TestRegistryResolution:
    def test_unknown_backend_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_kernel_backend("no-such-backend")

    def test_auto_prefers_native_when_available(self, clean_selection):
        resolved = resolve_kernel_backend()
        native = get_kernel_backend("native")
        assert resolved.name == ("native" if native.available() else "python")

    def test_env_var_beats_auto(self, clean_selection):
        clean_selection.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel_backend().name == "python"

    def test_override_beats_env_var(self, clean_selection):
        if not get_kernel_backend("native").available():
            pytest.skip("needs a second available backend to distinguish")
        clean_selection.setenv("REPRO_KERNEL", "python")
        previous = set_kernel_backend("native")
        try:
            assert resolve_kernel_backend().name == "native"
            # an explicit choice beats both the override and the env var
            assert resolve_kernel_backend("python").name == "python"
        finally:
            set_kernel_backend(previous)

    def test_set_kernel_backend_returns_previous(self, clean_selection):
        first = set_kernel_backend("python")
        assert first is None
        second = set_kernel_backend(None)
        assert second == "python"

    def test_case_and_whitespace_normalized(self, clean_selection):
        clean_selection.setenv("REPRO_KERNEL", "  PYTHON ")
        assert resolve_kernel_backend().name == "python"

    def test_unavailable_named_backend_degrades_to_python(
        self, clean_selection, scratch_registration, caplog
    ):
        scratch_registration(_UnavailableBackend())
        clean_selection.setenv("REPRO_KERNEL", "unavailable-test")
        with caplog.at_level(logging.WARNING, logger="repro.core.kernel_backends"):
            assert resolve_kernel_backend().name == "python"
            warned = [
                record
                for record in caplog.records
                if "unavailable" in record.getMessage()
            ]
            assert len(warned) == 1
            # second resolution: same degradation, no second warning
            assert resolve_kernel_backend().name == "python"
            warned = [
                record
                for record in caplog.records
                if "unavailable" in record.getMessage()
            ]
            assert len(warned) == 1


class TestRoutedEntryPoints:
    def test_unsupported_scheme_falls_through_to_python(self, clean_selection):
        native = get_kernel_backend("native")
        if not native.available():
            pytest.skip("native kernel backend unavailable here")
        set_kernel_backend("native")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            # a ring wider than the native layout's uint8 cursors: native
            # declines it, the routed call runs the oracle, and the
            # fallback is counted.
            scheme = parse_scheme("union(pid+add4)256[forwarded]")
            assert not native.supports(scheme)
            trace = make_random_trace(num_nodes=8, num_events=80, seed="fallback")
            keys = compute_keys(scheme.index, trace)
            python = get_kernel_backend("python")
            assert trace.layout.to_int_list(
                kernel_predict(scheme, trace, keys)
            ) == trace.layout.to_int_list(python.predict(scheme, trace, keys))
            assert telemetry.counters.get("kernel.fallbacks", 0) == 1
            assert telemetry.counters.get("kernel.backend.python", 0) == 1
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)

    def test_declined_member_runs_on_python_inside_the_group(self, clean_selection):
        native = get_kernel_backend("native")
        if not native.available():
            pytest.skip("native kernel backend unavailable here")
        set_kernel_backend("native")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            texts = ["pas(pid+add4)2", "union(pid+add4)256", "cinter(pid+add4)2"]
            schemes = [parse_scheme(f"{text}[forwarded]") for text in texts]
            assert [native.supports(scheme) for scheme in schemes] == [
                True, False, True
            ]
            trace = make_random_trace(num_nodes=8, num_events=80, seed="fallback")
            keys = compute_keys(schemes[0].index, trace)
            stream = kernel_group_stream(schemes, trace.num_nodes)
            python = get_kernel_backend("python")
            assert stream.evaluate(trace, keys, True) == [
                python.evaluate(scheme, trace, keys, True) for scheme in schemes
            ]
            assert telemetry.counters["kernel.fallbacks"] == 1
            assert telemetry.counters["kernel.backend.native"] == 1
            assert telemetry.counters["kernel.backend.python"] == 1
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)

    def test_routed_calls_attribute_backend_in_telemetry(self, clean_selection):
        set_kernel_backend("python")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            scheme = parse_scheme("pas(pid+add4)2[direct]")
            trace = make_random_trace(num_nodes=8, num_events=40, seed="telemetry")
            keys = compute_keys(scheme.index, trace)
            kernel_predict(scheme, trace, keys)
            kernel_evaluate(scheme, trace, keys)
            assert telemetry.counters["kernel.backend.python"] == 2
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)

    def test_probe_schemes_cover_all_modes_and_families(self):
        # Guard the probe battery itself: if it ever shrinks, available()'s
        # self-check gate weakens silently.
        parsed = [parse_scheme(text) for text in PROBE_SCHEMES]
        assert {scheme.update for scheme in parsed} == set(UpdateMode)
        functions = {scheme.function for scheme in parsed}
        assert {"last", "union", "inter", "overlap", "pas"} <= functions
        assert functions & {"cunion", "cinter"}, (
            "the battery must include a confidence-gated scheme"
        )
