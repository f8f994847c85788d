"""The sweep planner: grouping, key-stream sharing, and bit-identicality.

The planner's load-bearing promises, each pinned here:

* grouping is deterministic bookkeeping -- same schemes in, same plan out,
  results always in caller order;
* key streams are computed exactly once per (trace chunk, index group),
  counted at the planner's ``compute_keys`` (the acceptance probe);
* every function family joins one group pass per (index group, update
  mode, trace), and the parallel scheduler's cuts fall on index-group
  boundaries;
* shared group passes change wall-clock only: :func:`evaluate_plan` is
  bit-identical to per-scheme :func:`evaluate_scheme_fast` across every
  function family and update mode, and to itself at any chunking of the
  traces;
* the partition memo changes wall-clock only: batches built so that key
  partitions repeat give every member the quad of its one-scheme plan and
  of the oracle fed raw keys, under both kernels, on resident traces
  (where the memo answers) and multi-chunk sources (where it stays off),
  even when every digest collides;
* the lanes change wall-clock only: at 1, 2 and 3 lanes a call gives the
  same results, ``on_result`` sequence and ``plan.*`` counts, raises what
  one lane raises, and leaves no thread behind; one lane starts none.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel_backends as kernel_backends
import repro.core.kernel_native as kernel_native
import repro.core.plan as plan_module
from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import parse_scheme
from repro.core.vectorized import compute_keys, evaluate_scheme_fast
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import ResidentTraceSource
from tests.conftest import make_random_trace

#: every function family and every update mode, spread over three specs
ALL_FAMILY_SCHEMES = [
    "last(pid+pc4)1[direct]",
    "union(pid+pc4)4[ordered]",
    "inter(pid+pc4)2[direct]",
    "overlap(pid+pc4)1[forwarded]",
    "pas(pid+pc4)2[direct]",
    "cunion(pid+pc4)2[direct]",
    "last(add6)1[direct]",
    "union(add6)3[forwarded]",
    "cinter(add6)2[forwarded]",
    "inter(dir)2[ordered]",
]


@pytest.fixture(scope="module")
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=160, num_blocks=12, seed="plan-a"),
        make_random_trace(num_nodes=8, num_events=110, num_blocks=9, seed="plan-b"),
    ]


@pytest.fixture()
def sink():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


class TestSchemeFamily:
    """Whatever its function family, a scheme rides its index group's one
    pass per update mode, beside a bitmap scheme of the same spec."""

    @pytest.mark.parametrize(
        "text,family",
        [
            ("last()1", "bitmap"),
            ("union(add4)2", "bitmap"),
            ("inter(pc4)2", "bitmap"),
            ("overlap(pid)1", "bitmap"),
            ("pas(pid+pc2)2", "pas"),
            ("cunion(add4)2", "sequential"),
            ("cinter(add4)2", "sequential"),
        ],
    )
    def test_families(self, text, family, traces, sink):
        scheme = parse_scheme(text)
        companion = parse_scheme(f"union({scheme.index.label})3")
        plan = SweepPlan([scheme, companion])
        assert plan.num_groups == 1
        assert plan.batch_boundaries() == [2]
        planned = evaluate_plan(plan, traces)
        assert sink.counters["plan.trace_passes"] == len(traces), family
        assert planned[0] == [evaluate_scheme_fast(scheme, trace) for trace in traces]


class TestSweepPlanGrouping:
    def test_groups_by_spec_in_first_appearance_order(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        assert plan.num_schemes == len(schemes)
        assert plan.num_groups == 3
        assert [group.spec for group in plan.groups] == [
            IndexSpec(use_pid=True, pc_bits=4),
            IndexSpec(addr_bits=6),
            IndexSpec(use_dir=True),
        ]

    def test_truncation_is_part_of_the_spec(self):
        # pc4 and pc8 read different key streams; they must not share a group
        plan = SweepPlan(
            [parse_scheme("last(pc4)1"), parse_scheme("last(pc8)1")]
        )
        assert plan.num_groups == 2

    def test_every_family_shares_one_group(self):
        texts = ["last(add6)1", "pas(add6)2", "union(add6)2", "cunion(add6)2"]
        plan = SweepPlan([parse_scheme(text) for text in texts])
        assert plan.num_groups == 1
        (group,) = plan.groups
        # members stay in caller order: no family split inside a group
        assert [member.position for member in group.members] == [0, 1, 2, 3]
        assert len(group) == 4
        assert plan.batch_boundaries() == [4]

    def test_order_is_a_permutation_of_caller_positions(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        assert sorted(plan.order()) == list(range(len(schemes)))

    def test_batch_boundaries_cover_the_plan(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        boundaries = plan.batch_boundaries()
        assert boundaries == sorted(boundaries)
        assert boundaries[-1] == plan.num_schemes

    def test_batch_boundaries_cut_at_groups_and_merge_singletons(self):
        # group sizes 1, 1, 3, 1, 2: the leading one-scheme groups merge
        # into one segment; every other cut is an index-group boundary
        texts = [
            "last(pid)1",
            "last(dir)1",
            "union(add4)2",
            "inter(add4)3",
            "pas(add4)2",
            "last(pc4)1",
            "union(pc2)2",
            "cinter(pc2)2",
        ]
        plan = SweepPlan([parse_scheme(text) for text in texts])
        assert [len(group) for group in plan.groups] == [1, 1, 3, 1, 2]
        assert plan.batch_boundaries() == [2, 5, 6, 8]

    def test_same_schemes_same_plan(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        assert SweepPlan(schemes).order() == SweepPlan(schemes).order()
        assert (
            SweepPlan(schemes).batch_boundaries()
            == SweepPlan(schemes).batch_boundaries()
        )

    def test_record_telemetry_surfaces_shape(self, sink):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        plan.record_telemetry(sink)
        assert sink.counters["plan.schemes"] == len(schemes)
        assert sink.counters["plan.index_groups"] == 3
        assert sink.gauges["plan.group_size"] == max(
            len(group) for group in plan.groups
        )


class TestKeyStreams:
    def test_exactly_one_key_computation_per_trace_and_group(
        self, traces, monkeypatch
    ):
        """The acceptance probe: a resident trace is one chunk, so the
        planner computes keys exactly traces x index groups times."""
        calls = []
        original = plan_module.compute_keys

        def counting(spec, chunk):
            calls.append(spec)
            return original(spec, chunk)

        monkeypatch.setattr(plan_module, "compute_keys", counting)
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        evaluate_plan(plan, traces)
        assert len(calls) == len(traces) * plan.num_groups


class TestEvaluatePlanBitIdentical:
    @pytest.mark.parametrize("exclude_writer", [True, False], ids=["excl", "incl"])
    def test_matches_per_scheme_evaluation(self, traces, exclude_writer):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        planned = evaluate_plan(
            SweepPlan(schemes), traces, exclude_writer=exclude_writer
        )
        for scheme, per_trace in zip(schemes, planned):
            expected = [
                evaluate_scheme_fast(scheme, trace, exclude_writer=exclude_writer)
                for trace in traces
            ]
            assert per_trace == expected, scheme.full_name

    def test_results_in_caller_order_regardless_of_grouping(self, traces):
        # interleave specs so plan order differs from caller order
        texts = [
            "last(add6)1",
            "last(pid)1",
            "union(add6)2",
            "union(pid)2",
            "inter(add6)2",
        ]
        schemes = [parse_scheme(text) for text in texts]
        plan = SweepPlan(schemes)
        assert plan.order() != list(range(len(schemes)))
        planned = evaluate_plan(plan, traces)
        for scheme, per_trace in zip(schemes, planned):
            assert per_trace == [
                evaluate_scheme_fast(scheme, trace) for trace in traces
            ]

    def test_on_result_fires_once_per_scheme_with_final_counts(self, traces):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        seen = {}
        results = evaluate_plan(
            SweepPlan(schemes),
            traces,
            on_result=lambda i, counts: seen.setdefault(i, counts),
        )
        assert sorted(seen) == list(range(len(schemes)))
        for position, counts in seen.items():
            assert counts == results[position]

    def test_empty_plan(self, traces):
        assert evaluate_plan(SweepPlan([]), traces) == []

    @settings(max_examples=25)
    @given(chunk_events=st.integers(1, 48))
    def test_any_chunking_matches_one_chunk(self, traces, chunk_events):
        """Carried bitmap history, still-open FORWARDED epochs and kernel
        tables cross chunk boundaries exactly: sources cut into windows of
        any size score like the resident traces read as one chunk each."""
        plan = SweepPlan([parse_scheme(text) for text in ALL_FAMILY_SCHEMES])
        sources = [
            ResidentTraceSource(trace, chunk_events=chunk_events) for trace in traces
        ]
        assert evaluate_plan(plan, sources) == evaluate_plan(plan, traces)


class TestSharedPasses:
    def test_one_bitmap_pass_per_mode_per_trace(self, traces, sink):
        # six schemes of every family on one spec in two modes: the whole
        # group costs one pass per (mode, trace), not one per scheme
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1[direct]",
                "union(add6)4[direct]",
                "inter(add6)2[direct]",
                "pas(add6)2[direct]",
                "union(add6)2[forwarded]",
                "cinter(add6)2[forwarded]",
            ]
        ]
        evaluate_plan(SweepPlan(schemes), traces)
        assert sink.counters["plan.trace_passes"] == 2 * len(traces)

    def test_pas_and_confidence_share_the_group_pass(self, traces, sink):
        schemes = [
            parse_scheme(text)
            for text in ["pas(add6)2[direct]", "cunion(add6)2[direct]"]
        ]
        evaluate_plan(SweepPlan(schemes), traces)
        assert sink.counters["plan.trace_passes"] == len(traces)

    def test_shared_window_gather_is_exact_for_mixed_depths(self, traces):
        # the union(add6)4 member forces the shared gather window to 4;
        # the depth-1 and depth-2 members must still reduce over exactly
        # their own prefix -- compare against isolated evaluation
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1[direct]",
                "union(add6)2[direct]",
                "union(add6)4[direct]",
                "overlap(add6)1[direct]",
            ]
        ]
        planned = evaluate_plan(SweepPlan(schemes), traces)
        for scheme, per_trace in zip(schemes, planned):
            assert per_trace == [
                evaluate_scheme_fast(scheme, trace) for trace in traces
            ], scheme.full_name

    def test_shared_pas_history_is_exact_for_mixed_depths(self, traces):
        # the depth-4 member sets the shared history register's width;
        # shallower members read its low bits through their own counters
        schemes = [
            parse_scheme(text)
            for text in [
                "pas(add6)1[forwarded]",
                "pas(add6)4[forwarded]",
                "pas(add6)2[forwarded]",
                "cinter(add6)3[forwarded]",
                "cunion(add6)1[forwarded]",
                "overlap(add6)1[forwarded]",
            ]
        ]
        planned = evaluate_plan(SweepPlan(schemes), traces)
        for scheme, per_trace in zip(schemes, planned):
            assert per_trace == [
                evaluate_scheme_fast(scheme, trace) for trace in traces
            ], scheme.full_name


# ----------------------------------------------------------------------
# The partition memo: repeated key partitions answered, never wrongly
# ----------------------------------------------------------------------

#: a batch whose key partitions repeat on :func:`memo_traces`: pc and addr
#: widths past the traces' pc and block ranges, ``dir`` folded into an
#: address that already fixes the home, ``pid`` vs ``pid+dir`` on the trace
#: whose home tracks the writer, one (function, depth) under every update
#: mode and at two depths, and a duplicate scheme
REPEATING_SCHEMES = (
    "union(add6)2[direct]",
    "union(add8)2[direct]",
    "union(add8)3[direct]",
    "union(dir+add8)2[forwarded]",
    "union(add12)2[ordered]",
    "inter(pc4)2[direct]",
    "inter(pc8)2[direct]",
    "inter(pc8)2[forwarded]",
    "pas(add4)2[forwarded]",
    "pas(add6)2[forwarded]",
    "pas(add8)1[forwarded]",
    "cinter(add6)2[direct]",
    "cunion(dir+add10)2[direct]",
    "last(pid)1[forwarded]",
    "last(pid+dir)1[forwarded]",
    "overlap(pid)1[ordered]",
    "overlap(pid+dir)1[ordered]",
    "last()1[direct]",
    "last()1[ordered]",
    "union(add6)2[direct]",
)


def _writer_homed(trace: SharingTrace) -> SharingTrace:
    """``trace`` with every event's home set to its writer."""
    epochs = [
        (writer, pc, writer, block, truth)
        for writer, pc, block, truth in zip(
            trace.writer.tolist(), trace.pc.tolist(), trace.block.tolist(),
            trace.layout.to_int_list(trace.truth),
        )
    ]
    return SharingTrace.from_epochs(trace.num_nodes, epochs, name=f"{trace.name}-homed")


@pytest.fixture(scope="module")
def memo_traces():
    """Two traces of one length (a partition of one can repeat in the
    other), blocks and pcs inside 4 bits, the second homed at its writers."""
    return [
        make_random_trace(num_nodes=8, num_events=160, num_blocks=12, seed="memo-a"),
        _writer_homed(
            make_random_trace(num_nodes=8, num_events=160, num_blocks=14, seed="memo-b")
        ),
    ]


def _oracle_counts(scheme, trace) -> ConfusionCounts:
    """The python oracle's one-scheme counts, fed raw keys."""
    quad = get_kernel_backend("python").evaluate(
        scheme, trace, compute_keys(scheme.index, trace), True
    )
    return ConfusionCounts(*quad)


@pytest.fixture(scope="module")
def memo_expected(memo_traces):
    return {
        text: [_oracle_counts(parse_scheme(text), trace) for trace in memo_traces]
        for text in set(REPEATING_SCHEMES)
    }


@pytest.fixture(params=["python", "native"])
def kernel(request):
    """Run the test under one kernel backend, restored afterwards."""
    if not get_kernel_backend(request.param).available():
        pytest.skip(f"kernel backend {request.param!r} unavailable here")
    previous = set_kernel_backend(request.param)
    yield request.param
    set_kernel_backend(previous)


class TestPartitionMemo:
    @pytest.mark.parametrize("chunk_events", [None, 1, 37], ids=["resident", "1", "37"])
    def test_repeated_partitions_match_one_scheme_plans(
        self, memo_traces, memo_expected, kernel, chunk_events, sink
    ):
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        traces = memo_traces if chunk_events is None else [
            ResidentTraceSource(trace, chunk_events=chunk_events)
            for trace in memo_traces
        ]
        planned = evaluate_plan(SweepPlan(schemes), traces)
        hits = sink.counters.get("plan.partition_hits", 0)
        for text, scheme, per_trace in zip(REPEATING_SCHEMES, schemes, planned):
            assert per_trace == memo_expected[text], text
            assert per_trace == [
                evaluate_plan(SweepPlan([scheme]), [trace])[0][0] for trace in traces
            ], text
        if chunk_events is None:
            assert hits > 0
        else:
            assert hits == 0

    @pytest.mark.parametrize(
        "texts,hits",
        [
            # add8 reads every block bit add6 does: the second group repeats
            (["union(add6)2", "union(add8)2"], 2),
            # a duplicate is answered inside its own group
            (["union(add6)2", "union(add6)2"], 2),
            # one partition, two depths and two modes: each runs once
            (["inter(pc4)2", "inter(pc8)3", "inter(pc8)2[forwarded]",
              "inter(pc4)2[forwarded]"], 2),
        ],
    )
    def test_hits_count_members_answered(self, memo_traces, kernel, texts, hits, sink):
        evaluate_plan(SweepPlan([parse_scheme(text) for text in texts]), memo_traces)
        assert sink.counters["plan.partition_hits"] == hits

    def test_writer_homed_trace_repeats_pid_as_pid_dir(self, memo_traces, kernel, sink):
        plan = SweepPlan([parse_scheme("last(pid)1"), parse_scheme("last(pid+dir)1")])
        evaluate_plan(plan, memo_traces[1:])
        assert sink.counters["plan.partition_hits"] == 1
        evaluate_plan(plan, memo_traces[:1])
        assert sink.counters["plan.partition_hits"] == 1

    def test_digest_collisions_are_confirmed_exactly(
        self, memo_traces, memo_expected, kernel, monkeypatch, sink
    ):
        """Every partition's digest collides: only the exact comparison of
        the numbered keys tells them apart."""
        monkeypatch.setattr(plan_module, "_partition_digest", lambda ids: bytes(16))
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        planned = evaluate_plan(SweepPlan(schemes), memo_traces)
        for text, per_trace in zip(REPEATING_SCHEMES, planned):
            assert per_trace == memo_expected[text], text
        assert sink.counters["plan.partition_hits"] > 0

    @pytest.mark.parametrize("selection", ["python", "failed-selfcheck"])
    def test_python_kernel_numbers_in_numpy(
        self, memo_traces, memo_expected, monkeypatch, selection, sink
    ):
        """A run that resolves to the python kernel, chosen or after the
        native build fails its self-check, numbers keys in numpy and never
        builds or calls compiled code; the memo answers exactly as ever."""

        def compiled(*args):
            raise AssertionError("compiled code reached from a python-kernel run")

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(kernel_native, "KeyNumbering", compiled)
        if selection == "python":
            monkeypatch.setattr(kernel_native, "compiled_library", compiled)
            choice = "python"
        else:
            native = kernel_native.NativeKernelBackend()
            monkeypatch.setitem(kernel_backends._REGISTRY, "native", native)
            monkeypatch.setattr(kernel_backends, "kernel_selfcheck", lambda _: False)
            choice = None  # auto: tries native first
        previous = set_kernel_backend(choice)
        try:
            schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
            planned = evaluate_plan(SweepPlan(schemes), memo_traces)
        finally:
            set_kernel_backend(previous)
        for text, per_trace in zip(REPEATING_SCHEMES, planned):
            assert per_trace == memo_expected[text], text
        assert sink.counters["plan.partition_hits"] > 0
        assert sink.counters["kernel.backend.python"] > 0
        assert "kernel.backend.native" not in sink.counters

    @settings(max_examples=30, deadline=None)
    @given(
        texts=st.lists(st.sampled_from(REPEATING_SCHEMES), min_size=1, max_size=10),
        chunk_events=st.sampled_from([None, 5, 160]),
    )
    def test_any_batch_matches_the_oracle(self, memo_traces, memo_expected, texts,
                                          chunk_events):
        traces = memo_traces if chunk_events is None else [
            ResidentTraceSource(trace, chunk_events=chunk_events)
            for trace in memo_traces
        ]
        planned = evaluate_plan(SweepPlan([parse_scheme(t) for t in texts]), traces)
        assert planned == [memo_expected[text] for text in texts]


# ----------------------------------------------------------------------
# Lanes: group passes run side by side, every result as at one lane
# ----------------------------------------------------------------------

#: the lane counts every lanes test compares
LANES = (1, 2, 3)


def _run_lanes(schemes, traces, lanes):
    """One call's results, ``on_result`` sequence and ``plan.*`` telemetry."""
    sink = Telemetry()
    previous = set_telemetry(sink)
    calls = []
    try:
        results = evaluate_plan(
            SweepPlan(schemes), traces,
            on_result=lambda position, counts: calls.append((position, counts)),
            lanes=lanes,
        )
    finally:
        set_telemetry(previous)
    return results, calls, sink


@pytest.fixture(scope="module")
def seed0_pair(tmp_path_factory):
    """Two committed seed-0 traces, loaded from a copy of ``data/traces``."""
    import shutil
    from pathlib import Path

    from repro.harness.runner import TraceSet

    cache = tmp_path_factory.mktemp("traces")
    data = Path(__file__).resolve().parents[2] / "data" / "traces"
    for path in data.iterdir():
        shutil.copy(path, cache / path.name)
    return TraceSet(seed=0, benchmarks=["ocean", "water"], cache_dir=cache).traces()


def _stratified(schemes, size):
    """``size`` schemes spread evenly over ``schemes``, in order."""
    return [schemes[index * len(schemes) // size] for index in range(size)]


class TestLanes:
    def _assert_lanes_agree(self, schemes, traces):
        base_results, base_calls, base_sink = _run_lanes(schemes, traces, 1)
        for lanes in LANES[1:]:
            results, calls, sink = _run_lanes(schemes, traces, lanes)
            assert results == base_results, lanes
            assert calls == base_calls, lanes
            for name in ("plan.trace_passes", "plan.partition_hits"):
                assert sink.counters.get(name) == base_sink.counters.get(name), name
            assert sink.gauges["plan.lanes"] == lanes
        return base_results

    def test_memo_traces_agree_at_every_lane_count(self, memo_traces, memo_expected):
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        results = self._assert_lanes_agree(schemes, memo_traces)
        assert results == [memo_expected[text] for text in REPEATING_SCHEMES]

    @pytest.mark.parametrize("update", ["direct", "forwarded"])
    def test_sweep_slices_agree_at_every_lane_count(self, seed0_pair, update):
        from repro.core.update import UpdateMode
        from repro.harness.experiments import sweep_schemes

        schemes = _stratified(sweep_schemes(UpdateMode(update), 16), 200)
        self._assert_lanes_agree(schemes, seed0_pair)

    def test_memo_repeats_are_answered_exactly_at_two_lanes(
        self, memo_traces, memo_expected, kernel, monkeypatch
    ):
        """The partition memo's checks, with passes running side by side:
        every member of the repeating batch gets the oracle's quad, also
        when every digest collides."""
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        expected = [memo_expected[text] for text in REPEATING_SCHEMES]
        results, _, sink = _run_lanes(schemes, memo_traces, 2)
        assert results == expected
        assert sink.counters["plan.partition_hits"] > 0
        for text, scheme in zip(REPEATING_SCHEMES, schemes):
            assert [
                evaluate_plan(SweepPlan([scheme]), [trace], lanes=2)[0][0]
                for trace in memo_traces
            ] == memo_expected[text], text
        monkeypatch.setattr(plan_module, "_partition_digest", lambda ids: bytes(16))
        results, _, sink = _run_lanes(schemes, memo_traces, 2)
        assert results == expected
        assert sink.counters["plan.partition_hits"] > 0

    def test_a_failing_pass_raises_as_at_one_lane(self, memo_traces, kernel):
        """A forwarded trace with has_inval on a block that has no open
        epoch, among consistent traces: every lane count raises what one
        lane raises, and no thread outlives the call."""
        good = memo_traces[0]
        broken = SharingTrace(
            num_nodes=good.num_nodes, writer=good.writer, pc=good.pc, home=good.home,
            block=good.block, truth=good.truth, inval=good.inval,
            has_inval=np.ones(len(good), dtype=bool), close=good.close,
        )
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        raised = []
        for lanes in LANES:
            threads = threading.active_count()
            with pytest.raises(Exception) as info:
                evaluate_plan(SweepPlan(schemes), [good, broken, good], lanes=lanes)
            assert threading.active_count() == threads
            raised.append((type(info.value), str(info.value)))
        assert raised == [raised[0]] * len(LANES)
        if kernel == "native":
            assert raised[0][0] is ValueError
            assert "no open epoch" in raised[0][1]

    def test_the_first_failure_in_hand_out_order_raises(self, memo_traces, monkeypatch):
        """A pool pass that fails late still wins over a later pass that
        fails at once on the calling thread, as at one lane."""

        class Failing:
            def __init__(self, message, delay):
                self.message, self.delay = message, delay

            def evaluate_ids(self, *args):
                time.sleep(self.delay)
                raise ValueError(self.message)

        monkeypatch.setattr(plan_module, "PASSES_PER_THREAD", 1)
        scheme = parse_scheme("union(add6)2[direct]")
        for lanes in (1, 2):
            streams = iter([Failing("first", 0.2), Failing("second", 0.0)])
            monkeypatch.setattr(
                plan_module, "kernel_group_stream", lambda schemes, nodes: next(streams)
            )
            with pytest.raises(ValueError, match="first"):
                evaluate_plan(SweepPlan([scheme]), memo_traces, lanes=lanes)

    def test_more_lanes_than_cpus_under_fast_switching(
        self, memo_traces, memo_expected, kernel
    ):
        """Eight lanes, the interpreter switching threads every microsecond:
        a quad settled into the wrong member, or lost, changes a result."""
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        expected = [memo_expected[text] for text in REPEATING_SCHEMES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert evaluate_plan(SweepPlan(schemes), memo_traces, lanes=8) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_a_call(self, memo_traces):
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        threads = threading.active_count()
        for lanes in LANES:
            evaluate_plan(SweepPlan(schemes), memo_traces, lanes=lanes)
            assert threading.active_count() == threads, lanes

    def test_one_lane_starts_no_thread(self, memo_traces, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started at one lane")

        monkeypatch.setattr(plan_module, "ThreadPoolExecutor", no_pool)
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        evaluate_plan(SweepPlan(schemes), memo_traces)
        evaluate_plan(SweepPlan(schemes), memo_traces, lanes=1)

    def test_lane_counters_sum_to_the_passes(self, memo_traces):
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        sources = [ResidentTraceSource(memo_traces[0], chunk_events=37), memo_traces[1]]
        for lanes in LANES:
            _, _, sink = _run_lanes(schemes, sources, lanes)
            counters = sink.counters
            assert (counters["plan.lane_passes"] + counters["plan.inline_passes"]
                    == counters["plan.trace_passes"])
            assert "plan.lane_wait_seconds" in sink.timers
            if lanes == 1:
                assert counters["plan.lane_passes"] == 0

    def test_engines_choose_their_lanes(self, memo_traces, monkeypatch, sink, kernel):
        """The vectorized engine, also as the parallel engine's in-process
        path, runs one lane per usable CPU on the native kernel and one on
        the pure-Python kernel, whose passes hold the GIL; the socket
        workers run one and start no thread."""
        import repro.engine.backends as engine_backends
        import repro.engine.transport as transport
        from repro.engine import ParallelEngine, VectorizedEngine

        lanes = 3 if kernel == "native" else 1
        schemes = [parse_scheme(text) for text in REPEATING_SCHEMES]
        monkeypatch.setattr(engine_backends, "usable_cpus", lambda: 3)
        VectorizedEngine().evaluate_batch(schemes, memo_traces)
        assert sink.gauges["plan.lanes"] == lanes
        del sink.gauges["plan.lanes"]
        ParallelEngine(jobs=1).evaluate_batch(schemes, memo_traces)
        assert sink.gauges["plan.lanes"] == lanes

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started in an engine worker")

        monkeypatch.setattr(plan_module, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(transport, "_WORKER_TRACES", list(memo_traces))
        del sink.gauges["plan.lanes"]
        transport._evaluate_payloads(schemes, True)
        assert sink.gauges["plan.lanes"] == 1
