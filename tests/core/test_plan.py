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
  traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plan as plan_module
from repro.core.indexing import IndexSpec
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import parse_scheme
from repro.core.vectorized import evaluate_scheme_fast
from repro.telemetry import Telemetry, set_telemetry
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
