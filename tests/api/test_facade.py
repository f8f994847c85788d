"""The `repro.api` facade delegates faithfully to the internals it wraps."""

import pytest

from repro import api
from repro.core.schemes import parse_scheme
from repro.engine.backends import ReferenceEngine, VectorizedEngine
from tests.conftest import make_random_trace


@pytest.fixture(scope="module")
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=200, num_blocks=12, seed="api-a"),
        make_random_trace(num_nodes=8, num_events=150, num_blocks=9, seed="api-b"),
    ]


class TestEvaluate:
    def test_matches_engine_evaluate(self, traces):
        scheme = parse_scheme("inter(pid+add4)2[direct]")
        expected = ReferenceEngine().evaluate(scheme, traces[0])
        assert api.evaluate(scheme, traces[0]) == expected

    def test_accepts_scheme_strings(self, traces):
        text = "union(dir+add4)2[forwarded]"
        assert api.evaluate(text, traces[0]) == api.evaluate(
            parse_scheme(text), traces[0]
        )

    def test_exclude_writer_is_keyword_only(self, traces):
        with pytest.raises(TypeError):
            api.evaluate("last()1", traces[0], False)

    def test_exclude_writer_threads_through(self, traces):
        scheme = parse_scheme("last(pid)1[direct]")
        include = api.evaluate(scheme, traces[0], exclude_writer=False)
        exclude = api.evaluate(scheme, traces[0], exclude_writer=True)
        expected = VectorizedEngine().evaluate(scheme, traces[0], exclude_writer=False)
        assert include == expected
        assert include != exclude  # writer self-reads must change the counts

    def test_explicit_engine_is_used(self, traces):
        class MarkerError(RuntimeError):
            pass

        class ExplodingEngine(VectorizedEngine):
            # the facade routes through the job path, which always uses
            # the batch entry point -- failing there proves the explicit
            # engine was threaded through AND that job failures re-raise
            # the original exception in the submitter
            def evaluate_batch(self, schemes, traces, **kwargs):
                raise MarkerError

        with pytest.raises(MarkerError):
            api.evaluate("last()1", traces[0], engine=ExplodingEngine())


class TestEvaluateSuite:
    def test_matches_engine_suite(self, traces):
        scheme = parse_scheme("overlap(pc4)1[direct]")
        expected = VectorizedEngine().evaluate_suite(scheme, traces)
        assert api.evaluate_suite(scheme, traces) == expected


class TestSweep:
    def test_rows_match_batch_scheme_stats(self, traces):
        from repro.harness.experiments.base import batch_scheme_stats

        texts = ["last()1[direct]", "union(add4)2[direct]", "inter(pc4)2[forwarded]"]
        schemes = [parse_scheme(text) for text in texts]
        expected = batch_scheme_stats(schemes, traces, engine=VectorizedEngine())
        rows = api.sweep(texts, traces, engine=VectorizedEngine())
        assert rows == expected

    def test_row_shape(self, traces):
        rows = api.sweep(["last()1[direct]"], traces)
        assert set(rows[0]) == {"prev", "sens", "pvp", "pooled_tp", "pooled_fp"}


class TestSimulateForwarding:
    def test_config_is_the_supported_spelling(self, traces):
        report = api.simulate_forwarding(
            "last()1", traces[0],
            config=api.ForwardingConfig(topology="ring"),
        )
        assert report.topology == "ring"

    def test_legacy_topology_model_kwargs_are_a_type_error(self, traces):
        # the one-release topology=/model= shim is gone: config= is the
        # only spelling
        with pytest.raises(TypeError):
            api.simulate_forwarding("last()1", traces[0], topology="ring")
        with pytest.raises(TypeError):
            api.simulate_forwarding(
                "last()1", traces[0], model=api.TrafficModel(data_cost=5.0)
            )


class TestJobPath:
    def test_submit_returns_a_live_handle(self, traces):
        handle = api.submit("sweep", ["last()1"], traces)
        rows = handle.result(timeout=60)
        assert handle.status().state == "done"
        assert set(rows[0]) == {"prev", "sens", "pvp", "pooled_tp", "pooled_fp"}

    def test_handle_streams_progress(self, traces):
        handle = api.submit("evaluate", ["last()1", "union(add4)2"], traces)
        events = list(handle.stream_progress())
        assert [e["event"] for e in events][0] == "state"
        assert events[-1]["event"] == "done"

    def test_conveniences_match_the_job_path(self, traces):
        rows_via_submit = api.submit(
            "sweep", ["last()1"], traces
        ).result(timeout=60)
        rows_via_sweep = api.sweep(["last()1"], traces)
        assert rows_via_submit == rows_via_sweep


class TestReExports:
    def test_screening_stats_from_facade_counts(self, traces):
        counts = api.evaluate("last()1[direct]", traces[0])
        stats = api.ScreeningStats.from_counts(counts)
        assert 0.0 <= (stats.sensitivity or 0.0) <= 1.0

    def test_parse_scheme_is_the_core_parser(self):
        assert api.parse_scheme is parse_scheme
