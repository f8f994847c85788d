"""Engine backends: cross-backend parity, batching, and fault tolerance.

The load-bearing property: every backend returns bit-identical
``ConfusionCounts`` for the same (scheme, trace) inputs, so backend choice
is purely a wall-clock decision.
"""

import pytest

from repro.core.schemes import parse_scheme
from repro.engine import ParallelEngine, ReferenceEngine, VectorizedEngine, pooled
from repro.engine.parallel import MIN_BATCH_FOR_POOL
from tests.conftest import make_random_trace

#: one scheme per prediction function x a spread of update modes/indexes
PARITY_SCHEMES = [
    "last()1[direct]",
    "last(pid+pc4)1[forwarded]",
    "union(add6)2[ordered]",
    "union(dir+pid)4[direct]",
    "inter(pid+add4)2[forwarded]",
    "inter(pc6)2[direct]",
    "overlap(pid+pc4)1[forwarded]",
    "pas(pid+pc2)2[direct]",
    "pas(add4)1[ordered]",
]


@pytest.fixture(scope="module")
def small_traces():
    return [
        make_random_trace(num_nodes=8, num_events=250, num_blocks=12, seed="engine-a"),
        make_random_trace(num_nodes=8, num_events=180, num_blocks=20, seed="engine-b"),
    ]


class TestBackendParity:
    @pytest.mark.parametrize("text", PARITY_SCHEMES)
    def test_all_backends_identical_per_trace(self, small_traces, text):
        scheme = parse_scheme(text)
        reference = ReferenceEngine()
        vectorized = VectorizedEngine()
        parallel = ParallelEngine(jobs=2)
        for trace in small_traces:
            expected = reference.evaluate(scheme, trace)
            assert vectorized.evaluate(scheme, trace) == expected, text
            assert parallel.evaluate(scheme, trace) == expected, text

    def test_suite_and_batch_agree_across_backends(self, small_traces):
        schemes = [parse_scheme(text) for text in PARITY_SCHEMES]
        reference = ReferenceEngine()
        parallel = ParallelEngine(jobs=2, chunk_size=2)
        batch = parallel.evaluate_batch(schemes, small_traces)
        assert len(batch) == len(schemes)
        for scheme, per_trace in zip(schemes, batch):
            assert per_trace == reference.evaluate_suite(scheme, small_traces), (
                scheme.full_name
            )

    def test_pooled_matches_manual_merge(self, small_traces):
        scheme = parse_scheme("union(add6)2[direct]")
        per_trace = VectorizedEngine().evaluate_suite(scheme, small_traces)
        total = pooled(per_trace)
        assert total.total == sum(counts.total for counts in per_trace)
        assert total.true_positive == sum(c.true_positive for c in per_trace)


class TestParallelEngine:
    def test_small_batches_stay_in_process(self, small_traces, monkeypatch):
        """Batches under the pool threshold never pay process spawn costs."""

        def exploding_fork(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers should not be forked for tiny batches")

        monkeypatch.setattr("repro.engine.remote.fork_worker", exploding_fork)
        schemes = [parse_scheme("last()1")] * (MIN_BATCH_FOR_POOL - 1)
        engine = ParallelEngine(jobs=4)
        batch = engine.evaluate_batch(schemes, small_traces)
        assert len(batch) == len(schemes)

    def test_spawn_failure_falls_back_to_serial(self, small_traces, monkeypatch, caplog):
        """Workers that cannot start degrade to serial with a warning."""

        def broken_fork(*args, **kwargs):
            raise OSError("fork forbidden in this environment")

        monkeypatch.setattr("repro.engine.remote.fork_worker", broken_fork)
        schemes = [parse_scheme(text) for text in PARITY_SCHEMES]
        engine = ParallelEngine(jobs=2)
        with caplog.at_level("WARNING", logger="repro.engine.parallel"):
            batch = engine.evaluate_batch(schemes, small_traces)
        assert any("falling back to serial" in record.message for record in caplog.records)
        expected = VectorizedEngine().evaluate_batch(schemes, small_traces)
        assert batch == expected

    def test_jobs_one_is_serial(self, small_traces, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.remote.fork_worker",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("no workers")),
        )
        schemes = [parse_scheme(text) for text in PARITY_SCHEMES]
        batch = ParallelEngine(jobs=1).evaluate_batch(schemes, small_traces)
        assert batch == VectorizedEngine().evaluate_batch(schemes, small_traces)
