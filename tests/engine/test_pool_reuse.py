"""Persistent local workers: reuse across batches without re-installing.

The service keeps one ``ParallelEngine(persistent=True)`` alive for its
whole lifetime; these tests pin the contract that makes that worthwhile:
back-to-back batches over the same traces reuse the forked workers and
the traces installed in them (``engine.parallel.pool_reuses``) -- with
results bit-identical to a throwaway engine, because pooling is
transport, not math.
"""

import pytest

from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.parallel import ParallelEngine
from repro.telemetry import Telemetry, set_telemetry
from tests.conftest import make_random_trace

SCHEMES = [
    "last()1[direct]",
    "inter(pid+add8)2[direct]",
    "union(add4)2[direct]",
    "inter(pc4)2[forwarded]",
]


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=200, num_blocks=12, seed="pool-a"),
        make_random_trace(num_nodes=8, num_events=160, num_blocks=10, seed="pool-b"),
    ]


@pytest.fixture
def telemetry():
    sink = Telemetry()
    previous = set_telemetry(sink)
    yield sink
    set_telemetry(previous)


class TestPersistentPool:
    def test_second_batch_reuses_pool_and_published_traces(
        self, traces, telemetry
    ):
        schemes = [parse_scheme(text) for text in SCHEMES]
        with ParallelEngine(jobs=2, persistent=True) as engine:
            first = engine.evaluate_batch(schemes, traces)
            second = engine.evaluate_batch(schemes, traces)
        assert first == second
        assert telemetry.counters["engine.parallel.pool_reuses"] == 1

    def test_changed_traces_rebuild_the_pool(self, traces, telemetry):
        schemes = [parse_scheme(text) for text in SCHEMES[:2]]
        other = [
            make_random_trace(num_nodes=8, num_events=180, num_blocks=9, seed="pool-c")
        ]
        with ParallelEngine(jobs=2, persistent=True) as engine:
            engine.evaluate_batch(schemes, traces)
            engine.evaluate_batch(schemes, other)  # different content -> no reuse
        assert "engine.parallel.pool_reuses" not in telemetry.counters

    def test_results_bit_identical_to_throwaway_engines(self, traces):
        schemes = [parse_scheme(text) for text in SCHEMES]
        with ParallelEngine(jobs=2, persistent=True) as engine:
            pooled_one = engine.evaluate_batch(schemes, traces)
            pooled_two = engine.evaluate_batch(list(reversed(schemes)), traces)
        fresh = ParallelEngine(jobs=2).evaluate_batch(schemes, traces)
        reference = VectorizedEngine().evaluate_batch(schemes, traces)
        assert pooled_one == fresh == reference
        assert pooled_two == list(reversed(reference))

    def test_close_is_idempotent_and_reusable(self, traces):
        schemes = [parse_scheme(SCHEMES[0])]
        engine = ParallelEngine(jobs=2, persistent=True)
        before = engine.evaluate_batch(schemes, traces)
        engine.close()
        engine.close()  # second close must be a no-op, not an error
        after = engine.evaluate_batch(schemes, traces)  # pool rebuilt on demand
        engine.close()
        assert before == after

    def test_non_persistent_engine_never_retains(self, traces, telemetry):
        schemes = [parse_scheme(text) for text in SCHEMES[:2]]
        engine = ParallelEngine(jobs=2)
        engine.evaluate_batch(schemes, traces)
        engine.evaluate_batch(schemes, traces)
        assert "engine.parallel.pool_reuses" not in telemetry.counters
