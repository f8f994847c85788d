"""Property: transports move work, never math -- for *any* sweep.

Hypothesis drives random scheme batches over random traces through two
forked local workers and through two real ``repro-worker`` processes
reached by address, and both must land bit for bit on the vectorized
oracle's :class:`ConfusionCounts`.  The property is crossed
over the per-event kernel backends (``python``, and ``native`` where a
compiler exists), because the worker protocol pins the coordinator's
kernel choice across the wire and that pin must never move a bit either.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend
from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.parallel import MIN_BATCH_FOR_POOL, ParallelEngine
from repro.telemetry import Telemetry, set_telemetry
from tests.conftest import make_random_trace
from tests.engine.remote_harness import spawn_worker, stop_workers

#: scheme pool spanning predictor functions, index specs, and update modes
SCHEME_POOL = [
    "last()1[direct]",
    "last(dir+add4)1[direct]",
    "union(add4)2[direct]",
    "union(dir+add6)2[ordered]",
    "inter(pid+add8)2[direct]",
    "inter(pc4)2[forwarded]",
    "overlap(dir+add10)1[direct]",
    "inter(pid+pc8)2[ordered]",
]

schemes_strategy = st.lists(
    st.sampled_from(SCHEME_POOL),
    min_size=MIN_BATCH_FOR_POOL,  # below this the engine runs serially
    max_size=len(SCHEME_POOL),
    unique=True,
)

traces_strategy = st.lists(
    st.tuples(
        st.sampled_from(["eq-a", "eq-b", "eq-c", "eq-d"]),
        st.integers(min_value=60, max_value=220),
        st.integers(min_value=4, max_value=14),
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda t: t[0],
)


def _kernels():
    params = [pytest.param("python", id="kernel-python")]
    if get_kernel_backend("native").available():
        params.append(pytest.param("native", id="kernel-native"))
    else:
        params.append(
            pytest.param(
                "native",
                id="kernel-native",
                marks=pytest.mark.skip(reason="native kernel unavailable here"),
            )
        )
    return params


@pytest.fixture(scope="module")
def worker_fleet(tmp_path_factory):
    """Two real socket workers shared by every Hypothesis example."""
    tmp = tmp_path_factory.mktemp("transport-eq")
    procs, hosts = [], []
    for name in ("eq-w0", "eq-w1"):
        proc, addr = spawn_worker(tmp, name)
        procs.append(proc)
        hosts.append(addr)
    yield hosts
    stop_workers(procs)


def _build_traces(drawn):
    return [
        make_random_trace(
            num_nodes=8, num_events=events, num_blocks=blocks, seed=seed
        )
        for seed, events, blocks in drawn
    ]


@pytest.mark.parametrize("kernel", _kernels())
class TestTransportEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scheme_texts=schemes_strategy, trace_specs=traces_strategy)
    def test_random_sweep_is_transport_invariant(
        self, worker_fleet, kernel, scheme_texts, trace_specs
    ):
        schemes = [parse_scheme(text) for text in scheme_texts]
        traces = _build_traces(trace_specs)
        sink = Telemetry()
        previous_sink = set_telemetry(sink)
        previous_kernel = set_kernel_backend(kernel)
        try:
            oracle = VectorizedEngine().evaluate_batch(schemes, traces)
            local = ParallelEngine(jobs=2).evaluate_batch(schemes, traces)
            remote = ParallelEngine(hosts=worker_fleet).evaluate_batch(
                schemes, traces
            )
        finally:
            set_kernel_backend(previous_kernel)
            set_telemetry(previous_sink)
        assert local == oracle
        assert remote == oracle
        # prove the socket path really ran: chunks landed on named hosts
        # and nothing degraded to the serial fallback
        host_chunks = sum(
            value
            for key, value in sink.counters.items()
            if key.startswith("engine.remote.host.") and key.endswith(".chunks")
        )
        assert host_chunks >= 1
        assert "engine.parallel.fallbacks" not in sink.counters

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scheme_texts=schemes_strategy, trace_specs=traces_strategy)
    def test_traffic_sweep_is_transport_invariant(
        self, worker_fleet, kernel, scheme_texts, trace_specs
    ):
        """The forwarding-traffic path crosses the wire bit-identically too."""
        schemes = [parse_scheme(text) for text in scheme_texts]
        traces = _build_traces(trace_specs)
        previous_kernel = set_kernel_backend(kernel)
        try:
            oracle = VectorizedEngine().evaluate_traffic(schemes, traces)
            remote = ParallelEngine(hosts=worker_fleet).evaluate_traffic(
                schemes, traces
            )
        finally:
            set_kernel_backend(previous_kernel)
        assert remote == oracle
